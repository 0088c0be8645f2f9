"""Independent dense oracle for the solve-based functions of the gamma layer.

Each quantity is rebuilt from its documented formula on the full N x N
vertex, written out entry by entry from explicit momentum-index arithmetic
and inverted with ``np.linalg.inv``.  Nothing here calls the package, so
its rank-one solver is checked against a plain inverse.  The oracle takes
any V_q array, also a q-dependent one that the package refuses, as the
check for a future solver of that form.  Grid index p = ix * Ny + iy
throughout.
"""

import numpy as np


def _coords(nx, ny):
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    return ix, iy


def vertex(eps1, eps2, vq, k, q, omega):
    """[G]_{p,p'} = (w + e1_k - e1_{k+q} + e1_{p+q} - e2_p - sum' V/N) delta
    + (1 - delta) V_{p-p'}/N."""
    nx, ny = vq.shape
    n = nx * ny
    ix, iy = _coords(nx, ny)
    kx, ky = k[0] % nx, k[1] % ny
    qx, qy = q[0] % nx, q[1] % ny
    hartree = sum(vq[a, b] for a in range(nx) for b in range(ny)
                  if (a, b) != (0, 0)) / n
    diag = (omega + eps1[kx, ky] - eps1[(kx + qx) % nx, (ky + qy) % ny]
            + eps1[(ix + qx) % nx, (iy + qy) % ny] - eps2[ix, iy] - hartree)
    g = vq[(ix[:, None] - ix[None, :]) % nx,
           (iy[:, None] - iy[None, :]) % ny] / n
    g[np.arange(n), np.arange(n)] = diag
    return g


def mf_denominator(eps1, eps2, vq, jc, omega):
    """1/Delta_kf = sum_k J_{k,s} [Gamma_MF^{-1}]_{k,kf}, shape (2, Nx, Ny)."""
    x = np.linalg.inv(vertex(eps1, eps2, vq, (0, 0), (0, 0), omega))
    return np.stack([1.0 / (jc[s].ravel() @ x) for s in (0, 1)]).reshape(
        (2,) + vq.shape)


def scattering(eps1, eps2, vq, jc, g, omega, k, k1, q, s=0):
    """g^2 sum_k' (J_k'/(w + e12_k') - J_k/(w + e12_k)) V_{k'-k}/N X_{k',k1}."""
    nx, ny = vq.shape
    ix, iy = _coords(nx, ny)
    x = np.linalg.inv(vertex(eps1, eps2, vq, k, q, omega))
    ratio = jc[s].ravel() / (omega + (eps1 - eps2).ravel())
    kf = (k[0] % nx) * ny + k[1] % ny
    k1f = (k1[0] % nx) * ny + k1[1] % ny
    v_row = vq[(ix - k[0]) % nx, (iy - k[1]) % ny]
    return g ** 2 * np.sum((ratio - ratio[kf]) * v_row / (nx * ny)
                           * x[:, k1f])


def weight(eps1, eps2, vq, jc, g, omega, k, k1, q, s=0):
    """(1/2)(V_{k,k1,q} J_{k1,s}^* + J_{k,s} V_{k1,k,q}^*)."""
    nx, ny = vq.shape
    fwd = scattering(eps1, eps2, vq, jc, g, omega, k, k1, q, s)
    rev = scattering(eps1, eps2, vq, jc, g, omega, k1, k, q, s)
    jk = jc[s][k[0] % nx, k[1] % ny]
    jk1 = jc[s][k1[0] % nx, k1[1] % ny]
    return 0.5 * (fwd * np.conj(jk1) + jk * np.conj(rev))


def cavity_global(eps1, eps2, vq, jc, cav_g, gc0, delta_c, omega, kf, kfp,
                  s=0, sp=0):
    """-(g^2 gc0^2/(N delta_c)) Re[(X^T J_s)_kf J_{kf',sp}^*] sum_k' X_{k',kf'}."""
    nx, ny = vq.shape
    n = nx * ny
    x = np.linalg.inv(vertex(eps1, eps2, vq, (0, 0), (0, 0), omega))
    a = (kf[0] % nx) * ny + kf[1] % ny
    b = (kfp[0] % nx) * ny + kfp[1] % ny
    weighted = x[:, a] @ jc[s].ravel()
    re_part = (weighted * np.conj(jc[sp].ravel()[b])).real
    return -(cav_g ** 2 * gc0 ** 2 / (n * delta_c)) * re_part * x[:, b].sum()


def selfenergy(eps1, eps2, vq, jc, g, omega, K):
    """sum_k Re[V_{k,k,K-k} J_{k,0}^*]."""
    nx, ny = vq.shape
    total = 0.0
    for kx in range(nx):
        for ky in range(ny):
            v = scattering(eps1, eps2, vq, jc, g, omega, (kx, ky), (kx, ky),
                           (K[0] - kx, K[1] - ky))
            total += (v * np.conj(jc[0][kx, ky])).real
    return total
