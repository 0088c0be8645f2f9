"""The Hamiltonian action, the Lanczos exponential and Lanczos quadrature.

``HamiltonianAction`` applies a CSR matrix with scipy's matvec and counts
the calls.  ``dynamics.evolve_exact`` steps in the co-moving frame of the
drive, where the diagonal drive cancels and only the static block's
nonzeros carry time-dependent phases, so it needs no drive term here: it
rescales the action's CSR data in place once per exponential.  Profiles
show the matvec is a small share of a Lanczos step, so this numpy path is
the only one.

Each Lanczos iteration diagonalizes the growing tridiagonal T_m to test
convergence.  It calls LAPACK ``dstevd`` directly, the driver that
``scipy.linalg.eigh_tridiagonal`` selects, so the eigenpairs and hence the
stopping iteration are bit-identical to the wrapper's; the wrapper's input
validation cost about twice the LAPACK call itself (35 against 12 us per
call at L=6 on a 2-core Xeon VM).

``lanczos_quadrature`` runs the same recurrence from one vector to its end
and returns the Gauss rule of that vector's spectral measure, the nodes and
weights from which a static candidate's return amplitude and the dipole
spectrum are read without a dense eigensolve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dstevd

from .errors import PropagationError

# No compiled kernel exists; kept because perfbench/run.py reports it.
HAVE_COMPILED = False

__all__ = ["HamiltonianAction", "lanczos_expm_multiply", "lanczos_quadrature"]

# lanczos_quadrature stops once its amplitude moves by at most QUADRATURE_TOL
# between checks QUADRATURE_STRIDE steps apart.  The error falls faster than
# geometrically in m, so at that point it is far below the tolerance: from
# L=4 to 8 at t_final = 20-60 the return rates agree with a dense
# eigensolve to 7e-14 or better
QUADRATURE_TOL = 1e-12
QUADRATURE_STRIDE = 10


class HamiltonianAction:
    """Callable y = H @ x for a CSR matrix H; ``matvecs`` counts the calls.

    H is a CSR matrix or a SparseOperator.  ``matrix`` is read at every
    call, so a caller may rescale its ``data`` in place between calls.
    """

    def __init__(self, h):
        self.matrix = getattr(h, "matrix", h).tocsr()
        self.matvecs = 0

    def __call__(self, x):
        self.matvecs += 1
        return self.matrix @ np.ascontiguousarray(x, dtype=np.complex128)


def _tridiagonal_eigh(alphas, betas):
    """Eigenpairs (theta, S) of the symmetric tridiagonal T_m.

    ``alphas`` is the diagonal of length m; the first m - 1 entries of
    ``betas`` are the off-diagonal.  ``betas`` needs at least one entry even
    when m = 1: dstevd rejects an empty off-diagonal, and ignores it for a
    1x1 matrix.
    """
    m = alphas.shape[0]
    theta, S, info = dstevd(alphas, betas[:max(m - 1, 1)], compute_v=1)
    if info:
        raise PropagationError(f"tridiagonal eigensolve failed at m={m}: "
                               f"dstevd info={info}")
    return theta, S


def lanczos_expm_multiply(apply_h, v, tau, tol=1e-10, m_max=60):
    """w = exp(tau * H) v for a Hermitian action, by the Lanczos method.

    apply_h maps a vector to H @ vector; tau is typically -1j*dt.  The
    a-posteriori error estimate is beta_m * |last component of
    exp(tau*T_m) e1|; iteration stops once it drops below ``tol`` relative
    to ||v||.  Full reorthogonalization keeps the basis clean at the small
    subspace sizes used here.
    """
    v = np.asarray(v, dtype=np.complex128)
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return v.copy()
    V = np.empty((m_max + 1, v.shape[0]), dtype=np.complex128)
    V[0] = v / beta0
    alphas = np.empty(m_max)
    betas = np.empty(m_max)
    m = 0
    u = None
    err = np.inf
    for j in range(m_max):
        w = apply_h(V[j])
        alpha = np.vdot(V[j], w).real
        w = w - alpha * V[j]
        if j > 0:
            w = w - betas[j - 1] * V[j - 1]
        # full reorthogonalization (one pass)
        proj = np.conj(V[:j + 1] @ w.conj())
        w = w - V[:j + 1].T @ proj
        alphas[j] = alpha
        beta = float(np.linalg.norm(w))
        betas[j] = beta
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise PropagationError(
                f"Lanczos recurrence is not finite at m={j + 1}: "
                f"alpha={alpha}, beta={beta}")
        m = j + 1
        theta, S = _tridiagonal_eigh(alphas[:m], betas[:m])
        u = S @ (np.exp(tau * theta) * S[0, :])
        err = abs(beta * u[-1])
        if err <= tol or beta <= 1e-14 * max(1.0, abs(alpha)):
            break
        V[j + 1] = w / beta
    else:
        raise PropagationError(
            f"Lanczos exponential did not converge: m={m_max}, "
            f"|tau|={abs(tau):.3e}, error estimate {err:.3e} > tol {tol:.3e}")
    return (V[:m].T @ u) * beta0


def lanczos_quadrature(h, v, t=None):
    """Gauss nodes and weights of the spectral measure of v under H.

    m Lanczos steps from v give T_m = S diag(theta) S^T, and
    sum_j w_j f(theta_j), w_j = |v|^2 S_0j^2, is the m-point Gauss rule for
    <v|f(H)|v> (Golub & Meurant, *Matrices, Moments and Quadrature with
    Applications*, 2010): exact for polynomials of degree below 2m, and for
    every f once the Krylov space is invariant.  H is a Hermitian CSR
    matrix or SparseOperator; the recurrence runs in float64 when H and v
    are both real.  Full reorthogonalization keeps the nodes free of ghost
    copies over long runs.

    The run stops exactly on breakdown, when the Krylov space is invariant:
    at m = dim, or when the next coupling beta_m is at most 1e-10 of the
    largest recurrence coefficient.  A space that closes in exact
    arithmetic can leave a computed beta_m of a few 1e-11 of it (2.3e-11
    for the L=4 chain from the CDW state, 3.5e-11 for the L=4 dipole
    spectrum), roundoff grown by the small couplings before it.  Dropping
    beta_m moves the nodes by O(beta_m^2) and the amplitude at t by
    O((beta_m t)^2).  Otherwise, with ``t`` given, it stops once the return
    amplitude sum_j w_j exp(-i theta_j t) moves by at most
    ``QUADRATURE_TOL`` between checks ``QUADRATURE_STRIDE`` steps apart;
    its error grows with t, so ``t`` is the latest time read.  With ``t``
    None only breakdown ends the run.  No step cap is needed: the run ends
    by m = dim at the latest, and the caller's sector cap bounds dim.  A
    zero v has the empty rule.
    """
    mat = getattr(h, "matrix", h)
    v = np.asarray(v)
    dtype = np.result_type(mat.dtype, v.dtype, np.float64)
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return np.empty(0), np.empty(0)
    dim = v.shape[0]
    # the basis grows by doubling, so a short run stores few vectors
    V = np.empty((min(dim, 2 * QUADRATURE_STRIDE), dim), dtype=dtype)
    V[0] = v / beta0
    alphas, betas = [], []
    scale = 0.0
    amp = None
    for j in range(dim):
        w = mat @ V[j]
        alpha = np.vdot(V[j], w).real
        w = w - alpha * V[j]
        if j > 0:
            w = w - betas[j - 1] * V[j - 1]
        proj = np.conj(V[:j + 1] @ w.conj())
        w = w - V[:j + 1].T @ proj
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise PropagationError(
                f"Lanczos recurrence is not finite at m={j + 1}: "
                f"alpha={alpha}, beta={beta}")
        alphas.append(alpha)
        betas.append(beta)
        scale = max(scale, abs(alpha), beta)
        m = j + 1
        if m == dim or beta <= 1e-10 * scale:
            break
        if t is not None and m % QUADRATURE_STRIDE == 0:
            theta, S = _tridiagonal_eigh(np.array(alphas), np.array(betas))
            weights = beta0 ** 2 * S[0] ** 2
            new = np.exp(-1j * t * theta) @ weights
            if amp is not None and abs(new - amp) <= QUADRATURE_TOL:
                return theta, weights
            amp = new
        if m == V.shape[0]:
            grown = np.empty((min(2 * m, dim), dim), dtype)
            grown[:m] = V
            V = grown
        V[m] = w / beta
    theta, S = _tridiagonal_eigh(np.array(alphas), np.array(betas))
    return theta, beta0 ** 2 * S[0] ** 2
