"""The Hamiltonian action and the Lanczos exponential used by the propagators.

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
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dstevd

from .errors import PropagationError

# No compiled kernel exists; kept because perfbench/run.py reports it.
HAVE_COMPILED = False

__all__ = ["HamiltonianAction", "lanczos_expm_multiply"]


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
