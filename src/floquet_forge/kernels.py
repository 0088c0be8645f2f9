"""The Hamiltonian action and the Lanczos exponential used by the propagators.

``HamiltonianAction`` applies ``H0 @ x + coef * (diag * x)`` with scipy's
CSR matvec plus one elementwise update for the diagonal drive; profiles
show the matvec is a small share of a Lanczos step, so this numpy path is
the only one.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import PropagationError

# No compiled kernel exists; kept because perfbench/run.py reports it.
HAVE_COMPILED = False

__all__ = ["HamiltonianAction", "lanczos_expm_multiply"]


class HamiltonianAction:
    """Callable y = H0 @ x + coef * (diag * x), with a swappable coefficient.

    H0 is a CSR matrix (or SparseOperator); diag is an optional diagonal
    drive, applied only while ``coef`` is nonzero.  ``matvecs`` counts the
    calls.
    """

    def __init__(self, h0, diag=None):
        self.matrix = getattr(h0, "matrix", h0).tocsr()
        self.diag = (None if diag is None
                     else np.ascontiguousarray(diag, dtype=np.complex128))
        self.coef = 0j
        self.matvecs = 0

    def set_coef(self, coef):
        self.coef = complex(coef)

    def __call__(self, x):
        self.matvecs += 1
        x = np.ascontiguousarray(x, dtype=np.complex128)
        y = self.matrix @ x
        if self.diag is not None and self.coef != 0:
            y += self.coef * (self.diag * x)
        return y


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
        proj = V[:j + 1].conj() @ w
        w = w - V[:j + 1].T @ proj
        alphas[j] = alpha
        beta = float(np.linalg.norm(w))
        betas[j] = beta
        m = j + 1
        theta, S = eigh_tridiagonal(alphas[:m], betas[:m - 1])
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
