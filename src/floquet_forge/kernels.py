"""The Hamiltonian action, the Chebyshev exponential and one Lanczos
recurrence.

``chebyshev_expm_multiply`` is the exponential of the exact propagation: a
truncated Chebyshev expansion of exp(-i rho X) v for a Hermitian X whose
spectrum lies in [-1, 1] (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)).  It takes no inner product and no eigensolve, and its error bound,
2 sum_{k>K} |J_k(rho)| <= 2 sum_{k>K} (rho/2)^k / k!, is known before the
first matvec, so ``chebyshev_degree`` picks the degree K for a tolerance
and ``chebyshev_coefficients`` gives the K + 1 weights.
``dynamics.evolve_exact`` steps in the co-moving frame of the drive, where
the diagonal drive cancels and only the static block's nonzeros carry
time-dependent phases; it bounds every exponent's spectrum once per run
and rescales one CSR matrix's data in place per exponential.

``HamiltonianAction`` applies a CSR matrix by ``@`` and counts the calls.
``_lanczos`` runs the recurrence from one vector: one matvec per step, one
pass of full reorthogonalization, and the basis.  Two stopping rules read
it, each through the eigenpairs of the tridiagonal T_m from
``scipy.linalg.eigh_tridiagonal``.  ``lanczos_quadrature`` stops on
breakdown or once a return amplitude settles, and returns the Gauss rule of
the vector's spectral measure, the nodes and weights from which a static
candidate's return amplitude and the dipole spectrum are read without a
dense eigensolve.  ``lanczos_expm_multiply`` is the short-iterative Lanczos
exponential (Park & Light, J. Chem. Phys. 85, 5870 (1986)): it stops once
its error estimate meets the tolerance.  No scenario calls it or
``HamiltonianAction``; perfbench's warm-up and tracer still do.

``_rank_one_eigvalsh`` gives the eigenvalues of a diagonal plus a rank-one
matrix from its secular equation, through LAPACK ``dlasd4``; ``gamma-scan``
calls it directly on the split (D, c) of its constant-V_q vertex
(``gamma._rank_one_split``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dlasd4
from scipy.sparse import _sparsetools

from .errors import PhysicsError

# No compiled kernel exists; kept because perfbench/run.py reports it.
HAVE_COMPILED = False

__all__ = ["HamiltonianAction", "chebyshev_coefficients", "chebyshev_degree",
           "chebyshev_expm_multiply", "lanczos_expm_multiply",
           "lanczos_quadrature"]

# lanczos_quadrature stops once its amplitude moves by at most QUADRATURE_TOL
# between checks QUADRATURE_STRIDE steps apart.  The error falls faster than
# geometrically in m, so at that point it is far below the tolerance: from
# L=4 to 8 at t_final = 20-60 the return rates agree with a dense
# eigensolve to 7e-14 or better
QUADRATURE_TOL = 1e-12
QUADRATURE_STRIDE = 10
# lanczos_expm_multiply refuses when its error estimate is still above the
# tolerance after this many steps; dynamics.evolve_exact refuses a run whose
# Chebyshev degree exceeds it, so no exponential takes more matvecs
LANCZOS_M_MAX = 60


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
        return self.matrix @ x


def chebyshev_degree(rho, tol):
    """The least degree K whose Chebyshev series of exp(-i rho x) errs by at
    most ``tol`` on [-1, 1], and that error bound.

    The series' tail is 2 sum_{k>K} |J_k(rho)| and |J_k(rho)| <=
    (rho/2)^k / k!.  Once K + 2 > rho/2 the terms from k = K + 1 on fall by
    at least the ratio q = (rho/2)/(K + 2), so the tail is at most
    2 (rho/2)^{K+1} / (K+1)! / (1 - q); below that the bound is infinite.
    It falls with K, so K is found by doubling and bisection, in logarithms,
    and stays finite for any finite ``rho``.
    """
    if not (math.isfinite(rho) and rho >= 0.0 and tol > 0.0):
        raise ValueError(f"need a finite rho >= 0 and tol > 0, got "
                         f"rho={rho}, tol={tol}")
    if rho == 0.0:
        return 0, 0.0
    half = 0.5 * rho
    log_half, log_tol = math.log(half), math.log(tol)

    def log_tail(K):
        q = half / (K + 2)
        if q >= 1.0:
            return math.inf
        return (math.log(2.0) + (K + 1) * log_half - math.lgamma(K + 2)
                - math.log1p(-q))

    low, high = -1, 1
    while log_tail(high) > log_tol:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if log_tail(mid) <= log_tol:
            high = mid
        else:
            low = mid
    return high, math.exp(log_tail(high))


def chebyshev_coefficients(rho, degree):
    """c_0 = J_0(rho) and c_k = 2 (-i)^k J_k(rho), k = 1..degree.

    These are the Chebyshev coefficients of exp(-i rho x) on [-1, 1], so
    sum_k c_k T_k(X) approximates exp(-i rho X).  numpy's interpolant at
    2 (degree + 1) Chebyshev points gives them; its aliasing enters through
    J_{3 degree + 4} and beyond, far below roundoff, and no Bessel routine
    is needed.
    """
    c = chebinterpolate(lambda x: np.exp(-1j * rho * x), 2 * degree + 1)
    return c[:degree + 1]


def chebyshev_expm_multiply(twice_x, v, coeffs):
    """sum_k coeffs[k] T_k(X) v, where ``twice_x`` is the CSR matrix 2X.

    With X = (H - c)/R Hermitian and its spectrum inside [-1, 1], and
    ``coeffs`` from :func:`chebyshev_coefficients` at rho = tau R times
    exp(-i tau c), this is exp(-i tau H) v to within the bound of
    :func:`chebyshev_degree`, times |v|.  The recurrence
    T_{k+1}(X) v = 2X T_k(X) v - T_{k-1}(X) v runs through scipy's CSR
    kernel, which accumulates y += 2X x into a row preset to -T_{k-1} v:
    two numpy calls per term and one matvec per degree.  ``twice_x`` and
    ``v`` are complex128; v has unit stride.  That kernel checks no bounds,
    so a ``twice_x`` that is not CSR of shape (n, n), n = len(v), raises
    ``ValueError`` before it runs.
    """
    n = v.shape[0]
    if getattr(twice_x, "format", None) != "csr" or twice_x.shape != (n, n):
        raise ValueError(f"twice_x must be a CSR matrix of shape ({n}, {n})")
    degree = coeffs.shape[0] - 1
    Y = np.empty((degree + 1, n), np.complex128)
    Y[0] = v
    args = (n, n, twice_x.indptr, twice_x.indices, twice_x.data)
    if degree:
        Y[1] = 0.0
        _sparsetools.csr_matvec(*args, Y[0], Y[1])
        Y[1] *= 0.5
    for k in range(1, degree):
        np.negative(Y[k - 1], out=Y[k + 1])
        _sparsetools.csr_matvec(*args, Y[k], Y[k + 1])
    return coeffs @ Y


def _tridiagonal_eigh(alphas, betas):
    """Eigenpairs (theta, S) of the symmetric tridiagonal T_m.

    ``alphas`` is the diagonal of length m; the first m - 1 entries of
    ``betas`` are the off-diagonal.  A failed LAPACK eigensolve raises
    PhysicsError: numpy's LinAlgError is a ValueError, which the CLI
    would report as a config error.
    """
    m = alphas.shape[0]
    try:
        return eigh_tridiagonal(alphas, betas[:m - 1])
    except np.linalg.LinAlgError as exc:
        raise PhysicsError(
            f"tridiagonal eigensolve failed at m={m}: {exc}") from exc


def _rank_one_eigvalsh(d, rho):
    """Ascending eigenvalues of diag(d) + rho 11^T, from its secular equation.

    The d are sorted, then deflated as LAPACK ``dlaed2`` does (Dongarra &
    Sorensen, SIAM J. Sci. Stat. Comput. 8, s139 (1987)).  With the n
    unit-norm weights w = 1/sqrt(n) and tol = 8 eps max(d_max - d_min, n rho),
    n rho |w| <= tol leaves every d as an eigenvalue, and two neighbouring
    poles d_a <= d_b rotate into one, of weight hypot(w_a, w_b), leaving
    d_a c^2 + d_b s^2 (c = w_b/hypot, s = w_a/hypot) as an eigenvalue, when
    the coupling this drops, (d_b - d_a) c s, is at most tol.  A group of m
    equal d is the case of no coupling, and leaves m - 1 eigenvalues at
    that d.  The remaining poles interlace the remaining eigenvalues, the
    roots of 1 + rho sum_g w_g^2 / (d_g - lambda) (Golub, SIAM Rev. 15, 318
    (1973); Bunch, Nielsen & Sorensen, Numer. Math. 31, 31 (1978)).  With
    d'_g = sqrt(d_g - d_0) these are lambda = d_0 + sigma^2 for the roots
    sigma of the singular-value form that LAPACK ``dlasd4`` finds, one per
    call, in O(K) each for K poles.  The problem is scaled to unit size
    first, so that no square overflows, and rho < 0 negates the matrix.
    Each eigenvalue is within a few eps max(|d|, n |rho|) of the exact
    one, the accuracy of a dense symmetric eigensolve.
    """
    d = np.sort(np.asarray(d, dtype=float))
    if rho < 0.0:
        return -_rank_one_eigvalsh(-d, -rho)[::-1]
    rho = float(rho) * d.size
    if rho == 0.0:
        return d
    shift = d[0]
    scale = max(float(d[-1] - shift), rho)
    x = ((d - shift) / scale).tolist()
    w = [math.sqrt(1.0 / d.size)] * d.size
    rho /= scale
    tol = 8.0 * np.finfo(float).eps
    deflated, poles, weights = [], [], []
    prev = None
    for xj, wj in zip(x, w):
        if rho * wj <= tol:
            deflated.append(xj)
        elif prev is None:
            prev = xj, wj
        else:
            xp, wp = prev
            tau = math.hypot(wp, wj)
            c, s = wj / tau, wp / tau
            if (xj - xp) * c * s <= tol:
                deflated.append(xp * c * c + xj * s * s)
                prev = xp * s * s + xj * c * c, tau
            else:
                poles.append(xp)
                weights.append(wp)
                prev = xj, wj
    if prev is not None:
        poles.append(prev[0])
        weights.append(prev[1])
        weights = np.array(weights)
        norm = float(np.linalg.norm(weights))
        # dlasd4 assumes a unit-norm z; the deflated weights left it
        weights /= norm
        rho *= norm * norm
        sqrt_poles = np.sqrt(np.array(poles) - poles[0])
        for i in range(len(poles)):
            _, sigma, _, info = dlasd4(i, sqrt_poles, weights, rho)
            if info or not math.isfinite(sigma):
                raise PhysicsError(f"secular equation failed at root {i} of "
                                   f"{len(poles)}: dlasd4 info={info}")
            deflated.append(poles[0] + sigma * sigma)
    return np.sort(shift + scale * np.array(deflated))


def _lanczos(apply_h, v, beta0, steps, dtype=np.complex128):
    """The Lanczos recurrence from v, |v| = beta0 > 0, one yield per step.

    Step m yields (a, b, V): a = alpha_1..alpha_m and the first m - 1
    entries of b are T_m, b[m - 1] is the coupling beta_m to the next
    basis vector, and V[:m] is the orthonormal basis.  One pass of full
    reorthogonalization keeps the basis clean.  At most ``steps`` steps are
    taken; the basis grows by doubling, so a short run stores few vectors.
    """
    dim = v.shape[0]
    V = np.empty((min(steps, 2 * QUADRATURE_STRIDE), dim), dtype)
    V[0] = v / beta0
    alphas = np.empty(steps)
    betas = np.empty(steps)
    for j in range(steps):
        if j:
            if j == V.shape[0]:
                grown = np.empty((min(2 * j, steps), dim), dtype)
                grown[:j] = V
                V = grown
            V[j] = w / beta
        hv = apply_h(V[j])
        alpha = np.vdot(V[j], hv).real
        w = hv - alpha * V[j]
        if j:
            w -= beta * V[j - 1]
        w -= V[:j + 1].T @ np.conj(V[:j + 1] @ w.conj())
        beta = np.linalg.norm(w)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise PhysicsError(
                f"Lanczos recurrence is not finite at m={j + 1}: "
                f"alpha={alpha}, beta={beta}")
        alphas[j] = alpha
        betas[j] = beta
        yield alphas[:j + 1], betas[:j + 1], V


def lanczos_expm_multiply(apply_h, v, tau, tol=1e-10):
    """w = exp(tau * H) v for a Hermitian action, by the Lanczos method.

    apply_h maps a vector to H @ vector; tau is typically -1j*dt.  The
    a-posteriori error estimate is beta_m * |last component of
    exp(tau*T_m) e1|; iteration stops once it drops below ``tol`` relative
    to ||v||, or on breakdown, and refuses after ``LANCZOS_M_MAX`` steps.
    """
    v = np.asarray(v, dtype=np.complex128)
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return v.copy()
    for a, b, V in _lanczos(apply_h, v, beta0, LANCZOS_M_MAX):
        theta, S = _tridiagonal_eigh(a, b)
        u = S @ (np.exp(tau * theta) * S[0, :])
        beta = b[-1]
        err = abs(beta * u[-1])
        if err <= tol or beta <= 1e-14 * max(1.0, abs(a[-1])):
            return (V[:a.shape[0]].T @ u) * beta0
    raise PhysicsError(
        f"Lanczos exponential did not converge: m={LANCZOS_M_MAX}, "
        f"|tau|={abs(tau):.3e}, error estimate {err:.3e} > tol {tol:.3e}")


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
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return np.empty(0), np.empty(0)
    dtype = np.result_type(mat.dtype, v.dtype, np.float64)
    scale = 0.0
    amp = None
    for a, b, _ in _lanczos(mat.__matmul__, v, beta0, v.shape[0], dtype):
        scale = max(scale, abs(a[-1]), b[-1])
        if b[-1] <= 1e-10 * scale:
            break
        if t is not None and a.shape[0] % QUADRATURE_STRIDE == 0:
            theta, S = _tridiagonal_eigh(a, b)
            weights = beta0 ** 2 * S[0] ** 2
            new = np.exp(-1j * t * theta) @ weights
            if amp is not None and abs(new - amp) <= QUADRATURE_TOL:
                return theta, weights
            amp = new
    theta, S = _tridiagonal_eigh(a, b)
    return theta, beta0 ** 2 * S[0] ** 2
