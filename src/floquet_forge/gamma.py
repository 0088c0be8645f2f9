"""Momentum-resolved interband vertex and interactions derived from it.

The central object is the N x N vertex matrix over the pair-momentum index,
built from the band energies and the Coulomb strength alone.  From it:
the mean-field screened denominator, an RPA-style geometric series check
against the exact inverse, the bound-state eigenproblem, scattering
strengths between dressed pairs, the cavity-mediated global interaction, and
the Coulomb-mixing self-energy.  The Coulomb matrix element is one value,
V_q = U at every transfer q (``InteractionProfile`` refuses any other), so
the vertex is a diagonal plus a rank-one term, diag(a) + (U/N)(11^T - I)
(``_rank_one_split``).  The interband couplings J12 of an
``InteractionProfile`` enter only the functions that solve against the
vertex (the screened denominator, the scattering strengths, the interaction
weight, the cavity interaction and the self-energy), so profiles that differ
in J12 alone give the same vertex.

The functions that need N^2 entries are capped at ``MAX_DENSE`` momenta:
``gamma_matrix`` and ``eigen_sign_analysis`` hold the dense vertex, and
``series_vs_inverse`` reads the split (a, c) and holds only its N x N
kernels.  It sums its series in the eigenbasis of one symmetric eigensolve
when the vertex diagonal has one sign and the spectral radius is below one,
otherwise by doubling, in about 2 log2(n_terms) dense products (15 at the
default 200); its exact inverse comes from ``_vertex_solver``, through
which the solve-based functions read the inverse too, by Sherman-Morrison
in O(N) per right-hand side without forming the matrix and without a size
cap.  The CLI's ``gamma-scan`` reads the split too: its eigenvalues from
the secular equation of diag(D) + c 11^T (``kernels._rank_one_eigvalsh``),
in place of a dense eigensolve, and its vertex rows from (a, c).  The
solver takes a batch of (k, q) pairs and works on all of them in array
operations over rows.  The self-energy, which needs the vertex at
(k, K - k) for every grid momentum k, is one batch of rank-one solves,
O(N^2) in array operations, taken in chunks of ``VERTEX_CHUNK`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, check_energy
from .kspace import BandGrid, CavitySpec, _check_resonant, bare_detuning

__all__ = [
    "InteractionProfile",
    "constant_profile",
    "valley_dip_profile",
    "phase_winding_profile",
    "GammaMatrix",
    "gamma_matrix",
    "mf_gamma_matrix",
    "series_vs_inverse",
    "eigen_sign_analysis",
    "mf_screened_denominator",
    "scattering_strength",
    "interaction_weight",
    "cavity_global_interaction",
    "coulomb_mix_selfenergy",
]

# Largest grid of the functions that hold N x N arrays: the dense vertex,
# or the series' kernels.  The CLI's gamma-scan builds no dense vertex, but
# keeps the cap: there it bounds the N^2 rows of gamma_matrix.csv,
# 1,048,576 rows and 33 MB at 32 x 32
MAX_DENSE = 1024
# Batched vertex solves hold at most this many (pair, momentum) entries at
# once, 512 kB per float64 array, where the N x N batch of the self-energy
# on a 64 x 64 grid would hold 16.8 million.  At 64 x 64, chunks of 2^16
# entries ran the self-energy in 0.68-0.76 s and 35 MB peak RSS, and
# chunks of 2^20 in 0.75-0.98 s and 103 MB; at 16 x 16 it is one chunk
VERTEX_CHUNK = 1 << 16


@dataclass(frozen=True)
class InteractionProfile:
    """Coulomb matrix elements V_q and interband couplings J12_{k,s}.

    ``Vq`` is an Nx x Ny array over the wrapped momentum-difference index
    holding one real value U, |U| <= ``errors.ENERGY_MAX``: a q-dependent or
    complex V_q is refused, so the vertex is always diagonal plus rank one.
    ``Jcoupling`` has shape (2, Nx, Ny) — one coupling map per spin — and is
    bounded by 1.  It keeps the type of its input: real couplings are stored
    as float64 and solved in real arithmetic, complex ones
    (``phase_winding_profile``) as complex128.
    """

    Vq: np.ndarray
    Jcoupling: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.Vq):
            raise ValueError("Vq must be real")
        v = np.asarray(self.Vq, dtype=float)
        j = np.asarray(self.Jcoupling)
        j = j.astype(np.result_type(j.dtype, np.float64), copy=False)
        if v.ndim != 2:
            raise ValueError(f"Vq must be 2-d, got shape {v.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(j))):
            raise ValueError("Vq and Jcoupling must be finite")
        if j.shape == v.shape:
            j = np.stack([j, j])
        if j.shape != (2,) + v.shape:
            raise ValueError(f"Jcoupling must have shape (2,)+{v.shape}, "
                             f"got {j.shape}")
        if np.unique(v).size != 1:
            raise ValueError("V_q must be one constant value U at every q")
        check_energy("Coulomb U", float(v[0, 0]))
        if np.max(np.abs(j)) > 1.0 + 1e-12:
            raise ValueError("couplings |J12| must not exceed 1")
        object.__setattr__(self, "Vq", v)
        object.__setattr__(self, "Jcoupling", j)

    @property
    def shape(self):
        return self.Vq.shape


def _torus_delta(grid: BandGrid, K):
    """Wrapped momentum displacement of every grid point from index K."""
    kx0 = grid.kx[int(K[0]) % grid.kx.size]
    ky0 = grid.ky[int(K[1]) % grid.ky.size]
    two_pi = 2.0 * math.pi
    dx = (grid.kx - kx0 + math.pi) % two_pi - math.pi
    dy = (grid.ky - ky0 + math.pi) % two_pi - math.pi
    return np.meshgrid(dx, dy, indexing="ij")


def constant_profile(grid: BandGrid, U):
    """Momentum-independent Coulomb U with unit couplings everywhere."""
    shape = (grid.kx.size, grid.ky.size)
    return InteractionProfile(Vq=np.full(shape, float(U)),
                              Jcoupling=np.ones(shape))


def _valley_dip(grid: BandGrid, K, width):
    """Coupling magnitude 1 - exp(-|k - K|^2 / (2 width^2)) on the torus."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    dx, dy = _torus_delta(grid, K)
    return 1.0 - np.exp(-(dx ** 2 + dy ** 2) / (2.0 * width ** 2))


def valley_dip_profile(grid: BandGrid, U, K, width):
    """Unit coupling with a Gaussian suppression centered at grid index K."""
    mag = _valley_dip(grid, K, width)
    return InteractionProfile(Vq=np.full(mag.shape, float(U)), Jcoupling=mag)


def phase_winding_profile(grid: BandGrid, U, K, Kp, width):
    """Valley dip at K with a unit-winding phase around grid index Kp."""
    mag = _valley_dip(grid, K, width)
    px, py = _torus_delta(grid, Kp)
    phase = np.arctan2(py, px)
    return InteractionProfile(Vq=np.full(mag.shape, float(U)),
                              Jcoupling=mag * np.exp(1j * phase))


@dataclass(frozen=True)
class GammaMatrix:
    """Dense pair-propagator vertex at fixed (k, q, omega).

    ``matrix`` is square, finite and real symmetric, indexed by the
    flattened grid index p = ix * Ny + iy; |omega| is at most
    ``errors.ENERGY_MAX``.
    """

    matrix: np.ndarray
    omega: float

    def __post_init__(self):
        check_energy("omega", self.omega)
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"vertex matrix must be square 2-d, got "
                             f"shape {m.shape}")
        # a NaN fails the symmetry comparison below, so it would pass it
        if not np.all(np.isfinite(m)):
            raise ValueError("vertex matrix must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise ValueError("vertex matrix must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]


def _flat(grid: BandGrid, k):
    """Flattened grid indices ix * Ny + iy of index pairs, shape (..., 2)."""
    k = np.asarray(k, dtype=int)
    ny = grid.ky.size
    return k[..., 0] % grid.kx.size * ny + k[..., 1] % ny


def _vertex_diagonal(grid: BandGrid, prof: InteractionProfile, k, q, omega):
    """Vertex diagonals at the pairs (k, q), one flattened row per pair.

    ``k`` and ``q`` are grid index pairs, or arrays of them with shape
    (..., 2); the result has shape (..., Nx * Ny), so a single pair gives
    one row of shape (Nx * Ny,).
    """
    check_energy("omega", omega)
    nx, ny = grid.kx.size, grid.ky.size
    if prof.shape != (nx, ny):
        raise ValueError(f"profile shape {prof.shape} does not match grid "
                         f"({nx}, {ny})")
    k, q = np.broadcast_arrays(np.asarray(k, dtype=int),
                               np.asarray(q, dtype=int))
    kx, ky = k[..., 0, None, None] % nx, k[..., 1, None, None] % ny
    qx, qy = q[..., 0, None, None] % nx, q[..., 1, None, None] % ny
    ix, iy = np.arange(nx)[:, None], np.arange(ny)[None, :]
    sum_v = (float(np.sum(prof.Vq)) - float(prof.Vq[0, 0])) / (nx * ny)
    eps1_shift = grid.eps1[(ix + qx) % nx, (iy + qy) % ny]
    diag = (omega + grid.eps1[kx, ky]
            - grid.eps1[(kx + qx) % nx, (ky + qy) % ny]
            + eps1_shift - grid.eps2 - sum_v)
    return diag.reshape(k.shape[:-1] + (nx * ny,))


def gamma_matrix(grid: BandGrid, prof: InteractionProfile, k, q, omega):
    """Vertex matrix at pair momentum labels (k, q).

    [G]_{p,p'} = (w + e1_k - e1_{k+q} + e1_{p'+q} - e2_{p'}
                  - sum_{q' != 0} V_{q'}/N) delta_{p,p'}
                 + (1 - delta_{p,p'}) V_{p-p'}/N.

    ``k`` is a grid index pair; ``q`` is an index shift (q = (0,0) means zero
    transfer).  With V_q = U this is diag(a) + c (11^T - I), c = U/N, built
    from ``_rank_one_split``.  The matrix is dense, so grids above
    ``MAX_DENSE`` momenta raise ``ValueError``; the solve-based functions
    below do not need it.
    """
    a, _, c = _rank_one_split(grid, prof, k, q, omega)
    n = a.size
    if n > MAX_DENSE:
        raise ValueError(f"dense vertex capped at {MAX_DENSE} momenta, "
                         f"got {n}")
    m = np.full((n, n), c)
    # + 0.0 turns a -0.0 diagonal entry into 0.0, as gamma-scan prints it
    np.fill_diagonal(m, a + 0.0)
    return GammaMatrix(matrix=m, omega=float(omega))


def mf_gamma_matrix(grid: BandGrid, prof: InteractionProfile, omega):
    """Zero-transfer vertex; independent of the spectator momentum."""
    return gamma_matrix(grid, prof, (0, 0), (0, 0), omega)


# the dense reference verdict for tests; perfbench's tracer hooks it by name
def _checked_inverse(m):
    diag_scale = max(1.0, float(np.max(np.abs(m))))
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise PhysicsError(f"vertex matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(inv)) \
            or np.max(np.abs(inv)) * np.finfo(float).eps * diag_scale > 1e-3:
        raise PhysicsError("vertex matrix is numerically singular")
    return inv


def _rank_one_split(grid: BandGrid, prof: InteractionProfile, k, q, omega):
    """Split the vertex as diag(D) + c 11^T; returns (a, D, c).

    ``a`` is the vertex diagonal at the pairs (k, q), as
    ``_vertex_diagonal`` gives it, c = U/N and D = a - c.  A single
    momentum has no off-diagonal, and takes c = 0 so that D = a exactly,
    where a large U would cancel in (a - c) + c.
    """
    a = _vertex_diagonal(grid, prof, k, q, omega)
    n = a.shape[-1]
    c = float(prof.Vq[0, 0]) / n if n > 1 else 0.0
    return a, a - c, c


def _vertex_solver(grid: BandGrid, prof: InteractionProfile, k, q, omega):
    """Return ``solve``, solve(b) = Gamma^{-1} b, for the vertices at (k, q).

    ``k`` and ``q`` are one pair of grid indices or arrays of them with
    shape (..., 2), a batch of vertices.  ``solve`` takes right-hand sides
    of shape (..., N): one per vertex of a batch, in its order, or any
    number of them against a single vertex.  The result has the shape of
    ``b``.  Gamma is symmetric, so entry k of Gamma^{-1} b is column k of
    the inverse contracted with b, sum_p b_p [Gamma^{-1}]_{p,k}: a column
    read is one solve.  The singularity verdict is that of
    ``_checked_inverse`` for every vertex of the batch, and is given here,
    before any solve.

    Each vertex is diag(D) + c 11^T with c = U/N and D = diag(Gamma) - c
    (``_rank_one_split``), a diagonal plus a rank-one term, whose inverse
    Sherman-Morrison gives in O(N) without forming the matrix.  It is used
    in a pivoted form: with j the smallest |D_j|, every row p != j of
    Gamma x = b gives x_p = (b_p - b_j + D_j x_j)/D_p, and row j gives
    x_j = (b_j - c sum_{p != j} (b_p - b_j)/D_p) / (D_j + c (1 + D_j s)),
    s = sum_{p != j} 1/D_p.  Nothing divides by D_j, so an exactly zero
    D_j needs no special case.  The largest |Gamma^{-1}| entry has a closed
    form too, so the verdict costs O(N).  The whole batch is one set of
    array operations over rows, so B vertices cost O(B N) with no loop
    over them.
    """
    n = grid.kx.size * grid.ky.size
    a, d, c = _rank_one_split(grid, prof, k, q, omega)
    a, d = a.reshape(-1, n), d.reshape(-1, n)
    j = np.argmin(np.abs(d), axis=1)[:, None]
    pivot = np.arange(n) == j
    if np.any((d == 0.0) & ~pivot):
        raise PhysicsError("vertex matrix is singular: two equal rows")
    w = np.zeros_like(d)
    np.divide(1.0, d, out=w, where=~pivot)
    dj = np.take_along_axis(d, j, axis=1)[:, 0]
    s = np.sum(w, axis=1)
    den = dj + c * (1.0 + dj * s)
    if np.any(den == 0.0):
        raise PhysicsError("vertex matrix is singular: rank-one pole")
    # Gamma^{-1} = diag(w) - gam w w^T on p, p' != j; column j is
    # -c w/den off the diagonal and (1 + c s)/den on it.
    gam = c * dj / den
    # r1 and r0, the two largest |w_p| of each row
    r = np.abs(w)
    top = np.argmax(r, axis=1)[:, None]
    r1 = np.take_along_axis(r, top, axis=1)[:, 0]
    np.put_along_axis(r, top, 0.0, axis=1)
    r0 = np.max(r, axis=1)
    largest = np.max(np.abs(w - gam[:, None] * w * w), axis=1)
    for bound in (np.abs(gam) * r0 * r1, np.abs(c / den) * r1,
                  np.abs((1.0 + c * s) / den)):
        largest = np.maximum(largest, bound)
    scale = np.maximum(np.max(np.abs(a), axis=1), max(1.0, abs(c)))
    # a non-finite bound fails the comparison, so it refuses too
    if not np.all(largest * np.finfo(float).eps * scale <= 1e-3):
        raise PhysicsError("vertex matrix is numerically singular")

    def solve(b):
        b = np.asarray(b)
        rows = b.reshape(-1, n)
        bj = np.take_along_axis(rows, j, axis=1)
        xj = (bj[:, 0] - c * np.sum(w * (rows - bj), axis=1)) / den
        x = np.where(pivot, xj[:, None],
                     w * (rows - bj + dj[:, None] * xj[:, None]))
        return x.reshape(b.shape)
    return solve


def series_vs_inverse(grid: BandGrid, prof: InteractionProfile, k, q, omega,
                      n_terms=200):
    """Geometric resummation of the vertex inverse versus direct inversion.

    Returns the partial series sum_{m < n_terms} K^m G with K = G eta, the
    exact inverse, their max deviation, the kernel spectral radius rho, and
    a convergence flag.  G = diag(1/D), with D the vertex diagonal, and
    eta = diag(D) - Gamma = -c (11^T - I) come from the split (a, c) of
    ``_rank_one_split`` (D = a), so no vertex matrix is built.  A diagonal
    entry below 1e-12 of the largest (or of 1) has no propagator and raises
    ``PhysicsError``; grids above ``MAX_DENSE`` momenta raise
    ``ValueError``, since the kernels are N x N.

    When the vertex diagonal D has one sign s, R = |D|^-1/2 makes
    M = s R eta R symmetric, and K^m G = s R M^m R.  One ``eigh`` of
    R eta R = Q diag(lam) Q^T gives rho = max |lam| and, for rho < 1, the
    sum s (RQ) diag(p(s lam)) (RQ)^T, p(x) = sum_{m < n_terms} x^m: 0.05 s
    for ``eigh`` and 0.008 s for the product at N = 576, on one core of a
    2-core Xeon VM, against 0.12 s for the matrix products.  Its relative
    error is about min(n_terms, 1/(1 - rho)) machine epsilons; for
    rho >= 1 it grows n_terms-fold (1.4e-13 at rho 1.03 and n_terms 200,
    against 8e-16 for the products), so a divergent sum keeps the
    products.  A mixed-sign diagonal can give K complex eigenvalues and
    takes rho from ``eigvals`` of K (0.14-0.23 s) and the sum from the
    products.

    Both sum by doubling over the bits of ``n_terms`` (Higham, Functions of
    Matrices, SIAM 2008, sec. 4.1), on p's argument elementwise or on K.
    From S = G and P = K, the sum of the first a = 1 terms and K^a, each
    bit after the leading one doubles a (S += P S, P = P P), and a set bit
    adds one term (S = G + K S, P = K P); the last P update is skipped.
    That is about 2 log2(n_terms) products and never more than
    4 log2(n_terms): 15 at the default, where term by term takes 199.  The
    closed form (1 - x^n)/(1 - x) would cancel near x = 1.

    The exact inverse is ``_vertex_solver``'s solve of the N unit vectors,
    with its singularity verdict: O(N^2) by Sherman-Morrison (0.005-0.014 s
    at N = 576 on one core of a 2-core Xeon VM, against 0.03-0.04 s for
    ``np.linalg.inv``).
    """
    if isinstance(n_terms, bool) \
            or not (isinstance(n_terms, (int, np.integer)) and n_terms >= 1):
        raise ValueError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    a, _, c = _rank_one_split(grid, prof, k, q, omega)
    n = a.size
    if n > MAX_DENSE:
        raise ValueError(f"dense vertex capped at {MAX_DENSE} momenta, "
                         f"got {n}")
    if np.min(np.abs(a)) < 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise PhysicsError("vertex diagonal vanishes; no propagator split")
    bits = bin(n_terms)[3:]

    def doubled(first, step, mul):
        # sum_{m < n_terms} step^m first, by doubling over the bits
        series, power = first, step
        for i, bit in enumerate(bits, 1):
            series = series + mul(power, series)
            if bit == "1":
                series = first + mul(step, series)
            if i < len(bits):
                power = mul(power, power)
                if bit == "1":
                    power = mul(step, power)
        return series

    def hollow(u, v):
        # u v^T with a zero diagonal
        m = np.outer(u, v)
        np.fill_diagonal(m, 0.0)
        return m

    sign = 1.0 if np.all(a > 0) else -1.0 if np.all(a < 0) else 0.0
    if sign:
        r = 1.0 / np.sqrt(np.abs(a))
        lam, vec = np.linalg.eigh(hollow(-c * r, r))
        rho = float(np.max(np.abs(lam)))
    if sign and rho < 1.0:
        rq = r[:, None] * vec
        p_n = doubled(np.ones_like(lam), sign * lam, np.multiply)
        series = sign * (rq * p_n) @ rq.T
    else:
        kernel = hollow(1.0 / a, np.full(n, -c))
        if not sign:
            rho = float(np.max(np.abs(np.linalg.eigvals(kernel))))
        series = doubled(np.diag(1.0 / a), kernel, np.matmul)
    inverse = _vertex_solver(grid, prof, k, q, omega)(np.eye(n))
    dev = float(np.max(np.abs(series - inverse)))
    return {"series": series, "inverse": inverse, "max_dev": dev,
            "rho": rho, "converged": rho < 1.0}


def eigen_sign_analysis(gm: GammaMatrix):
    """Pair eigenenergies from the linear frequency dependence.

    The vertex is omega * I + M, so its zero crossings sit at
    E_j = omega - lambda_j(Gamma(omega)).  Returns energies ascending, the
    matching eigenvector columns, and the count below zero.
    """
    lam, vec = np.linalg.eigh(gm.matrix)
    energies = gm.omega - lam
    order = np.argsort(energies)
    energies = energies[order]
    vec = vec[:, order]
    return {"energies": energies, "vectors": vec,
            "negative_count": int(np.sum(energies < 0.0))}


def _check_spins(*labels):
    # a bool passes the int test and True == 1, but Jcoupling[True] is a
    # mask that adds an axis rather than picking spin 1
    for s in labels:
        if isinstance(s, bool) or not (isinstance(s, (int, np.integer))
                                       and s in (0, 1)):
            raise ValueError(f"spin label must be 0 or 1, got {s!r}")


def mf_screened_denominator(grid: BandGrid, prof: InteractionProfile, omega):
    """Pair-screened detuning per final momentum and spin.

    1/Delta_kf = sum_k J12_{k,s} [Gamma_MF^{-1}]_{k,kf}; returns shape
    (2, Nx, Ny), real for real couplings and complex otherwise, since the
    vertex is real symmetric.  One vertex solve with the two spins'
    couplings as right-hand sides: O(N) with no size cap.
    """
    solve = _vertex_solver(grid, prof, (0, 0), (0, 0), omega)
    v = solve(prof.Jcoupling.reshape(2, -1))
    scale = np.maximum(1.0, np.max(np.abs(v), axis=1, keepdims=True))
    if np.any(np.abs(v) < 1e-14 * scale):
        raise PhysicsError("pair screening sum vanishes at some "
                           "momentum; denominator undefined")
    return (1.0 / v).reshape(prof.Jcoupling.shape)


def _scattering(grid: BandGrid, prof: InteractionProfile, g, omega,
                k, k1, q, s):
    """Scattering amplitudes for (k, k1, q) index pairs, each of shape (B, 2).

    Returns the B amplitudes of ``scattering_strength``.  Each pair's
    coupling differences are one right-hand side of its vertex, and the
    amplitude is entry k1 of the solution.  The vertices are solved in
    chunks of at most ``VERTEX_CHUNK`` entries of solver state, N per pair.
    """
    _check_spins(s)
    check_energy("g", g)
    n = grid.kx.size * grid.ky.size
    den = -bare_detuning(grid, omega)
    _check_resonant(den)
    ratio = prof.Jcoupling[s].ravel() / den.ravel()
    k, k1, q = (np.asarray(x, dtype=int).reshape(-1, 2) for x in (k, k1, q))
    kf, k1f = _flat(grid, k), _flat(grid, k1)
    rows = max(1, VERTEX_CHUNK // n)
    out = np.empty(len(k), dtype=complex)
    for lo in range(0, len(k), rows):
        b = slice(lo, lo + rows)
        x = _vertex_solver(grid, prof, k[b], q[b], omega)(
            ratio - ratio[kf[b], None])
        out[b] = g ** 2 * prof.Vq[0, 0] / n * x[np.arange(len(x)), k1f[b]]
    return out


def scattering_strength(grid: BandGrid, prof: InteractionProfile, g, omega,
                        k, k1, q, s=0):
    """Drive-induced scattering amplitude between pair momenta k and k1.

    g^2 sum_{k'} (J_{k',s}/(w + e12_{k'}) - J_{k,s}/(w + e12_k))
    * V_{k'-k}/N * [Gamma_{k,q}^{-1}]_{k',k1}, with V_{k'-k} = U.  One
    rank-one solve with the coupling differences as right-hand side, read
    at k1: O(N) with no size cap.  ``s`` is 0 or 1.
    """
    return complex(_scattering(grid, prof, g, omega, k, k1, q, s)[0])


def interaction_weight(grid: BandGrid, prof: InteractionProfile, g, omega,
                       k, k1, q, s=0):
    """Hermitized pair-interaction weight.

    (1/2)(V_{k,k1,q} J_{k1,s}^* + J_{k,s} V_{k1,k,q}^*); symmetric under
    simultaneous exchange and conjugation by construction.  Both amplitudes
    are one batch of two vertex solves, so O(N).  ``s`` is 0 or 1.
    """
    v_fwd, v_rev = _scattering(grid, prof, g, omega, [k, k1], [k1, k],
                               [q, q], s)
    jk, jk1 = prof.Jcoupling[s].ravel()[_flat(grid, [k, k1])]
    return 0.5 * (v_fwd * np.conj(jk1) + jk * np.conj(v_rev))


def cavity_global_interaction(grid: BandGrid, prof: InteractionProfile,
                              cav: CavitySpec, omega, kf, kfp, s=0, sp=0):
    """Cavity-mediated interaction between dressed pairs at kf and kf'.

    -(g^2 gc0^2/(N delta_c)) Re[(sum_k [X]_{k,kf} J_{k,s}) J_{kf',sp}^*]
    * sum_{k'} [X]_{k',kf'}, with X the inverse zero-transfer vertex.  X is
    symmetric, so the two sums are X J_s read at kf and X 1 read at kf':
    two solves, O(N) with no size cap.  ``s`` and ``sp`` are 0 or 1.
    """
    _check_spins(s, sp)
    solve = _vertex_solver(grid, prof, (0, 0), (0, 0), omega)
    n = grid.kx.size * grid.ky.size
    kf, kfp = _flat(grid, [kf, kfp])
    weighted = complex(solve(prof.Jcoupling[s].ravel())[kf])
    plain = float(solve(np.ones(n))[kfp])
    re_part = (weighted * np.conj(prof.Jcoupling[sp].ravel()[kfp])).real
    return -(cav.g ** 2 * cav.gc0 ** 2 / (n * cav.delta_c)) \
        * re_part * plain


def coulomb_mix_selfenergy(grid: BandGrid, prof: InteractionProfile, g,
                           omega, K):
    """Coulomb-mixing self-energy at total momentum index K.

    sum_k Re[V_{k,k,K-k} J_{k}^*]; nonzero through neighboring couplings
    even where J vanishes at K itself.  The N vertices at (k, K - k) are
    one batch of rank-one solves, one right-hand side each, read at k, so
    O(N^2) in array operations, in chunks of ``VERTEX_CHUNK`` entries.
    """
    nx, ny = grid.kx.size, grid.ky.size
    k = np.stack(np.divmod(np.arange(nx * ny), ny), axis=1)
    q = (np.asarray(K, dtype=int) - k) % (nx, ny)
    v = _scattering(grid, prof, g, omega, k, k, q, 0)
    return float(np.sum((v * np.conj(prof.Jcoupling[0].ravel())).real))
