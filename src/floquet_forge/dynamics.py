"""Time evolution and validation observables.

Exact propagation of the driven chain (fourth-order commutator-free CFM4:2
stepping with Chebyshev exponentials, in the co-moving frame of the drive,
where the diagonal drive cancels and only the static block's nonzeros carry
phases), Loschmidt return rates, the normalized RMS mismatch metric, and
the exact dipole absorbance of the two-band chain.  One Gershgorin interval
bounds the spectrum of every exponent of a run, so the Chebyshev degree of
each step length, and the bound on the whole run's truncation error, are
fixed before the first step.

The benchmark scores a candidate effective Hamiltonian, and the absorbance
reads its spectrum, from one vector's spectral measure and nothing more, so
both take it from ``kernels.lanczos_quadrature``, a Gauss rule from one
Lanczos run, instead of a dense eigensolve of the sector.
``evolve_static`` propagates a whole state by dense diagonalization in
plain numpy; no scenario calls it, and it is the reference the tests
compare the quadrature with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import PhysicsError, PropagationError, check_energy
from .fock import (SectorBasis, SparseOperator, TwoBandChainParams,
                   build_sector_basis, build_two_band_chain)
from .kernels import (LANCZOS_M_MAX, chebyshev_coefficients,
                      chebyshev_degree, chebyshev_expm_multiply,
                      lanczos_quadrature)

__all__ = [
    "Trajectory",
    "cdw_state",
    "evolve_exact",
    "evolve_static",
    "return_rate",
    "nrmse",
    "return_rate_benchmark",
    "dipole_excitations",
    "absorbance_ed",
]

NORM_TOL = 1e-9
# bound on the Chebyshev truncation error of a whole evolve_exact run,
# relative to |psi0|; each exponential takes an equal share per unit time
TRUNCATION_TOL = 1e-10
# largest sector that return_rate_benchmark propagates exactly, that
# dipole_excitations enumerates (checked before the basis is built) and that
# evolve_static diagonalizes densely; it also bounds the Krylov size of
# kernels.lanczos_quadrature, which ends by m = dim at the latest
MAX_STATIC_DIM = 8192
# evolve_exact takes at least this many steps per drive period: from there
# down, halving the step divides the state error by 14.6-16 (fourth order);
# from 2.5 steps it divides it by 23-46, outside the asymptotic regime, and
# 4 steps are no more accurate than 2.5 at 20J
STEPS_PER_PERIOD_MIN = 5
# largest sample count times dim that evolve_exact stores: 512 MiB of
# complex128
MAX_STORED_AMPLITUDES = 2 ** 25
# largest CFM4 step count times (dim + STEP_OVERHEAD) that evolve_exact
# takes.  A step costs a fixed part as well as one per state component: at
# the default step, with Chebyshev degrees 6-10, 0.06 ms at dim 4 (L=2),
# 0.08 ms at 36 (L=4), 0.22-0.27 ms at 400 (L=6), 0.87 ms at 1225 (L=7) and
# 3.7 ms at 4900 (L=8), 0.41-0.73 us per (dim + 130) (one core of a 2-core
# Xeon VM), so the cap is 7-13 min of stepping, and up to about six times
# that at the degree cap of 60.  At the T/640 reference step and
# omega = 20J, L=6 over t_final = 60 is 6.5e7, L=7 over 20 is 5.5e7, and
# L=8 (dim 4900) over 60 is 6.1e8
MAX_STEP_WORK = 2 ** 30
STEP_OVERHEAD = 130
# CFM4:2 weights and nodes
_A1, _A2 = 0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0
_C1, _C2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
# the CFM4 weight w of any nonzero has |w| <= 2(|a1| + |a2|) = 2/sqrt(3)
_W_MAX = 2.0 * (abs(_A1) + abs(_A2))


@dataclass
class Trajectory:
    """Sampled wavefunction history: times (nt,), states (nt, dim)."""

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=np.complex128)
        if self.times.ndim != 1 or self.states.ndim != 2 \
                or self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times (nt,) and states (nt, dim) required")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        norms = np.linalg.norm(self.states, axis=1)
        drift = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if drift > NORM_TOL:
            raise PropagationError(
                f"norm drift {drift:.3e} exceeds {NORM_TOL:.0e}")
        self.meta.setdefault("norm_drift", drift)

    @property
    def dim(self):
        return self.states.shape[1]


def cdw_state(b: SectorBasis):
    """Doublons on alternating sites starting at the chain head.

    A Fock state, so a real unit vector.  Defined in the (ceil(L/2),
    ceil(L/2)) sector; raises if ``b`` is any other sector.
    """
    want = (b.L + 1) // 2
    if b.n_up != want or b.n_down != want:
        raise ValueError(
            f"density-wave state lives in the ({want}, {want}) sector of "
            f"L={b.L}, got ({b.n_up}, {b.n_down})")
    state = 0
    for j in range(0, b.L, 2):
        state |= (1 << j) | (1 << (j + b.L))
    psi = np.zeros(b.dim)
    psi[b.position(state)] = 1.0
    return psi


def _sample_times(t_final, stride):
    """k*stride for every whole stride up to t_final, then t_final itself.

    A last stride that ends within 1e-9 strides of ``t_final`` is taken to
    end on it, so t_final = 10 with stride 0.1 gives exactly 101 samples.
    """
    n = math.floor(t_final / stride + 1e-9)
    times = stride * np.arange(n + 1, dtype=float)
    if n and t_final - times[-1] <= 1e-9 * stride:
        times[-1] = t_final
        return times
    return np.append(times, t_final)


def _fitting_step(half_width, t_final, h):
    """About the longest step below ``h`` whose Chebyshev degree is within
    ``kernels.LANCZOS_M_MAX``, by bisection on log h: the degree grows with
    the step even though the step's share of the error budget grows too."""
    low, high = math.log(h) - 256.0, math.log(h)
    for _ in range(48):
        mid = 0.5 * (low + high)
        step = math.exp(mid)
        degree, _ = chebyshev_degree(0.5 * step * half_width,
                                     TRUNCATION_TOL * step / (2.0 * t_final))
        if degree <= LANCZOS_M_MAX:
            low = mid
        else:
            high = mid
    return math.exp(low)


def evolve_exact(chain, psi0, t_final, dt=None, sample_dt=None):
    """Propagate under the drive H(t) = H0 + 2*cos(omega*t)*D.

    ``chain`` is the :class:`~floquet_forge.fswt.DrivenChain` that
    :func:`~floquet_forge.fswt.hubbard_harmonics` builds: a Hermitian static
    block H0, a real diagonal drive D and omega; any other input raises
    ``ValueError``.

    The state is stepped in the co-moving frame psi' = exp(i Phi(t) D) psi,
    Phi(t) = (2/omega) sin(omega t), where the drive cancels and
    H'(t)_ab = (H0)_ab exp(i Phi(t) (D_a - D_b)) (Eckardt, Rev. Mod. Phys.
    89, 011004 (2017)): only the static block's nonzeros carry phases, and
    the large diagonal drive leaves the exponent.  Fourth-order
    commutator-free stepping, CFM4:2 (Blanes & Moan 2006; Alvermann &
    Fehske, J. Comput. Phys. 230, 5930 (2011)): a step of length h from t
    applies exp(-i h/2 H0(w)) twice, where H0(w) scales each nonzero of H0
    by w = 2(a2 exp(i Phi1 delta) + a1 exp(i Phi2 delta)) the first time
    and with a1 and a2 swapped the second; delta = D_row - D_col on that
    nonzero, Phi1,2 = Phi(t + c1,2 h), a1,2 = 1/4 -+ sqrt(3)/6 and
    c1,2 = 1/2 -+ sqrt(3)/6.  Diagonal entries have delta = 0 and keep their
    value.  Each stored state is mapped back by exp(-i Phi(t) D), so
    ``states`` are in the lab frame.

    Each exponential is a Chebyshev series,
    ``kernels.chebyshev_expm_multiply``.  |w| <= 2/sqrt(3), so the spectrum
    of every H0(w) lies in one Gershgorin interval [c - R, c + R], taken
    once per run from H0's diagonal and 2/sqrt(3) times its off-diagonal
    absolute row sums.  A step of length h has rho = h R/2, and its degree
    K is the least whose tail bound eps(h) (``kernels.chebyshev_degree``)
    is at most ``TRUNCATION_TOL`` * h / (2 t_final): each exponential takes
    an equal share of the budget per unit time.  **Error bound.**  Each
    CFM4 exponential is unitary and its series differs from it by at most
    eps in norm, so every stored state differs from the one exact CFM4
    exponentials give by at most S exp(S) times |psi0|, plus roundoff,
    where S sums eps over the run's exponentials; S <= ``TRUNCATION_TOL``.
    This bounds the exponentials, not the CFM4 step's own error, which is
    fourth order in h.  ``meta`` records ``degrees``, K for each distinct
    step length, and ``truncation_bound``, S exp(S).  A step length whose
    K exceeds ``kernels.LANCZOS_M_MAX`` raises ``ValueError`` before the
    first step, naming K, R and the dt that fits: the width 2R grows with
    the interaction, about U L/2 for the Hubbard chain.  A step that leaves a
    non-finite state raises ``PropagationError`` naming its start time, its
    length, its degree and the run's bound.

    ``dt`` is the largest step, at most a fifth of the drive period; the
    default is a tenth.  Samples are stored at k*``sample_dt`` (every step
    when None) and at t_final; each sample interval is cut into the fewest
    equal steps no longer than ``dt``, so every sample lands on its grid
    point, and a run takes at most two step lengths.  ``omega``,
    ``t_final`` and, when given, ``dt`` and ``sample_dt`` must be finite and
    positive.  A run that would take more than ``MAX_STEP_WORK`` steps
    times (dim + ``STEP_OVERHEAD``), or whose samples would store more than
    ``MAX_STORED_AMPLITUDES`` amplitudes, raises ``ValueError`` before the
    first step.
    """
    static, drive, omega = chain
    for name, value in (("omega", omega), ("t_final", t_final), ("dt", dt),
                        ("sample_dt", sample_dt)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value}")
    if not static.hermitian:
        raise ValueError("static block must be Hermitian")
    diag = drive.diagonal()
    if drive.nnz != np.count_nonzero(diag) or np.iscomplexobj(diag):
        raise ValueError("drive must be a real diagonal operator")
    period = 2.0 * math.pi / omega
    dt_max = period / STEPS_PER_PERIOD_MIN
    if dt is None:
        dt = period / 10.0
    if dt > dt_max * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt:.4g} does not resolve the drive; need <= {dt_max:.4g}")
    # every sample interval takes a step too, but samples finer than dt are
    # bounded far tighter by the storage cap below
    if t_final / dt * (static.dim + STEP_OVERHEAD) > MAX_STEP_WORK:
        raise ValueError(
            f"{t_final / dt:.3g} steps of dim {static.dim} exceed the cap "
            f"of {MAX_STEP_WORK} steps times dim, plus {STEP_OVERHEAD} per "
            f"step for its fixed cost; raise dt (up to T/5) or shorten "
            f"t_final")
    if sample_dt is None:
        sample_dt = t_final / max(1, math.ceil(t_final / dt - 1e-9))
    # in floats, so that an absurd ratio compares as inf instead of raising
    stored = (t_final / sample_dt + 2.0) * static.dim
    if stored > MAX_STORED_AMPLITUDES:
        raise ValueError(
            f"{t_final / sample_dt:.3g} samples of dim {static.dim} exceed "
            f"the cap of {MAX_STORED_AMPLITUDES} stored amplitudes; raise "
            f"sample_dt")
    times = _sample_times(t_final, sample_dt)
    # every sample interval but the last spans sample_dt, so the steps take
    # at most two lengths
    spans = np.full(times.size - 1, float(sample_dt))
    spans[-1] = times[-1] - times[-2]
    counts = np.maximum(1, np.ceil(spans / dt - 1e-9)).astype(int)
    lengths, length_of = np.unique(spans / counts, return_inverse=True)

    psi = np.ascontiguousarray(np.asarray(psi0, dtype=np.complex128))
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"psi0 must be normalized, |psi|={nrm:.12g}")

    # H0 with its whole diagonal stored, so that the shift below reaches
    # every row; its Gershgorin interval [c - R, c + R] holds the spectrum
    # of every exponent H0(w)
    dim = static.dim
    coo = static.matrix.tocoo()
    index = np.arange(dim)
    h0 = sparse.csr_matrix(
        (np.concatenate([coo.data, np.zeros(dim, coo.dtype)]),
         (np.concatenate([coo.row, index]), np.concatenate([coo.col, index]))),
        shape=(dim, dim))
    rows = np.repeat(index, np.diff(h0.indptr))
    on_diag = rows == h0.indices
    energy = h0.data[on_diag].real
    radius = _W_MAX * np.bincount(
        rows, np.where(on_diag, 0.0, np.abs(h0.data)), minlength=dim)
    low, high = (energy - radius).min(), (energy + radius).max()
    centre, half_width = 0.5 * (high + low), 0.5 * (high - low) or 1.0

    degrees, tails, series = {}, [], []
    for h in lengths.tolist():
        degree, tail = chebyshev_degree(
            0.5 * h * half_width, TRUNCATION_TOL * h / (2.0 * t_final))
        if degree > LANCZOS_M_MAX:
            raise ValueError(
                f"Chebyshev degree {degree} of a step of length h={h:.4g} "
                f"exceeds the cap of {LANCZOS_M_MAX}: the exponents' "
                f"spectral radius is R={half_width:.4g}; take dt <= "
                f"{_fitting_step(half_width, t_final, h):.4g}")
        degrees[h] = degree
        tails.append(tail)
        series.append(chebyshev_coefficients(0.5 * h * half_width, degree)
                      * np.exp(-0.5j * h * centre))
    total = 2.0 * float(counts @ np.array(tails)[length_of])
    bound = total * math.exp(total)

    def phi(t):
        return (2.0 / omega) * math.sin(omega * t)

    # delta = D_row - D_col on each nonzero of H0, and the phases exp(i Phi
    # delta) are taken once per distinct delta.  2X = 2(H0(w) - c)/R has its
    # spectrum in [-2, 2]: ``scaled`` holds 2 H0/R, with 2(H0_aa - c)/R on
    # the diagonal, where delta = 0 and w = 1, and each exponential writes
    # its weights times ``scaled`` into the data of ``twice_x``
    deltas, which = np.unique(diag[rows] - diag[h0.indices],
                              return_inverse=True)
    jdeltas = 1j * deltas
    scaled = (2.0 / half_width) * h0.data
    scaled[on_diag] = (2.0 / half_width) * (energy - centre)
    twice_x = h0.astype(np.complex128)
    weights = 2.0 * np.array([[_A2, _A1], [_A1, _A2]])
    states = np.empty((times.size, psi.size), dtype=np.complex128)
    states[0] = psi
    for k, (n, which_length) in enumerate(zip(counts.tolist(),
                                              length_of.tolist()), 1):
        h, coeffs = lengths[which_length], series[which_length]
        for j in range(n):
            t = times[k - 1] + j * h
            e = np.exp(np.multiply.outer((phi(t + _C1 * h),
                                          phi(t + _C2 * h)), jdeltas))
            for w in weights @ e:
                np.multiply(scaled, w[which], out=twice_x.data)
                psi = chebyshev_expm_multiply(twice_x, psi, coeffs)
            if not math.isfinite(np.vdot(psi, psi).real):
                raise PropagationError(
                    f"step from t={t:.6g} of length h={h:.6g} left a "
                    f"non-finite state (Chebyshev degree {coeffs.size - 1}, "
                    f"run truncation bound {bound:.3g})")
        states[k] = np.exp(-1j * phi(times[k]) * diag) * psi
    return Trajectory(times, states,
                      meta={"steps": int(counts.sum()), "degrees": degrees,
                            "truncation_bound": bound})


def _check_static_dim(dim):
    """Refuse a sector above ``MAX_STATIC_DIM``."""
    if dim > MAX_STATIC_DIM:
        raise ValueError(f"sector capped at dim {MAX_STATIC_DIM}, got {dim}")


def evolve_static(H: SparseOperator, psi0, times):
    """Propagate under a static Hamiltonian by dense diagonalization.

    The benchmark scores candidates by Lanczos quadrature instead; this
    whole-state propagation is the reference its tests compare with.
    """
    _check_static_dim(H.dim)
    if not H.hermitian:
        raise ValueError("static Hamiltonian must be Hermitian")
    times = np.asarray(times, dtype=float)
    # a real H takes the float64 eigensolve and gives a real V: 0.46 against
    # 2.6 s in complex128 at dim 1225 (L=7) on one core of a 2-core Xeon VM;
    # the states are built in complex arithmetic, a small cost next to it
    eps, V = np.linalg.eigh(H.to_dense())
    coef = np.exp(-1j * np.outer(times, eps)) * (V.conj().T @ psi0)
    states = coef @ V.T
    return Trajectory(times, states)


def return_rate(traj: Trajectory, psi0):
    """Loschmidt return probability |<psi0|psi(t)>|^2 along a trajectory."""
    ref = np.asarray(psi0, dtype=np.complex128)
    overlaps = traj.states @ ref.conj()
    return np.abs(overlaps) ** 2


def nrmse(L_approx, L_exact, times):
    """Normalized RMS mismatch of two return-rate histories.

    sqrt(mean squared deviation) over the mean of the exact signal, both
    time-averaged by the trapezoid rule on the sample ``times``, which need
    not be evenly spaced.
    """
    a = np.asarray(L_approx, dtype=float)
    e = np.asarray(L_exact, dtype=float)
    x = np.asarray(times, dtype=float)
    if a.shape != e.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length histories with >= 2 samples")
    if x.shape != a.shape:
        raise ValueError(f"need one time per sample, got {x.shape} times "
                         f"for {a.size} samples")
    span = x[-1] - x[0]
    if not span > 0:
        raise ValueError(f"sample times must span a positive interval, "
                         f"got {span}")
    mean_ex = np.trapezoid(e, x) / span
    if mean_ex <= 0:
        raise ValueError("exact signal has non-positive mean")
    ms = np.trapezoid((a - e) ** 2, x) / span
    return math.sqrt(ms) / mean_ex


def return_rate_benchmark(p, b, hams, t_final=60.0, dt=None, sample_dt=0.1):
    """Loschmidt benchmark: exact drive versus static candidates.

    ``hams`` maps labels to static SparseOperators.  Returns times, the
    exact return rate, per-label return rates, and per-label mismatch, each
    keyed in the order of ``hams``.  Raises ``ValueError`` before
    propagating when the sector exceeds ``MAX_STATIC_DIM`` or a candidate
    is not a Hermitian operator on ``b``.

    A candidate H scores |sum_j w_j exp(-i theta_j t)|^2, the Gauss rule of
    ``kernels.lanczos_quadrature`` for |<psi0|exp(-iHt)|psi0>|^2 from the
    CDW start psi0.  Its Lanczos run stops when the amplitude at the last
    sample time, where the rule errs most, moves by at most
    ``kernels.QUADRATURE_TOL`` between checks, or on breakdown, at
    m = dim at the latest.  The candidates are scored one after another:
    at 15-30 ms each, a thread pool costs more than it saves.
    """
    from .fswt import hubbard_harmonics

    _check_static_dim(b.dim)
    for label, H in hams.items():
        if H.dim != b.dim or not H.hermitian:
            raise ValueError(f"candidate {label!r} is not a Hermitian "
                             f"operator on the dim-{b.dim} sector")
    psi0 = cdw_state(b)
    traj = evolve_exact(hubbard_harmonics(p, b), psi0, t_final, dt=dt,
                        sample_dt=sample_dt)
    L_ex = return_rate(traj, psi0)

    def score(H):
        theta, w = lanczos_quadrature(H, psi0, traj.times[-1])
        return np.abs(np.exp(-1j * np.outer(traj.times, theta)) @ w) ** 2

    curves = {label: score(H) for label, H in hams.items()}
    errors = {label: nrmse(lr, L_ex, traj.times)
              for label, lr in curves.items()}
    return {"times": traj.times, "L_exact": L_ex, "curves": curves,
            "nrmse": errors, "norm_drift": traj.meta["norm_drift"]}


# ---------------------------------------------------------------------------
# two-band chain absorbance


def _lower_band_product_state(L):
    low = (1 << L) - 1  # band-1 orbitals occupy indices 0..L-1
    return low | (low << (2 * L))


def dipole_excitations(p: TwoBandChainParams):
    """Dipole-coupled excitation energies and weights from the filled band.

    The fully filled band-1 product state |G> is an exact eigenstate
    (interband kinetic terms are absent and band-1 hopping is Pauli
    blocked); this is checked first, and ``PhysicsError`` is raised
    otherwise.  Returns the Krylov nodes of d|G> less E_G and their Gauss
    weights, from ``kernels.lanczos_quadrature`` run to breakdown: H0
    conserves the band-2 occupation, so the Krylov space of d|G> closes
    inside the one-pair states (after 5 vectors at L=3 and 8 at L=4 for
    the paper bands).  Each node is an E_n - E_G and its weight the summed
    |<n|d|G>|^2 of that level, so the weights add up to |d|G>|^2; dark
    levels do not appear.  Raises ``ValueError`` before enumerating the
    basis when the (L, L) sector exceeds ``MAX_STATIC_DIM``.
    """
    _check_static_dim(math.comb(2 * p.L, p.L) ** 2)
    b = build_sector_basis(2 * p.L, p.L, p.L)
    ops = build_two_band_chain(p, b)
    H, d = ops["H0"], ops["dipole"]
    g_idx = b.position(_lower_band_product_state(p.L))
    col = H.matrix.getcol(g_idx).toarray().ravel()
    e_g = col[g_idx].real
    col[g_idx] = 0.0
    purity = np.abs(col).max() if col.size else 0.0
    if purity > 1e-12 * max(1.0, abs(e_g)):
        raise PhysicsError(f"filled lower band is not an eigenstate: "
                           f"off-diagonal weight {purity:.3e}")
    theta, w = lanczos_quadrature(H, d.matrix.getcol(g_idx).toarray().ravel())
    return theta - e_g, w


def absorbance_ed(p: TwoBandChainParams, omega_grid, gamma_broadening):
    """Lorentzian-broadened dipole absorbance of the two-band chain.

    alpha(w) = (gamma/pi) sum_n |<n|d|G>|^2 / ((w - (E_n - E_G))^2 + gamma^2)
    with |G> the filled lower band.  |w| <= ``errors.ENERGY_MAX`` and gamma
    lies in [1/ENERGY_MAX, ENERGY_MAX], so no square overflows or gives 0/0.
    """
    check_energy("gamma_broadening", gamma_broadening, positive=True)
    omega_grid = np.asarray(omega_grid, dtype=float)
    check_energy("omega", np.abs(omega_grid).max(initial=0.0))
    de, w2 = dipole_excitations(p)
    g = gamma_broadening
    alpha = (g / math.pi) * np.sum(
        w2[None, :] / ((omega_grid[:, None] - de[None, :]) ** 2 + g ** 2),
        axis=1)
    return alpha
