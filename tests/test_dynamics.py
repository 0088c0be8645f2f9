"""Exact propagation, return rates, the mismatch metric, and ED absorbance."""
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from floquet_forge import (HubbardParams, Trajectory, TwoBandChainParams,
                           absorbance_ed, build_hubbard_operators,
                           build_sector_basis, cdw_state, evolve_exact,
                           evolve_static, nrmse, return_rate,
                           return_rate_benchmark)
from floquet_forge import dynamics, kernels
from floquet_forge.errors import PhysicsError
from floquet_forge.fock import SparseOperator, build_two_band_chain
from floquet_forge.fswt import (DrivenChain, floquet_h2, hfe_h,
                                hubbard_harmonics)

from conftest import embed_sector
from oracles import driven_ode, floquet_dense
from oracles.dense_fermi import hubbard_dense


# -- initial state and containers -------------------------------------------

def test_cdw_state_dimer():
    b = build_sector_basis(2, 1, 1)
    psi = cdw_state(b)
    # doublon on the first site: up bit 0, down bit 2 -> pattern 5
    assert list(b.states) == [5, 6, 9, 10]
    assert psi[b.position(5)] == 1.0
    assert np.count_nonzero(psi) == 1


def test_cdw_state_odd_chain():
    b = build_sector_basis(3, 2, 2)
    psi = cdw_state(b)
    want = (1 | (1 << 3)) | ((1 << 2) | (1 << 5))  # doublons on sites 1, 3
    assert psi[b.position(want)] == 1.0


def test_cdw_state_wrong_sector():
    with pytest.raises(ValueError):
        cdw_state(build_sector_basis(4, 1, 1))


def test_trajectory_validation():
    ok = np.eye(2, dtype=np.complex128)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), ok)
    with pytest.raises(PhysicsError, match="norm drift"):
        Trajectory(np.array([0.0, 1.0]), 1.5 * ok)
    t = Trajectory(np.array([0.0, 1.0]), ok)
    assert t.meta["norm_drift"] == 0.0
    assert t.dim == 2


@pytest.mark.parametrize("times, states", [
    (np.array([0.0, 1.0, 2.0]), np.eye(2)),   # one time too many
    (np.array([[0.0], [1.0]]), np.eye(2)),    # times not 1-d
    (np.array([0.0]), np.array([1.0, 0.0])),  # states not 2-d
])
def test_trajectory_rejects_mismatched_shapes(times, states):
    with pytest.raises(ValueError, match=r"times \(nt,\) and states"):
        Trajectory(times, states)


# -- exact propagation -------------------------------------------------------

def test_evolve_exact_guards():
    p = HubbardParams(L=2, J=1.0, U=3.0, g=2.0, omega=12.0)
    b = build_sector_basis(2, 1, 1)
    series = hubbard_harmonics(p, b)
    psi0 = cdw_state(b)
    with pytest.raises(ValueError):  # dt must resolve the drive period
        evolve_exact(series, psi0, 1.0, dt=2.0 * np.pi / (4.0 * p.omega))
    with pytest.raises(ValueError):
        evolve_exact(series, psi0, -1.0)
    with pytest.raises(ValueError):
        evolve_exact(series, 2.0 * psi0, 1.0)
    # a unit start of any other shape than (dim,) = (4,); a shorter one was
    # read past its end by the CSR kernel before numpy refused the shapes
    for shape in ((2,), (3,), (5,), (2, 2), (4, 1)):
        start = np.zeros(shape)
        start.flat[0] = 1.0
        with pytest.raises(ValueError, match=re.escape(
                f"psi0 must have shape (4,), got {shape}")):
            evolve_exact(series, start, 1.0)
    # only H0 + 2cos(omega t) D with a Hermitian H0 and a real diagonal D
    # propagates
    for bad, match in ((series._replace(drive=series.static), "diagonal"),
                       (series._replace(drive=1j * series.drive), "real"),
                       (series._replace(static=1j * series.static),
                        "Hermitian"),
                       (series._replace(omega=0.0), "omega"),
                       (series._replace(omega=-12.0), "omega")):
        with pytest.raises(ValueError, match=match):
            evolve_exact(bad, psi0, 1.0)


def test_evolve_exact_refuses_a_long_start_in_a_child_process():
    # a start longer than dim once made the CSR kernel read and write past
    # the state, which killed the interpreter (exit 139), so this runs in a
    # child process that reports each refusal
    code = ("import numpy as np\n"
            "from floquet_forge import HubbardParams, build_sector_basis, "
            "evolve_exact\n"
            "from floquet_forge.fswt import hubbard_harmonics\n"
            "b = build_sector_basis(4, 2, 2)\n"
            "chain = hubbard_harmonics(HubbardParams(L=4, J=1.0, U=3.0, "
            "g=3.0, omega=12.0), b)\n"
            "for n in (400, 100_000):\n"
            "    psi0 = np.zeros(n)\n"
            "    psi0[0] = 1.0\n"
            "    try:\n"
            "        evolve_exact(chain, psi0, 1.0)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    src = str(Path(dynamics.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "psi0 must have shape (36,), got (400,)",
        "psi0 must have shape (36,), got (100000,)"]


def test_step_cap_refuses_before_the_first_step(monkeypatch):
    # dt = 1e-9 over t_final = 60 is 6e10 CFM4 steps, and omega = 1e6 at the
    # default T/10 is 9.5e7 steps of dim 36 (L=4): both must be refused
    # before the sample grid is built, not run for days
    def no_grid(*args, **kwargs):
        raise AssertionError("sample grid built above the step cap")

    monkeypatch.setattr(dynamics, "_sample_times", no_grid)
    b = build_sector_basis(4, 2, 2)
    psi0 = cdw_state(b)
    slow = hubbard_harmonics(HubbardParams(L=4, J=1.0, U=3.0, g=3.0,
                                           omega=12.0), b)
    fast = hubbard_harmonics(HubbardParams(L=4, J=1.0, U=3.0, g=3.0,
                                           omega=1e6), b)
    for chain, dt in ((slow, 1e-9), (fast, None)):
        with pytest.raises(ValueError, match="steps times dim"):
            evolve_exact(chain, psi0, 60.0, dt=dt, sample_dt=0.1)


def test_step_cap_counts_the_fixed_cost_of_a_step(monkeypatch):
    # L=2 (dim 4) at omega = 1e6 is 9.5e7 steps over t_final = 60: 3.8e8
    # steps times dim, under the cap, but about 1.6 h of stepping at 0.06 ms
    # a step; counting 130 per step refuses it before the sample grid
    def no_grid(*args, **kwargs):
        raise AssertionError("sample grid built above the step cap")

    monkeypatch.setattr(dynamics, "_sample_times", no_grid)
    b = build_sector_basis(2, 1, 1)
    chain = hubbard_harmonics(HubbardParams(L=2, J=1.0, U=3.0, g=3.0,
                                            omega=1e6), b)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="steps times dim"):
        evolve_exact(chain, cdw_state(b), 60.0, sample_dt=0.1)
    assert time.perf_counter() - start < 0.5


def test_step_cap_admits_the_fine_references():
    # the T/640 reference runs at the fastest drive of the acceptance menu
    # (omega = 20J) at L=6 (t_final = 60) and L=7 (t_final = 20), and the
    # L=6 run at L=8, stay under the cap with the fixed cost of each step
    dt = 2.0 * np.pi / (640 * 20.0)
    for L, t_final in ((6, 60.0), (7, 20.0), (8, 60.0)):
        n = (L + 1) // 2
        dim = build_sector_basis(L, n, n).dim
        work = t_final / dt * (dim + dynamics.STEP_OVERHEAD)
        assert work <= dynamics.MAX_STEP_WORK / 1.5, L


def test_zero_drive_matches_static_propagation():
    p = HubbardParams(L=4, J=1.0, U=3.0, g=0.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    ops = build_hubbard_operators(p, b)
    series = hubbard_harmonics(p, b)
    psi0 = cdw_state(b)
    traj = evolve_exact(series, psi0, 10.0, sample_dt=0.1)
    stat = evolve_static(ops["h"] + ops["U_op"], psi0, traj.times)
    dev = np.abs(return_rate(traj, psi0) - return_rate(stat, psi0)).max()
    assert dev <= 1e-8


def test_evolve_static_guards():
    b = build_sector_basis(2, 1, 1)
    ops = build_hubbard_operators(
        HubbardParams(L=2, J=1.0, U=3.0, g=1.0, omega=12.0), b)
    with pytest.raises(ValueError):  # drive ramp alone is fine, but check herm
        evolve_static(1j * ops["h"], cdw_state(b), np.array([0.0, 1.0]))


@pytest.mark.parametrize("imaginary", [False, True])
def test_evolve_static_matches_expm(imaginary):
    # a real H is float64 and takes the real eigensolve, one with imaginary
    # off-diagonals is complex128 and takes the complex one; both must match
    # the matrix exponential
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    H = floquet_h2(p, b, include_J2=True)
    psi0 = cdw_state(b)
    if imaginary:
        a = sparse.random(b.dim, b.dim, density=0.05, random_state=7)
        H = H + SparseOperator(0.3j * (a - a.T))
        psi0 = (psi0 + 1j * np.roll(psi0, 5)) / np.sqrt(2.0)
    assert H.hermitian
    assert H.matrix.dtype == (np.complex128 if imaginary else np.float64)
    times = np.linspace(0.0, 3.0, 7)
    traj = evolve_static(H, psi0, times)
    dense = H.to_dense()
    for t, state in zip(times, traj.states):
        assert_allclose(state, sla.expm(-1j * t * dense) @ psi0, rtol=0,
                        atol=1e-12)


def test_return_rate_starts_at_unity():
    b = build_sector_basis(2, 1, 1)
    psi0 = cdw_state(b)
    p = HubbardParams(L=2, J=1.0, U=3.0, g=2.0, omega=12.0)
    traj = evolve_exact(hubbard_harmonics(p, b), psi0, 2.0, sample_dt=0.5)
    L = return_rate(traj, psi0)
    assert L[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all((L >= 0) & (L <= 1 + 1e-12))


def test_norm_drift_stays_tiny():
    # the default step and its half
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    for dt in (None, 2.0 * np.pi / (20.0 * p.omega)):
        traj = evolve_exact(hubbard_harmonics(p, b), cdw_state(b), 60.0,
                            dt=dt, sample_dt=1.0)
        assert traj.meta["norm_drift"] <= 1e-9


def test_sample_times_land_on_the_grid():
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    chain, psi0 = hubbard_harmonics(p, b), cdw_state(b)
    traj = evolve_exact(chain, psi0, 10.0, sample_dt=0.1)
    assert traj.times.size == 101
    assert_allclose(traj.times, 0.1 * np.arange(101), rtol=0, atol=1e-12)
    # a sample_dt that does not divide t_final still ends on t_final
    traj = evolve_exact(chain, psi0, 1.05, sample_dt=0.1)
    assert traj.times.size == 12
    assert_allclose(traj.times[:-1], 0.1 * np.arange(11), rtol=0,
                    atol=1e-12)
    assert traj.times[-1] == 1.05
    # a run far shorter than one step is one step
    traj = evolve_exact(chain, psi0, 1e-12)
    assert list(traj.times) == [0.0, 1e-12]


def test_exact_propagation_matches_ode_oracle():
    # the CFM4 stepping against DOP853 on dense arrays from the oracle
    # Hamiltonian; the error is fourth order in the step
    L, U, g, omega = 4, 3.0, 3.0, 12.0
    p = HubbardParams(L=L, J=1.0, U=U, g=g, omega=omega)
    b = build_sector_basis(L, 2, 2)
    h, u_op, _, drive = hubbard_dense(L, 1.0, U, 0.0, g)
    psi0 = cdw_state(b)
    times = 0.1 * np.arange(101)
    ref = driven_ode.propagate(embed_sector(h + u_op, b),
                               embed_sector(drive, b), omega, psi0, times)
    want = np.abs(ref @ psi0.conj()) ** 2
    errors = []
    for dt in (None, 2.0 * np.pi / (20.0 * omega)):
        traj = evolve_exact(hubbard_harmonics(p, b), psi0, 10.0, dt=dt,
                            sample_dt=0.1)
        assert_allclose(traj.times, times, rtol=0, atol=1e-12)
        errors.append(np.abs(return_rate(traj, psi0) - want).max())
    assert errors[0] <= 1e-4
    assert errors[0] >= 10.0 * errors[1]


def test_exact_states_match_ode_oracle_for_a_random_drive(rng):
    # full lab-frame states, not return rates: a Fock-state return rate is
    # the same in the co-moving frame, so only the states see whether each
    # sample is mapped back by exp(-i Phi D); a random real diagonal drive
    # gives every hop its own phase
    omega = 12.0
    b = build_sector_basis(4, 2, 2)
    ops = build_hubbard_operators(
        HubbardParams(L=4, J=1.0, U=3.0, g=0.0, omega=omega), b)
    static = ops["h"] + ops["U_op"]
    d = rng.uniform(-6.0, 6.0, size=b.dim)
    chain = DrivenChain(static, SparseOperator(sparse.diags(d)), omega)
    psi0 = cdw_state(b)
    traj = evolve_exact(chain, psi0, 5.0, sample_dt=0.1)
    ref = driven_ode.propagate(static.to_dense(), np.diag(d), omega, psi0,
                               traj.times)
    # measured 5.2e-5; without the mapping back the error is 0.4-0.8
    assert np.abs(traj.states - ref).max() <= 2e-4


# -- mismatch metric ---------------------------------------------------------

def test_nrmse_identity_and_offset():
    x = np.linspace(0.0, 6.0, 200)
    e = 0.5 + 0.1 * np.sin(x)
    assert nrmse(e, e, x) == 0.0
    # constant offset: metric reduces to offset / mean
    got = nrmse(e + 0.05, e, x)
    mean = np.trapezoid(e, x) / 6.0
    assert got == pytest.approx(0.05 / mean, rel=1e-12)


def test_nrmse_weights_uneven_sample_times():
    # evolve_exact's last interval is short when sample_dt does not divide
    # t_final; e = 1 + t is linear, so its trapezoid mean over
    # [0, 2.5] is exactly 2.25, and the lone deviation at t = 2.5 carries
    # the half-width interval: mean square 0.5 * 0.5 / 2.5 = 0.1
    t = np.array([0.0, 1.0, 2.0, 2.5])
    e = 1.0 + t
    a = e + np.array([0.0, 0.0, 0.0, 1.0])
    assert nrmse(a, e, t) == pytest.approx(np.sqrt(0.1) / 2.25, rel=1e-14)


def test_nrmse_domain_errors():
    e = np.ones(10)
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        nrmse(np.ones(9), e, t)
    with pytest.raises(ValueError):
        nrmse(e, e, np.zeros(10))
    with pytest.raises(ValueError):
        nrmse(e, e, t[:9])
    with pytest.raises(ValueError):
        nrmse(e, np.zeros(10), t)
    with pytest.raises(ValueError):
        nrmse(np.ones(1), np.ones(1), t[:1])


# -- benchmark ordering ------------------------------------------------------

def test_effective_hamiltonian_ladder_is_monotone():
    # static block < high-frequency reference < dressed static block, in
    # faithfulness to the exact drive
    p = HubbardParams(L=6, J=1.0, U=4.0, g=3.0, omega=12.0)
    b = build_sector_basis(6, 3, 3)
    ops = build_hubbard_operators(p, b)
    hams = {
        "h0": ops["h"] + ops["U_op"],
        "hfe": hfe_h(p, b),
        "fswt": floquet_h2(p, b, include_J2=True),
    }
    out = return_rate_benchmark(p, b, hams, t_final=60.0)
    err = out["nrmse"]
    assert err["h0"] > err["hfe"] > err["fswt"]
    # converged values, from a step of T/40 sampled every 0.1
    assert err["h0"] == pytest.approx(1.023063, abs=1e-3)
    assert err["hfe"] == pytest.approx(0.556285, abs=1e-3)
    assert err["fswt"] == pytest.approx(0.080464, abs=1e-3)
    assert out["times"][0] == 0.0
    assert out["times"][-1] == pytest.approx(60.0)
    assert out["L_exact"][0] == pytest.approx(1.0, abs=1e-10)
    assert out["norm_drift"] <= 1e-9


def test_benchmark_refuses_static_cap_before_propagating(monkeypatch):
    # L=9 has sector dim 15876, above the dense static cap: the benchmark
    # must refuse before the exact propagation, not after it
    def no_propagation(*args, **kwargs):
        raise AssertionError("evolve_exact called above the static cap")

    monkeypatch.setattr(dynamics, "evolve_exact", no_propagation)
    p = HubbardParams(L=9, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(9, 5, 5)
    with pytest.raises(ValueError, match="8192"):
        return_rate_benchmark(p, b, hams={}, t_final=0.5)


def test_benchmark_refuses_bad_candidates_before_propagating(monkeypatch):
    # a candidate on another sector or a non-Hermitian one must be refused
    # by name before the exact propagation, not after it
    def no_propagation(*args, **kwargs):
        raise AssertionError("evolve_exact called with a bad candidate")

    monkeypatch.setattr(dynamics, "evolve_exact", no_propagation)
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    good = floquet_h2(p, b)
    other = floquet_h2(p, build_sector_basis(4, 2, 1))
    with pytest.raises(ValueError, match="'other'"):
        return_rate_benchmark(p, b, {"fswt": good, "other": other},
                              t_final=0.5)
    skew = good + 1j * SparseOperator(np.diag(np.arange(b.dim, dtype=float)))
    with pytest.raises(ValueError, match="'skew'"):
        return_rate_benchmark(p, b, {"fswt": good, "skew": skew},
                              t_final=0.5)


@pytest.mark.parametrize("L,omega,t_final", [
    # about three drive periods; odd L included, where the CDW start is not
    # half filled
    *((L, omega, round(6.0 * np.pi / omega, 3))
      for L in range(2, 8) for omega in (9.0, 12.0, 20.0)),
    (6, 12.0, 60.0),
])
def test_swap_even_reference_matches_the_whole_sector(monkeypatch, L, omega,
                                                      t_final):
    # the benchmark's exact return rate, propagated in the swap-even half of
    # the sector, against the one from the whole sector, within the sum of
    # the two runs' truncation bounds
    bounds = []

    def recording(*args, **kwargs):
        traj = evolve_exact(*args, **kwargs)
        bounds.append(traj.meta["truncation_bound"])
        return traj

    monkeypatch.setattr(dynamics, "evolve_exact", recording)
    p = HubbardParams(L=L, J=1.0, U=3.0, g=omega / 4.0, omega=omega)
    n = (L + 1) // 2
    b = build_sector_basis(L, n, n)
    reduced = return_rate_benchmark(p, b, {}, t_final=t_final)["L_exact"]
    psi0 = cdw_state(b)
    full = recording(hubbard_harmonics(p, b), psi0, t_final, sample_dt=0.1)
    assert len(bounds) == 2
    assert np.abs(reduced - return_rate(full, psi0)).max() \
        <= sum(bounds) + 1e-12


@pytest.mark.parametrize("L", [4, 6])
def test_benchmark_scores_match_dense_propagation(monkeypatch, L):
    # each candidate's Gauss-rule score against its return rate under dense
    # propagation, over the acceptance window; the exact propagation is not
    # under test here, so it returns the start on the benchmark's samples
    def frozen(chain, psi0, t_final, dt=None, sample_dt=None):
        times = dynamics._sample_times(t_final, sample_dt)
        return Trajectory(times, np.tile(psi0, (times.size, 1)))

    monkeypatch.setattr(dynamics, "evolve_exact", frozen)
    p = HubbardParams(L=L, J=1.0, U=3.0, g=3.0, omega=12.0)
    n = (L + 1) // 2
    b = build_sector_basis(L, n, n)
    ops = build_hubbard_operators(p, b)
    fswt = floquet_h2(p, b, include_J2=True)
    a = sparse.random(b.dim, b.dim, density=0.05, random_state=7)
    hams = {"h0": ops["h"] + ops["U_op"], "hfe": hfe_h(p, b), "fswt": fswt,
            "complex": fswt + SparseOperator(0.3j * (a - a.T))}
    assert hams["complex"].hermitian
    out = return_rate_benchmark(p, b, hams, t_final=60.0)
    psi0 = cdw_state(b)
    for label, H in hams.items():
        dense = return_rate(evolve_static(H, psi0, out["times"]), psi0)
        assert np.abs(out["curves"][label] - dense).max() <= 1e-12, label


def _merged_lines(levels, weights, tol=1e-9):
    """Sum the weights of levels within ``tol`` of the one before."""
    order = np.argsort(levels)
    levels, weights = levels[order], weights[order]
    starts = np.flatnonzero(np.diff(levels, prepend=-np.inf) > tol)
    return levels[starts], np.add.reduceat(weights, starts)


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("bands", [(0.05, -0.15, 1.6, 0.8),
                                   (0.05, -0.15, 0.0, 0.0),
                                   (0.0, 0.0, 1.6, 0.8)])
def test_dipole_excitations_match_dense_eigh(L, bands):
    t1, t2, U11, U12 = bands
    p = TwoBandChainParams(L=L, eps21=3.7, t1=t1, t2=t2, U11=U11, U12=U12)
    de, w = dynamics.dipole_excitations(p)
    # the dense reference: every level of the (L, L) sector, and its
    # weight |<n|d|G>|^2
    b = build_sector_basis(2 * L, L, L)
    ops = build_two_band_chain(p, b)
    g = b.position(dynamics._lower_band_product_state(L))
    h = ops["H0"].to_dense()
    d_g = ops["dipole"].to_dense()[:, g]
    eps, V = np.linalg.eigh(h)
    levels, weights = _merged_lines(eps - h[g, g], (V.T @ d_g) ** 2)
    bright = weights > 1e-10
    lines, line_w = _merged_lines(de, w)
    assert_allclose(lines, levels[bright], rtol=0, atol=1e-10)
    assert_allclose(line_w, weights[bright], rtol=0, atol=1e-10)
    assert w.sum() == pytest.approx(d_g @ d_g, rel=1e-13)


def _poisoned_series(monkeypatch, after):
    """Make every Chebyshev series after the first ``after`` return NaN."""
    calls = []

    def poisoned(twice_x, v, coeffs):
        calls.append(coeffs.size)
        out = kernels.chebyshev_expm_multiply(twice_x, v, coeffs)
        if len(calls) > after:
            out[0] = np.nan
        return out

    monkeypatch.setattr(dynamics, "chebyshev_expm_multiply", poisoned)
    return calls


def test_failed_step_names_its_time_and_length(monkeypatch):
    # a step that leaves a non-finite state ends the run as a
    # PhysicsError naming where the step started, its length, its
    # Chebyshev degree and the run's truncation bound
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    chain, psi0 = hubbard_harmonics(p, b), cdw_state(b)
    clean = evolve_exact(chain, psi0, 1.0, dt=0.05)
    degree = max(clean.meta["degrees"].values())
    bound = clean.meta["truncation_bound"]
    calls = _poisoned_series(monkeypatch, 0)
    with pytest.raises(PhysicsError, match=re.escape(
            f"from t=0 of length h=0.05 left a non-finite state (Chebyshev "
            f"degree {degree}, run truncation bound {bound:.3g})")):
        evolve_exact(chain, psi0, 1.0, dt=0.05)
    assert calls == [degree + 1] * 2
    # the first three steps (two exponentials each) pass, the fourth fails
    _poisoned_series(monkeypatch, 6)
    with pytest.raises(PhysicsError, match=r"from t=0\.15 of length"):
        evolve_exact(chain, psi0, 1.0, dt=0.05)


def test_degree_cap_refuses_before_the_first_step(monkeypatch):
    # the degree grows with the spectral width, about U L/2: at U = 1e6 the
    # default step would need a degree in the thousands, and is refused,
    # naming the degree, R and a dt that fits, before any series runs
    b = build_sector_basis(4, 2, 2)
    chain = hubbard_harmonics(HubbardParams(L=4, J=1.0, U=1e6, g=3.0,
                                            omega=12.0), b)
    psi0 = cdw_state(b)

    def unreachable(*args):
        raise AssertionError("a series ran above the degree cap")

    monkeypatch.setattr(dynamics, "chebyshev_expm_multiply", unreachable)
    with pytest.raises(ValueError) as exc:
        evolve_exact(chain, psi0, 1.0)
    got = re.search(r"Chebyshev degree (\d+) of a step of length h=\S+ "
                    r"exceeds the cap of 60: the exponents' spectral radius "
                    r"is R=(\S+); take dt <= (\S+)$", str(exc.value))
    assert got, str(exc.value)
    assert int(got.group(1)) > 1000 and float(got.group(2)) >= 1e6
    # the dt it names fits the cap over the same run, where a series is
    # reached only past the degree check, and twice that dt does not
    dt = float(got.group(3))

    class Fits(Exception):
        pass

    def fits(*args):
        raise Fits

    monkeypatch.setattr(dynamics, "chebyshev_expm_multiply", fits)
    with pytest.raises(Fits):
        evolve_exact(chain, psi0, 1.0, dt=dt)
    with pytest.raises(ValueError, match="exceeds the cap of 60"):
        evolve_exact(chain, psi0, 1.0, dt=2.0 * dt)
    monkeypatch.undo()
    traj = evolve_exact(chain, psi0, 0.002, dt=dt)
    assert max(traj.meta["degrees"].values()) <= kernels.LANCZOS_M_MAX


def _error_against_dense_oracle(chain, h0, psi, periods=6):
    """Largest state error of ``evolve_exact`` at whole periods against the
    same CFM4 steps with dense expm exponentials, and the run's bound."""
    period = 2.0 * np.pi / chain.omega
    step = floquet_dense.period_propagator(h0, chain.drive.diagonal(),
                                           chain.omega, 10)
    traj = evolve_exact(chain, psi, periods * period, sample_dt=period)
    assert traj.meta["steps"] == 10 * periods
    err = 0.0
    for state in traj.states:
        err = max(err, np.linalg.norm(state - psi))
        psi = step @ psi
    return err, traj.meta["truncation_bound"]


@pytest.mark.parametrize("tol", [dynamics.TRUNCATION_TOL, 1e-8])
def test_exact_propagation_matches_dense_cfm4_oracle(monkeypatch, tol):
    # the same CFM4 steps with dense expm exponentials: the lab-frame states
    # at whole periods differ only by the Chebyshev truncation, which must
    # stay within the run's a-priori bound plus roundoff.  The bound is
    # tight here (the error is 0.58-0.65 of it), so a tenth of it is a floor
    monkeypatch.setattr(dynamics, "TRUNCATION_TOL", tol)
    L, U, g, omega = 4, 3.0, 3.0, 12.0
    b = build_sector_basis(L, 2, 2)
    h, u_op, _, _ = hubbard_dense(L, 1.0, U, 0.0, g)
    chain = hubbard_harmonics(HubbardParams(L=L, J=1.0, U=U, g=g,
                                            omega=omega), b)
    err, bound = _error_against_dense_oracle(chain, embed_sector(h + u_op, b),
                                             cdw_state(b))
    assert 0.0 < bound <= tol * (1.0 + 1e-9)
    assert bound / 10.0 <= err <= bound + 1e-13


@pytest.mark.parametrize("amplitude", [30.0, 100.0])
def test_truncation_bound_holds_where_gershgorin_is_exact(amplitude):
    # a two-level dimer's Gershgorin interval is its spectrum, and a strong
    # drive turns the phases of a step's two nodes apart until the CFM4
    # weight nears its bound |w| = 2/sqrt(3): the error reaches 0.72 of the
    # bound at amplitude 30, and bounding |w| by 1 instead leaves errors of
    # 3.9-5.9 times the bound it states
    h0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    chain = DrivenChain(SparseOperator(sparse.csr_matrix(h0)),
                        SparseOperator(sparse.diags([0.0, amplitude])), 12.0)
    err, bound = _error_against_dense_oracle(chain, h0, np.array([1.0, 0.0]))
    assert err <= bound + 1e-13


def test_trajectory_meta_records_degrees_and_bound():
    # one degree per distinct step length: t_final = 1.02 at sample_dt =
    # 0.1 cuts the last sample interval short, so there are two
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    traj = evolve_exact(hubbard_harmonics(p, b), cdw_state(b), 1.02,
                        sample_dt=0.1)
    degrees = traj.meta["degrees"]
    assert sorted(degrees) == pytest.approx([0.02, 0.05])
    assert all(1 <= K <= kernels.LANCZOS_M_MAX for K in degrees.values())
    assert degrees[min(degrees)] <= degrees[max(degrees)]
    assert traj.meta["steps"] == 10 * 2 + 1
    assert 0.0 < traj.meta["truncation_bound"] <= dynamics.TRUNCATION_TOL


def test_propagation_dt_convergence():
    # halving the default step moves the sampled return rate by less than
    # 1e-4
    p = HubbardParams(L=6, J=1.0, U=3.0, g=4.0, omega=16.0)
    b = build_sector_basis(6, 3, 3)
    series = hubbard_harmonics(p, b)
    psi0 = cdw_state(b)
    half = 2.0 * np.pi / (20.0 * p.omega)
    curves = {}
    for dt in (None, half):
        traj = evolve_exact(series, psi0, 50.0, dt=dt, sample_dt=0.1)
        curves[dt] = return_rate(traj, psi0)
    assert curves[None].shape == curves[half].shape
    assert np.abs(curves[None] - curves[half]).max() <= 1e-4


# -- two-band absorbance -----------------------------------------------------

def test_absorbance_guards():
    p = TwoBandChainParams(L=2, t1=0.0, t2=0.0, eps21=3.0, U11=1.0, U12=0.5)
    with pytest.raises(ValueError):
        absorbance_ed(p, np.linspace(1.0, 4.0, 10), 0.0)
    with pytest.raises(ValueError):
        absorbance_ed(p, np.linspace(1.0, 4.0, 10), -0.1)


def test_absorbance_flat_band_peak():
    p = TwoBandChainParams(L=3, t1=0.0, t2=0.0, eps21=3.7, U11=1.6, U12=0.8)
    w = np.linspace(2.5, 3.3, 801)
    alpha = absorbance_ed(p, w, 0.05)
    assert w[np.argmax(alpha)] == pytest.approx(2.9, abs=1.01e-3)


def test_absorbance_dispersive_peak_near_bound_line():
    p = TwoBandChainParams(L=3, t1=0.05, t2=-0.15, eps21=3.7, U11=1.6,
                           U12=0.8)
    w = np.linspace(2.4, 3.3, 901)
    gamma = 0.1
    alpha = absorbance_ed(p, w, gamma)
    assert abs(w[np.argmax(alpha)] - 2.8273307037832867) <= gamma


def test_dipole_excitations_rejects_impure_ground_state(monkeypatch):
    # couple the filled lower band to another state: it is no longer an
    # eigenstate, which must be a PhysicsError (exit 2), not an assert
    p = TwoBandChainParams(L=2, t1=0.0, t2=0.0, eps21=3.0, U11=1.0, U12=0.5)
    build = dynamics.build_two_band_chain

    def coupled(p, b):
        ops = build(p, b)
        g = b.position(dynamics._lower_band_product_state(p.L))
        o = (g + 1) % b.dim
        x = sparse.csr_matrix(([0.1, 0.1], ([g, o], [o, g])),
                              shape=(b.dim, b.dim))
        return {**ops, "H0": ops["H0"] + SparseOperator(x)}

    monkeypatch.setattr(dynamics, "build_two_band_chain", coupled)
    with pytest.raises(PhysicsError, match="not an eigenstate"):
        dynamics.dipole_excitations(p)


def test_absorbance_mass_matches_total_weight():
    from floquet_forge.dynamics import dipole_excitations
    p = TwoBandChainParams(L=2, t1=0.0, t2=0.0, eps21=3.0, U11=1.0, U12=0.5)
    de, w2 = dipole_excitations(p)
    grid = np.linspace(-40.0, 40.0, 40001)
    alpha = absorbance_ed(p, grid, 0.02)
    mass = np.trapezoid(alpha, grid)
    assert mass == pytest.approx(w2.sum(), rel=2e-3)
