"""Momentum grids, screened detunings, the bound-state frequency, dressed
bands, and the cavity forward-interaction criterion."""
import math
import time

import numpy as np
import pytest

from floquet_forge import BandGrid, CavitySpec
from floquet_forge.errors import PhysicsError
from floquet_forge.kspace import (bare_detuning, bs_detuning,
                                  exciton_frequency, floquet_band,
                                  pomeranchuk_check, screened_detuning,
                                  t_matrix)

GAMMA = (32, 32)  # zone center of the 64x64 grid


# -- grid construction -------------------------------------------------------

def test_square_grid_layout(paper_grid):
    g = paper_grid
    assert g.kx[0] == pytest.approx(-math.pi)
    assert g.kx[32] == 0.0
    assert g.nsites == 64 * 64
    assert g.nu == 1.0
    assert g.gamma_index() == GAMMA
    # Gamma carries the direct gap eps21 - 2*(t1 - t2)*2
    assert (g.eps2 - g.eps1)[32, 32] == pytest.approx(2.9)


def test_grid_one_dimensional_collapse():
    g = BandGrid.square(8, 1, 3.0, 0.1, -0.1, 0.5, 0.2)
    assert list(g.ky) == [0.0]
    assert g.eps1.shape == (8, 1)
    # transverse cosine contributes its k=0 value
    assert g.eps1[4, 0] == pytest.approx(2 * 0.1 * (1.0 + 1.0))


def test_grid_guards():
    with pytest.raises(ValueError):
        BandGrid.square(0, 4, 3.0, 0.1, -0.1, 0.5, 0.2)
    with pytest.raises(ValueError):
        BandGrid.square(4, 4, -1.0, 0.1, -0.1, 0.5, 0.2)
    with pytest.raises(ValueError):
        BandGrid.square(4, 4, 3.0, 0.1, -0.1, 0.5, 0.2, kF=-0.5)
    with pytest.raises(ValueError):  # bands cross when t-contrast is huge
        BandGrid.square(4, 4, 0.1, 1.0, -1.0, 0.5, 0.2)
    with pytest.raises(ValueError):  # odd grid has no zone-center sample
        BandGrid.square(5, 5, 3.0, 0.1, -0.1, 0.5, 0.2).gamma_index()


def test_grid_rejects_bad_arrays():
    g = BandGrid.square(4, 4, 3.0, 0.1, -0.1, 0.5, 0.2)
    fields = dict(kx=g.kx, ky=g.ky, eps1=g.eps1, eps2=g.eps2, occ=g.occ,
                  U11=0.5, U12=0.2)
    with pytest.raises(ValueError, match=r"eps1 must have shape \(4, 4\), "
                                         r"got \(4, 3\)"):
        BandGrid(**{**fields, "eps1": g.eps1[:, :3]})
    for bad in (-0.1, 1.5):
        occ = g.occ.copy()
        occ[1, 2] = bad
        with pytest.raises(ValueError, match=r"occupations must lie in"):
            BandGrid(**{**fields, "occ": occ})


def test_grid_doping():
    g = BandGrid.square(64, 64, 3.7, 0.05, -0.15, 1.6, 0.8, kF=math.pi / 30)
    assert g.nu == pytest.approx(0.998779296875, abs=1e-15)
    assert g.occ[32, 32] == 0.0
    assert g.occ[0, 0] == 1.0


def test_cavity_spec_guards():
    with pytest.raises(ValueError):
        CavitySpec(g=0.1, gc0=0.1, delta_c=0.0)
    with pytest.raises(ValueError):
        CavitySpec(g=0.1, gc0=-0.1, delta_c=0.5)
    with pytest.raises(ValueError, match="g must be finite"):  # NaN too
        CavitySpec(g=math.nan, gc0=0.1, delta_c=0.5)


# -- detunings and the ladder identity ---------------------------------------

def test_bare_detuning(paper_grid):
    d = bare_detuning(paper_grid, 2.0)
    assert d[32, 32] == pytest.approx(0.9)
    assert d.shape == (64, 64)


def test_ladder_identity_at_random_frequencies(paper_grid, rng):
    # Delta * T = A for the Hartree-shifted detuning A, across the zone
    g = paper_grid
    hartree = (2.0 * g.U12 - g.U11) * g.nu
    for w in rng.uniform(0.5, 2.5, size=50):
        A = bare_detuning(g, w) + hartree
        delta = screened_detuning(g, w)
        T = t_matrix(g, w)
        scale = np.abs(A).max()
        assert np.abs(delta * T - A).max() <= 1e-12 * scale


def test_screened_detuning_flips_sign_once(paper_grid):
    # positive below the bound state, negative between it and the edge
    vals = [screened_detuning(paper_grid, w)[GAMMA]
            for w in np.linspace(0.5, 2.9 - 1e-3, 400)]
    signs = np.sign(vals)
    assert np.sum(np.diff(signs) != 0) == 1


def test_detuning_resonance_guard(paper_grid):
    # drive exactly at the direct gap
    with pytest.raises(PhysicsError, match="detuning vanishes at grid point"):
        screened_detuning(paper_grid, 2.9)


def test_bs_detuning_is_far_detuned(paper_grid):
    # counter-rotating partner sits 2*omega above; never resonant here
    w = 2.0
    d = bs_detuning(paper_grid, w)
    assert np.all(d > 0)
    assert d[GAMMA] > screened_detuning(paper_grid, w)[GAMMA]


# -- bound-state frequency ----------------------------------------------------

def test_exciton_frequency_reference_grid(paper_grid):
    assert exciton_frequency(paper_grid) == pytest.approx(
        2.690824366621924, abs=2e-10)


def test_exciton_frequency_grid_converged(paper_grid):
    g2 = BandGrid.square(128, 128, 3.7, 0.05, -0.15, 1.6, 0.8)
    assert exciton_frequency(g2) == pytest.approx(
        exciton_frequency(paper_grid), abs=1e-9)


def test_exciton_frequency_doped():
    g = BandGrid.square(64, 64, 3.7, 0.05, -0.15, 1.6, 0.8, kF=math.pi / 30)
    assert exciton_frequency(g) == pytest.approx(2.6935260858801344,
                                                 abs=2e-10)


def test_exciton_bisection_ends_at_float_resolution():
    # at eps21 = 1e7 the float spacing at the root (~1.9e-9) exceeds the
    # 1e-10 bisection width, so the loop must stop when the midpoint rounds
    # onto an end; it then returns or raises PhysicsError, within
    # milliseconds
    eps21 = 1e7
    g = BandGrid.square(16, 16, eps21, 0.05, -0.15, 1.6, 0.8 * eps21 / 3.7)
    start = time.perf_counter()
    try:
        w = exciton_frequency(g)
    except PhysicsError:
        pass
    else:
        assert math.isfinite(w) and w > 0.0
    assert time.perf_counter() - start < 0.5


def test_exciton_refuses_an_unresolvable_edge():
    # at U12 = 1e10 the continuum edge is 2e10 and edge - 1e-9 rounds onto
    # it, where the screening sum divides by zero; at U12 = 1e300 this used
    # to return 1e300 with RuntimeWarnings (errors under pytest) instead of
    # raising
    g = BandGrid.square(16, 16, 3.7, 0.05, -0.15, 1.6, 1e10)
    with pytest.raises(PhysicsError, match="too large"):
        exciton_frequency(g)


def test_exciton_requires_interaction():
    g = BandGrid.square(64, 64, 3.7, 0.05, -0.15, 1.6, 0.0)
    # zero U12: screening sum is identically 0
    with pytest.raises(PhysicsError, match="interaction too weak to bind"):
        exciton_frequency(g)


def test_exciton_requires_occupation():
    g = BandGrid.square(16, 16, 3.7, 0.05, -0.15, 1.6, 0.8, kF=4.5)
    assert g.nu == 0.0
    with pytest.raises(PhysicsError, match="empty band cannot bind"):
        exciton_frequency(g)


def test_t_matrix_diverges_on_bound_state(paper_grid):
    with pytest.raises(PhysicsError, match="ladder sum at unity"):
        t_matrix(paper_grid, exciton_frequency(paper_grid))


def test_t_matrix_grows_toward_bound_state(paper_grid):
    Ts = [t_matrix(paper_grid, w) for w in np.linspace(2.0, 2.68, 30)]
    assert all(b > a for a, b in zip(Ts, Ts[1:]))
    assert Ts[0] > 1.0


# -- dressed band -------------------------------------------------------------

def test_dressed_hopping_on_a_one_dimensional_grid():
    # Ny = 1 has no transverse curvature: t_tilde is minus a quarter of the
    # second difference of eps_tilde across the zone center kx = 0 (index 8)
    g = BandGrid.square(16, 1, 3.7, 0.05, -0.15, 1.6, 0.8)
    out = floquet_band(g, 2.0, 0.1)
    e = out["eps_tilde"][:, 0]
    h = 2.0 * math.pi / 16
    assert out["t_tilde"] == pytest.approx(
        -(e[9] - 2.0 * e[8] + e[7]) / (4.0 * h * h), rel=1e-12)
    assert out["t_tilde"] != pytest.approx(0.0)


def test_floquet_band_zero_drive(paper_grid):
    out = floquet_band(paper_grid, 2.0, 0.0)
    assert np.abs(out["eps_tilde"] - paper_grid.eps1).max() == 0.0
    assert out["t_tilde"] == pytest.approx(0.05, abs=2e-4)


def test_flattening_threshold_unscreened():
    # free grid, drive 0.03 below the direct gap: the dressed band flattens
    # between g = 0.015 and 0.016
    g0 = BandGrid.square(64, 64, 3.7, 0.05, -0.15, 0.0, 0.0)
    assert floquet_band(g0, 2.87, 0.015)["t_tilde"] > 0
    assert floquet_band(g0, 2.87, 0.016)["t_tilde"] < 0


def test_flattening_threshold_screened(paper_grid):
    # screening lowers the bound state but weakens the zone-center shift:
    # the critical drive grows
    w = exciton_frequency(paper_grid) - 0.03
    assert floquet_band(paper_grid, w, 0.026)["t_tilde"] > 0
    assert floquet_band(paper_grid, w, 0.027)["t_tilde"] < 0


# -- zone-center enhancement and binding --------------------------------------

def _gamma_enhancement(U12, det, N=64):
    free = BandGrid.square(N, N, 3.7, 0.05, -0.15, 1.6, 0.8)
    d0 = bare_detuning(free, 2.9 - det)[N // 2, N // 2]
    gr = BandGrid.square(N, N, 3.7, 0.05, -0.15, 1.6, U12)
    w_ex = exciton_frequency(gr)
    ix, iy = gr.gamma_index()
    dd = screened_detuning(gr, w_ex - det)[ix, iy]
    return (d0 / dd) ** 2


def test_enhancement_peaks_at_intermediate_coupling():
    # squared detuning ratio at fixed offset below the reference lines:
    # maximal near U12 = 0.5 and nearly an order of magnitude
    vals = {u: _gamma_enhancement(u, 0.05) for u in (0.4, 0.5, 0.6)}
    assert vals[0.5] > vals[0.4]
    assert vals[0.5] > vals[0.6]
    assert vals[0.5] == pytest.approx(9.762719570912804, abs=1e-6)
    assert vals[0.5] > 9.5


def test_enhancement_decays_with_detuning_offset():
    vals = [_gamma_enhancement(0.5, det) for det in (0.05, 0.1, 0.2, 0.5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0
    assert vals[-1] == pytest.approx(2.531503117975601, abs=1e-6)


def test_binding_grows_as_bands_flatten():
    got = []
    for s in (1.0, 0.5, 0.25, 0.1):
        gr = BandGrid.square(32, 32, 3.7, 0.05 * s, -0.15 * s, 1.6, 0.8)
        edge = float(np.min(bare_detuning(gr, 0.0)[gr.occ > 0]))
        got.append(edge - exciton_frequency(gr))
    assert all(b > a for a, b in zip(got, got[1:]))
    assert got[0] == pytest.approx(0.20917563337807588, abs=1e-6)
    assert got[-1] == pytest.approx(0.7220012468460997, abs=1e-6)


# -- cavity-mediated interaction ----------------------------------------------

def test_pomeranchuk_triggered_at_reference_point():
    g = BandGrid.square(64, 64, 3.7, 0.05, -0.15, 1.6, 0.8, kF=math.pi / 30)
    w = exciton_frequency(g) - 0.14
    cav = CavitySpec(g=0.05, gc0=0.1, delta_c=0.25)
    out = pomeranchuk_check(g, cav, w)
    assert out["triggered"] is True
    assert out["lhs"] == pytest.approx(0.007829443360326522, abs=1e-9)
    assert out["rhs"] == pytest.approx(0.007421817744253437, abs=1e-9)
    assert out["eta"] == pytest.approx(0.8898278162831761, abs=1e-9)


def test_pomeranchuk_needs_cavity_coupling():
    g = BandGrid.square(64, 64, 3.7, 0.05, -0.15, 1.6, 0.8, kF=math.pi / 30)
    w = exciton_frequency(g) - 0.14
    cav = CavitySpec(g=0.05, gc0=0.0, delta_c=0.25)
    out = pomeranchuk_check(g, cav, w)
    assert out["triggered"] is False
    assert out["lhs"] == 0.0
    assert out["eta"] == 0.0
