"""Static effective Hamiltonians: g^2/g^4 blocks, the high-frequency
reference, the Mott exchange, and the strong-drive frame."""
import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from floquet_forge import (HubbardParams, build_hubbard_operators,
                           build_sector_basis, commutator,
                           hubbard_micromotion, spin_exchange)
from floquet_forge.errors import ResonantDenominator
from floquet_forge.fswt import (floquet_h2, floquet_h4, hfe_h,
                                hubbard_harmonics, strong_drive_harmonics)


# -- order-g^2 static block --------------------------------------------------

@pytest.mark.parametrize("include_J2,hop_order", [(False, 1), (True, 2)])
def test_h2_equals_micromotion_composition(include_J2, hop_order):
    # H0 + (1/2)[f1 - f1^dag, drive] rebuilt from the analytic micro-motion
    # must reproduce the closed-form static block
    p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0)
    b = build_sector_basis(4, 2, 1)
    ops = build_hubbard_operators(p, b)
    h0 = ops["h"] + ops["U_op"]
    mm = hubbard_micromotion(p, b, max_hop_order=hop_order, fswt_order=1)
    f1 = mm[(1, 1)]
    comp = h0 + 0.5 * commutator(f1 - f1.dagger(), ops["drive"])
    h2 = floquet_h2(p, b, include_J2=include_J2)
    assert (h2 - comp).max_abs() <= 1e-10


def test_h2_resonance_guard():
    p = HubbardParams(L=2, J=1.0, U=12.0, g=1.0, omega=12.0)
    b = build_sector_basis(2, 1, 1)
    with pytest.raises(ResonantDenominator):
        floquet_h2(p, b)


def test_h2_reduces_to_static_at_zero_drive():
    p = HubbardParams(L=3, J=1.0, U=4.0, g=0.0, omega=12.0)
    b = build_sector_basis(3, 2, 1)
    ops = build_hubbard_operators(p, b)
    h2 = floquet_h2(p, b, include_J2=True)
    assert (h2 - (ops["h"] + ops["U_op"])).max_abs() <= 1e-14


# -- order-g^4 static block --------------------------------------------------

def test_h4_free_limit_bulk_bond():
    # at U=0 every dressing collapses and the bulk hopping correction is
    # exactly +g^4/(4 omega^4) in units of J
    p = HubbardParams(L=4, J=1.0, U=0.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 1, 0)
    h4 = floquet_h4(p, b).to_dense()
    elem = h4[b.position(1 << 2), b.position(1 << 1)].real
    assert -elem == pytest.approx(3.0 ** 4 / (4.0 * 12.0 ** 4), abs=1e-12)


def test_h4_is_hermitian_and_small():
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    h4 = floquet_h4(p, b)
    assert h4.hermitian
    # order g^4/omega^4 << the g^2 block
    h2corr = floquet_h2(p, b) - (hfe_h(p, b, order=1))
    assert h4.fro_norm() < 0.1 * h2corr.fro_norm()


# -- high-frequency reference ------------------------------------------------

def test_hfe_orders():
    p = HubbardParams(L=3, J=1.0, U=4.0, g=3.0, omega=12.0)
    b = build_sector_basis(3, 2, 1)
    ops = build_hubbard_operators(p, b)
    h0 = ops["h"] + ops["U_op"]
    assert (hfe_h(p, b, order=1) - h0).max_abs() == 0.0
    # the double commutator of a linear ramp reduces to a pure bandwidth
    # renormalization: H0 - (g/omega)^2 h
    expect = h0 + (-(p.g ** 2 / p.omega ** 2)) * ops["h"]
    assert (hfe_h(p, b, order=2) - expect).max_abs() <= 1e-13
    with pytest.raises(ValueError):
        hfe_h(p, b, order=3)


def test_hfe_misses_interaction_dressing_at_omega_minus_4():
    # the static-block difference ||hfe2 - h2|| scales as omega^-4 at fixed
    # g, so doubling omega divides it by ~16
    b = build_sector_basis(4, 2, 1)
    d = {}
    for w in (20.0, 40.0):
        p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=w)
        d[w] = (hfe_h(p, b, order=2) - floquet_h2(p, b)).fro_norm()
    assert abs(d[20.0] / d[40.0] - 16.0) <= 0.15 * 16.0


# -- Mott-regime exchange ----------------------------------------------------

def test_spin_exchange_reference_value():
    got = spin_exchange(40.0, 1.0, 3.0, 12.0)
    r = 9.0 / 144.0
    expect = (4.0 / 40.0) * (1 - 2 * r) + 4 * r * (1 / 28.0 + 1 / 52.0)
    assert got == pytest.approx(expect, rel=1e-14)
    assert got == pytest.approx(0.10123626373626374, abs=1e-14)


def test_spin_exchange_guards():
    with pytest.raises(ValueError):
        spin_exchange(0.0, 1.0, 3.0, 12.0)
    with pytest.raises(ResonantDenominator):
        spin_exchange(12.0, 1.0, 3.0, 12.0)


def test_dimer_gap_matches_exchange():
    # singlet-triplet splitting of the effective dimer vs the closed-form
    # exchange, deep Mott point
    p = HubbardParams(L=2, J=1.0, U=40.0, g=3.0, omega=12.0)
    b = build_sector_basis(2, 1, 1)
    jex = spin_exchange(p.U, p.J, p.g, p.omega)
    ev = np.linalg.eigvalsh(floquet_h2(p, b).to_dense())
    gap = ev[1] - ev[0]
    assert gap == pytest.approx(0.10098513467071513, abs=1e-10)
    assert abs(gap - jex) / jex <= 0.10
    ev2 = np.linalg.eigvalsh(floquet_h2(p, b, include_J2=True).to_dense())
    gap2 = ev2[1] - ev2[0]
    assert gap2 == pytest.approx(0.10101965117252845, abs=1e-10)
    assert abs(gap2 - jex) / jex <= 0.10


# -- harmonic decompositions -------------------------------------------------

def test_hubbard_harmonics_structure():
    p = HubbardParams(L=3, J=1.0, U=3.0, g=2.0, omega=12.0)
    series = hubbard_harmonics(p)
    assert sorted(series.terms) == [(0, 0), (1, -1), (1, 1)]
    b = build_sector_basis(3, 2, 1)
    mats = series.materialize(b)
    ops = build_hubbard_operators(p, b)
    assert (mats.terms[(0, 0)] - (ops["h"] + ops["U_op"])).max_abs() <= 1e-14
    assert (mats.terms[(1, 1)] - ops["drive"]).max_abs() == 0.0
    assert (mats.terms[(1, -1)] - ops["drive"]).max_abs() == 0.0


def test_strong_drive_zeroth_harmonic_is_bessel_weighted():
    sd = strong_drive_harmonics(2, 1.0, 0.0, 3.0, 12.0, jmax=12)
    b = build_sector_basis(2, 1, 0)
    mats = sd.materialize(b)
    m0 = mats.terms[(1, 0)].to_dense()
    coef = m0[b.position(2), b.position(1)].real
    assert coef == pytest.approx(-scipy.special.j0(0.5), abs=1e-12)
    assert sd.meta["truncation_error"] <= 1e-10


def test_strong_drive_sideband_signs():
    sd = strong_drive_harmonics(2, 1.0, 0.0, 3.0, 12.0, jmax=12)
    b = build_sector_basis(2, 1, 0)
    mats = sd.materialize(b)
    j1 = scipy.special.jv(1, 0.5)
    up = mats.terms[(1, 1)].to_dense()[b.position(2), b.position(1)]
    dn = mats.terms[(1, -1)].to_dense()[b.position(2), b.position(1)]
    assert up.real == pytest.approx(-j1, abs=1e-12)
    assert dn.real == pytest.approx(j1, abs=1e-12)


def test_strong_drive_static_block_is_interaction():
    sd = strong_drive_harmonics(3, 1.0, 5.0, 2.0, 10.0, jmax=8)
    b = build_sector_basis(3, 1, 1)
    mats = sd.materialize(b)
    static = mats.terms[(0, 0)].to_dense()
    doublon = b.position((1 << 0) | (1 << 3))  # both spins on site 1
    assert static[doublon, doublon] == pytest.approx(5.0, abs=1e-14)
    assert np.abs(static - np.diag(np.diag(static))).max() <= 1e-14


def test_strong_drive_constant_profile_kills_sidebands():
    sd = strong_drive_harmonics(3, 1.0, 0.0, 3.0, 12.0,
                                profile=np.zeros(3), jmax=6)
    assert len(sd.terms[(1, 0)]) > 0
    for m in range(1, 7):
        assert len(sd.terms[(1, m)]) == 0
    assert sd.meta["truncation_error"] <= 1e-14


def test_strong_drive_hop_mask_cuts_bond():
    sd = strong_drive_harmonics(3, 1.0, 0.0, 3.0, 12.0,
                                hop_mask=np.array([1.0, 0.0]), jmax=6)
    b = build_sector_basis(3, 1, 0)
    m0 = sd.materialize(b).terms[(1, 0)].to_dense()
    assert abs(m0[b.position(2), b.position(1)]) > 0.5
    assert abs(m0[b.position(4), b.position(2)]) == 0.0


def test_strong_drive_guards():
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 10.0, jmax=0)
    with pytest.raises(ValueError):
        strong_drive_harmonics(1, 1.0, 0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 10.0, profile=np.zeros(3))
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 10.0, hop_mask=np.zeros(3))
