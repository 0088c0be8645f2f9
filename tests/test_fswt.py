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
from floquet_forge.fswt import (floquet_h2, floquet_h4, floquet_h4_terms_j1,
                                hfe_h, hubbard_harmonics,
                                strong_drive_harmonics)


# -- order-g^2 static block --------------------------------------------------

@pytest.mark.parametrize("include_J2,hop_order", [(False, 1), (True, 2)])
def test_h2_equals_micromotion_composition(include_J2, hop_order):
    # H0 + (1/2)[f1 - f1^dag, drive] rebuilt from the analytic micro-motion
    # must reproduce the closed-form static block
    p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0)
    b = build_sector_basis(4, 2, 1)
    ops = build_hubbard_operators(p, b)
    h0 = ops["h"] + ops["U_op"]
    mm = hubbard_micromotion(p, b, max_hop_order=hop_order)
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
    ops = build_hubbard_operators(p, b)
    h2corr = floquet_h2(p, b) - ops["h"] - ops["U_op"]
    assert h4.fro_norm() < 0.1 * h2corr.fro_norm()


@pytest.mark.parametrize("L,n_up,n_dn,U,g,omega", [(4, 2, 2, 3.0, 3.0, 12.0),
                                                   (5, 3, 2, 2.5, 5.0, 20.0)])
def test_h4_terms_j1_is_linear_part_of_h4(L, n_up, n_dn, U, g, omega):
    # floquet_h4 is a polynomial of degree 6 in J (the top term is
    # f(1,1) f(1,-1) Hp2 at J^2 * J^2 * J^2), so a degree-6 fit through 12
    # values is exact and its J^1 coefficient is the leading-J closed form
    b = build_sector_basis(L, n_up, n_dn)
    Js = np.linspace(-0.4, 0.4, 12)
    h4 = [floquet_h4(HubbardParams(L=L, J=J, U=U, g=g, omega=omega),
                     b).to_dense().ravel() for J in Js]
    linear = np.polynomial.polynomial.polyfit(Js, np.array(h4), 6)[1]
    want = floquet_h4_terms_j1(HubbardParams(L=L, J=1.0, U=U, g=g,
                                             omega=omega)).to_operator(b)
    dev = np.abs(linear.reshape(b.dim, b.dim) - want.to_dense()).max()
    assert dev <= 1e-12 * want.max_abs()


# -- high-frequency reference ------------------------------------------------

def test_hfe_orders():
    p = HubbardParams(L=3, J=1.0, U=4.0, g=3.0, omega=12.0)
    b = build_sector_basis(3, 2, 1)
    ops = build_hubbard_operators(p, b)
    h0 = ops["h"] + ops["U_op"]
    # the double commutator of a linear ramp reduces to a pure bandwidth
    # renormalization: H0 - (g/omega)^2 h
    expect = h0 + (-(p.g ** 2 / p.omega ** 2)) * ops["h"]
    assert (hfe_h(p, b) - expect).max_abs() <= 1e-13


def test_hfe_misses_interaction_dressing_at_omega_minus_4():
    # the static-block difference ||hfe2 - h2|| scales as omega^-4 at fixed
    # g, so doubling omega divides it by ~16
    b = build_sector_basis(4, 2, 1)
    d = {}
    for w in (20.0, 40.0):
        p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=w)
        d[w] = (hfe_h(p, b) - floquet_h2(p, b)).fro_norm()
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
    b = build_sector_basis(3, 2, 1)
    chain = hubbard_harmonics(p, b)
    ops = build_hubbard_operators(p, b)
    assert (chain.static - (ops["h"] + ops["U_op"])).max_abs() <= 1e-14
    assert (chain.drive - ops["drive"]).max_abs() == 0.0
    assert chain.omega == p.omega


def test_strong_drive_zeroth_harmonic_is_bessel_weighted():
    _, harmonics, trunc = strong_drive_harmonics(2, 1.0, 0.0, 3.0, 12.0,
                                                 jmax=12)
    b = build_sector_basis(2, 1, 0)
    m0 = harmonics[0].to_operator(b).to_dense()
    coef = m0[b.position(2), b.position(1)].real
    assert coef == pytest.approx(-scipy.special.j0(0.5), abs=1e-12)
    assert trunc <= 1e-10


def test_strong_drive_sideband_signs():
    _, harmonics, _ = strong_drive_harmonics(2, 1.0, 0.0, 3.0, 12.0, jmax=12)
    b = build_sector_basis(2, 1, 0)
    j1 = scipy.special.jv(1, 0.5)
    up = harmonics[1].to_operator(b).to_dense()[b.position(2), b.position(1)]
    dn = harmonics[-1].to_operator(b).to_dense()[b.position(2), b.position(1)]
    assert up.real == pytest.approx(-j1, abs=1e-12)
    assert dn.real == pytest.approx(j1, abs=1e-12)


def test_strong_drive_static_block_is_interaction():
    static, _, _ = strong_drive_harmonics(3, 1.0, 5.0, 2.0, 10.0, jmax=8)
    b = build_sector_basis(3, 1, 1)
    static = static.to_operator(b).to_dense()
    doublon = b.position((1 << 0) | (1 << 3))  # both spins on site 1
    assert static[doublon, doublon] == pytest.approx(5.0, abs=1e-14)
    assert np.abs(static - np.diag(np.diag(static))).max() <= 1e-14


def test_strong_drive_constant_profile_kills_sidebands():
    _, harmonics, trunc = strong_drive_harmonics(3, 1.0, 0.0, 3.0, 12.0,
                                                 profile=np.zeros(3), jmax=6)
    assert sorted(harmonics) == list(range(-6, 7))
    assert len(harmonics[0]) > 0
    for m in range(1, 7):
        assert len(harmonics[m]) == 0
    assert trunc <= 1e-14


def test_strong_drive_hop_mask_cuts_bond():
    _, harmonics, _ = strong_drive_harmonics(
        3, 1.0, 0.0, 3.0, 12.0, hop_mask=np.array([1.0, 0.0]), jmax=6)
    b = build_sector_basis(3, 1, 0)
    m0 = harmonics[0].to_operator(b).to_dense()
    assert abs(m0[b.position(2), b.position(1)]) > 0.5
    assert abs(m0[b.position(4), b.position(2)]) == 0.0


@pytest.mark.parametrize("theta", [0.3, 1.1])
def test_strong_drive_complex_profile_rotates_harmonics(theta):
    # a ramp rotated by exp(i theta) moves every bond phase by theta (or
    # theta - pi, absorbed by the Bessel sign), so harmonic m picks up
    # exp(i m theta) against the real ramp
    jmax = 6
    _, ramp, _ = strong_drive_harmonics(3, 1.0, 2.0, 3.0, 12.0, jmax=jmax)
    _, rotated, _ = strong_drive_harmonics(
        3, 1.0, 2.0, 3.0, 12.0, profile=np.arange(3) * np.exp(1j * theta),
        jmax=jmax)
    for m in range(-jmax, jmax + 1):
        want = ramp[m].terms
        got = rotated[m].terms
        assert set(got) == set(want)
        phase = np.exp(1j * m * theta)
        for ops, c in want.items():
            assert abs(got[ops] - phase * c) <= 1e-15


def test_strong_drive_harmonics_pair_as_adjoints():
    # H(t) is Hermitian only if H_{-m} = H_m^dagger; a complex profile makes
    # every sideband complex, so the pairing is not a plain transpose
    profile = np.array([0.0, 1.0 + 0.5j, 1.5 - 2.0j, 3.0 + 1.0j])
    static, harmonics, _ = strong_drive_harmonics(4, 1.0, 2.0, 3.0, 12.0,
                                                  profile=profile, jmax=6)
    b = build_sector_basis(4, 2, 1)
    assert static.to_operator(b).hermitian
    for m, tsum in harmonics.items():
        op = tsum.to_operator(b)
        assert op.nnz > 0
        partner = harmonics[-m].to_operator(b)
        assert (partner - op.dagger()).max_abs() <= 1e-15
        if m != 0:
            assert op.matrix.data.imag.any()


def test_strong_drive_guards():
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 10.0, jmax=0)
    with pytest.raises(ValueError, match="1024"):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 10.0, jmax=1025)
    with pytest.raises(ValueError):
        strong_drive_harmonics(1, 1.0, 0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 10.0, profile=np.zeros(3))
    with pytest.raises(ValueError):
        strong_drive_harmonics(2, 1.0, 0.0, 1.0, 10.0, hop_mask=np.zeros(3))
