"""Static effective Hamiltonians: g^2/g^4 blocks, the high-frequency
reference, the Mott exchange, and the strong-drive frame."""
import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from floquet_forge import (HubbardParams, build_hubbard_operators,
                           build_sector_basis, commutator, spin_exchange)
from floquet_forge.errors import PhysicsError
from floquet_forge.fock import TermSum
from floquet_forge.fswt import (floquet_h2, floquet_h2_terms, floquet_h4,
                                floquet_h4_terms_j1, hfe_h, hubbard_harmonics,
                                strong_drive_harmonics)
from floquet_forge.sylvester import (HopExpansionCoeffs, _dressed_hops,
                                     _ladder, hubbard_micromotion, y0_terms,
                                     y1_terms, y2_terms)


# -- order-g^2 static block --------------------------------------------------

@pytest.mark.parametrize("include_J2,hop_order", [(False, 1), (True, 2)])
def test_h2_equals_micromotion_composition(include_J2, hop_order):
    # H0 + (1/2)[f1 - f1^dag, drive] rebuilt from the analytic micro-motion
    # must reproduce the closed-form static block
    p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0)
    b = build_sector_basis(4, 2, 1)
    ops = build_hubbard_operators(p, b)
    h0 = ops["h"] + ops["U_op"]
    c = HopExpansionCoeffs.from_model(p.U, p.omega)
    y = [y0_terms(p), y1_terms(p, c), y2_terms(p, c)]
    f1 = sum(y[1:hop_order + 1], y[0]).to_operator(b)
    comp = h0 + 0.5 * commutator(f1 - f1.dagger(), ops["drive"])
    h2 = floquet_h2(p, b, include_J2=include_J2)
    assert (h2 - comp).max_abs() <= 1e-10


def _h2_terms_written_out(p, include_J2):
    """floquet_h2_terms with the renormalized chain's loops written out."""
    beta, gamma, delta = _ladder(p.U, p.omega)
    t = TermSum()
    ren = -p.J * (1.0 - p.g ** 2 / p.omega ** 2)
    for j in range(p.L - 1):
        for s in (0, 1):
            t.add(ren, [("cdag", j + 1, s), ("c", j, s)])
            t.add(ren, [("cdag", j, s), ("c", j + 1, s)])
    for j in range(p.L):
        t.add(p.U, [("n", j, 0), ("n", j, 1)])
    half = 0.5 * (beta + gamma)
    _dressed_hops(t, p.L, p.J * p.g ** 2 / p.omega ** 2,
                  (0.0, half, half, delta))
    if include_J2:
        bg = beta - gamma
        a2 = 4.0 * p.J ** 2 * p.g ** 2 / p.omega ** 3 * bg
        for j in range(p.L - 1):
            jp = j + 1
            t.add(a2, [("cdag", j, 0), ("cdag", j, 1),
                       ("c", jp, 0), ("c", jp, 1)])
            t.add(a2, [("cdag", jp, 0), ("cdag", jp, 1),
                       ("c", j, 0), ("c", j, 1)])
        a3 = p.J ** 2 * p.g ** 2 / p.omega ** 3 * bg
        for m in range(1, p.L - 1):
            l, r = m - 1, m + 1
            for s in (0, 1):
                sb = 1 - s
                nm, nl, nr = ("n", m, sb), ("n", l, sb), ("n", r, sb)
                poly = [(2.0, [nm]),
                        (-1.0 + delta, [nl]),
                        (-1.0 + delta, [nr]),
                        (-2.0 * delta, [nl, nr]),
                        (-2.0 * delta, [nm, nl]),
                        (-2.0 * delta, [nm, nr]),
                        (4.0 * delta, [nm, nl, nr])]
                for hop in ([("cdag", l, s), ("c", r, s)],
                            [("cdag", r, s), ("c", l, s)]):
                    for coef, dens in poly:
                        t.add(a3 * coef, hop + dens)
                na, nb = ("n", l, s), ("n", r, sb)
                poly2 = [(1.0, []), (-delta, [na]), (-delta, [nb]),
                         (2.0 * delta, [na, nb])]
                for hop in ([("cdag", m, s), ("cdag", l, sb),
                             ("c", m, sb), ("c", r, s)],
                            [("cdag", r, s), ("cdag", m, sb),
                             ("c", l, sb), ("c", m, s)]):
                    for coef, dens in poly2:
                        t.add(2.0 * a3 * coef, hop + dens)
    return t


@pytest.mark.parametrize("include_J2", [False, True])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_h2_terms_are_bitwise_the_written_out_builder(L, include_J2):
    # the term order feeds the order in which floquet_h4 sums duplicates,
    # and its trace is roundoff of zero: keys, order and values must hold
    b = build_sector_basis(L, (L + 1) // 2, L // 2)
    for g, U in ((2.3, 3.0), (0.0, 3.0), (2.3, 0.0)):
        p = HubbardParams(L=L, J=1.0, U=U, g=g, omega=9.7)
        got = floquet_h2_terms(p, include_J2)
        want = _h2_terms_written_out(p, include_J2)
        assert list(got.terms.items()) == list(want.terms.items())
        a, c = got.to_operator(b).matrix, want.to_operator(b).matrix
        for name in ("data", "indices", "indptr"):
            x, y = getattr(a, name), getattr(c, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_h2_resonance_guard():
    p = HubbardParams(L=2, J=1.0, U=12.0, g=1.0, omega=12.0)
    b = build_sector_basis(2, 1, 1)
    with pytest.raises(PhysicsError, match=r"denominator 1\*omega - U"):
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


@pytest.mark.parametrize("g, omega", [(2.3, 9.7), (0.7, 13.1)])
@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_hfe_matches_the_generic_double_commutator(L, g, omega):
    # the generic expansion H0 + (1/omega^2) (1/2)(x + x^dag) with
    # x = [[D, H0], D] of the drive D, against the renormalized chain
    p = HubbardParams(L=L, J=1.0, U=3.0, g=g, omega=omega)
    b = build_sector_basis(L, (L + 1) // 2, L // 2)
    h0, drive, _ = hubbard_harmonics(p, b)
    x = commutator(commutator(drive, h0), drive)
    want = h0 + (1.0 / omega ** 2) * (0.5 * (x + x.dagger()))
    assert (hfe_h(p, b) - want).max_abs() <= 1e-14 * h0.max_abs()


def test_hfe_refuses_a_basis_of_another_chain():
    # a longer chain's basis would take the shorter chain's terms silently
    p = HubbardParams(L=3, J=1.0, U=3.0, g=3.0, omega=12.0)
    with pytest.raises(ValueError, match="basis has L=4, params have L=3"):
        hfe_h(p, build_sector_basis(4, 2, 2))


@pytest.mark.parametrize("build", [build_hubbard_operators, floquet_h2,
                                   hubbard_micromotion])
def test_chain_builders_refuse_a_basis_of_another_chain(build):
    # the same refusal as hfe_h's above, from the other chain builders
    p = HubbardParams(L=3, J=1.0, U=3.0, g=3.0, omega=12.0)
    with pytest.raises(ValueError, match="basis has L=4, params have L=3"):
        build(p, build_sector_basis(4, 2, 2))


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
    with pytest.raises(PhysicsError, match=r"denominator 1\*omega - U"):
        spin_exchange(12.0, 1.0, 3.0, 12.0)


@pytest.mark.parametrize("U,omega", [(3.0, 0.0), (3.0, -12.0),
                                     (np.nan, 12.0)])
def test_spin_exchange_checks_energies(U, omega):
    # omega = 0 divided by zero, omega = -12 returned 1.3136 and a NaN U
    # returned NaN
    with pytest.raises(ValueError, match="must be finite"):
        spin_exchange(U, 1.0, 1.0, omega)


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


def _strong(L, U, g, omega, jmax):
    p = HubbardParams(L=L, J=1.0, U=U, g=g, omega=omega)
    return strong_drive_harmonics(p, jmax)


def test_strong_drive_zeroth_harmonic_is_bessel_weighted():
    _, harmonics, trunc = _strong(2, 0.0, 3.0, 12.0, jmax=12)
    b = build_sector_basis(2, 1, 0)
    m0 = harmonics[0].to_operator(b).to_dense()
    coef = m0[b.position(2), b.position(1)].real
    assert coef == pytest.approx(-scipy.special.j0(0.5), abs=1e-12)
    assert trunc <= 1e-10


def test_strong_drive_sideband_signs():
    _, harmonics, _ = _strong(2, 0.0, 3.0, 12.0, jmax=12)
    b = build_sector_basis(2, 1, 0)
    j1 = scipy.special.jv(1, 0.5)
    up = harmonics[1].to_operator(b).to_dense()[b.position(2), b.position(1)]
    dn = harmonics[-1].to_operator(b).to_dense()[b.position(2), b.position(1)]
    assert up.real == pytest.approx(-j1, abs=1e-12)
    assert dn.real == pytest.approx(j1, abs=1e-12)


def test_strong_drive_static_block_is_interaction():
    static, _, _ = _strong(3, 5.0, 2.0, 10.0, jmax=8)
    b = build_sector_basis(3, 1, 1)
    static = static.to_operator(b).to_dense()
    doublon = b.position((1 << 0) | (1 << 3))  # both spins on site 1
    assert static[doublon, doublon] == pytest.approx(5.0, abs=1e-14)
    assert np.abs(static - np.diag(np.diag(static))).max() <= 1e-14


def test_strong_drive_constant_profile_kills_sidebands():
    # the Bessel argument is 2g/omega times the bond's phase step, so g = 0
    # is the constant-profile limit: only the bare hop survives
    _, harmonics, trunc = _strong(3, 0.0, 0.0, 12.0, jmax=6)
    assert sorted(harmonics) == list(range(-6, 7))
    assert len(harmonics[0]) > 0
    for m in range(1, 7):
        assert len(harmonics[m]) == 0
    assert trunc <= 1e-14


def test_strong_drive_harmonics_pair_as_adjoints():
    # H(t) is Hermitian only if H_{-m} = H_m^dagger; the odd sidebands flip
    # sign with the hop direction, so they are not Hermitian themselves
    static, harmonics, _ = _strong(4, 2.0, 3.0, 12.0, jmax=6)
    b = build_sector_basis(4, 2, 1)
    assert static.to_operator(b).hermitian
    for m, tsum in harmonics.items():
        op = tsum.to_operator(b)
        assert op.nnz > 0
        partner = harmonics[-m].to_operator(b)
        assert (partner - op.dagger()).max_abs() <= 1e-15
        assert op.hermitian == (m % 2 == 0)


def test_strong_drive_guards():
    p = HubbardParams(L=2, J=1.0, U=0.0, g=1.0, omega=10.0)
    with pytest.raises(ValueError):
        strong_drive_harmonics(p, jmax=0)
    with pytest.raises(ValueError, match="1024"):
        strong_drive_harmonics(p, jmax=1025)
    with pytest.raises(ValueError):
        _strong(1, 0.0, 1.0, 10.0, jmax=10)
    with pytest.raises(ValueError):
        _strong(2, 0.0, 1.0, 0.0, jmax=10)
