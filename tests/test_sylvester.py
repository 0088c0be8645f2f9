"""The Sylvester equation's sign convention, the coefficient ladder, and the
analytic micro-motion of the driven chain against dense solves."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_forge import (HopExpansionCoeffs, HubbardParams, SparseOperator,
                           build_hubbard_operators, build_sector_basis,
                           commutator, hubbard_micromotion,
                           sylvester_residual)
from floquet_forge.errors import ResonantDenominator
from floquet_forge.fswt import floquet_h4
from floquet_forge.sylvester import (f31_terms, hubbard_micromotion_terms,
                                     y0_terms, y1_terms, y2_terms, z1_terms)

from oracles.dense_fermi import sylvester_dense


# -- sign convention --------------------------------------------------------

def test_two_level_offdiagonal_element():
    # lower->upper source at splitting 0.7, shift 2.0: the driven-side
    # element picks up 1/(shift - splitting)
    H0 = SparseOperator(np.diag([0.0, 0.7]))
    src = SparseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    f = sylvester_dense(H0.to_dense(), src.to_dense(), 2.0)
    assert f[0, 1] == pytest.approx(1.0 / (2.0 - 0.7), abs=1e-15)
    assert abs(f[1, 0]) < 1e-15
    # the oracle solves the package's equation: zero residual
    assert sylvester_residual(SparseOperator(f), H0, src, 2.0) <= 1e-14


# -- coefficient ladder ------------------------------------------------------

def test_ladder_values_at_reference_point():
    c = HopExpansionCoeffs.from_model(4.0, 12.0)
    assert c.beta == pytest.approx(-0.25, abs=1e-15)
    assert c.gamma == pytest.approx(0.5, abs=1e-15)
    assert c.delta == pytest.approx(-0.25, abs=1e-15)
    c3 = HopExpansionCoeffs.from_model(3.0, 12.0)
    assert c3.beta == pytest.approx(-0.2, abs=1e-15)
    assert c3.gamma == pytest.approx(1.0 / 3.0, abs=1e-15)


safe_U = st.floats(min_value=0.0, max_value=6.0)
safe_omega = st.floats(min_value=7.0, max_value=40.0)


@settings(max_examples=25, deadline=None)
@given(U=safe_U, omega=safe_omega)
def test_ladder_corners_are_green_denominators(U, omega):
    # 1 + beta*a + gamma*b + delta*a*b == omega / (omega + U*(a-b)) on the
    # occupation corners; same at 2*omega for the dd ladder
    c = HopExpansionCoeffs.from_model(U, omega)
    for a in (0.0, 1.0):
        for bb in (0.0, 1.0):
            q = 1 + c.beta * a + c.gamma * bb + c.delta * a * bb
            assert q == pytest.approx(omega / (omega + U * (a - bb)),
                                      rel=1e-12)
            qd = 1 + c.beta_dd * a + c.gamma_dd * bb + c.delta_dd * a * bb
            assert qd == pytest.approx(
                2 * omega / (2 * omega + U * (a - bb)), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(U=safe_U, omega=safe_omega)
def test_two_photon_ladder_factorizes(U, omega):
    # corners of the two-photon ladder are products of the one-photon
    # corners at omega and 2*omega
    c = HopExpansionCoeffs.from_model(U, omega)
    for a in (0.0, 1.0):
        for bb in (0.0, 1.0):
            lhs = 1 + c.beta2 * a + c.gamma2 * bb + c.delta2 * a * bb
            rhs = ((1 + c.beta * a + c.gamma * bb + c.delta * a * bb)
                   * (1 + c.beta_dd * a + c.gamma_dd * bb
                      + c.delta_dd * a * bb))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(U=safe_U, omega=safe_omega)
def test_third_and_fourth_ladder_recursions(U, omega):
    c = HopExpansionCoeffs.from_model(U, omega)
    for a in (0.0, 1.0):
        for bb in (0.0, 1.0):
            q = omega / (omega + U * (a - bb))
            d = 2 * omega / (2 * omega + U * (a - bb))
            lhs = -11.0 / 24.0 + c.beta3 * a + c.gamma3 * bb + c.delta3 * a * bb
            assert lhs == pytest.approx(q * q * (d - 2.0) / 8.0 - q * q / 3.0,
                                        rel=1e-12, abs=1e-14)
    assert c.beta4 == pytest.approx(c.beta3 + c.beta2 / 24 + c.beta / 6,
                                    rel=1e-13, abs=1e-15)
    assert c.gamma4 == pytest.approx(c.gamma3 + c.gamma2 / 24 + c.gamma / 6,
                                     rel=1e-13, abs=1e-15)
    assert c.delta4 == pytest.approx(c.delta3 + c.delta2 / 24 + c.delta / 6,
                                     rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("U,omega", [(12.0, 12.0), (24.0, 12.0),
                                     (-12.0, 12.0), (-24.0, 12.0)])
def test_ladder_resonances_raise(U, omega):
    with pytest.raises(ResonantDenominator):
        HopExpansionCoeffs.from_model(U, omega)


def test_ladder_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        HopExpansionCoeffs.from_model(1.0, 0.0)


# -- analytic micro-motion vs the dense cascade ------------------------------

@pytest.fixture(scope="module")
def cascade():
    p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0)
    b = build_sector_basis(4, 2, 1)
    ops = build_hubbard_operators(p, b)
    c = HopExpansionCoeffs.from_model(p.U, p.omega)
    return p, b, ops, c


def test_micromotion_cascade_matches_dense(cascade):
    # closed forms vs the recursive dense solves against the interaction
    p, b, ops, c = cascade
    h, U_op, drive = ops["h"], ops["U_op"], ops["drive"]
    y0 = y0_terms(p).to_operator(b)
    y1 = y1_terms(p, c).to_operator(b)
    y2 = y2_terms(p, c).to_operator(b)
    z1 = z1_terms(p, c).to_operator(b)
    u = U_op.to_dense()
    y1_d = sylvester_dense(u, commutator(y0, h).to_dense(), p.omega)
    y2_d = sylvester_dense(u, commutator(y1, h).to_dense(), p.omega)
    z1_d = sylvester_dense(u, 0.5 * commutator(y1, drive).to_dense(),
                           2 * p.omega)
    assert np.abs(y1.to_dense() - y1_d).max() <= 1e-12
    assert np.abs(y2.to_dense() - y2_d).max() <= 1e-12
    assert np.abs(z1.to_dense() - z1_d).max() <= 1e-12


def test_y0_is_ramp_over_omega(cascade):
    p, b, ops, _ = cascade
    y0 = y0_terms(p).to_operator(b)
    assert (y0 - (1.0 / p.omega) * ops["drive"]).max_abs() <= 1e-14


def test_residual_scaling_with_hop_truncation():
    # truncating the hop expansion at order m leaves a residual scaling as
    # J^(m+1): halving J must divide it by 2^(m+1), here exact
    b = build_sector_basis(4, 2, 1)
    for m in (0, 1, 2):
        res = {}
        for J in (0.6, 0.3):
            pj = HubbardParams(L=4, J=J, U=3.0, g=3.0, omega=12.0)
            oj = build_hubbard_operators(pj, b)
            h0 = oj["h"] + oj["U_op"]
            mm = hubbard_micromotion(pj, b, max_hop_order=m)
            res[J] = sylvester_residual(mm[(1, 1)], h0, oj["drive"], pj.omega)
        target = 2.0 ** (m + 1)
        assert abs(res[0.6] / res[0.3] - target) <= 0.2 * target


def test_micromotion_structure(cascade):
    p, b, _, _ = cascade
    mm = hubbard_micromotion(p, b)
    assert sorted(mm) == [(1, -1), (1, 1), (2, -2), (2, 2), (3, -1), (3, 1)]
    for (n, j), op in mm.items():
        partner = mm[(n, -j)]
        dev = (partner + op.dagger()).max_abs()
        assert dev <= 1e-12 * max(op.max_abs(), 1.0)


def test_micromotion_term_orders_validate(cascade):
    p = cascade[0]
    with pytest.raises(ValueError):
        hubbard_micromotion_terms(p, max_hop_order=3)
    # the three components come at every hop order; at order 0 the two
    # higher ones are empty
    for m in (0, 1, 2):
        terms = hubbard_micromotion_terms(p, max_hop_order=m)
        assert list(terms) == [(1, 1), (2, 2), (3, 1)]
        assert (len(terms[(2, 2)]) > 0) == (len(terms[(3, 1)]) > 0) == (m > 0)


def test_micromotion_third_order_resonance():
    # f(3,1) uses only the ladders at omega and 2*omega, so U = 3*omega is a
    # pole of no coefficient: the component is built there, and the g^4
    # block is finite and continuous through it
    p = HubbardParams(L=2, J=1.0, U=36.0, g=1.0, omega=12.0)
    assert len(hubbard_micromotion_terms(p)[(3, 1)]) > 0
    b = build_sector_basis(4, 2, 2)
    h4 = {U: floquet_h4(HubbardParams(L=4, J=1.0, U=U, g=1.0, omega=12.0), b)
          for U in (36.0 - 1e-6, 36.0, 36.0 + 1e-6)}
    mid = h4[36.0]
    assert np.all(np.isfinite(mid.to_dense()))
    for U in (36.0 - 1e-6, 36.0 + 1e-6):
        assert (h4[U] - mid).max_abs() <= 1e-6 * mid.max_abs()


def test_f31_single_component_not_antihermitian(cascade):
    p, b, _, c = cascade
    f31 = f31_terms(p, c).to_operator(b)
    assert f31.nnz > 0
    assert (f31 + f31.dagger()).max_abs() > 1e-12 * f31.max_abs()
