"""Sector bases, sparse operator algebra, and model builders vs the dense
Jordan-Wigner oracle."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from floquet_forge import (HubbardParams, SparseOperator, TermSum,
                           TwoBandChainParams, build_hubbard_operators,
                           build_sector_basis, build_two_band_chain,
                           cdw_state, commutator)
from floquet_forge.fock import (_apply_ops, _op_str, _swap_even_isometry,
                                hubbard_terms, two_band_terms)
from floquet_forge.fswt import floquet_h2, floquet_h2_terms, floquet_h4, \
    hfe_h, hubbard_harmonics
from floquet_forge.sylvester import (hubbard_micromotion,
                                     hubbard_micromotion_terms)

from conftest import embed_sector
from oracles.dense_fermi import hubbard_dense, jw_annihilators, two_band_dense


# -- sector bases ----------------------------------------------------------

@pytest.mark.parametrize("L,nu,nd,dim", [
    (2, 1, 1, 4),
    (6, 3, 3, 400),
    (10, 5, 5, 63504),
])
def test_sector_dimensions(L, nu, nd, dim):
    b = build_sector_basis(L, nu, nd)
    assert b.dim == dim
    assert b.dim == math.comb(L, nu) * math.comb(L, nd)


def test_sector_states_sorted_and_indexed():
    b = build_sector_basis(4, 2, 1)
    assert np.all(np.diff(b.states.astype(np.int64)) > 0)
    for i, s in enumerate(b.states):
        assert b.position(int(s)) == i
    # up spins on bits 0..L-1, down on the next L bits
    for s in b.states:
        assert bin(int(s) & 0b1111).count("1") == 2
        assert bin((int(s) >> 4) & 0b1111).count("1") == 1


def test_position_rejects_out_of_sector_state():
    b = build_sector_basis(4, 2, 1)
    # other sectors: (3, 1), empty, (0, 1), one past the last state, and
    # integers that are no 64-bit state at all
    for state in (0b0001_0111, 0, 1 << 7, int(b.states[-1]) + 1, -1,
                  (1 << 64) + int(b.states[0])):
        with pytest.raises(KeyError):
            b.position(state)


def test_sector_rejects_overfilled():
    with pytest.raises(ValueError):
        build_sector_basis(2, 3, 0)


@pytest.mark.parametrize("L", [0, 17])
def test_sector_rejects_chain_length_outside_range(L):
    # a basis state is one 64-bit word of 2L occupation bits
    with pytest.raises(ValueError, match="L must be in 1..16"):
        build_sector_basis(L, 0, 0)


# -- sparse operator algebra -----------------------------------------------

def test_operator_algebra(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = SparseOperator(m)
    herm = SparseOperator(m + m.conj().T)
    anti = SparseOperator(m - m.conj().T)
    assert herm.hermitian
    assert not anti.hermitian
    assert_allclose(a.dagger().to_dense(), m.conj().T, atol=1e-14)
    assert_allclose((2.0 * a).to_dense(), (a * 2.0).to_dense())
    b = SparseOperator(rng.normal(size=(6, 6)))
    assert_allclose(commutator(a, b).to_dense(),
                    m @ b.to_dense() - b.to_dense() @ m, atol=1e-13)
    assert a.fro_norm() == pytest.approx(np.linalg.norm(m))


@pytest.mark.parametrize("make", [
    lambda: HubbardParams(L=2, J=1.0, U=1.0, g=1.0, omega=math.inf),
    lambda: HubbardParams(L=2, J=math.nan, U=1.0, g=1.0, omega=5.0),
    lambda: TwoBandChainParams(L=2, eps21=3.7, t1=math.nan, t2=0.0,
                               U11=1.6, U12=0.8),
    lambda: TwoBandChainParams(L=2, eps21=3.7, t1=0.0, t2=-math.inf,
                               U11=1.6, U12=0.8),
    lambda: TwoBandChainParams(L=2, eps21=3.7, t1=0.0, t2=0.0,
                               U11=math.nan, U12=0.8),
    lambda: TwoBandChainParams(L=2, eps21=3.7, t1=0.0, t2=0.0,
                               U11=1.6, U12=math.inf),
    lambda: TwoBandChainParams(L=2, eps21=math.inf, t1=0.0, t2=0.0,
                               U11=1.6, U12=0.8),
], ids=["omega", "J", "t1", "t2", "U11", "U12", "eps21"])
def test_params_reject_non_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_operator_rejects_rectangular():
    with pytest.raises(ValueError):
        SparseOperator(np.ones((2, 3)))


def test_real_models_give_float64_operators():
    # every Hamiltonian the chain layer builds is real, so it stays float64
    # through assembly and algebra and takes the real eigensolve
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    static, drive, _ = hubbard_harmonics(p, b)
    ops = [static, drive, floquet_h2(p, b, include_J2=True), hfe_h(p, b),
           floquet_h4(p, b), *hubbard_micromotion(p, b).values()]
    tb = TwoBandChainParams(L=2, eps21=3.7, t1=0.05, t2=-0.15, U11=1.6,
                            U12=0.8)
    ops += build_two_band_chain(tb, build_sector_basis(4, 2, 2)).values()
    for op in ops:
        assert op.matrix.dtype == np.float64


def test_operator_dtype_follows_its_entries():
    m = np.array([[0, 1], [1, 0]])
    op = SparseOperator(m)  # integer entries are promoted
    assert op.matrix.dtype == np.float64
    for real in (2.0 * op, op * 2, op @ op - op.dagger(), -op):
        assert real.matrix.dtype == np.float64
    # an imaginary scalar or entry makes the operator complex, and a complex
    # input stays complex with every imaginary part zero: dtype, not values
    for cplx in (1j * op, op * 1j, op + SparseOperator(1j * m),
                 SparseOperator(m.astype(np.complex128))):
        assert cplx.matrix.dtype == np.complex128
    assert_allclose((1j * op).to_dense(), 1j * m)
    # a real coefficient stays real in a term list, and prints as before
    b = build_sector_basis(2, 1, 0)
    t = TermSum().add(0.5, [("cdag", 1, 0), ("c", 0, 0)])
    assert t.to_operator(b).matrix.dtype == np.float64
    t.add(0.25j, [("cdag", 0, 0), ("c", 1, 0)])
    assert t.to_operator(b).matrix.dtype == np.complex128
    assert t.dump_lines() == ["0 0.25 Cdag(1,up) C(2,up)",
                              "0.5 0 Cdag(2,up) C(1,up)"]


# -- oracle self-check: canonical anticommutation ---------------------------

def test_oracle_anticommutation():
    c = jw_annihilators(4)
    for i in range(4):
        for j in range(4):
            anti = c[i] @ c[j].conj().T + c[j].conj().T @ c[i]
            assert_allclose(anti, np.eye(16) if i == j else 0 * anti,
                            atol=1e-14)
            assert_allclose(c[i] @ c[j] + c[j] @ c[i], 0 * anti, atol=1e-14)


# -- driven Hubbard chain vs oracle ----------------------------------------

def test_hubbard_operators_match_oracle():
    p = HubbardParams(L=3, J=0.7, U=2.3, g=1.1, omega=9.0)
    b = build_sector_basis(3, 2, 1)
    ops = build_hubbard_operators(p, b)
    h_d, u_d, _, d_d = hubbard_dense(3, 0.7, 2.3, 0.0, 1.1)
    assert_allclose(ops["h"].to_dense(), embed_sector(h_d, b), atol=1e-13)
    assert_allclose(ops["U_op"].to_dense(), embed_sector(u_d, b), atol=1e-13)
    assert_allclose(ops["drive"].to_dense(), embed_sector(d_d, b), atol=1e-13)


def test_hubbard_dimer_half_filled_spectrum():
    # ED spectrum at U=4, J=1: singlet block gives 2 +- 2*sqrt(2) and U,
    # triplet gives three zeros.
    evs = []
    for nu, nd in ((1, 1), (2, 0), (0, 2)):
        b = build_sector_basis(2, nu, nd)
        ops = build_hubbard_operators(
            HubbardParams(L=2, J=1.0, U=4.0, g=0.0, omega=10.0), b)
        evs.extend(np.linalg.eigvalsh((ops["h"] + ops["U_op"]).to_dense()))
    expect = sorted([2 - 2 * math.sqrt(2), 0.0, 0.0, 0.0, 4.0,
                     2 + 2 * math.sqrt(2)])
    assert_allclose(sorted(evs), expect, atol=1e-12)


def test_zero_couplings_give_zero_operators():
    b = build_sector_basis(3, 1, 1)
    ops0 = build_hubbard_operators(
        HubbardParams(L=3, J=0.0, U=2.0, g=0.0, omega=8.0), b)
    assert ops0["h"].nnz == 0
    assert ops0["drive"].nnz == 0


def test_hubbard_symmetries():
    # the sector fixes N and S_z (a term that leaves it is refused, see
    # test_term_leaving_the_sector_raises), so hermiticity is what is left
    p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    ops = build_hubbard_operators(p, b)
    for k in ("h", "U_op", "drive"):
        assert ops[k].hermitian


def _spin_swap(b):
    """Permutation matrix of up <-> down on a sector, one state at a time."""
    mask = (1 << b.L) - 1
    image = [b.position(((s & mask) << b.L) | (s >> b.L))
             for s in map(int, b.states)]
    return sparse.csr_matrix((np.ones(b.dim), (image, np.arange(b.dim))),
                             shape=(b.dim, b.dim))


@pytest.mark.parametrize("L", range(2, 9))
def test_swap_even_isometry(L):
    # V is an isometry onto the swap-even states, V V^T is the projector
    # (1 + P)/2, the CDW start lies in its range, and the swap maps the
    # chain's static block and drive onto themselves exactly, so the exact
    # propagation from the CDW start never leaves the range of V
    n = (L + 1) // 2
    b = build_sector_basis(L, n, n)
    v = _swap_even_isometry(b)
    swap = _spin_swap(b)
    assert v.shape == (b.dim, (b.dim + math.comb(L, n)) // 2)
    gram = v.T @ v - sparse.eye(v.shape[1])
    assert np.abs(gram.data).max(initial=0.0) <= 1e-15
    projector = v @ v.T - 0.5 * (sparse.eye(b.dim) + swap)
    assert np.abs(projector.data).max(initial=0.0) <= 1e-15
    psi0 = cdw_state(b)
    assert_allclose(v @ (v.T @ psi0), psi0, rtol=0, atol=1e-15)
    p = HubbardParams(L=L, J=1.0, U=3.0, g=3.0, omega=12.0)
    for op in hubbard_harmonics(p, b)[:2]:
        moved = swap @ op.matrix @ swap.T - op.matrix
        assert np.abs(moved.data).max(initial=0.0) == 0.0


def test_swap_even_isometry_refuses_unequal_counts():
    with pytest.raises(ValueError, match=r"n_up=2, n_down=1"):
        _swap_even_isometry(build_sector_basis(4, 2, 1))


def test_basis_mismatch_raises():
    b = build_sector_basis(3, 1, 1)
    with pytest.raises(ValueError):
        build_hubbard_operators(
            HubbardParams(L=4, J=1.0, U=1.0, g=0.0, omega=5.0), b)


def test_term_sum_builds_number_operator():
    b = build_sector_basis(3, 2, 1)
    # idempotent density: n^2 = n per mode
    t = TermSum()
    t.add(1.0, [("n", 0, 0), ("n", 0, 0)])
    t2 = TermSum()
    t2.add(1.0, [("n", 0, 0)])
    assert (t.to_operator(b) - t2.to_operator(b)).max_abs() <= 1e-14


@pytest.mark.parametrize("factor, match", [
    (("a", 0, 0), "unknown operator kind 'a'"),
    (("n", 0, 2), "spin must be 0"),
])
def test_term_sum_rejects_bad_factors(factor, match):
    with pytest.raises(ValueError, match=match):
        TermSum().add(1.0, [factor])


def test_term_leaving_the_sector_raises():
    # a lone creator changes the particle number
    b = build_sector_basis(3, 1, 1)
    with pytest.raises(ValueError, match=r"term Cdag\(1,up\) leaves the "
                                         r"\(n_up=1, n_down=1\) sector"):
        TermSum().add(1.0, [("cdag", 0, 0)]).to_operator(b)


def test_prefix_leaving_the_sector_raises_when_a_dressing_keeps_a_state():
    # both terms share the prefix Cdag(1,up); n(0,up) kills every source of
    # the first, n(1,dn) keeps some sources of the second, which then raises
    # naming the whole term
    b = build_sector_basis(3, 1, 1)
    t = TermSum().add(1.0, [("cdag", 0, 0), ("n", 0, 0)])
    t.add(1.0, [("cdag", 0, 0), ("n", 1, 1)])
    with pytest.raises(ValueError, match=r"term Cdag\(1,up\) N\(2,dn\) "
                                         r"leaves the \(n_up=1, n_down=1\)"):
        t.to_operator(b)


def test_prefix_leaving_the_sector_passes_when_its_dressing_kills_it():
    # Cdag(1,up) N(1,up) vanishes on every state: nothing leaves the sector
    b = build_sector_basis(3, 1, 1)
    t = TermSum().add(1.0, [("cdag", 0, 0), ("n", 0, 0)])
    assert t.to_operator(b).nnz == 0
    t.add(2.0, [("n", 2, 0)])
    assert_allclose(t.to_operator(b).to_dense(),
                    np.diag(2.0 * ((b.states >> 2) & 1)))


@pytest.mark.parametrize("site, shown", [(4, 5), (-1, 0), (70, 71)])
def test_term_with_a_site_outside_the_chain_raises(site, shown):
    # site 4 of an L=4 basis would alias bit 4, site 0 spin down
    b = build_sector_basis(4, 2, 2)
    t = TermSum().add(1.0, [("n", site, 0)])
    with pytest.raises(ValueError, match=rf"term N\({shown},up\) has a site "
                                         r"outside 1\.\.4"):
        t.to_operator(b)


def _term_by_term(tsum, basis):
    """Each monomial applied and located on its own, in term order."""
    dim = basis.dim
    rows, cols, vals = [], [], []
    for ops, coeff in tsum.terms.items():
        if coeff == 0:
            continue
        st, amp, alive = _apply_ops(basis.states, ops, basis.L)
        if not alive.any():
            continue
        targets = st[alive]
        pos = np.searchsorted(basis.states, targets)
        if np.any(pos >= dim) or np.any(basis.states[pos] != targets):
            raise ValueError(f"term {' '.join(map(_op_str, ops))} leaves")
        rows.append(pos)
        cols.append(np.nonzero(alive)[0])
        vals.append(coeff * amp[alive])
    if not rows:
        return SparseOperator(sparse.csr_matrix((dim, dim)))
    return SparseOperator(sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim)))


def _assert_same_bits(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a.matrix, name), getattr(b.matrix, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _model_term_lists(L, omega):
    p = HubbardParams(L=L, J=1.0, U=3.0, g=omega / 4.0, omega=omega)
    return [floquet_h2_terms(p, include_J2=True),
            *hubbard_micromotion_terms(p).values(),
            *hubbard_terms(p).values()]


@pytest.mark.parametrize("L, omega", [(3, 9.0), (5, 12.0), (6, 20.0)])
def test_assembly_is_bitwise_term_by_term(L, omega):
    # shared prefixes must not change the order in which duplicates are
    # summed: floquet_h4's trace is roundoff of zero and shows any change
    b = build_sector_basis(L, (L + 1) // 2, L // 2)
    for t in _model_term_lists(L, omega):
        _assert_same_bits(t.to_operator(b), _term_by_term(t, b))
    cplx = TermSum().add(0.5j, [("cdag", 1, 0), ("c", 0, 0), ("n", 2, 1)])
    cplx = cplx + floquet_h2_terms(
        HubbardParams(L=L, J=1.0, U=3.0, g=2.0, omega=omega))
    _assert_same_bits(cplx.to_operator(b), _term_by_term(cplx, b))


@pytest.mark.parametrize("L", [2, 3])
def test_two_band_assembly_is_bitwise_term_by_term(L):
    p = TwoBandChainParams(L=L, eps21=3.7, t1=0.05, t2=-0.15, U11=1.6,
                           U12=0.8)
    b = build_sector_basis(2 * L, L, L)
    for t in two_band_terms(p).values():
        _assert_same_bits(t.to_operator(b), _term_by_term(t, b))


def test_commutator_is_bitwise_the_difference_of_products():
    p = HubbardParams(L=5, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(5, 3, 2)
    f = hubbard_micromotion(p, b)
    h2 = floquet_h2(p, b, include_J2=True)
    for x, y in ((f[(1, 1)], h2), (f[(2, 2)], f[(1, -1)]),
                 (1j * f[(1, 1)], h2), (f[(3, 1)], 0.5j * f[(1, -1)])):
        c = commutator(x, y)
        assert c.matrix.has_canonical_format
        _assert_same_bits(c, (x @ y) - (y @ x))


def test_drive_is_one_based_ramp():
    terms = hubbard_terms(HubbardParams(L=2, J=1.0, U=0.0, g=0.5, omega=7.0))
    b = build_sector_basis(2, 1, 0)
    d = terms["drive"].to_operator(b).to_dense()
    # pattern 0b01 = site 1 (weight g*1), 0b10 = site 2 (weight g*2)
    assert d[b.position(1), b.position(1)] == pytest.approx(0.5)
    assert d[b.position(2), b.position(2)] == pytest.approx(1.0)


# -- two-band chain vs oracle ----------------------------------------------

def test_two_band_matches_oracle():
    p = TwoBandChainParams(L=2, t1=0.05, t2=-0.15, eps21=3.7, U11=1.6,
                           U12=0.8)
    b = build_sector_basis(4, 2, 2)
    ops = build_two_band_chain(p, b)
    h_d, d_d = two_band_dense(2, 3.7, 0.05, -0.15, 1.6, 0.8)
    assert_allclose(ops["H0"].to_dense(), embed_sector(h_d, b), atol=1e-13)
    assert_allclose(ops["dipole"].to_dense(), embed_sector(d_d, b),
                    atol=1e-13)


def test_two_band_sector_guard():
    p = TwoBandChainParams(L=2, t1=0.0, t2=0.0, eps21=1.0, U11=0.0, U12=0.0)
    with pytest.raises(ValueError):
        build_two_band_chain(p, build_sector_basis(4, 1, 1))
    with pytest.raises(ValueError):
        build_two_band_chain(p, build_sector_basis(2, 1, 1))


def test_two_band_noninteracting_band_edge():
    # dipole couples identical open-chain orbitals of the two bands, so the
    # lowest active excitation is min over modes of (eps2_m - eps1_m)
    p = TwoBandChainParams(L=3, t1=0.05, t2=-0.15, eps21=3.7, U11=0.0,
                           U12=0.0)
    from floquet_forge.dynamics import dipole_excitations
    de, w = dipole_excitations(p)
    theta = np.pi * np.arange(1, 4) / 4.0
    modes = 3.7 + 2 * (-0.15 - 0.05) * np.cos(theta)
    assert de[w > 1e-10].min() == pytest.approx(modes.min(), abs=1e-12)


def test_two_band_flat_band_exciton_line():
    # on-site pair sits at eps21 - U11 + U12, below the separated-pair
    # continuum at eps21 - U11 + 2*U12
    p = TwoBandChainParams(L=3, t1=0.0, t2=0.0, eps21=3.7, U11=1.6, U12=0.8)
    from floquet_forge.dynamics import dipole_excitations
    de, w = dipole_excitations(p)
    bright = de[w > 1e-10]
    assert_allclose(np.unique(np.round(bright, 10)), [2.9], atol=1e-12)


def test_two_band_dispersive_golden():
    p = TwoBandChainParams(L=3, t1=0.05, t2=-0.15, eps21=3.7, U11=1.6,
                           U12=0.8)
    from floquet_forge.dynamics import dipole_excitations
    de, w = dipole_excitations(p)
    pos = de[de > 1e-9]
    assert pos.min() == pytest.approx(2.8273307037832867, abs=1e-10)
