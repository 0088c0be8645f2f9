"""Sector bases, sparse operator algebra, and model builders vs the dense
Jordan-Wigner oracle."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floquet_forge import (HubbardParams, SparseOperator, TermSum,
                           TwoBandChainParams, build_hubbard_operators,
                           build_sector_basis, build_two_band_chain,
                           commutator)
from floquet_forge.fock import (hubbard_terms, total_number_terms,
                                total_sz_terms, two_band_terms)

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
    h_d, u_d, n_d, d_d = hubbard_dense(3, 0.7, 2.3, 0.0, 1.1)
    assert_allclose(ops["h"].to_dense(), embed_sector(h_d, b), atol=1e-13)
    assert_allclose(ops["U_op"].to_dense(), embed_sector(u_d, b), atol=1e-13)
    assert_allclose(total_number_terms(3).to_operator(b).to_dense(),
                    embed_sector(n_d, b), atol=1e-13)
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
    p = HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0)
    b = build_sector_basis(4, 2, 2)
    ops = build_hubbard_operators(p, b)
    n_op = total_number_terms(4).to_operator(b)
    sz = total_sz_terms(4).to_operator(b)
    for k in ("h", "U_op", "drive"):
        assert ops[k].hermitian
        assert commutator(ops[k], n_op).max_abs() <= 1e-12
        assert commutator(ops[k], sz).max_abs() <= 1e-12


def test_basis_mismatch_raises():
    b = build_sector_basis(3, 1, 1)
    with pytest.raises(ValueError):
        build_hubbard_operators(
            HubbardParams(L=4, J=1.0, U=1.0, g=0.0, omega=5.0), b)


def test_term_sum_builds_number_operator():
    b = build_sector_basis(3, 2, 1)
    n = total_number_terms(3).to_operator(b)
    assert_allclose(n.to_dense(), 3.0 * np.eye(b.dim), atol=1e-14)
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
