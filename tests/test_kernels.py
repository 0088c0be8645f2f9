"""The Hamiltonian action and the Lanczos exponential."""
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from floquet_forge import HubbardParams, build_hubbard_operators, \
    build_sector_basis
from floquet_forge.errors import PropagationError
from floquet_forge.kernels import HamiltonianAction, lanczos_expm_multiply


def _random_csr(rng, dim=60, density=0.08):
    m = sparse.random(dim, dim, density=density, random_state=42,
                      dtype=float).toarray()
    m = m + 1j * sparse.random(dim, dim, density=density, random_state=43,
                               dtype=float).toarray()
    m = m + m.conj().T
    return sparse.csr_matrix(m)


def test_action_matches_plain_matvec(rng):
    mat = _random_csr(rng)
    diag = rng.normal(size=60)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    act = HamiltonianAction(mat, diag=diag)
    act.set_coef(0.37 - 0.11j)
    expect = mat @ x + (0.37 - 0.11j) * (diag * x)
    assert_allclose(act(x), expect, atol=1e-13)
    assert act.matvecs == 1


def test_action_without_diag(rng):
    mat = _random_csr(rng)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    act = HamiltonianAction(mat)
    act.set_coef(5.0)  # no diag registered: coef is inert
    assert_allclose(act(x), mat @ x, atol=1e-13)


def test_action_accepts_sparse_operator():
    b = build_sector_basis(4, 2, 2)
    ops = build_hubbard_operators(
        HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0), b)
    act = HamiltonianAction(ops["h"] + ops["U_op"],
                            diag=ops["drive"].diagonal())
    x = np.ones(b.dim, dtype=np.complex128)
    act.set_coef(2.0)
    dense = (ops["h"] + ops["U_op"]).to_dense() \
        + 2.0 * np.diag(ops["drive"].diagonal())
    assert_allclose(act(x), dense @ x, atol=1e-12)


def test_lanczos_matches_dense_expm(rng):
    mat = _random_csr(rng)
    v = rng.normal(size=60) + 1j * rng.normal(size=60)
    tau = -0.2j
    w = lanczos_expm_multiply(lambda x: mat @ x, v, tau, tol=1e-12)
    expect = sla.expm(tau * mat.toarray()) @ v
    assert_allclose(w, expect, atol=1e-10)
    # norm preserved under unitary step
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), rel=1e-10)


def test_lanczos_zero_vector_short_circuits():
    v = np.zeros(8, dtype=np.complex128)
    w = lanczos_expm_multiply(lambda x: x, v, -1j)
    assert np.all(w == 0)


def test_lanczos_exact_on_small_invariant_subspace():
    # H restricted to a 2-dim invariant subspace converges in 2 steps
    h = np.diag([1.0, -1.0, 5.0])
    v = np.array([1.0, 1.0, 0.0], dtype=np.complex128)
    w = lanczos_expm_multiply(lambda x: h @ x, v, -0.7j, tol=1e-14)
    assert_allclose(w, sla.expm(-0.7j * h) @ v, atol=1e-13)


def test_lanczos_raises_when_subspace_exhausted(rng):
    m = rng.normal(size=(40, 40))
    m = m + m.T
    v = rng.normal(size=40) + 0j
    with pytest.raises(PropagationError):
        lanczos_expm_multiply(lambda x: m @ x, v, -80.0j, tol=1e-14, m_max=5)
