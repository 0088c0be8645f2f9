"""The Hamiltonian action, the Lanczos exponential and the quadrature."""
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from floquet_forge import HubbardParams, build_hubbard_operators, \
    build_sector_basis, cdw_state
from floquet_forge import kernels
from floquet_forge.errors import PropagationError
from floquet_forge.kernels import (HamiltonianAction, _tridiagonal_eigh,
                                   lanczos_expm_multiply, lanczos_quadrature)


def _random_csr(rng, dim=60, density=0.08):
    m = sparse.random(dim, dim, density=density, random_state=42,
                      dtype=float).toarray()
    m = m + 1j * sparse.random(dim, dim, density=density, random_state=43,
                               dtype=float).toarray()
    m = m + m.conj().T
    return sparse.csr_matrix(m)


def test_action_matches_plain_matvec(rng):
    # the action calls scipy's CSR kernel without the dispatch of ``@``; a
    # change to that private kernel must show here as a changed bit
    mat = _random_csr(rng)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    act = HamiltonianAction(mat)
    assert np.array_equal(act(x), mat @ x)
    assert act(x.real).dtype == np.complex128
    assert np.array_equal(HamiltonianAction(mat.real)(x), mat.real @ x)
    assert act.matvecs == 2


def test_action_reads_rescaled_data(rng):
    # evolve_exact rescales the action's CSR data in place before each
    # exponential; the next call must apply the rescaled matrix
    mat = _random_csr(rng)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    act = HamiltonianAction(mat.copy())
    w = np.exp(1j * rng.normal(size=mat.nnz))
    np.multiply(mat.data, w, out=act.matrix.data)
    expect = sparse.csr_matrix((mat.data * w, mat.indices, mat.indptr),
                               shape=mat.shape) @ x
    assert_allclose(act(x), expect, atol=1e-13)


def test_action_accepts_sparse_operator():
    b = build_sector_basis(4, 2, 2)
    ops = build_hubbard_operators(
        HubbardParams(L=4, J=1.0, U=3.0, g=2.0, omega=12.0), b)
    h0 = ops["h"] + ops["U_op"]
    act = HamiltonianAction(h0)
    x = np.ones(b.dim, dtype=np.complex128)
    assert_allclose(act(x), h0.to_dense() @ x, atol=1e-12)


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
    # |tau| ||H|| is about 2000 here, far beyond what 60 Krylov vectors
    # resolve
    m = rng.normal(size=(200, 200))
    m = m + m.T
    v = rng.normal(size=200) + 0j
    with pytest.raises(PropagationError, match="did not converge: m=60,"):
        lanczos_expm_multiply(lambda x: m @ x, v, -80.0j, tol=1e-14)


def test_lanczos_non_finite_recurrence_raises():
    v = np.ones(6, dtype=np.complex128)
    with pytest.raises(PropagationError, match="not finite"):
        lanczos_expm_multiply(lambda x: np.full_like(x, np.nan), v, -0.1j)


def test_tridiagonal_eigh_equals_scipy_wrapper(rng):
    # the Lanczos stopping test reads these eigenpairs, so equality with
    # eigh_tridiagonal, to the last bit, keeps every stopping iteration
    for m in range(1, 41):
        alphas = rng.normal(size=m)
        betas = rng.normal(size=m)
        theta, S = _tridiagonal_eigh(alphas, betas)
        ref_theta, ref_S = sla.eigh_tridiagonal(alphas, betas[:m - 1])
        assert np.array_equal(theta, ref_theta), m
        assert np.array_equal(S, ref_S), m


def test_tridiagonal_eigh_reports_a_lapack_failure(monkeypatch):
    # dstevd signals a failed eigensolve only through info; it must not
    # reach the Lanczos stopping test as eigenpairs
    def failing(d, e, compute_v):
        return d, np.eye(d.size), 2

    monkeypatch.setattr(kernels, "dstevd", failing)
    with pytest.raises(PropagationError, match="at m=2: dstevd info=2"):
        _tridiagonal_eigh(np.array([1.0, 2.0]), np.array([0.5, 0.0]))


# -- Lanczos quadrature ------------------------------------------------------

def _chain(L):
    p = HubbardParams(L=L, J=1.0, U=3.0, g=3.0, omega=12.0)
    n = (L + 1) // 2
    b = build_sector_basis(L, n, n)
    ops = build_hubbard_operators(p, b)
    return ops["h"] + ops["U_op"], cdw_state(b)


def test_quadrature_closes_exactly_on_breakdown():
    # the L=2 CDW start has weight on 3 of the 4 levels of its sector: the
    # run ends by breakdown at m = 3, not at m = dim, with the exact levels
    # and weights, so the rule holds at any t
    H, psi0 = _chain(2)
    theta, w = lanczos_quadrature(H, psi0)
    eps, V = np.linalg.eigh(H.to_dense())
    amps = (V.T @ psi0) ** 2
    bright = amps > 1e-20
    assert theta.size == np.count_nonzero(bright) == 3
    assert_allclose(theta, eps[bright], rtol=0, atol=1e-13)
    assert_allclose(w, amps[bright], rtol=0, atol=1e-14)
    # a convergence check never runs before the run closes
    assert_allclose(lanczos_quadrature(H, psi0, t=1e3)[0], theta, rtol=0,
                    atol=1e-13)


def test_quadrature_ends_exact_at_full_dimension():
    # a dense random Hermitian H has dim distinct levels, all bright from a
    # random v; at t = 1e4 the amplitude never settles, so the run goes to
    # m = dim, where the rule is the exact spectral measure
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    H = sparse.csr_matrix(a + a.conj().T)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    eps, V = np.linalg.eigh(H.toarray())
    for t in (1e4, None):
        theta, w = lanczos_quadrature(H, v, t)
        assert theta.size == 40
        assert_allclose(theta, eps, rtol=0, atol=1e-11)
        assert_allclose(w, np.abs(V.conj().T @ v) ** 2, rtol=0, atol=1e-11)


def test_quadrature_rule_reproduces_the_exponential():
    # one recurrence serves both: the Gauss rule run to breakdown gives
    # <v|exp(tau H)|v> as the exponential's projection on v, and the
    # exponential takes one matvec per Krylov vector
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12))
    H = sparse.csr_matrix(a + a.T)
    v = rng.normal(size=12)
    tau = -3.0j
    theta, w = lanczos_quadrature(H, v)
    act = HamiltonianAction(H)
    psi = lanczos_expm_multiply(act, v, tau, tol=1e-14)
    assert theta.size == 12
    assert abs(np.exp(tau * theta) @ w - np.vdot(v, psi)) <= 1e-13
    assert act.matvecs == theta.size


def test_quadrature_of_zero_vector_is_empty():
    H, psi0 = _chain(2)
    theta, w = lanczos_quadrature(H, np.zeros_like(psi0), t=1.0)
    assert theta.size == w.size == 0


def test_quadrature_non_finite_recurrence_raises():
    H = sparse.csr_matrix(np.full((6, 6), np.nan))
    with pytest.raises(PropagationError, match="not finite at m=1"):
        lanczos_quadrature(H, np.ones(6), t=1.0)
