"""The Hamiltonian action, the Chebyshev and Lanczos exponentials and the
quadrature."""
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.special
from numpy.testing import assert_allclose

from floquet_forge import HubbardParams, build_hubbard_operators, \
    build_sector_basis, cdw_state
from floquet_forge import kernels
from floquet_forge.errors import PhysicsError
from floquet_forge.kernels import (HamiltonianAction, _rank_one_eigvalsh,
                                   _tridiagonal_eigh,
                                   chebyshev_coefficients, chebyshev_degree,
                                   chebyshev_expm_multiply,
                                   lanczos_expm_multiply, lanczos_quadrature)


def _random_csr(rng, dim=60, density=0.08):
    m = sparse.random(dim, dim, density=density, random_state=42,
                      dtype=float).toarray()
    m = m + 1j * sparse.random(dim, dim, density=density, random_state=43,
                               dtype=float).toarray()
    m = m + m.conj().T
    return sparse.csr_matrix(m)


def test_action_matches_plain_matvec(rng):
    # perfbench counts matvecs through the action, so it must apply the
    # same product as ``@`` to the bit
    mat = _random_csr(rng)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    act = HamiltonianAction(mat)
    assert np.array_equal(act(x), mat @ x)
    assert act(x.real).dtype == np.complex128
    assert np.array_equal(HamiltonianAction(mat.real)(x), mat.real @ x)
    assert act.matvecs == 2


def test_action_reads_rescaled_data(rng):
    # the action reads its CSR data at every call, so data rescaled in
    # place between calls must be what the next call applies
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


# -- Chebyshev exponential --------------------------------------------------

def _tail_bound(rho, K):
    """2 sum_{k>K} (rho/2)^k / k!, summed until the terms vanish."""
    total, k = 0.0, K + 1
    term = (rho / 2.0) ** k / math.factorial(k)
    while term > 1e-300:
        total += term
        k += 1
        term *= rho / 2.0 / k
    return 2.0 * total


@pytest.mark.parametrize("rho", [1e-3, 0.25, 1.0, 3.7, 27.0])
@pytest.mark.parametrize("tol", [1e-4, 1e-10, 1e-15])
def test_chebyshev_degree_is_the_least_that_bounds_the_tail(rho, tol):
    K, bound = chebyshev_degree(rho, tol)
    # the closed-form bound is no smaller than the summed one, and meets tol
    # at K but at no smaller degree
    assert _tail_bound(rho, K) <= bound * (1.0 + 1e-12) <= tol
    if K:
        q = rho / 2.0 / (K + 1)
        assert q >= 1.0 or 2.0 * (rho / 2.0) ** K / math.factorial(K) \
            / (1.0 - q) > tol
    # the bound holds the Bessel tail itself
    k = np.arange(K + 1, K + 200)
    assert 2.0 * np.abs(scipy.special.jv(k, rho)).sum() <= bound


def test_chebyshev_degree_is_finite_at_any_finite_rho():
    assert chebyshev_degree(0.0, 1e-10) == (0, 0.0)
    K, bound = chebyshev_degree(1e28, 1e-10)
    assert 1e28 < K < 2e28 and bound <= 1e-10
    for rho, tol in ((np.inf, 1e-10), (np.nan, 1e-10), (-1.0, 1e-10),
                     (1.0, 0.0)):
        with pytest.raises(ValueError):
            chebyshev_degree(rho, tol)


@pytest.mark.parametrize("rho", [0.0, 0.25, 3.7, 27.0])
def test_chebyshev_coefficients_are_bessel_values(rho):
    # c_0 = J_0 and c_k = 2 (-i)^k J_k, to roundoff, from numpy alone
    K = 60
    k = np.arange(K + 1)
    want = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * scipy.special.jv(k, rho)
    assert_allclose(chebyshev_coefficients(rho, K), want, rtol=0, atol=5e-15)


@pytest.mark.parametrize("dim", [3, 7, 20, 60, 100])
@pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("tol", [1e-4, 1e-10])
def test_chebyshev_series_matches_dense_expm(dim, tau, tol):
    # a dense random Hermitian H, shifted and scaled into [-1, 1] by its
    # Gershgorin interval: the series meets exp(-i tau H) v within the
    # a-priori bound of its degree, plus roundoff
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = a + a.conj().T
    energy = H.diagonal().real
    radius = np.abs(H).sum(axis=1) - np.abs(energy)
    low, high = (energy - radius).min(), (energy + radius).max()
    centre, half_width = (high + low) / 2.0, (high - low) / 2.0
    twice_x = sparse.csr_matrix(2.0 * (H - centre * np.eye(dim)) / half_width)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    K, bound = chebyshev_degree(tau * half_width, tol)
    coeffs = (chebyshev_coefficients(tau * half_width, K)
              * np.exp(-1j * tau * centre))
    got = chebyshev_expm_multiply(twice_x, v, coeffs)
    err = np.linalg.norm(got - sla.expm(-1j * tau * H) @ v)
    assert err <= (bound + 1e-13 * (K + 1)) * np.linalg.norm(v)


def test_chebyshev_series_of_degree_zero_and_one():
    # degree 0 is c_0 v; degree 1 adds c_1 X v, taken as half of 2X v
    x = np.array([[0.5, 0.2], [0.2, -0.3]])
    v = np.array([1.0, 2.0j])
    twice_x = sparse.csr_matrix(2.0 * x + 0j)
    coeffs = np.array([0.7 + 0.1j, -0.2j])
    assert_allclose(chebyshev_expm_multiply(twice_x, v, coeffs[:1]),
                    coeffs[0] * v, rtol=0, atol=1e-15)
    assert_allclose(chebyshev_expm_multiply(twice_x, v, coeffs),
                    coeffs[0] * v + coeffs[1] * (x @ v), rtol=0, atol=1e-15)


def test_chebyshev_refuses_a_matrix_that_does_not_fit_the_vector():
    # scipy's CSR kernel checks no bounds: a length-5 vector against a
    # 36 x 36 matrix gave a silent length-5 result, and a CSC matrix was
    # read as its transpose
    rng = np.random.default_rng(36)
    a = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    twice_x = sparse.csr_matrix((a + a.conj().T) / 36.0)
    v = np.zeros(36, complex)
    v[0] = 1.0
    coeffs = np.array([0.7, 0.2j, -0.1])
    for bad, vec in ((twice_x, v[:5]), (twice_x, np.zeros(37, complex)),
                     (twice_x.tocsc(), v), (twice_x.toarray(), v),
                     (twice_x[:, :35], v)):
        with pytest.raises(ValueError, match="CSR matrix of shape"):
            chebyshev_expm_multiply(bad, vec, coeffs)
    assert chebyshev_expm_multiply(twice_x, v, coeffs).shape == (36,)


# -- Lanczos exponential -----------------------------------------------------

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
    with pytest.raises(PhysicsError, match="did not converge: m=60,"):
        lanczos_expm_multiply(lambda x: m @ x, v, -80.0j, tol=1e-14)


def test_lanczos_non_finite_recurrence_raises():
    v = np.ones(6, dtype=np.complex128)
    with pytest.raises(PhysicsError, match="not finite"):
        lanczos_expm_multiply(lambda x: np.full_like(x, np.nan), v, -0.1j)


def test_tridiagonal_eigh_reports_a_lapack_failure(monkeypatch):
    # numpy's LinAlgError is a ValueError, which the CLI reports as a config
    # error; a failed eigensolve must reach it as a propagation failure
    def failing(d, e):
        raise np.linalg.LinAlgError(
            "stevd (eigh_tridiagonal) did not converge (LAPACK info=2)")

    monkeypatch.setattr(kernels, "eigh_tridiagonal", failing)
    with pytest.raises(PhysicsError, match="at m=2: stevd"):
        _tridiagonal_eigh(np.array([1.0, 2.0]), np.array([0.5, 0.0]))


# -- eigenvalues of a diagonal plus rank one -------------------------------

def _rank_one_cases():
    rng = np.random.default_rng(7)
    d = rng.normal(size=40)
    ties = np.repeat(rng.normal(size=8), 5)
    ulp = ties.copy()
    ulp[1::5] = np.nextafter(ulp[1::5], np.inf)
    ulp[2::5] = np.nextafter(ulp[2::5], -np.inf)
    return {
        "distinct": d,
        "exact-ties": ties,
        "ties-1-ulp-apart": ulp,
        "one-distinct-d": np.full(12, 0.3),
        "one-entry": d[:1],
        "two-entries": d[:2],
    }


@pytest.mark.parametrize("rho", [0.0, 1.6, -1.6, 1e-300, -1e-300, 1e-8,
                                 -1e8, 1e25, -1e25, 1e300, -1e300])
@pytest.mark.parametrize("case", sorted(_rank_one_cases()))
def test_rank_one_eigvalsh_matches_eigvalsh(case, rho):
    # the secular equation with deflation against the dense eigensolve, to
    # within the dense solve's own backward error; where the d spread,
    # rho = +-1e-300 deflates every weight
    d = _rank_one_cases()[case]
    a = np.diag(d) + rho * np.ones((d.size, d.size))
    want = np.linalg.eigvalsh(a)
    got = _rank_one_eigvalsh(d, rho)
    assert got.shape == want.shape
    assert np.all(np.diff(got) >= 0.0)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("info, sigma", [(1, 0.5), (0, np.nan)])
def test_rank_one_eigvalsh_reports_a_lapack_failure(monkeypatch, info, sigma):
    # dlasd4 signals a failed root through info, or leaves a NaN; neither
    # may reach the caller as an eigenvalue
    def failing(i, d, z, rho):
        return d, sigma, d, info

    monkeypatch.setattr(kernels, "dlasd4", failing)
    with pytest.raises(PhysicsError,
                       match=f"at root 0 of 3: dlasd4 info={info}"):
        _rank_one_eigvalsh(np.array([0.0, 1.0, 2.0]), 1.0)


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
    with pytest.raises(PhysicsError, match="not finite at m=1"):
        lanczos_quadrature(H, np.ones(6), t=1.0)
