"""Vertex-matrix construction, RPA series, bound states, induced couplings.

Pinned numbers come from the dense oracles in tests/oracles and from
frozen runs of the module itself at commit time; they guard against
silent regressions in the vertex conventions (index wrapping, 1/N
normalization, Hartree-style diagonal subtraction).
"""

import time
import warnings

import numpy as np
import pytest

from floquet_forge import BandGrid, CavitySpec
from floquet_forge import gamma
from floquet_forge.cli import main
from floquet_forge.errors import PhysicsError
from floquet_forge.gamma import (
    MAX_DENSE,
    VERTEX_CHUNK,
    GammaMatrix,
    InteractionProfile,
    _checked_inverse,
    _rank_one_vertex_eigvalsh,
    _vertex_diagonal,
    _vertex_solver,
    cavity_global_interaction,
    constant_profile,
    coulomb_mix_selfenergy,
    eigen_sign_analysis,
    gamma_matrix,
    interaction_weight,
    mf_gamma_matrix,
    mf_screened_denominator,
    phase_winding_profile,
    rpa_kernel,
    scattering_strength,
    series_vs_inverse,
    valley_dip_profile,
)
from floquet_forge.kspace import screened_detuning
from oracles import dense_vertex

BANDS = dict(eps21=3.7, t1=0.05, t2=-0.15, U11=1.6, U12=0.8)


@pytest.fixture(scope="module")
def chain8():
    """1-d cut (Nx=8) used for the series and single-pole checks."""
    grid = BandGrid.square(8, 1, **BANDS)
    return grid, constant_profile(grid, 0.5)


@pytest.fixture(scope="module")
def square6():
    grid = BandGrid.square(6, 6, **BANDS)
    return grid, constant_profile(grid, 1.6)


@pytest.fixture(scope="module")
def flat8():
    grid = BandGrid.square(8, 8, eps21=3.0, t1=0.0, t2=0.0, U11=0.7, U12=0.7)
    return grid, constant_profile(grid, 0.7)


# ---------------------------------------------------------------- profiles

def test_constant_profile_fields():
    grid = BandGrid.square(4, 3, **BANDS)
    prof = constant_profile(grid, 0.5)
    assert prof.shape == (4, 3)
    assert np.all(prof.Vq == 0.5)
    # same-shape coupling input is stacked onto a spin axis
    assert prof.Jcoupling.shape == (2, 4, 3)
    assert np.all(prof.Jcoupling == 1.0 + 0.0j)


def test_profiles_keep_the_coupling_type():
    # real couplings stay float64 and are solved in real arithmetic; only
    # the phase winding is complex, and so is its screened denominator
    grid = BandGrid.square(4, 4, **BANDS)
    for prof in (constant_profile(grid, 1.6),
                 valley_dip_profile(grid, 1.6, (1, 1), 0.6)):
        assert prof.Jcoupling.dtype == np.float64
        assert mf_screened_denominator(grid, prof, 2.0).dtype == np.float64
    wind = phase_winding_profile(grid, 1.6, (1, 1), (0, 0), 0.6)
    assert wind.Jcoupling.dtype == np.complex128
    assert mf_screened_denominator(grid, wind, 2.0).dtype == np.complex128


def test_profile_validation():
    ones = np.ones((4, 4))
    with pytest.raises(ValueError, match="2-d"):
        InteractionProfile(Vq=np.ones(4), Jcoupling=np.ones((2, 4)))
    with pytest.raises(ValueError, match="shape"):
        InteractionProfile(Vq=ones, Jcoupling=np.ones((3, 4, 4)))
    asym = ones.copy()
    asym[1, 0] = 2.0  # V_q = V_{-q} requires [1,0] == [3,0]
    with pytest.raises(ValueError, match="V_q"):
        InteractionProfile(Vq=asym, Jcoupling=ones)
    with pytest.raises(ValueError, match="exceed 1"):
        InteractionProfile(Vq=ones, Jcoupling=1.5 * ones)


@pytest.mark.parametrize("field", ["Vq", "Jcoupling"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_rejects_non_finite(field, bad):
    # a NaN V_q used to pass the V_q = V_{-q} check (NaN compares False)
    # and then surface as a PhysicsError; a NaN coupling ran silently
    args = {"Vq": np.ones((4, 4)), "Jcoupling": np.ones((4, 4))}
    args[field][1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        InteractionProfile(**args)


def test_valley_dip_profile_zero_at_center():
    grid = BandGrid.square(6, 6, **BANDS)
    prof = valley_dip_profile(grid, 1.6, (3, 3), 0.6)
    j = prof.Jcoupling[0]
    assert j[3, 3] == 0.0
    assert np.all(np.abs(j) <= 1.0)
    # far corner of the torus sits many widths away from the dip
    assert abs(j[0, 0]) > 0.99
    with pytest.raises(ValueError, match="width"):
        valley_dip_profile(grid, 1.6, (3, 3), 0.0)


def test_phase_winding_profile_magnitude_and_phase():
    grid = BandGrid.square(6, 6, **BANDS)
    dip = valley_dip_profile(grid, 1.6, (3, 3), 0.6)
    wind = phase_winding_profile(grid, 1.6, (3, 3), (0, 0), 0.6)
    assert np.max(np.abs(np.abs(wind.Jcoupling) - np.abs(dip.Jcoupling))) \
        < 1e-12
    assert wind.Jcoupling[0][3, 3] == 0.0
    # phases must actually differ somewhere off the winding axis
    rel = wind.Jcoupling[0] / np.where(dip.Jcoupling[0] == 0, 1.0,
                                       dip.Jcoupling[0])
    assert np.max(np.abs(np.angle(rel))) > 1.0
    with pytest.raises(ValueError, match="width"):
        phase_winding_profile(grid, 1.6, (3, 3), (0, 0), -0.2)


# ------------------------------------------------------- matrix construction

def test_gamma_matrix_against_hand_built_oracle():
    """Rebuild the documented vertex entries directly on a 4-site cut."""
    grid = BandGrid.square(4, 1, **BANDS)
    vq = np.array([[0.9], [0.3], [0.7], [0.3]])  # mirror-symmetric in x
    prof = InteractionProfile(Vq=vq, Jcoupling=np.ones((4, 1)))
    omega, k, q = 5.0, (1, 0), (2, 0)
    gm = gamma_matrix(grid, prof, k, q, omega)

    n = 4
    sum_v = (vq.sum() - vq[0, 0]) / n
    ref = np.empty((n, n))
    for p in range(n):
        for pp in range(n):
            if p == pp:
                ref[p, pp] = (omega + grid.eps1[1, 0]
                              - grid.eps1[(1 + 2) % 4, 0]
                              + grid.eps1[(pp + 2) % 4, 0]
                              - grid.eps2[pp, 0] - sum_v)
            else:
                ref[p, pp] = vq[(p - pp) % 4, 0] / n
    assert gm.matrix.shape == (4, 4)
    assert np.max(np.abs(gm.matrix - ref)) < 1e-14


def test_gamma_matrix_ignores_the_couplings():
    # every shipped profile sets V_q = U and differs only in J12, which the
    # vertex does not read; gamma-scan builds the constant profile alone
    grid = BandGrid.square(6, 6, **BANDS)
    profiles = [constant_profile(grid, 1.6),
                valley_dip_profile(grid, 1.6, (3, 3), 0.6),
                phase_winding_profile(grid, 1.6, (3, 3), (0, 0), 0.6)]
    assert not np.array_equal(profiles[0].Jcoupling, profiles[2].Jcoupling)
    for k, q in (((3, 3), (0, 0)), ((2, 1), (1, 4))):
        ref = gamma_matrix(grid, profiles[0], k, q, 3.63).matrix
        for prof in profiles[1:]:
            got = gamma_matrix(grid, prof, k, q, 3.63).matrix
            assert got.tobytes() == ref.tobytes()


def test_gamma_matrix_is_symmetric(square6):
    grid, prof = square6
    gm = gamma_matrix(grid, prof, (2, 1), (1, 4), 3.63)
    assert np.max(np.abs(gm.matrix - gm.matrix.T)) < 1e-12


def test_gamma_matrix_rejects_asymmetric_input():
    m = np.eye(3)
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        GammaMatrix(matrix=m, omega=1.0)


def test_gamma_matrix_profile_shape_guard(square6):
    grid, _ = square6
    wrong = constant_profile(BandGrid.square(4, 4, **BANDS), 1.6)
    with pytest.raises(ValueError, match="does not match grid"):
        gamma_matrix(grid, wrong, (0, 0), (0, 0), 3.63)


def test_dense_cap(paper_grid):
    prof = constant_profile(paper_grid, 1.6)
    with pytest.raises(ValueError, match=str(MAX_DENSE)):
        mf_gamma_matrix(paper_grid, prof, 2.0)


def test_mf_gamma_matrix_is_zero_transfer(square6):
    grid, prof = square6
    a = mf_gamma_matrix(grid, prof, 3.63)
    b = gamma_matrix(grid, prof, (0, 0), (0, 0), 3.63)
    assert np.array_equal(a.matrix, b.matrix)


# --------------------------------------------------------- series vs inverse

def test_rpa_kernel_split_reconstructs_vertex(square6):
    grid, prof = square6
    gm = mf_gamma_matrix(grid, prof, 3.63)
    g, eta = rpa_kernel(gm)
    d = np.diag(gm.matrix)
    assert np.max(np.abs(np.diag(d) - eta - gm.matrix)) < 1e-14
    assert np.max(np.abs(g @ np.diag(d) - np.eye(gm.dim))) < 1e-14


def test_rpa_kernel_vanishing_diagonal_raises():
    m = np.diag([1.0, 0.0, 2.0])
    gm = GammaMatrix(matrix=m, omega=1.0)
    with pytest.raises(PhysicsError, match="diagonal"):
        rpa_kernel(gm)


def test_series_far_detuned(chain8):
    grid, prof = chain8
    out = series_vs_inverse(grid, prof, (0, 0), (0, 0), 10.0, n_terms=30)
    assert out["converged"]
    assert out["rho"] == pytest.approx(0.0700, abs=1e-3)
    assert out["max_dev"] < 1e-12


def test_series_moderate_detuning(chain8):
    # contraction ratio just inside the convergent window
    grid, prof = chain8
    out = series_vs_inverse(grid, prof, (0, 0), (0, 0), 3.9)
    assert out["converged"]
    assert out["rho"] == pytest.approx(0.8735, abs=1e-3)
    assert out["rho"] <= 0.9
    assert out["max_dev"] < 1e-8


def test_series_beyond_pole_flagged(chain8):
    grid, prof = chain8
    e0 = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 5.0))["energies"][0]
    out = series_vs_inverse(grid, prof, (0, 0), (0, 0), e0 + 0.01,
                            n_terms=50)
    assert not out["converged"]
    assert out["rho"] == pytest.approx(1.0318, abs=1e-3)


@pytest.mark.parametrize("n_terms", [0, 2.5])
def test_series_nterms_guard(chain8, n_terms):
    grid, prof = chain8
    with pytest.raises(ValueError, match="n_terms"):
        series_vs_inverse(grid, prof, (0, 0), (0, 0), 10.0, n_terms=n_terms)


@pytest.mark.parametrize("pole_offset", [None, 0.01])
def test_series_doubling_matches_term_by_term_sum(chain8, pole_offset):
    # rho 0.87 at omega 3.9, 1.03 just beyond the pole; the counts cover
    # no doubling, powers of two and odd counts
    grid, prof = chain8
    omega = 3.9
    if pole_offset is not None:
        e0 = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 5.0))
        omega = e0["energies"][0] + pole_offset
    g, eta = rpa_kernel(gamma_matrix(grid, prof, (0, 0), (0, 0), omega))
    kernel = g @ eta
    for n_terms in (1, 2, 3, 7, 64, 200):
        plain, term = g.copy(), g.copy()
        for _ in range(n_terms - 1):
            term = kernel @ term
            plain += term
        out = series_vs_inverse(grid, prof, (0, 0), (0, 0), omega,
                                n_terms=n_terms)
        assert np.max(np.abs(out["series"] - plain)) \
            <= 1e-13 * np.max(np.abs(plain)), n_terms


def _count_inv(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


@pytest.mark.parametrize("constant", [True, False])
def test_series_inverse_matches_dense_inverse(monkeypatch, constant):
    # a constant V_q takes the inverse from the rank-one solver, with no
    # dense inversion; any other V_q keeps the dense one
    grid = BandGrid.square(6, 6, **BANDS)
    if constant:
        prof = constant_profile(grid, 1.6)
    else:
        d = np.minimum(np.arange(6), 6 - np.arange(6)).astype(float)
        vq = 1.6 / (1.0 + 0.5 * (d[:, None] ** 2 + d[None, :] ** 2))
        prof = InteractionProfile(Vq=vq, Jcoupling=np.ones((6, 6)))
    want = np.linalg.inv(gamma_matrix(grid, prof, (1, 2), (2, 1),
                                      10.0).matrix)
    calls = _count_inv(monkeypatch)
    out = series_vs_inverse(grid, prof, (1, 2), (2, 1), 10.0, n_terms=30)
    assert calls == ([] if constant else [(36, 36)])
    assert np.max(np.abs(out["inverse"] - want)) \
        <= 1e-13 * np.max(np.abs(want))
    assert out["converged"] and out["max_dev"] < 1e-12


@pytest.mark.parametrize("u", [1.6, 1e25, -1e25])
def test_series_inverse_of_a_single_momentum_is_exact(u):
    # one momentum has no off-diagonal, so the inverse is 1/a exactly even
    # where a large U would cancel in (a - U) + U
    grid = BandGrid.square(1, 1, **BANDS)
    prof = constant_profile(grid, u)
    a = gamma_matrix(grid, prof, (0, 0), (0, 0), 10.0).matrix[0, 0]
    out = series_vs_inverse(grid, prof, (0, 0), (0, 0), 10.0)
    assert out["inverse"][0, 0] == 1.0 / a


def test_series_singular_vertex_raises(chain8):
    # the solver gives the dense inverse's singularity verdict: at a pair
    # eigenenergy the vertex has a zero eigenvalue
    grid, prof = chain8
    e = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 5.0))["energies"]
    with pytest.raises(PhysicsError, match="singular"):
        series_vs_inverse(grid, prof, (0, 0), (0, 0), e[0], n_terms=4)


def _rho_by_eigvals(grid, prof, omega):
    g, eta = rpa_kernel(gamma_matrix(grid, prof, (0, 0), (0, 0), omega))
    return float(np.max(np.abs(np.linalg.eigvals(g @ eta))))


def _count_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.mark.parametrize("omega, sign", [(3.0, -1), (10.0, 1), (None, -1)])
def test_series_rho_by_symmetric_eigensolve(chain8, monkeypatch, omega,
                                            sign):
    # a one-sign vertex diagonal takes eigvalsh of |D|^-1/2 eta |D|^-1/2:
    # rho 0.69 (negative diagonal), 0.070 (positive) and 1.03 just beyond
    # the pole (negative)
    grid, prof = chain8
    if omega is None:
        e0 = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 5.0))
        omega = e0["energies"][0] + 0.01
    d = np.diag(gamma_matrix(grid, prof, (0, 0), (0, 0), omega).matrix)
    assert np.all(np.sign(d) == sign)
    want = _rho_by_eigvals(grid, prof, omega)
    calls = _count_eigvals(monkeypatch)
    out = series_vs_inverse(grid, prof, (0, 0), (0, 0), omega, n_terms=8)
    assert calls == []
    assert out["rho"] == pytest.approx(want, rel=1e-13, abs=0.0)
    assert out["converged"] == (want < 1.0)


def test_series_rho_mixed_sign_diagonal_keeps_eigvals(chain8, monkeypatch):
    # at omega = 3.9 the diagonal runs from -0.24 to 0.56, where K can have
    # complex eigenvalues and no symmetric form
    grid, prof = chain8
    d = np.diag(gamma_matrix(grid, prof, (0, 0), (0, 0), 3.9).matrix)
    assert d.min() < 0.0 < d.max()
    want = _rho_by_eigvals(grid, prof, 3.9)
    calls = _count_eigvals(monkeypatch)
    out = series_vs_inverse(grid, prof, (0, 0), (0, 0), 3.9, n_terms=8)
    assert calls == [(8, 8)]
    assert out["rho"] == pytest.approx(want, rel=1e-13, abs=0.0)


def _scan_energies(tmp_path, n, U, k=(3, 2), q=(1, 0)):
    """eigen.csv of one gamma-scan run on the n x n grid, and its vertex."""
    grid = BandGrid.square(n, n, **BANDS)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"units = eV\nNx = {n}\nNy = {n}\n"
                   + "".join(f"{key} = {v!r}\n" for key, v in BANDS.items())
                   + f"omega = 3.63\nU_coulomb = {U!r}\nkx_index = {k[0]}\n"
                   f"ky_index = {k[1]}\nqx_index = {q[0]}\n"
                   f"qy_index = {q[1]}\n")
    assert main(["gamma-scan", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "eigen.csv").read_text().splitlines()[1:]
    got = np.array([float(r.split(",")[1]) for r in rows])
    return got, gamma_matrix(grid, constant_profile(grid, U), k, q, 3.63)


def test_gamma_scan_energies_match_eigen_sign_analysis(tmp_path):
    # the CLI takes eigenvalues only; the energies and their order must be
    # those eigen_sign_analysis gives with its eigenvectors
    got, gm = _scan_energies(tmp_path, 6, 1.6)
    want = eigen_sign_analysis(gm)["energies"]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_gamma_scan_energies_match_eigen_sign_analysis_16x16(tmp_path):
    # 256 momenta, where the vertex diagonal has both exact ties and
    # distinct values, as on the benchmark's 32 x 32 grid
    got, gm = _scan_energies(tmp_path, 16, 1.6, k=(5, 11), q=(2, 7))
    want = eigen_sign_analysis(gm)["energies"]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("U", [0.0, 1e-300, -1e-300, 1.6, -1.6, 1e25, -1e25,
                               1e300, -1e300])
@pytest.mark.parametrize("n", [1, 6])
def test_gamma_scan_energies_at_any_coulomb_strength(tmp_path, n, U):
    # the secular equation deflates what a tiny or huge U makes degenerate;
    # every U the config accepts ends in exit 0 with eigvalsh's energies,
    # also for a single momentum, whose vertex has no off-diagonal
    got, gm = _scan_energies(tmp_path, n, U)
    want = gm.omega - np.linalg.eigvalsh(gm.matrix)[::-1]
    assert np.all(np.isfinite(got))
    scale = max(1.0, float(np.linalg.norm(gm.matrix, 2)))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_secular_pair_spectrum_refuses_a_q_dependent_vq():
    # the secular equation holds only for diag(D) + c 11^T; with this V_q
    # its roots miss eigvalsh of the vertex by 0.90
    grid = BandGrid.square(6, 6, **BANDS)
    d = np.minimum(np.arange(6), 6 - np.arange(6)).astype(float)
    vq = 1.6 / (1.0 + 0.5 * (d[:, None] ** 2 + d[None, :] ** 2))
    prof = InteractionProfile(Vq=vq, Jcoupling=np.ones((6, 6)))
    with pytest.raises(ValueError, match="needs a constant V_q"):
        _rank_one_vertex_eigvalsh(grid, prof, (1, 2), (2, 1), 3.63)


# ------------------------------------------------------------- bound states

def test_pair_spectrum_dispersive(square6):
    grid, prof = square6
    out = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 3.63))
    e = out["energies"]
    assert np.all(np.diff(e) >= -1e-12)
    # one bound state split below the pair continuum edge
    assert e[0] == pytest.approx(3.5985011534616254, abs=1e-10)
    assert e[1] == pytest.approx(4.52396321, abs=1e-6)
    np.testing.assert_allclose(e[2:5], 4.7, atol=1e-9)
    assert out["negative_count"] == 0
    # energies are an omega-independent property of the pair problem
    e2 = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 2.0))["energies"]
    assert np.max(np.abs(e - e2)) < 1e-12


def test_pair_eigenvector_completeness(square6):
    grid, prof = square6
    v = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 3.63))["vectors"]
    assert np.max(np.abs(v @ v.T - np.eye(v.shape[0]))) < 1e-10


def test_inverse_element_flips_sign_across_bound_state(square6):
    grid, prof = square6
    e0 = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 3.63))["energies"][0]
    lo = _checked_inverse(mf_gamma_matrix(grid, prof, e0 - 0.01).matrix)
    hi = _checked_inverse(mf_gamma_matrix(grid, prof, e0 + 0.01).matrix)
    p = 3 * 6 + 3  # zone-center flat index on the 6x6 grid
    assert lo[p, p] == pytest.approx(-9.155069953307306, abs=1e-6)
    assert hi[p, p] == pytest.approx(7.181912636527026, abs=1e-6)
    assert lo[p, p] * hi[p, p] < 0


def test_single_pole_dominates_near_bound_state(chain8):
    """Just below the lowest pair energy the inverse is one rank-1 pole."""
    grid, prof = chain8
    out = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 5.0))
    e0, e1 = out["energies"][:2]
    assert e0 == pytest.approx(3.159509024240907, abs=1e-10)
    gap = e1 - e0
    assert gap == pytest.approx(0.28594879478000657, abs=1e-9)
    weight = out["vectors"][:, 0] ** 2
    p = int(np.argmax(weight))
    assert p == 4
    assert weight[p] == pytest.approx(0.4209861134520752, abs=1e-9)
    window = np.linspace(e0 - 0.005 * gap, e0 - 0.0005 * gap, 9)
    elt = np.array([
        _checked_inverse(mf_gamma_matrix(grid, prof, w).matrix)[p, p]
        for w in window
    ])
    # least-squares residue of a single pole c/(w - e0)
    c = np.sum(elt / (window - e0)) / np.sum(1.0 / (window - e0) ** 2)
    resid = np.max(np.abs(elt - c / (window - e0)) / np.abs(elt))
    assert resid < 0.01


# --------------------------------------------------- screened denominators

@pytest.mark.parametrize("n", [16, 32])
def test_screened_denominator_matches_single_mode_at_equal_u(n):
    # with U11 == U12 the rank-1 coupling shift cancels and the full
    # vertex inversion collapses onto the scalar screened detuning
    grid = BandGrid.square(n, n, eps21=3.7, t1=0.05, t2=-0.15,
                           U11=0.8, U12=0.8)
    prof = constant_profile(grid, 0.8)
    dkf = mf_screened_denominator(grid, prof, 2.0)
    assert dkf.shape == (2, n, n)
    assert dkf.dtype == np.float64
    assert np.array_equal(dkf[0], dkf[1])
    gap = np.max(np.abs(dkf[0] + screened_detuning(grid, 2.0)))
    assert gap < 1e-12


def test_screened_denominator_refuses_a_vanishing_screening_sum():
    # couplings J = Gamma v, with v zero at one momentum, make the pair
    # screening sum Gamma^-1 J vanish there, so 1/Delta has no inverse
    grid = BandGrid.square(4, 4, **BANDS)
    prof = constant_profile(grid, 1.6)
    v = np.ones(16)
    v[5] = 0.0
    j = mf_gamma_matrix(grid, prof, 2.0).matrix @ v
    prof = InteractionProfile(Vq=prof.Vq,
                              Jcoupling=(j / np.max(np.abs(j))).reshape(4, 4))
    with pytest.raises(PhysicsError, match="pair screening sum vanishes"):
        mf_screened_denominator(grid, prof, 2.0)


def test_screened_denominator_flat_band(flat8):
    grid, prof = flat8
    dkf = mf_screened_denominator(grid, prof, 2.1)
    # flat bands: A = 3.0 + 0.7 - 2.1 = 1.6, S = 0.7/1.6, Delta = 0.9
    assert np.max(np.abs(dkf + 0.9)) < 1e-12


# ------------------------------------------------- induced pair interactions

def test_scattering_vanishes_on_flat_band(flat8):
    grid, prof = flat8
    v = scattering_strength(grid, prof, 0.05, 2.1, (2, 5), (1, 3), (0, 0))
    assert v == 0.0


def test_scattering_resonance_guard(square6):
    grid, prof = square6
    # 4.5 hits the interband transition at the zone corner exactly
    with pytest.raises(PhysicsError, match=r"grid point \(0, 0\); the drive "
                                            "is resonant"):
        scattering_strength(grid, prof, 0.02, 4.5, (3, 3), (3, 3), (0, 0))


@pytest.mark.parametrize("batched", [
    lambda grid, prof: interaction_weight(grid, prof, 0.02, 4.5, (3, 3),
                                          (1, 2), (0, 0)),
    lambda grid, prof: coulomb_mix_selfenergy(grid, prof, 0.02, 4.5, (2, 1)),
], ids=["interaction_weight", "coulomb_mix_selfenergy"])
def test_batched_scattering_resonance_guard(square6, batched):
    # the batched amplitudes refuse the same zone-corner transition
    grid, prof = square6
    with pytest.raises(PhysicsError, match=r"grid point \(0, 0\); the drive "
                                            "is resonant"):
        batched(grid, prof)


def test_interaction_weight_exchange_symmetry():
    grid = BandGrid.square(6, 6, **BANDS)
    prof = phase_winding_profile(grid, 1.6, (3, 3), (0, 0), 0.6)
    w_fwd = interaction_weight(grid, prof, 0.02, 3.63, (1, 2), (4, 5), (2, 1))
    w_rev = interaction_weight(grid, prof, 0.02, 3.63, (4, 5), (1, 2), (2, 1))
    assert w_fwd == pytest.approx(np.conj(w_rev), abs=1e-14)


def test_cavity_global_matches_forward_on_flat_band(flat8):
    """Unit couplings on flat bands reduce the vertex sums to one mode."""
    grid, prof = flat8
    cav = CavitySpec(g=0.03, gc0=0.08, delta_c=0.2)
    full = cavity_global_interaction(grid, prof, cav, 2.1, (2, 5), (1, 3))
    ref = -(cav.g * cav.gc0) ** 2 / (64 * cav.delta_c * 0.9 ** 2)
    assert full == pytest.approx(ref, rel=1e-12)


def test_winding_suppresses_coulomb_mixing():
    """Vanishing local coupling still mixes; a phase winding cancels it."""
    grid = BandGrid.square(6, 6, **BANDS)
    dip = valley_dip_profile(grid, 1.6, (3, 3), 0.6)
    wind = phase_winding_profile(grid, 1.6, (3, 3), (0, 0), 0.6)
    assert dip.Jcoupling[0][3, 3] == 0.0
    assert wind.Jcoupling[0][3, 3] == 0.0

    # the local Stark-like term carries a factor J_K and drops exactly
    kterm = scattering_strength(grid, dip, 0.02, 3.63, (3, 3), (3, 3), (0, 0))
    assert (kterm * np.conj(dip.Jcoupling[0][3, 3])).real == 0.0

    plain = coulomb_mix_selfenergy(grid, dip, 0.02, 3.63, (3, 3))
    wound = coulomb_mix_selfenergy(grid, wind, 0.02, 3.63, (3, 3))
    assert plain == pytest.approx(0.014451775782933668, abs=1e-12)
    assert wound == pytest.approx(-0.0022360585554700124, abs=1e-12)
    assert abs(plain) > 0
    assert abs(wound) < abs(plain)
    assert abs(wound) / abs(plain) == pytest.approx(0.15472552225108624,
                                                    abs=1e-9)


def test_drive_amplitude_beyond_energy_cap_raises(square6):
    # g ** 2 used to escape as OverflowError at g = 1e200
    grid, prof = square6
    args = (grid, prof, 1e200, 3.63)
    with pytest.raises(ValueError, match="g must be finite"):
        scattering_strength(*args, (1, 2), (4, 5), (2, 1))
    with pytest.raises(ValueError, match="g must be finite"):
        interaction_weight(*args, (1, 2), (4, 5), (2, 1))
    with pytest.raises(ValueError, match="g must be finite"):
        coulomb_mix_selfenergy(*args, (3, 3))


def test_spin_labels_validated(square6):
    grid, prof = square6
    cav = CavitySpec(g=0.03, gc0=0.08, delta_c=0.2)
    args = (grid, prof, 0.02, 3.63, (1, 2), (4, 5), (2, 1))
    for bad in (-1, 2, 0.0):
        with pytest.raises(ValueError, match="spin"):
            scattering_strength(*args, s=bad)
        with pytest.raises(ValueError, match="spin"):
            interaction_weight(*args, s=bad)
        with pytest.raises(ValueError, match="spin"):
            cavity_global_interaction(grid, prof, cav, 3.63, (1, 2), (4, 5),
                                      s=bad)
        with pytest.raises(ValueError, match="spin"):
            cavity_global_interaction(grid, prof, cav, 3.63, (1, 2), (4, 5),
                                      sp=bad)
    # both labels of a spin-resolved profile are legal
    assert cavity_global_interaction(grid, prof, cav, 3.63, (1, 2), (4, 5),
                                     s=1, sp=1) != 0.0


# ------------------------------------------------ vertex solves, rank-one path

def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / np.max(np.abs(np.asarray(b))))


def _profiles(grid):
    n = grid.kx.size
    return {
        "constant": constant_profile(grid, 1.6),
        "valley-dip": valley_dip_profile(grid, 1.6, (n // 2, n // 3), 0.6),
        "phase-winding": phase_winding_profile(grid, 1.6, (n // 2, n // 3),
                                               (1, n - 2), 0.6),
    }


@pytest.fixture(scope="module")
def square16():
    return BandGrid.square(16, 16, **BANDS)


@pytest.mark.parametrize("kind, omega_se", [("constant", 1.8),
                                            ("valley-dip", 2.1),
                                            ("phase-winding", 2.4)])
def test_solves_match_dense_oracle(square16, kind, omega_se):
    """Every solve-based function against the independent dense inverse."""
    grid = square16
    prof = _profiles(grid)[kind]
    data = (grid.eps1, grid.eps2, prof.Vq, prof.Jcoupling)
    cav = CavitySpec(g=0.03, gc0=0.08, delta_c=0.2)
    k, k1, q = (1, 2), (14, 3), (2, 15)
    for omega in (1.8, 2.1, 2.4):
        assert _rel(mf_screened_denominator(grid, prof, omega),
                    dense_vertex.mf_denominator(*data, omega)) < 1e-12
        assert _rel(scattering_strength(grid, prof, 0.02, omega, k, k1, q,
                                        s=1),
                    dense_vertex.scattering(*data, 0.02, omega, k, k1, q,
                                            s=1)) < 1e-12
        assert _rel(interaction_weight(grid, prof, 0.02, omega, k, k1, q),
                    dense_vertex.weight(*data, 0.02, omega, k, k1, q)) \
            < 1e-12
        assert _rel(cavity_global_interaction(grid, prof, cav, omega, (2, 3),
                                              (15, 1), s=1, sp=0),
                    dense_vertex.cavity_global(*data, cav.g, cav.gc0,
                                               cav.delta_c, omega, (2, 3),
                                               (15, 1), s=1, sp=0)) < 1e-12
    assert _rel(coulomb_mix_selfenergy(grid, prof, 0.02, omega_se, (8, 5)),
                dense_vertex.selfenergy(*data, 0.02, omega_se, (8, 5))) \
        < 1e-12


def test_non_constant_vq_keeps_dense_path():
    """A q-dependent V_q reads the dense inverse exactly as it always did."""
    grid = BandGrid.square(6, 6, **BANDS)
    d = np.minimum(np.arange(6), 6 - np.arange(6)).astype(float)
    vq = 1.6 / (1.0 + 0.5 * (d[:, None] ** 2 + d[None, :] ** 2))
    wind = phase_winding_profile(grid, 1.6, (3, 3), (0, 0), 0.6)
    prof = InteractionProfile(Vq=vq, Jcoupling=wind.Jcoupling)
    omega = 2.1
    inv0 = _checked_inverse(mf_gamma_matrix(grid, prof, omega).matrix)
    invk = _checked_inverse(gamma_matrix(grid, prof, (1, 2), (2, 1),
                                         omega).matrix)
    # the dense reads, written out bit for bit
    den = np.stack([1.0 / (prof.Jcoupling[s].ravel() @ inv0)
                    for s in (0, 1)])
    assert np.array_equal(mf_screened_denominator(grid, prof, omega),
                          den.reshape(2, 6, 6))
    ratio = prof.Jcoupling[0].ravel() / (omega + (grid.eps1
                                                  - grid.eps2).ravel())
    vrow = vq[(np.arange(6)[:, None] - 1) % 6,
              (np.arange(6)[None, :] - 2) % 6].ravel()
    ref = complex(0.02 ** 2 * np.sum((ratio - ratio[8]) * vrow / 36
                                     * invk[:, 4 * 6 + 5]))
    assert scattering_strength(grid, prof, 0.02, omega, (1, 2), (4, 5),
                               (2, 1)) == ref
    cav = CavitySpec(g=0.03, gc0=0.08, delta_c=0.2)
    j = prof.Jcoupling[0].ravel()
    ref = -(cav.g ** 2 * cav.gc0 ** 2 / (36 * cav.delta_c)) \
        * (complex(inv0[:, 17] @ j) * np.conj(j[7])).real \
        * float(np.sum(inv0[:, 7]))
    assert cavity_global_interaction(grid, prof, cav, omega, (2, 5),
                                     (1, 1)) == ref
    # and the dense path is still the documented vertex
    data = (grid.eps1, grid.eps2, vq, prof.Jcoupling)
    assert _rel(coulomb_mix_selfenergy(grid, prof, 0.02, omega, (3, 3)),
                dense_vertex.selfenergy(*data, 0.02, omega, (3, 3))) < 1e-12


def _verdict(fn):
    try:
        fn()
    except PhysicsError:
        return False
    return True


@pytest.mark.parametrize("k, q", [((0, 0), (0, 0)), ((2, 1), (1, 4))])
def test_bound_state_scan_verdicts_agree(square6, k, q):
    grid, prof = square6
    e0 = eigen_sign_analysis(gamma_matrix(grid, prof, k, q,
                                          3.63))["energies"][0]
    detunings = np.logspace(-16, -1, 200)
    dense, solved = [], []
    for omega in np.concatenate([e0 - detunings, e0 + detunings]):
        dense.append(_verdict(lambda: _checked_inverse(
            gamma_matrix(grid, prof, k, q, omega).matrix)))
        solved.append(_verdict(lambda: _vertex_solver(grid, prof, k, q,
                                                      omega)))
    assert dense == solved
    # the scan crosses the verdict threshold on both sides of the pole
    assert 0 < sum(dense) < len(dense)


def test_selfenergy_verdicts_match_single_pair_loop(square6):
    """The batched self-energy refuses exactly where one of its pairs does."""
    grid, prof = square6
    K = (2, 1)
    pairs = [((ix, iy), ((K[0] - ix) % 6, (K[1] - iy) % 6))
             for ix in range(6) for iy in range(6)]
    k0, q0 = pairs[22]
    e0 = eigen_sign_analysis(gamma_matrix(grid, prof, k0, q0,
                                          3.63))["energies"][0]
    detunings = np.logspace(-16, -1, 60)
    loop, dense, batched = [], [], []
    for omega in np.concatenate([e0 - detunings, e0 + detunings]):
        loop.append(all(_verdict(lambda: _vertex_solver(grid, prof, k, q,
                                                        omega))
                        for k, q in pairs))
        dense.append(all(_verdict(lambda: _checked_inverse(
            gamma_matrix(grid, prof, k, q, omega).matrix)) for k, q in pairs))
        batched.append(_verdict(lambda: coulomb_mix_selfenergy(
            grid, prof, 0.02, omega, K)))
    assert batched == loop == dense
    assert 0 < sum(batched) < len(batched)


@pytest.mark.parametrize("kind", ["constant", "phase-winding"])
def test_chunked_selfenergy_matches_per_pair_loop(kind, monkeypatch):
    """At 48^2 the self-energy runs in several chunks, the last partial."""
    grid = BandGrid.square(48, 48, **BANDS)
    prof = _profiles(grid)[kind]
    n = 48 * 48
    batches = []

    def spy(grid, prof, k, q, omega):
        batches.append(len(k))
        return solver(grid, prof, k, q, omega)

    solver = gamma._vertex_solver
    monkeypatch.setattr(gamma, "_vertex_solver", spy)
    batched = coulomb_mix_selfenergy(grid, prof, 0.02, 2.4, (30, 7))
    rows = VERTEX_CHUNK // n
    assert batches == [rows] * (n // rows) + [n % rows] and n % rows
    monkeypatch.undo()
    loop = 0.0
    for ix in range(48):
        for iy in range(48):
            q = ((30 - ix) % 48, (7 - iy) % 48)
            v = scattering_strength(grid, prof, 0.02, 2.4, (ix, iy), (ix, iy),
                                    q)
            loop += (v * np.conj(prof.Jcoupling[0, ix, iy])).real
    assert abs(batched - loop) <= 1e-13 * abs(loop)


def test_solve_residual_near_pole(square6):
    """At cond ~ 2.5e12 the rank-one inverse is as accurate as LU's."""
    grid, prof = square6
    e0 = eigen_sign_analysis(mf_gamma_matrix(grid, prof, 3.63))["energies"][0]
    m = mf_gamma_matrix(grid, prof, e0 - 1e-12).matrix
    assert np.linalg.cond(m) > 1e12
    solve = _vertex_solver(grid, prof, (0, 0), (0, 0), e0 - 1e-12)
    x = np.column_stack([solve(p) for p in range(36)])

    def residual(x):
        return np.linalg.norm(m @ x - np.eye(36), 2) \
            / (np.linalg.norm(m, 2) * np.linalg.norm(x, 2))

    assert residual(x) < 1e-15
    assert residual(x) < 10 * residual(np.linalg.inv(m))


def _staircase(eps2):
    """A 1-d grid with flat band 1 and chosen band-2 energies (exact floats)."""
    n = len(eps2)
    return BandGrid(kx=np.arange(n), ky=np.zeros(1), eps1=np.zeros((n, 1)),
                    eps2=np.array(eps2, dtype=float)[:, None],
                    occ=np.zeros((n, 1)), U11=0.0, U12=0.0)


def test_exact_zero_of_rank_one_diagonal():
    # U = 1 on 4 momenta: c = 1/4, Hartree 3/4, so D = 3 - eps2 - 1 exactly
    grid = _staircase([1.0, 2.0, 3.0, 4.0])
    prof = constant_profile(grid, 1.0)
    d = _vertex_diagonal(grid, prof, (0, 0), (0, 0), 3.0).ravel() - 0.25
    assert list(d) == [1.0, 0.0, -1.0, -2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve = _vertex_solver(grid, prof, (0, 0), (0, 0), 3.0)
        x = np.column_stack([solve(p) for p in range(4)])
        b = np.array([0.3, -1.0, 2.0, 0.5 + 1j])
        xb = solve(b)
    inv = _checked_inverse(mf_gamma_matrix(grid, prof, 3.0).matrix)
    assert np.max(np.abs(x - inv)) < 1e-14
    assert np.max(np.abs(xb - inv @ b)) < 1e-14

    # two exact zeros make two equal rows: singular on both paths
    grid = _staircase([1.0, 2.0, 2.0, 4.0])
    prof = constant_profile(grid, 1.0)
    with pytest.raises(PhysicsError, match="singular"):
        _vertex_solver(grid, prof, (0, 0), (0, 0), 3.0)
    with pytest.raises(PhysicsError, match="singular"):
        _checked_inverse(mf_gamma_matrix(grid, prof, 3.0).matrix)


def test_solve_paths_run_on_paper_grid(paper_grid):
    """64^2 = 4096 momenta, four times the dense cap, in well under 1 s."""
    prof = constant_profile(paper_grid, 1.6)
    cav = CavitySpec(g=0.03, gc0=0.08, delta_c=0.2)
    t0 = time.process_time()
    den = mf_screened_denominator(paper_grid, prof, 2.0)
    glob = cavity_global_interaction(paper_grid, prof, cav, 2.0, (3, 5),
                                     (40, 60))
    w = interaction_weight(paper_grid, prof, 0.02, 2.0, (1, 2), (50, 7),
                           (9, 33))
    assert time.process_time() - t0 < 1.0
    assert den.shape == (2, 64, 64) and np.all(np.isfinite(den))
    assert np.isfinite(glob) and np.isfinite(w)
    # N^2 = 16.8 million pair entries, in chunks of VERTEX_CHUNK
    assert np.isfinite(coulomb_mix_selfenergy(paper_grid, prof, 0.02, 2.0,
                                              (3, 5)))
    with pytest.raises(ValueError, match=str(MAX_DENSE)):
        gamma_matrix(paper_grid, prof, (1, 2), (9, 33), 2.0)
