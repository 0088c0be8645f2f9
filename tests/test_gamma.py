"""Vertex-matrix construction, RPA series, bound states, induced couplings.

Pinned numbers come from the dense oracles in tests/oracles and from
frozen runs of the module itself at commit time; they guard against
silent regressions in the vertex conventions (index wrapping, 1/N
normalization, Hartree-style diagonal subtraction).
"""

import numpy as np
import pytest

from floquet_forge import BandGrid, CavitySpec
from floquet_forge.errors import BandResonance
from floquet_forge.gamma import (
    MAX_DENSE,
    GammaMatrix,
    InteractionProfile,
    _checked_inverse,
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
from floquet_forge.kspace import cavity_forward_interaction, screened_detuning

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
    assert gm.k == (1, 0) and gm.q == (2, 0)


def test_gamma_matrix_is_symmetric(square6):
    grid, prof = square6
    gm = gamma_matrix(grid, prof, (2, 1), (1, 4), 3.63)
    assert np.max(np.abs(gm.matrix - gm.matrix.T)) < 1e-12


def test_gamma_matrix_rejects_asymmetric_input():
    m = np.eye(3)
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        GammaMatrix(matrix=m, omega=1.0, k=(0, 0), q=(0, 0),
                    grid_shape=(3, 1))


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
    gm = GammaMatrix(matrix=m, omega=1.0, k=(0, 0), q=(0, 0),
                     grid_shape=(3, 1))
    with pytest.raises(BandResonance, match="diagonal"):
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


def test_series_nterms_guard(chain8):
    grid, prof = chain8
    with pytest.raises(ValueError, match="n_terms"):
        series_vs_inverse(grid, prof, (0, 0), (0, 0), 10.0, n_terms=0)


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
    with pytest.raises(BandResonance, match="resonant"):
        scattering_strength(grid, prof, 0.02, 4.5, (3, 3), (3, 3), (0, 0))


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
    fwd = cavity_forward_interaction(grid, cav, 2.1, (2, 5), (1, 3))
    assert full == pytest.approx(fwd, rel=1e-12)
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
