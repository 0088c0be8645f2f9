"""Floquet Schrieffer-Wolff transforms for driven lattice models.

Effective Hamiltonians of the driven Hubbard chain with exact-propagation
benchmarks, and screened drive-induced interactions of a two-band
cavity-coupled model on momentum grids.
"""

# Deterministic linear algebra: pin BLAS threading before numpy ever loads.
import os as _os

_BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _v in _BLAS_PINS:
    _os.environ.setdefault(_v, "1")

import importlib as _importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "fock", "kernels", "sylvester", "fswt", "dynamics",
               "kspace", "gamma", "cli")

# name -> submodule, the union of the submodules' __all__ (a test keeps the
# two equal); names resolve lazily so that importing the package stays cheap
_EXPORTS = {
    # errors
    "FloquetForgeError": "errors", "ConfigError": "errors",
    "PhysicsError": "errors", "ResonantDenominator": "errors",
    "BandResonance": "errors", "NoExciton": "errors",
    "PropagationError": "errors",
    # fock
    "HubbardParams": "fock", "TwoBandChainParams": "fock",
    "SectorBasis": "fock", "build_sector_basis": "fock",
    "SparseOperator": "fock", "TermSum": "fock", "commutator": "fock",
    "build_hubbard_operators": "fock", "build_two_band_chain": "fock",
    "hubbard_terms": "fock", "two_band_terms": "fock",
    "total_number_terms": "fock", "total_sz_terms": "fock",
    # kernels
    "HamiltonianAction": "kernels", "lanczos_expm_multiply": "kernels",
    # sylvester
    "HopExpansionCoeffs": "sylvester", "sylvester_residual": "sylvester",
    "hubbard_micromotion": "sylvester",
    "hubbard_micromotion_terms": "sylvester",
    # fswt
    "DrivenChain": "fswt", "hubbard_harmonics": "fswt", "floquet_h2": "fswt",
    "floquet_h2_terms": "fswt", "floquet_h4": "fswt",
    "floquet_h4_terms_j1": "fswt", "hfe_h": "fswt", "spin_exchange": "fswt",
    "strong_drive_harmonics": "fswt",
    # dynamics
    "Trajectory": "dynamics", "cdw_state": "dynamics",
    "evolve_exact": "dynamics", "evolve_static": "dynamics",
    "return_rate": "dynamics", "nrmse": "dynamics",
    "return_rate_benchmark": "dynamics", "dipole_excitations": "dynamics",
    "absorbance_ed": "dynamics",
    # kspace
    "BandGrid": "kspace", "CavitySpec": "kspace", "bare_detuning": "kspace",
    "screened_detuning": "kspace", "bs_detuning": "kspace",
    "exciton_frequency": "kspace", "t_matrix": "kspace",
    "floquet_band": "kspace", "stark_bs_ratio": "kspace",
    "cavity_forward_interaction": "kspace", "pomeranchuk_check": "kspace",
    # gamma
    "InteractionProfile": "gamma", "constant_profile": "gamma",
    "valley_dip_profile": "gamma", "phase_winding_profile": "gamma",
    "GammaMatrix": "gamma", "gamma_matrix": "gamma",
    "mf_gamma_matrix": "gamma", "rpa_kernel": "gamma",
    "series_vs_inverse": "gamma", "eigen_sign_analysis": "gamma",
    "mf_screened_denominator": "gamma", "scattering_strength": "gamma",
    "interaction_weight": "gamma", "cavity_global_interaction": "gamma",
    "coulomb_mix_selfenergy": "gamma",
    # cli
    "main": "cli", "parse_config": "cli",
}

__all__ = ["__version__"] + list(_SUBMODULES) + sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = _importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
