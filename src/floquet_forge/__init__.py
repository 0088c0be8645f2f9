"""Floquet Schrieffer-Wolff transforms for driven lattice models.

Effective Hamiltonians of the driven Hubbard chain with exact-propagation
benchmarks, and screened drive-induced interactions of a two-band
cavity-coupled model on momentum grids.

Importing the package loads no layer.  ``floquet_forge.<name>`` finds
``name`` in the layers' own ``__all__``, importing them in the order of
``_SUBMODULES`` until one declares it, so a lookup loads only its own
layer and the cheaper ones before it.
"""

# Deterministic linear algebra: pin BLAS threading before numpy ever loads.
import os as _os

_BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _v in _BLAS_PINS:
    _os.environ.setdefault(_v, "1")

import importlib as _importlib

__version__ = "0.1.0"

# cheapest first: errors and cli import no numpy, kspace and gamma numpy
# alone, and fock and every layer after it scipy
_SUBMODULES = ("errors", "cli", "kspace", "gamma", "fock", "kernels",
               "sylvester", "fswt", "dynamics")

__all__ = ["__version__", *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    for sub in _SUBMODULES:
        module = _importlib.import_module(f".{sub}", __name__)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*__all__, *(name for sub in _SUBMODULES
                               for name in __getattr__(sub).__all__)})
