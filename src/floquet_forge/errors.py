"""Error taxonomy.

ConfigError maps to CLI exit code 1, PhysicsError subclasses to exit code 2.
"""

__all__ = [
    "FloquetForgeError",
    "ConfigError",
    "PhysicsError",
    "ResonantDenominator",
    "BandResonance",
    "NoExciton",
    "PropagationError",
]


class FloquetForgeError(Exception):
    """Base class for package errors."""


class ConfigError(FloquetForgeError):
    """Invalid scenario configuration (unknown/missing keys, bad values)."""


class PhysicsError(FloquetForgeError):
    """Parameter regime where the requested quantity is undefined."""


class ResonantDenominator(PhysicsError):
    """A Sylvester/perturbative denominator vanishes: the drive is resonant."""


class BandResonance(PhysicsError):
    """Drive resonant with an interband transition or exciton pole."""


class NoExciton(PhysicsError):
    """No exciton root inside the search bracket (interaction too weak)."""


class PropagationError(PhysicsError):
    """Krylov exponential failed to converge within its subspace limit."""
