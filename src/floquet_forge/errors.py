"""Error taxonomy, and the energy cap every parameter check shares.

ConfigError and ValueError map to CLI exit code 1, PhysicsError subclasses
to exit code 2.
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
    """Propagation failed: a non-finite state, a non-finite Lanczos
    recurrence, or a Lanczos exponential that did not converge."""


# largest |energy|, and inverse of the smallest frequency, cavity detuning
# or broadening, that is accepted.  Products up to g^4 J / omega^4 and the
# squares in the band and absorbance formulas stay inside the float range;
# beyond it they overflow, or a square underflows to a zero divisor
ENERGY_MAX = 1e30


def check_energy(name, value, positive=False):
    """Raise ValueError unless value lies in [-ENERGY_MAX, ENERGY_MAX], or in
    [1/ENERGY_MAX, ENERGY_MAX] when ``positive``; NaN never does."""
    low = 1.0 / ENERGY_MAX if positive else -ENERGY_MAX
    if not low <= value <= ENERGY_MAX:
        raise ValueError(f"{name} must be finite and in [{low:g}, "
                         f"{ENERGY_MAX:g}], got {value}")
