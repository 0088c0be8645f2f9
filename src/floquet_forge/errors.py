"""Error taxonomy, and the energy cap every parameter check shares.

ValueError, the type of every configuration and parameter refusal, maps to
CLI exit code 1, PhysicsError to exit code 2.
"""

__all__ = ["PhysicsError"]


class PhysicsError(Exception):
    """Parameter regime where the requested quantity is undefined: a
    resonant Sylvester denominator, a drive on an interband transition or
    pair pole, no exciton root, or a failed propagation."""


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
