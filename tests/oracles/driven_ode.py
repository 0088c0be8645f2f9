"""Independent ODE oracle for the exact propagation of the driven chain.

Integrates i d/dt psi = (H0 + 2 cos(omega t) D) psi on dense arrays with
scipy's DOP853 Runge-Kutta at rtol = atol = 1e-12.  Nothing here calls the
package, so its Krylov time stepping is checked against a general-purpose
integrator that shares no part of its derivation.
"""

import numpy as np
from scipy.integrate import solve_ivp


def propagate(h0, drive, omega, psi0, times):
    """States psi(t) at each of ``times`` (ascending, from 0), shape (nt, dim)."""
    h0 = np.asarray(h0, dtype=np.complex128)
    d = np.asarray(drive, dtype=np.complex128)

    def rhs(t, psi):
        return -1j * ((h0 + 2.0 * np.cos(omega * t) * d) @ psi)

    sol = solve_ivp(rhs, (times[0], times[-1]),
                    np.asarray(psi0, dtype=np.complex128), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y.T
