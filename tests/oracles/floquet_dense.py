"""Dense CFM4 propagation of the driven chain, and its one-period propagator.

H(t) = H0 + 2 cos(omega t) D with D real diagonal.  In the co-moving frame
psi' = exp(i Phi(t) D) psi, Phi(t) = (2/omega) sin(omega t), the drive
cancels and H'(t) = exp(i Phi D) H0 exp(-i Phi D).  One fourth-order
commutator-free step of length h from t (CFM4:2; Blanes & Moan, Appl.
Numer. Math. 56, 1519 (2006)) is

    exp(-i h (a1 H'(t1) + a2 H'(t2))) exp(-i h (a2 H'(t1) + a1 H'(t2))),

with t1,2 = t + (1/2 -+ sqrt(3)/6) h and a1,2 = 1/4 -+ sqrt(3)/6, and
each exponential here is scipy's dense ``expm``.  Phi vanishes at t = 0
and at whole periods, where the two frames agree.  Nothing here calls the
package, so a propagator that takes the same steps with another
exponential is checked against exponentials to roundoff.
"""

import numpy as np
from scipy.linalg import expm

A1, A2 = 0.25 - np.sqrt(3.0) / 6.0, 0.25 + np.sqrt(3.0) / 6.0
C1, C2 = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0


def comoving(h0, drive, omega, t):
    """H'(t) = exp(i Phi(t) D) H0 exp(-i Phi(t) D), ``drive`` D's diagonal."""
    phase = (2.0 / omega) * np.sin(omega * t)
    d = np.asarray(drive, dtype=float)
    return np.asarray(h0) * np.exp(1j * phase * (d[:, None] - d[None, :]))


def cfm4_step(h0, drive, omega, t, h):
    """The co-moving propagator of one CFM4:2 step of length h from t."""
    h1 = comoving(h0, drive, omega, t + C1 * h)
    h2 = comoving(h0, drive, omega, t + C2 * h)
    return expm(-1j * h * (A1 * h1 + A2 * h2)) @ expm(
        -1j * h * (A2 * h1 + A1 * h2))


def period_propagator(h0, drive, omega, steps):
    """U(T), T = 2 pi / omega, from ``steps`` equal CFM4 steps from t = 0.

    The co-moving and lab frames agree at 0 and T, so this is the lab-frame
    one-period propagator; psi(mT) = U^m psi(0).
    """
    h = 2.0 * np.pi / omega / steps
    U = np.eye(np.shape(h0)[0], dtype=np.complex128)
    for j in range(steps):
        U = cfm4_step(h0, drive, omega, j * h, h) @ U
    return U
