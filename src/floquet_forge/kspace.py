"""Screened detunings and drive-induced bands of the two-band model.

Everything here lives on a Brillouin-zone grid: Hartree-shifted detunings,
their interaction screening, the bound-state (exciton) frequency, the
drive-dressed lower band, and the Pomeranchuk instability criterion of the
cavity-mediated forward interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ENERGY_MAX, PhysicsError, check_energy

__all__ = [
    "BandGrid",
    "CavitySpec",
    "bare_detuning",
    "screened_detuning",
    "bs_detuning",
    "exciton_frequency",
    "t_matrix",
    "floquet_band",
    "pomeranchuk_check",
]

RES_ATOL = 1e-9
# most momenta BandGrid.square builds: four times perfbench's 512^2 exciton
# grid, the largest one run anywhere.  kspace-map, the heaviest scenario
# at about 150 B per point, peaks near 180 MB of resident memory at the cap
MAX_GRID_POINTS = 2 ** 20


@dataclass(frozen=True)
class BandGrid:
    """Two-band dispersions sampled on a rectangular momentum grid.

    ``eps1``/``eps2`` have shape (Nx, Ny); ``occ`` is the band-1 occupation
    per spin (identical for both spins), in [0, 1].
    """

    kx: np.ndarray
    ky: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    occ: np.ndarray
    U11: float
    U12: float

    def __post_init__(self):
        for name in ("kx", "ky", "eps1", "eps2", "occ"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        shape = (self.kx.size, self.ky.size)
        for name in ("eps1", "eps2", "occ"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, "
                                 f"got {getattr(self, name).shape}")
        if not np.all(self.eps2 > self.eps1):
            raise ValueError("upper band must lie above the lower band "
                             "everywhere")
        if np.any(self.occ < 0) or np.any(self.occ > 1):
            raise ValueError("occupations must lie in [0, 1]")

    @classmethod
    def square(cls, Nx, Ny, eps21, t1, t2, U11, U12, kF=None):
        """Uniform grid kx_i = -pi + 2*pi*i/N with cosine dispersions.

        ``Ny = 1`` collapses the transverse direction (ky = 0).  ``kF``
        empties the band-1 states inside the circle |k| < kF (hole doping).
        Nx * Ny is at most ``MAX_GRID_POINTS``, checked before allocating,
        and each energy at most ``errors.ENERGY_MAX`` in magnitude.
        """
        if Nx < 1 or Ny < 1:
            raise ValueError(f"grid must be at least 1x1, got {Nx}x{Ny}")
        if Nx * Ny > MAX_GRID_POINTS:
            raise ValueError(f"grid capped at {MAX_GRID_POINTS} points, "
                             f"got {Nx}x{Ny} = {Nx * Ny}")
        for name, v in (("eps21", eps21), ("t1", t1), ("t2", t2),
                        ("U11", U11), ("U12", U12)):
            check_energy(name, v)
        if not eps21 > 0:
            raise ValueError(f"band splitting must be positive, got {eps21}")
        kx = -math.pi + 2.0 * math.pi * np.arange(Nx) / Nx
        ky = np.array([0.0]) if Ny == 1 else \
            -math.pi + 2.0 * math.pi * np.arange(Ny) / Ny
        cos_sum = np.cos(kx)[:, None] + np.cos(ky)[None, :]
        eps1 = 2.0 * t1 * cos_sum
        eps2 = eps21 + 2.0 * t2 * cos_sum
        occ = np.ones((Nx, ky.size))
        if kF is not None:
            if not kF > 0:
                raise ValueError(f"kF must be positive, got {kF}")
            k2 = kx[:, None] ** 2 + ky[None, :] ** 2
            # every |k| is at most pi sqrt(2) < 2 pi, so any kF past 2 pi
            # empties the band as 2 pi does, and its square cannot overflow
            occ[k2 < min(kF, 2.0 * math.pi) ** 2] = 0.0
        return cls(kx=kx, ky=ky, eps1=eps1, eps2=eps2, occ=occ,
                   U11=U11, U12=U12)

    @property
    def nsites(self):
        return self.kx.size * self.ky.size

    @property
    def nu(self):
        """Band-1 filling per spin."""
        return float(np.sum(self.occ)) / self.nsites

    def gamma_index(self):
        ix = np.flatnonzero(np.abs(self.kx) < 1e-12)
        iy = np.flatnonzero(np.abs(self.ky) < 1e-12)
        if ix.size != 1 or iy.size != 1:
            raise ValueError("grid has no unique zone-center point; "
                             "use even grid sizes")
        return int(ix[0]), int(iy[0])


@dataclass(frozen=True)
class CavitySpec:
    """Drive and cavity couplings: drive amplitude g, cavity coupling gc0,
    cavity detuning delta_c (all energies).  |g| and gc0 are at most
    ``errors.ENERGY_MAX`` and delta_c at least its inverse."""

    g: float
    gc0: float
    delta_c: float

    def __post_init__(self):
        if not self.delta_c >= 1.0 / ENERGY_MAX:
            raise ValueError(f"cavity detuning must be >= "
                             f"{1.0 / ENERGY_MAX:g}, got {self.delta_c}")
        if self.gc0 < 0:
            raise ValueError(f"cavity coupling must be >= 0, got {self.gc0}")
        check_energy("g", self.g)
        check_energy("gc0", self.gc0)


def bare_detuning(grid: BandGrid, omega):
    """Interband transition energy minus the drive frequency, per k."""
    check_energy("omega", omega)
    return grid.eps2 - grid.eps1 - omega


def _hartree_detuning(grid: BandGrid, omega):
    """Hartree-shifted detuning A_k entering every screening sum."""
    nu = grid.nu
    return bare_detuning(grid, omega) + (2.0 * grid.U12 - grid.U11) * nu


def _check_resonant(A):
    scale = max(1.0, float(np.max(np.abs(A))))
    if np.any(np.abs(A) <= RES_ATOL * scale):
        idx = np.argwhere(np.abs(A) <= RES_ATOL * scale)[0]
        raise PhysicsError(
            f"detuning vanishes at grid point {tuple(int(i) for i in idx)}; "
            "the drive is resonant with an interband transition")


def _screening_sum(grid: BandGrid, A):
    """S = (U12/N) sum over occupied k of occ/A."""
    return grid.U12 / grid.nsites * float(np.sum(grid.occ / A))


def _ladder_factor(grid: BandGrid, A):
    """1 - S(A), the ladder resummed on a detuning A that nowhere vanishes."""
    _check_resonant(A)
    return 1.0 - _screening_sum(grid, A)


def screened_detuning(grid: BandGrid, omega):
    """Detuning with the interband ladder resummed: Delta = A (1 - S)."""
    A = _hartree_detuning(grid, omega)
    return A * _ladder_factor(grid, A)


def bs_detuning(grid: BandGrid, omega):
    """Screened detuning of the counter-rotating partner (shift by +2w)."""
    A = _hartree_detuning(grid, omega) + 2.0 * omega
    return A * _ladder_factor(grid, A)


def t_matrix(grid: BandGrid, omega):
    """Scalar ladder resummation factor T = 1/(1 - S).

    Satisfies Delta * T = A identically.  A screening sum at unity (bound
    state exactly at ``omega``) raises PhysicsError.
    """
    factor = _ladder_factor(grid, _hartree_detuning(grid, omega))
    if abs(factor) < 1e-9:
        raise PhysicsError(f"ladder sum at unity (1 - S = {factor!r}); "
                           f"drive sits on the bound state")
    return 1.0 / factor


def exciton_frequency(grid: BandGrid):
    """Drive frequency at which the screening sum reaches unity.

    The root of S(w) = 1 below the occupied continuum edge; bisection to
    1e-10, or to one float spacing where that is wider.  Raises PhysicsError
    when no root exists in (0, edge), when the edge is so large that
    edge - 1e-9 rounds onto it (the screening sum would divide by zero
    there), or when the screened detuning does not close at the root to
    1e-6 * U12, which happens when the root lies within the bisection
    resolution of the edge.
    """
    if not np.any(grid.occ > 0):
        raise PhysicsError("empty band cannot bind an exciton")
    a0 = _hartree_detuning(grid, 0.0)
    edge = float(np.min(a0[grid.occ > 0]))
    upper = edge - 1e-9
    if upper <= 0:
        raise PhysicsError(f"occupied continuum edge {edge:.6g} leaves no "
                           "positive-frequency window")
    if upper == edge:
        raise PhysicsError(f"occupied continuum edge {edge:.6g} is too large "
                           "to resolve a window of 1e-9 below it")

    def ssum(w):
        return _screening_sum(grid, a0 - w)

    lo, hi = 0.0, upper
    if ssum(lo) >= 1.0:
        raise PhysicsError("screening already above unity at zero frequency")
    if ssum(hi) < 1.0:
        raise PhysicsError("screening stays below unity up to the band edge; "
                           "interaction too weak to bind")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is one float spacing wide
            break
        if ssum(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    w_ex = 0.5 * (lo + hi)
    residual = float(np.max(np.abs((a0 - w_ex) * (1.0 - ssum(w_ex)))))
    if not residual <= 1e-6 * grid.U12:  # a NaN residual does not close
        raise PhysicsError(f"screened detuning does not close at the root "
                           f"{w_ex:.6g} (residual {residual:.3e}); the bound "
                           f"state sits within the bisection resolution of "
                           f"the continuum edge {edge:.6g}")
    return w_ex


def _laplacian_t(grid: BandGrid, f):
    """Effective hopping from zone-center curvature: -(d2x + d2y)/4."""
    ix, iy = grid.gamma_index()
    hx = 2.0 * math.pi / grid.kx.size
    d2x = (f[(ix + 1) % grid.kx.size, iy] - 2.0 * f[ix, iy]
           + f[ix - 1, iy]) / hx ** 2
    if grid.ky.size > 1:
        hy = 2.0 * math.pi / grid.ky.size
        d2y = (f[ix, (iy + 1) % grid.ky.size] - 2.0 * f[ix, iy]
               + f[ix, iy - 1]) / hy ** 2
    else:
        d2y = 0.0
    return -(d2x + d2y) / 4.0


def floquet_band(grid: BandGrid, omega, g):
    """Drive-dressed lower band and its zone-center hopping.

    eps_tilde = eps1 - g^2/Delta - g^2/Delta_BS; ``t_tilde`` is the
    zone-center curvature hopping of the dressed band.
    """
    check_energy("g", g)
    delta = screened_detuning(grid, omega)
    delta_bs = bs_detuning(grid, omega)
    eps_t = grid.eps1 - g ** 2 / delta - g ** 2 / delta_bs
    return {"eps_tilde": eps_t, "t_tilde": _laplacian_t(grid, eps_t)}


def pomeranchuk_check(grid: BandGrid, cav: CavitySpec, omega):
    """Forward-interaction instability criterion of the dressed band.

    Compares the zone-center cavity attraction against the dressed hopping
    stiffness, both at the drive amplitude ``cav.g``; the hole pocket is the
    one ``grid`` was built with.  Returns {lhs, rhs, eta, triggered}.
    """
    delta = screened_detuning(grid, omega)
    if np.any(delta <= 0):
        raise PhysicsError("screened detuning non-positive somewhere on "
                           "the zone; dressed band undefined")
    ix, iy = grid.gamma_index()
    lhs = (cav.g * cav.gc0) ** 2 / (math.pi * cav.delta_c
                                    * delta[ix, iy] ** 2)
    eta = 4.0 / grid.nsites * (cav.gc0 ** 2 / cav.delta_c) \
        * float(np.sum(1.0 / delta))
    t_tilde = floquet_band(grid, omega, cav.g)["t_tilde"]
    t_bare = _laplacian_t(grid, grid.eps1)
    rhs = t_tilde - eta * (t_bare - t_tilde)
    return {"lhs": float(lhs), "rhs": float(rhs), "eta": float(eta),
            "triggered": bool(lhs > rhs)}
