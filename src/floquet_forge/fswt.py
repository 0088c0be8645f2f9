"""Effective Floquet Hamiltonians of the driven Hubbard chain.

Static blocks through order g^4, the high-frequency-expansion reference,
the strong-coupling spin exchange, and the strong-drive (Bessel) harmonic
decomposition.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import check_energy
from .fock import (HubbardParams, SectorBasis, SparseOperator, TermSum,
                   _check_chain_basis, build_hubbard_operators, commutator,
                   hubbard_terms)
from .sylvester import (HopExpansionCoeffs, _dressed_hops, _guard_resonance,
                        _ladder, hubbard_micromotion)

__all__ = [
    "DrivenChain",
    "hubbard_harmonics",
    "floquet_h2",
    "floquet_h2_terms",
    "floquet_h4",
    "floquet_h4_terms_j1",
    "hfe_h",
    "spin_exchange",
    "strong_drive_harmonics",
]

# largest Bessel order strong_drive_harmonics builds; it allocates 2*jmax+1
# term lists
MAX_JMAX = 1024


class DrivenChain(NamedTuple):
    """The driven chain H(t) = static + 2*cos(omega*t)*drive on one sector."""

    static: SparseOperator
    drive: SparseOperator
    omega: float


def hubbard_harmonics(p: HubbardParams, b: SectorBasis):
    """Fourier components of the driven chain on a sector basis.

    The static block is h + U and the drive is the diagonal density ramp,
    identical at harmonics +-1, so the time dependence is 2*cos(omega*t).
    """
    ops = build_hubbard_operators(p, b)
    return DrivenChain(ops["h"] + ops["U_op"], ops["drive"], p.omega)


# the name perfbench's chain_margin calls
_first_order_ladder = _ladder


def _renormalized_chain(p: HubbardParams):
    """The model's terms with each hop at -J(1 - g^2/omega^2), set on its
    keys, not through a smaller J, which ``HubbardParams`` would bound."""
    terms = hubbard_terms(p)
    ren = -p.J * (1.0 - p.g ** 2 / p.omega ** 2)
    return TermSum(dict.fromkeys(terms["h"].terms, ren)) + terms["U_op"]


def floquet_h2_terms(p: HubbardParams, include_J2=False):
    """Static effective Hamiltonian through order g^2 as a term list.

    The renormalized chain of :func:`hfe_h` plus the density-dressed
    correlated hopping; with ``include_J2``, also the order-(J^2 g^2) block
    (doublon exchange plus interior three-site processes).
    """
    beta, gamma, delta = _ladder(p.U, p.omega)
    t = _renormalized_chain(p)
    half = 0.5 * (beta + gamma)
    _dressed_hops(t, p.L, p.J * p.g ** 2 / p.omega ** 2,
                  (0.0, half, half, delta))
    if include_J2:
        bg = beta - gamma
        a2 = 4.0 * p.J ** 2 * p.g ** 2 / p.omega ** 3 * bg
        for j in range(p.L - 1):
            jp = j + 1
            t.add(a2, [("cdag", j, 0), ("cdag", j, 1),
                       ("c", jp, 0), ("c", jp, 1)])
            t.add(a2, [("cdag", jp, 0), ("cdag", jp, 1),
                       ("c", j, 0), ("c", j, 1)])
        a3 = p.J ** 2 * p.g ** 2 / p.omega ** 3 * bg
        for m in range(1, p.L - 1):
            l, r = m - 1, m + 1
            for s in (0, 1):
                sb = 1 - s
                nm, nl, nr = ("n", m, sb), ("n", l, sb), ("n", r, sb)
                poly = [(2.0, [nm]),
                        (-1.0 + delta, [nl]),
                        (-1.0 + delta, [nr]),
                        (-2.0 * delta, [nl, nr]),
                        (-2.0 * delta, [nm, nl]),
                        (-2.0 * delta, [nm, nr]),
                        (4.0 * delta, [nm, nl, nr])]
                for hop in ([("cdag", l, s), ("c", r, s)],
                            [("cdag", r, s), ("c", l, s)]):
                    for coef, dens in poly:
                        t.add(a3 * coef, hop + dens)
                na, nb = ("n", l, s), ("n", r, sb)
                poly2 = [(1.0, []), (-delta, [na]), (-delta, [nb]),
                         (2.0 * delta, [na, nb])]
                for hop in ([("cdag", m, s), ("cdag", l, sb),
                             ("c", m, sb), ("c", r, s)],
                            [("cdag", r, s), ("cdag", m, sb),
                             ("c", l, sb), ("c", m, s)]):
                    for coef, dens in poly2:
                        t.add(2.0 * a3 * coef, hop + dens)
    return t


def floquet_h2(p: HubbardParams, b: SectorBasis, include_J2=False):
    _check_chain_basis(p, b)
    op = floquet_h2_terms(p, include_J2).to_operator(b)
    assert op.hermitian
    return op


def floquet_h4_terms_j1(p: HubbardParams):
    """Closed-form order-g^4 static block at leading hopping order.

    Prefactor g^4 J / omega^4; constant -1/4 plus the symmetrized
    fourth-order density ladder.
    """
    c = HopExpansionCoeffs.from_model(p.U, p.omega)
    half4 = 0.5 * (c.beta4 + c.gamma4)
    return _dressed_hops(TermSum(), p.L, p.g ** 4 * p.J / p.omega ** 4,
                         (-0.25, half4, half4, c.delta4))


def floquet_h4(p: HubbardParams, b: SectorBasis):
    """Order-g^4 static block assembled from micro-motion commutators.

    (1/2)[f(3,1), H(-1)] + (1/12)[f(2,2), [f(1,-1), H(-1)]]
    + (1/12)[f(1,-1), [f(2,2), H(-1)]] - (1/12)[f(1,1), [f(1,-1), Hp2]]
    plus Hermitian conjugate, where Hp2 is the pure g^2 part of the static
    block including its J^2 families.
    """
    h0, h_m1, _ = hubbard_harmonics(p, b)
    f = hubbard_micromotion(p, b)
    hp2 = floquet_h2(p, b, include_J2=True) - h0
    x = 0.5 * commutator(f[(3, 1)], h_m1)
    x = x + (1.0 / 12.0) * commutator(f[(2, 2)],
                                      commutator(f[(1, -1)], h_m1))
    x = x + (1.0 / 12.0) * commutator(f[(1, -1)],
                                      commutator(f[(2, 2)], h_m1))
    x = x - (1.0 / 12.0) * commutator(f[(1, 1)],
                                      commutator(f[(1, -1)], hp2))
    out = x + x.dagger()
    assert out.hermitian
    return out


def hfe_h(p: HubbardParams, b: SectorBasis):
    """High-frequency-expansion reference Hamiltonian through 1/omega^2.

    The 1/omega term, the j = +-1 commutator of identical drive harmonics,
    vanishes; for the linear density ramp the 1/omega^2 term is
    -(g/omega)^2 h, so this is the renormalized bare chain, to which
    :func:`floquet_h2` adds the density-dressed hops.
    """
    _check_chain_basis(p, b)
    return _renormalized_chain(p).to_operator(b)


def spin_exchange(U, J, g, omega):
    """Effective nearest-neighbor exchange deep in the Mott regime.

    4J^2/U with the drive-renormalized bandwidth, plus the photon-assisted
    channel through the U -+ omega intermediate states.
    """
    for name, value in (("U", U), ("J", J), ("g", g)):
        check_energy(name, value)
    check_energy("omega", omega, positive=True)
    if U == 0:
        raise ValueError("spin exchange requires U != 0")
    _guard_resonance(U, omega, ((1, -1), (1, 1)))
    r = g ** 2 / omega ** 2
    return (4.0 * J ** 2 / U * (1.0 - 2.0 * r)
            + 4.0 * r * J ** 2 * (1.0 / (U - omega) + 1.0 / (omega + U)))


def strong_drive_harmonics(p: HubbardParams, jmax=10):
    """Harmonics of the chain in the strong-drive (lattice co-moving) frame.

    The static block is the bare interaction.  For the linear ramp every
    bond has a unit phase step, so kinetic harmonic m in -jmax..jmax puts
    -J * J_m(A) on each hop i -> i+1 and -J * J_m(-A) on each hop i+1 -> i,
    with A = 2g/omega.

    Returns (static, harmonics, truncation_error): the static TermSum,
    {m: TermSum} for m = -jmax..jmax, and the spectral weight
    1 - sum_m J_m(A)^2 lost beyond ``jmax``.
    """
    # scipy.special is slow to import and nothing else in the package needs it
    from scipy.special import jv

    if isinstance(jmax, bool) or not (isinstance(jmax, (int, np.integer))
                                      and 1 <= jmax <= MAX_JMAX):
        raise ValueError(f"jmax must be an integer in 1..{MAX_JMAX}, "
                         f"got {jmax!r}")
    row = jv(np.arange(jmax + 1), 2.0 * p.g / p.omega)
    weight = row[0] ** 2 + 2.0 * float(np.sum(row[1:] ** 2))
    kin = {}
    for m in range(-jmax, jmax + 1):
        # J_m(-A) = -J_|m|(A) for odd m > 0, J_|m|(A) otherwise
        jm_neg = -row[m] if m > 0 and m % 2 else row[abs(m)]
        kin[m] = _dressed_hops(TermSum(), p.L, -p.J * float(jm_neg),
                               (1.0, 0.0, 0.0, 0.0), signed=m % 2 == 1)
    return hubbard_terms(p)["U_op"], kin, max(0.0, 1.0 - weight)
