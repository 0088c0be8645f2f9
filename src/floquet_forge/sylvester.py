"""Operator-valued Sylvester equations of the driven Hubbard chain.

The micro-motion f solves  source + [f, H0] - shift*f = 0  at each order and
harmonic.  :func:`hubbard_micromotion` assembles it in closed form as a
hopping-order expansion (densities dressed by beta/gamma/delta coefficient
ladders); :func:`sylvester_residual` measures how well an operator solves
the equation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResonantDenominator
from .fock import (HubbardParams, SectorBasis, SparseOperator, TermSum,
                   commutator)

__all__ = [
    "HopExpansionCoeffs",
    "sylvester_residual",
    "hubbard_micromotion",
    "hubbard_micromotion_terms",
]


# ---------------------------------------------------------------------------
# defining equation


def sylvester_residual(f: SparseOperator, H0: SparseOperator,
                       source: SparseOperator, shift):
    """Frobenius norm of source + [f, H0] - shift*f."""
    r = source + commutator(f, H0) - complex(shift) * f
    return r.fro_norm()


# ---------------------------------------------------------------------------
# hopping-expansion coefficient ladder


def _corner_extract(fn):
    """beta/gamma/delta of a density polynomial from its {0,1}^2 corners."""
    f00 = fn(0.0, 0.0)
    beta = fn(1.0, 0.0) - f00
    gamma = fn(0.0, 1.0) - f00
    delta = fn(1.0, 1.0) - fn(1.0, 0.0) - fn(0.0, 1.0) + f00
    return f00, beta, gamma, delta


def _guard_resonance(U, omega, dens):
    """Raise ResonantDenominator if some n*omega + s*U nearly vanishes.

    ``dens`` lists the (n, s) pairs of the denominators a closed form
    divides by; the tolerance is 1e-8 * max(|omega|, 1).
    """
    tol = 1e-8 * max(abs(omega), 1.0)
    for n, s in dens:
        den = n * omega + s * U
        if abs(den) < tol:
            raise ResonantDenominator(
                f"resonant denominator {n}*omega {'+' if s > 0 else '-'} U "
                f"= {den:.3g} (U={U}, omega={omega})")


def _ladder(U, omega, n=1):
    """(beta, gamma, delta) of the density-dressed hop at n*omega."""
    _guard_resonance(U, omega, ((n, -1), (n, 1)))
    w = n * omega
    beta = -U / (w + U)
    gamma = U / (w - U)
    return beta, gamma, -beta - gamma


@dataclass(frozen=True)
class HopExpansionCoeffs:
    """Density-dressing coefficients of the hopping expansion.

    beta/gamma/delta: first-order ladder; beta_dd/...: the same at doubled
    frequency; beta2/...: the two-photon level; beta3/... and beta4/...: the
    third- and fourth-order ladders entering f(3,1) and the g^4 Hamiltonian.
    """

    beta: float
    gamma: float
    delta: float
    beta_dd: float
    gamma_dd: float
    delta_dd: float
    beta2: float
    gamma2: float
    delta2: float
    beta3: float
    gamma3: float
    delta3: float
    beta4: float
    gamma4: float
    delta4: float

    @classmethod
    def from_model(cls, U, omega):
        if not omega > 0:
            raise ValueError(f"omega must be positive, got {omega}")
        beta, gamma, delta = _ladder(U, omega)
        beta_dd, gamma_dd, delta_dd = _ladder(U, omega, 2)

        beta2 = beta + beta_dd + beta * beta_dd
        gamma2 = gamma + gamma_dd + gamma * gamma_dd
        delta2 = (delta + delta_dd
                  + gamma * beta_dd + gamma_dd * beta
                  + gamma * delta_dd + gamma_dd * delta
                  + beta * delta_dd + beta_dd * delta
                  + delta * delta_dd)

        def pprime(a, b):
            return 1.0 + beta * a + gamma * b + delta * a * b

        def f3(a, b):
            pp = pprime(a, b)
            return (pp * pp * (-1.0 + beta_dd * a + gamma_dd * b
                               + delta_dd * a * b) / 8.0
                    - pp * pp / 3.0)

        f00, beta3, gamma3, delta3 = _corner_extract(f3)
        assert abs(f00 + 11.0 / 24.0) < 1e-12

        beta4 = beta3 + beta2 / 24.0 + beta / 6.0
        gamma4 = gamma3 + gamma2 / 24.0 + gamma / 6.0
        delta4 = delta3 + delta2 / 24.0 + delta / 6.0
        return cls(beta, gamma, delta, beta_dd, gamma_dd, delta_dd,
                   beta2, gamma2, delta2, beta3, gamma3, delta3,
                   beta4, gamma4, delta4)


# ---------------------------------------------------------------------------
# analytic micro-motion of the driven Hubbard chain
#
# Density polynomials are dicts {frozenset((site, spin), ...): coeff};
# multiplication takes set unions, which encodes n^2 = n.


def _pmul(pa, pb):
    out = {}
    for ka, ca in pa.items():
        for kb, cb in pb.items():
            key = ka | kb
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _dressing(beta, gamma, delta, a_orb, b_orb, const=1.0):
    return {frozenset(): const,
            frozenset({a_orb}): beta,
            frozenset({b_orb}): gamma,
            frozenset({a_orb, b_orb}): delta}


def _attach(tsum, coeff, hop_ops, poly):
    for dens, c in poly.items():
        if c == 0.0:
            continue
        ops = list(hop_ops) + [("n", site, spin)
                               for (site, spin) in sorted(dens)]
        tsum.add(coeff * c, ops)


def _directed_bonds(L):
    """(to, from, sign) with sign = +1 for from=to+1 and -1 for to=from+1."""
    out = []
    for b in range(L - 1):
        out.append((b, b + 1, +1.0))
        out.append((b + 1, b, -1.0))
    return out


def _dressed_hops(t, L, pref, coeffs, signed=False):
    """Add the density-dressed nearest-neighbour hop to ``t`` and return it.

    Each directed bond i -> j and spin s gets pref * c^dag_{j,s} c_{i,s}
    times (c0 + a n_{j,-s} + b n_{i,-s} + d n_{j,-s} n_{i,-s}) for
    ``coeffs`` = (c0, a, b, d), and a further -1 on the bonds with
    i = j - 1 when ``signed``.
    """
    c0, a, b, d = coeffs
    for (jto, ifrom, sign) in _directed_bonds(L):
        coeff = sign * pref if signed else pref
        for s in (0, 1):
            sb = 1 - s
            _attach(t, coeff, (("cdag", jto, s), ("c", ifrom, s)),
                    _dressing(a, b, d, (jto, sb), (ifrom, sb), const=c0))
    return t


def y0_terms(p: HubbardParams):
    """Zeroth hop order: the drive ramp itself divided by omega."""
    t = TermSum()
    for j in range(p.L):
        for s in (0, 1):
            t.add(p.g * (j + 1) / p.omega, [("n", j, s)])
    return t


def y1_terms(p: HubbardParams, c: HopExpansionCoeffs):
    """First hop order: dressed antisymmetric hopping, prefactor J*g/omega^2."""
    return _dressed_hops(TermSum(), p.L, p.J * p.g / p.omega ** 2,
                         (1.0, c.beta, c.gamma, c.delta), signed=True)


def y2_terms(p: HubbardParams, c: HopExpansionCoeffs):
    """Second hop order: two-site and interior three-site families."""
    t = TermSum()
    w = p.omega
    a2 = 2.0 * p.J ** 2 * p.g / w ** 3
    a3 = p.J ** 2 * p.g / w ** 3
    bg = c.beta - c.gamma
    bpg = c.beta + c.gamma

    for j in range(p.L - 1):
        jp = j + 1
        # doublon exchange across the bond
        t.add(a2 * bg, [("cdag", j, 0), ("cdag", j, 1),
                        ("c", jp, 0), ("c", jp, 1)])
        t.add(-a2 * bg, [("cdag", jp, 0), ("cdag", jp, 1),
                         ("c", j, 0), ("c", j, 1)])
        # density telescope -n_j + n_{j+1}
        for s in (0, 1):
            t.add(-a2, [("n", j, s)])
            t.add(a2, [("n", jp, s)])
        # (beta+gamma) [ D_{j+1}(1 - n_j) - D_j(1 - n_{j+1}) ]
        dj = frozenset({(j, 0), (j, 1)})
        djp = frozenset({(jp, 0), (jp, 1)})
        poly = {djp: 1.0,
                djp | frozenset({(j, 0)}): -1.0,
                djp | frozenset({(j, 1)}): -1.0,
                dj: -1.0,
                dj | frozenset({(jp, 0)}): 1.0,
                dj | frozenset({(jp, 1)}): 1.0}
        _attach(t, a2 * bpg, (), poly)

    for m in range(1, p.L - 1):
        l, r = m - 1, m + 1
        for s in (0, 1):
            sb = 1 - s
            nm, nl, nr = (m, sb), (l, sb), (r, sb)
            # family 1: l <- r same-spin next-nearest hop
            pa = {frozenset({nm}): bg,
                  frozenset({nl}): -c.beta,
                  frozenset({nr}): c.gamma,
                  frozenset({nm, nl}): -c.delta,
                  frozenset({nm, nr}): c.delta}
            pb = _dressing(c.beta, c.gamma, c.delta, nl, nr)
            _attach(t, a3, (("cdag", l, s), ("c", r, s)), _pmul(pa, pb))
            # family 2: r <- l mirror
            pa = {frozenset({nm}): -bg,
                  frozenset({nl}): -c.gamma,
                  frozenset({nr}): c.beta,
                  frozenset({nm, nl}): -c.delta,
                  frozenset({nm, nr}): c.delta}
            pb = _dressing(c.beta, c.gamma, c.delta, nr, nl)
            _attach(t, a3, (("cdag", r, s), ("c", l, s)), _pmul(pa, pb))
            # families 3-6 carry opposite-spin exchange through the middle
            als, ars = (l, s), (r, sb)
            pa = {frozenset(): bg,
                  frozenset({als}): -c.delta,
                  frozenset({ars}): c.delta}
            pb = _dressing(c.beta, c.gamma, c.delta, als, ars)
            _attach(t, a3,
                    (("cdag", m, s), ("cdag", l, sb), ("c", m, sb), ("c", r, s)),
                    _pmul(pa, pb))
            pa = {frozenset(): -bg,
                  frozenset({als}): -c.delta,
                  frozenset({ars}): c.delta}
            pb = _dressing(c.beta, c.gamma, c.delta, ars, als)
            _attach(t, a3,
                    (("cdag", r, s), ("cdag", m, sb), ("c", l, sb), ("c", m, s)),
                    _pmul(pa, pb))
            pdiff = {frozenset({als}): c.delta, frozenset({ars}): -c.delta}
            pb = {frozenset(): w / (w + p.U),
                  frozenset({als}): -c.beta,
                  frozenset({ars}): -c.beta,
                  frozenset({als, ars}): -c.delta}
            _attach(t, a3,
                    (("cdag", m, s), ("cdag", m, sb), ("c", l, sb), ("c", r, s)),
                    _pmul(pdiff, pb))
            pb = {frozenset(): w / (w - p.U),
                  frozenset({als}): -c.gamma,
                  frozenset({ars}): -c.gamma,
                  frozenset({als, ars}): -c.delta}
            _attach(t, a3,
                    (("cdag", r, s), ("cdag", l, sb), ("c", m, sb), ("c", m, s)),
                    _pmul(pdiff, pb))
    return t


def z1_terms(p: HubbardParams, c: HopExpansionCoeffs):
    """Two-photon component: symmetric dressed hopping, J*g^2/(4 omega^3)."""
    return _dressed_hops(TermSum(), p.L, p.J * p.g ** 2 / (4.0 * p.omega ** 3),
                         (1.0, c.beta2, c.gamma2, c.delta2))


def f31_terms(p: HubbardParams, c: HopExpansionCoeffs):
    """Order-g^3 single-photon component at leading hop order, J*g^3/omega^4."""
    return _dressed_hops(TermSum(), p.L, p.J * p.g ** 3 / p.omega ** 4,
                         (-11.0 / 24.0, c.beta3, c.gamma3, c.delta3),
                         signed=True)


def hubbard_micromotion_terms(p: HubbardParams, max_hop_order=2):
    """Term lists of the micro-motion components (basis-free).

    Returns {(n, j): TermSum} at (1, 1), (2, 2) and (3, 1), the positive
    harmonics only; negative harmonics follow from f(n,-j) = -f(n,j)^dagger.
    """
    if max_hop_order not in (0, 1, 2):
        raise ValueError(f"max_hop_order {max_hop_order} unsupported "
                         "(analytic forms stop at hop order 2)")
    c = HopExpansionCoeffs.from_model(p.U, p.omega)
    y = y0_terms(p)
    if max_hop_order >= 1:
        y = y + y1_terms(p, c)
    if max_hop_order >= 2:
        y = y + y2_terms(p, c)
    if max_hop_order == 0:
        return {(1, 1): y, (2, 2): TermSum(), (3, 1): TermSum()}
    return {(1, 1): y, (2, 2): z1_terms(p, c), (3, 1): f31_terms(p, c)}


def hubbard_micromotion(p: HubbardParams, b: SectorBasis, max_hop_order=2):
    """Assemble the analytic micro-motion on a sector basis.

    Returns {(n, j): SparseOperator} at both signs of each harmonic, the
    negative one built as f(n,-j) = -f(n,j)^dagger.  f(1,1) = y0 + y1 + y2
    truncated at ``max_hop_order``; f(2,2) is the two-photon component;
    f(3,1) the order-g^3 single-photon component; f(2,+-1) and f(3,+-2)
    vanish identically for this model and are omitted.
    """
    terms = {}
    for (n, j), tsum in hubbard_micromotion_terms(p, max_hop_order).items():
        op = tsum.to_operator(b)
        terms[(n, j)] = op
        terms[(n, -j)] = -op.dagger()
    return terms
