"""Fermionic Fock-space engine for small Hubbard and two-band chains.

A basis state is a single 64-bit word: spin-up occupations in the low ``L``
bits, spin-down in the next ``L`` bits, so orbital ``(site, spin)`` lives at
bit ``site + spin*L``.  Fermion signs are population counts below the target
bit, which keeps operator assembly branch-free and vectorized.

Operators are built from ordered term lists (:class:`TermSum`) and
materialized as canonical scipy CSR matrices (:class:`SparseOperator`); the
same term lists feed exact diagonalisation and human-readable dumps.  Term
lists are only built, summed and dumped: all operator algebra (adjoints,
products, commutators) happens on :class:`SparseOperator`.  Coefficients and
matrices keep their type: every model here is real, so its operators are
float64; an imaginary coefficient or scalar makes an operator complex128.

Assembly applies each distinct hop prefix of a term list once and masks its
source states by each term's trailing densities.  The (row, col, value)
triplets keep term-by-term COO order, so the duplicates of a matrix entry are
summed in the same order, and every matrix has the same bits, as when each
term is applied on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse

from .errors import check_energy

__all__ = [
    "HubbardParams",
    "TwoBandChainParams",
    "SectorBasis",
    "SparseOperator",
    "TermSum",
    "build_sector_basis",
    "build_hubbard_operators",
    "build_two_band_chain",
    "commutator",
    "hubbard_terms",
    "two_band_terms",
]

UP, DN = 0, 1
_SPIN_NAMES = {UP: "up", DN: "dn"}
_KIND_NAMES = {"cdag": "Cdag", "c": "C", "n": "N"}


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class HubbardParams:
    """Driven open Hubbard chain: H(t) = h + U_op + 2*drive*cos(omega*t).

    Open boundaries.  No chemical potential: at fixed (n_up, n_down) it would
    only shift every energy by a constant.  Energies in units of the hopping
    J unless stated otherwise; hbar = 1.  Each energy is at most
    ``errors.ENERGY_MAX`` in magnitude and omega at least its inverse.
    """

    L: int
    J: float
    U: float
    g: float
    omega: float

    def __post_init__(self):
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        if self.L > 16:
            raise ValueError(f"L must be <= 16, got {self.L}")
        check_energy("omega", self.omega, positive=True)
        for name in ("J", "U", "g"):
            check_energy(name, getattr(self, name))


@dataclass(frozen=True)
class TwoBandChainParams:
    """Two-band chain with on-site intra/inter-band repulsion and dipole drive.

    Band 1 (lower) orbitals occupy sites 0..L-1, band 2 (upper) orbitals
    L..2L-1.  Energies in eV, each at most ``errors.ENERGY_MAX`` in
    magnitude.
    """

    L: int
    eps21: float
    t1: float
    t2: float
    U11: float
    U12: float

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if 2 * self.L > 16:
            raise ValueError(f"2L must be <= 16 orbitals, got {2 * self.L}")
        for name in ("eps21", "t1", "t2", "U11", "U12"):
            check_energy(name, getattr(self, name))
        if not self.eps21 > 0:
            raise ValueError(f"eps21 must be positive, got {self.eps21}")


# ---------------------------------------------------------------------------
# sector basis


@dataclass(frozen=True)
class SectorBasis:
    """Occupation basis at fixed (n_up, n_down), lexicographic bit order."""

    L: int
    n_up: int
    n_down: int
    states: np.ndarray  # uint64, strictly ascending

    @property
    def dim(self):
        return len(self.states)

    def position(self, state):
        """Ordinal of ``state``; KeyError if it lies outside the sector."""
        state = int(state)
        # reduced mod 2**64 only to search; the comparison uses the int
        pos = int(np.searchsorted(self.states, np.uint64(state % (1 << 64))))
        if pos == self.dim or int(self.states[pos]) != state:
            raise KeyError(state)
        return pos


def _spin_patterns(L, n):
    pats = []
    for occ in itertools.combinations(range(L), n):
        bits = 0
        for j in occ:
            bits |= 1 << j
        pats.append(bits)
    pats.sort()
    return pats


def build_sector_basis(L, n_up, n_down):
    """Enumerate the (n_up, n_down) sector of an L-orbital-per-spin lattice."""
    if not (1 <= L <= 16):
        raise ValueError(f"L must be in 1..16, got {L}")
    if not (0 <= n_up <= L and 0 <= n_down <= L):
        raise ValueError(f"particle counts must lie in 0..L={L}, "
                         f"got n_up={n_up}, n_down={n_down}")
    ups = _spin_patterns(L, n_up)
    dns = _spin_patterns(L, n_down)
    states = np.sort(np.array(
        [(dn << L) | up for dn in dns for up in ups], dtype=np.uint64))
    assert len(states) == comb(L, n_up) * comb(L, n_down)
    return SectorBasis(L=L, n_up=n_up, n_down=n_down, states=states)


def _swap_even_isometry(b: SectorBasis):
    """Sparse isometry V (dim x dim_even) onto the swap-even states of ``b``.

    Swapping up and down maps a state s to ((s & mask) << L) | (s >> L).  A
    fixed point gets a column of weight 1, and each pair a < swap(a) one
    column (e_a + e_swap(a))/sqrt(2), in the order of a.  Only a sector with
    n_up = n_down is mapped onto itself.
    """
    if b.n_up != b.n_down:
        raise ValueError(f"the spin swap maps the (n_up={b.n_up}, "
                         f"n_down={b.n_down}) sector onto another; need "
                         f"n_up = n_down")
    mask, shift = np.uint64((1 << b.L) - 1), np.uint64(b.L)
    image = np.searchsorted(
        b.states, ((b.states & mask) << shift) | (b.states >> shift))
    index = np.arange(b.dim)
    reps, column = np.unique(np.minimum(index, image), return_inverse=True)
    weight = np.where(image == index, 1.0, np.sqrt(0.5))
    return sparse.csr_matrix((weight, (index, column)),
                             shape=(b.dim, reps.size))


# ---------------------------------------------------------------------------
# sparse operators


class SparseOperator:
    """CSR operator over a sector, canonical entry order.

    Real input gives a float64 matrix (integers are promoted) and complex
    input complex128, by dtype alone.  Entries are duplicate-merged and
    index-sorted at construction; the Hermitian flag is evaluated lazily
    against a 1e-13 relative tolerance.
    """

    HERM_RTOL = 1e-13
    __slots__ = ("matrix", "_herm")

    def __init__(self, matrix):
        m = sparse.csr_matrix(matrix, copy=True)
        m = m.astype(np.result_type(m.dtype, np.float64), copy=False)
        m.sum_duplicates()
        m.eliminate_zeros()
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got {m.shape}")
        self.matrix = m
        self._herm = None

    # -- structure ----------------------------------------------------
    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def nnz(self):
        return self.matrix.nnz

    def max_abs(self):
        return float(np.abs(self.matrix.data).max()) if self.nnz else 0.0

    def fro_norm(self):
        if not self.nnz:
            return 0.0
        return float(np.sqrt(np.sum(np.abs(self.matrix.data) ** 2)))

    @property
    def hermitian(self):
        if self._herm is None:
            d = self.matrix - self.matrix.getH()
            dev = float(np.abs(d.data).max()) if d.nnz else 0.0
            scale = self.max_abs()
            self._herm = dev <= self.HERM_RTOL * (scale if scale > 0 else 1.0)
        return self._herm

    # -- algebra ------------------------------------------------------
    def dagger(self):
        return SparseOperator(self.matrix.getH())

    def __add__(self, other):
        return SparseOperator(self.matrix + other.matrix)

    def __sub__(self, other):
        return SparseOperator(self.matrix - other.matrix)

    def __neg__(self):
        return SparseOperator(-self.matrix)

    def __mul__(self, scalar):
        return SparseOperator(self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return SparseOperator(self.matrix @ other.matrix)

    def diagonal(self):
        return self.matrix.diagonal()

    def to_dense(self):
        return self.matrix.toarray()

    def __repr__(self):
        return (f"SparseOperator(dim={self.dim}, nnz={self.nnz}, "
                f"hermitian={self.hermitian})")


def commutator(a, b):
    """[a, b] = a@b - b@a for SparseOperator inputs.

    A product has no duplicate entries, so its values do not depend on its
    index order: the difference is canonicalized once, not each product.
    """
    return SparseOperator(a.matrix @ b.matrix - b.matrix @ a.matrix)


# ---------------------------------------------------------------------------
# term lists


def _norm_op(op):
    kind, site, spin = op
    if kind not in _KIND_NAMES:
        raise ValueError(f"unknown operator kind {kind!r}")
    if spin not in (UP, DN):
        raise ValueError(f"spin must be 0 (up) or 1 (dn), got {spin!r}")
    return (kind, int(site), int(spin))


def _op_str(op):
    kind, site, spin = op
    return f"{_KIND_NAMES[kind]}({site + 1},{_SPIN_NAMES[spin]})"


class TermSum:
    """Weighted sum of ordered fermionic monomials.

    Each monomial is a tuple of ``(kind, site, spin)`` factors with kind in
    {"cdag", "c", "n"}; factors apply right-to-left as written, matching
    operator notation.  Sites are 0-based internally, 1-based in dumps.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def add(self, coeff, ops):
        ops = tuple(_norm_op(o) for o in ops)
        self.terms[ops] = self.terms.get(ops, 0.0) + coeff
        return self

    def __len__(self):
        return sum(1 for c in self.terms.values() if c != 0)

    def __add__(self, other):
        out = TermSum(self.terms)
        for ops, c in other.terms.items():
            out.terms[ops] = out.terms.get(ops, 0.0) + c
        return out

    # -- materialization ------------------------------------------------
    def to_operator(self, basis):
        """Assemble the operator matrix on the given sector basis.

        A monomial splits into its hop prefix, which runs up to its last
        non-density factor, and its trailing densities, which act first and
        so only mask the source states.  Each distinct prefix is applied
        and its targets located once per call; each term then emits its
        (row, col, value) triplets in term order, so the COO order (and
        with it the order in which duplicates are summed) is that of a
        term-by-term assembly.  A term raises only if it keeps a source
        state whose target leaves the sector.
        """
        states, dim, L = basis.states, basis.dim, basis.L
        # prefix -> (states, columns, rows, amplitudes) of the sources it
        # keeps alive, and whether it leaves the sector: a monomial shifts
        # (n_up, n_down) by fixed amounts, so all its targets stay or none do
        prefixes = {}
        rows, cols, vals = [], [], []
        for ops, coeff in self.terms.items():
            if coeff == 0:
                continue
            if not all(0 <= site < L for _, site, _ in ops):
                raise ValueError(
                    f"term {' '.join(map(_op_str, ops))} has a site outside "
                    f"1..{L}")
            k = len(ops)
            while k and ops[k - 1][0] == "n":
                k -= 1
            prefix = ops[:k]
            hit = prefixes.get(prefix)
            if hit is None:
                st, amp, alive = _apply_ops(states, prefix, L)
                src = np.nonzero(alive)[0]
                pos = np.searchsorted(states, st[src])
                leaves = np.any(states[np.minimum(pos, dim - 1)] != st[src])
                hit = prefixes[prefix] = (states[src], src, pos, amp[src],
                                          leaves)
            occ, src, pos, amp, leaves = hit
            if k < len(ops):
                dens = 0
                for _, site, spin in ops[k:]:
                    dens |= 1 << (site + spin * L)
                dens = np.uint64(dens)
                keep = (occ & dens) == dens
                src, pos, amp = src[keep], pos[keep], amp[keep]
            if not len(amp):
                continue
            if leaves:
                raise ValueError(
                    f"term {' '.join(map(_op_str, ops))} leaves the "
                    f"(n_up={basis.n_up}, n_down={basis.n_down}) sector")
            rows.append(pos)
            cols.append(src)
            vals.append(coeff * amp)
        if not rows:
            return SparseOperator(sparse.csr_matrix((dim, dim)))
        mat = sparse.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim))
        return SparseOperator(mat)

    # -- dump -----------------------------------------------------------
    def dump_lines(self):
        """Stable text form: one `coeff_re coeff_im op_string` per line."""
        out = []
        for ops, c in self.terms.items():
            if c == 0:
                continue
            out.append((" ".join(map(_op_str, ops)), c))
        out.sort(key=lambda item: item[0])
        return [f"{c.real:.17g} {c.imag:.17g} {s}" for s, c in out]

    def __repr__(self):
        return f"TermSum(n_terms={len(self)})"


def _apply_ops(states, ops, L):
    """Apply a monomial right-to-left to every basis state (vectorized)."""
    st = states.copy()
    amp = np.ones(len(states), dtype=np.float64)
    alive = np.ones(len(states), dtype=bool)
    for kind, site, spin in reversed(ops):
        b = site + spin * L
        bit = np.uint64(1 << b)
        below = np.uint64((1 << b) - 1)
        occ = (st & bit) != 0
        if kind == "n":
            alive &= occ
            continue
        if kind == "c":
            alive &= occ
        else:  # cdag
            alive &= ~occ
        par = np.bitwise_count(st & below) & 1
        amp = np.where(par == 1, -amp, amp)
        st = st ^ bit
    return st, amp, alive


# ---------------------------------------------------------------------------
# model builders


def hubbard_terms(p: HubbardParams):
    """Term lists of the driven Hubbard chain: h, U_op, drive.

    The drive is the dipole ramp g * sum_j j*n_j with 1-based site labels,
    so H(t) = (h + U_op) + 2*drive*cos(omega*t).
    """
    h = TermSum()
    for j in range(p.L - 1):
        for s in (UP, DN):
            h.add(-p.J, [("cdag", j + 1, s), ("c", j, s)])
            h.add(-p.J, [("cdag", j, s), ("c", j + 1, s)])
    u = TermSum()
    for j in range(p.L):
        u.add(p.U, [("n", j, UP), ("n", j, DN)])
    drive = TermSum()
    for j in range(p.L):
        for s in (UP, DN):
            drive.add(p.g * (j + 1), [("n", j, s)])
    return {"h": h, "U_op": u, "drive": drive}


def _check_chain_basis(p: HubbardParams, b: SectorBasis):
    """Refuse a sector basis of another chain length than the params'."""
    if b.L != p.L:
        raise ValueError(f"basis has L={b.L}, params have L={p.L}")


def build_hubbard_operators(p: HubbardParams, b: SectorBasis):
    """Materialize {h, U_op, drive} on the sector basis."""
    _check_chain_basis(p, b)
    return {k: t.to_operator(b) for k, t in hubbard_terms(p).items()}


def two_band_terms(p: TwoBandChainParams):
    """Term lists of the two-band chain: H0 and the interband dipole.

    Kinetic sign convention: +t_b (c^dag_{R+1} c_R + h.c.), the open-chain
    analogue of the dispersion eps_b + 2 t_b cos k.
    """
    L = p.L
    h0 = TermSum()
    for s in (UP, DN):
        for band, (t, e0) in enumerate(((p.t1, 0.0), (p.t2, p.eps21))):
            off = band * L
            if e0 != 0.0:
                for r in range(L):
                    h0.add(e0, [("n", r + off, s)])
            for r in range(L - 1):
                h0.add(t, [("cdag", r + 1 + off, s), ("c", r + off, s)])
                h0.add(t, [("cdag", r + off, s), ("c", r + 1 + off, s)])
    for r in range(L):
        h0.add(p.U11, [("n", r, UP), ("n", r, DN)])
    for r in range(L):
        for s in (UP, DN):
            for s2 in (UP, DN):
                h0.add(p.U12, [("n", r, s), ("n", r + L, s2)])
    dip = TermSum()
    for r in range(L):
        for s in (UP, DN):
            dip.add(1.0, [("cdag", r + L, s), ("c", r, s)])
            dip.add(1.0, [("cdag", r, s), ("c", r + L, s)])
    return {"H0": h0, "dipole": dip}


def build_two_band_chain(p: TwoBandChainParams, b: SectorBasis):
    """Materialize {H0, dipole} on a 2L-orbital sector basis.

    The sector must admit the filled-lower-band reference state, i.e.
    n_up = n_down = L.
    """
    if b.L != 2 * p.L:
        raise ValueError(f"basis has {b.L} orbitals, expected {2 * p.L}")
    if b.n_up != p.L or b.n_down != p.L:
        raise ValueError(
            f"sector (n_up={b.n_up}, n_down={b.n_down}) does not admit the "
            f"filled lower band of L={p.L} sites")
    return {k: t.to_operator(b) for k, t in two_band_terms(p).items()}
