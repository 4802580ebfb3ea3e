"""Exact energy-graded Chevalley-Eilenberg pipeline.

Cochains of the positive-mode algebra are wedges of dual modes e^{i,l}
with level l >= 1; the differential preserves the energy k = sum of
levels, so everything happens in independent (degree, energy) cells.
``CellComplex`` works in the orthogonal Cartan basis of
``orthogonal_cartan``, where the metric induced by the compact involution
is diagonal, so the wedge Gram is diagonal and d* a scaled transpose.
Every verdict is independent of the basis.

Int monomials.  A cochain monomial is one int: bit (level - 1)*n + i
stands for the dual mode e^{i,level}, n = dim g, so modes ascending in
(level, index) are bits ascending, a wedge is the set of its bits, and
``build_basis`` labels each with its torus weight (``CochainBasis.weights``).
Moving modes out of a monomial and others in has the sign
(-1)^popcount(rest & mask): rest is the monomial without the modes it
loses, and mask the xor of the masks of the bits below each mode moved.
d reads a split table row per mode bit, (u | v, mask, coefficient) for
each pair of modes ``split_mode`` splits the mode into: the one
splitting rule, which the identity harness reads over its window.  The
Casimir reads the run's tables (``CasimirTables``): a one-body row per
mode, sum_a (G^-1)_{ab} A_a A_b on that mode, and a two-body row per
pair of modes, the same sum with A_a and A_b on the two modes in both
orders, each row built the first time it is read.  A column of C is the
sum of the one-body rows over its modes and the two-body rows over its
mode pairs.  C comes from the structure constants and G^-1 alone, never
from d or d*, so the identity L + C = c*k compares two independent
routes.

Scaled int columns.  Every int comes from one ``liealg.IntAlgebra``: the
structure constants over their scale s, the inverse invariant form, the
dual-mode metric and the torus weights.  Every cell operator is kept for
the whole run as sparse int columns over one positive int scale per cell
(``ScaledColumns``): d = D / delta in lowest terms, from the int block
s*d, which is not kept; d* = S / sigma; the Laplacian L = d*d + dd* =
L_int / lambda; the Casimir C = C_int / gamma.  ``Fraction`` is left at the boundary: the
predicted Casimir values and the report; harmonic vectors are sparse
primitive int vectors.

Weight blocks.  d is checked to join only monomials of equal torus
weight, which makes d* and L weight-blocked too; the Casimir is checked
explicitly to join no two weights.  Dense int matrices are cut from the
columns only where an elimination needs them, one weight block at a time:
the ranks of d and the kernel of L, both unchanged by the scales.  Every
other check applies int columns to int vectors, with each identity
multiplied through by the scales: self-adjointness (G_i L_ij = G_j L_ji),
closedness and co-closedness of harmonic vectors, d^2 = 0, L + Casimir =
c*k*Id and the Casimir's minimal polynomial.  Every cell, empty or not,
takes this one path; an empty cell has no column and no weight block.

Sign conventions.  The positive semi-definite cell Laplacian acts on the
isotypic component of lowest weight lam at energy k by the scalar
c*k + <rho, lam> - ||lam||^2/2, the negative of ``eigenvalue_of`` (which
follows the closed-form operator of the semi-infinite model; see the
fock module).  Harmonicity, the vanishing locus, is the same either way.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from . import exactlinalg as xl
from .liealg import AlgebraData, FiniteWeight, IntAlgebra, InvariantError, casimir_eigenvalue, int_algebra
from .reptheory import IrrepSummand, WeightMultiset, decompose, weights_of_basis
from .affine import AffineWeight, laplacian_shift

Weight = Tuple[int, ...]  # torus weight in simple-root coordinates


def _bits(mono: int) -> Iterator[int]:
    """The set bit positions of an int monomial, ascending."""
    while mono:
        low = mono & -mono
        yield low.bit_length() - 1
        mono ^= low


def _below(bit: int) -> int:
    """The mask of every bit below ``bit``."""
    return (1 << bit) - 1


@dataclass(frozen=True)
class CochainBasis:
    """One (degree, energy) cell's monomials in basis order, each with its torus weight label."""

    degree: int
    energy: int
    monomials: Tuple[int, ...]  # int monomials: bit (level - 1) * n + i is the mode e^{i,level}
    n: int  # dim g
    weights: Tuple[Weight, ...]  # torus weight of each monomial, the sum of its dual modes' weights

    def __len__(self) -> int:
        return len(self.monomials)

    def index(self) -> Dict[int, int]:
        return {m: i for i, m in enumerate(self.monomials)}


def _signatures(p: int, k: int, n: int) -> Iterable[Tuple[int, ...]]:
    """Level multisets (ascending tuples) with p parts summing to k, each
    level used at most n times (wedge exclusion within one level)."""

    def rec(min_level: int, parts: int, total: int):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for level in range(min_level, total - parts + 2):
            max_count = min(n, parts, total // level)
            for count in range(1, max_count + 1):
                if level * count > total - (parts - count):
                    continue
                for rest in rec(level + 1, parts - count, total - level * count):
                    yield (level,) * count + rest

    return rec(1, p, k)


def build_basis(data: AlgebraData, p: int, k: int) -> CochainBasis:
    """Canonical basis of the (degree p, energy k) cell.

    Monomials are grouped by level signature (signatures in lex order),
    then by lexicographic index combinations per level, the lowest level
    varying slowest; a wedge's modes ascend in (level, index), which is
    ascending bit order.  The (0, 0) cell holds the empty wedge 0 alone;
    p = 0 < k, k = 0 < p and p > k give no monomial.  A dual mode e^{i,level}
    weighs minus ``data.basis_weights[i]``, so each (level, count) index
    combination is kept with its mask and weight, summed into each label.
    """
    if p < 0 or k < 0:
        raise ValueError("degree and energy must be nonnegative")
    n, dual = data.dim, [tuple(-c for c in w) for w in data.basis_weights]
    combos: Dict[Tuple[int, int], List[Tuple[int, Weight]]] = {}  # (level, count) -> one level's (mask, weight)s
    cell: List[Tuple[int, Weight]] = []
    for sig in sorted(_signatures(p, k, n)):
        monos = [(0, (0,) * len(dual[0]))]
        for level in sorted(set(sig)):
            key = (level, sig.count(level))
            if key not in combos:
                base = (level - 1) * n
                combos[key] = [(sum(1 << (base + i) for i in c), tuple(map(sum, zip(*(dual[i] for i in c)))))
                               for c in itertools.combinations(range(n), key[1])]
            monos = [(x | y, tuple(map(add, v, w))) for x, v in monos for y, w in combos[key]]
        cell.extend(monos)
    monomials, weights = zip(*cell) if cell else ((), ())
    return CochainBasis(p, k, monomials, n, weights)


@dataclass
class GradedComplexBlock:
    basisIn: CochainBasis
    basisOut: CochainBasis
    dMatrix: Dict[Tuple[int, int], int]  # (row, col) -> nonzero entry, an int on Chevalley data and on an IntAlgebra


def split_mode(action: Sequence[Dict[int, List[Tuple[int, int]]]], m: int, level: int, lo: int, hi: int) -> List[tuple]:
    """d(e^{m,level}) = - sum C_{ab}^m e^{a,l1} ^ e^{b,l2} as flat terms
    (a, l1, b, l2, c), c = -C_{ab}^m read from the coadjoint table
    (``action[a][m]`` lists (b, -C_{ab}^m)), over the levels l1 + l2 =
    level with lo <= l1 <= l2 <= hi.  Each unordered mode pair comes once,
    so a < b where l1 = l2; the terms run by l1, then a, then the table's
    order.  The one splitting rule of both routes: the cochain complex
    reads it with lo = 1, the identity harness over its whole window."""
    return [(a, l1, b, level - l1, c)
            for l1 in range(max(lo, level - hi), level // 2 + 1)
            for a, acting in enumerate(action)
            for b, c in acting.get(m, ())
            if l1 < level - l1 or a < b]


def differential_block(data: AlgebraData | IntAlgebra, basis_in: CochainBasis,
                       basis_out: CochainBasis) -> GradedComplexBlock:
    """Chevalley-Eilenberg differential A^p(k) -> A^{p+1}(k) between the
    bases ``build_basis`` gives for the two cells, from ``data.dim`` and
    ``data.action`` (``liealg.coadjoint_action``) alone, so its entries have
    the structure constants' type: ints on Chevalley data; s*d in ints on
    an ``IntAlgebra``, s its ``scale``; rationals on ``orthogonal_cartan``.

    d(e^{m,l}) is ``split_mode`` at levels >= 1; a split table row per
    mode bit (built when the bit first occurs) holds its terms as (u | v,
    mask, -C_{uv}^m): with rest the monomial without the split mode, a
    term needs rest & (u | v) = 0, and moving the mode out and u, v in has
    the sign (-1)^popcount(rest & mask), mask the bits below the mode,
    below u and below v, xor-ed."""
    out_index = basis_out.index()
    n = data.dim
    table: Dict[int, List[Tuple[int, int, int]]] = {}

    def split(bit: int) -> List[Tuple[int, int, int]]:
        level, m = bit // n + 1, bit % n
        row, below = [], _below(bit)
        for a, l1, b, l2, c in split_mode(data.action, m, level, 1, level - 1):
            u, v = 1 << (l1 - 1) * n + a, 1 << (l2 - 1) * n + b
            row.append((u | v, below ^ (v - u), c))  # u < v: the bits below u xor those below v
        return row

    entries: Dict[Tuple[int, int], int] = {}
    for col, mono in enumerate(basis_in.monomials):
        column: Dict[int, int] = {}
        for bit in _bits(mono):
            rest = mono ^ (1 << bit)
            row = table.get(bit)
            if row is None:
                row = table[bit] = split(bit)
            for uv, mask, c in row:
                if not rest & uv:
                    new = rest | uv
                    column[new] = column.get(new, 0) + (-c if (rest & mask).bit_count() & 1 else c)
        for new, x in column.items():
            if x:
                entries[(out_index[new], col)] = x
    return GradedComplexBlock(basis_in, basis_out, entries)


def wedge_gram(metric: Sequence, basis: CochainBasis) -> List:
    """Diagonal of the Gram of wedge monomials for a diagonal mode metric
    (``metric[i]`` for basis index i at every level).  A Gram entry, the
    determinant of two monomials' pairwise mode metrics, is then the
    product of the modes' entries for equal monomials and 0 otherwise.
    An int metric gives int entries.
    """
    n = basis.n
    return [prod(metric[b % n] for b in _bits(mono)) for mono in basis.monomials]


Columns = Dict[int, Dict[int, int]]  # sparse int operator: column -> {row: nonzero entry}


@dataclass
class ScaledColumns:
    """A cell operator as sparse int columns over one positive int scale:
    the operator is ``columns / scale``."""

    columns: Columns
    scale: int


def _lowest_terms(columns: Columns, scale: int) -> ScaledColumns:
    """``columns / scale`` with the common factor of the scale and every entry divided out."""
    g = gcd(scale, *(x for col in columns.values() for x in col.values()))
    if g > 1:
        columns = {c: {r: x // g for r, x in col.items()} for c, col in columns.items()}
    return ScaledColumns(columns, scale // g)


def _apply(op: Columns, vec: Dict[int, int], shift: int = 0) -> Dict[int, int]:
    """(op - shift*Id) applied to a sparse vector, zeros dropped."""
    out: Dict[int, int] = {}
    get = out.get
    for j, x in vec.items():
        col = op.get(j)
        if col:
            for i, a in col.items():
                out[i] = get(i, 0) + a * x
        if shift:
            out[j] = get(j, 0) - shift * x
    return {i: x for i, x in out.items() if x}


def _dense_block(op: Columns, rows: Sequence[int], cols: Sequence[int]) -> List[List[int]]:
    """Dense block of a sparse operator on the given rows and columns, the
    input of an elimination; every entry of those columns must lie in ``rows``."""
    pos = {r: a for a, r in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for b, c in enumerate(cols):
        for r, x in op.get(c, {}).items():
            out[pos[r]][b] = x
    return out


def _per_cell(method):
    """A ``CellComplex`` method of (p, k) memoised in ``self._kept`` under
    (its name, p, k), so its body runs once per cell and run."""
    @functools.wraps(method)
    def kept(self, p: int, k: int):
        key = (method.__name__, p, k)
        if key not in self._kept:
            self._kept[key] = method(self, p, k)
        return self._kept[key]

    return kept


class CellComplex:
    """Lazy per-algebra store of the cell operators, kept for the whole run.

    ``self.data`` is the Chevalley algebra, which names irreps and Casimir
    values; every operator is built from ``self.alg``, its ``IntAlgebra``,
    so the diagonal wedge Gram of a degree-p cell (``gram``) is
    ``alg.metric_scale`` ** p times the true one.  Besides bases (with
    their int weight labels) and Grams it keeps d (not the int block it is
    read from), d* and the Laplacian L as ``ScaledColumns`` (int columns
    over one int scale per cell), each under one memo rule (``_per_cell``),
    and the run's ``CasimirTables``.  Dense matrices exist only as inputs
    to an elimination, cut from the columns by ``_dense_block``: each
    weight block of d for its rank, and each weight block of L for its
    kernel.  Every other check applies the int columns to int vectors.
    """

    def __init__(self, data: AlgebraData):
        self.data = data
        self.alg = int_algebra(data)
        self.casimir_tables = CasimirTables(self.alg)
        self._kept: Dict[Tuple[str, int, int], object] = {}

    @_per_cell
    def basis(self, p: int, k: int) -> CochainBasis:
        return build_basis(self.alg, p, k)

    @_per_cell
    def weight_blocks(self, p: int, k: int) -> Dict[Weight, List[int]]:
        """Monomial indices of each torus weight, in basis order; the
        weights in sorted order."""
        groups: Dict[Weight, List[int]] = {}
        for i, w in enumerate(self.basis(p, k).weights):
            groups.setdefault(w, []).append(i)
        return {w: groups[w] for w in sorted(groups)}

    @_per_cell
    def weight_multiset(self, p: int, k: int) -> WeightMultiset:
        """Torus-weight multiset of the (p, k) basis, its labels counted by
        ``weights_of_basis`` once per cell for the Weyl and isotypic checks."""
        return weights_of_basis(self.basis(p, k))

    @_per_cell
    def differential(self, p: int, k: int) -> ScaledColumns:
        """d: A^p(k) -> A^{p+1}(k) as D / delta in lowest terms, the int
        block s*d between the memoised bases over s, after a check that
        every entry joins equal torus weights; only the columns are kept."""
        block = differential_block(self.alg, self.basis(p, k), self.basis(p + 1, k))
        w_in, w_out = block.basisIn.weights, block.basisOut.weights
        out: Columns = {}
        for (r, c), v in block.dMatrix.items():
            if w_out[r] != w_in[c]:
                raise InvariantError(f"d^{p} at energy {k} joins different torus weights")
            out.setdefault(c, {})[r] = v
        return _lowest_terms(out, self.alg.scale)

    def d_squared_zero(self, p: int, k: int) -> bool:
        """d^{p+1} d^p = 0 at energy k, checked column by column; d^{p+1}
        is built only once d^p has a column to apply it to."""
        d = self.differential
        return not any(_apply(d(p + 1, k).columns, col) for col in d(p, k).columns.values())

    @_per_cell
    def block_ranks(self, p: int, k: int) -> Dict[Weight, int]:
        """Fraction-free rank of each weight block of d^p at energy k that
        has both a source and a target."""
        d, g_out = self.differential(p, k).columns, self.weight_blocks(p + 1, k)
        return {
            w: xl.rank(_dense_block(d, g_out[w], idxs))
            for w, idxs in self.weight_blocks(p, k).items()
            if w in g_out
        }

    def rank_d(self, p: int, k: int) -> int:
        """Rank of d: A^p(k) -> A^{p+1}(k), the sum of its weight blocks' ranks."""
        return sum(self.block_ranks(p, k).values())

    @_per_cell
    def gram(self, p: int, k: int) -> List[int]:
        """Diagonal of the wedge Gram of cell (p, k) in basis order, times
        ``alg.metric_scale`` ** p."""
        return wedge_gram(self.alg.metric, self.basis(p, k))

    @_per_cell
    def codifferential(self, p: int, k: int) -> ScaledColumns:
        """Adjoint of d: A^p -> A^{p+1} in the wedge metrics, as int columns
        over A^{p+1}.  With d = D / delta and the scaled Grams G, d* is the
        scaled transpose d*[i][j] = D[j][i] * G_out[j] / (M * delta *
        G_in[i]), M the metric scale; the row factors 1 / G_in[i] are
        brought to the lcm of G_in, which goes into the scale."""
        d = self.differential(p, k)
        g_in, g_out = self.gram(p, k), self.gram(p + 1, k)
        common = lcm(*g_in)
        out: Columns = {}
        for i, col in d.columns.items():
            row = common // g_in[i]
            for j, x in col.items():
                out.setdefault(j, {})[i] = x * g_out[j] * row
        return _lowest_terms(out, self.alg.metric_scale * d.scale * common)

    @_per_cell
    def laplacian(self, p: int, k: int) -> ScaledColumns:
        """The Laplacian d*d + dd* of cell (p, k) as int columns over one
        scale, one column for every monomial, checked to be self-adjoint
        in the metric: G_i * L_ij = G_j * L_ji."""
        terms = [(self.codifferential(p, k), self.differential(p, k))]  # (left, right): left after right
        if p > 0:
            terms.append((self.differential(p - 1, k), self.codifferential(p - 1, k)))
        scale = lcm(*(left.scale * right.scale for left, right in terms))
        factors = [(left.columns, right.columns, scale // (left.scale * right.scale)) for left, right in terms]
        out: Columns = {}
        for j in range(len(self.basis(p, k))):
            col: Dict[int, int] = {}
            for left, right, f in factors:
                for i, x in _apply(left, {r: f * y for r, y in right.get(j, {}).items()}).items():
                    col[i] = col.get(i, 0) + x
            out[j] = {i: x for i, x in col.items() if x}
        g = self.gram(p, k)
        if any(g[i] * x != g[j] * out[i].get(j, 0) for j, col in out.items() for i, x in col.items()):
            raise InvariantError(f"Laplacian of cell ({p}, {k}) is not self-adjoint in the cell metric")
        return _lowest_terms(out, scale)


def eigenvalue_of(data: AlgebraData, lowestWeight: Sequence[int | Fraction], energy: int) -> Fraction:
    """Closed-form scalar of the twisted Laplacian on a lowest-weight irrep.

    Returns -<rho, lam> + ||lam||^2/2 - c*k and checks it equals
    (||lam_hat - rho_hat||^2 - ||rho_hat||^2)/2 under the affine pairing.
    The positive semi-definite cell Laplacian acts by the negative of this.
    """
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    value = casimir_eigenvalue(data, lowestWeight) - data.coxeter * energy  # raises unless antidominant
    affine = laplacian_shift(data, AffineWeight(energy, tuple(lowestWeight), 0))
    if value != affine:
        raise InvariantError("Theorem-form and pairing-form eigenvalues must agree")
    return value


@dataclass
class HarmonicSpace:
    basis: List[Dict[int, int]]  # sparse primitive int vectors, {cell index: coefficient}
    weight_multiset: Dict[Weight, int]
    decomposition: List[IrrepSummand]


def harmonic_space(cc: CellComplex, p: int, k: int) -> HarmonicSpace:
    """Exact kernel of the cell Laplacian, one torus-weight block at a time.

    The Laplacian commutes with the torus action, so its kernel is the sum
    of the kernels of its weight blocks.  Each block is cut dense from the
    one memoised ``cc.laplacian`` columns, its kernel comes from one
    fraction-free elimination, its dimension is checked against Hodge
    consistency (dim - rank d^p_w - rank d^{p-1}_w, from the ranks
    ``rank_d`` sums), and every kernel vector is checked to be annihilated
    by d and d*; a failure raises ``InvariantError``.  The basis vectors
    are sparse int vectors in cell coordinates, block by block in sorted
    weight order.  An empty cell has no block and an empty kernel.
    """
    L = cc.laplacian(p, k).columns
    d_up, ranks_up = cc.differential(p, k).columns, cc.block_ranks(p, k)
    dstar_down, ranks_down = (cc.codifferential(p - 1, k).columns, cc.block_ranks(p - 1, k)) if p > 0 else ({}, {})

    kernel_vectors: List[Dict[int, int]] = []
    weight_multiset: Dict[Weight, int] = {}
    for w, idxs in cc.weight_blocks(p, k).items():
        kernel = xl.kernel_basis(_dense_block(L, idxs, idxs))
        if len(kernel) != len(idxs) - ranks_up.get(w, 0) - ranks_down.get(w, 0):
            raise InvariantError(f"Hodge consistency fails in cell ({p}, {k})")
        for vec in kernel:
            sparse = {j: x for j, x in zip(idxs, vec) if x}
            if _apply(d_up, sparse):
                raise InvariantError(f"harmonic vector of cell ({p}, {k}) is not closed")
            if _apply(dstar_down, sparse):
                raise InvariantError(f"harmonic vector of cell ({p}, {k}) is not co-closed")
            kernel_vectors.append(sparse)
        if kernel:
            weight_multiset[w] = len(kernel)

    return HarmonicSpace(kernel_vectors, weight_multiset, decompose(cc.data, weight_multiset))


Row = List[Tuple[int, int, int]]  # (new bits, sign mask, coefficient) per term


class CasimirTables:
    """The rows of C = sum_a (G^-1)_{ab} / 2 * A_a A_b, b the partner of a,
    on int monomials, as ints over ``scale`` = 2*e*s^2 (A_a over s, G^-1 over e).

    A_a is a derivation, so A_a A_b on a wedge is a one-body part, A_a A_b
    on one mode, plus a two-body part, A_a and A_b on two different modes.
    ``one_body(bit)`` is the row of sum_a (G^-1)_{ab} A_a A_b on the mode
    ``bit``; ``two_body(b1, b2)``, b1 < b2, the row of sum_a (G^-1)_{ab}
    (A_a (x) A_b + A_b (x) A_a) on the modes b1, b2, both orderings summed
    so that no symmetry of G^-1 is assumed.  A row entry (new, mask, c)
    replaces the row's modes by the bits of ``new``: with rest the
    monomial without them, the term is zero where rest & new is not, and
    otherwise adds c * (-1)^popcount(rest & mask) at rest | new.  A row is
    built from ``alg.action`` (``liealg.coadjoint_action``) when it is first
    read, so only modes and mode pairs that occur cost anything.  Each
    ``CellComplex`` owns one, so the rows live as long as its run.
    """

    def __init__(self, alg: IntAlgebra):
        self.n = alg.dim
        self.scale = 2 * alg.gram_inv_scale * alg.scale ** 2
        self.partners = [(a, b, w) for a, (b, w) in enumerate(alg.gram_inv)]
        self.action = alg.action  # A_g e^m = sum (t, c) c/s e^t over action[g][m]
        self._one: Dict[int, Row] = {}
        self._two: Dict[Tuple[int, int], Row] = {}

    def one_body(self, bit: int) -> Row:
        row = self._one.get(bit)
        if row is None:
            base, m = divmod(bit, self.n)
            act, acc = self.action, {}
            for a, b, w in self.partners:
                for t, c1 in act[b].get(m, ()):
                    for u, c2 in act[a].get(t, ()):
                        acc[u] = acc.get(u, 0) + w * c1 * c2
            row = self._one[bit] = []
            for u, c in acc.items():
                if c:
                    y = base * self.n + u
                    row.append((1 << y, _below(bit) ^ _below(y), c))
        return row

    def two_body(self, b1: int, b2: int) -> Row:
        row = self._two.get((b1, b2))
        if row is None:
            (base1, m1), (base2, m2) = divmod(b1, self.n), divmod(b2, self.n)
            act, acc = self.action, {}
            for a, b, w in self.partners:
                for g1, g2 in ((a, b), (b, a)):
                    for t1, c1 in act[g1].get(m1, ()):
                        for t2, c2 in act[g2].get(m2, ()):
                            acc[t1, t2] = acc.get((t1, t2), 0) + w * c1 * c2
            row = self._two[b1, b2] = []
            mask = _below(b1) ^ _below(b2)
            for (t1, t2), c in acc.items():
                y1, y2 = base1 * self.n + t1, base2 * self.n + t2
                if c and y1 != y2:
                    # the word keeps y1 and y2 in the places of b1 < b2: one more swap if y2 < y1
                    row.append(((1 << y1) | (1 << y2), mask ^ _below(y1) ^ _below(y2), -c if y2 < y1 else c))
        return row


def casimir_matrix(tables: CasimirTables, basis: CochainBasis) -> ScaledColumns:
    """Half the gram-inverse-paired square of the generator action, as int
    columns over one scale: C e_c = sum_a (G^-1)_{ab} / 2 * A_a (A_b e_c),
    b the partner of a.  A column is the sum of the ``tables`` one-body
    rows over its modes and two-body rows over its mode pairs, over the
    tables' scale before lowest terms."""
    index = basis.index()
    out: Columns = {}
    for col, mono in enumerate(basis.monomials):
        bits = list(_bits(mono))
        terms = [(mono ^ (1 << b), tables.one_body(b)) for b in bits]
        terms += [(mono ^ (1 << b1) ^ (1 << b2), tables.two_body(b1, b2)) for b1, b2 in itertools.combinations(bits, 2)]
        column: Dict[int, int] = {}
        for rest, row in terms:
            for new, mask, c in row:
                if not rest & new:
                    key = rest | new
                    column[key] = column.get(key, 0) + (-c if (rest & mask).bit_count() & 1 else c)
        out[col] = {index[m]: x for m, x in column.items() if x}
    return _lowest_terms(out, tables.scale)


@dataclass
class IsotypicVerdict:
    components: List[Tuple[FiniteWeight, Fraction]]  # (lowest weight, PSD Laplacian scalar)
    minimal_polynomial_ok: bool
    laplacian_matches_casimir: bool
    weight_blocked: bool  # the Casimir joins no two torus weights

    @property
    def passed(self) -> bool:
        return self.weight_blocked and self.minimal_polynomial_ok and self.laplacian_matches_casimir


def isotypic_eigen_check(cc: CellComplex, p: int, k: int) -> IsotypicVerdict:
    """Verify the Laplacian acts by the predicted exact scalar per component.

    The sparse Casimir C = C_int / gamma, read from the run's tables
    ``cc.casimir_tables`` so that it is in the basis of the Laplacian, is
    checked to join no two torus weights (``weight_blocked``); the
    Laplacian L = L_int / lambda is the same ``cc.laplacian`` memo that
    ``harmonic_space`` reads, weight-blocked by construction.  Then two exact checks run column by column on int
    vectors: gamma * L_int e_j + lambda * C_int e_j = c*k * lambda * gamma
    * e_j, that is (L + C) e_j = c*k*e_j (``laplacian_matches_casimir``),
    and prod_v (s/gamma * C_int - s*v) e_j = 0 over the predicted Casimir
    values v, s the lcm of gamma and the v's denominators
    (``minimal_polynomial_ok``); an empty cell passes both on no column.

    Each component's verdict follows from these two.  With P_v =
    prod_{v' != v} (C - v') / (v - v') the projector onto the Casimir
    value v, L = c*k - C gives (L - (c*k - v)) P_v = (v - C) P_v =
    -prod_{v'} (C - v') / prod_{v' != v} (v - v'), a nonzero multiple of
    the minimal-polynomial product.  So every component holds exactly when
    both checks pass (``passed``), and no projector product is formed.
    """
    data, basis = cc.data, cc.basis(p, k)
    summands = decompose(data, cc.weight_multiset(p, k))
    C = casimir_matrix(cc.casimir_tables, basis)
    labels = basis.weights
    blocked = all(labels[r] == labels[c] for c, col in C.columns.items() for r in col)

    ck = data.coxeter * k
    # Casimir value v -> (lowest weight, Laplacian scalar c*k - v); ``eigenvalue_of``
    # checks the Theorem-form scalar against the affine pairing form
    values: Dict[Fraction, Tuple[FiniteWeight, Fraction]] = {}
    for s in summands:
        scalar = -eigenvalue_of(data, s.lowestWeight, k)
        values.setdefault(ck - scalar, (s.lowestWeight, scalar))
    vlist = sorted(values)

    L = cc.laplacian(p, k)
    lam, gamma = L.scale, C.scale
    l_matches = all(
        _apply(L.columns, {j: gamma}, ck * lam) == {i: -lam * x for i, x in C.columns.get(j, {}).items()}
        for j in range(len(basis))
    )

    s = lcm(gamma, *(v.denominator for v in vlist))
    mult = s // gamma
    scaled = {c: {r: mult * x for r, x in col.items()} for c, col in C.columns.items()}
    shifts = [v.numerator * (s // v.denominator) for v in vlist]

    def annihilated(j: int) -> bool:
        vec = {j: 1}
        for v in shifts:
            vec = _apply(scaled, vec, v)
        return not vec

    min_poly_ok = all(annihilated(j) for j in range(len(basis)))

    return IsotypicVerdict([values[v] for v in vlist], min_poly_ok, l_matches, blocked)
