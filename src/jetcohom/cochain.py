"""Exact energy-graded Chevalley-Eilenberg pipeline.

Cochains of the positive-mode algebra are wedges of dual modes e^{i,l}
with level l >= 1; the differential preserves the energy k = sum of
levels, so everything happens in independent (degree, energy) cells.
``CellComplex`` works in the orthogonal Cartan basis of
``orthogonal_cartan``, where the metric induced by the compact involution
is diagonal, so the wedge Gram is diagonal and d* a scaled transpose.
Every verdict is independent of the basis.

Scaled int columns.  Every int comes from one ``liealg.IntAlgebra``: the
structure constants over their scale s, the inverse invariant form, the
dual-mode metric and the torus weights.  Every cell operator is kept for
the whole run as sparse int columns over one positive int scale per cell
(``ScaledColumns``): d = D / delta in lowest terms, from the int block
s*d; d* = S / sigma; the Laplacian L = d*d + dd* = L_int / lambda; the
Casimir C = C_int / gamma.  ``Fraction`` is left at the boundary: the
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

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Dict, Iterable, List, Sequence, Tuple

from . import exactlinalg as xl
from .liealg import AlgebraData, FiniteWeight, IntAlgebra, InvariantError, casimir_eigenvalue, int_algebra, is_dominant
from .reptheory import IrrepSummand, WeightMultiset, decompose, weights_of_basis
from .affine import AffineWeight, laplacian_shift

Mode = Tuple[int, int]  # (level >= 1, basis index)
Wedge = Tuple[Mode, ...]
Weight = Tuple[int, ...]  # torus weight in simple-root coordinates


@dataclass(frozen=True)
class CochainBasis:
    degree: int
    energy: int
    monomials: Tuple[Wedge, ...]

    def __len__(self) -> int:
        return len(self.monomials)

    def index(self) -> Dict[Wedge, int]:
        return {w: i for i, w in enumerate(self.monomials)}


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
    then by lexicographic index combinations per level; within a wedge,
    modes are ascending in (level, index).  The (0, 0) cell holds the
    empty wedge alone; p = 0 < k, k = 0 < p and p > k give no monomial.
    """
    if p < 0 or k < 0:
        raise ValueError("degree and energy must be nonnegative")
    n = data.dim
    monomials: List[Wedge] = []
    for sig in sorted(_signatures(p, k, n)):
        levels = sorted(set(sig))
        per_level = [
            list(itertools.combinations(range(n), sig.count(level))) for level in levels
        ]
        for combo in itertools.product(*per_level):
            wedge: List[Mode] = []
            for level, idxs in zip(levels, combo):
                wedge.extend((level, a) for a in idxs)
            monomials.append(tuple(wedge))
    return CochainBasis(p, k, tuple(monomials))


def _insert_modes(wedge: Sequence[Mode], skip: int, new: Sequence[Mode]) -> Tuple[int, Wedge] | None:
    """Orientation of new_1 ^ ... ^ new_q ^ (wedge minus position ``skip``)
    against the sorted wedge: (sign, sorted wedge), or None on a repeat.

    The caller accounts for the extra (-1)^(q * skip) that moves the block
    from position ``skip`` to the front.
    """
    out = list(wedge)
    del out[skip]
    sign = 1
    for m in reversed(new):
        lo = bisect_left(out, m)
        if lo < len(out) and out[lo] == m:
            return None
        # moving m past the first `lo` factors
        if lo % 2:
            sign = -sign
        out.insert(lo, m)
    return sign, tuple(out)


@dataclass
class GradedComplexBlock:
    basisIn: CochainBasis
    basisOut: CochainBasis
    dMatrix: Dict[Tuple[int, int], int]  # (row, col) -> nonzero entry, an int on Chevalley data and on an IntAlgebra

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.basisOut), len(self.basisIn))


def differential_block(data: AlgebraData | IntAlgebra, p: int, k: int) -> GradedComplexBlock:
    """Chevalley-Eilenberg differential A^p(k) -> A^{p+1}(k) from ``data.dim``
    and ``data.structure`` alone, so its entries have the structure
    constants' type: ints on Chevalley data; s*d in ints on an
    ``IntAlgebra``, s its ``scale``; rationals on ``orthogonal_cartan`` data."""
    basis_in = build_basis(data, p, k)
    basis_out = build_basis(data, p + 1, k)
    out_index = basis_out.index()
    entries: Dict[Tuple[int, int], int] = {}
    n = data.dim
    for col, wedge in enumerate(basis_in.monomials):
        for j, (level, m) in enumerate(wedge):
            outer_sign = -1 if j % 2 else 1
            # d(e^{m,level}) = - sum_{u<v} C_{uv}^m e^u ^ e^v over mode pairs
            for l1 in range(1, level // 2 + 1):
                l2 = level - l1
                for a in range(n):
                    col_a = data.structure[a]
                    for b, coeffs in col_a.items():
                        c = coeffs.get(m)
                        if c is None:
                            continue
                        u, v = (l1, a), (l2, b)
                        if u >= v:
                            continue  # each unordered mode pair once, ascending
                        ins = _insert_modes(wedge, j, (u, v))
                        if ins is None:
                            continue
                        sign, new_wedge = ins
                        row = out_index[new_wedge]
                        val = entries.get((row, col), 0) - outer_sign * sign * c
                        if val:
                            entries[(row, col)] = val
                        else:
                            entries.pop((row, col), None)
    return GradedComplexBlock(basis_in, basis_out, entries)


def wedge_gram(metric: Sequence, basis: CochainBasis) -> List:
    """Diagonal of the Gram of wedge monomials for a diagonal mode metric
    (``metric[i]`` for basis index i at every level).  A Gram entry, the
    determinant of two monomials' pairwise mode metrics, is then the
    product of the modes' entries for equal monomials and 0 otherwise.
    An int metric gives int entries.
    """
    return [prod(metric[idx] for _level, idx in w) for w in basis.monomials]


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


class CellComplex:
    """Lazy per-algebra store of the cell operators, kept for the whole run.

    ``self.data`` is the Chevalley algebra, which names irreps and Casimir
    values; every operator is built from ``self.alg``, its ``IntAlgebra``,
    so the diagonal wedge Gram of a degree-p cell (``gram``) is
    ``alg.metric_scale`` ** p times the true one.  Besides bases, int
    weight labels and Grams it keeps the int blocks s*d and d, d* and the
    Laplacian L as ``ScaledColumns`` (int columns over one int scale per
    cell), one memo entry each.  Dense matrices exist only as inputs to an
    elimination, cut from the columns by ``_dense_block``: each weight
    block of d for its rank, and each weight block of L for its kernel.
    Every other check applies the int columns to int vectors.
    """

    def __init__(self, data: AlgebraData):
        self.data = data
        self.alg = int_algebra(data)
        self._kept: Dict[Tuple[str, int, int], object] = {}

    def _memo(self, name: str, p: int, k: int, build):
        key = (name, p, k)
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def basis(self, p: int, k: int) -> CochainBasis:
        return self._memo("basis", p, k, lambda: build_basis(self.alg, p, k))

    def block(self, p: int, k: int) -> GradedComplexBlock:
        """The int block s*d of d: A^p(k) -> A^{p+1}(k), which also gives
        the bases of both cells."""

        def build():
            block = differential_block(self.alg, p, k)
            self._kept[("basis", p, k)], self._kept[("basis", p + 1, k)] = block.basisIn, block.basisOut
            return block

        return self._memo("block", p, k, build)

    def weights(self, p: int, k: int) -> List[Weight]:
        """Torus weight of each monomial of the (p, k) basis, as int tuples."""

        def build():
            out = []
            for wedge in self.basis(p, k).monomials:
                w = [0] * self.alg.data.rank
                for _level, idx in wedge:
                    for i, c in enumerate(self.alg.weights[idx]):
                        w[i] -= c  # the dual mode has the opposite weight
                out.append(tuple(w))
            return out

        return self._memo("weights", p, k, build)

    def weight_blocks(self, p: int, k: int) -> Dict[Weight, List[int]]:
        """Monomial indices of each torus weight, in basis order; the
        weights in sorted order."""

        def build():
            groups: Dict[Weight, List[int]] = {}
            for i, w in enumerate(self.weights(p, k)):
                groups.setdefault(w, []).append(i)
            return {w: groups[w] for w in sorted(groups)}

        return self._memo("groups", p, k, build)

    def weight_multiset(self, p: int, k: int) -> WeightMultiset:
        """Torus-weight multiset of the (p, k) basis from ``weights_of_basis``,
        built once per cell for the Weyl-symmetry and isotypic checks, and
        checked to count the int labels' weight blocks."""

        def build():
            multiset = weights_of_basis(self.alg.data, self.basis(p, k))
            if multiset != {w: len(idxs) for w, idxs in self.weight_blocks(p, k).items()}:
                raise InvariantError(f"weight labels of cell ({p}, {k}) disagree with its weight multiset")
            return multiset

        return self._memo("multiset", p, k, build)

    def differential(self, p: int, k: int) -> ScaledColumns:
        """d: A^p(k) -> A^{p+1}(k) as D / delta in lowest terms, the int
        block s*d over s, after a check that every entry joins equal torus
        weights."""

        def build():
            w_in, w_out = self.weights(p, k), self.weights(p + 1, k)
            out: Columns = {}
            for (r, c), v in self.block(p, k).dMatrix.items():
                if w_out[r] != w_in[c]:
                    raise InvariantError(f"d^{p} at energy {k} joins different torus weights")
                out.setdefault(c, {})[r] = v
            return _lowest_terms(out, self.alg.scale)

        return self._memo("d", p, k, build)

    def d_squared_zero(self, p: int, k: int) -> bool:
        """d^{p+1} d^p = 0 at energy k, checked column by column; d^{p+1}
        is built only once d^p has a column to apply it to."""
        d = self.differential
        return not any(_apply(d(p + 1, k).columns, col) for col in d(p, k).columns.values())

    def block_ranks(self, p: int, k: int) -> Dict[Weight, int]:
        """Fraction-free rank of each weight block of d^p at energy k that
        has both a source and a target, computed once per run."""

        def build():
            d, g_out = self.differential(p, k).columns, self.weight_blocks(p + 1, k)
            return {
                w: xl.rank(_dense_block(d, g_out[w], idxs))
                for w, idxs in self.weight_blocks(p, k).items()
                if w in g_out
            }

        return self._memo("ranks", p, k, build)

    def rank_d(self, p: int, k: int) -> int:
        """Rank of d: A^p(k) -> A^{p+1}(k), the sum of its weight blocks' ranks."""
        return sum(self.block_ranks(p, k).values())

    def gram(self, p: int, k: int) -> List[int]:
        """Diagonal of the wedge Gram of cell (p, k) in basis order, times
        ``alg.metric_scale`` ** p."""
        return self._memo("gram", p, k, lambda: wedge_gram(self.alg.metric, self.basis(p, k)))

    def codifferential(self, p: int, k: int) -> ScaledColumns:
        """Adjoint of d: A^p -> A^{p+1} in the wedge metrics, as int columns
        over A^{p+1}.  With d = D / delta and the scaled Grams G, d* is the
        scaled transpose d*[i][j] = D[j][i] * G_out[j] / (M * delta *
        G_in[i]), M the metric scale; the row factors 1 / G_in[i] are
        brought to the lcm of G_in, which goes into the scale."""

        def build():
            d = self.differential(p, k)
            g_in, g_out = self.gram(p, k), self.gram(p + 1, k)
            common = lcm(*g_in)
            out: Columns = {}
            for i, col in d.columns.items():
                row = common // g_in[i]
                for j, x in col.items():
                    out.setdefault(j, {})[i] = x * g_out[j] * row
            return _lowest_terms(out, self.alg.metric_scale * d.scale * common)

        return self._memo("codifferential", p, k, build)

    def laplacian(self, p: int, k: int) -> ScaledColumns:
        """The Laplacian d*d + dd* of cell (p, k) as int columns over one
        scale, one column for every monomial, checked to be self-adjoint
        in the metric: G_i * L_ij = G_j * L_ji."""

        def build():
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

        return self._memo("laplacian", p, k, build)


def eigenvalue_of(data: AlgebraData, lowestWeight: Sequence[Fraction], energy: int) -> Fraction:
    """Closed-form scalar of the twisted Laplacian on a lowest-weight irrep.

    Returns -<rho, lam> + ||lam||^2/2 - c*k and checks it equals
    (||lam_hat - rho_hat||^2 - ||rho_hat||^2)/2 under the affine pairing.
    The positive semi-definite cell Laplacian acts by the negative of this.
    """
    lam = tuple(Fraction(x) for x in lowestWeight)
    if not is_dominant(data, tuple(-x for x in lam)):
        raise ValueError("lowest weight must be antidominant")
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    value = casimir_eigenvalue(data, lam) - data.coxeter * energy
    affine = laplacian_shift(data, AffineWeight(Fraction(energy), lam, Fraction(0)))
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


def _action_matrix(coefficients: Dict[int, List[Tuple[int, int]]], basis: CochainBasis,
                   index: Dict[Wedge, int]) -> Columns:
    """Int columns of one generator's coadjoint action on a cell (derivation,
    no sign); ``coefficients`` maps a mode index m to the pairs (b,
    s*C_{gen b}^m)."""
    out: Columns = {}
    for col, wedge in enumerate(basis.monomials):
        column: Dict[int, int] = {}
        for j, (level, m) in enumerate(wedge):
            pos_sign = -1 if j % 2 else 1  # single replaced factor: (-1)^skip
            # gen . e^{m,level} = - sum_b C_{gen b}^{m} e^{b,level}
            for b, c in coefficients.get(m, ()):
                ins = _insert_modes(wedge, j, ((level, b),))
                if ins is None:
                    continue
                sign, new_wedge = ins
                row = index[new_wedge]
                column[row] = column.get(row, 0) - pos_sign * sign * c
        out[col] = {r: v for r, v in column.items() if v}
    return out


def casimir_matrix(alg: IntAlgebra, basis: CochainBasis) -> ScaledColumns:
    """Half the gram-inverse-paired square of the generator action, as int
    columns over one scale: C e_c = sum_a (G^-1)_{ab} / 2 * A_a (A_b e_c),
    b the partner of a.  The actions are over s and G^-1 over e, so the
    scale is 2*e*s^2 before lowest terms."""
    index = basis.index()
    actions = []
    for row in alg.structure:
        by_mode: Dict[int, List[Tuple[int, int]]] = {}
        for b, col in row.items():
            for m, c in col.items():
                by_mode.setdefault(m, []).append((b, c))
        actions.append(_action_matrix(by_mode, basis, index))
    out: Columns = {}
    for c in range(len(basis)):
        column: Dict[int, int] = {}
        for a, (b, w) in enumerate(alg.gram_inv):
            for r, x in _apply(actions[a], actions[b][c]).items():
                column[r] = column.get(r, 0) + w * x
        out[c] = {r: x for r, x in column.items() if x}
    return _lowest_terms(out, 2 * alg.gram_inv_scale * alg.scale ** 2)


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

    The sparse Casimir C = C_int / gamma, built from ``cc.alg`` so that it
    is in the basis of the Laplacian, is checked to join no two torus
    weights (``weight_blocked``); the Laplacian L = L_int / lambda is the
    same ``cc.laplacian`` memo that ``harmonic_space`` reads, weight-blocked
    by construction.  Then two exact checks run column by column on int
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
    C = casimir_matrix(cc.alg, basis)
    labels = cc.weights(p, k)
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
