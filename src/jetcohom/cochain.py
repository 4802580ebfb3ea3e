"""Exact energy-graded Chevalley-Eilenberg pipeline.

Cochains of the positive-mode algebra are wedges of dual modes e^{i,l}
with level l >= 1; the differential preserves the energy k = sum of
levels, so everything happens in independent (degree, energy) cells.
Matrices are exact rationals, and kernels come from fraction-free
elimination.  ``CellComplex`` works in the orthogonal Cartan basis of
``orthogonal_cartan``, where the metric induced by the compact involution
is diagonal, so the wedge Gram is diagonal and d* a scaled transpose; d
is rational there.  Every verdict is independent of the basis.

Sparse columns and weight blocks.  d, d* and the Laplacian L = d*d + dd*
are kept as sparse columns for the whole run, and d is checked to join
only monomials of equal torus weight, which makes d* and L weight-blocked
too; the sparse Casimir is checked explicitly to join no two weights.
Dense matrices are formed only where an elimination needs them, one weight
block at a time: the ranks of d and the kernel of L.  Every other check
applies sparse columns to sparse vectors: self-adjointness, closedness
and co-closedness of harmonic vectors, d^2 = 0, L + Casimir = c*k*Id and
the Casimir's minimal polynomial.

Sign conventions.  The positive semi-definite cell Laplacian acts on the
isotypic component of lowest weight lam at energy k by the scalar
c*k + <rho, lam> - ||lam||^2/2, the negative of ``eigenvalue_of`` (which
follows the closed-form operator of the semi-infinite model; see the
fock module).  Harmonicity, the vanishing locus, is the same either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Dict, Iterable, List, Sequence, Tuple

from . import exactlinalg as xl
from .liealg import AlgebraData, FiniteWeight, InvariantError, casimir_eigenvalue, is_dominant, orthogonal_cartan
from .reptheory import IrrepSummand, decompose, weights_of_basis
from .affine import AffineWeight, laplacian_shift

Mode = Tuple[int, int]  # (level >= 1, basis index)
Wedge = Tuple[Mode, ...]
Blocks = Dict[FiniteWeight, xl.Matrix]  # torus weight -> dense matrix over that weight's monomials


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
    modes are ascending in (level, index).
    """
    if p < 0 or k < 0:
        raise ValueError("degree and energy must be nonnegative")
    n = data.dim
    if p == 0:
        return CochainBasis(0, k, ((),) if k == 0 else ())
    if k == 0 or p > k:
        return CochainBasis(p, k, ())
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
    rest = [m for i, m in enumerate(wedge) if i != skip]
    out = list(rest)
    sign = 1
    for m in reversed(new):
        lo = 0
        hi = len(out)
        while lo < hi:
            mid = (lo + hi) // 2
            if out[mid] < m:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(out) and out[lo] == m:
            return None
        # moving m past the first `lo` factors
        sign *= -1 if lo % 2 else 1
        out.insert(lo, m)
    return sign, tuple(out)


@dataclass
class GradedComplexBlock:
    basisIn: CochainBasis
    basisOut: CochainBasis
    dMatrix: Dict[Tuple[int, int], int]  # (row, col) -> integer entry

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.basisOut), len(self.basisIn))

    def dense(self) -> List[List[Fraction]]:
        rows, cols = self.shape
        out = xl.zeros(rows, cols)
        for (r, c), v in self.dMatrix.items():
            out[r][c] = Fraction(v)
        return out


def differential_block(data: AlgebraData, p: int, k: int) -> GradedComplexBlock:
    """Chevalley-Eilenberg differential A^p(k) -> A^{p+1}(k), exact integers."""
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


def wedge_gram(metric: Sequence[Fraction], basis: CochainBasis) -> List[Fraction]:
    """Diagonal of the Gram of wedge monomials for a diagonal mode metric
    (``metric[i]`` for basis index i at every level).  A Gram entry, the
    determinant of two monomials' pairwise mode metrics, is then the
    product of the modes' entries for equal monomials and 0 otherwise.
    """
    return [prod((metric[idx] for _level, idx in w), start=Fraction(1)) for w in basis.monomials]


def _weight_of_wedge(data: AlgebraData, wedge: Wedge) -> FiniteWeight:
    w = [Fraction(0)] * data.rank
    for _level, idx in wedge:
        for i, c in enumerate(data.basis_weights[idx]):
            w[i] -= c
    return tuple(w)


Columns = Dict[int, Dict[int, Fraction]]  # sparse operator: column -> {row: nonzero entry}


def _apply(op: Columns, vec: Dict[int, Fraction], shift: Fraction = 0) -> Dict[int, Fraction]:
    """(op - shift*Id) applied to a sparse vector, zeros dropped."""
    out: Dict[int, Fraction] = {}
    for j, x in vec.items():
        for i, a in op.get(j, {}).items():
            out[i] = out.get(i, 0) + a * x
        if shift:
            out[j] = out.get(j, 0) - shift * x
    return {i: x for i, x in out.items() if x}


def _dense_block(op: Columns, rows: Sequence[int], cols: Sequence[int]) -> xl.Matrix:
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

    Everything is built from ``self.data``, the algebra rebased by
    ``orthogonal_cartan``.  Besides bases and weight labels it keeps the
    diagonal wedge Gram of each cell and d, d* and the Laplacian L as
    sparse columns (``Columns``).  Dense matrices exist only as inputs to
    an elimination: each weight block of d for its rank, and each weight
    block of L for its kernel (``laplacian``).  Every other check applies
    the sparse columns to sparse vectors.
    """

    def __init__(self, data: AlgebraData):
        self.data = orthogonal_cartan(data)
        self._metric = [1 / row[i] for i, row in enumerate(self.data.hermGram)]  # of the dual modes
        self._blocks: Dict[Tuple[int, int], GradedComplexBlock] = {}
        self._bases: Dict[Tuple[int, int], CochainBasis] = {}
        self._kept: Dict[Tuple[str, int, int], object] = {}

    def _memo(self, name: str, p: int, k: int, build):
        key = (name, p, k)
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def basis(self, p: int, k: int) -> CochainBasis:
        key = (p, k)
        if key not in self._bases:
            self._bases[key] = build_basis(self.data, p, k)
        return self._bases[key]

    def block(self, p: int, k: int) -> GradedComplexBlock:
        key = (p, k)
        if key not in self._blocks:
            self._blocks[key] = differential_block(self.data, p, k)
            self._bases[(p, k)] = self._blocks[key].basisIn
            self._bases[(p + 1, k)] = self._blocks[key].basisOut
        return self._blocks[key]

    def weights(self, p: int, k: int) -> List[FiniteWeight]:
        """Torus weight of each monomial of the (p, k) basis."""
        return self._memo("weights", p, k, lambda: [_weight_of_wedge(self.data, w) for w in self.basis(p, k).monomials])

    def weight_blocks(self, p: int, k: int) -> Dict[FiniteWeight, List[int]]:
        """Monomial indices of each torus weight, in basis order; the
        weights in sorted order."""

        def build():
            groups: Dict[FiniteWeight, List[int]] = {}
            for i, w in enumerate(self.weights(p, k)):
                groups.setdefault(w, []).append(i)
            return {w: groups[w] for w in sorted(groups)}

        return self._memo("groups", p, k, build)

    def differential(self, p: int, k: int) -> Columns:
        """d: A^p(k) -> A^{p+1}(k) as sparse columns, after a check that
        every entry joins equal torus weights."""

        def build():
            w_in, w_out = self.weights(p, k), self.weights(p + 1, k)
            out: Columns = {}
            for (r, c), v in self.block(p, k).dMatrix.items():
                if w_out[r] != w_in[c]:
                    raise InvariantError(f"d^{p} at energy {k} joins different torus weights")
                out.setdefault(c, {})[r] = v
            return out

        return self._memo("d", p, k, build)

    def d_squared_zero(self, p: int, k: int) -> bool:
        """d^{p+1} d^p = 0 at energy k, checked column by column."""
        d_next = self.differential(p + 1, k)
        return not any(_apply(d_next, col) for col in self.differential(p, k).values())

    def block_ranks(self, p: int, k: int) -> Dict[FiniteWeight, int]:
        """Fraction-free rank of each weight block of d^p at energy k that
        has both a source and a target, computed once per run."""

        def build():
            d, g_out = self.differential(p, k), self.weight_blocks(p + 1, k)
            return {
                w: xl.rank(_dense_block(d, g_out[w], idxs))
                for w, idxs in self.weight_blocks(p, k).items()
                if w in g_out
            }

        return self._memo("ranks", p, k, build)

    def rank_d(self, p: int, k: int) -> int:
        """Rank of d: A^p(k) -> A^{p+1}(k), the sum of its weight blocks' ranks."""
        return sum(self.block_ranks(p, k).values())

    def gram(self, p: int, k: int) -> List[Fraction]:
        """Diagonal of the wedge Gram of cell (p, k), in basis order."""
        return self._memo("gram", p, k, lambda: wedge_gram(self._metric, self.basis(p, k)))

    def codifferential(self, p: int, k: int) -> Columns:
        """Adjoint of d: A^p -> A^{p+1} in the wedge metrics, as sparse
        columns over A^{p+1}: a scaled transpose, d*[i][j] = d[j][i] *
        g_out[j] / g_in[i]."""

        def build():
            g_in, g_out = self.gram(p, k), self.gram(p + 1, k)
            out: Columns = {}
            for i, col in self.differential(p, k).items():
                for j, x in col.items():
                    out.setdefault(j, {})[i] = x * g_out[j] / g_in[i]
            return out

        return self._memo("codifferential", p, k, build)

    def laplacian_columns(self, p: int, k: int) -> Columns:
        """The Laplacian d*d + dd* of cell (p, k) as sparse columns, one
        for every monomial, checked to be self-adjoint in the metric:
        g_i * L_ij = g_j * L_ji."""

        def build():
            up, up_star = self.differential(p, k), self.codifferential(p, k)
            down, down_star = (self.differential(p - 1, k), self.codifferential(p - 1, k)) if p > 0 else ({}, {})
            out: Columns = {}
            for j in range(len(self.basis(p, k))):
                col = _apply(up_star, up.get(j, {}))
                for i, x in _apply(down, down_star.get(j, {})).items():
                    col[i] = col.get(i, 0) + x
                out[j] = {i: x for i, x in col.items() if x}
            g = self.gram(p, k)
            if any(g[i] * x != g[j] * out[i].get(j, 0) for j, col in out.items() for i, x in col.items()):
                raise InvariantError(f"Laplacian of cell ({p}, {k}) is not self-adjoint in the cell metric")
            return out

        return self._memo("laplacian", p, k, build)

    def laplacian(self, p: int, k: int) -> Blocks:
        """Dense weight blocks of the Laplacian of cell (p, k), the input of
        the harmonic kernel; L preserves weight because d does and the
        Gram is diagonal."""
        L = self.laplacian_columns(p, k)
        return {w: _dense_block(L, idxs, idxs) for w, idxs in self.weight_blocks(p, k).items()}


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


def laplacian_scalar(data: AlgebraData, lowestWeight: Sequence[Fraction], energy: int) -> Fraction:
    """Scalar of the PSD Laplacian on the component: -eigenvalue_of."""
    return -eigenvalue_of(data, lowestWeight, energy)


@dataclass
class HarmonicSpace:
    degree: int
    energy: int
    basis: List[List[Fraction]]
    dimension: int
    weight_multiset: Dict[FiniteWeight, int]
    decomposition: List[IrrepSummand]


def harmonic_space(data: AlgebraData, p: int, k: int, complex_: CellComplex | None = None) -> HarmonicSpace:
    """Exact kernel of the cell Laplacian, one torus-weight block at a time.

    The Laplacian commutes with the torus action and is assembled per
    weight block, so its kernel is the sum of the blocks' kernels.  On
    each block the kernel comes from one fraction-free elimination, its
    dimension is checked against Hodge consistency (dim - rank d^p_w -
    rank d^{p-1}_w, from the ranks ``rank_d`` sums), and every kernel
    vector is checked to be annihilated by d and d*; a failure raises
    ``InvariantError``.  The basis vectors are returned in cell
    coordinates, block by block in sorted weight order.
    """
    cc = complex_ or CellComplex(data)
    dim = len(cc.basis(p, k))
    laplacian = cc.laplacian(p, k)
    d_up, ranks_up = cc.differential(p, k), cc.block_ranks(p, k)
    dstar_down, ranks_down = (cc.codifferential(p - 1, k), cc.block_ranks(p - 1, k)) if p > 0 else ({}, {})

    kernel_vectors: List[List[Fraction]] = []
    weight_multiset: Dict[FiniteWeight, int] = {}
    for w, idxs in cc.weight_blocks(p, k).items():
        kernel = xl.kernel_basis(laplacian[w])
        if len(kernel) != len(idxs) - ranks_up.get(w, 0) - ranks_down.get(w, 0):
            raise InvariantError(f"Hodge consistency fails in cell ({p}, {k})")
        for vec in kernel:
            sparse = {j: x for j, x in zip(idxs, vec) if x}
            if _apply(d_up, sparse):
                raise InvariantError(f"harmonic vector of cell ({p}, {k}) is not closed")
            if _apply(dstar_down, sparse):
                raise InvariantError(f"harmonic vector of cell ({p}, {k}) is not co-closed")
            full = [Fraction(0)] * dim
            for j, x in zip(idxs, vec):
                full[j] = x
            kernel_vectors.append(full)
        if kernel:
            weight_multiset[w] = len(kernel)

    decomposition = decompose(data, weight_multiset) if weight_multiset else []
    return HarmonicSpace(
        degree=p,
        energy=k,
        basis=kernel_vectors,
        dimension=len(kernel_vectors),
        weight_multiset=weight_multiset,
        decomposition=decomposition,
    )


def _action_matrix(data: AlgebraData, basis: CochainBasis, gen: int) -> Columns:
    """Sparse columns of the coadjoint generator action on a cell (derivation, no sign)."""
    index = basis.index()
    out: Columns = {}
    for col, wedge in enumerate(basis.monomials):
        column: Dict[int, Fraction] = {}
        for j, (level, m) in enumerate(wedge):
            pos_sign = -1 if j % 2 else 1  # single replaced factor: (-1)^skip
            # gen . e^{m,level} = - sum_b C_{gen b}^{m} e^{b,level}
            for b, coeffs in data.structure[gen].items():
                c = coeffs.get(m)
                if c is None:
                    continue
                ins = _insert_modes(wedge, j, ((level, b),))
                if ins is None:
                    continue
                sign, new_wedge = ins
                row = index[new_wedge]
                column[row] = column.get(row, 0) - pos_sign * sign * c
        out[col] = {r: v for r, v in column.items() if v}
    return out


def casimir_matrix(data: AlgebraData, basis: CochainBasis) -> Columns:
    """Half the gram-inverse-paired square of the generator action, as
    sparse columns: C e_c = sum_{a,b} (G^-1)_{ab} / 2 * A_a (A_b e_c),
    over the generator pairs with a nonzero inverse-Gram entry only."""
    gram_inv = xl.invert([list(r) for r in data.gram])
    actions = [_action_matrix(data, basis, a) for a in range(data.dim)]
    pairs = [(actions[a], actions[b], w / 2) for a, row in enumerate(gram_inv) for b, w in enumerate(row) if w]
    out: Columns = {}
    for c in range(len(basis)):
        column: Dict[int, Fraction] = {}
        for left, right, half in pairs:
            for r, x in _apply(left, right[c]).items():
                column[r] = column.get(r, 0) + half * x
        out[c] = {r: x for r, x in column.items() if x}
    return out


@dataclass
class IsotypicVerdict:
    degree: int
    energy: int
    components: List[Tuple[FiniteWeight, Fraction, bool]]  # (lowest, PSD scalar, ok)
    minimal_polynomial_ok: bool
    laplacian_matches_casimir: bool
    weight_blocked: bool = True  # the Casimir joins no two torus weights

    @property
    def passed(self) -> bool:
        return (
            self.weight_blocked
            and self.minimal_polynomial_ok
            and self.laplacian_matches_casimir
            and all(ok for _, _, ok in self.components)
        )

    def first_violation(self):
        for lw, scalar, ok in self.components:
            if not ok:
                return (lw, scalar)
        return None


def isotypic_eigen_check(
    data: AlgebraData, p: int, k: int, complex_: CellComplex | None = None
) -> IsotypicVerdict:
    """Verify the Laplacian acts by the predicted exact scalar per component.

    The sparse Casimir C, built from ``cc.data`` so that it is in the
    basis of the Laplacian, is checked to join no two torus weights
    (``weight_blocked``); the Laplacian is weight-blocked by construction.
    Then two exact checks run column by column on sparse vectors: (L + C)
    e_j = c*k*e_j (``laplacian_matches_casimir``), and prod_v (C - v) e_j
    = 0 over the predicted Casimir values v (``minimal_polynomial_ok``),
    with C and the v's scaled to integers once by the lcm of their
    denominators.

    Each component's verdict follows from these two.  With P_v =
    prod_{v' != v} (C - v') / (v - v') the projector onto the Casimir
    value v, L = c*k - C gives (L - (c*k - v)) P_v = (v - C) P_v =
    -prod_{v'} (C - v') / prod_{v' != v} (v - v'), a nonzero multiple of
    the minimal-polynomial product.  So a component is ok exactly when
    both checks pass, and no projector product is formed.
    """
    cc = complex_ or CellComplex(data)
    basis = cc.basis(p, k)
    if len(basis) == 0:
        return IsotypicVerdict(p, k, [], True, True)
    summands = decompose(data, weights_of_basis(data, basis.monomials))
    C = casimir_matrix(cc.data, basis)
    labels = cc.weights(p, k)
    blocked = all(labels[r] == labels[c] for c, col in C.items() for r in col)

    values: Dict[Fraction, FiniteWeight] = {}
    for s in summands:
        values.setdefault(casimir_eigenvalue(data, s.lowestWeight), s.lowestWeight)
    ck = Fraction(data.coxeter * k)
    vlist = sorted(values)
    scalars: Dict[Fraction, Fraction] = {}
    for v in vlist:
        scalars[v] = laplacian_scalar(data, values[v], k)
        if scalars[v] != ck - v:
            raise InvariantError(f"Laplacian scalar of {values[v]} at energy {k} disagrees with c*k - Casimir")

    L = cc.laplacian_columns(p, k)
    l_matches = all(_apply(L, {j: 1}, ck) == {i: -x for i, x in C[j].items()} for j in range(len(basis)))

    den = lcm(*(x.denominator for col in C.values() for x in col.values()), *(v.denominator for v in vlist))
    scaled = {c: {r: int(x * den) for r, x in col.items()} for c, col in C.items()}
    shifts = [int(v * den) for v in vlist]

    def annihilated(j: int) -> bool:
        vec = {j: 1}
        for v in shifts:
            vec = _apply(scaled, vec, v)
        return not vec

    min_poly_ok = all(annihilated(j) for j in range(len(basis)))

    components = [(values[v], scalars[v], min_poly_ok and l_matches) for v in vlist]
    return IsotypicVerdict(p, k, components, min_poly_ok, l_matches, blocked)
