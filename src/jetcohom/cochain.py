"""Exact energy-graded Chevalley-Eilenberg pipeline.

Cochains of the positive-mode algebra are wedges of dual modes e^{i,l}
with level l >= 1; the differential preserves the energy k = sum of
levels, so everything happens in independent (degree, energy) cells.
Matrices are exact rationals, and kernels come from fraction-free
elimination.  ``CellComplex`` works in the orthogonal Cartan basis of
``orthogonal_cartan``, where the metric induced by the compact involution
is diagonal, so the wedge Gram is diagonal and d* a scaled transpose; d
is rational there.  Every verdict is independent of the basis.

Weight blocks.  Every operator here (d, d*, the Laplacian, the Casimir)
preserves torus weight, so the identity L = c*k - Casimir holds one
weight block at a time, and the weight block is the only shape in which
these operators are built.  The sparse d is cut into its weight blocks
after a check that every entry joins equal weights, which makes d* and
L = d*d + dd* weight-blocked too.  The sparse Casimir is checked
explicitly to join no two weights.  Ranks of d, kernels, Hodge
consistency, closedness, d^2 = 0, self-adjointness, L + Casimir = c*k*Id
and the Casimir's minimal polynomial are then all checked block by block.

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
from math import prod
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


def _positions(groups: Dict[FiniteWeight, List[int]]) -> Dict[int, int]:
    """Position of each monomial index inside its weight block."""
    return {i: pos for idxs in groups.values() for pos, i in enumerate(idxs)}


class CellComplex:
    """Lazy per-algebra store of differentials and weight-block operators.

    Everything is built from ``self.data``, the algebra rebased by
    ``orthogonal_cartan``.  Sparse differentials, bases, weight labels and
    the rank of each weight block of d are kept for the whole run.  The
    other operators are dicts from torus weight to that weight's monomials
    (in basis order): the diagonal of the Gram and dense blocks of d, d*
    and the Laplacian.  These are kept for one cell at a time:
    ``cell_laplacian`` builds them once for the harmonic and isotypic
    checks of a cell and drops them when it moves to another cell.
    """

    def __init__(self, data: AlgebraData):
        self.data = orthogonal_cartan(data)
        self._metric = [1 / row[i] for i, row in enumerate(self.data.hermGram)]  # of the dual modes
        self._blocks: Dict[Tuple[int, int], GradedComplexBlock] = {}
        self._bases: Dict[Tuple[int, int], CochainBasis] = {}
        self._weights: Dict[Tuple[int, int], List[FiniteWeight]] = {}
        self._groups: Dict[Tuple[int, int], Dict[FiniteWeight, List[int]]] = {}
        self._ranks: Dict[Tuple[int, int], Dict[FiniteWeight, int]] = {}
        self._dense: Dict[Tuple[str, int, int], Blocks] = {}

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
        key = (p, k)
        if key not in self._weights:
            self._weights[key] = [_weight_of_wedge(self.data, w) for w in self.basis(p, k).monomials]
        return self._weights[key]

    def weight_blocks(self, p: int, k: int) -> Dict[FiniteWeight, List[int]]:
        """Monomial indices of each torus weight, in basis order; the
        weights in sorted order."""
        key = (p, k)
        if key not in self._groups:
            groups: Dict[FiniteWeight, List[int]] = {}
            for i, w in enumerate(self.weights(p, k)):
                groups.setdefault(w, []).append(i)
            self._groups[key] = {w: groups[w] for w in sorted(groups)}
        return self._groups[key]

    def _kept(self, key: Tuple[str, int, int], build) -> Blocks:
        if key not in self._dense:
            self._dense[key] = build()
        return self._dense[key]

    def d_blocks(self, p: int, k: int) -> Blocks:
        """Weight blocks of d: A^p(k) -> A^{p+1}(k), one for each weight on
        both sides, cut from the sparse d after checking that every entry
        joins equal weights."""

        def build():
            w_in, w_out = self.weights(p, k), self.weights(p + 1, k)
            g_in, g_out = self.weight_blocks(p, k), self.weight_blocks(p + 1, k)
            pos_in, pos_out = _positions(g_in), _positions(g_out)
            out = {w: [[0] * len(idxs) for _ in g_out[w]] for w, idxs in g_in.items() if w in g_out}
            for (r, c), v in self.block(p, k).dMatrix.items():
                if w_out[r] != w_in[c]:
                    raise InvariantError(f"d^{p} at energy {k} joins different torus weights")
                out[w_in[c]][pos_out[r]][pos_in[c]] = v
            return out

        return self._kept(("d", p, k), build)

    def block_ranks(self, p: int, k: int) -> Dict[FiniteWeight, int]:
        """Fraction-free rank of each weight block of d^p at energy k,
        computed once per run."""
        key = (p, k)
        if key not in self._ranks:
            self._ranks[key] = {w: xl.rank(block) for w, block in self.d_blocks(p, k).items()}
        return self._ranks[key]

    def rank_d(self, p: int, k: int) -> int:
        """Rank of d: A^p(k) -> A^{p+1}(k), the sum of its weight blocks' ranks."""
        return sum(self.block_ranks(p, k).values())

    def gram(self, p: int, k: int) -> Dict[FiniteWeight, List[Fraction]]:
        """Diagonal of the wedge Gram of cell (p, k), per weight block."""

        def build():
            mons = self.basis(p, k).monomials
            return {
                w: wedge_gram(self._metric, CochainBasis(p, k, tuple(mons[i] for i in idxs)))
                for w, idxs in self.weight_blocks(p, k).items()
            }

        return self._kept(("gram", p, k), build)

    def codifferential(self, p: int, k: int) -> Blocks:
        """Adjoint of d: A^p -> A^{p+1} in the wedge metrics, per weight
        block: d*_w = G_w^{-1} d_w^T G_w, a scaled transpose
        d*_w[i][j] = d_w[j][i] * g_out[j] / g_in[i]."""

        def build():
            blocks = self.d_blocks(p, k)
            g_in, g_out = self.gram(p, k), self.gram(p + 1, k)
            return {
                w: [[row[i] * go / gi for row, go in zip(d, g_out[w])] for i, gi in enumerate(g_in[w])]
                for w, d in blocks.items()
            }

        return self._kept(("codifferential", p, k), build)

    def laplacian(self, p: int, k: int) -> Blocks:
        """The Laplacian d*d + dd* of cell (p, k), one block per torus
        weight; each block is checked to be self-adjoint in the metric."""
        up, up_star = self.d_blocks(p, k), self.codifferential(p, k)
        down, down_star = (self.d_blocks(p - 1, k), self.codifferential(p - 1, k)) if p > 0 else ({}, {})
        grams = self.gram(p, k)
        out = {}
        for w, idxs in self.weight_blocks(p, k).items():
            L = xl.zeros(len(idxs), len(idxs))
            if w in up:
                L = xl.mat_add(L, xl.matmul(up_star[w], up[w]))
            if w in down:
                L = xl.mat_add(L, xl.matmul(down[w], down_star[w]))
            g = grams[w]
            if any(g[i] * L[i][j] != g[j] * L[j][i] for i in range(len(L)) for j in range(i + 1, len(L))):
                raise InvariantError(f"Laplacian of cell ({p}, {k}) is not self-adjoint in the cell metric")
            out[w] = L
        return out

    def cell_laplacian(self, p: int, k: int) -> Blocks:
        """The Laplacian blocks of cell (p, k), built once for all checks of
        that cell; the previous cell's dense blocks are dropped first."""
        key = ("laplacian", p, k)
        if key not in self._dense:
            self._dense.clear()
            self._dense[key] = self.laplacian(p, k)
        return self._dense[key]


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


def _annihilates(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> bool:
    return not any(sum(a * x for a, x in zip(row, vec)) for row in matrix)


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
    laplacian = cc.cell_laplacian(p, k)
    d_up, ranks_up = cc.d_blocks(p, k), cc.block_ranks(p, k)
    dstar_down, ranks_down = (cc.codifferential(p - 1, k), cc.block_ranks(p - 1, k)) if p > 0 else ({}, {})

    kernel_vectors: List[List[Fraction]] = []
    weight_multiset: Dict[FiniteWeight, int] = {}
    for w, idxs in cc.weight_blocks(p, k).items():
        kernel = xl.kernel_basis(laplacian[w])
        if len(kernel) != len(idxs) - ranks_up.get(w, 0) - ranks_down.get(w, 0):
            raise InvariantError(f"Hodge consistency fails in cell ({p}, {k})")
        for vec in kernel:
            if w in d_up and not _annihilates(d_up[w], vec):
                raise InvariantError(f"harmonic vector of cell ({p}, {k}) is not closed")
            if w in dstar_down and not _annihilates(dstar_down[w], vec):
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


def _action_matrix(data: AlgebraData, basis: CochainBasis, gen: int) -> Dict[Tuple[int, int], Fraction]:
    """Matrix of the coadjoint generator action on a cell (derivation, no sign)."""
    index = basis.index()
    out: Dict[Tuple[int, int], Fraction] = {}
    for col, wedge in enumerate(basis.monomials):
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
                out[(row, col)] = out.get((row, col), Fraction(0)) - pos_sign * sign * c
    return {rc: v for rc, v in out.items() if v != 0}


def casimir_matrix(data: AlgebraData, basis: CochainBasis) -> Dict[Tuple[int, int], Fraction]:
    """Half the gram-inverse-paired square of the generator action, as
    sparse (row, col) -> nonzero entry.

    Accumulated from the sparse action matrices, over the generator pairs
    with a nonzero inverse-Gram entry only.
    """
    n = data.dim
    gram_inv = xl.invert([list(r) for r in data.gram])
    actions: List[Dict[int, Dict[int, Fraction]]] = []
    for a in range(n):
        rows: Dict[int, Dict[int, Fraction]] = {}
        for (r, c), v in _action_matrix(data, basis, a).items():
            rows.setdefault(r, {})[c] = v
        actions.append(rows)

    out: Dict[int, Dict[int, Fraction]] = {}
    for a in range(n):
        for b in range(n):
            w = gram_inv[a][b]
            if w == 0:
                continue
            half = w / 2
            right = actions[b]
            for r, row in actions[a].items():
                out_row = out.setdefault(r, {})
                for m, x in row.items():
                    for c, y in right.get(m, {}).items():
                        out_row[c] = out_row.get(c, 0) + half * x * y
    return {(r, c): v for r, row in out.items() for c, v in row.items() if v != 0}


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


def _shifted(matrix: Sequence[Sequence[Fraction]], shift: Fraction) -> List[List[Fraction]]:
    """matrix - shift*Id."""
    return [[x - shift if i == j else x for j, x in enumerate(row)] for i, row in enumerate(matrix)]


def isotypic_eigen_check(
    data: AlgebraData, p: int, k: int, complex_: CellComplex | None = None
) -> IsotypicVerdict:
    """Verify the Laplacian acts by the predicted exact scalar per component.

    The sparse Casimir C, built from ``cc.data`` so that it is in the
    basis of the Laplacian, is checked to join no two torus weights
    (``weight_blocked``); the Laplacian is weight-blocked by construction.
    Then, on every weight block, two exact checks run: L_w + C_w =
    c*k*Id (``laplacian_matches_casimir``) and prod_v (C_w - v) = 0 over
    the predicted Casimir values v (``minimal_polynomial_ok``).

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
    laplacian = cc.cell_laplacian(p, k)
    summands = decompose(data, weights_of_basis(data, basis.monomials))
    C = casimir_matrix(cc.data, basis)
    labels = cc.weights(p, k)
    blocked = all(labels[r] == labels[c] for r, c in C)

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

    groups = cc.weight_blocks(p, k)
    pos = _positions(groups)
    c_blocks = {w: xl.zeros(len(idxs), len(idxs)) for w, idxs in groups.items()}
    for (r, c), x in C.items():
        if labels[r] == labels[c]:
            c_blocks[labels[r]][pos[r]][pos[c]] = x
    l_matches = min_poly_ok = True
    for w, Cw in c_blocks.items():
        l_matches = l_matches and xl.is_zero_matrix(_shifted(xl.mat_add(laplacian[w], Cw), ck))
        poly = functools.reduce(xl.matmul, [_shifted(Cw, v) for v in vlist])
        min_poly_ok = min_poly_ok and xl.is_zero_matrix(poly)

    components = [(values[v], scalars[v], min_poly_ok and l_matches) for v in vlist]
    return IsotypicVerdict(p, k, components, min_poly_ok, l_matches, blocked)
