"""Exact energy-graded Chevalley-Eilenberg pipeline.

Cochains of the positive-mode algebra are wedges of dual modes e^{i,l}
with level l >= 1; the differential preserves the energy k = sum of
levels, so everything happens in independent (degree, energy) cells.
Matrices are exact rationals: the differential is integral, the metric
on wedges is induced by the compact-involution form (Gram of a wedge =
determinant of pairwise Grams), and kernels come from fraction-free
elimination.

Weight blocks.  Every operator here (d, d*, the Laplacian, the Casimir)
preserves torus weight, and the mode metric pairs a mode only with modes
of its own level and metric class, so a Gram entry is nonzero only
between monomials with equal (level, class) multisets.  The pipeline
uses this wherever a check stays exact: Gram determinants run only
inside those groups, the rank of d is a sum over weight blocks of the
sparse differential, and kernels and the Casimir polynomial products are
taken per weight block.  That d, L and the Casimir join no two weights
is itself checked explicitly on every cell, so a block-diagonal
evaluation is never taken on trust; L + Casimir = c*k*Id, d^2 = 0,
self-adjointness and Hodge consistency stay whole-cell checks.

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
from typing import Dict, Iterable, List, Sequence, Tuple

from . import exactlinalg as xl
from .liealg import AlgebraData, FiniteWeight, casimir_eigenvalue, is_dominant
from .reptheory import IrrepSummand, decompose, weights_of_basis
from .affine import AffineWeight, laplacian_shift

Mode = Tuple[int, int]  # (level >= 1, basis index)
Wedge = Tuple[Mode, ...]


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

    def to_json_dict(self, algebra_hash: str) -> dict:
        return {
            "algebra_hash": algebra_hash,
            "degree": self.basisIn.degree,
            "energy": self.basisIn.energy,
            "dim_in": len(self.basisIn),
            "dim_out": len(self.basisOut),
            "monomials_in": [[list(m) for m in w] for w in self.basisIn.monomials],
            "monomials_out": [[list(m) for m in w] for w in self.basisOut.monomials],
            "triples": sorted([r, c, v] for (r, c), v in self.dMatrix.items()),
        }


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


class InvariantError(RuntimeError):
    """An exact structural identity of the complex failed to hold."""


def _pair_metric(metric, m1: Mode, m2: Mode) -> Fraction:
    if m1[0] != m2[0]:
        return Fraction(0)
    return metric[m1[1]][m2[1]]


def _metric_classes(metric: Sequence[Sequence[Fraction]]) -> List[int]:
    """Label of each basis index: its connected component under the
    nonzero pattern of the metric."""
    n = len(metric)
    label = [-1] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if label[j] < 0 and (metric[i][j] != 0 or metric[j][i] != 0):
                    label[j] = start
                    stack.append(j)
    return label


def wedge_gram(metric: Sequence[Sequence[Fraction]], basis: CochainBasis) -> List[List[Fraction]]:
    """Gram matrix of wedge monomials for a mode-level metric: entry =
    det of pairwise metrics.

    Modes pair only at equal level and within one metric class (a
    connected component of the metric's nonzero pattern; for the mode
    metrics these are the single root vectors and the Cartan block).  A
    pair of monomials whose multisets of (level, class) differ has no
    perfect matching in that pattern, so its determinant is exactly 0 and
    is not computed.  Determinants run only inside groups of equal
    multisets, which refine both the level signature and torus weight.
    """
    mons = basis.monomials
    dim = len(mons)
    out = xl.zeros(dim, dim)
    cls = _metric_classes(metric)
    groups: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
    for i, w in enumerate(mons):
        groups.setdefault(tuple(sorted((level, cls[idx]) for level, idx in w)), []).append(i)
    for idxs in groups.values():
        for pos, i in enumerate(idxs):
            wi = mons[i]
            p = len(wi)
            for j in idxs[pos:]:
                wj = mons[j]
                g = [[_pair_metric(metric, wi[a], wj[b]) for b in range(p)] for a in range(p)]
                v = xl.det(g) if p else Fraction(1)
                out[i][j] = v
                out[j][i] = v
    return out


def _weight_of_wedge(data: AlgebraData, wedge: Wedge) -> FiniteWeight:
    w = [Fraction(0)] * data.rank
    for _level, idx in wedge:
        for i, c in enumerate(data.basis_weights[idx]):
            w[i] -= c
    return tuple(w)


def _weight_blocks(labels: Sequence[FiniteWeight]) -> Dict[FiniteWeight, List[int]]:
    """Indices of each torus weight, in basis order."""
    groups: Dict[FiniteWeight, List[int]] = {}
    for i, w in enumerate(labels):
        groups.setdefault(w, []).append(i)
    return groups


def _crosses_weight_blocks(matrix: Sequence[Sequence[Fraction]], labels: Sequence[FiniteWeight]) -> bool:
    """True if some nonzero entry joins two different torus weights."""
    for i, row in enumerate(matrix):
        wi = labels[i]
        for j, x in enumerate(row):
            if x != 0 and labels[j] != wi:
                return True
    return False


def _submatrix(matrix: Sequence[Sequence[Fraction]], idxs: Sequence[int]) -> List[List[Fraction]]:
    return [[matrix[i][j] for j in idxs] for i in idxs]


class CellComplex:
    """Lazy per-algebra store of blocks, grams and Laplacians.

    Sparse differentials, bases, weight labels and ranks of d are kept for
    the whole run.  Dense matrices (Grams, codifferentials, the Laplacian)
    are kept for one cell at a time: ``cell_laplacian`` builds them once
    for the harmonic and isotypic checks of a cell and drops them when it
    moves to another cell.
    """

    def __init__(self, data: AlgebraData):
        self.data = data
        self._dual_metric = xl.invert([list(r) for r in data.hermGram])
        self._vector_metric = [list(r) for r in data.hermGram]
        self._blocks: Dict[Tuple[int, int], GradedComplexBlock] = {}
        self._bases: Dict[Tuple[int, int], CochainBasis] = {}
        self._weights: Dict[Tuple[int, int], List[FiniteWeight]] = {}
        self._ranks: Dict[Tuple[int, int], int] = {}
        self._dense: Dict[Tuple[str, int, int], List[List[Fraction]]] = {}

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

    def rank_d(self, p: int, k: int) -> int:
        """Rank of d: A^p(k) -> A^{p+1}(k), summed over torus-weight blocks.

        d preserves torus weight, so its rank is the sum of the ranks of
        its weight blocks; every entry is checked to join equal weights
        first.  Computed once per block.
        """
        key = (p, k)
        if key not in self._ranks:
            block = self.block(p, k)
            w_in, w_out = self.weights(p, k), self.weights(p + 1, k)
            rows: Dict[FiniteWeight, Dict[int, Dict[int, int]]] = {}
            for (r, c), v in block.dMatrix.items():
                if w_out[r] != w_in[c]:
                    raise InvariantError(f"d^{p} at energy {k} joins different torus weights")
                rows.setdefault(w_in[c], {}).setdefault(r, {})[c] = v
            total = 0
            for by_row in rows.values():
                cols = sorted({c for entries in by_row.values() for c in entries})
                if len(by_row) == 1 or len(cols) == 1:
                    total += 1  # a nonzero row or column vector
                    continue
                sub = [[entries.get(c, 0) for c in cols] for _r, entries in sorted(by_row.items())]
                total += xl.rank(sub)
            self._ranks[key] = total
        return self._ranks[key]

    def _kept(self, key: Tuple[str, int, int], build) -> List[List[Fraction]]:
        if key not in self._dense:
            self._dense[key] = build()
        return self._dense[key]

    def gram(self, p: int, k: int) -> List[List[Fraction]]:
        return self._kept(("gram", p, k), lambda: wedge_gram(self._dual_metric, self.basis(p, k)))

    def gram_inverse(self, p: int, k: int) -> List[List[Fraction]]:
        # the inverse of a compound matrix is the compound of the inverse,
        # so the inverse Gram is the wedge Gram of the vector metric
        return self._kept(("gram_inverse", p, k), lambda: wedge_gram(self._vector_metric, self.basis(p, k)))

    def codifferential(self, p: int, k: int) -> List[List[Fraction]]:
        """Adjoint of d: A^p -> A^{p+1} with respect to the wedge metrics."""

        def build():
            block = self.block(p, k)
            g_out = self.gram(p + 1, k)
            g_in_inv = self.gram_inverse(p, k)
            dt = xl.transpose(block.dense())
            return xl.matmul(g_in_inv, xl.matmul(dt, g_out))

        return self._kept(("codifferential", p, k), build)

    def laplacian(self, p: int, k: int) -> List[List[Fraction]]:
        dim = len(self.basis(p, k))
        L = xl.zeros(dim, dim)
        if dim == 0:
            return L
        up = self.block(p, k)
        if len(up.basisOut):
            L = xl.mat_add(L, xl.matmul(self.codifferential(p, k), up.dense()))
        if p > 0:
            down = self.block(p - 1, k)
            if len(down.basisIn):
                L = xl.mat_add(L, xl.matmul(down.dense(), self.codifferential(p - 1, k)))
        GL = xl.matmul(self.gram(p, k), L)
        if any(GL[i][j] != GL[j][i] for i in range(dim) for j in range(i + 1, dim)):
            raise InvariantError(f"Laplacian of cell ({p}, {k}) is not self-adjoint in the cell metric")
        return L

    def cell_laplacian(self, p: int, k: int) -> List[List[Fraction]]:
        """The Laplacian of cell (p, k), built once for all checks of that
        cell; the previous cell's dense matrices are dropped first."""
        key = ("laplacian", p, k)
        if key not in self._dense:
            self._dense.clear()
            self._dense[key] = self.laplacian(p, k)
        return self._dense[key]


def laplacian_block(data: AlgebraData, p: int, k: int) -> List[List[Fraction]]:
    return CellComplex(data).laplacian(p, k)


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
    assert value == affine, "Theorem-form and pairing-form eigenvalues must agree"
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
    """Exact kernel of the cell Laplacian, refined by torus weight.

    The Laplacian commutes with the torus action, so it is block diagonal
    over the (weight-homogeneous) monomial basis.  One pass over L checks
    that no entry joins two weights; kernels and their dimensions then
    come from one elimination per weight block and are reassembled.
    Hodge consistency (against the blockwise ``rank_d``) and annihilation
    of every kernel vector by d and d* are checked exactly on the whole
    cell; a failure raises ``InvariantError``.
    """
    cc = complex_ or CellComplex(data)
    dim = len(cc.basis(p, k))
    L = cc.cell_laplacian(p, k)
    labels = cc.weights(p, k)
    if _crosses_weight_blocks(L, labels):
        raise InvariantError(f"Laplacian of cell ({p}, {k}) joins different torus weights")

    groups = _weight_blocks(labels)
    kernel_vectors: List[List[Fraction]] = []
    weight_multiset: Dict[FiniteWeight, int] = {}
    for w in sorted(groups):
        idxs = groups[w]
        kernel = xl.kernel_basis(_submatrix(L, idxs))
        for vec in kernel:
            full = [Fraction(0)] * dim
            for pos, j in enumerate(idxs):
                full[j] = vec[pos]
            kernel_vectors.append(full)
        if kernel:
            weight_multiset[w] = len(kernel)

    h_dim = len(kernel_vectors)
    rank_down = cc.rank_d(p - 1, k) if p > 0 else 0
    if h_dim != dim - cc.rank_d(p, k) - rank_down:
        raise InvariantError(f"Hodge consistency fails in cell ({p}, {k})")

    if kernel_vectors:
        d_up = cc.block(p, k).dMatrix
        dstar_down = cc.codifferential(p - 1, k) if p > 0 and len(cc.block(p - 1, k).basisIn) else None
        for vec in kernel_vectors:
            image: Dict[int, Fraction] = {}
            for (r, c), v in d_up.items():
                if vec[c] != 0:
                    image[r] = image.get(r, 0) + v * vec[c]
            if any(x != 0 for x in image.values()):
                raise InvariantError(f"harmonic vector of cell ({p}, {k}) is not closed")
            if dstar_down is not None and any(
                sum(row[j] * vec[j] for j in range(dim) if vec[j] != 0) != 0 for row in dstar_down
            ):
                raise InvariantError(f"harmonic vector of cell ({p}, {k}) is not co-closed")

    decomposition = decompose(data, weight_multiset) if weight_multiset else []
    return HarmonicSpace(
        degree=p,
        energy=k,
        basis=kernel_vectors,
        dimension=h_dim,
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


def casimir_matrix(data: AlgebraData, basis: CochainBasis) -> List[List[Fraction]]:
    """Half the gram-inverse-paired square of the generator action.

    Accumulated from the sparse action matrices, over the generator pairs
    with a nonzero inverse-Gram entry only.
    """
    dim = len(basis)
    n = data.dim
    gram_inv = xl.invert([list(r) for r in data.gram])
    actions: List[Dict[int, Dict[int, Fraction]]] = []
    for a in range(n):
        rows: Dict[int, Dict[int, Fraction]] = {}
        for (r, c), v in _action_matrix(data, basis, a).items():
            rows.setdefault(r, {})[c] = v
        actions.append(rows)

    out = xl.zeros(dim, dim)
    for a in range(n):
        for b in range(n):
            w = gram_inv[a][b]
            if w == 0:
                continue
            half = w / 2
            right = actions[b]
            for r, row in actions[a].items():
                out_row = out[r]
                for m, x in row.items():
                    for c, y in right.get(m, {}).items():
                        out_row[c] += half * x * y
    return out


@dataclass
class IsotypicVerdict:
    degree: int
    energy: int
    components: List[Tuple[FiniteWeight, Fraction, bool]]  # (lowest, PSD scalar, ok)
    minimal_polynomial_ok: bool
    laplacian_matches_casimir: bool
    weight_blocked: bool = True  # C and L join no two torus weights

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


def _shifted(
    matrix: Sequence[Sequence[Fraction]], shift: Fraction, divisor: Fraction = Fraction(1)
) -> List[List[Fraction]]:
    """(matrix - shift*Id) / divisor."""
    return [
        [(x - shift if i == j else x) / divisor for j, x in enumerate(row)]
        for i, row in enumerate(matrix)
    ]


def isotypic_eigen_check(
    data: AlgebraData, p: int, k: int, complex_: CellComplex | None = None
) -> IsotypicVerdict:
    """Verify the Laplacian acts by the predicted exact scalar per component.

    Exact checks: the Casimir matrix satisfies its predicted minimal
    polynomial, L + Casimir = c*k*Id, and for each isotypic projector P_v
    built from the Casimir, (L - (c*k - v)) P_v = 0.

    L + Casimir = c*k*Id is checked on the whole cell.  C and L are
    checked to join no two torus weights (``weight_blocked``); given that,
    every product of the other two checks is block diagonal, so the
    minimal polynomial and each component's projector product are
    evaluated on each weight block, and are zero iff they vanish on
    every block.
    """
    cc = complex_ or CellComplex(data)
    basis = cc.basis(p, k)
    dim = len(basis)
    if dim == 0:
        return IsotypicVerdict(p, k, [], True, True)
    L = cc.cell_laplacian(p, k)
    summands = decompose(data, weights_of_basis(data, basis.monomials))
    C = casimir_matrix(data, basis)
    labels = cc.weights(p, k)
    blocked = not (_crosses_weight_blocks(C, labels) or _crosses_weight_blocks(L, labels))

    values: Dict[Fraction, FiniteWeight] = {}
    for s in summands:
        values.setdefault(casimir_eigenvalue(data, s.lowestWeight), s.lowestWeight)

    ck = Fraction(data.coxeter * k)
    LC = xl.mat_add(L, C)
    l_matches = all(
        LC[i][j] == (ck if i == j else 0) for i in range(dim) for j in range(dim)
    )

    vlist = sorted(values)
    scalars: Dict[Fraction, Fraction] = {}
    for v in vlist:
        scalars[v] = laplacian_scalar(data, values[v], k)
        if scalars[v] != ck - v:
            raise InvariantError(f"Laplacian scalar of {values[v]} at energy {k} disagrees with c*k - Casimir")

    min_poly_ok = True
    component_ok = {v: True for v in vlist}
    for idxs in _weight_blocks(labels).values():
        Cb = _submatrix(C, idxs)
        Lb = _submatrix(L, idxs)
        poly = xl.identity(len(idxs))
        for v in vlist:
            poly = xl.matmul(poly, _shifted(Cb, v))
        min_poly_ok = min_poly_ok and xl.is_zero_matrix(poly)
        for v in vlist:
            proj = xl.identity(len(idxs))
            for v2 in vlist:
                if v2 != v:
                    proj = xl.matmul(proj, _shifted(Cb, v2, v - v2))
            ok = xl.is_zero_matrix(xl.matmul(_shifted(Lb, scalars[v]), proj))
            component_ok[v] = component_ok[v] and ok

    components = [(values[v], scalars[v], component_ok[v]) for v in vlist]
    return IsotypicVerdict(p, k, components, min_poly_ok, l_matches, blocked)
