"""Test-only oracles: dense helpers and brute-force references that the
program itself never calls."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from jetcohom.affine import AffineRoot, AffineWeight, laplacian_shift, simple_affine_roots
from jetcohom.cochain import (GradedComplexBlock, Mode, ScaledColumns, Wedge, _signatures, build_basis,
                              differential_block)
from jetcohom.liealg import AlgebraData, FiniteWeight, IntAlgebra

Matrix = List[List[Fraction]]
Columns = Dict[int, Dict[int, int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(k: int) -> Matrix:
    out = zeros(k, k)
    for i in range(k):
        out[i][i] = Fraction(1)
    return out


def scale(a, s) -> Matrix:
    return [[x * s for x in row] for row in a]


def cell_block(data, p: int, k: int) -> GradedComplexBlock:
    """d: A^p(k) -> A^{p+1}(k) between freshly built bases of both cells."""
    return differential_block(data, build_basis(data, p, k), build_basis(data, p + 1, k))


def dense(block: GradedComplexBlock) -> Matrix:
    """The differential block as a dense ``Fraction`` matrix."""
    rows, cols = block.shape
    out = zeros(rows, cols)
    for (r, c), v in block.dMatrix.items():
        out[r][c] = Fraction(v)
    return out


def ad_matrix(data: AlgebraData, i: int) -> Matrix:
    """ad(b_i) as a dense matrix: column j holds [b_i, b_j]."""
    out = zeros(data.dim, data.dim)
    for j in range(data.dim):
        for p, c in data.bracket(i, j).items():
            out[p][j] = Fraction(c)
    return out


def jacobi_terms(data: AlgebraData, i: int, j: int, k: int) -> List[Dict[int, Fraction]]:
    """The three terms [[b_i, b_j], b_k], [[b_j, b_k], b_i] and [[b_k, b_i], b_j]
    of a Jacobi sum, each with its zero coordinates dropped."""
    terms = []
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        acc: Dict[int, Fraction] = {}
        for q, cq in data.bracket(a, b).items():
            for p, cp in data.bracket(q, c).items():
                acc[p] = acc.get(p, 0) + cq * cp
        terms.append({p: v for p, v in acc.items() if v})
    return terms


def jacobi_failures(data: AlgebraData) -> List[Tuple[int, int, int]]:
    """Every triple i < j < k of basis indices whose Jacobi sum is nonzero:
    the all-triples reference for ``liealg.verify_algebra``."""
    failures = []
    for t in itertools.combinations(range(data.dim), 3):
        total: Dict[int, Fraction] = {}
        for term in jacobi_terms(data, *t):
            for p, v in term.items():
                total[p] = total.get(p, 0) + v
        if any(total.values()):
            failures.append(t)
    return failures


def zero_locus_brute_force(data: AlgebraData, maxEnergy: int) -> List[AffineWeight]:
    """Sums of distinct positive real affine roots (k >= 1) where P vanishes.

    Enumerates every set of distinct roots with total energy <= maxEnergy,
    including the empty sum, and keeps the distinct weights with P = 0.
    Imaginary roots are excluded, and no root repeats: inversion sets of
    Weyl elements are sets of real roots, and allowing repeats would admit
    sums such as 3*(1, theta) for rank one that vanish without being
    inversion sets.
    """
    if maxEnergy < 1:
        raise ValueError("maxEnergy must be >= 1")
    rank = data.rank
    items: List[Tuple[int, FiniteWeight]] = []
    for k in range(1, maxEnergy + 1):
        for alpha in data.rootSystem.allRoots:
            items.append((k, tuple(Fraction(c) for c in alpha)))

    zeros_found: Dict[Tuple[Fraction, ...], AffineWeight] = {}

    def consider(energy: int, finite: List[Fraction]):
        w = AffineWeight(Fraction(energy), tuple(finite), Fraction(0))
        if laplacian_shift(data, w) == 0:
            zeros_found.setdefault(w.as_vector(), w)

    def rec(idx: int, energy: int, finite: List[Fraction]):
        consider(energy, finite)
        for i in range(idx, len(items)):
            k, alpha = items[i]
            if energy + k > maxEnergy:
                continue
            rec(
                i + 1,  # each root used at most once
                energy + k,
                [a + b for a, b in zip(finite, alpha)],
            )

    rec(0, 0, [Fraction(0)] * rank)
    return sorted(zeros_found.values(), key=lambda w: (w.energy, w.finite))


# Matrix reference for the affine Weyl group: an element is the product of
# the (rank + 2) x (rank + 2) ``Fraction`` matrices of the simple
# reflections in its word, acting on (n1, lambda, b).

Vec = Tuple[Fraction, ...]


def reflection_matrix(data: AlgebraData, root: AffineRoot) -> Tuple[Vec, ...]:
    """Matrix of the reflection in a real affine root on (n1, lambda, b)."""
    r = data.rank
    dim = r + 2
    alpha = root.alpha
    norm = data.weight_pairing(alpha, alpha)
    beta_col = (Fraction(root.k),) + tuple(alpha) + (Fraction(0),)
    # row functional x -> <x, beta_hat>
    pair_row = [Fraction(0)] * dim
    for j in range(r):
        pair_row[1 + j] = sum(Fraction(alpha[l]) * data.weight_form[l][j] for l in range(r))
    pair_row[dim - 1] = Fraction(-root.k)
    mat = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        if beta_col[i] == 0:
            continue
        f = 2 * beta_col[i] / norm
        for j in range(dim):
            mat[i][j] -= f * pair_row[j]
    return tuple(tuple(row) for row in mat)


def apply_matrix(mat: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v)) if v[j] != 0) for row in mat)


def _matmul(a, b) -> Tuple[Vec, ...]:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def word_matrix(data: AlgebraData, word: Sequence[int]) -> Tuple[Vec, ...]:
    """s_{j_1} ... s_{j_m} for the word (j_1, ..., j_m); the matrix of the
    inverse is that of the reversed word."""
    gens = [reflection_matrix(data, rt) for rt in simple_affine_roots(data)]
    dim = data.rank + 2
    mat = tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim)) for i in range(dim))
    for j in word:
        mat = _matmul(mat, gens[j])
    return mat


def matrix_inversion_set(data: AlgebraData, word: Sequence[int]) -> List[AffineRoot]:
    """The images s_{j_m} ... s_{j_(t+1)} alpha_{j_t}, t = m..1, sorted; each
    is a positive real affine root and they are distinct iff the word is
    reduced."""
    simples = simple_affine_roots(data)
    roots = []
    for t in range(len(word) - 1, -1, -1):
        a = simples[word[t]]
        vec = apply_matrix(word_matrix(data, tuple(reversed(word[t + 1:]))),
                           (Fraction(a.k),) + tuple(a.alpha) + (Fraction(0),))
        roots.append(AffineRoot(int(vec[0]), tuple(vec[1:-1])))
    return sorted(roots, key=lambda r: (r.k, r.alpha))


# Tuple-wedge references for the int-monomial exact core: a wedge is a
# tuple of (level, index) modes, ascending, and each sign comes from
# bisecting the sorted wedge.

def tuple_basis(data: AlgebraData, p: int, k: int) -> Tuple[Wedge, ...]:
    """The (p, k) cell's wedges: level signatures in lex order, then
    lexicographic index combinations per level."""
    n = data.dim
    monomials: List[Wedge] = []
    for sig in sorted(_signatures(p, k, n)):
        levels = sorted(set(sig))
        per_level = [list(itertools.combinations(range(n), sig.count(level))) for level in levels]
        for combo in itertools.product(*per_level):
            wedge: List[Mode] = []
            for level, idxs in zip(levels, combo):
                wedge.extend((level, a) for a in idxs)
            monomials.append(tuple(wedge))
    return tuple(monomials)


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


def tuple_differential(data, p: int, k: int) -> Dict[Tuple[int, int], int]:
    """The (row, col) entries of d: A^p(k) -> A^{p+1}(k) over ``tuple_basis``,
    from d(e^{m,level}) = - sum_{u<v} C_{uv}^m e^u ^ e^v over mode pairs."""
    basis_in, basis_out = tuple_basis(data, p, k), tuple_basis(data, p + 1, k)
    out_index = {w: i for i, w in enumerate(basis_out)}
    entries: Dict[Tuple[int, int], int] = {}
    n = data.dim
    for col, wedge in enumerate(basis_in):
        for j, (level, m) in enumerate(wedge):
            outer_sign = -1 if j % 2 else 1
            for l1 in range(1, level // 2 + 1):
                l2 = level - l1
                for a in range(n):
                    for b, coeffs in data.structure[a].items():
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
    return entries


def tuple_split(data, m: int, level: int, lo: int, hi: int) -> Dict[Wedge, Fraction]:
    """d(e^{m,level}) over the modes at levels lo..hi, as sorted wedges of
    (level, index) modes: -1/2 sum_{a,b} C_{ab}^m e^{a,l1} ^ e^{b,l2} over
    every ordered pair of modes with l1 + l2 = level, read from
    ``data.structure``, each term sorted by ``_insert_modes`` and the
    halves summed."""
    twice: Dict[Wedge, int] = {}
    for l1 in range(lo, hi + 1):
        l2 = level - l1
        if not lo <= l2 <= hi:
            continue
        for a, row in enumerate(data.structure):
            for b, coeffs in row.items():
                c = coeffs.get(m)
                ins = None if c is None else _insert_modes(((level, m),), 0, ((l1, a), (l2, b)))
                if ins is not None:
                    sign, wedge = ins
                    twice[wedge] = twice.get(wedge, 0) - sign * c
    return {w: Fraction(x, 2) for w, x in twice.items() if x}


def _action_matrix(coefficients: Dict[int, List[Tuple[int, int]]], basis: Sequence[Wedge],
                   index: Dict[Wedge, int]) -> Columns:
    """Int columns of one generator's coadjoint action on a cell (derivation,
    no sign); ``coefficients`` maps a mode index m to the pairs (b,
    s*C_{gen b}^m)."""
    out: Columns = {}
    for col, wedge in enumerate(basis):
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


def _apply_columns(op: Columns, vec: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for j, x in vec.items():
        for i, a in op.get(j, {}).items():
            out[i] = out.get(i, 0) + a * x
    return out


def tuple_casimir(alg: IntAlgebra, basis: Sequence[Wedge]) -> ScaledColumns:
    """C e_c = sum_a (G^-1)_{ab} / 2 * A_a (A_b e_c), b the partner of a, from
    dim-g whole-cell action matrices, as int columns over 2*e*s^2 in lowest
    terms."""
    index = {w: i for i, w in enumerate(basis)}
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
            for r, x in _apply_columns(actions[a], actions[b][c]).items():
                column[r] = column.get(r, 0) + w * x
        out[c] = {r: x for r, x in column.items() if x}
    scale = 2 * alg.gram_inv_scale * alg.scale ** 2
    g = gcd(scale, *(x for col in out.values() for x in col.values()))
    return ScaledColumns({c: {r: x // g for r, x in col.items()} for c, col in out.items()}, scale // g)


def accumulate(out: Dict, key, coeff: int):
    """out[key] += coeff, with a sum of 0 dropped, so that a built column
    compares equal to one that never held the key."""
    new = out.get(key, 0) + coeff
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def dstar_from_memoised_L(backend, mono: int) -> Dict[int, int]:
    """dtilde* of one monomial over 2se, as the kernel that read each
    L_{i,-k} column from its memo and applied iota_{b,k} from the step
    table, in the same loop order as ``backend.dstar``."""
    out: Dict[int, int] = {}
    for k in range(backend.window.kMin, backend.window.kMax + 1):
        sk = 1 if k > 0 else -1
        for i, (b, x) in enumerate(backend.alg.gram_inv):
            bit, mask, c, empty = backend.steps[b, k]
            col = backend.L(i, -k)[mono]
            for m1, c1 in zip(col[::2], col[1::2]):
                if m1 & bit == empty:
                    continue
                val = sk * x * c1
                new = out.get(m1 ^ bit, 0) + (val if ((m1 & mask).bit_count() + c) & 1 else -val)
                if new:
                    out[m1 ^ bit] = new
                else:
                    del out[m1 ^ bit]
    return out


def jacobi_triple_set(structure) -> set:
    """The sorted triples of distinct indices with a term [[b_a, b_b], b_c]
    that has nonzero factors, collected into one set, as
    ``liealg.verify_algebra`` once built them before checking any."""
    triples = set()
    for a, row in enumerate(structure):
        for b, col in row.items():
            if b > a:
                for q in col:
                    for c in structure[q]:
                        if c != a and c != b:
                            triples.add(tuple(sorted((a, b, c))))
    return triples


def _reference_row_echelon(m: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Bareiss row echelon form on a copy, every column updated at every
    pivot, as ``exactlinalg`` once computed it."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    piv_cols: List[int] = []
    piv_r = 0
    prev = 1
    for col in range(cols):
        best = None
        for i in range(piv_r, rows):
            if m[i][col] != 0:
                nz = sum(1 for x in m[i] if x != 0)
                key = (nz, abs(m[i][col]))
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        if i != piv_r:
            m[piv_r], m[i] = m[i], m[piv_r]
        piv = m[piv_r][col]
        for rr in range(piv_r + 1, rows):
            f = m[rr][col]
            for cc in range(cols):
                m[rr][cc] = (m[rr][cc] * piv - f * m[piv_r][cc]) // prev
        prev = piv
        piv_cols.append(col)
        piv_r += 1
        if piv_r == rows:
            break
    return m, piv_cols


def _cleared(a: Sequence[Sequence]) -> List[List[int]]:
    den = lcm(*(Fraction(x).denominator for row in a for x in row))
    return [[int(Fraction(x) * den) for x in row] for row in a]


def reference_rank(a: Sequence[Sequence]) -> int:
    """The rank of an int or rational matrix, by ``_reference_row_echelon``."""
    if not a or not a[0]:
        return 0
    return len(_reference_row_echelon(_cleared(a))[1])


def reference_kernel_basis(a: Sequence[Sequence]) -> List[List[int]]:
    """The right kernel as ``exactlinalg`` once computed it: Bareiss
    elimination, then back substitution over ``Fraction``s for each free
    column, cleared to a primitive int vector."""
    if not a or not a[0]:
        return []
    cols = len(a[0])
    ech, piv_cols = _reference_row_echelon(_cleared(a))
    basis = []
    for fc in (c for c in range(cols) if c not in piv_cols):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            s = sum(ech[r][c] * vec[c] for c in range(pc + 1, cols) if vec[c] != 0)
            vec[pc] = Fraction(-s, ech[r][pc])
        den = lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = gcd(*ints)
        basis.append([x // g for x in ints])
    return basis
