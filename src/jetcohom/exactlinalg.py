"""Exact rational/big-integer linear algebra for the graded pipeline.

Rank and kernel computations run fraction-free over Python integers
(Bareiss-style elimination); a rational matrix is cleared to an integer
matrix plus denominator first.  Matrices are dense lists of lists of
``int`` or ``Fraction`` entries.  The cochain module keeps its operators
as sparse int columns over an int scale and hands these routines a dense
int matrix only for an elimination, one torus-weight block at a time: the
ranks of d and the kernel of the Laplacian, which the scales do not
change.  Kernel vectors come back as ``Fraction`` lists of primitive
integers.  ``invert`` serves the small per-algebra matrices (the inverse
Gram of the Casimir).  ``matmul``, ``mat_add``, ``scale``, ``identity``,
``is_zero_matrix`` and ``det`` are test oracles; the program does not
call them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

Matrix = List[List[Fraction]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(k: int) -> Matrix:
    out = zeros(k, k)
    for i in range(k):
        out[i][i] = Fraction(1)
    return out


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j] != 0:
                    oi[j] += x * bk[j]
    return out


def mat_add(a, b) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, s) -> Matrix:
    return [[x * s for x in row] for row in a]


def clear_denominators(a: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], int]:
    """Return (integer matrix, d) with a = intmatrix / d.  Entries are ints
    or ``Fraction``s; both carry a ``denominator``."""
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _int_row_echelon(m: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free (Bareiss) row echelon form.  Returns (echelon, pivot columns)."""
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
            # full Bareiss update keeps every entry a minor of the input,
            # which is what makes the integer division exact
            for cc in range(cols):
                m[rr][cc] = (m[rr][cc] * piv - f * m[piv_r][cc]) // prev
        prev = piv
        piv_cols.append(col)
        piv_r += 1
        if piv_r == rows:
            break
    return m, piv_cols


def rank(a: Sequence[Sequence]) -> int:
    if not a or not a[0]:
        return 0
    m, _ = clear_denominators(a)
    _, piv = _int_row_echelon(m)
    return len(piv)


def kernel_basis(a: Sequence[Sequence]) -> List[List[Fraction]]:
    """Basis of the right kernel, as primitive integer vectors.

    Forward elimination is fraction-free; back substitution over rationals
    turns each free column into a kernel vector, then clears denominators.
    """
    if not a:
        return []
    cols = len(a[0])
    if cols == 0:
        return []
    m, _ = clear_denominators(a)
    ech, piv_cols = _int_row_echelon(m)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(cols) if c not in piv_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            s = sum(ech[r][c] * vec[c] for c in range(pc + 1, cols) if vec[c] != 0)
            vec[pc] = Fraction(-s, ech[r][pc])
        den = lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
        basis.append([Fraction(x) for x in ints])
    return basis


def invert(a: Sequence[Sequence[Fraction]]) -> Matrix:
    """Inverse of a small nonsingular rational matrix (Gauss-Jordan)."""
    k = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0) for j in range(k)]
           for i, row in enumerate(a)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant via fraction-free elimination."""
    k = len(a)
    if k == 0:
        return Fraction(1)
    m, den = clear_denominators(a)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for col in range(k - 1):
        piv_i = next((i for i in range(col, k) if m[i][col] != 0), None)
        if piv_i is None:
            return Fraction(0)
        if piv_i != col:
            m[col], m[piv_i] = m[piv_i], m[col]
            sign = -sign
        piv = m[col][col]
        for rr in range(col + 1, k):
            for cc in range(col + 1, k):
                m[rr][cc] = (m[rr][cc] * piv - m[rr][col] * m[col][cc]) // prev
            m[rr][col] = 0
        prev = piv
    return Fraction(sign * m[k - 1][k - 1], den ** k)


def is_zero_matrix(a: Sequence[Sequence]) -> bool:
    return all(x == 0 for row in a for x in row)
