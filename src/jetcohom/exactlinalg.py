"""Exact rational/big-integer linear algebra for the graded pipeline.

Rank and kernel computations run fraction-free over Python integers
(Bareiss-style elimination); a rational matrix is cleared to an integer
matrix plus denominator first.  Matrices are dense lists of lists of
``int`` or ``Fraction`` entries.  The cochain module keeps its operators
as sparse int columns over an int scale and hands these routines a dense
int matrix only for an elimination, one torus-weight block at a time: the
ranks of d and the kernel of the Laplacian, which the scales do not
change.  Kernel vectors come back as lists of primitive ints.
``invert`` serves the small per-algebra Cartan block of
``liealg.orthogonal_cartan``.  ``matmul``, ``mat_add``,
``is_zero_matrix`` and ``det`` are test oracles that the program does
not call; they stay here while the benchmark tracer
(``perfbench/tracing.py``) wraps them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

Matrix = List[List[Fraction]]


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


def clear_denominators(a: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], int]:
    """Return (integer matrix, d) with a = intmatrix / d.  Entries are ints
    or ``Fraction``s; both carry a ``denominator``."""
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _int_row_echelon(m: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free (Bareiss) row echelon form of ``m``, computed in place.
    Returns (echelon, pivot columns).

    The pivot of each column is the candidate row with the fewest nonzeros,
    then the smallest entry, the first such row on a tie.  Left of the
    pivot column every row from the pivot row down is zero and stays zero,
    so only the columns from the pivot on are updated."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    piv_cols: List[int] = []
    piv_r = 0
    prev = 1
    for col in range(cols):
        best = None
        for i in range(piv_r, rows):
            x = m[i][col]
            if x != 0:
                key = (cols - m[i].count(0), abs(x))
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        if i != piv_r:
            m[piv_r], m[i] = m[i], m[piv_r]
        prow = m[piv_r]
        piv = prow[col]
        ptail = prow[col:]
        for rr in range(piv_r + 1, rows):
            row = m[rr]
            f = row[col]
            # the full Bareiss update keeps every entry a minor of the input,
            # which is what makes the integer division exact; a row with
            # nothing under the pivot is only rescaled
            if f:
                row[col:] = [(x * piv - f * y) // prev for x, y in zip(row[col:], ptail)]
            elif piv != prev:
                row[col:] = [x * piv // prev for x in row[col:]]
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


def kernel_basis(a: Sequence[Sequence]) -> List[List[int]]:
    """Basis of the right kernel, as primitive integer vectors, one per
    free column, that column's coordinate positive.

    Forward elimination is fraction-free.  Back substitution keeps each
    vector as ints, the rational solution times one running denominator:
    solving a pivot row scales the vector by the pivot over its gcd with
    the row's sum, and the gcd of the result is divided out at the end."""
    if not a:
        return []
    cols = len(a[0])
    if cols == 0:
        return []
    m, _ = clear_denominators(a)
    ech, piv_cols = _int_row_echelon(m)
    piv_set = set(piv_cols)
    basis = []
    for fc in range(cols):
        if fc in piv_set:
            continue
        vec = [0] * cols
        vec[fc] = 1
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            row = ech[r]
            s = sum(x * v for x, v in zip(row[pc + 1:], vec[pc + 1:]) if v)
            if s:
                g = gcd(s, row[pc])
                scale = row[pc] // g
                if scale != 1:
                    vec = [v * scale for v in vec]
                vec[pc] = -s // g
        g = gcd(*vec)
        if vec[fc] < 0:
            g = -g
        basis.append([v // g for v in vec] if g != 1 else vec)
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
