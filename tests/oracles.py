"""Test-only oracles: dense helpers and brute-force references that the
program itself never calls."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

from jetcohom.affine import AffineWeight, laplacian_shift
from jetcohom.cochain import GradedComplexBlock
from jetcohom.liealg import AlgebraData, FiniteWeight

Matrix = List[List[Fraction]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(k: int) -> Matrix:
    out = zeros(k, k)
    for i in range(k):
        out[i][i] = Fraction(1)
    return out


def scale(a, s) -> Matrix:
    return [[x * s for x in row] for row in a]


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
