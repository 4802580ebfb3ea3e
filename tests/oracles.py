"""Test-only oracles: dense helpers and brute-force references that the
program itself never calls."""

from __future__ import annotations

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
