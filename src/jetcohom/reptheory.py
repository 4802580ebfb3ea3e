"""Torus weights, characters and irreducible decompositions.

Weights are tuples of exact rationals in simple-root coordinates
throughout (the same basis the algebra records for reports): integral
weights stay ints, and only rho brings in ``Fraction``.  Characters of
irreducibles come from Freudenthal's multiplicity recursion on dominant
weights, expanded over Weyl orbits; decomposition of an arbitrary
Weyl-symmetric multiset peels maximal weights greedily.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .liealg import AlgebraData, FiniteWeight, InvariantError, is_dominant

WeightMultiset = Dict[FiniteWeight, int]


class DecompositionError(ValueError):
    """The multiset is not the character of a finite-dimensional module."""


@dataclass(frozen=True)
class IrrepSummand:
    lowestWeight: FiniteWeight
    multiplicity: int
    dimension: int

    def sort_key(self):
        return (self.dimension, self.lowestWeight, self.multiplicity)


def dominant_representative(data: AlgebraData, w: Sequence[Fraction]) -> FiniteWeight:
    cur = tuple(w)
    rs = data.rootSystem
    while True:
        for i in range(data.rank):
            if rs.pair_coroot(cur, i) < 0:
                cur = rs.reflect(cur, i)
                break
        else:
            return cur


def antidominant_representative(data: AlgebraData, w: Sequence[Fraction]) -> FiniteWeight:
    """-dominant(-w): the Weyl group acts linearly, so this is the one
    antidominant weight of the orbit of w."""
    return tuple(-x for x in dominant_representative(data, tuple(-x for x in w)))


def weyl_orbit(data: AlgebraData, w: Sequence[Fraction]) -> set[FiniteWeight]:
    start = tuple(w)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for i in range(data.rank):
            img = data.rootSystem.reflect(v, i)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def weyl_dim(data: AlgebraData, highest: Sequence[Fraction]) -> int:
    """Weyl dimension formula for the dominant highest weight, memoised in
    ``data.weyl_dims``."""
    lam = tuple(highest)
    known = data.weyl_dims.get(lam)
    if known is not None:
        return known
    if not is_dominant(data, lam):
        raise ValueError(f"{lam} is not dominant")
    rs = data.rootSystem
    rho = rs.rho
    num = Fraction(1)
    den = Fraction(1)
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    for alpha in rs.positiveRoots:
        num *= data.weight_pairing(lam_rho, alpha)
        den *= data.weight_pairing(rho, alpha)
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise InvariantError(f"Weyl dimension {d} is not a positive integer")
    data.weyl_dims[lam] = int(d)
    return int(d)


def dominant_multiplicities(data: AlgebraData, highest: Sequence[Fraction]) -> Dict[FiniteWeight, int]:
    """Freudenthal recursion over the dominant weights below ``highest``."""
    lam = tuple(highest)
    rs = data.rootSystem
    rho = rs.rho
    pairing = data.weight_pairing

    # dominant mu <= lam lie in the coordinate box 0 <= lam - mu <= lam
    # (root coordinates of dominant weights are nonnegative)
    bounds = [int(x) for x in lam]
    dominants: List[FiniteWeight] = []
    for q in itertools.product(*(range(b + 1) for b in bounds)):
        mu = tuple(x - c for x, c in zip(lam, q))
        if is_dominant(data, mu):
            dominants.append(mu)
    dominants.sort(key=lambda m: (-sum(m), m))

    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    norm_top = pairing(lam_rho, lam_rho)
    table: Dict[FiniteWeight, int] = {}
    for mu in dominants:
        if mu == lam:
            table[mu] = 1
            continue
        num = Fraction(0)
        for alpha in rs.positiveRoots:
            k = 1
            while True:
                nu = tuple(x + k * a for x, a in zip(mu, alpha))
                m_nu = table.get(dominant_representative(data, nu))
                if m_nu is None:
                    break  # weight strings are contiguous
                num += 2 * m_nu * pairing(nu, alpha)
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        den = norm_top - pairing(mu_rho, mu_rho)
        if den <= 0:
            raise InvariantError(f"Freudenthal denominator {den} must be positive")
        m = num / den
        if m.denominator != 1 or m < 0:
            raise InvariantError(f"weight multiplicity {m} is not a nonnegative integer")
        if m > 0:
            table[mu] = int(m)
    return table


def irrep_character(data: AlgebraData, highest: Sequence[Fraction]) -> WeightMultiset:
    lam = tuple(highest)
    cached = data.characters.get(lam)
    if cached is not None:
        return dict(cached)
    table = dominant_multiplicities(data, lam)
    char: WeightMultiset = {}
    for mu, m in table.items():
        for nu in weyl_orbit(data, mu):
            char[nu] = m
    if sum(char.values()) != weyl_dim(data, lam):
        raise InvariantError(f"character of {lam} disagrees with the Weyl dimension")
    data.characters[lam] = dict(char)
    return char


def weights_of_basis(data: AlgebraData, basis) -> WeightMultiset:
    """Torus weights of a ``cochain.CochainBasis``, read from its wedges of
    (level, index) modes; dual modes carry negated weights.  The basis
    weights are integral, so every weight is an int tuple."""
    counts: Dict[Tuple[int, ...], int] = {}
    for wedge in basis.wedges():
        w = [0] * data.rank
        for _level, idx in wedge:
            for i, c in enumerate(data.basis_weights[idx]):
                w[i] -= c
        key = tuple(w)
        counts[key] = counts.get(key, 0) + 1
    return counts


def is_weyl_symmetric(data: AlgebraData, multiset: WeightMultiset) -> bool:
    for w, m in multiset.items():
        for i in range(data.rank):
            if multiset.get(data.rootSystem.reflect(w, i), 0) != m:
                return False
    return True


def decompose(data: AlgebraData, multiset: WeightMultiset) -> List[IrrepSummand]:
    """Greedy highest-weight peeling of a Weyl-symmetric weight multiset."""
    work = {w: m for w, m in multiset.items() if m != 0}
    out: List[IrrepSummand] = []
    while work:
        mu = max(work, key=lambda w: (sum(w), w))
        mult = work[mu]
        if mult < 0 or not is_dominant(data, mu):
            raise DecompositionError(
                f"maximal weight {mu} (multiplicity {mult}) is not a dominant highest weight"
            )
        char = irrep_character(data, mu)
        for nu, cm in char.items():
            new = work.get(nu, 0) - mult * cm
            if new < 0:
                raise DecompositionError(f"subtracting V({mu}) drives weight {nu} negative")
            if new == 0:
                work.pop(nu, None)
            else:
                work[nu] = new
        if mu in work:
            # a character without its own highest weight would peel mu forever
            raise DecompositionError(f"subtracting V({mu}) leaves its highest weight {mu} in place")
        out.append(
            IrrepSummand(
                lowestWeight=antidominant_representative(data, mu),
                multiplicity=mult,
                dimension=weyl_dim(data, mu),
            )
        )
    out.sort(key=IrrepSummand.sort_key)
    return out


def expand(data: AlgebraData, summands: Iterable[IrrepSummand]) -> WeightMultiset:
    """Inverse of :func:`decompose`; used for the round-trip identity."""
    out: WeightMultiset = {}
    for s in summands:
        highest = dominant_representative(data, s.lowestWeight)
        for nu, m in irrep_character(data, highest).items():
            out[nu] = out.get(nu, 0) + s.multiplicity * m
    return {w: m for w, m in out.items() if m != 0}


@dataclass
class AuditVerdict:
    passed: bool
    lowest_weights: List[FiniteWeight]
    violations: List[Tuple[FiniteWeight, int]]


def multiplicity_one_audit(cell_decompositions: Iterable[Tuple[object, List[IrrepSummand]]]) -> AuditVerdict:
    """Check each finite lowest weight occurs at most once across all cells."""
    counts: Dict[FiniteWeight, int] = {}
    for _cell, summands in cell_decompositions:
        for s in summands:
            counts[s.lowestWeight] = counts.get(s.lowestWeight, 0) + s.multiplicity
    violations = [(w, c) for w, c in sorted(counts.items()) if c > 1]
    return AuditVerdict(
        passed=not violations,
        lowest_weights=sorted(counts),
        violations=violations,
    )
