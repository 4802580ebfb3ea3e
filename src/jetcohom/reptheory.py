"""Torus weights, characters and irreducible decompositions.

Weights are tuples in simple-root coordinates throughout (the same basis
the algebra records for reports).  The Weyl dimension and Freudenthal's
recursion take root-lattice weights, whose coordinates are integers, and
run on ints in the int form S of ``RootSystem.sym_form`` with 2 rho: the
scale kappa of the invariant form kappa * S cancels from both.  Any other
weight raises ``ValueError``.  Characters of irreducibles come from
Freudenthal's recursion on the dominant weights below the highest one,
found by descent from it, expanded over Weyl orbits; decomposition of an
arbitrary Weyl-symmetric multiset peels maximal weights greedily.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, Iterable, List, Sequence

from .liealg import AlgebraData, Coords, FiniteWeight, InvariantError, is_dominant

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


def _dominant_lattice(data: AlgebraData, weight: Sequence[int | Fraction]) -> Coords:
    """The int coordinates of a dominant root-lattice weight; any other
    weight raises ``ValueError``, so no coordinate is ever truncated."""
    if any(x.denominator != 1 for x in weight):
        raise ValueError(f"{tuple(weight)} is not in the root lattice: its simple-root coordinates are not integers")
    lam = tuple(int(x) for x in weight)
    if not is_dominant(data, lam):
        raise ValueError(f"{lam} is not dominant")
    return lam


def weyl_dim(data: AlgebraData, highest: Sequence[int | Fraction]) -> int:
    """prod <lam + rho, alpha> / prod <rho, alpha> over the positive roots
    for a dominant root-lattice weight, taken as prod <2lam + 2rho, alpha> /
    prod <2rho, alpha> in S, on ints; memoised in ``data.weyl_dims``."""
    if (known := data.weyl_dims.get(tuple(highest))) is not None:
        return known
    lam = _dominant_lattice(data, highest)
    rs = data.rootSystem
    top = tuple(2 * a + b for a, b in zip(lam, rs.two_rho))
    num = prod(rs.form(top, alpha) for alpha in rs.positiveRoots)
    den = prod(rs.form(rs.two_rho, alpha) for alpha in rs.positiveRoots)
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise InvariantError(f"Weyl dimension {Fraction(num, den)} is not a positive integer")
    data.weyl_dims[lam] = d
    return d


def dominant_weights_below(data: AlgebraData, highest: Sequence[int | Fraction]) -> List[Coords]:
    """The dominant mu <= lam for a dominant root-lattice weight lam, by
    descent: subtracting one positive root at a time while staying dominant
    reaches every one of them (Stembridge, *The partial order of dominant
    weights*, 1998).  Sorted by height, highest first, then by coordinates."""
    lam = _dominant_lattice(data, highest)
    found, todo = {lam}, [lam]
    while todo:
        nu = todo.pop()
        for alpha in data.rootSystem.positiveRoots:
            mu = tuple(map(operator.sub, nu, alpha))
            if mu not in found and is_dominant(data, mu):
                found.add(mu)
                todo.append(mu)
    return sorted(found, key=lambda m: (-sum(m), m))


def dominant_multiplicities(data: AlgebraData, highest: Sequence[int | Fraction]) -> Dict[FiniteWeight, int]:
    """Freudenthal's recursion over ``dominant_weights_below(highest)``, on
    ints in S: m_mu (|lam + rho|^2 - |mu + rho|^2) = m_mu <lam - mu, lam + mu
    + 2rho> = 2 sum_alpha sum_{k >= 1} m_{mu + k alpha} <mu + k alpha, alpha>."""
    rs = data.rootSystem
    lam, *dominants = dominant_weights_below(data, highest)
    # each positive root with S alpha and <alpha, alpha> in S
    roots = [(alpha, [rs.form(alpha, e) for e in rs.simpleRoots], rs.form(alpha, alpha)) for alpha in rs.positiveRoots]
    table: Dict[FiniteWeight, int] = {lam: 1}
    for mu in dominants:
        num = 0
        for alpha, s_alpha, norm in roots:
            pair, k = sum(map(operator.mul, mu, s_alpha)), 1
            while True:
                m_nu = table.get(dominant_representative(data, tuple(x + k * a for x, a in zip(mu, alpha))))
                if m_nu is None:
                    break  # weight strings are contiguous
                num += m_nu * (pair + k * norm)
                k += 1
        den = rs.form([a - b for a, b in zip(lam, mu)], [a + b + t for a, b, t in zip(lam, mu, rs.two_rho)])
        if den <= 0:
            raise InvariantError(f"Freudenthal denominator {den} must be positive")
        m, rem = divmod(2 * num, den)
        if rem or m < 0:
            raise InvariantError(f"weight multiplicity {Fraction(2 * num, den)} is not a nonnegative integer")
        if m > 0:
            table[mu] = m
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


def weights_of_basis(basis) -> WeightMultiset:
    """Torus-weight multiset of a ``cochain.CochainBasis``: how many of its
    monomials carry each of the weight labels ``build_basis`` gave them."""
    return dict(Counter(basis.weights))


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
