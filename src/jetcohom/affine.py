"""Affine Weyl combinatorics and the predicted harmonic decomposition.

Weights of the rotation-extended symmetry are triples (energy, finite
weight, central charge) with the pairing

    <(n1, l1, b1), (n2, l2, b2)> = -n2*b1 - n1*b2 + <l1, l2>.

The affine Weyl group acts by reflections in the real affine roots
(k, alpha) at central charge zero,

    s(v) = v - (2 <v, beta> / <alpha, alpha>) beta,   beta = (k, alpha, 0),

which preserve the pairing and the central component.  An element is its
reduced word and acts on a vector one simple reflection at a time.
Minimal-length coset representatives of the quotient by the finite Weyl
group are enumerated by walking the orbit of the basepoint (0, 0, 1),
which visits each coset once at graph distance equal to the coset length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .liealg import AlgebraData, FiniteWeight, InvariantError, is_dominant, scaled_ints
from .reptheory import weyl_dim

Vec = Tuple[Fraction, ...]
Reflection = Tuple[Vec, Vec]  # (beta, row): s(v) = v - (row . v) beta


@dataclass(frozen=True)
class AffineWeight:
    energy: Fraction           # rotation weight n1
    finite: FiniteWeight       # simple-root coordinates
    central: Fraction          # level b

    def as_vector(self) -> Vec:
        return (Fraction(self.energy),) + tuple(self.finite) + (Fraction(self.central),)

    @staticmethod
    def from_vector(v: Sequence[Fraction]) -> "AffineWeight":
        return AffineWeight(Fraction(v[0]), tuple(v[1:-1]), Fraction(v[-1]))

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            self.energy - other.energy,
            tuple(a - b for a, b in zip(self.finite, other.finite)),
            self.central - other.central,
        )


@dataclass(frozen=True)
class AffineRoot:
    k: int
    alpha: FiniteWeight

    def is_positive(self) -> bool:
        if self.k > 0:
            return True
        if self.k < 0:
            return False
        nz = [c for c in self.alpha if c != 0]
        return bool(nz) and all(c >= 0 for c in self.alpha)


def _pairing(data: AlgebraData, u: Sequence[int | Fraction], v: Sequence[int | Fraction]) -> Fraction:
    """The pairing of two vectors (energy, finite, central), the finite parts
    by <,> = kappa S."""
    return -v[0] * u[-1] - u[0] * v[-1] + data.weight_pairing(u[1:-1], v[1:-1])


def rho_hat(data: AlgebraData) -> AffineWeight:
    return AffineWeight(Fraction(0), data.rootSystem.rho, Fraction(-data.coxeter))


def laplacian_shift(data: AlgebraData, w: AffineWeight) -> Fraction:
    """P(w) = (||w - rho_hat||^2 - ||rho_hat||^2) / 2 via the pairing, on
    ints: w and rho_hat = (0, rho, -c) are taken times one denominator D
    (2 rho is integral), so each pairing is an int plus kappa times the int
    u S v, and P(w) is their difference over 2 D^2.  It shares no formula
    with ``casimir_eigenvalue``, which ``cochain.eigenvalue_of`` checks it
    against."""
    vec, den = scaled_ints((w.energy, *w.finite, w.central))
    scale = lcm(den, 2)
    x = [v * (scale // den) for v in vec]
    r = [0, *(t * (scale // 2) for t in data.rootSystem.two_rho), -data.coxeter * scale]
    diff = [a - b for a, b in zip(x, r)]
    return (_pairing(data, diff, diff) - _pairing(data, r, r)) / (2 * scale * scale)


def simple_affine_roots(data: AlgebraData) -> List[AffineRoot]:
    """alpha_0 = (1, -theta) followed by the finite simple roots at k = 0."""
    theta = tuple(Fraction(c) for c in data.rootSystem.theta)
    out = [AffineRoot(1, tuple(-c for c in theta))]
    for i in range(data.rank):
        out.append(AffineRoot(0, tuple(Fraction(1) if j == i else Fraction(0) for j in range(data.rank))))
    return out


def reflection(data: AlgebraData, root: AffineRoot) -> Reflection:
    """The reflection in a real affine root on (n1, lambda, b) as (beta, row):
    s(v) = v - (row . v) beta, with beta = (k, alpha, 0) and row the
    functional v -> 2 <v, beta> / <alpha, alpha>.  With <,> = kappa S that
    row is 2 (0, alpha S, -k / kappa) / alpha S alpha."""
    alpha, rs = root.alpha, data.rootSystem
    norm = Fraction(rs.form(alpha, alpha))
    if norm == 0:
        raise InvariantError(f"root {alpha} has zero norm")
    beta = (Fraction(root.k), *alpha, Fraction(0))
    pair = [rs.form(alpha, e) for e in rs.simpleRoots]
    return beta, tuple(2 * x / norm for x in (0, *pair, -root.k / data.form_scale))


def _reflect(refl: Reflection, v: Sequence[Fraction]) -> Vec:
    beta, row = refl
    c = sum(r * x for r, x in zip(row, v) if x)
    return tuple(x - c * b for x, b in zip(v, beta))


def _act(reflections: Sequence[Reflection], indices: Iterable[int], v: Vec) -> Vec:
    """The simple reflections named by ``indices`` applied to v, the first
    index first."""
    for j in indices:
        v = _reflect(reflections[j], v)
    return v


@dataclass(frozen=True)
class AffineWeylElement:
    """s_{j_1} ... s_{j_m} for the reduced word (j_1, ..., j_m), acting
    through its group's simple reflections."""

    reducedWord: Tuple[int, ...]
    reflections: Tuple[Reflection, ...] = field(repr=False, compare=False)

    @property
    def length(self) -> int:
        return len(self.reducedWord)

    def apply(self, w: AffineWeight) -> AffineWeight:
        return AffineWeight.from_vector(_act(self.reflections, reversed(self.reducedWord), w.as_vector()))

    def apply_inverse(self, w: AffineWeight) -> AffineWeight:
        return AffineWeight.from_vector(_act(self.reflections, self.reducedWord, w.as_vector()))


class AffineWeylGroup:
    """The simple reflections s_0, ..., s_r (s_0 in alpha_0 = (1, -theta))
    plus enumeration of minimal coset representatives."""

    def __init__(self, data: AlgebraData):
        self.data = data
        self.rank = data.rank
        self.simples = simple_affine_roots(data)
        self.reflections = tuple(reflection(data, rt) for rt in self.simples)

    def from_word(self, word: Sequence[int]) -> AffineWeylElement:
        if not all(0 <= j <= self.rank for j in word):
            raise ValueError(f"word {tuple(word)} names no simple reflection s_0..s_{self.rank}")
        return AffineWeylElement(tuple(word), self.reflections)

    def minimal_coset_reps(self, maxLength: int) -> List[AffineWeylElement]:
        """Minimal-length representatives of W_af / W with length <= maxLength.

        BFS over the orbit of the basepoint (0, 0, 1); ties between words
        reaching a new coset are broken lexicographically.
        """
        if maxLength < 0:
            raise ValueError("maxLength must be >= 0")
        base = (Fraction(0),) * (self.rank + 1) + (Fraction(1),)
        seen = {base}
        level: List[Tuple[Tuple[int, ...], Vec]] = [((), base)]
        out = [self.from_word(())]
        for _l in range(maxLength):
            cands: Dict[Vec, Tuple[int, ...]] = {}
            for word, pt in level:
                for j, refl in enumerate(self.reflections):
                    npt = _reflect(refl, pt)
                    if npt in seen:
                        continue
                    new = (j,) + word
                    prev = cands.get(npt)
                    if prev is None or new < prev:
                        cands[npt] = new
            seen.update(cands)
            level = sorted((word, npt) for npt, word in cands.items())
            out.extend(self.from_word(word) for word, _ in level)
        return out

    def inversion_set(self, w: AffineWeylElement) -> List[AffineRoot]:
        """Positive affine roots sent to negative roots by w.

        Rejects non-reduced words; for a minimal coset representative every
        member has k > 0.
        """
        word = w.reducedWord
        roots: List[AffineRoot] = []
        root_vecs: set[Vec] = set()
        for t in range(len(word) - 1, -1, -1):
            # alpha_{word[t]} reflected by word[t + 1], ..., word[-1] in turn
            vec = _act(self.reflections, word[t + 1:], self.reflections[word[t]][0])
            k = vec[0]
            if k.denominator != 1 or vec[-1] != 0:
                raise InvariantError(f"image {vec} of a simple root is not a real affine root")
            rt = AffineRoot(int(k), tuple(vec[1:-1]))
            # the word is reduced iff each prefix lengthens: v^{-1} alpha_a > 0
            if not rt.is_positive() or vec in root_vecs:
                raise ValueError(f"word {word} is not reduced")
            root_vecs.add(vec)
            roots.append(rt)
        roots.sort(key=lambda r: (r.k, r.alpha))
        return roots

    def rho_difference(self, w: AffineWeylElement) -> AffineWeight:
        """rho_hat - w^{-1} rho_hat; equals the inversion-set sum."""
        r = rho_hat(self.data)
        return r - w.apply_inverse(r)


@dataclass(frozen=True)
class PredictedIrrep:
    lowestWeight: AffineWeight
    energy: int
    finiteDim: int
    sourceWord: Tuple[int, ...]

    def sort_key(self):
        return (self.energy, self.lowestWeight.finite)


def predict_cohomology(data: AlgebraData, maxDegree: int) -> Dict[int, List[PredictedIrrep]]:
    """One summand per minimal representative of each length p <= maxDegree."""
    group = AffineWeylGroup(data)
    by_degree: Dict[int, List[PredictedIrrep]] = {p: [] for p in range(maxDegree + 1)}
    for w in group.minimal_coset_reps(maxDegree):
        lam = group.rho_difference(w)
        if lam.central != 0:
            raise InvariantError(f"rho difference {lam} has a central part")
        if lam.energy.denominator != 1 or lam.energy < 0:
            raise InvariantError(f"rho difference {lam} has energy outside the nonnegative integers")
        neg_finite = tuple(-x for x in lam.finite)
        if not is_dominant(data, neg_finite):
            raise InvariantError("minus the finite part must be dominant")
        by_degree[w.length].append(
            PredictedIrrep(
                lowestWeight=lam,
                energy=int(lam.energy),
                finiteDim=weyl_dim(data, neg_finite),
                sourceWord=w.reducedWord,
            )
        )
    for p in by_degree:
        by_degree[p].sort(key=PredictedIrrep.sort_key)
    return by_degree

