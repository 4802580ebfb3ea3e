"""Affine Weyl combinatorics and the predicted harmonic decomposition.

Weights of the rotation-extended symmetry are triples (energy, finite
weight, central charge) with the pairing

    <(n1, l1, b1), (n2, l2, b2)> = -n2*b1 - n1*b2 + <l1, l2>.

The affine Weyl group acts by reflections in the real affine roots
(k, alpha) at central charge zero; reflections preserve the pairing and
the central component.  Minimal-length coset representatives of the
quotient by the finite Weyl group are enumerated by walking the orbit of
the basepoint (0, 0, 1), which visits each coset once at graph distance
equal to the coset length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .liealg import AlgebraData, FiniteWeight, InvariantError, is_dominant
from .reptheory import weyl_dim

Vec = Tuple[Fraction, ...]


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

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            self.energy + other.energy,
            tuple(a + b for a, b in zip(self.finite, other.finite)),
            self.central + other.central,
        )

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
    multiplicity: int = 1

    def as_weight(self) -> AffineWeight:
        return AffineWeight(Fraction(self.k), self.alpha, Fraction(0))

    def is_positive(self) -> bool:
        if self.k > 0:
            return True
        if self.k < 0:
            return False
        nz = [c for c in self.alpha if c != 0]
        return bool(nz) and all(c >= 0 for c in self.alpha)


def affine_pairing(data: AlgebraData, w1: AffineWeight, w2: AffineWeight) -> Fraction:
    return (
        -w2.energy * w1.central
        - w1.energy * w2.central
        + data.weight_pairing(w1.finite, w2.finite)
    )


def rho_hat(data: AlgebraData) -> AffineWeight:
    return AffineWeight(Fraction(0), data.rootSystem.rho, Fraction(-data.coxeter))


def laplacian_shift(data: AlgebraData, w: AffineWeight) -> Fraction:
    """P(w) = (||w - rho_hat||^2 - ||rho_hat||^2) / 2 via the pairing."""
    r = rho_hat(data)
    diff = w - r
    return (affine_pairing(data, diff, diff) - affine_pairing(data, r, r)) / 2


def simple_affine_roots(data: AlgebraData) -> List[AffineRoot]:
    """alpha_0 = (1, -theta) followed by the finite simple roots at k = 0."""
    theta = tuple(Fraction(c) for c in data.rootSystem.theta)
    out = [AffineRoot(1, tuple(-c for c in theta))]
    for i in range(data.rank):
        out.append(AffineRoot(0, tuple(Fraction(1) if j == i else Fraction(0) for j in range(data.rank))))
    return out


def reflection_matrix(data: AlgebraData, root: AffineRoot) -> Tuple[Vec, ...]:
    """Matrix of the reflection in a real affine root on (n1, lambda, b)."""
    r = data.rank
    dim = r + 2
    alpha = root.alpha
    norm = data.weight_pairing(alpha, alpha)
    if norm == 0:
        raise InvariantError(f"root {alpha} has zero norm")
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


def _apply(mat: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v)) if v[j] != 0) for row in mat)


def _matmul(a, b) -> Tuple[Vec, ...]:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class AffineWeylElement:
    reducedWord: Tuple[int, ...]
    matrix: Tuple[Vec, ...]
    inverse: Tuple[Vec, ...]

    @property
    def length(self) -> int:
        return len(self.reducedWord)

    def apply(self, w: AffineWeight) -> AffineWeight:
        return AffineWeight.from_vector(_apply(self.matrix, w.as_vector()))

    def apply_inverse(self, w: AffineWeight) -> AffineWeight:
        return AffineWeight.from_vector(_apply(self.inverse, w.as_vector()))


class AffineWeylGroup:
    """Reflection matrices plus enumeration of minimal coset representatives."""

    def __init__(self, data: AlgebraData):
        self.data = data
        self.rank = data.rank
        self.simples = simple_affine_roots(data)
        self.gens = [reflection_matrix(data, rt) for rt in self.simples]
        dim = data.rank + 2
        self.identity_matrix = tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim)) for i in range(dim)
        )

    def identity(self) -> AffineWeylElement:
        return AffineWeylElement((), self.identity_matrix, self.identity_matrix)

    def from_word(self, word: Sequence[int]) -> AffineWeylElement:
        mat = self.identity_matrix
        for j in word:
            mat = _matmul(mat, self.gens[j])
        inv = self.identity_matrix
        for j in reversed(word):
            inv = _matmul(inv, self.gens[j])
        return AffineWeylElement(tuple(word), mat, inv)

    def minimal_coset_reps(self, maxLength: int) -> List[AffineWeylElement]:
        """Minimal-length representatives of W_af / W with length <= maxLength.

        BFS over the orbit of the basepoint (0, 0, 1); ties between words
        reaching a new coset are broken lexicographically.
        """
        if maxLength < 0:
            raise ValueError("maxLength must be >= 0")
        dim = self.rank + 2
        base = tuple([Fraction(0)] * (dim - 1) + [Fraction(1)])
        seen = {base}
        ident = self.identity()
        out = [ident]
        level: List[Tuple[AffineWeylElement, Vec]] = [(ident, base)]
        for _l in range(maxLength):
            cands: Dict[Vec, Tuple[Tuple[int, ...], AffineWeylElement]] = {}
            for w, pt in level:
                for j in range(self.rank + 1):
                    npt = _apply(self.gens[j], pt)
                    if npt in seen:
                        continue
                    word = (j,) + w.reducedWord
                    prev = cands.get(npt)
                    if prev is None or word < prev[0]:
                        elem = AffineWeylElement(
                            word,
                            _matmul(self.gens[j], w.matrix),
                            _matmul(w.inverse, self.gens[j]),
                        )
                        cands[npt] = (word, elem)
            level = []
            for npt in cands:
                seen.add(npt)
            for npt, (_, elem) in sorted(cands.items(), key=lambda kv: kv[1][0]):
                out.append(elem)
                level.append((elem, npt))
        return out

    def inversion_set(self, w: AffineWeylElement) -> List[AffineRoot]:
        """Positive affine roots sent to negative roots by w.

        Rejects non-reduced words; for a minimal coset representative every
        member has k > 0.
        """
        word = w.reducedWord
        v_inv = self.identity_matrix
        roots: List[AffineRoot] = []
        root_vecs: set[Vec] = set()
        for t in range(len(word) - 1, -1, -1):
            a = word[t]
            vec = _apply(v_inv, (Fraction(self.simples[a].k),) + tuple(self.simples[a].alpha) + (Fraction(0),))
            k = vec[0]
            if k.denominator != 1 or vec[-1] != 0:
                raise InvariantError(f"image {vec} of a simple root is not a real affine root")
            rt = AffineRoot(int(k), tuple(vec[1:-1]))
            # the word is reduced iff each prefix lengthens: v^{-1} alpha_a > 0
            if not rt.is_positive() or vec in root_vecs:
                raise ValueError(f"word {word} is not reduced")
            root_vecs.add(vec)
            roots.append(rt)
            v_inv = _matmul(v_inv, self.gens[a])
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


def minimal_coset_reps(data: AlgebraData, maxLength: int) -> List[AffineWeylElement]:
    return AffineWeylGroup(data).minimal_coset_reps(maxLength)


def inversion_set(data: AlgebraData, w: AffineWeylElement) -> List[AffineRoot]:
    return AffineWeylGroup(data).inversion_set(w)


def rho_difference(data: AlgebraData, w: AffineWeylElement) -> AffineWeight:
    return AffineWeylGroup(data).rho_difference(w)


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

