"""Simple Lie algebras over exact rationals in a Chevalley basis.

Builds the root system from Cartan data, determines Chevalley structure
constants with the extraspecial-pair sign convention, and derives the
normalized invariant form (trace form divided by twice the Coxeter
number), the compact involution and the positive-definite metric it
induces.  Everything is exact: structure constants are integers, the
invariant form is kept once, as sparse rows of ``fractions.Fraction``
(``orthogonal_cartan`` gives the rational structure constants of a basis
with a diagonal metric, and ``int_algebra`` scales that basis to the ints
both exact routes read), and the form it induces on weights once, as the
int symmetrized Cartan matrix S over one rational scale kappa.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Iterator, List, Sequence, Tuple

from . import exactlinalg as xl

Coords = Tuple[int, ...]
FiniteWeight = Tuple[int | Fraction, ...]  # root-lattice weights are ints; rho brings in Fraction

_VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


class InvalidAlgebraError(ValueError):
    """Raised for Cartan data outside the supported simple series."""


class InvariantError(RuntimeError):
    """An exact structural identity failed to hold."""


@dataclass(frozen=True)
class EnergyWindow:
    """The mode levels kMin..kMax of the identity harness (``fock``), with a
    guard margin; ``report`` validates it in every command's ``RunConfig``."""

    kMin: int
    kMax: int
    guard: int = 0

    def __post_init__(self):
        if self.kMin > 0 or self.kMax < 1 or self.guard < 0:
            raise ValueError("window must satisfy kMin <= 0 < 1 <= kMax, guard >= 0")

    def contains(self, k: int) -> bool:
        return self.kMin <= k <= self.kMax

    def support(self, margin: int) -> Tuple[int, int]:
        return (self.kMin + margin, self.kMax - margin)


@dataclass(frozen=True)
class AlgebraSpec:
    series: str
    rank: int

    def __post_init__(self):
        ok = _VALID_RANKS.get(self.series)
        if ok is None:
            raise InvalidAlgebraError(f"unknown series {self.series!r}; expected one of A-G")
        if not isinstance(self.rank, int) or not ok(self.rank):
            raise InvalidAlgebraError(f"rank {self.rank} is not valid for series {self.series}")

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"


def cartan_matrix(spec: AlgebraSpec) -> List[List[int]]:
    """Cartan matrix with the convention A[i][j] = <alpha_j, alpha_i^vee>."""
    r = spec.rank
    A = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def chain(pairs):
        for i, j in pairs:
            A[i][j] = -1
            A[j][i] = -1

    s = spec.series
    if s in ("A", "B", "C"):
        chain((i, i + 1) for i in range(r - 1))
        if s == "B" and r >= 2:
            # last simple root short: <alpha_{r-1}, alpha_r^vee> = -2
            A[r - 1][r - 2] = -2
        if s == "C" and r >= 2:
            A[r - 2][r - 1] = -2
    elif s == "D":
        chain((i, i + 1) for i in range(r - 2))
        A[r - 3][r - 1] = -1
        A[r - 1][r - 3] = -1
    elif s == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-r, node 2 attached to 4
        chain((i, i + 1) for i in range(2, r - 1))
        A[0][2] = A[2][0] = -1
        A[1][3] = A[3][1] = -1
    elif s == "F":
        chain([(0, 1), (2, 3)])
        A[1][2] = -1
        A[2][1] = -2
    elif s == "G":
        A[0][1] = -3
        A[1][0] = -1
    return A


def _symmetrizer(A: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Positive ints d_i with d_i A[i][j] = d_j A[j][i] (connected diagram),
    found over the rationals from d_0 = 1 and cleared of denominators."""
    r = len(A)
    d: List[Fraction] = [Fraction(1)] + [Fraction(0)] * (r - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(r):
            if i != j and A[i][j] != 0 and d[j] == 0:
                d[j] = d[i] * Fraction(A[i][j], A[j][i])
                todo.append(j)
    if not all(x > 0 for x in d):
        raise InvariantError("Cartan symmetrizer must be positive")
    return scaled_ints(d)[0]


@dataclass(frozen=True)
class RootSystem:
    """Roots in simple-root coordinates, plus 2 rho, the highest root and
    the invariant form on weights up to its scale."""

    rank: int
    cartan: Tuple[Tuple[int, ...], ...]
    simpleRoots: Tuple[Coords, ...]
    positiveRoots: Tuple[Coords, ...]
    two_rho: Coords  # the sum of the positive roots
    theta: Coords
    # S_ij = d_i A_ij, the symmetrized Cartan matrix as ints: the invariant
    # form on weights is <a, b> = kappa * a S b with kappa the one rational
    # scale ``AlgebraData.form_scale``, which cancels from root strings, sign
    # recursions, coroots, Weyl dimensions and Freudenthal's recursion.
    sym_form: Tuple[Coords, ...]

    @property
    def allRoots(self) -> Tuple[Coords, ...]:
        return self.positiveRoots + tuple(tuple(-c for c in b) for b in self.positiveRoots)

    @property
    def rho(self) -> FiniteWeight:
        return tuple(Fraction(x, 2) for x in self.two_rho)

    def pair_coroot(self, weight: Sequence[Fraction], i: int) -> Fraction:
        """<weight, alpha_i^vee> for a weight in simple-root coordinates."""
        return sum(x * self.cartan[i][j] for j, x in enumerate(weight))

    def reflect(self, weight: Sequence[Fraction], i: int) -> FiniteWeight:
        c = self.pair_coroot(weight, i)
        out = list(weight)
        out[i] -= c
        return tuple(out)

    def form(self, a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> int | Fraction:
        """a S b: the invariant form over its scale kappa, an int on ints."""
        return sum(x * sum(map(operator.mul, row, b)) for x, row in zip(a, self.sym_form) if x)


def _generate_roots(A: Sequence[Sequence[int]]) -> set[Coords]:
    r = len(A)
    simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(r):
            c = sum(A[i][j] * beta[j] for j in range(r))
            new = list(beta)
            new[i] -= c
            new_t = tuple(new)
            if new_t not in roots and any(new_t):
                roots.add(new_t)
                frontier.append(new_t)
    return roots


def build_root_system(spec: AlgebraSpec) -> RootSystem:
    A = cartan_matrix(spec)
    r = spec.rank
    roots = _generate_roots(A)
    positives = sorted(
        (b for b in roots if all(c >= 0 for c in b)),
        key=lambda b: (sum(b), b),
    )
    if 2 * len(positives) != len(roots):
        raise InvariantError("roots must split into positive and negative halves")
    max_h = max(sum(b) for b in positives)
    highest = [b for b in positives if sum(b) == max_h]
    if len(highest) != 1:
        raise InvariantError("simple algebras have a unique highest root")
    d = _symmetrizer(A)
    return RootSystem(
        rank=r,
        cartan=tuple(tuple(row) for row in A),
        simpleRoots=tuple(tuple(1 if j == i else 0 for j in range(r)) for i in range(r)),
        positiveRoots=tuple(positives),
        two_rho=tuple(sum(b[i] for b in positives) for i in range(r)),
        theta=highest[0],
        sym_form=tuple(tuple(d[i] * A[i][j] for j in range(r)) for i in range(r)),
    )


class _ChevalleySigns:
    """Structure constants N(a,b) with the extraspecial-pair convention.

    Signs of positive special pairs are fixed by induction on the height
    of the sum, using the standard three- and four-root identities; pairs
    with mixed signs reduce to positive pairs through the cyclic identity
    N(a,b)/(c,c) = N(b,c)/(a,a) for a+b+c = 0.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.root_set = set(rs.allRoots)
        self.pos_index = {b: i for i, b in enumerate(rs.positiveRoots)}
        self.norm2 = {a: rs.form(a, a) for a in rs.allRoots}
        self.N: Dict[Tuple[Coords, Coords], Fraction] = {}
        self._fill_positive_pairs()

    def _string_down(self, a: Coords, b: Coords) -> int:
        """max p with b - p*a a root."""
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while any(cur) and cur in self.root_set:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def _fill_positive_pairs(self):
        add = lambda v: tuple(map(sum, zip(*v)))
        for gamma in self.rs.positiveRoots:
            if sum(gamma) < 2:
                continue
            pairs = []
            for alpha in self.rs.positiveRoots:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in self.pos_index and self.pos_index[alpha] < self.pos_index[beta]:
                    pairs.append((alpha, beta))
            pairs.sort(key=lambda p: self.pos_index[p[0]])
            a1, b1 = pairs[0]
            n_extra = Fraction(self._string_down(a1, b1) + 1)
            self._set(a1, b1, n_extra)
            g2 = self.norm2[gamma]
            for alpha, beta in pairs[1:]:
                # four-root identity on (a1, -alpha, b1, -beta), sum zero
                total = Fraction(0)
                xi1 = tuple(x - y for x, y in zip(a1, alpha))
                if xi1 in self.root_set:
                    total += self._mixed(a1, _neg(alpha)) * self._mixed(b1, _neg(beta)) / self.norm2[xi1]
                xi2 = tuple(x - y for x, y in zip(b1, alpha))
                if xi2 in self.root_set:
                    total += self._mixed(_neg(alpha), b1) * self._mixed(a1, _neg(beta)) / self.norm2[xi2]
                val = -g2 * total / n_extra
                expect = self._string_down(alpha, beta) + 1
                if val.denominator != 1 or abs(val) != expect:
                    raise InvariantError(f"Chevalley sign of {(gamma, alpha, beta, val)}")
                self._set(alpha, beta, val)

    def _set(self, a: Coords, b: Coords, val: Fraction):
        self.N[(a, b)] = val
        self.N[(b, a)] = -val

    def _mixed(self, x: Coords, y: Coords) -> Fraction:
        """N(x,y) where exactly one of x,y is positive; sum must be a root."""
        if all(c >= 0 for c in x):
            return self._mixed_pn(x, y)
        return -self._mixed_pn(y, x)

    def _mixed_pn(self, x: Coords, y: Coords) -> Fraction:
        # x positive, y negative, x+y a root
        s = tuple(a + b for a, b in zip(x, y))
        nu = _neg(y)
        if all(c >= 0 for c in s):
            return -self.norm2[s] * self.N[(nu, s)] / self.norm2[x]
        return self.norm2[s] * self.N[(_neg(s), x)] / self.norm2[nu]

    def value(self, a: Coords, b: Coords) -> Fraction:
        apos, bpos = all(c >= 0 for c in a), all(c >= 0 for c in b)
        if apos and bpos:
            return self.N[(a, b)]
        if not apos and not bpos:
            return -self.N[(_neg(a), _neg(b))]
        if apos:
            return self._mixed_pn(a, b)
        return -self._mixed_pn(b, a)


def _neg(a: Coords) -> Coords:
    return tuple(-c for c in a)


@dataclass
class AlgebraData:
    """A simple Lie algebra with exact structure constants.

    Basis order: h_1..h_r (simple coroots), then e_alpha over positive
    roots in the canonical order, then f_alpha in the same order.
    ``structure[i][j]`` maps a basis index p to the integer coefficient of
    basis element p in [b_i, b_j].  ``gram`` is the trace form of the
    adjoint representation divided by 2c, as sparse rows ``gram[i][j]`` of
    its nonzero entries; ``herm_rows`` derives the metric
    hermGram(x, y) = -gram(x, omega y) of the compact involution omega.
    """

    spec: AlgebraSpec
    dim: int
    rank: int
    coxeter: int
    basisLabels: Tuple[str, ...]
    structure: Tuple[Dict[int, Dict[int, int]], ...]  # structure[i][j][p] = C_{ij}^p
    gram: Tuple[Dict[int, Fraction], ...]  # gram[i][j], nonzero entries only
    rootSystem: RootSystem
    omega: Tuple[Tuple[int, int], ...]  # signed permutation: omega(b_i) = sign * b_j as (j, sign)
    form_scale: Fraction  # kappa: the form gram induces on weights is kappa * rootSystem.sym_form
    basis_weights: Tuple[Coords, ...]  # torus weight of each basis element
    # memos of reptheory.weyl_dim (dominant weight -> dimension) and
    # reptheory.irrep_character (highest weight -> character); each object
    # (also one made by ``replace``) starts with its own empty dicts
    weyl_dims: Dict[FiniteWeight, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    characters: Dict[FiniteWeight, Dict[FiniteWeight, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def bracket(self, i: int, j: int) -> Dict[int, int]:
        return self.structure[i].get(j, {})

    def herm_rows(self) -> Tuple[Dict[int, Fraction], ...]:
        """hermGram(x, y) = -gram(x, omega y) as sparse rows, for any signed
        permutation omega: where omega(b_j) = s b_q, row i holds
        -s gram[i][q] at j."""
        preimage = {q: (j, s) for j, (q, s) in enumerate(self.omega)}
        return tuple({preimage[q][0]: -preimage[q][1] * g for q, g in row.items()} for row in self.gram)

    def weight_pairing(self, a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> Fraction:
        """<a, b> = kappa * a S b in simple-root coordinates."""
        return self.form_scale * self.rootSystem.form(a, b)

    @cached_property
    def action(self) -> List[Dict[int, List[Tuple[int, int]]]]:
        return coadjoint_action(self.structure)

    def content_hash(self) -> str:
        cached = getattr(self, "_content_hash", None)
        if cached is None:
            cached = hashlib.sha256(
                json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest()
            self._content_hash = cached
        return cached

    def to_json_dict(self) -> dict:
        triples = []
        for i, row in enumerate(self.structure):
            for j, col in row.items():
                for p, c in col.items():
                    triples.append([i, j, p, c])
        triples.sort()
        # rendered as the dense string matrices the content hash has always read
        frac = lambda rows: [[str(row.get(j, 0)) for j in range(self.dim)] for row in rows]
        return {
            "series": self.spec.series,
            "rank": self.rank,
            "dim": self.dim,
            "coxeter": self.coxeter,
            "basisLabels": list(self.basisLabels),
            "structure": triples,
            "gram": frac(self.gram),
            "hermGram": frac(self.herm_rows()),
            "positiveRoots": [list(b) for b in self.rootSystem.positiveRoots],
            "weight_basis": "simple-root coordinates",
        }


def _trace_form(structure) -> List[Dict[int, int]]:
    """kappa[i][j] = tr(ad b_i ad b_j) = sum C_{iq}^p C_{jp}^q, as sparse rows."""
    into: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}  # (p, q) -> [(j, C_{jp}^q)]
    for j, row in enumerate(structure):
        for p, col in row.items():
            for q, c in col.items():
                into.setdefault((p, q), []).append((j, c))
    kappa: List[Dict[int, int]] = []
    for row in structure:
        acc: Dict[int, int] = {}
        for q, col in row.items():
            for p, c in col.items():
                for j, c2 in into.get((p, q), ()):
                    acc[j] = acc.get(j, 0) + c * c2
        kappa.append(acc)
    return kappa


def build_algebra(spec: AlgebraSpec) -> AlgebraData:
    """Construct the algebra and verify its structural invariants."""
    rs = build_root_system(spec)
    r = spec.rank
    pos = rs.positiveRoots
    m = len(pos)
    n = r + 2 * m
    roots_all = set(rs.allRoots)
    coxeter_q, rem = divmod(n - r, r)
    if rem != 0:
        raise InvariantError("root count must be rank * coxeter number")
    coxeter = coxeter_q
    if coxeter != sum(rs.theta) + 1:
        raise InvariantError("Coxeter number vs highest-root height")

    signs = _ChevalleySigns(rs)

    # basis bookkeeping: index -> root (or None for Cartan)
    basis_root: List[Coords | None] = [None] * r + list(pos) + [_neg(b) for b in pos]
    labels = tuple(
        [f"h{i+1}" for i in range(r)]
        + [f"e{i+1}" for i in range(m)]
        + [f"f{i+1}" for i in range(m)]
    )
    root_to_index = {b: r + i for i, b in enumerate(pos)}
    root_to_index.update({_neg(b): r + m + i for i, b in enumerate(pos)})

    def coroot_coords(beta: Coords) -> List[int]:
        nb = rs.form(beta, beta)
        out = [c * rs.sym_form[j][j] for j, c in enumerate(beta)]
        if any(x % nb for x in out):
            raise InvariantError(f"a coroot coordinate of {beta} is not integral")
        return [x // nb for x in out]

    structure: List[Dict[int, Dict[int, int]]] = [dict() for _ in range(n)]

    def put(i: int, j: int, terms: Dict[int, int]):
        terms = {p: c for p, c in terms.items() if c != 0}
        if terms:
            structure[i][j] = terms
            structure[j][i] = {p: -c for p, c in terms.items()}

    for i in range(r):
        for idx in range(r, n):
            beta = basis_root[idx]
            c = sum(rs.cartan[i][j] * beta[j] for j in range(r))
            if c:
                put(i, idx, {idx: c})
    for ia in range(m * 2):
        for ib in range(ia + 1, m * 2):
            a, b = basis_root[r + ia], basis_root[r + ib]
            s = tuple(x + y for x, y in zip(a, b))
            if not any(s):
                h = coroot_coords(a if all(c >= 0 for c in a) else _neg(a))
                sign = 1 if all(c >= 0 for c in a) else -1
                put(r + ia, r + ib, {j: sign * h[j] for j in range(r)})
            elif s in roots_all:
                val = signs.value(a, b)
                if val.denominator != 1:
                    raise InvariantError(f"structure constant {val} is not integral")
                put(r + ia, r + ib, {root_to_index[s]: int(val)})

    gram = tuple({j: Fraction(v, 2 * coxeter) for j, v in row.items() if v} for row in _trace_form(structure))

    # compact involution: h -> -h, e_alpha -> -e_{-alpha}
    omega: List[Tuple[int, int]] = [(i, -1) for i in range(r)]
    omega += [(r + m + i, -1) for i in range(m)]
    omega += [(r + i, -1) for i in range(m)]

    # gram induces <,> = kappa S on weights (simple-root coordinates) exactly
    # when it pairs the simple coroots h_i = 2 alpha_i / <alpha_i, alpha_i> by
    # gram[i][j] = 4 S_ij / (kappa S_ii S_jj): kappa is read off gram[0][0],
    # and every entry of the Cartan block is checked
    S = rs.sym_form
    kappa = Fraction(4, S[0][0]) / gram[0][0]
    if any(kappa * S[i][i] * S[j][j] * gram[i].get(j, 0) != 4 * S[i][j] for i in range(r) for j in range(r)):
        raise InvariantError("the weight form induced by the trace form is not kappa * S")

    weights = tuple((0,) * r if b is None else b for b in basis_root)

    data = AlgebraData(
        spec=spec,
        dim=n,
        rank=r,
        coxeter=coxeter,
        basisLabels=labels,
        structure=tuple(structure),
        gram=gram,
        rootSystem=rs,
        omega=tuple(omega),
        form_scale=kappa,
        basis_weights=weights,
    )
    verify_algebra(data)
    return data


def orthogonal_cartan(data: AlgebraData) -> AlgebraData:
    """The same algebra with h_1..h_r replaced by a basis of the Cartan
    subalgebra orthogonal in the metric (Gram-Schmidt over Q).  Root
    vectors, torus weights and the compact involution (h -> -h) are kept;
    ``structure`` (now of ``Fraction``s) and ``gram`` are rewritten, row by
    sparse row.  Raises ``InvariantError`` unless the new form pairs each
    basis vector with exactly one partner and the metric is diagonal."""
    r, n = data.rank, data.dim
    herm = data.herm_rows()

    def pair(x: Dict[int, Fraction], y: Dict[int, Fraction]) -> Fraction:
        return sum((a * herm[i].get(j, 0) * b for i, a in x.items() for j, b in y.items()), Fraction(0))

    rows = [{i: Fraction(1)} for i in range(n)]  # new basis vector i in old coordinates
    for i in range(r):
        for j in range(i):
            c = pair(rows[i], rows[j]) / pair(rows[j], rows[j])
            for a, x in rows[j].items():
                rows[i][a] = rows[i].get(a, 0) - c * x
    t_inv = xl.invert([[rows[i].get(j, 0) for j in range(r)] for i in range(r)])
    back = [dict(enumerate(row)) for row in t_inv] + rows[r:]  # old basis vector p in new coordinates
    # old basis vector b -> (j, rows[j][b]) over the new j that use it
    users = [[(j, rows[j][b]) for j in range(r) if b in rows[j]] if b < r else [(b, 1)] for b in range(n)]
    structure: List[Dict[int, Dict[int, Fraction]]] = []
    gram: List[Dict[int, Fraction]] = []
    for i in range(n):
        brackets: Dict[int, Dict[int, Fraction]] = {}
        form: Dict[int, Fraction] = {}
        for a, x in rows[i].items():
            for b, col in data.structure[a].items():
                for j, y in users[b]:
                    acc = brackets.setdefault(j, {})
                    for p, c in col.items():
                        for q, z in back[p].items():
                            acc[q] = acc.get(q, 0) + x * y * c * z
            for b, g in data.gram[a].items():
                for j, y in users[b]:
                    form[j] = form.get(j, 0) + x * y * g
        structure.append({j: terms for j, acc in brackets.items() if (terms := {q: v for q, v in acc.items() if v})})
        gram.append({j: v for j, v in form.items() if v})
    if any(len(row) != 1 for row in gram):
        raise InvariantError("the invariant form does not pair each basis vector with exactly one partner")
    rebased = replace(data, structure=tuple(structure), gram=tuple(gram))
    if any(list(row) != [i] for i, row in enumerate(rebased.herm_rows())):
        raise InvariantError("the mode metric is not diagonal in the orthogonal Cartan basis")
    return rebased


@dataclass(frozen=True, eq=False)
class IntAlgebra:
    """An algebra in the basis of ``orthogonal_cartan`` as ints, each over
    the scale in the field after it, with ``AlgebraData``'s ``basis_weights``
    as ints, so ``cochain.build_basis`` reads one name on both.  Compared
    and hashed by identity, so that no comparison walks its dict-valued tables."""

    data: AlgebraData  # the rebased algebra
    structure: Tuple[Dict[int, Dict[int, int]], ...]  # structure[i][q][p] = s*C_{iq}^p
    scale: int  # s
    gram: Tuple[Tuple[int, int], ...]  # gram[a] = (b, g*G_ab), b the one partner of a
    gram_scale: int  # g
    gram_inv: Tuple[Tuple[int, int], ...]  # gram_inv[a] = (b, e*(G^-1)_ab), the same b
    gram_inv_scale: int  # e
    metric: Tuple[int, ...]  # metric[i] = m / hermGram_ii, the metric of the dual mode e^i times m
    metric_scale: int  # m
    basis_weights: Tuple[Coords, ...]  # torus weight of each basis element, in simple-root coordinates

    @property
    def dim(self) -> int:
        return self.data.dim

    @cached_property
    def action(self) -> List[Dict[int, List[Tuple[int, int]]]]:
        return coadjoint_action(self.structure)


def coadjoint_action(structure) -> List[Dict[int, List[Tuple[int, int]]]]:
    """The one inversion of ``structure`` into the coadjoint action, kept per
    algebra as ``action``: ``action[g][m]`` lists (t, -C_{gt}^m) in the
    order of ``structure[g]``, so A_g e^m = sum_t -C_{gt}^m e^t."""
    action: List[Dict[int, List[Tuple[int, int]]]] = [{} for _ in structure]
    for g, row in enumerate(structure):
        for t, col in row.items():
            for m, c in col.items():
                action[g].setdefault(m, []).append((t, -c))
    return action


def scaled_ints(values: Sequence[int | Fraction]) -> Tuple[Tuple[int, ...], int]:
    """(ints, scale) with ints[i] / scale = values[i], scale the lcm of the
    denominators: the one entry of ints and ``Fraction``s alike to int
    arithmetic."""
    scale = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale


def int_algebra(data: AlgebraData) -> IntAlgebra:
    """The ``IntAlgebra`` of ``data``.  Raises ``InvariantError`` unless
    ``orthogonal_cartan`` finds each basis vector paired with exactly one
    partner, its gram row's one key (then (G^-1)_ab = 1 / G_ab, as G is
    symmetric), and every torus weight is integral."""
    data = orthogonal_cartan(data)
    s = lcm(*(c.denominator for row in data.structure for col in row.values() for c in col.values()))
    structure = tuple({q: {p: int(c * s) for p, c in col.items()} for q, col in row.items()} for row in data.structure)
    partners, form = zip(*(next(iter(row.items())) for row in data.gram))
    dual_metric = [1 / row[i] for i, row in enumerate(data.herm_rows())]
    (gram, g), (gram_inv, e), (metric, m) = (scaled_ints(xs) for xs in (form, [1 / x for x in form], dual_metric))
    if any(Fraction(c).denominator != 1 for w in data.basis_weights for c in w):
        raise InvariantError("a basis weight is not integral in simple-root coordinates")
    return IntAlgebra(
        data=data,
        structure=structure,
        scale=s,
        gram=tuple(zip(partners, gram)),
        gram_scale=g,
        gram_inv=tuple(zip(partners, gram_inv)),
        gram_inv_scale=e,
        metric=metric,
        metric_scale=m,
        basis_weights=tuple(tuple(int(c) for c in w) for w in data.basis_weights),
    )


def _reaches(structure, a: int, b: int, c: int) -> bool:
    """[[b_a, b_b], b_c] has a term with nonzero factors."""
    for q in structure[a].get(b, ()):
        if c in structure[q]:
            return True
    return False


def _jacobi_triples(structure) -> Iterator[Tuple[int, int, int]]:
    """The sorted triples of distinct indices with a term [[b_a, b_b], b_c]
    that has nonzero factors, found from ``structure[a][b]`` -> q ->
    ``structure[q]``, each yielded once, from the largest c of the triple
    that has one, so no set of triples is held.  ``structure`` must be
    antisymmetric: then [b_a, b_b] and [b_b, b_a] have one support, and
    every other triple's Jacobi sum (a repeated index included) is a sum of
    zeros."""
    for a, row in enumerate(structure):
        for b, col in row.items():
            if b > a:
                cs = set()
                for q in col:
                    cs.update(structure[q])
                for c in cs - {a, b}:
                    # a larger index of the triple whose term is nonzero yields it instead
                    if not (a > c and _reaches(structure, b, c, a) or b > c and _reaches(structure, a, c, b)):
                        yield tuple(sorted((a, b, c)))


def verify_algebra(data: AlgebraData) -> None:
    """Check antisymmetry, Jacobi, the trace identity and metric axioms in one
    sparse pass, exhaustively for every algebra: Jacobi on every triple of
    ``_jacobi_triples``, streamed, and adjointness on every basis index."""
    for i, row in enumerate(data.structure):
        for j, col in row.items():
            if data.structure[j].get(i, {}) != {p: -c for p, c in col.items()}:
                raise InvariantError("antisymmetry")

    for i, j, k in _jacobi_triples(data.structure):
        acc: Dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for q, cq in data.bracket(a, b).items():
                for p, cp in data.bracket(q, c).items():
                    acc[p] = acc.get(p, 0) + cq * cp
        if any(acc.values()):
            raise InvariantError(f"Jacobi fails at {(i, j, k)}")

    c2 = 2 * data.coxeter
    for krow, grow in zip(_trace_form(data.structure), data.gram):
        if {j: v for j, v in krow.items() if v} != {j: c2 * g for j, g in grow.items() if g}:
            raise InvariantError("trace identity")

    # adjointness implies that omega is an involution (take the adjoint
    # twice); that part is checked first, before the metric omega defines
    if any(data.omega[j] != (i, sgn) for i, (j, sgn) in enumerate(data.omega)):
        raise InvariantError("compact-involution adjointness: omega is not an involution")
    rows = data.herm_rows()
    if not _is_positive_definite(rows):
        raise InvariantError("hermGram positive definite")

    # ad(x)^dagger = -ad(omega x) in the hermGram metric H: for omega(b_i) = sgn b_i',
    # (H ad(b_i))[a][b] + sgn (ad(b_i')^T H)[a][b] = 0 on every entry; H is
    # symmetric, so its row q is its column q
    for i, (ii, sgn) in enumerate(data.omega):
        entries: Dict[Tuple[int, int], Fraction] = {}
        for b, col in data.structure[i].items():
            for q, c in col.items():
                for a, h in rows[q].items():
                    entries[a, b] = entries.get((a, b), 0) + h * c
        for a, col in data.structure[ii].items():
            for q, c in col.items():
                for b, h in rows[q].items():
                    entries[a, b] = entries.get((a, b), 0) + sgn * c * h
        if any(entries.values()):
            raise InvariantError("compact-involution adjointness")


def _is_positive_definite(rows: Sequence[Dict[int, Fraction]]) -> bool:
    """Whether the matrix of sparse rows is symmetric and its symmetric
    elimination, which reads only stored entries, has every pivot positive."""
    if any(rows[j].get(i) != x for i, row in enumerate(rows) for j, x in row.items()):
        return False
    work = [dict(row) for row in rows]
    for col, row in enumerate(work):
        if row.get(col, 0) <= 0:
            return False
        below = [(j, x) for j, x in row.items() if j > col]
        for i, f in below:  # work[i][col] == row[i] by symmetry
            for j, x in below:
                work[i][j] = work[i].get(j, 0) - f * x / row[col]
    return True


def is_dominant(data: AlgebraData, weight: Sequence[Fraction]) -> bool:
    rs = data.rootSystem
    return all(rs.pair_coroot(weight, i) >= 0 for i in range(data.rank))


def casimir_eigenvalue(data: AlgebraData, lowestWeight: Sequence[int | Fraction]) -> Fraction:
    """-<rho, lambda> + ||lambda||^2 / 2 for an antidominant lowest weight,
    on ints: with lambda = l / D over one denominator and <,> = kappa S, it
    is kappa (l S l - D * 2rho S l) / (2 D^2)."""
    lam, den = scaled_ints(lowestWeight)
    if not is_dominant(data, tuple(-x for x in lam)):
        raise ValueError(f"{tuple(lowestWeight)} is not the lowest weight of an irreducible (-lambda not dominant)")
    rs = data.rootSystem
    return data.form_scale * Fraction(rs.form(lam, lam) - den * rs.form(rs.two_rho, lam), 2 * den * den)
