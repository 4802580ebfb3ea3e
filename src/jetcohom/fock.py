"""Windowed semi-infinite forms and the exact operator identity suite.

A semi-infinite monomial is a wedge of dual modes e^{i,k} that agrees
with the standard vacuum tail for k << 0; it is encoded by the finitely
many modes added above the vacuum (k >= 1) and removed from it (k <= 0).
Wedges are kept in descending mode order (the order in which the vacuum
is written), with sign bookkeeping folded into coefficients.

A monomial is a pair of int bitmasks ``(added, removed)`` for a basis of
dimension n: the added mode (i, k >= 1) sits at bit (k-1)*n + i and the
removed mode (i, k <= 0) at bit b = (-k)*n + (n-1-i).  Bits ascend with
the mode order (k, i) on the added side and descend with it on the
removed side, so b is also the number of vacuum modes above (i, k).  The
sign of eps or iota on an added mode is the parity of the added bits
above it, and on a removed mode the parity of (added bits) + b - (removed
bits below b); membership, insertion and removal are single bit
operations, and monomials hash as tuples of ints.  ``encode_monomial``
and ``decode_monomial`` convert between masks and mode tuples, and
``energy`` and ``degree_offset`` read the masks.

The backend reads every int from the ``liealg.IntAlgebra`` the exact core
also uses, in the basis of ``liealg.orthogonal_cartan``.  There the
invariant form G = ``gram`` (the Killing form over 2c) and G^-1 have one
nonzero entry per row: e_alpha pairs with f_alpha and each Cartan vector
with itself.  The structure constants f_{iq}^p, G and G^-1 are ints over
the scales s, g and e, and every operator column is an int dict over one
positive int scale per operator: L_{i,k} over s, d and dtilde over 2s,
dtilde* over 2se.  Each check multiplies its identity through by the
scales and compares ints, so a pass means lhs == rhs exactly; the
reported error is the exact largest |lhs - rhs| (a ``Fraction``).

The closed forms carry the metric where an orthonormal frame has
delta_ij (c is the Coxeter number): d^2 = sum_{k>0} sum_{a,b} 2ck G_ab
eps^{a,k} eps^{b,-k}; the cocycle is 2ck G_ij; dtilde* = -1/2 sum_k s_k
sum_{i,b} (G^-1)_{ib} iota_{b,k} L_{i,-k}; the zero-mode term of the
Laplacian is 1/2 sum_{i,j} (G^-1)_{ij} L_{i,0} L_{j,0}.  dtilde* is the
adjoint of dtilde under the Fock pairing fixed by <Omega, Omega> = 1,
(eps^{a,k})^T = sum_b (G^-1)_{ab} iota_{b,k} and (iota_{a,k})^T = sum_b
G_ab eps^{b,k}, under which each monomial pairs with exactly one partner
monomial (``_pairing``).

All identity checks quantify over explicit finite sets of monomials whose
support keeps enough margin from the window edge that truncation is
exact; each check declares the minimum window guard it needs and emits a
skip verdict below that, or when its guarded support holds only the
vacuum, never a silent pass.

A backend is one algebra on one energy window, so no operator, check or
enumeration takes a window of its own.  Operators exist only as column
functions (one monomial to a sparse int vector); ``_apply`` takes a
column function to a vector, and ``_combine`` forms each lhs - rhs.  The
columns of L_{i,k}, d or dtilde and dtilde* are memoised on the backend,
one dict per operator (read-only).  ``_L_monomial``, under all of them,
does its two single-mode steps per (s, p, q) inline on the masks; every
other single-mode step goes through ``eps_monomial``/``iota_monomial``,
and a wedge of eps steps through ``_eps_wedge_column``.  Every column
loop runs over window levels only, and cochain modes sit at levels <=
kMax - guard, so no operator checks its input against the window.

The quantifier sets of ``check_basis`` are built one energy shell at a
time in (energy, label) order, only up to the shell that reaches their
cap, and are memoised on the backend keyed by margin, energy cap,
particle cap and cap.
``verify_identity_suite`` builds one backend per call, so the memo lives
as long as one suite run.  The matrix identities (d^2, the Laplacian,
the adjoint of dtilde) are checked column by column from these columns;
no dense matrix is formed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, wraps
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .cochain import InvariantError, differential_block
from .liealg import AlgebraData, int_algebra

ModeIndex = Tuple[int, int]  # (i, k): basis index, Fourier degree
Mode = ModeIndex
SemiInfMonomial = Tuple[int, int]  # (added, removed) bitmasks
FockVector = Dict[SemiInfMonomial, int]  # int coefficients over the operator's scale
Column = Callable[[SemiInfMonomial], Mapping[SemiInfMonomial, int]]


@dataclass(frozen=True)
class EnergyWindow:
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


_mode_key: Callable[[Mode], Tuple[int, int]] = itemgetter(1, 0)  # (i, k) -> (k, i)


def encode_monomial(n: int, added: Sequence[Mode] = (), removed: Sequence[Mode] = ()) -> SemiInfMonomial:
    """The (added, removed) bitmasks of the monomial with these modes."""
    a = r = 0
    for i, k in added:
        a |= 1 << (k - 1) * n + i
    for i, k in removed:
        r |= 1 << -k * n + n - 1 - i
    return a, r


def decode_monomial(n: int, mono: SemiInfMonomial) -> Tuple[Tuple[Mode, ...], Tuple[Mode, ...]]:
    """The added and removed modes of ``mono``, each ascending by (k, i)."""
    added, removed = mono
    return (tuple((b % n, b // n + 1) for b in range(added.bit_length()) if added >> b & 1),
            tuple((n - 1 - b % n, -(b // n)) for b in reversed(range(removed.bit_length())) if removed >> b & 1))


def degree_offset(n: int, mono: SemiInfMonomial) -> int:
    return mono[0].bit_count() - mono[1].bit_count()


def energy(n: int, mono: SemiInfMonomial) -> int:
    """Sum of the added levels minus the sum of the removed levels: slice j
    of the added mask is level j + 1, slice j of the removed mask level -j."""
    added, removed = mono
    full = (1 << n) - 1
    total, j = added.bit_count(), 0
    while added or removed:
        total += j * ((added & full).bit_count() + (removed & full).bit_count())
        added >>= n
        removed >>= n
        j += 1
    return total


def _modes_label(modes: Tuple[Mode, ...]) -> str:
    return " ".join(f"e[{i},{k}]" for i, k in modes) or "-"


def _monomial_label(added_label: str, removed_label: str) -> str:
    return f"(+{added_label} | -{removed_label})"


VACUUM: SemiInfMonomial = (0, 0)


def eps_monomial(n: int, mode: Mode, mono: SemiInfMonomial) -> Tuple[int, SemiInfMonomial] | None:
    """Left exterior multiplication by e^{mode}: (sign, monomial) or None."""
    i, k = mode
    added, removed = mono
    if k >= 1:
        b = (k - 1) * n + i
        if added >> b & 1:
            return None
        sign = -1 if (added >> (b + 1)).bit_count() & 1 else 1
        return sign, (added | 1 << b, removed)
    b = -k * n + n - 1 - i
    if not removed >> b & 1:
        return None  # occupied in the vacuum tail
    before = added.bit_count() + b - (removed & ((1 << b) - 1)).bit_count()
    return (-1 if before & 1 else 1), (added, removed ^ 1 << b)


def iota_monomial(n: int, mode: Mode, mono: SemiInfMonomial) -> Tuple[int, SemiInfMonomial] | None:
    """Contraction with e_{mode}: removes the dual mode with (-1)^(pos-1)."""
    i, k = mode
    added, removed = mono
    if k >= 1:
        b = (k - 1) * n + i
        if not added >> b & 1:
            return None
        sign = -1 if (added >> (b + 1)).bit_count() & 1 else 1
        return sign, (added ^ 1 << b, removed)
    b = -k * n + n - 1 - i
    if removed >> b & 1:
        return None
    before = added.bit_count() + b - (removed & ((1 << b) - 1)).bit_count()
    return (-1 if before & 1 else 1), (added, removed | 1 << b)


def _then(n: int, step, mode: Mode, hit: Tuple[int, SemiInfMonomial] | None
          ) -> Tuple[int, SemiInfMonomial] | None:
    """``step`` (``eps_monomial`` or ``iota_monomial``) applied after ``hit``."""
    if hit is None:
        return None
    back = step(n, mode, hit[1])
    if back is None:
        return None
    return hit[0] * back[0], back[1]


def _eps_wedge_column(n: int, modes: Sequence[Mode], mono: SemiInfMonomial) -> FockVector:
    """eps^{m_1} ... eps^{m_p} mono for modes ascending by (k, i), as a column."""
    hit: Tuple[int, SemiInfMonomial] | None = (1, mono)
    for mode in reversed(modes):
        hit = _then(n, eps_monomial, mode, hit)
    return {hit[1]: hit[0]} if hit else {}


def _accumulate(out: Dict, key, coeff: int):
    new = out.get(key, 0) + coeff
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def _apply(column: Column, v: Mapping[SemiInfMonomial, int]) -> FockVector:
    """sum_m v[m] * column(m): an operator, given by its columns, on a vector."""
    out: FockVector = {}
    for mono, coeff in v.items():
        for m2, c2 in column(mono).items():
            _accumulate(out, m2, coeff * c2)
    return out


def _combine(*terms: Tuple[int, Mapping[SemiInfMonomial, int]]) -> FockVector:
    """sum coeff * vec over the (coeff, vec) terms."""
    out: FockVector = {}
    for coeff, vec in terms:
        for mono, c in vec.items():
            _accumulate(out, mono, coeff * c)
    return out


class OrthonormalBackend:
    """One algebra as its ``IntAlgebra`` ``alg``, and the memoised
    operators on one energy window.  ``pairs[i]`` lists (p, q, s*f_{iq}^p)
    over the nonzero int structure constants of ``alg``, s = ``alg.scale``."""

    def __init__(self, data: AlgebraData, window: EnergyWindow):
        self.alg = int_algebra(data)
        self.window = window
        n = self.n = data.dim
        self.pairs = [[(p, q, c) for q in range(n) for p, c in row.get(q, {}).items()] for row in self.alg.structure]
        # operator name -> {(*params, monomial): read-only column}
        self.columns: Dict[str, Dict[tuple, Mapping[SemiInfMonomial, int]]] = defaultdict(dict)
        self.bases: Dict[Tuple[int, int | None, int | None, int | None], Tuple[SemiInfMonomial, ...]] = {}


_EMPTY: Mapping[SemiInfMonomial, int] = MappingProxyType({})


def _memo_column(fn):
    """Memoise the column function ``fn(backend, *params, mono)`` in the
    backend's dict for ``fn``: each column is computed once per backend and
    kept read-only; every empty column is the one ``_EMPTY``."""
    name = fn.__name__

    @wraps(fn)
    def column(backend: OrthonormalBackend, *args):
        memo = backend.columns[name]
        col = memo.get(args)
        if col is None:
            vec = fn(backend, *args)
            col = memo[args] = MappingProxyType(vec) if vec else _EMPTY
        return col

    return column


@_memo_column
def _L_monomial(backend: OrthonormalBackend, i: int, k: int, mono: SemiInfMonomial) -> FockVector:
    """L_{i,k} = sum_s f_{iq}^p :iota_{p,s} eps^{q,s-k}: with both modes in
    the window, over the scale s of the structure constants; normal
    ordering puts iota first for s <= 0 and -eps iota for s > 0 (operator
    products act right to left).

    The two single-mode steps are ``eps_monomial`` and ``iota_monomial``
    written out on the masks: a step on added bit b has the sign of the
    added bits above b, a step on removed bit b that of (added bits) + b -
    (removed bits below b).  A level s > 0 without added modes, or s <= 0
    whose eps mode s - k <= 0 finds no hole at its level, holds no term."""
    n, window = backend.n, backend.window
    added, removed = mono
    n_added = added.bit_count()
    full = (1 << n) - 1
    pairs = backend.pairs[i]
    out: FockVector = {}
    lo = max(window.kMin, window.kMin + k)
    hi = min(window.kMax, window.kMax + k)
    for s in range(lo, hi + 1):
        t = s - k
        eps_added = t >= 1  # the eps mode (q, t) sits on the added side
        eps_base = (t - 1) * n if eps_added else -t * n + n - 1  # its bit: base + q, or base - q
        if s <= 0:
            # eps^{q,t} first, then iota_{p,s} on the removed side, coefficient +f
            if not eps_added and not removed >> -t * n & full:
                continue
            iota_base = -s * n + n - 1
            for p, q, cval in pairs:
                if eps_added:
                    b = eps_base + q
                    if added >> b & 1:
                        continue
                    a1, r1 = added | 1 << b, removed
                    parity = (added >> b + 1).bit_count() + n_added + 1  # eps sign + added bits iota sees
                else:
                    b = eps_base - q
                    if not removed >> b & 1:
                        continue
                    a1, r1 = added, removed ^ 1 << b
                    parity = b - (removed & (1 << b) - 1).bit_count()  # the two n_added terms cancel
                b = iota_base - p
                if r1 >> b & 1:
                    continue
                parity += b - (r1 & (1 << b) - 1).bit_count()
                target = (a1, r1 | 1 << b)
                new = out.get(target, 0) + (-cval if parity & 1 else cval)
                if new:
                    out[target] = new
                else:
                    del out[target]
        else:
            # iota_{p,s} first on the added side, then eps^{q,t}, coefficient -f
            iota_base = (s - 1) * n
            if not added >> iota_base & full:
                continue
            for p, q, cval in pairs:
                b = iota_base + p
                if not added >> b & 1:
                    continue
                a1 = added ^ 1 << b
                parity = (added >> b + 1).bit_count()
                if eps_added:
                    b = eps_base + q
                    if a1 >> b & 1:
                        continue
                    parity += (a1 >> b + 1).bit_count()
                    target = (a1 | 1 << b, removed)
                else:
                    b = eps_base - q
                    if not removed >> b & 1:
                        continue
                    parity += n_added - 1 + b - (removed & (1 << b) - 1).bit_count()
                    target = (a1, removed ^ 1 << b)
                new = out.get(target, 0) + (cval if parity & 1 else -cval)
                if new:
                    out[target] = new
                else:
                    del out[target]
    return out


@_memo_column
def _d_monomial(backend: OrthonormalBackend, twisted: bool, mono: SemiInfMonomial) -> FockVector:
    """d = 1/2 sum_{i,k} L_{i,k} eps^{i,k}, windowed, of one monomial, over
    2s; with ``twisted``, dtilde, whose k <= 0 terms enter with a minus sign."""
    n = backend.n
    out: FockVector = {}
    for k in range(backend.window.kMin, backend.window.kMax + 1):
        sk = -1 if twisted and k <= 0 else 1
        for i in range(n):
            headstart = eps_monomial(n, (i, k), mono)
            if headstart is None:
                continue
            sgn, inner = headstart
            for m2, c2 in _L_monomial(backend, i, k, inner).items():
                _accumulate(out, m2, sk * sgn * c2)
    return out


@_memo_column
def _dstar_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial) -> FockVector:
    """dtilde* = -1/2 sum_k s_k sum_{i,b} (G^-1)_{ib} iota_{b,k} L_{i,-k},
    over 2se: the adjoint of dtilde under the Fock pairing."""
    n = backend.n
    out: FockVector = {}
    for k in range(backend.window.kMin, backend.window.kMax + 1):
        sk = 1 if k > 0 else -1
        for i, (b, x) in enumerate(backend.alg.gram_inv):
            for m1, c1 in _L_monomial(backend, i, -k, mono).items():
                hit = iota_monomial(n, (b, k), m1)
                if hit is None:
                    continue
                _accumulate(out, hit[1], -sk * x * c1 * hit[0])
    return out


def _pairing(backend: OrthonormalBackend, mono: SemiInfMonomial) -> Tuple[int, int, SemiInfMonomial]:
    """(num, den, partner): ``mono`` pairs with ``partner`` alone, to num/den.

    The partner carries the partner (b, k) of every mode (a, k).  Building
    mono = sign * O_t ... O_1 Omega from the vacuum (iota for each removed
    mode, then eps for each added one), <mono, y> = sign * <Omega, O_1^T
    ... O_t^T y>, and the transposes take the partner to a multiple of
    Omega."""
    n, alg = backend.n, backend.alg
    added, removed = decode_monomial(n, mono)
    steps = [(iota_monomial, eps_monomial, alg.gram, mode) for mode in removed]
    steps += [(eps_monomial, iota_monomial, alg.gram_inv, mode) for mode in added]
    num, built = 1, VACUUM
    for step, _transpose, _form, mode in steps:
        sign, built = step(n, mode, built)
        num *= sign
    partner = encode_monomial(n, *([(alg.gram[i][0], k) for i, k in side] for side in (added, removed)))
    y = partner
    for _step, transpose, form, (i, k) in reversed(steps):
        b, x = form[i]
        sign, y = transpose(n, (b, k), y)
        num *= sign * x
    return num, alg.gram_scale ** len(removed) * alg.gram_inv_scale ** len(added), partner


def monomials_in_support(backend: OrthonormalBackend, margin: int,
                         max_energy: int | None = None,
                         max_particles: int | None = None,
                         cap: int | None = None) -> List[SemiInfMonomial]:
    """All monomials supported in the margin-shrunk window, optionally
    capped by energy and by total mode count (added plus removed), in the
    deterministic order (energy, label); with ``cap``, the first ``cap``.

    The order is built one energy shell at a time: the added and removed
    mode sets are grouped by energy and mode count, a shell is the cross
    product of the groups whose energies add up to it, sorted by label,
    and no shell past the one that reaches ``cap`` is built."""
    lo, hi = backend.window.support(margin)
    n = backend.n
    add_candidates = [(i, k) for k in range(1, hi + 1) for i in range(n)]
    rem_candidates = [(i, k) for k in range(lo, 1) for i in range(n)]

    def groups(cands: List[Mode], weight: Callable[[Mode], int], encode
               ) -> Dict[int, Dict[int, List[Tuple[int, str]]]]:
        """energy -> mode count -> [(mask, label)] over the subsets of ``cands``."""
        out: Dict[int, Dict[int, List[Tuple[int, str]]]] = defaultdict(lambda: defaultdict(list))

        def rec(idx: int, current: List[Mode], used: int):
            modes = tuple(sorted(current, key=_mode_key))
            out[used][len(modes)].append((encode(modes), _modes_label(modes)))
            if max_particles is not None and len(current) >= max_particles:
                return
            for j in range(idx, len(cands)):
                w = weight(cands[j])
                if max_energy is not None and used + w > max_energy:
                    continue
                current.append(cands[j])
                rec(j + 1, current, used + w)
                current.pop()

        rec(0, [], 0)
        return out

    adds = groups(add_candidates, lambda m: m[1], lambda modes: encode_monomial(n, modes)[0])
    rems = groups(rem_candidates, lambda m: -m[1], lambda modes: encode_monomial(n, (), modes)[1])
    top = max(adds) + max(rems)
    if max_energy is not None:
        top = min(top, max_energy)
    result: List[SemiInfMonomial] = []
    for e in range(top + 1):
        shell: List[Tuple[str, SemiInfMonomial]] = []
        for ae, add_counts in adds.items():
            rem_counts = rems.get(e - ae)
            if rem_counts is None:
                continue
            for acount, add_list in add_counts.items():
                for rcount, rem_list in rem_counts.items():
                    if max_particles is not None and acount + rcount > max_particles:
                        continue
                    shell.extend((_monomial_label(alabel, rlabel), (amask, rmask))
                                 for amask, alabel in add_list for rmask, rlabel in rem_list)
        shell.sort()  # labels are distinct, so monomials are never compared
        result.extend(m for _label, m in shell)
        if cap is not None and len(result) >= cap:
            return result[:cap]
    return result


def _small(backend: OrthonormalBackend) -> bool:
    return backend.n <= 3


def check_basis(backend: OrthonormalBackend, margin: int, max_energy: int | None,
                cap: int | None = None) -> List[SemiInfMonomial]:
    """Deterministic quantifier set for an identity check.

    Small windows (up to 18 candidate modes, which covers the rank-one
    acceptance window) enumerate every supported monomial under the energy
    cap; larger mode sets additionally restrict to at most four modes off
    the vacuum and truncate to ``cap`` vectors in (energy, label) order.
    Only the energy shells up to the one that reaches ``cap`` are built,
    and each set is memoised per margin, energy cap and ``cap``.
    """
    lo, hi = backend.window.support(margin)
    n_candidates = backend.n * (max(hi, 0) + max(1 - lo, 0))
    particles = None if n_candidates <= 18 else 4
    key = (margin, max_energy, particles, cap)
    mons = backend.bases.get(key)
    if mons is None:
        mons = backend.bases[key] = tuple(monomials_in_support(backend, margin, max_energy, particles, cap))
    return list(mons)


@dataclass
class IdentityVerdict:
    identity: str
    window: EnergyWindow
    max_abs_error: Fraction | None
    passed: bool
    skipped: bool = False
    reason: str | None = None
    vectors: int = 0

    def __post_init__(self):
        if self.passed and self.vectors == 0:
            raise InvariantError(f"{self.identity}: a pass must rest on at least one vector")

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "window": {"kMin": self.window.kMin, "kMax": self.window.kMax, "guard": self.window.guard},
            "maxAbsError": None if self.max_abs_error is None else float(self.max_abs_error),
            "pass": bool(self.passed),
            "skipped": bool(self.skipped),
            "reason": self.reason,
            "vectors": int(self.vectors),
        }


def _verdict(backend: OrthonormalBackend, name: str, err: Fraction, vectors: int) -> IdentityVerdict:
    """The verdict of a check whose exact largest |lhs - rhs| is ``err``: a pass iff it is 0."""
    return IdentityVerdict(name, backend.window, err, err == 0, vectors=vectors)


def _skip(backend: OrthonormalBackend, name: str, reason: str) -> IdentityVerdict:
    return IdentityVerdict(name, backend.window, None, passed=False, skipped=True, reason=reason)


def _skip_vacuum_only(backend: OrthonormalBackend, name: str, margin: int) -> IdentityVerdict:
    """The verdict of a check whose quantifier set is the vacuum alone: the
    window shrunk by ``margin`` holds no mode, so nothing is compared."""
    return _skip(backend, name, f"guarded support for margin {margin} holds only the vacuum")


def _vector_error(a: Mapping[SemiInfMonomial, int], b: Mapping[SemiInfMonomial, int]) -> int:
    return max((abs(a.get(m, 0) - b.get(m, 0)) for m in a.keys() | b.keys()), default=0)


def clifford_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """[iota, eps]+ = delta * delta, squares vanish, on windowed monomials."""
    n, window = backend.n, backend.window
    basis = check_basis(backend, window.guard, 3 if _small(backend) else 2, cap=700 if _small(backend) else 60)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "clifford_relations", window.guard)
    modes = [(i, k) for k in range(window.kMin, window.kMax + 1) for i in range(n)]
    modes = sorted(modes, key=lambda m: (abs(m[1]), m[1], m[0]))[:24]
    err = 0
    for mono in basis:
        eps_v = [eps_monomial(n, m, mono) for m in modes]
        iota_v = [iota_monomial(n, m, mono) for m in modes]
        for m1, e1, i1 in zip(modes, eps_v, iota_v):
            for square in (_then(n, eps_monomial, m1, e1), _then(n, iota_monomial, m1, i1)):
                if square:
                    err = max(err, abs(square[0]))
            for m2, e2 in zip(modes, eps_v):
                # eps^{m2} iota_{m1} mono + iota_{m1} eps^{m2} mono - delta mono:
                # coefficient ca at the first hit's monomial ma, cb at mb
                ca = cb = 0
                ma = mb = None
                if i1:
                    hit = eps_monomial(n, m2, i1[1])
                    if hit:
                        ca, ma = i1[0] * hit[0], hit[1]
                if e2:
                    hit = iota_monomial(n, m1, e2[1])
                    if hit:
                        cb, mb = e2[0] * hit[0], hit[1]
                if m1 == m2:
                    if ma == mono:
                        ca -= 1
                    elif mb == mono:
                        cb -= 1
                    else:
                        err = max(err, 1)
                err = max(err, abs(ca + cb) if ma == mb else max(abs(ca), abs(cb)))
    return _verdict(backend, "clifford_relations", Fraction(err), len(basis))


def commutator_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """[iota_{j,m}, L_{i,k}] = -sum_p f_{ij}^p iota_{p,m+k} and the
    eps analogue [eps^{j,m}, L_{i,k}] = sum_q f_{iq}^j eps^{q,m-k}."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "mode_action_commutators", "window guard < 1 (shift-1 operators)")
    n, f = backend.n, backend.alg.structure
    err = 0
    count = 0
    for k in range(-window.guard, window.guard + 1):
        margin = max(abs(k), 1)
        modes = [m for m in range(window.kMin + margin, window.kMax - margin + 1)
                 if window.contains(m + k) and window.contains(m - k)]
        if not modes:
            continue  # no mode level to act with: this shift compares nothing
        basis = check_basis(backend, margin + 1, 4, cap=300 if _small(backend) else 24)
        count += len(basis)
        for mono in basis:
            gen_pairs = [(i, j) for i in range(n) for j in range(n)]
            if not _small(backend):
                gen_pairs = gen_pairs[:: max(1, len(gen_pairs) // 12)]
            for i in sorted({i for i, _ in gen_pairs}):
                Lv = _L_monomial(backend, i, k, mono)
                for j in [jj for ii, jj in gen_pairs if ii == i]:
                    for m in modes:
                        for step, rhs in (
                            (iota_monomial, [(-c, (p, m + k)) for p, c in f[i].get(j, {}).items()]),
                            (eps_monomial, [(col[j], (q, m - k)) for q, col in f[i].items() if j in col]),
                        ):
                            # lhs = step(L mono) - L(step mono), expected = sum cv step_mode(mono), over s
                            lhs: FockVector = {}
                            for m1, c1 in Lv.items():
                                hit = step(n, (j, m), m1)
                                if hit:
                                    _accumulate(lhs, hit[1], hit[0] * c1)
                            hit = step(n, (j, m), mono)
                            if hit:
                                for m2, c2 in _L_monomial(backend, i, k, hit[1]).items():
                                    _accumulate(lhs, m2, -hit[0] * c2)
                            expected: FockVector = {}
                            for cv, mode in rhs:
                                hit = step(n, mode, mono)
                                if hit:
                                    _accumulate(expected, hit[1], cv * hit[0])
                            err = max(err, _vector_error(lhs, expected))
    if not count:
        return _skip(backend, "mode_action_commutators", "no mode level m has m - k and m + k in the window")
    return _verdict(backend, "mode_action_commutators", Fraction(err, backend.alg.scale), count)


def cocycle_check(backend: OrthonormalBackend, i: int, j: int, k: int,
                  max_energy: int = 3) -> Tuple[Fraction, IdentityVerdict]:
    """Central scalar of [L_{i,k}, L_{j,-k}] - L([e_{i,k}, e_{j,-k}]).

    Contract: 2c * k * G_ij.  Requires window guard >= |k| (the product
    needs margin 2|k|, taken internally).
    """
    name = f"cocycle_L({i},{k})_L({j},{-k})"
    window = backend.window
    if window.guard < abs(k):
        return Fraction(0), _skip(backend, name, f"window guard {window.guard} < |k| = {abs(k)}")
    margin = max(2 * abs(k), window.guard)
    lo, hi = window.support(margin)
    if lo > 0 or hi < 1:
        return Fraction(0), _skip(backend, name, "guarded support for margin 2|k| is empty")
    basis = check_basis(backend, margin, max_energy, cap=400 if _small(backend) else 40)
    Li, Lj = partial(_L_monomial, backend, i, k), partial(_L_monomial, backend, j, -k)

    # both sides times g s^2: the commutator is over s^2, G_ij over g
    alg = backend.alg
    g, s = alg.gram_scale, alg.scale
    partner, g_ij = alg.gram[i]
    expected = 2 * alg.data.coxeter * k * s * s * (g_ij if j == partner else 0)
    diag: List[int] = []
    err = 0
    for mono in basis:
        comm = _combine(
            (g, _apply(Li, Lj(mono))),
            (-g, _apply(Lj, Li(mono))),
            *((-g * c, _L_monomial(backend, p, 0, mono)) for p, c in alg.structure[i].get(j, {}).items()),
        )
        diag.append(comm.get(mono, 0))
        err = max(err, _vector_error(comm, {mono: expected}))
    measured = Fraction(sum(diag), len(diag) * g * s * s)
    return measured, _verdict(backend, name, Fraction(err, g * s * s), len(basis))


def vacuum_checks(backend: OrthonormalBackend) -> IdentityVerdict:
    """iota_{i,k>0} Omega = 0, eps^{i,k<=0} Omega = 0, L_{i,k>=0} Omega = 0,
    d Omega = 0."""
    n, window = backend.n, backend.window
    s = backend.alg.scale
    found = []  # (a column that must vanish, its scale)
    for k in range(window.kMin, window.kMax + 1):
        for i in range(n):
            hit = (iota_monomial if k > 0 else eps_monomial)(n, (i, k), VACUUM)
            found.append(({hit[1]: hit[0]} if hit else {}, 1))
            if k > 0:
                found.append((_L_monomial(backend, i, k, VACUUM), s))
    found += [(_L_monomial(backend, 0, 0, VACUUM), s), (_d_monomial(backend, False, VACUUM), 2 * s),
              (_d_monomial(backend, True, VACUUM), 2 * s)]
    err = max(Fraction(_vector_error(vec, {}), scale) for vec, scale in found)
    return _verdict(backend, "vacuum_annihilation", err, 1)


def energy_bookkeeping_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """iota shifts energy by -k, eps by +k, L by -k, d and dtilde by 0."""
    n, window = backend.n, backend.window
    basis = check_basis(backend, max(window.guard, 1), 4, cap=1100 if _small(backend) else 40)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "energy_bookkeeping", max(window.guard, 1))
    bad = 0
    for mono in basis:
        e0 = energy(n, mono)
        for k in range(window.kMin + 1, window.kMax):
            for i in range(n):
                for hit, shift in ((iota_monomial(n, (i, k), mono), -k), (eps_monomial(n, (i, k), mono), k)):
                    bad += hit is not None and energy(n, hit[1]) != e0 + shift
                bad += sum(1 for m in _L_monomial(backend, i, k, mono) if energy(n, m) != e0 - k)
        for twisted in (False, True):
            bad += sum(1 for m in _d_monomial(backend, twisted, mono) if energy(n, m) != e0)
    return _verdict(backend, "energy_bookkeeping", Fraction(bad), len(basis))


def l0_commutes_with_d_check(backend: OrthonormalBackend) -> IdentityVerdict:
    if backend.window.guard < 1:
        return _skip(backend, "L0_commutes_with_d", "window guard < 1")
    basis = check_basis(backend, backend.window.guard, 4, cap=1100 if _small(backend) else 12)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "L0_commutes_with_d", backend.window.guard)
    d = partial(_d_monomial, backend, False)
    err = 0
    gens = range(backend.n) if _small(backend) else range(0, backend.n, max(1, backend.n // 4))
    for mono in basis:
        for i in gens:
            L0 = partial(_L_monomial, backend, i, 0)
            err = max(err, _vector_error(_apply(d, L0(mono)), _apply(L0, d(mono))))
    return _verdict(backend, "L0_commutes_with_d", Fraction(err, 2 * backend.alg.scale ** 2), len(basis))


def _ambient_differential(backend: OrthonormalBackend, wedge: Tuple[Mode, ...]) -> Dict[Tuple[Mode, ...], int]:
    """CE differential of a wedge of dual modes over the full mode algebra
    (all window levels, negative included), as wedges sorted by mode
    order, over the scale s of the structure constants."""
    n, window = backend.n, backend.window
    out: Dict[Tuple[Mode, ...], int] = {}
    for j, (m, l) in enumerate(wedge):
        outer = -1 if j % 2 else 1
        rest = [x for t, x in enumerate(wedge) if t != j]
        for l1 in range(window.kMin, window.kMax + 1):
            l2 = l - l1
            if l2 < l1 or not window.contains(l2):
                continue
            for p in range(n):
                for q, col in backend.alg.structure[p].items():
                    cval = col.get(m)
                    if cval is None or (l1 == l2 and p >= q):
                        continue
                    # splice e^{p,l1} ^ e^{q,l2} in place of position j
                    new = list(rest)
                    sign = 1
                    ok = True
                    for mode in ((q, l2), (p, l1)):
                        mk = _mode_key(mode)
                        pos = 0
                        while pos < len(new) and _mode_key(new[pos]) < mk:
                            pos += 1
                        if pos < len(new) and new[pos] == mode:
                            ok = False
                            break
                        if pos % 2:
                            sign = -sign
                        new.insert(pos, mode)
                    if ok:
                        _accumulate(out, tuple(new), -outer * sign * cval)
    return out


def leibniz_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """d(alpha ^ omega) = d(alpha) ^ omega + (-1)^p alpha ^ d(omega) for
    cochain wedges alpha and random guarded int vectors omega; d(alpha) is
    the full-algebra differential computed independently from the
    structure constants (its negative-mode terms act on monomials with
    holes).  Both sides are compared times 2s, the scale of d."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "leibniz_rule", "window guard < 1")
    import random as _random

    rng = _random.Random(11)
    n = backend.n
    lo, hi = window.support(window.guard)
    coch_modes = [(i, k) for k in range(1, hi + 1) for i in range(n)]
    if not coch_modes:
        return _skip(backend, "leibniz_rule", f"no cochain mode: kMax - guard = {hi} < 1")
    basis = check_basis(backend, window.guard, 4, cap=700 if _small(backend) else 60)
    d = partial(_d_monomial, backend, False)

    def wedge(modes: Sequence[Mode], v: Mapping[SemiInfMonomial, int]) -> FockVector:
        return _apply(partial(_eps_wedge_column, n, modes), v)

    err = 0
    trials = 12
    for _ in range(trials):
        p = rng.choice([1, 2])
        alpha = tuple(sorted(rng.sample(coch_modes, p), key=_mode_key))
        omega_mons = rng.sample(basis, min(3, len(basis)))
        omega = {m: rng.choice((-1, 1)) * rng.randint(1, 9) for m in omega_mons}

        lhs = _apply(d, wedge(alpha, omega))
        rhs = _combine(
            (-1 if p % 2 else 1, wedge(alpha, _apply(d, omega))),
            *((2 * c, wedge(dwedge, omega)) for dwedge, c in _ambient_differential(backend, alpha).items()),
        )
        err = max(err, _vector_error(lhs, rhs))
    return _verdict(backend, "leibniz_rule", Fraction(err, 2 * backend.alg.scale), trials)


def d_squared_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """d^2 = sum_{k>0} sum_{a,b} 2ck G_ab eps^{a,k} eps^{b,-k}, compared
    column by column, times 4s^2 g: d(d(c)) against the closed form on each
    guarded column c."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "d_squared_closed_form", "window guard < 1")
    cols = check_basis(backend, window.guard, 3 if _small(backend) else 2, cap=600 if _small(backend) else 30)
    if cols == [VACUUM]:
        return _skip_vacuum_only(backend, "d_squared_closed_form", window.guard)
    n, alg = backend.n, backend.alg
    s, g = alg.scale, alg.gram_scale
    d = partial(_d_monomial, backend, False)
    err = 0
    for mono in cols:
        rhs: FockVector = {}
        for k in range(1, min(window.kMax, -window.kMin) + 1):
            for a, (b, x) in enumerate(alg.gram):
                hit = _then(n, eps_monomial, (a, k), eps_monomial(n, (b, -k), mono))
                if hit:
                    _accumulate(rhs, hit[1], 8 * s * s * alg.data.coxeter * k * x * hit[0])
        err = max(err, _vector_error(_combine((g, _apply(d, d(mono)))), rhs))
    return _verdict(backend, "d_squared_closed_form", Fraction(err, 4 * s * s * g), len(cols))


def laplacian_formula_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """[d, dtilde*]+ = -sum_{k>0} ck eps^{i,k} iota_{i,k}
    - sum_{k<0} ck iota_{i,k} eps^{i,k} + 1/2 sum_{i,j} (G^-1)_{ij} L_{i,0} L_{j,0},
    compared column by column over 4s^2 e: d(dtilde* c) + dtilde*(d c)
    against the closed form on each guarded column c."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "laplacian_closed_form", "window guard < 1")
    cols = check_basis(backend, window.guard, 3 if _small(backend) else 2, cap=600 if _small(backend) else 30)
    if cols == [VACUUM]:
        return _skip_vacuum_only(backend, "laplacian_closed_form", window.guard)
    d = partial(_d_monomial, backend, False)
    dstar = partial(_dstar_monomial, backend)
    err = 0
    for mono in cols:
        lhs = _combine((1, _apply(d, dstar(mono))), (1, _apply(dstar, d(mono))))
        err = max(err, _vector_error(lhs, _closed_form_monomial(backend, mono)))
    return _verdict(backend, "laplacian_closed_form",
                    Fraction(err, 4 * backend.alg.scale ** 2 * backend.alg.gram_inv_scale), len(cols))


def _closed_form_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial) -> FockVector:
    """The closed form of [d, dtilde*]+ on one monomial, over 4s^2 e."""
    n, window, alg = backend.n, backend.window, backend.alg
    out: FockVector = {}
    number = 4 * alg.scale ** 2 * alg.gram_inv_scale * alg.data.coxeter  # c, over 4s^2 e
    for k in range(window.kMin, window.kMax + 1):
        # eps^{i,k} iota_{i,k} for k > 0, iota_{i,k} eps^{i,k} for k < 0
        if k == 0:
            continue
        outer, inner = (eps_monomial, iota_monomial) if k > 0 else (iota_monomial, eps_monomial)
        for i in range(n):
            hit = _then(n, outer, (i, k), inner(n, (i, k), mono))
            if hit:
                _accumulate(out, hit[1], -number * k * hit[0])
    for i, (j, x) in enumerate(alg.gram_inv):
        for m1, c1 in _L_monomial(backend, j, 0, mono).items():
            for m2, c2 in _L_monomial(backend, i, 0, m1).items():
                _accumulate(out, m2, 2 * x * c1 * c2)
    return out


def dtilde_adjoint_matrix_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """dtilde* is the adjoint of dtilde under the Fock pairing on each
    energy block of in-window monomials: <r, dtilde* c> = <dtilde r, c> for
    every r and c in the block.  As r pairs with its partner sigma r alone
    (``_pairing``), the left side is dtilde*(c)[sigma r] <r, sigma r> and
    the right side dtilde(r)[sigma c] <sigma c, c>.

    Adjoints need whole blocks, so blocks of more than 800 monomials are
    left out rather than truncated; if none fit the check is skipped."""
    name = "dtilde_adjoint_is_matrix_transpose"
    if backend.window.guard < 1:
        return _skip(backend, name, "window guard < 1")
    allmon = monomials_in_support(backend, 0, 3 if _small(backend) else 1)
    block_cap = 800
    e_scale = backend.alg.gram_inv_scale
    err = Fraction(0)
    count = 0
    energies = {m: energy(backend.n, m) for m in allmon}
    for e in sorted(set(energies.values())):
        block = [m for m in allmon if energies[m] == e]
        if len(block) > block_cap:
            continue
        count += len(block)
        pairing = {m: _pairing(backend, m) for m in block}
        transposed: Dict[SemiInfMonomial, FockVector] = {m: {} for m in block}
        for row in block:
            for col, val in _d_monomial(backend, True, row).items():
                if col not in pairing:
                    raise InvariantError(f"dtilde leaves the energy-{e} block")
                transposed[col][row] = val
        for col in block:
            ds = _dstar_monomial(backend, col)
            if not pairing.keys() >= ds.keys():
                raise InvariantError(f"dtilde* leaves the energy-{e} block")
            num, den, partner = pairing[col]
            # both sides keyed by m = sigma r, times 2se den(m) den(c); den(sigma r) = den(r)
            lhs = {m: x * pairing[m][0] * den for m, x in ds.items()}
            rhs = {pairing[r][2]: e_scale * x * num * pairing[r][1] for r, x in transposed[partner].items()}
            for m in lhs.keys() | rhs.keys():
                if lhs.get(m, 0) != rhs.get(m, 0):
                    err = max(err, Fraction(abs(lhs.get(m, 0) - rhs.get(m, 0)), pairing[m][1] * den))
    if count == 0:
        return _skip(backend, name, f"every energy block exceeds {block_cap} monomials")
    return _verdict(backend, name, err / (2 * backend.alg.scale * e_scale), count)


def d_matches_cochain_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """d(eps(alpha) Omega) = eps(d_CE alpha) Omega for cochain wedges of
    degree <= 2 and energy <= 3 from the exact pipeline, which reads the
    backend's ``IntAlgebra``, so the cochain mode (level, a) is
    e^{a,level}.  Both sides are compared over 2s: d is over 2s, and the
    exact block is s*d."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "d_restricts_to_chevalley_eilenberg", "window guard < 1")
    max_k = min(3, window.kMax - window.guard)
    if max_k < 1:
        return _skip(backend, "d_restricts_to_chevalley_eilenberg", f"no cochain level: kMax - guard = {max_k} < 1")

    def embed(wedge) -> FockVector:
        return _eps_wedge_column(backend.n, [(a, level) for level, a in wedge], VACUUM)

    d = partial(_d_monomial, backend, False)

    err = Fraction(0)
    count = 0
    col_cap = None if _small(backend) else 6
    for k in range(1, max_k + 1):
        for p in range(1, min(2, k) + 1):
            block = differential_block(backend.alg, p, k)
            for col, wedge in enumerate(block.basisIn.monomials[:col_cap]):
                lhs = _apply(d, embed(wedge))
                rhs = _combine(*((2 * val, embed(block.basisOut.monomials[row]))
                                 for (row, c_), val in block.dMatrix.items() if c_ == col))
                err = max(err, Fraction(_vector_error(lhs, rhs), 2 * backend.alg.scale))
                count += 1
    return _verdict(backend, "d_restricts_to_chevalley_eilenberg", err, count)


def verify_identity_suite(data: AlgebraData, window: EnergyWindow) -> List[IdentityVerdict]:
    """Run the full operator identity suite; skipped checks carry reasons."""
    backend = OrthonormalBackend(data, window)
    out = [
        check(backend)
        for check in (
            vacuum_checks,
            clifford_check,
            energy_bookkeeping_check,
            commutator_check,
            l0_commutes_with_d_check,
            leibniz_check,
            d_matches_cochain_check,
            d_squared_check,
            laplacian_formula_check,
            dtilde_adjoint_matrix_check,
        )
    ]
    for i, j, k in ((0, 0, 1), (0, 0, 0), (0, min(1, data.dim - 1), 1)):
        _, verdict = cocycle_check(backend, i, j, k)
        out.append(verdict)
    return out
