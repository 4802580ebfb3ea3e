"""Windowed semi-infinite forms and the operator identity suite.

A semi-infinite monomial is a wedge of dual modes e^{i,k} that agrees
with the standard vacuum tail for k << 0; it is encoded by the finitely
many modes added above the vacuum (k >= 1) and removed from it (k <= 0).
Wedges are kept in descending mode order (the order in which the vacuum
is written), with sign bookkeeping folded into coefficients.

The backend works over a complex basis of the algebra that is
orthonormal simultaneously for the scaled Killing form and for the
compact-involution metric: Gram-Schmidt is applied to the hermGram
within each eigenspace of the involution and the fixed-space vectors are
multiplied by i.  In this basis the structure constants are totally
antisymmetric (and purely imaginary), which is exactly the setting in
which the closed-form operator identities hold with delta_ij weights.

The adjoint of the twisted differential is the transpose of its matrix
over the monomial basis: the basis is orthonormal for the complex
bilinear pairing, and conjugating as well would flip the sign of the
closed-form Laplacian.  Operator form: dtilde* = -1/2 sum s_k iota_{i,k}
L_{i,-k}, which a dedicated check compares against the matrix transpose.

All identity checks quantify over explicit finite sets of monomials whose
support keeps enough margin from the window edge that truncation is
exact; each check declares the minimum window guard it needs and emits a
skip verdict below that, never a silent pass.

The checks share their operator columns through a memo on the backend,
keyed by window: the first call of ``_L_monomial``, ``_d_monomial`` or
``_dstar_monomial`` on a monomial stores its column there (read-only,
its monomials interned), and so do the quantifier sets of
``check_basis``.  ``verify_identity_suite`` builds one backend per call,
so the memo lives as long as one suite run.  The matrix identities
(d^2, the Laplacian, the transpose of dtilde) are checked column by
column from these columns; no dense matrix is formed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .cochain import InvariantError, differential_block
from .liealg import AlgebraData

ModeIndex = Tuple[int, int]  # (i, k): basis index, Fourier degree
Mode = ModeIndex
FockVector = Dict["SemiInfMonomial", complex]


class WindowViolation(ValueError):
    """A mode outside the window was requested."""


class GuardViolation(ValueError):
    """A vector is not supported in the guarded sub-window for the shift."""


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


@dataclass(frozen=True, slots=True)
class SemiInfMonomial:
    added: Tuple[Mode, ...]    # k >= 1, sorted ascending by (k, i)
    removed: Tuple[Mode, ...]  # k <= 0, sorted ascending by (k, i)

    @property
    def degree_offset(self) -> int:
        return len(self.added) - len(self.removed)

    @property
    def energy(self) -> int:
        return sum(k for _i, k in self.added) - sum(k for _i, k in self.removed)

    def __str__(self):
        return _monomial_label(_modes_label(self.added), _modes_label(self.removed))


def _modes_label(modes: Tuple[Mode, ...]) -> str:
    return " ".join(f"e[{i},{k}]" for i, k in modes) or "-"


def _monomial_label(added_label: str, removed_label: str) -> str:
    return f"(+{added_label} | -{removed_label})"


VACUUM = SemiInfMonomial((), ())


def _count_greater(modes: Sequence[Mode], mode: Mode) -> int:
    """Modes of the ascending ``modes`` that sort after ``mode``."""
    return len(modes) - bisect_right(modes, _mode_key(mode), key=_mode_key)


def _tail_greater(n: int, mode: Mode) -> int:
    """Number of vacuum modes strictly greater than ``mode`` (k <= 0)."""
    i, k = mode
    return n * (-k) + (n - 1 - i)


def _sorted_insert(modes: Tuple[Mode, ...], mode: Mode) -> Tuple[Mode, ...]:
    pos = bisect_left(modes, _mode_key(mode), key=_mode_key)
    return modes[:pos] + (mode,) + modes[pos:]


def _removed_from(modes: Tuple[Mode, ...], mode: Mode) -> Tuple[Mode, ...]:
    return tuple(m for m in modes if m != mode)


def eps_monomial(n: int, mode: Mode, mono: SemiInfMonomial) -> Tuple[int, SemiInfMonomial] | None:
    """Left exterior multiplication by e^{mode}: (sign, monomial) or None."""
    i, k = mode
    if k >= 1:
        if mode in mono.added:
            return None
        sign = -1 if _count_greater(mono.added, mode) % 2 else 1
        return sign, SemiInfMonomial(_sorted_insert(mono.added, mode), mono.removed)
    if mode not in mono.removed:
        return None  # occupied in the vacuum tail
    before = len(mono.added) + _tail_greater(n, mode) - _count_greater(mono.removed, mode)
    sign = -1 if before % 2 else 1
    return sign, SemiInfMonomial(mono.added, _removed_from(mono.removed, mode))


def iota_monomial(n: int, mode: Mode, mono: SemiInfMonomial) -> Tuple[int, SemiInfMonomial] | None:
    """Contraction with e_{mode}: removes the dual mode with (-1)^(pos-1)."""
    i, k = mode
    if k >= 1:
        if mode not in mono.added:
            return None
        sign = -1 if _count_greater(mono.added, mode) % 2 else 1
        return sign, SemiInfMonomial(_removed_from(mono.added, mode), mono.removed)
    if mode in mono.removed:
        return None
    before = len(mono.added) + _tail_greater(n, mode) - _count_greater(mono.removed, mode)
    sign = -1 if before % 2 else 1
    return sign, SemiInfMonomial(mono.added, _sorted_insert(mono.removed, mode))


def _accumulate(out: FockVector, mono: SemiInfMonomial, coeff: complex):
    new = out.get(mono, 0j) + coeff
    if abs(new) < 1e-14:
        out.pop(mono, None)
    else:
        out[mono] = new


class OrthonormalBackend:
    """Complex orthonormal basis and structure constants for one algebra."""

    def __init__(self, data: AlgebraData):
        self.data = data
        n = data.dim
        self.n = n
        self.coxeter = data.coxeter
        H = np.array([[float(x) for x in row] for row in data.hermGram])
        G = np.array([[float(x) for x in row] for row in data.gram])
        r = data.rank
        m = (n - r) // 2

        def unit(j):
            v = np.zeros(n)
            v[j] = 1.0
            return v

        minus = [unit(i) for i in range(r)]
        minus += [unit(r + j) + unit(r + m + j) for j in range(m)]
        plus = [unit(r + j) - unit(r + m + j) for j in range(m)]

        cols = []
        for block, phase in ((minus, 1.0), (plus, 1j)):
            ortho: List[np.ndarray] = []
            for v in block:
                w = v.astype(float)
                for u in ortho:
                    w = w - (u @ H @ w) * u
                w = w / np.sqrt(w @ H @ w)
                ortho.append(w)
            cols.extend(phase * w for w in ortho)
        B = np.array(cols, dtype=complex).T  # columns are basis vectors
        self.basis_matrix = B
        self.basis_matrix_inv = np.linalg.inv(B)

        if np.max(np.abs(B.T @ G @ B - np.eye(n))) >= 1e-10:
            raise InvariantError("orthonormal basis is not orthonormal for the bilinear form")
        if np.max(np.abs(B.conj().T @ H @ B - np.eye(n))) >= 1e-10:
            raise InvariantError("orthonormal basis is not orthonormal for the hermitian form")

        ad = [np.array(data.ad_matrix(i), dtype=float) for i in range(n)]

        def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return sum(x[i] * (ad[i] @ y) for i in range(n))

        C = np.zeros((n, n, n), dtype=complex)  # [a_i, a_q] = sum_p C[i,q,p] a_p
        for i in range(n):
            for q in range(n):
                C[i, q] = self.basis_matrix_inv @ bracket(B[:, i], B[:, q])
        self.C = C
        for perm_err in (
            np.max(np.abs(C + C.transpose(1, 0, 2))),
            np.max(np.abs(C + C.transpose(2, 1, 0))),
        ):
            if perm_err >= 1e-9:
                raise InvariantError("structure constants are not totally antisymmetric")
        trace = np.einsum("inq,jqn->ij", C, C)
        if np.max(np.abs(trace - 2 * self.coxeter * np.eye(n))) >= 1e-8:
            raise InvariantError("trace identity C_inq C_jqn = 2c delta_ij fails")

        self.pairs: List[List[Tuple[int, int, complex]]] = []
        for i in range(n):
            lst = [
                (p, q, C[i, q, p])
                for q in range(n)
                for p in range(n)
                if abs(C[i, q, p]) > 1e-12
            ]
            self.pairs.append(lst)
        self._memos: Dict[EnergyWindow, _WindowMemo] = {}
        self._canon: Dict[SemiInfMonomial, SemiInfMonomial] = {}

    def memo(self, window: EnergyWindow) -> _WindowMemo:
        """Operator columns and quantifier sets computed so far in ``window``."""
        memo = self._memos.get(window)
        if memo is None:
            memo = self._memos[window] = _WindowMemo()
        return memo

    def freeze(self, vec: FockVector) -> Mapping[SemiInfMonomial, complex]:
        """Read-only copy of ``vec`` with interned monomials, for the memo."""
        if not vec:
            return _EMPTY
        canon = self._canon
        return MappingProxyType({canon.setdefault(m, m): c for m, c in vec.items()})

    def intern(self, mono: SemiInfMonomial) -> SemiInfMonomial:
        return self._canon.setdefault(mono, mono)


_EMPTY: Mapping[SemiInfMonomial, complex] = MappingProxyType({})


class _WindowMemo:
    """Per-window memo: L_{i,k}, d or dtilde, dtilde* columns and check bases."""

    __slots__ = ("L", "d", "dstar", "support")

    def __init__(self):
        self.L: Dict[Tuple[int, int, SemiInfMonomial], Mapping[SemiInfMonomial, complex]] = {}
        self.d: Dict[Tuple[bool, SemiInfMonomial], Mapping[SemiInfMonomial, complex]] = {}
        self.dstar: Dict[SemiInfMonomial, Mapping[SemiInfMonomial, complex]] = {}
        self.support: Dict[Tuple[int, int | None, int | None], Tuple[SemiInfMonomial, ...]] = {}


def vacuum(window: EnergyWindow) -> FockVector:
    return {VACUUM: 1.0 + 0j}


def _check_mode(window: EnergyWindow, mode: Mode):
    if not window.contains(mode[1]):
        raise WindowViolation(f"mode {mode} outside window [{window.kMin}, {window.kMax}]")


def apply_eps(backend: OrthonormalBackend, mode: Mode, v: FockVector, window: EnergyWindow) -> FockVector:
    _check_mode(window, mode)
    out: FockVector = {}
    for mono, coeff in v.items():
        hit = eps_monomial(backend.n, mode, mono)
        if hit:
            _accumulate(out, hit[1], hit[0] * coeff)
    return out


def apply_iota(backend: OrthonormalBackend, mode: Mode, v: FockVector, window: EnergyWindow) -> FockVector:
    _check_mode(window, mode)
    out: FockVector = {}
    for mono, coeff in v.items():
        hit = iota_monomial(backend.n, mode, mono)
        if hit:
            _accumulate(out, hit[1], hit[0] * coeff)
    return out


def _L_monomial(backend: OrthonormalBackend, i: int, k: int, mono: SemiInfMonomial,
                window: EnergyWindow) -> Mapping[SemiInfMonomial, complex]:
    """L_{i,k} = sum_s C_{iq}^p :iota_{p,s} eps^{q,s-k}: with both modes in
    the window; normal ordering puts iota first for s <= 0 and -eps iota
    for s > 0 (operator products act right to left).  Memoised, read-only."""
    memo = backend.memo(window).L
    col = memo.get((i, k, mono))
    if col is not None:
        return col
    n = backend.n
    out: FockVector = {}
    lo = max(window.kMin, window.kMin + k)
    hi = min(window.kMax, window.kMax + k)
    for s in range(lo, hi + 1):
        for p, q, cval in backend.pairs[i]:
            if s <= 0:
                first = eps_monomial(n, (q, s - k), mono)
                if first is None:
                    continue
                second = iota_monomial(n, (p, s), first[1])
                if second is None:
                    continue
                _accumulate(out, second[1], cval * first[0] * second[0])
            else:
                first = iota_monomial(n, (p, s), mono)
                if first is None:
                    continue
                second = eps_monomial(n, (q, s - k), first[1])
                if second is None:
                    continue
                _accumulate(out, second[1], -cval * first[0] * second[0])
    col = memo[(i, k, backend.intern(mono))] = backend.freeze(out)
    return col


def _apply_monowise(fn: Callable[[SemiInfMonomial], Mapping[SemiInfMonomial, complex]],
                    v: Mapping[SemiInfMonomial, complex]) -> FockVector:
    out: FockVector = {}
    for mono, coeff in v.items():
        for m2, c2 in fn(mono).items():
            _accumulate(out, m2, coeff * c2)
    return out


def _require_guarded(v: FockVector, window: EnergyWindow, margin: int, what: str):
    lo, hi = window.support(margin)
    for mono in v:
        for _i, k in mono.added:
            if not (1 <= k <= hi):
                raise GuardViolation(f"{what}: added mode at level {k} outside guarded [{lo},{hi}]")
        for _i, k in mono.removed:
            if not (lo <= k <= 0):
                raise GuardViolation(f"{what}: removed mode at level {k} outside guarded [{lo},{hi}]")


def apply_L(backend: OrthonormalBackend, i: int, k: int, v: FockVector,
            window: EnergyWindow) -> FockVector:
    """Coadjoint-type mode action; the input must keep margin |k| from the
    window edge so that the truncated mode sum is exact."""
    _require_guarded(v, window, abs(k), f"L_({i},{k})")
    return _apply_monowise(lambda m: _L_monomial(backend, i, k, m, window), v)


def _d_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial, window: EnergyWindow,
                twisted: bool) -> Mapping[SemiInfMonomial, complex]:
    """d (or dtilde if ``twisted``) of one monomial.  Memoised, read-only."""
    memo = backend.memo(window).d
    col = memo.get((twisted, mono))
    if col is not None:
        return col
    n = backend.n
    out: FockVector = {}
    for k in range(window.kMin, window.kMax + 1):
        sk = -1.0 if twisted and k <= 0 else 1.0
        for i in range(n):
            headstart = eps_monomial(n, (i, k), mono)
            if headstart is None:
                continue
            sgn, inner = headstart
            for m2, c2 in _L_monomial(backend, i, k, inner, window).items():
                _accumulate(out, m2, 0.5 * sk * sgn * c2)
    col = memo[(twisted, backend.intern(mono))] = backend.freeze(out)
    return col


def apply_d(backend: OrthonormalBackend, v: FockVector, window: EnergyWindow) -> FockVector:
    """d = 1/2 sum_{i,k} L_{i,k} eps^{i,k}, windowed."""
    return _apply_monowise(lambda m: _d_monomial(backend, m, window, False), v)


def apply_d_twisted(backend: OrthonormalBackend, v: FockVector, window: EnergyWindow) -> FockVector:
    """dtilde: the k <= 0 terms of d enter with a minus sign."""
    return _apply_monowise(lambda m: _d_monomial(backend, m, window, True), v)


def _dstar_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial,
                    window: EnergyWindow) -> Mapping[SemiInfMonomial, complex]:
    """dtilde* = -1/2 sum_{i,k} s_k iota_{i,k} L_{i,-k}: transpose of dtilde
    over the bilinear-orthonormal monomial basis.  Memoised, read-only."""
    memo = backend.memo(window).dstar
    col = memo.get(mono)
    if col is not None:
        return col
    n = backend.n
    out: FockVector = {}
    for k in range(window.kMin, window.kMax + 1):
        sk = 1.0 if k > 0 else -1.0
        for i in range(n):
            for m1, c1 in _L_monomial(backend, i, -k, mono, window).items():
                hit = iota_monomial(n, (i, k), m1)
                if hit is None:
                    continue
                _accumulate(out, hit[1], -0.5 * sk * c1 * hit[0])
    col = memo[backend.intern(mono)] = backend.freeze(out)
    return col


def monomials_in_support(backend: OrthonormalBackend, window: EnergyWindow, margin: int,
                         max_energy: int | None = None,
                         max_particles: int | None = None) -> List[SemiInfMonomial]:
    """All monomials supported in the margin-shrunk window, optionally
    capped by energy and by total mode count (added plus removed);
    deterministic order (energy, repr)."""
    lo, hi = window.support(margin)
    n = backend.n
    add_candidates = [(i, k) for k in range(1, hi + 1) for i in range(n)]
    rem_candidates = [(i, k) for k in range(lo, 1) for i in range(n)]

    def subsets(cands: List[Mode], weight: Callable[[Mode], int], budget) -> List[Tuple[Tuple[Mode, ...], int]]:
        results: List[Tuple[Tuple[Mode, ...], int]] = []

        def rec(idx: int, current: List[Mode], used: int):
            results.append((tuple(sorted(current, key=_mode_key)), used))
            if max_particles is not None and len(current) >= max_particles:
                return
            for j in range(idx, len(cands)):
                w = weight(cands[j])
                if budget is not None and used + w > budget:
                    continue
                current.append(cands[j])
                rec(j + 1, current, used + w)
                current.pop()

        rec(0, [], 0)
        return results

    # the (energy, str) sort key is assembled from per-side energies and labels
    adds = [(aset, ae, _modes_label(aset)) for aset, ae in subsets(add_candidates, lambda m: m[1], max_energy)]
    rems = [(rset, re_, _modes_label(rset)) for rset, re_ in subsets(rem_candidates, lambda m: -m[1], max_energy)]
    keyed: List[Tuple[Tuple[int, str], SemiInfMonomial]] = []

    def cross(aset, ae, alabel, partners):
        for rset, re_, rlabel in partners:
            if max_energy is not None and ae + re_ > max_energy:
                continue
            keyed.append(((ae + re_, _monomial_label(alabel, rlabel)), SemiInfMonomial(aset, rset)))

    if max_particles is not None:
        # bucket one side by mode count so the cross product stays within
        # the total-particle budget instead of being filtered afterwards
        buckets: Dict[int, List[Tuple[Tuple[Mode, ...], int, str]]] = {}
        for rem in rems:
            buckets.setdefault(len(rem[0]), []).append(rem)
        for aset, ae, alabel in adds:
            for cnt in range(max_particles - len(aset) + 1):
                cross(aset, ae, alabel, buckets.get(cnt, ()))
    else:
        for aset, ae, alabel in adds:
            cross(aset, ae, alabel, rems)
    keyed.sort(key=lambda km: km[0])
    return [m for _key, m in keyed]


def _small(backend: OrthonormalBackend) -> bool:
    return backend.n <= 3


def check_basis(backend: OrthonormalBackend, window: EnergyWindow, margin: int,
                max_energy: int | None, cap: int | None = None) -> List[SemiInfMonomial]:
    """Deterministic quantifier set for an identity check.

    Small windows (up to 18 candidate modes, which covers the rank-one
    acceptance window) enumerate every supported monomial under the energy
    cap; larger mode sets additionally restrict to at most four modes off
    the vacuum and truncate to ``cap`` vectors in (energy, repr) order.
    The uncapped set is memoised per window, margin and energy cap.
    """
    lo, hi = window.support(margin)
    n_candidates = backend.n * (max(hi, 0) + max(1 - lo, 0))
    particles = None if n_candidates <= 18 else 4
    memo = backend.memo(window).support
    key = (margin, max_energy, particles)
    mons = memo.get(key)
    if mons is None:
        mons = memo[key] = tuple(map(backend.intern, monomials_in_support(
            backend, window, margin, max_energy, max_particles=particles)))
    return list(mons[:cap])


@dataclass
class IdentityVerdict:
    identity: str
    window: EnergyWindow
    max_abs_error: float | None
    passed: bool
    skipped: bool = False
    reason: str | None = None
    vectors: int = 0

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


def _skip(name: str, window: EnergyWindow, reason: str) -> IdentityVerdict:
    return IdentityVerdict(name, window, None, passed=False, skipped=True, reason=reason)


def _vector_error(a: FockVector, b: FockVector) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(m, 0j) - b.get(m, 0j)) for m in keys), default=0.0)


def clifford_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                   max_energy: int = 3) -> IdentityVerdict:
    """[iota, eps]+ = delta * delta, squares vanish, on windowed monomials."""
    n = backend.n
    if not _small(backend):
        max_energy = min(max_energy, 2)
    basis = check_basis(backend, window, window.guard, max_energy,
                        cap=700 if _small(backend) else 60)
    modes = [(i, k) for k in range(window.kMin, window.kMax + 1) for i in range(n)]
    modes = sorted(modes, key=lambda m: (abs(m[1]), m[1], m[0]))[:24]
    err = 0.0
    for mono in basis:
        v = {mono: 1.0 + 0j}
        eps_v = [apply_eps(backend, m2, v, window) for m2 in modes]
        for m1 in modes:
            e1 = apply_eps(backend, m1, v, window)
            i1 = apply_iota(backend, m1, v, window)
            err = max(err, _vector_error(apply_eps(backend, m1, e1, window), {}))
            err = max(err, _vector_error(apply_iota(backend, m1, i1, window), {}))
            for m2, e2 in zip(modes, eps_v):
                anti: FockVector = {}
                for m, c in apply_eps(backend, m2, i1, window).items():
                    _accumulate(anti, m, c)
                for m, c in apply_iota(backend, m1, e2, window).items():
                    _accumulate(anti, m, c)
                expect = v if m1 == m2 else {}
                err = max(err, _vector_error(anti, expect))
    return IdentityVerdict("clifford_relations", window, err, err <= tol, vectors=len(basis))


def commutator_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                     max_energy: int = 4) -> IdentityVerdict:
    """[iota_{j,m}, L_{i,k}] = -sum_p C_{ij}^p iota_{p,m+k} and the
    eps analogue [eps^{j,m}, L_{i,k}] = sum_q C_{iq}^j eps^{q,m-k}."""
    if window.guard < 1:
        return _skip("mode_action_commutators", window, "window guard < 1 (shift-1 operators)")
    n = backend.n
    err = 0.0
    count = 0
    for k in range(-window.guard, window.guard + 1):
        margin = max(abs(k), 1)
        basis = check_basis(backend, window, margin + 1, max_energy,
                            cap=300 if _small(backend) else 24)
        count += len(basis)
        for mono in basis:
            v = {mono: 1.0 + 0j}
            gen_pairs = [(i, j) for i in range(n) for j in range(n)]
            if not _small(backend):
                gen_pairs = gen_pairs[:: max(1, len(gen_pairs) // 12)]
            for i in sorted({i for i, _ in gen_pairs}):
                Lv = _apply_monowise(lambda mm: _L_monomial(backend, i, k, mm, window), v)
                for j in [jj for ii, jj in gen_pairs if ii == i]:
                    for m in range(window.kMin + margin, window.kMax - margin + 1):
                        if not window.contains(m + k) or not window.contains(m - k):
                            continue
                        lhs: FockVector = {}
                        for mo, c in apply_iota(backend, (j, m), Lv, window).items():
                            _accumulate(lhs, mo, c)
                        for mo, c in _apply_monowise(
                            lambda mm: _L_monomial(backend, i, k, mm, window),
                            apply_iota(backend, (j, m), v, window),
                        ).items():
                            _accumulate(lhs, mo, -c)
                        rhs: FockVector = {}
                        for p in range(n):
                            cv = backend.C[i, j, p]
                            if abs(cv) > 1e-12:
                                for mo, c in apply_iota(backend, (p, m + k), v, window).items():
                                    _accumulate(rhs, mo, -cv * c)
                        err = max(err, _vector_error(lhs, rhs))

                        lhs2: FockVector = {}
                        for mo, c in apply_eps(backend, (j, m), Lv, window).items():
                            _accumulate(lhs2, mo, c)
                        for mo, c in _apply_monowise(
                            lambda mm: _L_monomial(backend, i, k, mm, window),
                            apply_eps(backend, (j, m), v, window),
                        ).items():
                            _accumulate(lhs2, mo, -c)
                        rhs2: FockVector = {}
                        for q in range(n):
                            cv = backend.C[i, q, j]
                            if abs(cv) > 1e-12:
                                for mo, c in apply_eps(backend, (q, m - k), v, window).items():
                                    _accumulate(rhs2, mo, cv * c)
                        err = max(err, _vector_error(lhs2, rhs2))
    return IdentityVerdict("mode_action_commutators", window, err, err <= tol, vectors=count)


def cocycle_check(backend: OrthonormalBackend, i: int, j: int, k: int,
                  window: EnergyWindow, tol: float = 1e-9,
                  max_energy: int = 3) -> Tuple[complex, IdentityVerdict]:
    """Central scalar of [L_{i,k}, L_{j,-k}] - L([e_{i,k}, e_{j,-k}]).

    Contract: 2c * k * delta_ij in the orthonormal backend.  Requires
    window guard >= |k| (the product needs margin 2|k|, taken internally).
    """
    name = f"cocycle_L({i},{k})_L({j},{-k})"
    if window.guard < abs(k):
        return 0j, _skip(name, window, f"window guard {window.guard} < |k| = {abs(k)}")
    margin = max(2 * abs(k), window.guard)
    lo, hi = window.support(margin)
    if lo > 0 or hi < 1:
        return 0j, _skip(name, window, "guarded support for margin 2|k| is empty")
    basis = check_basis(backend, window, margin, max_energy,
                        cap=400 if _small(backend) else 40)

    def L(ii, kk, v):
        return _apply_monowise(lambda m: _L_monomial(backend, ii, kk, m, window), v)

    diag: List[complex] = []
    err = 0.0
    expected = 2.0 * backend.coxeter * k * (1.0 if i == j else 0.0)
    for mono in basis:
        v = {mono: 1.0 + 0j}
        comm: FockVector = {}
        for mo, c in L(i, k, L(j, -k, v)).items():
            _accumulate(comm, mo, c)
        for mo, c in L(j, -k, L(i, k, v)).items():
            _accumulate(comm, mo, -c)
        for p in range(backend.n):
            cv = backend.C[i, j, p]
            if abs(cv) > 1e-12:
                for mo, c in L(p, 0, v).items():
                    _accumulate(comm, mo, -cv * c)
        diag.append(comm.get(mono, 0j))
        err = max(err, _vector_error(comm, {mono: expected + 0j}))
    measured = sum(diag) / len(diag) if diag else 0j
    verdict = IdentityVerdict(name, window, err, err <= tol, vectors=len(basis))
    return measured, verdict


def vacuum_checks(backend: OrthonormalBackend, window: EnergyWindow, tol: float) -> IdentityVerdict:
    """iota_{i,k>0} Omega = 0, eps^{i,k<=0} Omega = 0, L_{i,k>=0} Omega = 0,
    d Omega = 0."""
    v = vacuum(window)
    err = 0.0
    for k in range(window.kMin, window.kMax + 1):
        for i in range(backend.n):
            if k > 0:
                err = max(err, _vector_error(apply_iota(backend, (i, k), v, window), {}))
                err = max(err, _vector_error(
                    _apply_monowise(lambda m: _L_monomial(backend, i, k, m, window), v), {}))
            else:
                err = max(err, _vector_error(apply_eps(backend, (i, k), v, window), {}))
    err = max(err, _vector_error(
        _apply_monowise(lambda m: _L_monomial(backend, 0, 0, m, window), v), {}))
    err = max(err, _vector_error(apply_d(backend, v, window), {}))
    err = max(err, _vector_error(apply_d_twisted(backend, v, window), {}))
    return IdentityVerdict("vacuum_annihilation", window, err, err <= tol, vectors=1)


def energy_bookkeeping_check(backend: OrthonormalBackend, window: EnergyWindow,
                             tol: float, max_energy: int = 4) -> IdentityVerdict:
    """iota shifts energy by -k, eps by +k, L by -k, d and dtilde by 0."""
    basis = check_basis(backend, window, max(window.guard, 1), max_energy,
                        cap=1100 if _small(backend) else 40)
    bad = 0
    for mono in basis:
        v = {mono: 1.0 + 0j}
        e0 = mono.energy
        for k in range(window.kMin + 1, window.kMax):
            for i in range(backend.n):
                for vec, shift in (
                    (apply_iota(backend, (i, k), v, window), -k),
                    (apply_eps(backend, (i, k), v, window), k),
                    (_apply_monowise(lambda m: _L_monomial(backend, i, k, m, window), v), -k),
                ):
                    bad += sum(1 for m in vec if m.energy != e0 + shift)
        for vec in (apply_d(backend, v, window), apply_d_twisted(backend, v, window)):
            bad += sum(1 for m in vec if m.energy != e0)
    return IdentityVerdict("energy_bookkeeping", window, float(bad), bad == 0, vectors=len(basis))


def l0_commutes_with_d_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                             max_energy: int = 4) -> IdentityVerdict:
    if window.guard < 1:
        return _skip("L0_commutes_with_d", window, "window guard < 1")
    basis = check_basis(backend, window, window.guard, max_energy,
                        cap=1100 if _small(backend) else 12)
    err = 0.0
    gens = range(backend.n) if _small(backend) else range(0, backend.n, max(1, backend.n // 4))
    for mono in basis:
        v = {mono: 1.0 + 0j}
        for i in gens:
            a = apply_d(backend, _apply_monowise(lambda m: _L_monomial(backend, i, 0, m, window), v), window)
            b = _apply_monowise(lambda m: _L_monomial(backend, i, 0, m, window), apply_d(backend, v, window))
            err = max(err, _vector_error(a, b))
    return IdentityVerdict("L0_commutes_with_d", window, err, err <= tol, vectors=len(basis))


def _ambient_differential(backend: OrthonormalBackend, wedge: Tuple[Mode, ...],
                          window: EnergyWindow) -> Dict[Tuple[Mode, ...], complex]:
    """CE differential of a wedge of dual modes over the full mode algebra
    (all window levels, negative included), as wedges sorted by mode order."""
    n = backend.n
    out: Dict[Tuple[Mode, ...], complex] = {}
    for j, (m, l) in enumerate(wedge):
        outer = -1.0 if j % 2 else 1.0
        rest = [x for t, x in enumerate(wedge) if t != j]
        for l1 in range(window.kMin, window.kMax + 1):
            l2 = l - l1
            if l2 < l1 or not window.contains(l2):
                continue
            for p in range(n):
                for q in range(n):
                    if l1 == l2 and p >= q:
                        continue
                    cval = backend.C[p, q, m]
                    if abs(cval) < 1e-12:
                        continue
                    # splice e^{p,l1} ^ e^{q,l2} in place of position j
                    new = list(rest)
                    sign = 1.0
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
                    if not ok:
                        continue
                    key = tuple(new)
                    val = out.get(key, 0j) - outer * sign * cval
                    if abs(val) < 1e-14:
                        out.pop(key, None)
                    else:
                        out[key] = val
    return out


def leibniz_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                  seed: int = 11, trials: int = 12, max_energy: int = 4) -> IdentityVerdict:
    """d(alpha ^ omega) = d(alpha) ^ omega + (-1)^p alpha ^ d(omega) for
    cochain wedges alpha and random guarded vectors omega; d(alpha) is the
    full-algebra differential computed independently from the structure
    constants (its negative-mode terms act on monomials with holes)."""
    if window.guard < 1:
        return _skip("leibniz_rule", window, "window guard < 1")
    import random as _random

    rng = _random.Random(seed)
    n = backend.n
    lo, hi = window.support(window.guard)
    coch_modes = [(i, k) for k in range(1, hi + 1) for i in range(n)]
    basis = check_basis(backend, window, window.guard, max_energy,
                        cap=700 if _small(backend) else 60)
    err = 0.0

    def eps_wedge(ws, vec):
        for mode in reversed(ws):
            vec = apply_eps(backend, mode, vec, window)
        return vec

    for _ in range(trials):
        p = rng.choice([1, 2])
        alpha = tuple(sorted(rng.sample(coch_modes, p), key=_mode_key))
        omega_mons = rng.sample(basis, min(3, len(basis)))
        omega = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in omega_mons}

        lhs = apply_d(backend, eps_wedge(alpha, omega), window)
        rhs: FockVector = {}
        sign = -1.0 if p % 2 else 1.0
        for m, c in _apply_monowise(lambda mm: _d_monomial(backend, mm, window, False), omega).items():
            for m2, c2 in eps_wedge(alpha, {m: c}).items():
                _accumulate(rhs, m2, sign * c2)
        for dwedge, c in _ambient_differential(backend, alpha, window).items():
            for m2, c2 in eps_wedge(dwedge, omega).items():
                _accumulate(rhs, m2, c * c2)
        err = max(err, _vector_error(lhs, rhs))
    return IdentityVerdict("leibniz_rule", window, err, err <= tol, vectors=trials)


def d_squared_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                    max_energy: int = 3) -> IdentityVerdict:
    """d^2 = sum_{k>0,i} 2c k eps^{i,k} eps^{i,-k}, compared column by column:
    d(d(c)) against the closed form on each guarded column c."""
    if window.guard < 1:
        return _skip("d_squared_closed_form", window, "window guard < 1")
    if not _small(backend):
        max_energy = min(max_energy, 2)
    cols = check_basis(backend, window, window.guard, max_energy,
                       cap=600 if _small(backend) else 30)
    n = backend.n

    def d(m):
        return _d_monomial(backend, m, window, False)

    err = 0.0
    for mono in cols:
        rhs: FockVector = {}
        for k in range(1, min(window.kMax, -window.kMin) + 1):
            for i in range(n):
                low = eps_monomial(n, (i, -k), mono)
                if low is None:
                    continue
                high = eps_monomial(n, (i, k), low[1])
                if high is None:
                    continue
                _accumulate(rhs, high[1], 2.0 * backend.coxeter * k * low[0] * high[0])
        err = max(err, _vector_error(_apply_monowise(d, d(mono)), rhs))
    return IdentityVerdict("d_squared_closed_form", window, err, err <= tol, vectors=len(cols))


def laplacian_formula_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                            max_energy: int = 3) -> IdentityVerdict:
    """[d, dtilde*]+ = -sum_{k>0} ck eps^{i,k} iota_{i,k}
    - sum_{k<0} ck iota_{i,k} eps^{i,k} + 1/2 sum_i L_{i,0}^2, compared
    column by column: d(dtilde* c) + dtilde*(d c) against the closed form on
    each guarded column c."""
    if window.guard < 1:
        return _skip("laplacian_closed_form", window, "window guard < 1")
    if not _small(backend):
        max_energy = min(max_energy, 2)
    cols = check_basis(backend, window, window.guard, max_energy,
                       cap=600 if _small(backend) else 30)

    def d(m):
        return _d_monomial(backend, m, window, False)

    def dstar(m):
        return _dstar_monomial(backend, m, window)

    err = 0.0
    for mono in cols:
        lhs = _apply_monowise(d, dstar(mono))
        for m, c in _apply_monowise(dstar, d(mono)).items():
            _accumulate(lhs, m, c)
        err = max(err, _vector_error(lhs, _closed_form_monomial(backend, mono, window)))
    return IdentityVerdict("laplacian_closed_form", window, err, err <= tol, vectors=len(cols))


def _closed_form_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial,
                          window: EnergyWindow) -> FockVector:
    n = backend.n
    out: FockVector = {}
    c = float(backend.coxeter)
    for k in range(1, window.kMax + 1):
        for i in range(n):
            hit = iota_monomial(n, (i, k), mono)
            if hit is None:
                continue
            back = eps_monomial(n, (i, k), hit[1])
            if back is None:
                continue
            _accumulate(out, back[1], -c * k * hit[0] * back[0])
    for k in range(window.kMin, 0):
        for i in range(n):
            hit = eps_monomial(n, (i, k), mono)
            if hit is None:
                continue
            back = iota_monomial(n, (i, k), hit[1])
            if back is None:
                continue
            _accumulate(out, back[1], -c * k * hit[0] * back[0])
    for i in range(n):
        once = _L_monomial(backend, i, 0, mono, window)
        for m1, c1 in once.items():
            for m2, c2 in _L_monomial(backend, i, 0, m1, window).items():
                _accumulate(out, m2, 0.5 * c1 * c2)
    return out


def dtilde_adjoint_matrix_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                                max_energy: int = 3, block_cap: int = 800) -> IdentityVerdict:
    """The operator dtilde* equals the transpose of the dtilde matrix on
    each energy block of in-window monomials (monomials orthonormal for
    the bilinear pairing; conjugating too would flip the sign): every
    entry dtilde*(c)[r] is compared with dtilde(r)[c].

    Transposition needs whole blocks, so blocks beyond ``block_cap`` are
    left out rather than truncated; if none fit the check is skipped."""
    if window.guard < 1:
        return _skip("dtilde_adjoint_is_matrix_transpose", window, "window guard < 1")
    if not _small(backend):
        max_energy = min(max_energy, 1)
    allmon = monomials_in_support(backend, window, 0, max_energy)
    err = 0.0
    count = 0
    for energy in sorted({m.energy for m in allmon}):
        block = [m for m in allmon if m.energy == energy]
        if len(block) > block_cap:
            continue
        count += len(block)
        members = set(block)
        transposed: Dict[SemiInfMonomial, FockVector] = {m: {} for m in block}
        for row in block:
            for col, val in _d_monomial(backend, row, window, True).items():
                if col not in members:
                    raise InvariantError(f"dtilde leaves the energy-{energy} block")
                transposed[col][row] = val
        for col in block:
            ds = _dstar_monomial(backend, col, window)
            if not members.issuperset(ds):
                raise InvariantError(f"dtilde* leaves the energy-{energy} block")
            err = max(err, _vector_error(ds, transposed[col]))
    if count == 0:
        return _skip("dtilde_adjoint_is_matrix_transpose", window,
                     f"every energy block exceeds {block_cap} monomials")
    return IdentityVerdict("dtilde_adjoint_is_matrix_transpose", window, err, err <= tol, vectors=count)


def d_matches_cochain_check(backend: OrthonormalBackend, window: EnergyWindow, tol: float,
                            max_degree: int = 2, max_k: int = 3) -> IdentityVerdict:
    """d(eps(alpha) Omega) = eps(d_CE alpha) Omega for cochain wedges from
    the exact pipeline, mapped through the orthonormalizing basis change."""
    if window.guard < 1:
        return _skip("d_restricts_to_chevalley_eilenberg", window, "window guard < 1")
    data = backend.data
    max_k = min(max_k, window.kMax - window.guard)
    err = 0.0
    count = 0
    col_cap = None if _small(backend) else 6
    for k in range(1, max_k + 1):
        for p in range(1, min(max_degree, k) + 1):
            block = differential_block(data, p, k)
            for col, wedge in enumerate(block.basisIn.monomials[:col_cap]):
                v = _embed_cochain_wedge(backend, wedge, window)
                lhs = apply_d(backend, v, window)
                rhs: FockVector = {}
                for (row, c_), val in block.dMatrix.items():
                    if c_ != col:
                        continue
                    out_wedge = block.basisOut.monomials[row]
                    for m, c2 in _embed_cochain_wedge(backend, out_wedge, window).items():
                        _accumulate(rhs, m, val * c2)
                err = max(err, _vector_error(lhs, rhs))
                count += 1
    return IdentityVerdict("d_restricts_to_chevalley_eilenberg", window, err, err <= tol, vectors=count)


def _embed_cochain_wedge(backend: OrthonormalBackend, wedge, window: EnergyWindow) -> FockVector:
    """Map a Chevalley-dual wedge (ascending (level, index) modes) to the
    orthonormal mode basis and apply it to the vacuum."""
    B = backend.basis_matrix
    v = vacuum(window)
    for level, a in reversed(wedge):
        new: FockVector = {}
        for b in range(backend.n):
            coef = B[a, b]
            if abs(coef) < 1e-14:
                continue
            for m, c in apply_eps(backend, (b, level), v, window).items():
                _accumulate(new, m, coef * c)
        v = new
    return v


def verify_identity_suite(data: AlgebraData, window: EnergyWindow, tolerance: float = 1e-9,
                          cocycle_modes: Sequence[Tuple[int, int, int]] | None = None
                          ) -> List[IdentityVerdict]:
    """Run the full operator identity suite; skipped checks carry reasons."""
    backend = OrthonormalBackend(data)
    out = [
        vacuum_checks(backend, window, tolerance),
        clifford_check(backend, window, tolerance),
        energy_bookkeeping_check(backend, window, tolerance),
        commutator_check(backend, window, tolerance),
        l0_commutes_with_d_check(backend, window, tolerance),
        leibniz_check(backend, window, tolerance),
        d_matches_cochain_check(backend, window, tolerance),
        d_squared_check(backend, window, tolerance),
        laplacian_formula_check(backend, window, tolerance),
        dtilde_adjoint_matrix_check(backend, window, tolerance),
    ]
    modes = cocycle_modes
    if modes is None:
        modes = [(0, 0, 1), (0, 0, 0), (0, min(1, data.dim - 1), 1)]
    for i, j, k in modes:
        _, verdict = cocycle_check(backend, i, j, k, window, tolerance)
        out.append(verdict)
    return out
