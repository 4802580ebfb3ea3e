"""Windowed semi-infinite forms and the operator identity suite.

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

The backend works over a complex basis of the algebra that is
orthonormal simultaneously for the scaled Killing form and for the
compact-involution metric: Gram-Schmidt is applied to the hermGram
within each eigenspace of the involution and the fixed-space vectors are
multiplied by i.  In this basis the structure constants are totally
antisymmetric (and purely imaginary), which is exactly the setting in
which the closed-form operator identities hold with delta_ij weights.
numpy is imported only in ``OrthonormalBackend.__init__``, which builds
this frame, so importing the module (as the exact route does) loads the
standard library alone.

The adjoint of the twisted differential is the transpose of its matrix
over the monomial basis: the basis is orthonormal for the complex
bilinear pairing, and conjugating as well would flip the sign of the
closed-form Laplacian.  Operator form: dtilde* = -1/2 sum s_k iota_{i,k}
L_{i,-k}, which a dedicated check compares against the matrix transpose.

All identity checks quantify over explicit finite sets of monomials whose
support keeps enough margin from the window edge that truncation is
exact; each check declares the minimum window guard it needs and emits a
skip verdict below that, or when its guarded support holds only the
vacuum, never a silent pass.

A backend is one algebra on one energy window, so no operator, check or
enumeration takes a window of its own.  Every operator is a column
function (one monomial to a sparse vector); ``_apply`` takes it to a
vector, and ``_combine`` forms each lhs - rhs.  The columns of L_{i,k},
d or dtilde and dtilde* are memoised on the backend, one dict per
operator (read-only).  ``_L_monomial``, under all of them, does its two
single-mode steps per (s, p, q) inline on the masks; the Clifford and
commutator checks push single monomials and columns through
``eps_monomial``/``iota_monomial``.  The quantifier sets of
``check_basis`` are built one energy shell at a time in (energy, label)
order, only up to the shell that reaches their cap, and are memoised on
the backend keyed by margin, energy cap, particle cap and cap.
``verify_identity_suite`` builds one backend per call, so the memo lives
as long as one suite run.  The matrix identities (d^2, the Laplacian,
the transpose of dtilde) are checked column by column from these
columns; no dense matrix is formed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial, wraps
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .cochain import InvariantError, differential_block
from .liealg import AlgebraData

ModeIndex = Tuple[int, int]  # (i, k): basis index, Fourier degree
Mode = ModeIndex
SemiInfMonomial = Tuple[int, int]  # (added, removed) bitmasks
FockVector = Dict[SemiInfMonomial, complex]
Column = Callable[[SemiInfMonomial], Mapping[SemiInfMonomial, complex]]


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


def _accumulate(out: FockVector, mono: SemiInfMonomial, coeff: complex):
    new = out.get(mono, 0j) + coeff
    if abs(new) < 1e-14:
        out.pop(mono, None)
    else:
        out[mono] = new


def _apply(column: Column, v: Mapping[SemiInfMonomial, complex]) -> FockVector:
    """sum_m v[m] * column(m): an operator, given by its columns, on a vector."""
    out: FockVector = {}
    for mono, coeff in v.items():
        for m2, c2 in column(mono).items():
            _accumulate(out, m2, coeff * c2)
    return out


def _combine(*terms: Tuple[complex, Mapping[SemiInfMonomial, complex]]) -> FockVector:
    """sum coeff * vec over the (coeff, vec) terms."""
    out: FockVector = {}
    for coeff, vec in terms:
        for mono, c in vec.items():
            _accumulate(out, mono, coeff * c)
    return out


class OrthonormalBackend:
    """Complex orthonormal basis and structure constants for one algebra,
    and the memoised operators on one energy window."""

    def __init__(self, data: AlgebraData, window: EnergyWindow):
        import numpy as np

        self.data = data
        self.window = window
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
        # operator name -> {(*params, monomial): read-only column}
        self.columns: Dict[str, Dict[tuple, Mapping[SemiInfMonomial, complex]]] = defaultdict(dict)
        self.bases: Dict[Tuple[int, int | None, int | None, int | None], Tuple[SemiInfMonomial, ...]] = {}


_EMPTY: Mapping[SemiInfMonomial, complex] = MappingProxyType({})


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


def vacuum() -> FockVector:
    return {VACUUM: 1.0 + 0j}


def _apply_mode(step, backend: OrthonormalBackend, mode: Mode, v: FockVector) -> FockVector:
    window = backend.window
    if not window.contains(mode[1]):
        raise WindowViolation(f"mode {mode} outside window [{window.kMin}, {window.kMax}]")
    out: FockVector = {}
    for mono, coeff in v.items():
        hit = step(backend.n, mode, mono)
        if hit:
            _accumulate(out, hit[1], hit[0] * coeff)
    return out


def apply_eps(backend: OrthonormalBackend, mode: Mode, v: FockVector) -> FockVector:
    return _apply_mode(eps_monomial, backend, mode, v)


def apply_iota(backend: OrthonormalBackend, mode: Mode, v: FockVector) -> FockVector:
    return _apply_mode(iota_monomial, backend, mode, v)


@_memo_column
def _L_monomial(backend: OrthonormalBackend, i: int, k: int, mono: SemiInfMonomial) -> FockVector:
    """L_{i,k} = sum_s C_{iq}^p :iota_{p,s} eps^{q,s-k}: with both modes in
    the window; normal ordering puts iota first for s <= 0 and -eps iota
    for s > 0 (operator products act right to left).

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
            # eps^{q,t} first, then iota_{p,s} on the removed side, coefficient +C
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
                new = out.get(target, 0j) + (-cval if parity & 1 else cval)
                if abs(new) < 1e-14:
                    out.pop(target, None)
                else:
                    out[target] = new
        else:
            # iota_{p,s} first on the added side, then eps^{q,t}, coefficient -C
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
                new = out.get(target, 0j) + (cval if parity & 1 else -cval)
                if abs(new) < 1e-14:
                    out.pop(target, None)
                else:
                    out[target] = new
    return out


def _require_guarded(backend: OrthonormalBackend, v: FockVector, margin: int, what: str):
    lo, hi = backend.window.support(margin)
    n = backend.n
    for added, removed in v:
        top = (added.bit_length() - 1) // n + 1  # highest added level
        if added and top > hi:
            raise GuardViolation(f"{what}: added mode at level {top} outside guarded [{lo},{hi}]")
        bottom = -((removed.bit_length() - 1) // n)  # lowest removed level
        if removed and bottom < lo:
            raise GuardViolation(f"{what}: removed mode at level {bottom} outside guarded [{lo},{hi}]")


def apply_L(backend: OrthonormalBackend, i: int, k: int, v: FockVector) -> FockVector:
    """Coadjoint-type mode action; the input must keep margin |k| from the
    window edge so that the truncated mode sum is exact."""
    _require_guarded(backend, v, abs(k), f"L_({i},{k})")
    return _apply(partial(_L_monomial, backend, i, k), v)


@_memo_column
def _d_monomial(backend: OrthonormalBackend, twisted: bool, mono: SemiInfMonomial) -> FockVector:
    """d (or dtilde if ``twisted``) of one monomial."""
    n = backend.n
    out: FockVector = {}
    for k in range(backend.window.kMin, backend.window.kMax + 1):
        sk = -1.0 if twisted and k <= 0 else 1.0
        for i in range(n):
            headstart = eps_monomial(n, (i, k), mono)
            if headstart is None:
                continue
            sgn, inner = headstart
            for m2, c2 in _L_monomial(backend, i, k, inner).items():
                _accumulate(out, m2, 0.5 * sk * sgn * c2)
    return out


def apply_d(backend: OrthonormalBackend, v: FockVector) -> FockVector:
    """d = 1/2 sum_{i,k} L_{i,k} eps^{i,k}, windowed."""
    return _apply(partial(_d_monomial, backend, False), v)


def apply_d_twisted(backend: OrthonormalBackend, v: FockVector) -> FockVector:
    """dtilde: the k <= 0 terms of d enter with a minus sign."""
    return _apply(partial(_d_monomial, backend, True), v)


@_memo_column
def _dstar_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial) -> FockVector:
    """dtilde* = -1/2 sum_{i,k} s_k iota_{i,k} L_{i,-k}: transpose of dtilde
    over the bilinear-orthonormal monomial basis."""
    n = backend.n
    out: FockVector = {}
    for k in range(backend.window.kMin, backend.window.kMax + 1):
        sk = 1.0 if k > 0 else -1.0
        for i in range(n):
            for m1, c1 in _L_monomial(backend, i, -k, mono).items():
                hit = iota_monomial(n, (i, k), m1)
                if hit is None:
                    continue
                _accumulate(out, hit[1], -0.5 * sk * c1 * hit[0])
    return out


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
    max_abs_error: float | None
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


def _skip(backend: OrthonormalBackend, name: str, reason: str) -> IdentityVerdict:
    return IdentityVerdict(name, backend.window, None, passed=False, skipped=True, reason=reason)


def _skip_vacuum_only(backend: OrthonormalBackend, name: str, margin: int) -> IdentityVerdict:
    """The verdict of a check whose quantifier set is the vacuum alone: the
    window shrunk by ``margin`` holds no mode, so nothing is compared."""
    return _skip(backend, name, f"guarded support for margin {margin} holds only the vacuum")


def _vector_error(a: Mapping[SemiInfMonomial, complex], b: Mapping[SemiInfMonomial, complex]) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(m, 0j) - b.get(m, 0j)) for m in keys), default=0.0)


def clifford_check(backend: OrthonormalBackend, tol: float, max_energy: int = 3) -> IdentityVerdict:
    """[iota, eps]+ = delta * delta, squares vanish, on windowed monomials."""
    n, window = backend.n, backend.window
    if not _small(backend):
        max_energy = min(max_energy, 2)
    basis = check_basis(backend, window.guard, max_energy, cap=700 if _small(backend) else 60)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "clifford_relations", window.guard)
    modes = [(i, k) for k in range(window.kMin, window.kMax + 1) for i in range(n)]
    modes = sorted(modes, key=lambda m: (abs(m[1]), m[1], m[0]))[:24]
    err = 0.0
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
    return IdentityVerdict("clifford_relations", window, err, err <= tol, vectors=len(basis))


def commutator_check(backend: OrthonormalBackend, tol: float, max_energy: int = 4) -> IdentityVerdict:
    """[iota_{j,m}, L_{i,k}] = -sum_p C_{ij}^p iota_{p,m+k} and the
    eps analogue [eps^{j,m}, L_{i,k}] = sum_q C_{iq}^j eps^{q,m-k}."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "mode_action_commutators", "window guard < 1 (shift-1 operators)")
    n, C = backend.n, backend.C
    err = 0.0
    count = 0
    for k in range(-window.guard, window.guard + 1):
        margin = max(abs(k), 1)
        modes = [m for m in range(window.kMin + margin, window.kMax - margin + 1)
                 if window.contains(m + k) and window.contains(m - k)]
        if not modes:
            continue  # no mode level to act with: this shift compares nothing
        basis = check_basis(backend, margin + 1, max_energy, cap=300 if _small(backend) else 24)
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
                            (iota_monomial, [(-C[i, j, p], (p, m + k)) for p in range(n)]),
                            (eps_monomial, [(C[i, q, j], (q, m - k)) for q in range(n)]),
                        ):
                            # lhs = step(L mono) - L(step mono), expected = sum cv step_mode(mono)
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
                                hit = step(n, mode, mono) if abs(cv) > 1e-12 else None
                                if hit:
                                    _accumulate(expected, hit[1], cv * hit[0])
                            err = max(err, _vector_error(lhs, expected))
    if not count:
        return _skip(backend, "mode_action_commutators", "no mode level m has m - k and m + k in the window")
    return IdentityVerdict("mode_action_commutators", window, err, err <= tol, vectors=count)


def cocycle_check(backend: OrthonormalBackend, i: int, j: int, k: int, tol: float = 1e-9,
                  max_energy: int = 3) -> Tuple[complex, IdentityVerdict]:
    """Central scalar of [L_{i,k}, L_{j,-k}] - L([e_{i,k}, e_{j,-k}]).

    Contract: 2c * k * delta_ij in the orthonormal backend.  Requires
    window guard >= |k| (the product needs margin 2|k|, taken internally).
    """
    name = f"cocycle_L({i},{k})_L({j},{-k})"
    window = backend.window
    if window.guard < abs(k):
        return 0j, _skip(backend, name, f"window guard {window.guard} < |k| = {abs(k)}")
    margin = max(2 * abs(k), window.guard)
    lo, hi = window.support(margin)
    if lo > 0 or hi < 1:
        return 0j, _skip(backend, name, "guarded support for margin 2|k| is empty")
    basis = check_basis(backend, margin, max_energy, cap=400 if _small(backend) else 40)
    Li, Lj = partial(_L_monomial, backend, i, k), partial(_L_monomial, backend, j, -k)

    diag: List[complex] = []
    err = 0.0
    expected = 2.0 * backend.coxeter * k * (1.0 if i == j else 0.0)
    for mono in basis:
        comm = _combine(
            (1, _apply(Li, Lj(mono))),
            (-1, _apply(Lj, Li(mono))),
            *((-cv, _L_monomial(backend, p, 0, mono))
              for p, cv in enumerate(backend.C[i, j]) if abs(cv) > 1e-12),
        )
        diag.append(comm.get(mono, 0j))
        err = max(err, _vector_error(comm, {mono: expected + 0j}))
    measured = sum(diag) / len(diag) if diag else 0j
    verdict = IdentityVerdict(name, window, err, err <= tol, vectors=len(basis))
    return measured, verdict


def vacuum_checks(backend: OrthonormalBackend, tol: float) -> IdentityVerdict:
    """iota_{i,k>0} Omega = 0, eps^{i,k<=0} Omega = 0, L_{i,k>=0} Omega = 0,
    d Omega = 0."""
    v = vacuum()
    window = backend.window
    err = 0.0
    for k in range(window.kMin, window.kMax + 1):
        for i in range(backend.n):
            if k > 0:
                err = max(err, _vector_error(apply_iota(backend, (i, k), v), {}))
                err = max(err, _vector_error(_L_monomial(backend, i, k, VACUUM), {}))
            else:
                err = max(err, _vector_error(apply_eps(backend, (i, k), v), {}))
    err = max(err, _vector_error(_L_monomial(backend, 0, 0, VACUUM), {}))
    err = max(err, _vector_error(apply_d(backend, v), {}))
    err = max(err, _vector_error(apply_d_twisted(backend, v), {}))
    return IdentityVerdict("vacuum_annihilation", window, err, err <= tol, vectors=1)


def energy_bookkeeping_check(backend: OrthonormalBackend, tol: float, max_energy: int = 4) -> IdentityVerdict:
    """iota shifts energy by -k, eps by +k, L by -k, d and dtilde by 0."""
    n, window = backend.n, backend.window
    basis = check_basis(backend, max(window.guard, 1), max_energy, cap=1100 if _small(backend) else 40)
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
    return IdentityVerdict("energy_bookkeeping", window, float(bad), bad == 0, vectors=len(basis))


def l0_commutes_with_d_check(backend: OrthonormalBackend, tol: float, max_energy: int = 4) -> IdentityVerdict:
    if backend.window.guard < 1:
        return _skip(backend, "L0_commutes_with_d", "window guard < 1")
    basis = check_basis(backend, backend.window.guard, max_energy, cap=1100 if _small(backend) else 12)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "L0_commutes_with_d", backend.window.guard)
    d = partial(_d_monomial, backend, False)
    err = 0.0
    gens = range(backend.n) if _small(backend) else range(0, backend.n, max(1, backend.n // 4))
    for mono in basis:
        for i in gens:
            L0 = partial(_L_monomial, backend, i, 0)
            err = max(err, _vector_error(_apply(d, L0(mono)), _apply(L0, d(mono))))
    return IdentityVerdict("L0_commutes_with_d", backend.window, err, err <= tol, vectors=len(basis))


def _ambient_differential(backend: OrthonormalBackend, wedge: Tuple[Mode, ...]) -> Dict[Tuple[Mode, ...], complex]:
    """CE differential of a wedge of dual modes over the full mode algebra
    (all window levels, negative included), as wedges sorted by mode order."""
    n, window = backend.n, backend.window
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


def leibniz_check(backend: OrthonormalBackend, tol: float, seed: int = 11, trials: int = 12,
                  max_energy: int = 4) -> IdentityVerdict:
    """d(alpha ^ omega) = d(alpha) ^ omega + (-1)^p alpha ^ d(omega) for
    cochain wedges alpha and random guarded vectors omega; d(alpha) is the
    full-algebra differential computed independently from the structure
    constants (its negative-mode terms act on monomials with holes)."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "leibniz_rule", "window guard < 1")
    import random as _random

    rng = _random.Random(seed)
    n = backend.n
    lo, hi = window.support(window.guard)
    coch_modes = [(i, k) for k in range(1, hi + 1) for i in range(n)]
    if not coch_modes:
        return _skip(backend, "leibniz_rule", f"no cochain mode: kMax - guard = {hi} < 1")
    basis = check_basis(backend, window.guard, max_energy, cap=700 if _small(backend) else 60)
    err = 0.0

    def eps_wedge(ws, vec):
        for mode in reversed(ws):
            vec = apply_eps(backend, mode, vec)
        return vec

    for _ in range(trials):
        p = rng.choice([1, 2])
        alpha = tuple(sorted(rng.sample(coch_modes, p), key=_mode_key))
        omega_mons = rng.sample(basis, min(3, len(basis)))
        omega = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in omega_mons}

        lhs = apply_d(backend, eps_wedge(alpha, omega))
        rhs = _combine(
            (-1.0 if p % 2 else 1.0, eps_wedge(alpha, apply_d(backend, omega))),
            *((c, eps_wedge(dwedge, omega)) for dwedge, c in _ambient_differential(backend, alpha).items()),
        )
        err = max(err, _vector_error(lhs, rhs))
    return IdentityVerdict("leibniz_rule", window, err, err <= tol, vectors=trials)


def d_squared_check(backend: OrthonormalBackend, tol: float, max_energy: int = 3) -> IdentityVerdict:
    """d^2 = sum_{k>0,i} 2c k eps^{i,k} eps^{i,-k}, compared column by column:
    d(d(c)) against the closed form on each guarded column c."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "d_squared_closed_form", "window guard < 1")
    if not _small(backend):
        max_energy = min(max_energy, 2)
    cols = check_basis(backend, window.guard, max_energy, cap=600 if _small(backend) else 30)
    if cols == [VACUUM]:
        return _skip_vacuum_only(backend, "d_squared_closed_form", window.guard)
    n = backend.n
    d = partial(_d_monomial, backend, False)
    err = 0.0
    for mono in cols:
        rhs: FockVector = {}
        for k in range(1, min(window.kMax, -window.kMin) + 1):
            for i in range(n):
                hit = _then(n, eps_monomial, (i, k), eps_monomial(n, (i, -k), mono))
                if hit:
                    _accumulate(rhs, hit[1], 2.0 * backend.coxeter * k * hit[0])
        err = max(err, _vector_error(_apply(d, d(mono)), rhs))
    return IdentityVerdict("d_squared_closed_form", window, err, err <= tol, vectors=len(cols))


def laplacian_formula_check(backend: OrthonormalBackend, tol: float, max_energy: int = 3) -> IdentityVerdict:
    """[d, dtilde*]+ = -sum_{k>0} ck eps^{i,k} iota_{i,k}
    - sum_{k<0} ck iota_{i,k} eps^{i,k} + 1/2 sum_i L_{i,0}^2, compared
    column by column: d(dtilde* c) + dtilde*(d c) against the closed form on
    each guarded column c."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "laplacian_closed_form", "window guard < 1")
    if not _small(backend):
        max_energy = min(max_energy, 2)
    cols = check_basis(backend, window.guard, max_energy, cap=600 if _small(backend) else 30)
    if cols == [VACUUM]:
        return _skip_vacuum_only(backend, "laplacian_closed_form", window.guard)
    d = partial(_d_monomial, backend, False)
    dstar = partial(_dstar_monomial, backend)
    err = 0.0
    for mono in cols:
        lhs = _combine((1, _apply(d, dstar(mono))), (1, _apply(dstar, d(mono))))
        err = max(err, _vector_error(lhs, _closed_form_monomial(backend, mono)))
    return IdentityVerdict("laplacian_closed_form", window, err, err <= tol, vectors=len(cols))


def _closed_form_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial) -> FockVector:
    n, window = backend.n, backend.window
    out: FockVector = {}
    c = float(backend.coxeter)
    for k in range(window.kMin, window.kMax + 1):
        # eps^{i,k} iota_{i,k} for k > 0, iota_{i,k} eps^{i,k} for k < 0
        if k == 0:
            continue
        outer, inner = (eps_monomial, iota_monomial) if k > 0 else (iota_monomial, eps_monomial)
        for i in range(n):
            hit = _then(n, outer, (i, k), inner(n, (i, k), mono))
            if hit:
                _accumulate(out, hit[1], -c * k * hit[0])
    for i in range(n):
        for m1, c1 in _L_monomial(backend, i, 0, mono).items():
            for m2, c2 in _L_monomial(backend, i, 0, m1).items():
                _accumulate(out, m2, 0.5 * c1 * c2)
    return out


def dtilde_adjoint_matrix_check(backend: OrthonormalBackend, tol: float, max_energy: int = 3,
                                block_cap: int = 800) -> IdentityVerdict:
    """The operator dtilde* equals the transpose of the dtilde matrix on
    each energy block of in-window monomials (monomials orthonormal for
    the bilinear pairing; conjugating too would flip the sign): every
    entry dtilde*(c)[r] is compared with dtilde(r)[c].

    Transposition needs whole blocks, so blocks beyond ``block_cap`` are
    left out rather than truncated; if none fit the check is skipped."""
    name = "dtilde_adjoint_is_matrix_transpose"
    if backend.window.guard < 1:
        return _skip(backend, name, "window guard < 1")
    if not _small(backend):
        max_energy = min(max_energy, 1)
    allmon = monomials_in_support(backend, 0, max_energy)
    err = 0.0
    count = 0
    energies = {m: energy(backend.n, m) for m in allmon}
    for e in sorted(set(energies.values())):
        block = [m for m in allmon if energies[m] == e]
        if len(block) > block_cap:
            continue
        count += len(block)
        members = set(block)
        transposed: Dict[SemiInfMonomial, FockVector] = {m: {} for m in block}
        for row in block:
            for col, val in _d_monomial(backend, True, row).items():
                if col not in members:
                    raise InvariantError(f"dtilde leaves the energy-{e} block")
                transposed[col][row] = val
        for col in block:
            ds = _dstar_monomial(backend, col)
            if not members.issuperset(ds):
                raise InvariantError(f"dtilde* leaves the energy-{e} block")
            err = max(err, _vector_error(ds, transposed[col]))
    if count == 0:
        return _skip(backend, name, f"every energy block exceeds {block_cap} monomials")
    return IdentityVerdict(name, backend.window, err, err <= tol, vectors=count)


def d_matches_cochain_check(backend: OrthonormalBackend, tol: float, max_degree: int = 2,
                            max_k: int = 3) -> IdentityVerdict:
    """d(eps(alpha) Omega) = eps(d_CE alpha) Omega for cochain wedges from
    the exact pipeline, mapped through the orthonormalizing basis change."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "d_restricts_to_chevalley_eilenberg", "window guard < 1")
    max_k = min(max_k, window.kMax - window.guard)
    if max_k < 1:
        return _skip(backend, "d_restricts_to_chevalley_eilenberg", f"no cochain level: kMax - guard = {max_k} < 1")
    err = 0.0
    count = 0
    col_cap = None if _small(backend) else 6
    for k in range(1, max_k + 1):
        for p in range(1, min(max_degree, k) + 1):
            block = differential_block(backend.data, p, k)
            for col, wedge in enumerate(block.basisIn.monomials[:col_cap]):
                lhs = apply_d(backend, _embed_cochain_wedge(backend, wedge))
                rhs = _combine(*((val, _embed_cochain_wedge(backend, block.basisOut.monomials[row]))
                                 for (row, c_), val in block.dMatrix.items() if c_ == col))
                err = max(err, _vector_error(lhs, rhs))
                count += 1
    return IdentityVerdict("d_restricts_to_chevalley_eilenberg", window, err, err <= tol, vectors=count)


def _embed_cochain_wedge(backend: OrthonormalBackend, wedge) -> FockVector:
    """Map a Chevalley-dual wedge (ascending (level, index) modes) to the
    orthonormal mode basis and apply it to the vacuum."""
    B = backend.basis_matrix
    v = vacuum()
    for level, a in reversed(wedge):
        v = _combine(*((B[a, b], apply_eps(backend, (b, level), v))
                       for b in range(backend.n) if abs(B[a, b]) >= 1e-14))
    return v


def verify_identity_suite(data: AlgebraData, window: EnergyWindow, tolerance: float = 1e-9,
                          cocycle_modes: Sequence[Tuple[int, int, int]] | None = None
                          ) -> List[IdentityVerdict]:
    """Run the full operator identity suite; skipped checks carry reasons."""
    backend = OrthonormalBackend(data, window)
    out = [
        check(backend, tolerance)
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
    modes = cocycle_modes
    if modes is None:
        modes = [(0, 0, 1), (0, 0, 0), (0, min(1, data.dim - 1), 1)]
    for i, j, k in modes:
        _, verdict = cocycle_check(backend, i, j, k, tolerance)
        out.append(verdict)
    return out
