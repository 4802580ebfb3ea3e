"""Windowed semi-infinite forms and the exact operator identity suite.

Only the ``verify-identities`` command loads this module, which reads only
``liealg`` (the ``IntAlgebra``, its coadjoint table and ``EnergyWindow``)
and ``cochain`` (the exact blocks d is compared with, and ``split_mode``,
the splitting rule ``leibniz_check`` builds d(alpha) from) of the package.

A semi-infinite monomial is a wedge of dual modes e^{i,k} that agrees
with the standard vacuum tail for k << 0; it is encoded by the finitely
many modes added above the vacuum (k >= 1) and removed from it (k <= 0).
Wedges are kept in descending mode order (the order in which the vacuum
is written), with sign bookkeeping folded into coefficients.

A monomial is one int: for a basis of dimension n on the window [kMin,
kMax], the removed mode (i, k <= 0) sits at bit b = (-k)*n + (n-1-i) and
the added mode (i, k >= 1) at bit off + (k-1)*n + i, with off = n*(1 -
kMin) the backend's ``off``; so the monomial is ``removed | added <<
off``.  Bits descend with the mode order (k, i) on the removed side and
ascend with it on the added side, so b is also the number of vacuum modes
above (i, k).  Membership, insertion and removal are single bit
operations, and a monomial hashes as one int.  ``encode_monomial`` and
``decode_monomial`` convert between ints and mode tuples, and ``energy``
reads the int.  The added bits are those of the exact core's cochain
monomials (``cochain``: bit (level - 1)*n + i is e^{i,level}) shifted by
off, so a cochain monomial m is the Fock monomial ``m << off``, and
eps(m) Omega = (-1)^(p(p-1)/2) (m << off) for one of degree p.

Every single-mode step reads one row of the backend's step table
(``steps``): eps or iota on a mode flips its bit if the bit is in the
state the step needs, with the sign (-1)^(popcount(mono & mask) + c),
where mask and c count the modes of the wedge in front of it.  On an
added mode the mask holds the bits above it and c = 0.  In front of a
removed mode sit the added modes and the b vacuum modes above it less
their holes, so the mask holds the added bits and the removed bits below
b, and c = b mod 2.  ``_eps``/``_iota`` give a mode's (bit, need, mask,
c) row and ``_step`` applies one.  ``_run_moves`` runs every move table,
rows of two steps with (-1)^(c1 + c2) in the coefficient (``_two_steps``):
L_{i,k}'s (``_moves``) and the two-step parts of the closed forms of d^2
(per check call) and of the Laplacian (``number_moves``, per backend).

The backend reads every int from the ``liealg.IntAlgebra`` the exact core
also uses, in the basis of ``liealg.orthogonal_cartan``.  There the
invariant form G = ``gram`` (the Killing form over 2c) and G^-1 have one
nonzero entry per row: e_alpha pairs with f_alpha and each Cartan vector
with itself.  The structure constants f_{iq}^p, G and G^-1 are ints over
the scales s, g and e, and every operator column holds ints over one
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
exact, and over every generator, window mode and cochain column they
name; only the monomial sets are capped.  Each is a prefix of its
monomials in (energy, monomial int) order, but for the pool that
``leibniz_check`` draws seeded random wedges from, which holds a prefix
of each energy shell.  Each check declares the minimum window guard it
needs and emits a skip verdict below that, or when its guarded support
holds only the vacuum, never a silent pass.  One check passes on the
vacuum alone: ``commutator_check`` takes its monomials at shift k with
margin max(|k|, 1) + 1, which on A2, B2 and G2 [-1,2] guard 1 leaves only
the vacuum at every shift, yet it still acts there with the steps at each
mode level of the window, so it passes with one vector per shift.

A backend is one algebra on one energy window, so no operator, check or
enumeration takes a window of its own.  Operators exist only as column
functions: one monomial to its column, the flat tuple (m1, c1, m2, c2,
...) of its nonzero int entries, or the shared () when there are none.
``_pairs`` reads a column back as (monomial, coefficient) pairs, and
``_apply`` adds an operator, given by its column function, applied to
such pairs into a vector (a dict).  Each check subtracts its right side
into the vector of its left side and compares that one residual, lhs -
rhs, with 0.  The columns of L_{i,k}, d, dtilde and dtilde* are memoised
on the backend, one ``_Memo`` per operator (``OrthonormalBackend``); a
check binds each memo it reads once, before its loop, so an operator set
on the backend in a memo's place is the one it reads.  A miss is one call
of a kernel bound to tables built once from the backend, never to the
backend itself, so a backend and its memos are freed by reference
counting alone: ``_run_moves`` on the move table of L_{i,k}, ``_d_pair``
on the terms of d and dtilde, which one pass builds together
(``_TwinMemo``), and ``_run_dstar`` on those of dtilde*, which runs per
term only the moves whose outputs iota keeps (``_dstar_rows``); d and
dtilde* memoise no L column.  The kernels and the checks read step rows
inline; the vacuum check, ``_pairing`` and the wedges of eps steps of
``leibniz_check`` (``_eps_wedge_column``) go through
``eps_monomial``/``iota_monomial``, each one table read, while the
cochain check applies d to ``m << off`` itself.  Every column loop runs
over window levels only, and cochain modes sit at levels <= kMax -
guard, so no operator checks its input against the window.

Monomials are enumerated one energy shell at a time in (energy,
monomial int) order, lazily, by one ordered walk over one sorted list of
candidate modes (``_Shells``): each shell is counted before it is walked,
and no monomial past what a caller takes is enumerated.  The quantifier
sets of ``check_basis`` stop at their cap, and are memoised on the backend
keyed by margin, energy cap and cap; the adjoint check walks only the
energy blocks it checks.  ``verify_identity_suite`` builds one backend
per call, so the memo lives as long as one suite run.  The matrix
identities (d^2, the Laplacian, the adjoint of dtilde) are checked column
by column from these columns; no dense matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, islice
from random import Random
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple
from weakref import ref

from .cochain import InvariantError, build_basis, differential_block, split_mode
from .liealg import AlgebraData, EnergyWindow, int_algebra

Mode = Tuple[int, int]  # (i, k): basis index, Fourier degree
SemiInfMonomial = int  # removed | added << off
FockVector = Dict[SemiInfMonomial, int]  # int coefficients over the operator's scale
ColumnTuple = Tuple[int, ...]  # (m1, c1, m2, c2, ...): the nonzero entries of one column
Column = Callable[[SemiInfMonomial], ColumnTuple]
Pairs = Iterable[Tuple[SemiInfMonomial, int]]
MoveTable = List[Tuple[int, List[tuple]]]  # per level, (gate, rows): see ``_moves``

_chain_items = chain.from_iterable


class OrthonormalBackend:
    """One algebra as its ``IntAlgebra`` ``alg``, and the memoised
    operators on one energy window.  ``alg.action[i][p]`` lists (q,
    -s*f_{iq}^p) over the nonzero int structure constants, s =
    ``alg.scale``; the added modes of a monomial start at bit ``off``.

    The step table ``steps`` has one row (bit, mask, c, empty) per window
    mode, ascending by (k, i): ``bit`` is 1 << b, and ``empty`` is ``mono &
    bit`` when the mode is not in the wedge (0 if added, ``bit`` if
    removed).  eps needs the mode empty, iota needs it occupied; either
    flips ``bit`` with the sign (-1)^(popcount(mono & mask) + c).
    ``moves`` keeps the move table of each L_{i,k} (``_moves``), and
    ``number_moves`` that of the Laplacian's number operators.
    ``energy_masks`` holds one mask per w = 1, 2, ...: the bits of the
    modes at levels k with |k| >= w, so a mode at level k lies under |k|
    of them.

    The memoised operators are attributes, each a ``_Memo`` built on first
    use: ``L(i, k)`` is the memo of L_{i,k}, kept in ``Ls``, and ``d``,
    ``dtilde`` and ``dstar`` those of d, dtilde and dtilde*.  An operator
    set on the backend in one's place (``backend.d = ...``, ``Ls[i, k] =
    ...``) is the one its checks read."""

    def __init__(self, data: AlgebraData, window: EnergyWindow):
        self.alg = int_algebra(data)
        self.window = window
        n = self.n = data.dim
        off = self.off = n * (1 - window.kMin)
        self.steps: Dict[Mode, Tuple[int, int, int, int]] = {}
        for k in range(window.kMin, window.kMax + 1):
            for i in range(n):
                if k >= 1:
                    b = off + (k - 1) * n + i
                    self.steps[i, k] = (1 << b, -1 << b + 1, 0, 0)
                else:
                    b = -k * n + n - 1 - i
                    self.steps[i, k] = (1 << b, -1 << off | (1 << b) - 1, b & 1, 1 << b)
        self.energy_masks = [sum(bit for (_i, k), (bit, *_rest) in self.steps.items() if abs(k) >= w)
                             for w in range(1, max(window.kMax, -window.kMin) + 1)]
        self.moves: Dict[Tuple[int, int], MoveTable] = {}
        self.Ls: Dict[Tuple[int, int], _Memo] = {}
        self.bases: Dict[Tuple[int, int | None, int | None], Tuple[SemiInfMonomial, ...]] = {}

    def L(self, i: int, k: int) -> _Memo:
        """The memo of L_{i,k} = sum_s f_{iq}^p :iota_{p,s} eps^{q,s-k}:
        with both modes in the window, over the scale s of the structure
        constants; normal ordering puts iota first for s <= 0 and -eps iota
        for s > 0 (operator products act right to left).  Each term is one
        row of the move table (``_moves``): two single-mode steps on the
        int."""
        memo = self.Ls.get((i, k))
        if memo is None:
            memo = self.Ls[i, k] = _Memo(partial(_run_moves, _moves(self, i, k)))
        return memo

    @cached_property
    def d(self) -> _Memo:
        """The memo of d = 1/2 sum_{i,k} L_{i,k} eps^{i,k}, windowed, over
        2s, made with that of its twin ``dtilde``: a miss on either files
        both columns from one pass (``_d_pair``) over the terms of d, per
        window mode ascending by (k, i) and split into k <= 0 and k > 0:
        the step row of (i, k) and the move table of L_{i,k}."""
        rows: Tuple[List[tuple], List[tuple]] = ([], [])
        for (i, k), step in self.steps.items():
            rows[k > 0].append((*step, _moves(self, i, k)))
        d, dtilde = _TwinMemo(partial(_d_pair, rows, False)), _TwinMemo(partial(_d_pair, rows, True))
        d.twin, dtilde.twin = ref(dtilde), ref(d)
        self.dtilde = dtilde
        return d

    @cached_property
    def dtilde(self) -> _Memo:
        """The memo of dtilde, which negates the k <= 0 terms of d."""
        return self.d.twin()

    @cached_property
    def number_moves(self) -> MoveTable:
        """-sum_{k>0} ck eps^{i,k} iota_{i,k} - sum_{k<0} ck iota_{i,k}
        eps^{i,k}, the number operators of the Laplacian's closed form, over
        4s^2 e, as a one-level move table."""
        number = 4 * self.alg.scale ** 2 * self.alg.gram_inv_scale * self.alg.data.coxeter  # c, over 4s^2 e
        return [_level(_two_steps(
            (_iota(step), _eps(step), -number * k) if k > 0 else (_eps(step), _iota(step), -number * k)
            for (_i, k), step in self.steps.items() if k))]

    @cached_property
    def dstar(self) -> _Memo:
        """The memo of dtilde* = -1/2 sum_k s_k sum_{i,b} (G^-1)_{ib}
        iota_{b,k} L_{i,-k}, over 2se: the adjoint of dtilde under the Fock
        pairing (``_run_dstar``)."""
        return _Memo(partial(_run_dstar, _dstar_rows(self)))


def encode_monomial(backend: OrthonormalBackend, added: Sequence[Mode] = (),
                    removed: Sequence[Mode] = ()) -> SemiInfMonomial:
    """The int of the monomial with these modes, all inside the window."""
    mono = 0
    for mode in chain(added, removed):
        mono |= backend.steps[mode][0]
    return mono


def decode_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial
                    ) -> Tuple[Tuple[Mode, ...], Tuple[Mode, ...]]:
    """The added and removed modes of ``mono``, each ascending by (k, i)."""
    n, off = backend.n, backend.off
    added, removed = mono >> off, mono & (1 << off) - 1
    return (tuple((b % n, b // n + 1) for b in range(added.bit_length()) if added >> b & 1),
            tuple((n - 1 - b % n, -(b // n)) for b in reversed(range(removed.bit_length())) if removed >> b & 1))


def energy(backend: OrthonormalBackend, mono: SemiInfMonomial) -> int:
    """Sum of the added levels minus the sum of the removed levels, each
    mode at level k counted once under each of the |k| masks that hold
    it (``energy_masks``)."""
    return sum(map(int.bit_count, map(mono.__and__, backend.energy_masks)))


VACUUM: SemiInfMonomial = 0


def _eps(step: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    """The (bit, need, mask, c) row of eps on a step's mode: it needs it empty."""
    bit, mask, c, empty = step
    return bit, empty, mask, c


def _iota(step: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    """The (bit, need, mask, c) row of iota on a step's mode: it needs it occupied."""
    bit, mask, c, empty = step
    return bit, bit ^ empty, mask, c


def _step(row: Tuple[int, int, int, int], mono: SemiInfMonomial) -> Tuple[int, SemiInfMonomial] | None:
    """One (bit, need, mask, c) row on a monomial: (sign, monomial), or
    None where its bit is not the one the step needs."""
    bit, need, mask, c = row
    if mono & bit != need:
        return None
    return (-1 if ((mono & mask).bit_count() + c) & 1 else 1), mono ^ bit


def eps_monomial(backend: OrthonormalBackend, mode: Mode, mono: SemiInfMonomial
                 ) -> Tuple[int, SemiInfMonomial] | None:
    """Left exterior multiplication by e^{mode}: (sign, monomial) or None."""
    return _step(_eps(backend.steps[mode]), mono)


def iota_monomial(backend: OrthonormalBackend, mode: Mode, mono: SemiInfMonomial
                  ) -> Tuple[int, SemiInfMonomial] | None:
    """Contraction with e_{mode}: removes the dual mode with (-1)^(pos-1)."""
    return _step(_iota(backend.steps[mode]), mono)


def _eps_wedge_column(backend: OrthonormalBackend, modes: Sequence[Mode], mono: SemiInfMonomial) -> ColumnTuple:
    """eps^{m_1} ... eps^{m_p} mono, the modes in any order, as a column."""
    sign = 1
    for mode in reversed(modes):
        hit = eps_monomial(backend, mode, mono)
        if hit is None:
            return ()
        sign *= hit[0]
        mono = hit[1]
    return mono, sign


def _pairs(col: ColumnTuple) -> Iterator[Tuple[SemiInfMonomial, int]]:
    """The (monomial, coefficient) pairs of a column."""
    it = iter(col)
    return zip(it, it)


def _apply(column: Column, v: Pairs, coeff: int = 1, out: FockVector | None = None) -> FockVector:
    """out + coeff * sum_m v[m] * column(m): an operator, given by its
    columns, on the (monomial, coefficient) pairs of a vector, added into
    ``out`` (a new vector by default).  A check subtracts its right side
    into the vector of its left side, so one residual holds lhs - rhs."""
    if out is None:
        out = {}
    get = out.get
    for mono, c in v:
        x = coeff * c
        it = iter(column(mono))
        for m2, c2 in zip(it, it):
            new = get(m2, 0) + x * c2
            if new:
                out[m2] = new
            else:
                del out[m2]
    return out


def _residual_error(res: FockVector) -> int:
    """The largest |lhs - rhs| of a residual lhs - rhs."""
    return max(map(abs, res.values()), default=0)


def _flat(out: FockVector) -> ColumnTuple:
    """A column dict as its flat tuple, emptying the dict: a one-entry
    column is the pair ``popitem`` returns, and every empty column the
    shared ()."""
    if len(out) > 1:
        return tuple(_chain_items(out.items()))
    return out.popitem() if out else ()


class _Memo(dict):
    """The columns of one memoised operator on one backend, keyed by
    monomial: ``memo[mono]`` computes a missing column once, as
    ``column(mono)``, and stores it flat (``_flat``).  ``column`` is a
    kernel bound to tables built from the backend, never to the backend
    itself, so a miss is one call and the backend and its memos are freed
    by reference counting alone."""
    __slots__ = ("column",)

    def __init__(self, column: Callable[[SemiInfMonomial], FockVector]):
        super().__init__()
        self.column = column

    def __missing__(self, mono: SemiInfMonomial) -> ColumnTuple:
        col = self[mono] = _flat(self.column(mono))
        return col


class _TwinMemo(_Memo):
    """The memo of d or of dtilde.  ``column(mono)`` is the pair (this
    memo's column, its twin's) from one pass (``_d_pair``), and a miss
    files both: the twin's column goes into ``twin``, held by a weak
    reference, so the two memos form no cycle."""
    __slots__ = ("twin", "__weakref__")

    def __missing__(self, mono: SemiInfMonomial) -> ColumnTuple:
        own, other = self.column(mono)
        self.twin()[mono] = _flat(other)
        col = self[mono] = _flat(own)
        return col


def _moves(backend: OrthonormalBackend, i: int, k: int) -> MoveTable:
    """The move table of L_{i,k}, built once per backend from its step
    table: per level s, in order, (gate, rows) with one row (bit1, need1,
    mask1, bit2, need2, mask2, coef) per (q, -s*f_{iq}^p) of
    ``alg.action[i][p]``, p in the table's order.
    Step j flips ``bitj`` where ``mono & bitj == needj``, with the sign
    parity of ``mono & maskj`` on the monomial it acts on; ``coef`` is the
    normal-ordered +-f times (-1)^(c1 + c2).  When every first step needs
    its bit set, ``gate`` is the union of those bits, and a monomial
    without one of them holds no term at level s; else ``gate`` is 0."""
    levels = backend.moves.get((i, k))
    if levels is None:
        window, steps = backend.window, backend.steps
        levels = backend.moves[i, k] = []
        for s in range(max(window.kMin, window.kMin + k), min(window.kMax, window.kMax + k) + 1):
            terms = []
            for p, action in backend.alg.action[i].items():
                for q, c in action:  # c = -s*f_{iq}^p
                    eps, iota = _eps(steps[q, s - k]), _iota(steps[p, s])
                    # normal ordering: iota first with +f for s <= 0, -eps iota for s > 0
                    terms.append((eps, iota, -c) if s <= 0 else (iota, eps, c))
            levels.append(_level(_two_steps(terms)))
    return levels


def _two_steps(terms: Iterable[tuple]) -> List[tuple]:
    """Move-table rows (bit1, need1, mask1, bit2, need2, mask2, coef) of
    (first step row, second step row, coef) terms, (-1)^(c1 + c2) in coef."""
    return [(b1, n1, m1, b2, n2, m2, -coef if (c1 + c2) & 1 else coef)
            for (b1, n1, m1, c1), (b2, n2, m2, c2), coef in terms]


def _level(rows: List[tuple]) -> Tuple[int, List[tuple]]:
    """One level of a move table, (gate, rows), with its gate (``_moves``)."""
    gate = 0
    if all(bit == need for bit, need, *_rest in rows):
        for bit, *_rest in rows:
            gate |= bit
    return gate, rows


def _run_moves(levels: MoveTable, mono: SemiInfMonomial) -> FockVector:
    """One move table (``_moves``) on one monomial: each row is two
    single-mode steps on the int."""
    out: FockVector = {}
    for gate, rows in levels:
        if gate and not mono & gate:
            continue
        for bit1, need1, mask1, bit2, need2, mask2, coef in rows:
            if mono & bit1 != need1:
                continue
            m1 = mono ^ bit1
            if m1 & bit2 != need2:
                continue
            target = m1 ^ bit2
            new = out.get(target, 0) + (-coef if ((mono & mask1).bit_count() + (m1 & mask2).bit_count()) & 1 else coef)
            if new:
                out[target] = new
            else:
                del out[target]
    return out


def _d_pair(rows: Tuple[List[tuple], List[tuple]], twisted: bool, mono: SemiInfMonomial
            ) -> Tuple[FockVector, FockVector]:
    """d and dtilde of one monomial in one pass, over 2s, the column of
    ``twisted`` first (``OrthonormalBackend.d``).  d = 1/2 sum_{i,k}
    L_{i,k} eps^{i,k}, windowed; dtilde negates its k <= 0 terms.  Those
    come first, so dtilde starts as the negated sum of d's, and each k > 0
    term, with its L_{i,k} column run once, is added to both, in the order
    of a pass of either alone."""
    low, high = rows
    d: FockVector = {}
    get = d.get
    for bit, mask, c, empty, levels in low:
        if mono & bit != empty:
            continue
        negate = ((mono & mask).bit_count() + c) & 1
        for m2, c2 in _run_moves(levels, mono ^ bit).items():
            new = get(m2, 0) + (-c2 if negate else c2)
            if new:
                d[m2] = new
            else:
                del d[m2]
    dtilde = {m: -x for m, x in d.items()}
    for bit, mask, c, empty, levels in high:
        if mono & bit != empty:
            continue
        negate = ((mono & mask).bit_count() + c) & 1
        for m2, c2 in _run_moves(levels, mono ^ bit).items():
            x = -c2 if negate else c2
            for out in (d, dtilde):
                new = out.get(m2, 0) + x
                if new:
                    out[m2] = new
                else:
                    del out[m2]
    return (dtilde, d) if twisted else (d, dtilde)


def _dstar_rows(backend: OrthonormalBackend) -> List[tuple]:
    """The terms of dtilde*, per (k, i): s_k (G^-1)_{ib}, the step row of
    (b, k), and the move table of L_{i,-k} cut in two by its moves' effect
    on the bit of (b, k) (``_split_moves``): the even and the odd table."""
    steps = backend.steps
    return [((1 if k > 0 else -1) * x, *steps[b, k], *_split_moves(_moves(backend, i, -k), steps[b, k][0]))
            for k in range(backend.window.kMin, backend.window.kMax + 1)
            for i, (b, x) in enumerate(backend.alg.gram_inv)]


def _split_moves(levels: MoveTable, bit: int) -> Tuple[MoveTable, MoveTable]:
    """A move table cut in two, each level's rows in their order: the moves
    that flip ``bit`` an even number of times (0, or 2 when both steps sit
    on its mode), and those that flip it once.  A level left with no row is
    dropped, and each kept level gets the gate of its own rows."""
    tables: Tuple[MoveTable, MoveTable] = ([], [])
    for _gate, rows in levels:
        parts: Tuple[list, list] = ([], [])
        for row in rows:
            parts[((row[0] == bit) + (row[3] == bit)) & 1].append(row)
        for table, part in zip(tables, parts):
            if part:
                table.append(_level(part))
    return tables


def _run_dstar(rows: List[tuple], mono: SemiInfMonomial) -> FockVector:
    """dtilde* of one monomial from its terms (``_dstar_rows``): each
    L_{i,-k} column is run from its move table, not memoised, and
    iota_{b,k} is one step row.  iota_{b,k} acts on an output of L_{i,-k}
    iff (b, k) is occupied there, that is, iff it is occupied in ``mono``
    and the move flipped its bit an even number of times, or empty in
    ``mono`` and the move flipped it once.  So each term runs only its even
    table where (b, k) is occupied in ``mono`` and only its odd table where
    it is empty, and iota acts on every output.  Even and odd moves reach
    different monomials, so each output keeps its value and its place in
    the column; the column equals the one from the whole table with the
    outputs iota removes dropped."""
    out: FockVector = {}
    get = out.get
    for coef, bit, mask, c, empty, even, odd in rows:
        levels = odd if mono & bit == empty else even
        if not levels:
            continue
        for m1, c1 in _run_moves(levels, mono).items():
            target, val = m1 ^ bit, coef * c1
            new = get(target, 0) + (val if ((m1 & mask).bit_count() + c) & 1 else -val)
            if new:
                out[target] = new
            else:
                del out[target]
    return out


def _pairing(backend: OrthonormalBackend, mono: SemiInfMonomial) -> Tuple[int, int, SemiInfMonomial]:
    """(num, den, partner): ``mono`` pairs with ``partner`` alone, to num/den.

    The partner carries the partner (b, k) of every mode (a, k).  Building
    mono = sign * O_t ... O_1 Omega from the vacuum (iota for each removed
    mode, then eps for each added one), <mono, y> = sign * <Omega, O_1^T
    ... O_t^T y>, and the transposes take the partner to a multiple of
    Omega."""
    alg = backend.alg
    added, removed = decode_monomial(backend, mono)
    steps = [(iota_monomial, eps_monomial, alg.gram, mode) for mode in removed]
    steps += [(eps_monomial, iota_monomial, alg.gram_inv, mode) for mode in added]
    num, built = 1, VACUUM
    for step, _transpose, _form, mode in steps:
        sign, built = step(backend, mode, built)
        num *= sign
    partner = encode_monomial(backend, *([(alg.gram[i][0], k) for i, k in side] for side in (added, removed)))
    y = partner
    for _step, transpose, form, (i, k) in reversed(steps):
        b, x = form[i]
        sign, y = transpose(backend, (b, k), y)
        num *= sign * x
    return num, alg.gram_scale ** len(removed) * alg.gram_inv_scale ** len(added), partner


def _candidates(backend: OrthonormalBackend, margin: int) -> List[Tuple[int, int]]:
    """(bit, weight |k|) per candidate mode of the window shrunk by
    ``margin`` to [lo, hi], sorted by bit: the added modes at levels 1..hi
    and the removed modes at levels lo..0."""
    lo, hi = backend.window.support(margin)
    return sorted((backend.steps[i, k][0], abs(k))
                  for k in (*range(lo, 1), *range(1, hi + 1)) for i in range(backend.n))


class _Shells:
    """The monomials of the candidate modes ``cands`` (``_candidates``)
    under an energy cap and a cap on the mode count, one energy shell at a
    time.  A monomial is the OR of its modes' bits, and its energy the sum
    of their weights, each >= 0, so (energy, monomial int) order is the
    shells in turn, each ascending by int (``shell``).

    ``fewest[j]`` maps each energy that subsets of ``cands[:j]`` reach to
    the fewest modes that reach it, so the walk enters no empty branch.
    ``sizes[e]`` is the number of monomials of energy e, counted from one
    (energy, mode count) table without enumerating any."""

    def __init__(self, cands: List[Tuple[int, int]], max_energy: int | None, max_particles: int | None):
        self.cands = cands
        self.budget = len(cands) if max_particles is None else max_particles
        self.fewest: List[Dict[int, int]] = [{0: 0}]
        counts = {(0, 0): 1}
        for _bit, w in cands:
            table = dict(self.fewest[-1])
            for e, c in self.fewest[-1].items():
                if (max_energy is None or e + w <= max_energy) and c + 1 < table.get(e + w, c + 2):
                    table[e + w] = c + 1
            self.fewest.append(table)
            for (e, c), size in list(counts.items()):
                if (max_energy is None or e + w <= max_energy) and c < self.budget:
                    counts[e + w, c + 1] = counts.get((e + w, c + 1), 0) + size
        self.sizes = [0] * (max(e for e, _c in counts) + 1)
        for (e, _c), size in counts.items():
            self.sizes[e] += size

    def monomials(self) -> Iterator[SemiInfMonomial]:
        """Every monomial, in (energy, monomial int) order, enumerated lazily."""
        return _chain_items(map(self.shell, range(len(self.sizes))))

    def shell(self, e: int) -> Iterator[SemiInfMonomial]:
        """The monomials of energy e, ascending."""
        return self._walk(len(self.cands), e, self.budget, VACUUM)

    def _walk(self, j: int, e: int, budget: int, prefix: SemiInfMonomial) -> Iterator[SemiInfMonomial]:
        """``prefix`` joined with each subset of ``cands[:j]`` of energy e
        and at most ``budget`` modes, ascending: the empty subset first
        where e = 0, then per top mode t, ascending, the subsets of
        ``cands[:t]`` joined with it.  A branch is entered only where
        ``fewest`` shows it holds a subset."""
        if not e:
            yield prefix
        if budget:
            for t in range(j):
                bit, w = self.cands[t]
                if self.fewest[t].get(e - w, budget) < budget:
                    yield from self._walk(t, e - w, budget - 1, prefix | bit)


def monomials_in_support(backend: OrthonormalBackend, margin: int,
                         max_energy: int | None = None,
                         max_particles: int | None = None,
                         cap: int | None = None) -> List[SemiInfMonomial]:
    """All monomials supported in the margin-shrunk window, optionally
    capped by energy and by total mode count (added plus removed), in the
    deterministic order (energy, monomial int); with ``cap``, the first
    ``cap``, and none past them is enumerated."""
    return list(islice(_Shells(_candidates(backend, margin), max_energy, max_particles).monomials(), cap))


def _small(backend: OrthonormalBackend) -> bool:
    return backend.n <= 3


def _check_shells(backend: OrthonormalBackend, margin: int, max_energy: int | None) -> _Shells:
    """The shells the quantifier sets of the checks are drawn from: the
    supported monomials under the energy cap, and above 18 candidate modes
    (the rank-one acceptance window has 18) at most four modes off the
    vacuum in each."""
    cands = _candidates(backend, margin)
    return _Shells(cands, max_energy, None if len(cands) <= 18 else 4)


def check_basis(backend: OrthonormalBackend, margin: int, max_energy: int | None,
                cap: int | None = None) -> List[SemiInfMonomial]:
    """Deterministic quantifier set for an identity check: the first
    ``cap`` monomials of ``_check_shells`` in (energy, monomial int) order.
    None past the cap is enumerated, and each set is memoised per margin,
    energy cap and ``cap``."""
    key = (margin, max_energy, cap)
    mons = backend.bases.get(key)
    if mons is None:
        mons = backend.bases[key] = tuple(islice(_check_shells(backend, margin, max_energy).monomials(), cap))
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


def clifford_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """[iota_x, eps^y]+ = delta_xy for every pair of window modes on
    windowed monomials, with every step read from the step table.  The
    table invariant under it is checked too: every row's bit is one set
    bit, and no two rows share one.  Then a step flips the bit it tests,
    so (eps^x)^2 = (iota_x)^2 = 0, and both terms of an anticommutator sit
    at one monomial.  It also means that a step on y != x leaves the bit of
    x alone.  So where x is empty in a monomial, iota_x meets neither the
    monomial nor eps^y of it, and where x and y are both occupied, eps^y
    meets neither the monomial nor iota_x of it: an empty x is paired with
    y = x alone, and an occupied x with itself and the empty modes.  The
    pairs left out hold no term and no delta."""
    window = backend.window
    basis = check_basis(backend, window.guard, 3, cap=700 if _small(backend) else 60)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "clifford_relations", window.guard)
    rows = [(j, *row) for j, row in enumerate(backend.steps.values())]
    bits = [bit for bit, _mask, _c, _empty in backend.steps.values()]
    err = int(any(bit.bit_count() != 1 for bit in bits) or len(set(bits)) < len(bits))
    for mono in basis:
        # per mode: is it empty in mono, and the sign parity of its step on mono
        on_mono = [(j, bit, mask, c, empty, mono & bit == empty, (mono & mask).bit_count() + c)
                   for j, bit, mask, c, empty in rows]
        empties = [row for row in on_mono if row[5]]
        for x_row in on_mono:
            x, xbit, xmask, xc, xempty, x_is_empty, xpar = x_row
            flipped = mono ^ xbit
            # a step on y != x leaves x's bit (one distinct bit per row): an
            # empty x meets y = x alone, an occupied x itself and the empty y
            for y, ybit, ymask, yc, yempty, y_is_empty, ypar in ((x_row,) if x_is_empty else (x_row, *empties)):
                # eps^y iota_x mono + iota_x eps^y mono - delta_xy mono: every
                # term sits at mono ^ xbit ^ ybit, so one coefficient is compared
                res = -(x == y)
                if not x_is_empty and flipped & ybit == yempty:
                    res += -1 if (xpar + (flipped & ymask).bit_count() + yc) & 1 else 1
                if y_is_empty:
                    eps_y = mono ^ ybit
                    if eps_y & xbit != xempty:
                        res += -1 if (ypar + (eps_y & xmask).bit_count() + xc) & 1 else 1
                if res:
                    err = max(err, abs(res))
    return _verdict(backend, "clifford_relations", Fraction(err), len(basis))


def commutator_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """[iota_{j,m}, L_{i,k}] = -sum_p f_{ij}^p iota_{p,m+k} and the
    eps analogue [eps^{j,m}, L_{i,k}] = sum_q f_{iq}^j eps^{q,m-k}."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "mode_action_commutators", "window guard < 1 (shift-1 operators)")
    n, f, action, steps = backend.n, backend.alg.structure, backend.alg.action, backend.steps
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
        # per i: L_{i,k}, and per (j, m) and step (iota_{j,m}, then eps^{j,m}) its
        # row (bit, need, mask, c), applied where mono & bit == need, and the
        # (coefficient, row) terms of its right side
        per_i = [(backend.L(i, k).__getitem__,
                  [term for j in range(n) for m in modes for term in (
                      (_iota(steps[j, m]), [(-c, _iota(steps[p, m + k])) for p, c in f[i].get(j, {}).items()]),
                      (_eps(steps[j, m]), [(-c, _eps(steps[q, m - k])) for q, c in action[i].get(j, ())]))])
                 for i in range(n)]
        for mono in basis:
            for L, terms in per_i:
                Lmono = L(mono)
                Lv = list(zip(Lmono[::2], Lmono[1::2]))
                for (bit, need, mask, c), rhs in terms:
                    # step(L mono) - L(step mono) - sum cv step_mode(mono), over s
                    res: FockVector = {}
                    for m1, c1 in Lv:
                        if m1 & bit == need:
                            target = m1 ^ bit
                            res[target] = res.get(target, 0) + (-c1 if ((m1 & mask).bit_count() + c) & 1 else c1)
                    if mono & bit == need:
                        negate = ((mono & mask).bit_count() + c) & 1
                        it = iter(L(mono ^ bit))
                        for m2, c2 in zip(it, it):
                            res[m2] = res.get(m2, 0) + (c2 if negate else -c2)
                    for cv, (rbit, rneed, rmask, rc) in rhs:
                        if mono & rbit == rneed:
                            target = mono ^ rbit
                            res[target] = res.get(target, 0) + (cv if ((mono & rmask).bit_count() + rc) & 1 else -cv)
                    if res:
                        err = max(err, _residual_error(res))
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
    Li, Lj = backend.L(i, k).__getitem__, backend.L(j, -k).__getitem__

    # both sides times g s^2: the commutator is over s^2, G_ij over g
    alg = backend.alg
    g, s = alg.gram_scale, alg.scale
    partner, g_ij = alg.gram[i]
    expected = 2 * alg.data.coxeter * k * s * s * (g_ij if j == partner else 0)
    bracket = [(-g * c, backend.L(p, 0).__getitem__) for p, c in alg.structure[i].get(j, {}).items()]
    diag: List[int] = []
    err = 0
    for mono in basis:
        comm = _apply(Li, _pairs(Lj(mono)), g)
        _apply(Lj, _pairs(Li(mono)), -g, comm)
        for coeff, Lp in bracket:
            _apply(Lp, ((mono, 1),), coeff, comm)
        diag.append(comm.get(mono, 0))
        comm[mono] = comm.get(mono, 0) - expected
        err = max(err, _residual_error(comm))
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
            hit = (iota_monomial if k > 0 else eps_monomial)(backend, (i, k), VACUUM)
            found.append(((hit[1], hit[0]) if hit else (), 1))
            if k > 0:
                found.append((backend.L(i, k)[VACUUM], s))
    found += [(backend.L(0, 0)[VACUUM], s), (backend.d[VACUUM], 2 * s), (backend.dtilde[VACUUM], 2 * s)]
    err = max(Fraction(max(map(abs, col[1::2]), default=0), scale) for col, scale in found)
    return _verdict(backend, "vacuum_annihilation", err, 1)


def energy_bookkeeping_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """iota shifts energy by -k, eps by +k, L by -k, d and dtilde by 0."""
    n, window = backend.n, backend.window
    basis = check_basis(backend, max(window.guard, 1), 4, cap=1100 if _small(backend) else 40)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "energy_bookkeeping", max(window.guard, 1))
    energy_of = cache(partial(energy, backend))  # each monomial's energy is computed once
    # per mode (i, k): its step row and L_{i,k}; a step on it is iota where
    # the mode is occupied and eps where it is empty
    rows = [(k, backend.steps[i, k], backend.L(i, k).__getitem__)
            for k in range(window.kMin + 1, window.kMax) for i in range(n)]
    ds = [backend.d.__getitem__, backend.dtilde.__getitem__]
    bad = 0
    for mono in basis:
        e0 = energy_of(mono)
        for k, (bit, _mask, _c, empty), L in rows:
            bad += energy_of(mono ^ bit) != (e0 + k if mono & bit == empty else e0 - k)
            bad += sum(1 for m in L(mono)[::2] if energy_of(m) != e0 - k)
        for d in ds:
            bad += sum(1 for m in d(mono)[::2] if energy_of(m) != e0)
    return _verdict(backend, "energy_bookkeeping", Fraction(bad), len(basis))


def l0_commutes_with_d_check(backend: OrthonormalBackend) -> IdentityVerdict:
    if backend.window.guard < 1:
        return _skip(backend, "L0_commutes_with_d", "window guard < 1")
    basis = check_basis(backend, backend.window.guard, 4, cap=1100 if _small(backend) else 12)
    if basis == [VACUUM]:
        return _skip_vacuum_only(backend, "L0_commutes_with_d", backend.window.guard)
    d = backend.d.__getitem__
    L0s = [backend.L(i, 0).__getitem__ for i in range(backend.n)]
    err = 0
    for mono in basis:
        d_mono = d(mono)
        for L0 in L0s:
            err = max(err, _residual_error(_apply(L0, _pairs(d_mono), -1, _apply(d, _pairs(L0(mono))))))
    return _verdict(backend, "L0_commutes_with_d", Fraction(err, 2 * backend.alg.scale ** 2), len(basis))


def leibniz_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """d(alpha ^ omega) = d(alpha) ^ omega + (-1)^p alpha ^ d(omega) for
    cochain wedges alpha and random guarded int vectors omega, whose
    monomials are drawn from a pool of the first 12 (140 when dim g <= 3)
    of each energy shell 0..4 of ``_check_shells``, so at every rank it
    holds holes below level 0 where the guarded window has such modes.
    d(alpha) = sum_j (-1)^j d(e_j) ^ (alpha without e_j) comes from
    ``split_mode`` over the whole window, negative levels included (those
    terms act on monomials with holes), so it is independent of the L move
    tables behind the Fock d.  Each term (a, l1), (b, l2), rest acts on omega as
    eps steps, which sort the wedge and count its sign themselves.  Both
    sides are compared times 2s, the scale of d."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "leibniz_rule", "window guard < 1")
    rng = Random(11)
    n, action = backend.n, backend.alg.action
    lo, hi = window.support(window.guard)
    coch_modes = [(i, k) for k in range(1, hi + 1) for i in range(n)]
    if not coch_modes:
        return _skip(backend, "leibniz_rule", f"no cochain mode: kMax - guard = {hi} < 1")
    shells = _check_shells(backend, window.guard, 4)
    pool = [m for e in range(5) for m in islice(shells.shell(e), 140 if _small(backend) else 12)]
    d = backend.d.__getitem__

    def wedge(modes: Sequence[Mode], v: FockVector, coeff: int, out: FockVector) -> FockVector:
        return _apply(partial(_eps_wedge_column, backend, modes), v.items(), coeff, out)

    err = 0
    trials = 12
    for _ in range(trials):
        p = rng.choice([1, 2])
        alpha = rng.sample(coch_modes, p)
        omega_mons = rng.sample(pool, min(3, len(pool)))
        omega = {m: rng.choice((-1, 1)) * rng.randint(1, 9) for m in omega_mons}

        res = _apply(d, wedge(alpha, omega, 1, {}).items())
        wedge(alpha, _apply(d, omega.items()), 1 if p % 2 else -1, res)
        for j, (m, level) in enumerate(alpha):  # less (-1)^j d(e_j) ^ rest ^ omega; c is over s, d over 2s
            rest = alpha[:j] + alpha[j + 1:]
            for a, l1, b, l2, c in split_mode(action, m, level, window.kMin, window.kMax):
                wedge(((a, l1), (b, l2), *rest), omega, 2 * c if j % 2 else -2 * c, res)
        err = max(err, _residual_error(res))
    return _verdict(backend, "leibniz_rule", Fraction(err, 2 * backend.alg.scale), trials)


def d_squared_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """d^2 = sum_{k>0} sum_{a,b} 2ck G_ab eps^{a,k} eps^{b,-k}, compared
    column by column, times 4s^2 g: d(d(c)) against the closed form on each
    guarded column c."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "d_squared_closed_form", "window guard < 1")
    cols = check_basis(backend, window.guard, 3, cap=600 if _small(backend) else 30)
    if cols == [VACUUM]:
        return _skip_vacuum_only(backend, "d_squared_closed_form", window.guard)
    alg, steps = backend.alg, backend.steps
    s, g = alg.scale, alg.gram_scale
    d = backend.d.__getitem__
    # less the closed form, as a one-level move table: eps^{b,-k}, then eps^{a,k}
    closed = [_level(_two_steps(
        (_eps(steps[b, -k]), _eps(steps[a, k]), -8 * s * s * alg.data.coxeter * k * x)
        for k in range(1, min(window.kMax, -window.kMin) + 1) for a, (b, x) in enumerate(alg.gram)))]
    err = 0
    for mono in cols:
        err = max(err, _residual_error(_apply(d, _pairs(d(mono)), g, _run_moves(closed, mono))))
    return _verdict(backend, "d_squared_closed_form", Fraction(err, 4 * s * s * g), len(cols))


def laplacian_formula_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """[d, dtilde*]+ = -sum_{k>0} ck eps^{i,k} iota_{i,k}
    - sum_{k<0} ck iota_{i,k} eps^{i,k} + 1/2 sum_{i,j} (G^-1)_{ij} L_{i,0} L_{j,0},
    compared column by column over 4s^2 e: d(dtilde* c) + dtilde*(d c)
    against the closed form on each guarded column c."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "laplacian_closed_form", "window guard < 1")
    cols = check_basis(backend, window.guard, 3, cap=600 if _small(backend) else 30)
    if cols == [VACUUM]:
        return _skip_vacuum_only(backend, "laplacian_closed_form", window.guard)
    d, dstar = backend.d.__getitem__, backend.dstar.__getitem__
    err = 0
    for mono in cols:
        res = _apply(d, _pairs(dstar(mono)), -1, _closed_form_monomial(backend, mono))
        err = max(err, _residual_error(_apply(dstar, _pairs(d(mono)), -1, res)))
    return _verdict(backend, "laplacian_closed_form",
                    Fraction(err, 4 * backend.alg.scale ** 2 * backend.alg.gram_inv_scale), len(cols))


def _closed_form_monomial(backend: OrthonormalBackend, mono: SemiInfMonomial) -> FockVector:
    """The closed form of [d, dtilde*]+ on one monomial, over 4s^2 e: the
    number operators (``number_moves``), then the zero-mode term."""
    out = _run_moves(backend.number_moves, mono)
    for i, (j, x) in enumerate(backend.alg.gram_inv):
        _apply(backend.L(i, 0).__getitem__, _pairs(backend.L(j, 0)[mono]), 2 * x, out)
    return out


def dtilde_adjoint_matrix_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """dtilde* is the adjoint of dtilde under the Fock pairing on each
    energy block of in-window monomials: <r, dtilde* c> = <dtilde r, c> for
    every r and c in the block.  As r pairs with its partner sigma r alone
    (``_pairing``), the left side is dtilde*(c)[sigma r] <r, sigma r> and
    the right side dtilde(r)[sigma c] <sigma c, c>.

    Adjoints need whole blocks, so blocks of more than 800 monomials are
    left out rather than truncated, and are counted but never built; if
    none fit the check is skipped."""
    name = "dtilde_adjoint_is_matrix_transpose"
    if backend.window.guard < 1:
        return _skip(backend, name, "window guard < 1")
    block_cap = 800
    e_scale = backend.alg.gram_inv_scale
    dtilde, dstar = backend.dtilde.__getitem__, backend.dstar.__getitem__
    err = Fraction(0)
    count = 0
    shells = _Shells(_candidates(backend, 0), 3 if _small(backend) else 1, None)
    for e, size in enumerate(shells.sizes):
        if size > block_cap:
            continue
        block = list(shells.shell(e))
        count += len(block)
        pairing = {m: _pairing(backend, m) for m in block}
        transposed: Dict[SemiInfMonomial, FockVector] = {m: {} for m in block}
        for row in block:
            for col, val in _pairs(dtilde(row)):
                if col not in pairing:
                    raise InvariantError(f"dtilde leaves the energy-{e} block")
                transposed[col][row] = val
        for col in block:
            ds = dstar(col)
            if not all(m in pairing for m in ds[::2]):
                raise InvariantError(f"dtilde* leaves the energy-{e} block")
            num, den, partner = pairing[col]
            # lhs - rhs keyed by m = sigma r, times 2se den(m) den(c); den(sigma r) = den(r)
            res = {m: x * pairing[m][0] * den for m, x in _pairs(ds)}
            for r, x in transposed[partner].items():
                _num, den_r, m = pairing[r]
                res[m] = res.get(m, 0) - e_scale * x * num * den_r
            for m, x in res.items():
                if x:
                    err = max(err, Fraction(abs(x), pairing[m][1] * den))
    if count == 0:
        return _skip(backend, name, f"every energy block exceeds {block_cap} monomials")
    return _verdict(backend, name, err / (2 * backend.alg.scale * e_scale), count)


def d_matches_cochain_check(backend: OrthonormalBackend) -> IdentityVerdict:
    """d(eps(alpha) Omega) = eps(d_CE alpha) Omega for cochain monomials of
    degree <= 2 and energy <= 3 from the exact pipeline, which reads the
    backend's ``IntAlgebra``.  A degree-p cochain monomial m is eps(m) Omega
    = (-1)^(p(p-1)/2) (m << off), so both sides are multiplied by that sign:
    d of ``m << off`` against the exact block's column of m, its entries
    on ``m_out << off`` times (-1)^p.  Both sides are compared over 2s: d
    is over 2s, and the exact block is s*d."""
    window = backend.window
    if window.guard < 1:
        return _skip(backend, "d_restricts_to_chevalley_eilenberg", "window guard < 1")
    max_k = min(3, window.kMax - window.guard)
    if max_k < 1:
        return _skip(backend, "d_restricts_to_chevalley_eilenberg", f"no cochain level: kMax - guard = {max_k} < 1")
    d, off = backend.d.__getitem__, backend.off
    basis = cache(partial(build_basis, backend.alg))  # each cell's basis is built once

    err = 0
    count = 0
    for k in range(1, max_k + 1):
        for p in range(1, min(2, k) + 1):
            block = differential_block(backend.alg, basis(p, k), basis(p + 1, k))
            # per column of m: d(m << off) less 2(-1)^p times the block's column, both over 2s
            res = {col: dict(_pairs(d(mono << off))) for col, mono in enumerate(block.basisIn.monomials)}
            for (row, col), val in block.dMatrix.items():
                target = block.basisOut.monomials[row] << off
                res[col][target] = res[col].get(target, 0) + (2 * val if p & 1 else -2 * val)
            err = max([err, *map(_residual_error, res.values())])
            count += len(res)
    return _verdict(backend, "d_restricts_to_chevalley_eilenberg", Fraction(err, 2 * backend.alg.scale), count)


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
