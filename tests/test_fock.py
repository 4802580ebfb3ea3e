import dataclasses
import gc
import itertools
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial

import pytest

from jetcohom import exactlinalg as xl
from jetcohom import fock
from jetcohom.cochain import InvariantError, build_basis
from jetcohom.liealg import AlgebraSpec, build_algebra
from jetcohom.fock import (
    VACUUM,
    EnergyWindow,
    IdentityVerdict,
    OrthonormalBackend,
    check_basis,
    clifford_check,
    cocycle_check,
    commutator_check,
    d_matches_cochain_check,
    d_squared_check,
    decode_monomial,
    dtilde_adjoint_matrix_check,
    encode_monomial,
    energy,
    energy_bookkeeping_check,
    eps_monomial,
    iota_monomial,
    l0_commutes_with_d_check,
    laplacian_formula_check,
    leibniz_check,
    vacuum_checks,
    verify_identity_suite,
    _apply,
    _closed_form_monomial,
    _pairs,
)

import oracles

WINDOW = EnergyWindow(-2, 3, 1)


def _degree_offset(b, mono):
    """The number of added modes less the number of removed ones."""
    return (mono >> b.off).bit_count() - (mono & (1 << b.off) - 1).bit_count()


@pytest.fixture(scope="module")
def backend(a1):
    return OrthonormalBackend(a1, WINDOW)


@pytest.fixture(scope="module")
def backend2(a2):
    return OrthonormalBackend(a2, EnergyWindow(-2, 3, 1))


@pytest.fixture(scope="module")
def backend_a2_m1_2(a2):
    return OrthonormalBackend(a2, EnergyWindow(-1, 2, 1))


@pytest.fixture(scope="module")
def backend_b2_m1_2():
    return OrthonormalBackend(build_algebra(AlgebraSpec("B", 2)), EnergyWindow(-1, 2, 1))


@pytest.fixture(scope="module")
def backend_g2_m1_2():
    return OrthonormalBackend(build_algebra(AlgebraSpec("G", 2)), EnergyWindow(-1, 2, 1))


def test_window_validation():
    with pytest.raises(ValueError):
        EnergyWindow(1, 3, 0)
    with pytest.raises(ValueError):
        EnergyWindow(-1, 0, 0)


def test_vacuum_shape(backend):
    assert VACUUM == 0 and decode_monomial(backend, VACUUM) == ((), ())
    assert energy(backend, VACUUM) == 0 and _degree_offset(backend, VACUUM) == 0


def test_vacuum_annihilation(backend):
    verdict = vacuum_checks(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_eps_iota_basics(backend):
    coeff, up = eps_monomial(backend, (0, 1), VACUUM)
    assert energy(backend, up) == 1 and _degree_offset(backend, up) == 1 and coeff == 1
    # iota on a monomial not containing the dual mode vanishes
    assert iota_monomial(backend, (1, 2), up) is None
    # eps twice with the same mode vanishes
    assert eps_monomial(backend, (0, 1), up) is None
    # round trip returns the vacuum
    assert iota_monomial(backend, (0, 1), up) == (1, VACUUM)


def test_clifford_relations(backend):
    verdict = clifford_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_mode_action_commutators(backend):
    verdict = commutator_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_cocycle_values(backend):
    measured, verdict = cocycle_check(backend, 0, 0, 1)
    assert verdict.passed
    assert measured == 8  # 2c*k*G_00 with c = 2, k = 1 and G_00 = 2 for the coroot h

    measured0, verdict0 = cocycle_check(backend, 0, 0, 0)
    assert verdict0.passed and measured0 == 0

    measured_perp, verdict_perp = cocycle_check(backend, 0, 1, 1)
    assert verdict_perp.passed and measured_perp == 0


def test_cocycle_skip_when_guard_too_small(a1):
    _, verdict = cocycle_check(OrthonormalBackend(a1, EnergyWindow(-2, 3, 0)), 0, 0, 1)
    assert verdict.skipped and "guard" in verdict.reason


def test_L_annihilates_vacuum_for_positive_shift(backend):
    for k in (1, 2):
        for i in range(backend.n):
            assert backend.L(i, k)[VACUUM] == ()


def test_energy_bookkeeping(backend):
    verdict = energy_bookkeeping_check(backend)
    assert verdict.passed


def test_L0_commutes_with_d(backend):
    verdict = l0_commutes_with_d_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_leibniz(backend):
    verdict = leibniz_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_d_matches_cochain_differential(backend):
    verdict = d_matches_cochain_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0
    assert verdict.vectors > 0


@pytest.mark.parametrize("series, rank, count", [("A", 1, 23), ("A", 2, 173), ("B", 2, 296), ("G", 2, 694)])
def test_a_cochain_monomial_shifted_by_off_is_its_eps_wedge(series, rank, count):
    """On every cochain monomial m of degree p <= 3 and energy k <= 3,
    eps(m) Omega, built from eps steps, is (-1)^(p(p-1)/2) (m << off): the
    encoding ``d_matches_cochain_check`` relies on."""
    b = OrthonormalBackend(build_algebra(AlgebraSpec(series, rank)), EnergyWindow(-1, 3, 1))
    cells = [build_basis(b.alg, p, k) for p in range(4) for k in range(4)]
    assert sum(map(len, cells)) == count
    for cell in cells:
        sign = -1 if cell.degree * (cell.degree - 1) // 2 % 2 else 1
        for mono, wedge in zip(cell.monomials, oracles.wedges(cell)):
            modes = [(i, level) for level, i in wedge]
            assert fock._eps_wedge_column(b, modes, VACUUM) == (mono << b.off, sign), (cell.degree, wedge)


@pytest.mark.parametrize("series, rank, window", [
    ("A", 1, WINDOW), ("A", 2, EnergyWindow(-1, 3, 1)), ("B", 2, EnergyWindow(-1, 3, 1))], ids=["a1", "a2", "b2"])
def test_a_doctored_cochain_block_entry_fails_the_cochain_check(monkeypatch, series, rank, window):
    """An exact block with one int entry raised by 1 no longer matches the
    Fock d on its column."""
    data = build_algebra(AlgebraSpec(series, rank))
    real = fock.differential_block
    doctored = []

    def block_plus_one(alg, basis_in, basis_out):
        block = real(alg, basis_in, basis_out)
        if block.dMatrix and not doctored:
            key = next(iter(block.dMatrix))
            block.dMatrix[key] += 1
            doctored.append(key)
        return block

    assert d_matches_cochain_check(OrthonormalBackend(data, window)).passed
    monkeypatch.setattr(fock, "differential_block", block_plus_one)
    verdict = d_matches_cochain_check(OrthonormalBackend(data, window))
    assert doctored and not verdict.skipped and not verdict.passed


@pytest.mark.parametrize("series, rank, window, dropped", [
    ("A", 1, WINDOW, "last"),
    ("A", 2, EnergyWindow(-1, 2, 1), "last"),
    ("G", 2, EnergyWindow(-1, 2, 1), "last"),
    ("A", 1, WINDOW, "negative"),
    ("A", 2, EnergyWindow(-2, 3, 1), "negative"),
    ("G", 2, EnergyWindow(-2, 3, 1), "negative"),
], ids=["a1-last", "a2-last", "g2-last", "a1-negative", "a2-negative", "g2-negative"])
def test_a_doctored_splitting_rule_fails_only_the_leibniz_check(monkeypatch, series, rank, window, dropped):
    """d(alpha) in the Leibniz check comes from ``split_mode`` over the
    window, not from the move tables behind the Fock d: a split that drops
    the last term of every mode, or every term through a negative level,
    fails that check and no other."""
    real = fock.split_mode

    def doctored(*args):
        terms = real(*args)
        return terms[:-1] if dropped == "last" else [t for t in terms if t[1] >= 0]

    monkeypatch.setattr(fock, "split_mode", doctored)
    suite = verify_identity_suite(build_algebra(AlgebraSpec(series, rank)), window)
    assert [v.identity for v in suite if not v.passed and not v.skipped] == ["leibniz_rule"]


def test_d_squared_formula(backend):
    verdict = d_squared_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_d_squared_vanishes_on_cochain_sector(backend):
    # all modes k >= 1: the right-hand side needs a hole to fill
    for wedge in (((0, 1),), ((0, 1), (1, 2))):
        d = backend.d.__getitem__
        assert _apply(d, _pairs(d(encode_monomial(backend, wedge)))) == {}


def test_laplacian_closed_form(backend):
    verdict = laplacian_formula_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_dtilde_adjoint_is_matrix_transpose(backend):
    verdict = dtilde_adjoint_matrix_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_the_closed_forms_need_the_metric(a1):
    # in the rebased basis G = gram is not the identity (G_00 = 2, and e pairs
    # with f), so delta in its place breaks the closed forms
    backend = OrthonormalBackend(a1, WINDOW)
    alg = backend.alg
    backend.alg = dataclasses.replace(alg, gram_inv=tuple((i, alg.gram_inv_scale) for i in range(backend.n)))
    lap = laplacian_formula_check(backend)
    assert not lap.passed and lap.max_abs_error == 6
    backend = OrthonormalBackend(a1, WINDOW)
    backend.alg = dataclasses.replace(alg, gram=tuple((i, alg.gram_scale) for i in range(backend.n)))
    d2 = d_squared_check(backend)
    assert not d2.passed and d2.max_abs_error == 4


def test_closed_form_scalar_on_embedded_cochains(backend, a1):
    """On e^{l,k} ^ Omega the closed form acts by the twisted-Laplacian
    scalar of Theorem-form: casimir - c*k (the PSD pipeline value negated
    for k >= 2, zero at k = 1)."""
    from jetcohom.cochain import eigenvalue_of

    scale = 4 * backend.alg.scale ** 2 * backend.alg.gram_inv_scale  # of the closed form
    for k, expected in ((1, Fraction(0)), (2, eigenvalue_of(a1, (Fraction(-1),), 2))):
        for l in range(backend.n):
            mono = encode_monomial(backend, ((l, k),))
            out = _closed_form_monomial(backend, mono)
            assert out == ({mono: expected * scale} if expected else {}), (k, l)


def test_guard_zero_emits_skips(a1):
    suite = verify_identity_suite(a1, EnergyWindow(-2, 3, 0))
    by_name = {v.identity: v for v in suite}
    assert by_name["d_squared_closed_form"].skipped
    assert by_name["laplacian_closed_form"].skipped
    assert by_name["cocycle_L(0,1)_L(0,-1)"].skipped
    # shift-free identities still run at guard 0
    assert by_name["clifford_relations"].passed
    assert by_name["vacuum_annihilation"].passed
    for v in suite:
        if v.skipped:
            assert v.reason


def test_full_suite_passes_on_acceptance_window(a1):
    suite = verify_identity_suite(a1, WINDOW)
    for v in suite:
        assert not v.skipped, v.identity
        assert v.passed, (v.identity, v.max_abs_error)


def test_backend_on_a2(backend2):
    # the rebased basis and the paper normalizations hold beyond rank 1
    measured, verdict = cocycle_check(backend2, 0, 0, 1, max_energy=2)
    assert verdict.passed and measured == 12  # 2c*k*G_00 = 12 for A2


def _reference_step(n, mode, added, removed, eps):
    """eps (``eps``) or iota on mode tuples ascending by (k, i), by the sign
    rules of the wedge in descending mode order: (sign, added, removed) or None."""
    i, k = mode
    key = (k, i)
    side = added if k >= 1 else removed
    if (mode in side) == (eps == (k >= 1)):
        return None  # eps on an occupied mode, iota on an empty one
    above = sum(1 for j, l in side if (l, j) > key)
    before = above if k >= 1 else len(added) + n * (-k) + (n - 1 - i) - above
    new = tuple(sorted(set(side) ^ {mode}, key=lambda m: (m[1], m[0])))
    return (-1) ** before, *((new, removed) if k >= 1 else (added, new))


def _step_mismatches(b, mons):
    """The (monomial, mode, eps) at which ``eps_monomial`` (eps) or
    ``iota_monomial`` disagrees with ``_reference_step``."""
    modes = [(i, k) for k in range(b.window.kMin, b.window.kMax + 1) for i in range(b.n)]
    bad = []
    for mono in mons:
        added, removed = decode_monomial(b, mono)
        for mode in modes:
            for op, eps in ((eps_monomial, True), (iota_monomial, False)):
                hit, want = op(b, mode, mono), _reference_step(b.n, mode, added, removed, eps)
                if (hit is None) != (want is None) or hit and (hit[0], decode_monomial(b, hit[1])) != (want[0], want[1:]):
                    bad.append((mono, mode, eps))
    return bad


@pytest.mark.parametrize("which, margin, max_energy, max_particles, wide", [
    ("backend", 0, 3, None, False),   # A1 [-2,3]: every monomial of energy <= 3
    ("backend2", 1, 1, 3, True),      # an A2 slice
    ("backend_a2_m1_2", 0, 2, 2, True),   # A2 [-1,2]: its added level-2 modes sit at bits 24-31
], ids=["backend-0-3-None", "backend2-1-1-3", "backend_a2_m1_2-0-2-2"])
def test_bitmask_ops_agree_with_the_mode_tuple_reference(request, which, margin, max_energy, max_particles, wide):
    b = request.getfixturevalue(which)
    n, window = b.n, b.window
    modes = [(i, k) for k in range(window.kMin, window.kMax + 1) for i in range(n)]
    mons = oracles.monomials_in_support(b, margin, max_energy, max_particles)
    assert len(mons) > 300 and (max(mons).bit_length() > 30) == wide
    assert _step_mismatches(b, mons) == []
    for mono in mons:
        added, removed = decode_monomial(b, mono)
        assert encode_monomial(b, added, removed) == mono
        assert energy(b, mono) == sum(k for _i, k in added) - sum(k for _i, k in removed)
        assert _degree_offset(b, mono) == len(added) - len(removed)
        for mode in modes:
            for op, step in ((eps_monomial, 1), (iota_monomial, -1)):
                hit = op(b, mode, mono)
                if hit is not None:
                    assert energy(b, hit[1]) == energy(b, mono) + step * mode[1]
                    assert _degree_offset(b, hit[1]) == _degree_offset(b, mono) + step


def _doctored_row(b, mode, mask_bit=0, parity=0):
    """Clear ``mask_bit`` from the step-table mask of ``mode`` and add
    ``parity`` to its parity constant, before any move table is built."""
    assert not b.moves
    bit, mask, c, empty = b.steps[mode]
    b.steps[mode] = (bit, mask & ~mask_bit, c ^ parity, empty)
    return b


def test_a_row_missing_a_mask_bit_fails_the_identities(a1):
    """eps and iota on (0, 1) lose the sign of the mode (1, 1) just above
    it, so steps on the two modes commute instead of anticommuting: the
    Clifford check fails, and so do the commutator, d^2, Laplacian and
    adjoint checks built on those steps."""
    b = OrthonormalBackend(a1, WINDOW)
    _doctored_row(b, (0, 1), mask_bit=b.steps[1, 1][0])
    for check in (clifford_check, commutator_check, d_squared_check, laplacian_formula_check,
                  dtilde_adjoint_matrix_check):
        verdict = check(b)
        assert not verdict.skipped and not verdict.passed, verdict.identity


@pytest.mark.parametrize("bit_of", [lambda b: 0, lambda b: b.steps[1, 1][0]], ids=["bit-0", "shared-bit"])
def test_a_row_without_a_bit_of_its_own_fails_the_clifford_check(a1, bit_of):
    """A row whose bit is 0 lets eps (or iota) on its mode act twice; a row
    that shares the bit of (1, 1) puts both modes in one wedge slot.  Either
    breaks the table invariant of the Clifford check."""
    b = OrthonormalBackend(a1, WINDOW)
    _bit, mask, c, empty = b.steps[0, 1]
    b.steps[0, 1] = (bit_of(b), mask, c, empty)
    verdict = clifford_check(b)
    assert not verdict.skipped and not verdict.passed


@pytest.mark.parametrize("mode, above", [((0, 2), (1, 2)), ((0, -1), (1, -1))], ids=["added", "removed"])
def test_a_row_missing_a_mask_bit_no_quantifier_set_reaches_fails_the_clifford_check(a2, monkeypatch, mode, above):
    """On A2 [-1,2] guard 1, the mask of ``mode`` loses the bit of
    ``above``.  No capped quantifier set holds the two modes in the states
    where eps and iota on them meet, so the check of the step table is the
    only one that sees it."""
    make = fock.OrthonormalBackend

    def doctored(data, window):
        b = make(data, window)
        return _doctored_row(b, mode, mask_bit=b.steps[above][0])

    monkeypatch.setattr(fock, "OrthonormalBackend", doctored)
    suite = verify_identity_suite(a2, EnergyWindow(-1, 2, 1))
    assert [v.identity for v in suite if not v.passed and not v.skipped] == ["clifford_relations"]


@pytest.mark.parametrize("doctor", [
    lambda bit, mask, c, empty: (bit, mask, c, bit << 1),
    lambda bit, mask, c, empty: (bit, mask | bit, c, empty),
], ids=["empty-neither-0-nor-its-bit", "mask-holds-its-own-bit"])
def test_a_row_that_breaks_its_own_steps_fails_the_clifford_check(a1, doctor):
    """A row whose ``empty`` is another bit lets neither eps nor iota act on
    its mode; a row whose mask holds its own bit gives eps and iota on it
    opposite signs, so iota_x eps^x + eps^x iota_x = -1."""
    b = OrthonormalBackend(a1, WINDOW)
    b.steps[0, 1] = doctor(*b.steps[0, 1])
    verdict = clifford_check(b)
    assert not verdict.skipped and not verdict.passed and verdict.max_abs_error == 1


def test_the_adjoint_check_counts_its_energy_blocks_before_enumerating_any(monkeypatch):
    """On C3 [-1,2] the 21 removed modes of level 0 alone span 2^21
    monomials of energy 0, so every energy block of the adjoint check
    exceeds its cap.  The check must skip from the shell sizes: the spy
    fails on the first walked shell, before memory could run out."""
    b = OrthonormalBackend(build_algebra(AlgebraSpec("C", 3)), EnergyWindow(-1, 2, 1))

    def refuse(shells, e):
        raise AssertionError(f"shell {e} of {shells.sizes[e]} monomials walked")

    monkeypatch.setattr(fock._Shells, "shell", refuse)
    verdict = dtilde_adjoint_matrix_check(b)
    assert verdict.skipped and verdict.reason == "every energy block exceeds 800 monomials"


def test_only_the_built_shells_are_walked(a2, monkeypatch):
    """On A2 [-1,2] the adjoint check builds its energy-0 block (256
    monomials) and skips the energy-1 block (4,096): only the energy-0
    shell is walked."""
    walked = []
    real = fock._Shells.shell

    def spy(shells, e):
        mons = list(real(shells, e))
        walked.append((e, len(mons)))
        return iter(mons)

    monkeypatch.setattr(fock._Shells, "shell", spy)
    verdict = dtilde_adjoint_matrix_check(OrthonormalBackend(a2, EnergyWindow(-1, 2, 1)))
    assert verdict.passed and verdict.vectors == 256
    assert walked == [(0, 256)]


@pytest.mark.parametrize("series, window, failing", [
    ("a1", WINDOW, ["d_restricts_to_chevalley_eilenberg"]),
    ("a2", EnergyWindow(-1, 2, 1), []),
], ids=["a1", "a2"])
def test_a_row_with_flipped_parity_fails_only_the_cochain_check(request, monkeypatch, series, window, failing):
    """Flipping the parity of one row negates eps and iota on that mode x
    alone: that is conjugation by (-1)^{N_x}, with N_x the occupation of x,
    under which every identity among Fock operators holds.  The cochain
    check is not one of them: it applies d to the cochain monomial m as
    ``m << off``, which pins the sign of eps(m) Omega to the exact core's
    bit order, so on A1 [-2,3], where d of a level-2 mode reaches the
    flipped mode (0, 1), it fails, and it alone.  On A2 [-1,2] guard 1 its
    only block (p = 1, k = 1) maps into an empty cell, so no check fails,
    and only the comparison with the mode-tuple reference in
    ``test_bitmask_ops_agree_with_the_mode_tuple_reference`` catches it."""
    data = request.getfixturevalue(series)
    make = fock.OrthonormalBackend
    monkeypatch.setattr(fock, "OrthonormalBackend", lambda d, w: _doctored_row(make(d, w), (0, 1), parity=1))
    suite = verify_identity_suite(data, window)
    assert [v.identity for v in suite if not v.passed and not v.skipped] == failing
    assert sum(not v.skipped for v in suite) >= 10
    b = fock.OrthonormalBackend(data, window)
    assert _step_mismatches(b, oracles.monomials_in_support(b, 0, 2, 2))


def test_each_monomial_pairs_with_one_symmetric_partner(backend2):
    # the Fock pairing is symmetric and the partner map an involution
    for mono in oracles.monomials_in_support(backend2, 1, 1, 3):
        num, den, partner = fock._pairing(backend2, mono)
        assert num and den > 0 and fock._pairing(backend2, partner) == (num, den, mono)


def test_a_pass_on_no_vector_is_refused():
    with pytest.raises(InvariantError):
        IdentityVerdict("x", WINDOW, 0.0, passed=True, vectors=0)
    assert not IdentityVerdict("x", WINDOW, 1.0, passed=False, vectors=0).passed


def test_monomial_enumeration_counts(backend):
    mons = oracles.monomials_in_support(backend, 1)
    # six addable modes and six removable slots inside the guarded band
    assert len(mons) == 2 ** 6 * 2 ** 6
    capped = oracles.monomials_in_support(backend, 1, max_energy=2)
    assert all(energy(backend, m) <= 2 for m in capped)
    assert len({m for m in capped}) == len(capped)


def test_memoised_columns_match_fresh_backend(a1):
    warm = OrthonormalBackend(a1, WINDOW)
    for check in (energy_bookkeeping_check, d_squared_check, laplacian_formula_check):
        assert check(warm).passed
    fresh = OrthonormalBackend(a1, WINDOW)
    basis = check_basis(warm, WINDOW.guard, 3)
    assert len(basis) > 100
    for mono in basis:
        for i in range(warm.n):
            for k in (-1, 0, 1):
                col = warm.L(i, k)[mono]
                assert col is warm.L(i, k)[mono]
                assert dict(_pairs(col)) == dict(_pairs(fresh.L(i, k)[mono]))
        for name in ("d", "dtilde", "dstar"):
            col = getattr(warm, name)[mono]
            assert col is getattr(warm, name)[mono]
            assert dict(_pairs(col)) == dict(_pairs(getattr(fresh, name)[mono]))


def test_memoised_columns_are_read_only_and_interned(backend):
    col = backend.d[encode_monomial(backend, ((0, 1),), ((1, 0),))]
    assert col and isinstance(col, tuple)
    with pytest.raises(TypeError):
        col[0] = 1
    # all empty columns are one object
    assert backend.d[VACUUM] is backend.L(0, 1)[VACUUM] is fock._flat({})


def _with_extra_term(memo, target, amount, at=None):
    """A memo of ``memo``'s operator with the int ``amount`` added at ``at``
    (by default ``target`` itself) to its column of ``target``."""
    def column(mono):
        out = dict(_pairs(memo[mono]))
        if mono == target:
            key = target if at is None else at
            out[key] = out.get(key, 0) + amount
        return out
    return fock._Memo(column)


def test_doctored_d_fails_matrix_checks(a1):
    backend = OrthonormalBackend(a1, WINDOW)
    cols = check_basis(backend, WINDOW.guard, 3)
    target = next(m for m in cols if backend.dstar[m])
    # d is over 2s: the extra term is 1/2
    backend.d = _with_extra_term(backend.d, target, backend.alg.scale)
    d2 = d_squared_check(backend)
    lap = laplacian_formula_check(backend)
    assert not d2.passed and d2.max_abs_error >= 0.25
    assert not lap.passed and lap.max_abs_error > 0


def test_doctored_dstar_fails_transpose_check(a1):
    backend = OrthonormalBackend(a1, WINDOW)
    target = encode_monomial(backend, ((1, 1),))  # e^{e,1} Omega pairs with e^{f,1} Omega to 1
    # dtilde* is over 2se: the extra term is 1/2
    backend.dstar = _with_extra_term(backend.dstar, target, backend.alg.scale * backend.alg.gram_inv_scale)
    verdict = dtilde_adjoint_matrix_check(backend)
    assert not verdict.passed and verdict.max_abs_error >= 0.5


def test_a_doctored_L_column_fails_the_checks_that_read_the_L_memo(a1, monkeypatch):
    """d and dtilde* run the move tables of L, not its memo, so only the
    checks that read the L memo see a bad L_{0,0} column.  Adding a term at
    the guarded monomial with one hole at (2, 0) to its own column fails
    exactly three checks; ``energy_bookkeeping`` reads the move tables row
    by row, not the memo."""
    make = fock.OrthonormalBackend

    def doctored(data, window):
        b = make(data, window)
        target = encode_monomial(b, (), ((2, 0),))
        assert target in check_basis(b, window.guard, 3)
        b.Ls[0, 0] = _with_extra_term(b.L(0, 0), target, b.alg.scale)  # L is over s: the extra term is 1
        return b

    monkeypatch.setattr(fock, "OrthonormalBackend", doctored)
    suite = verify_identity_suite(a1, WINDOW)
    assert {v.identity: v.max_abs_error for v in suite if not v.passed} == {
        "laplacian_closed_form": Fraction(3, 4), "L0_commutes_with_d": 2, "mode_action_commutators": 1}
    assert not any(v.skipped for v in suite)


def test_dstar_leaving_its_energy_block_raises(a1):
    backend = OrthonormalBackend(a1, WINDOW)
    backend.dstar = _with_extra_term(backend.dstar, encode_monomial(backend, ((0, 1),)), 1, at=VACUUM)
    with pytest.raises(InvariantError):
        dtilde_adjoint_matrix_check(backend)


def test_column_checks_match_dense_products(backend):
    """Reference: the dense int products D @ D and D @ DS + DS @ D, read on
    the guarded columns, that the column-by-column checks replaced."""
    cols = check_basis(backend, WINDOW.guard, 3)[:600]

    d, ds = backend.d.__getitem__, backend.dstar.__getitem__

    inner = dict.fromkeys(cols)  # the columns and every monomial d or d~* reaches from them
    for fn in (d, ds):
        for m in cols:
            inner.update(dict.fromkeys(fn(m)[::2]))
    d_cols, ds_cols = {m: dict(_pairs(d(m))) for m in inner}, {m: dict(_pairs(ds(m))) for m in inner}
    d2_cols = {m: _apply(d, _pairs(d(m))) for m in cols}
    lap_cols = {m: _apply(d, _pairs(ds(m))) for m in cols}
    for m in cols:
        for r, c in _apply(ds, _pairs(d(m))).items():
            lap_cols[m][r] = lap_cols[m].get(r, 0) + c
    closed_cols = {m: _closed_form_monomial(backend, m) for m in cols}
    index = dict.fromkeys(inner)
    for vecs in (d_cols, ds_cols, d2_cols, lap_cols, closed_cols):
        for vec in vecs.values():
            index.update(dict.fromkeys(vec))
    index = {m: j for j, m in enumerate(index)}

    def dense(vecs, columns):
        mat = [[0] * len(columns) for _ in index]
        for j, c in enumerate(columns):
            for r, val in vecs.get(c, {}).items():
                mat[index[r]][j] = val
        return mat

    # (X @ Y)[:, at] = X @ Y[:, at], with at the guarded columns
    D, DS = dense(d_cols, list(index)), dense(ds_cols, list(index))
    D_at, DS_at = dense(d_cols, cols), dense(ds_cols, cols)
    lap = xl.mat_add(xl.matmul(D, DS_at), xl.matmul(DS, D_at))
    assert xl.matmul(D, D_at) == dense(d2_cols, cols)
    assert lap == dense(lap_cols, cols)
    # d and dtilde* are over 2s and 2se, the closed form over 4s^2 e
    want = max(abs(x - y) for row, closed in zip(lap, dense(closed_cols, cols)) for x, y in zip(row, closed))
    scale = 4 * backend.alg.scale ** 2 * backend.alg.gram_inv_scale
    assert laplacian_formula_check(backend).max_abs_error == Fraction(want, scale)


def _two_step_L_column(backend, i, k, mono):
    """Reference: L_{i,k} on one monomial as two single-mode steps per (s, p, q)
    through ``eps_monomial`` and ``iota_monomial``, in the kernel's loop order:
    per level s, over ``alg.action[i]``."""
    window = backend.window
    out = {}
    for s in range(max(window.kMin, window.kMin + k), min(window.kMax, window.kMax + k) + 1):
        for p, terms in backend.alg.action[i].items():
            for q, c in terms:  # c = -s*f_{iq}^p
                if s <= 0:
                    first = eps_monomial(backend, (q, s - k), mono)
                    second = first and iota_monomial(backend, (p, s), first[1])
                    if second:
                        oracles.accumulate(out, second[1], -c * first[0] * second[0])
                else:
                    first = iota_monomial(backend, (p, s), mono)
                    second = first and eps_monomial(backend, (q, s - k), first[1])
                    if second:
                        oracles.accumulate(out, second[1], c * first[0] * second[0])
    return out


@pytest.mark.parametrize("which, max_energy", [
    ("backend", 5),   # A1 [-2,3]: margin 0, every monomial of energy <= 5
    ("backend_a2_m1_2", 1),   # A2 [-1,2]: margin 0, energy <= 1
], ids=["a1_m2_3", "a2_m1_2"])
def test_inline_L_columns_equal_the_two_step_reference(request, which, max_energy):
    b = request.getfixturevalue(which)
    fresh = OrthonormalBackend(b.alg.data, b.window)
    mons = oracles.monomials_in_support(b, 0, max_energy)
    assert len(mons) > 4000
    for i in range(b.n):
        for k in range(-2, 3):
            L = fresh.L(i, k)
            for mono in mons:
                # equal values in the same order: later sums see the same terms
                assert list(_pairs(L[mono])) == list(_two_step_L_column(b, i, k, mono).items())
            L.clear()


def _two_step_d_column(backend, twisted, mono):
    """Reference: d (dtilde with ``twisted``) on one monomial as eps^{i,k}
    through ``eps_monomial``, then the column of L_{i,k}, in the kernel's
    loop order."""
    window = backend.window
    out = {}
    for k in range(window.kMin, window.kMax + 1):
        for i in range(backend.n):
            hit = eps_monomial(backend, (i, k), mono)
            if hit:
                sign = -hit[0] if twisted and k <= 0 else hit[0]
                for m2, c2 in _pairs(backend.L(i, k)[hit[1]]):
                    oracles.accumulate(out, m2, sign * c2)
    return out


def _two_step_dstar_column(backend, mono):
    """Reference: dtilde* on one monomial as the column of L_{i,-k}, then
    iota_{b,k} through ``iota_monomial``, in the kernel's loop order."""
    window = backend.window
    out = {}
    for k in range(window.kMin, window.kMax + 1):
        sk = 1 if k > 0 else -1
        for i, (b, x) in enumerate(backend.alg.gram_inv):
            for m1, c1 in _pairs(backend.L(i, -k)[mono]):
                hit = iota_monomial(backend, (b, k), m1)
                if hit:
                    oracles.accumulate(out, hit[1], -sk * x * c1 * hit[0])
    return out


# (backend fixture, energy cap, mode-count cap): every monomial of the window
# (margin 0) under both caps, more than 1,000 of them on each algebra
_COLUMN_SETS = [
    ("backend", 4, None),   # A1 [-2,3]
    ("backend_a2_m1_2", 1, None),   # A2 [-1,2]
    ("backend_b2_m1_2", 1, 3),   # B2 [-1,2], not simply laced
    ("backend_g2_m1_2", 2, 2),   # G2 [-1,2], structure constants up to 3
]
_COLUMN_SET_IDS = ["a1_m2_3", "a2_m1_2", "b2_m1_2", "g2_m1_2"]


@pytest.mark.parametrize("which, max_energy, max_particles", _COLUMN_SETS, ids=_COLUMN_SET_IDS)
def test_inline_d_and_dstar_columns_equal_the_step_by_step_reference(request, which, max_energy, max_particles):
    b = request.getfixturevalue(which)
    fresh = OrthonormalBackend(b.alg.data, b.window)
    mons = oracles.monomials_in_support(b, 0, max_energy, max_particles)
    assert len(mons) > 1000
    for mono in mons:
        # equal values in the same order: later sums see the same terms
        for twisted, d in enumerate((fresh.d, fresh.dtilde)):
            assert list(_pairs(d[mono])) == list(_two_step_d_column(b, twisted, mono).items())
        assert list(_pairs(fresh.dstar[mono])) == list(_two_step_dstar_column(b, mono).items())



@pytest.mark.parametrize("series, window", [
    ("a1", EnergyWindow(-2, 3, 1)),
    ("a2", EnergyWindow(-1, 2, 1)),
], ids=["a1_m2_3_g1", "a2_m1_2_g1"])
def test_one_pass_d_and_dtilde_columns_equal_the_single_twist_kernel(request, series, window):
    """On every monomial of the energy check's quantifier set, the columns
    that a memo miss files for d and dtilde in one pass equal the kernel of
    each twin's memo, unmemoised, and the step-by-step reference at each
    twist, term for term.  The first miss alternates between the twists, so
    each twin is also filed from the other's miss."""
    b = OrthonormalBackend(request.getfixturevalue(series), window)
    basis = check_basis(b, max(window.guard, 1), 4, cap=1100 if fock._small(b) else 40)
    assert len(basis) > 30
    memos = (b.d, b.dtilde)
    for j, mono in enumerate(basis):
        memos[j % 2][mono]  # the miss that files both twins
        for twisted, memo in enumerate(memos):
            want = list(memo.column(mono)[0].items())
            assert list(_pairs(memo[mono])) == want
            assert list(_two_step_d_column(b, twisted, mono).items()) == want


@pytest.mark.parametrize("which, max_energy, max_particles", _COLUMN_SETS, ids=_COLUMN_SET_IDS)
def test_dstar_equals_the_kernel_that_read_memoised_L_columns(request, which, max_energy, max_particles):
    """dtilde* runs, per term, only the part of the L_{i,-k} move table
    whose outputs iota_{b,k} keeps, memoising no L column, and gives the
    columns, term for term and in the same order, of the kernel that read
    whole L columns from the L memos and dropped what iota removes."""
    b = request.getfixturevalue(which)
    mons = oracles.monomials_in_support(b, 0, max_energy, max_particles)
    assert len(mons) > 1000
    fresh = OrthonormalBackend(b.alg.data, b.window)
    for mono in mons:
        assert list(_pairs(fresh.dstar[mono])) == list(oracles.dstar_from_memoised_L(b, mono).items())
    assert not fresh.Ls


def test_a_flipping_move_filed_in_the_even_table_fails_the_dstar_checks(a1):
    """Each dtilde* term runs its even table where iota_{b,k} can act and
    its odd table where it cannot (``_dstar_rows``).  A move that flips
    the bit of (b, k) once, filed in the even table in place of the odd
    one, never runs where its output would be kept: dtilde* loses that
    term, and both checks that read dtilde* fail.  (A copy filed in both
    tables would change nothing: by the torus grading every flipping move
    is an eps step onto (b, k), which needs the mode empty, so in the even
    table it never fires.)"""
    backend = OrthonormalBackend(a1, WINDOW)
    rows = fock._dstar_rows(backend)
    j = next(j for j, row in enumerate(rows) if row[-1])  # the first term with an odd table
    coef, bit, mask, c, empty, even, ((_gate, (move, *others)), *rest) = rows[j]
    assert ((move[0] == bit) + (move[3] == bit)) % 2 == 1
    odd = ([fock._level(others)] if others else []) + rest
    rows[j] = (coef, bit, mask, c, empty, even + [fock._level([move])], odd)
    backend.dstar = fock._Memo(partial(fock._run_dstar, rows))
    for check in (laplacian_formula_check, dtilde_adjoint_matrix_check):
        verdict = check(backend)
        assert not verdict.skipped and not verdict.passed, verdict.identity


def test_a_d_term_at_another_energy_fails_the_energy_check(a1):
    """d keeps the energy of its monomial; a doctored d, set on the
    backend, that adds a term at a monomial of another energy fails
    ``energy_bookkeeping_check``."""
    backend = OrthonormalBackend(a1, WINDOW)
    basis = check_basis(backend, WINDOW.guard, 4, cap=1100)
    target = next(m for m in basis if energy(backend, m) > 0)
    assert energy_bookkeeping_check(backend).passed
    backend.d = _with_extra_term(backend.d, target, 1, at=VACUUM)
    verdict = energy_bookkeeping_check(backend)
    assert not verdict.passed and verdict.max_abs_error == 1


@pytest.mark.parametrize("series, window", [
    ("a1", EnergyWindow(-2, 3, 1)),
    ("a2", EnergyWindow(-1, 2, 1)),
], ids=["a1_m2_3_g1", "a2_m1_2_g1"])
def test_a_move_row_at_another_energy_fails_the_energy_check(request, series, window):
    """Every row of every L_{i,k} move table is checked once, whether or
    not a monomial of the quantifier set fires it.  The first row of
    L_{0,1} fills a hole at the window's lowest level, which no guarded
    monomial has, so neither an L column nor a d column of the quantifier
    set ever runs it.  With its second step moved up one level, the row
    shifts energy by -2, not -1, and fails the check on its own."""
    b = OrthonormalBackend(request.getfixturevalue(series), window)
    (_gate, rows), *_ = fock._moves(b, 0, 1)
    bit1, need1, mask1, bit2, need2, _mask2, coef = rows[0]
    modes = {step[0]: mode for mode, step in b.steps.items()}
    (_q, low), (p, s) = modes[bit1], modes[bit2]
    assert low == window.kMin and need1 == bit1  # eps on a removed mode needs its hole
    kind = fock._iota if fock._iota(b.steps[p, s])[1] == need2 else fock._eps
    rows[0] = (bit1, need1, mask1, *kind(b.steps[p, s + 1])[:3], coef)
    verdict = energy_bookkeeping_check(b)
    assert not verdict.passed and verdict.max_abs_error == 1


def test_a_step_row_with_its_empty_state_flipped_fails_the_energy_check(a1):
    """The step row of (0, 1) with ``empty`` flipped would fill its mode by
    clearing its bit, moving energy by -1, not +1.  The move tables and d
    are built from the true rows first, so the step-row check alone sees
    it."""
    backend = OrthonormalBackend(a1, WINDOW)
    backend.d  # builds d, dtilde and every move table from the true step rows
    bit, mask, c, empty = backend.steps[0, 1]
    backend.steps[0, 1] = (bit, mask, c, bit ^ empty)
    verdict = energy_bookkeeping_check(backend)
    assert not verdict.passed and verdict.max_abs_error == 1


@pytest.mark.parametrize("series, window, size", [
    ("a1", EnergyWindow(-2, 3, 1), 1008),
    ("a2", EnergyWindow(-1, 2, 1), 40),
], ids=["a1_m2_3_g1", "a2_m1_2_g1"])
def test_the_energy_check_memoises_no_L_column(request, series, window, size):
    """The energy check reads each move table row by row, not the L memo:
    on a fresh backend it leaves no L column, and d and dtilde each hold
    exactly the columns of its quantifier set."""
    b = OrthonormalBackend(request.getfixturevalue(series), window)
    assert energy_bookkeeping_check(b).passed
    assert sum(map(len, b.Ls.values())) == 0
    assert len(b.d) == len(b.dtilde) == len(check_basis(b, 1, 4, cap=1100 if fock._small(b) else 40)) == size


def _sorted_enumeration(b, margin, max_energy):
    """Reference: every monomial in the margin-shrunk window under the energy
    cap (and the particle cap ``check_basis`` applies), fully sorted by
    (energy, monomial int)."""
    lo, hi = b.window.support(margin)
    modes = [(i, k) for k in (*range(lo, 1), *range(1, hi + 1)) for i in range(b.n)]
    sizes = range(len(modes) + 1) if len(modes) <= 18 else range(5)
    keyed = []
    for size in sizes:
        for chosen in itertools.combinations(modes, size):
            added = [m for m in chosen if m[1] >= 1]
            removed = [m for m in chosen if m[1] <= 0]
            e = sum(k for _i, k in added) - sum(k for _i, k in removed)
            if max_energy is None or e <= max_energy:
                keyed.append((e, encode_monomial(b, added, removed)))
    return [m for _e, m in sorted(keyed)]


@pytest.mark.parametrize("series, window", [
    ("a1", EnergyWindow(-2, 3, 1)),
    ("a2", EnergyWindow(-1, 2, 1)),
    ("a1", EnergyWindow(-3, 3, 2)),
    ("g2", EnergyWindow(-1, 2, 1)),
], ids=["a1_m2_3_g1", "a2_m1_2_g1", "a1_m3_3_g2", "g2_m1_2_g1"])
def test_capped_quantifier_sets_are_prefixes_of_the_sorted_enumeration(request, monkeypatch, series, window):
    """Each capped set is a prefix of the reference, and each shell's
    counted size is the number of monomials its walk yields.  G2 [-1,2]
    has 28 candidate modes, so its sets hold at most four modes each."""
    data = build_algebra(AlgebraSpec("G", 2)) if series == "g2" else request.getfixturevalue(series)
    used = set()

    def spy(b, margin, max_energy, cap=None):
        used.add((margin, max_energy, cap))
        return check_basis(b, margin, max_energy, cap)

    monkeypatch.setattr(fock, "check_basis", spy)
    verify_identity_suite(data, window)
    b = OrthonormalBackend(data, window)
    full = {key: _sorted_enumeration(b, *key) for key in {(margin, e) for margin, e, _cap in used}}
    truncated = 0
    for margin, max_energy, cap in used:
        want = full[margin, max_energy][:cap]
        assert check_basis(b, margin, max_energy, cap) == want, (margin, max_energy, cap)
        truncated += len(want) < len(full[margin, max_energy])
    for key, reference in full.items():
        shells = fock._check_shells(b, *key)
        assert [len(list(shells.shell(e))) for e in range(len(shells.sizes))] == shells.sizes, key
        assert sum(shells.sizes) == len(reference), key
    assert len(used) == 5 and truncated


def test_the_column_memo_stays_small(a1, monkeypatch):
    """The A1 [-2,3] guard-1 suite leaves each of its 10,414 memoised
    columns a flat tuple, and its backend holds at most 4 MB (about 1.9 MB;
    a read-only dict per column takes about five times as much).  The
    lower bounds keep the measurement from being vacuous: with memoisation
    off the backend holds no column and about 0.15 MB."""
    backends = []

    def keep(data, window):
        backends.append(OrthonormalBackend(data, window))
        return backends[-1]

    monkeypatch.setattr(fock, "OrthonormalBackend", keep)
    tracemalloc.start()
    try:
        assert all(v.passed for v in verify_identity_suite(a1, WINDOW))
        gc.collect()
        with_backend = tracemalloc.get_traced_memory()[0]
        b = backends[0]
        cols = [col for memo in (*b.Ls.values(), b.d, b.dtilde, b.dstar) for col in memo.values()]
        n_cols, all_tuples = len(cols), all(type(col) is tuple for col in cols)
        del cols, b
        backends.clear()
        gc.collect()
        held = with_backend - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n_cols > 9_000 and all_tuples
    assert 1_500_000 < held <= 4_000_000, held


def test_the_suite_backend_is_freed_by_reference_counting(a1, monkeypatch):
    """No reference cycle runs through the backend and its column memos, so
    the backend of a suite run is gone as soon as the run returns, without a
    garbage collection; a cycle would keep its whole memo alive until one."""
    refs = []

    def watch(data, window):
        backend = OrthonormalBackend(data, window)
        refs.append(weakref.ref(backend))
        return backend

    monkeypatch.setattr(fock, "OrthonormalBackend", watch)
    gc.collect()
    gc.disable()
    try:
        assert all(v.passed for v in verify_identity_suite(a1, WINDOW))
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
