import dataclasses
import itertools
from fractions import Fraction
from functools import partial

import pytest

from jetcohom import exactlinalg as xl
from jetcohom import fock
from jetcohom.cochain import InvariantError
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
    degree_offset,
    dtilde_adjoint_matrix_check,
    encode_monomial,
    energy,
    energy_bookkeeping_check,
    eps_monomial,
    iota_monomial,
    l0_commutes_with_d_check,
    laplacian_formula_check,
    leibniz_check,
    monomials_in_support,
    vacuum_checks,
    verify_identity_suite,
    _L_monomial,
    _apply,
    _closed_form_monomial,
    _d_monomial,
    _dstar_monomial,
)

WINDOW = EnergyWindow(-2, 3, 1)


@pytest.fixture(scope="module")
def backend(a1):
    return OrthonormalBackend(a1, WINDOW)


@pytest.fixture(scope="module")
def backend2(a2):
    return OrthonormalBackend(a2, EnergyWindow(-2, 3, 1))


def test_window_validation():
    with pytest.raises(ValueError):
        EnergyWindow(1, 3, 0)
    with pytest.raises(ValueError):
        EnergyWindow(-1, 0, 0)


def test_vacuum_shape(backend):
    assert VACUUM == (0, 0) and decode_monomial(backend.n, VACUUM) == ((), ())
    assert energy(backend.n, VACUUM) == 0 and degree_offset(backend.n, VACUUM) == 0


def test_vacuum_annihilation(backend):
    verdict = vacuum_checks(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_eps_iota_basics(backend):
    n = backend.n
    coeff, up = eps_monomial(n, (0, 1), VACUUM)
    assert energy(n, up) == 1 and degree_offset(n, up) == 1 and coeff == 1
    # iota on a monomial not containing the dual mode vanishes
    assert iota_monomial(n, (1, 2), up) is None
    # eps twice with the same mode vanishes
    assert eps_monomial(n, (0, 1), up) is None
    # round trip returns the vacuum
    assert iota_monomial(n, (0, 1), up) == (1, VACUUM)


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
            assert dict(_L_monomial(backend, i, k, VACUUM)) == {}


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


def test_d_squared_formula(backend):
    verdict = d_squared_check(backend)
    assert verdict.passed and verdict.max_abs_error == 0


def test_d_squared_vanishes_on_cochain_sector(backend):
    # all modes k >= 1: the right-hand side needs a hole to fill
    for wedge in (((0, 1),), ((0, 1), (1, 2))):
        d = partial(_d_monomial, backend, False)
        assert _apply(d, d(encode_monomial(backend.n, wedge))) == {}


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
            mono = encode_monomial(backend.n, ((l, k),))
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


@pytest.mark.parametrize("which, margin, max_energy, max_particles", [
    ("backend", 0, 3, None),   # A1 [-2,3]: every monomial of energy <= 3
    ("backend2", 1, 1, 3),     # an A2 slice
])
def test_bitmask_ops_agree_with_the_mode_tuple_reference(request, which, margin, max_energy, max_particles):
    b = request.getfixturevalue(which)
    n, window = b.n, b.window
    modes = [(i, k) for k in range(window.kMin, window.kMax + 1) for i in range(n)]
    mons = monomials_in_support(b, margin, max_energy, max_particles)
    assert len(mons) > 300
    for mono in mons:
        added, removed = decode_monomial(n, mono)
        assert encode_monomial(n, added, removed) == mono
        assert energy(n, mono) == sum(k for _i, k in added) - sum(k for _i, k in removed)
        assert degree_offset(n, mono) == len(added) - len(removed)
        for mode in modes:
            for op, eps, step in ((eps_monomial, True, 1), (iota_monomial, False, -1)):
                hit, want = op(n, mode, mono), _reference_step(n, mode, added, removed, eps)
                assert (hit is None) == (want is None), (mono, mode, eps)
                if hit is not None:
                    assert hit[0] == want[0] and decode_monomial(n, hit[1]) == want[1:]
                    assert energy(n, hit[1]) == energy(n, mono) + step * mode[1]
                    assert degree_offset(n, hit[1]) == degree_offset(n, mono) + step


def test_each_monomial_pairs_with_one_symmetric_partner(backend2):
    # the Fock pairing is symmetric and the partner map an involution
    for mono in monomials_in_support(backend2, 1, 1, 3):
        num, den, partner = fock._pairing(backend2, mono)
        assert num and den > 0 and fock._pairing(backend2, partner) == (num, den, mono)


def test_a_pass_on_no_vector_is_refused():
    with pytest.raises(InvariantError):
        IdentityVerdict("x", WINDOW, 0.0, passed=True, vectors=0)
    assert not IdentityVerdict("x", WINDOW, 1.0, passed=False, vectors=0).passed


def test_monomial_enumeration_counts(backend):
    mons = monomials_in_support(backend, 1)
    # six addable modes and six removable slots inside the guarded band
    assert len(mons) == 2 ** 6 * 2 ** 6
    capped = monomials_in_support(backend, 1, max_energy=2)
    assert all(energy(backend.n, m) <= 2 for m in capped)
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
                col = _L_monomial(warm, i, k, mono)
                assert col is _L_monomial(warm, i, k, mono)
                assert dict(col) == dict(_L_monomial(fresh, i, k, mono))
        for twisted in (False, True):
            col = _d_monomial(warm, twisted, mono)
            assert col is _d_monomial(warm, twisted, mono)
            assert dict(col) == dict(_d_monomial(fresh, twisted, mono))
        col = _dstar_monomial(warm, mono)
        assert col is _dstar_monomial(warm, mono)
        assert dict(col) == dict(_dstar_monomial(fresh, mono))


def test_memoised_columns_are_read_only_and_interned(backend):
    col = _d_monomial(backend, False, encode_monomial(backend.n, ((0, 1),), ((1, 0),)))
    assert col
    with pytest.raises(TypeError):
        col[VACUUM] = 1
    # all empty columns are one object
    assert _d_monomial(backend, False, VACUUM) is _L_monomial(backend, 0, 1, VACUUM)


def _with_extra_term(fn, target, amount):
    """``fn`` with the int ``amount`` added at ``target`` to its column of ``target``."""
    def doctored(backend, *args):
        col = fn(backend, *args)
        if args[-1] != target:
            return col
        out = dict(col)
        out[target] = out.get(target, 0) + amount
        return out
    return doctored


def test_doctored_d_fails_matrix_checks(a1, monkeypatch):
    backend = OrthonormalBackend(a1, WINDOW)
    cols = check_basis(backend, WINDOW.guard, 3)
    target = next(m for m in cols if _dstar_monomial(backend, m))
    # d is over 2s: the extra term is 1/2
    monkeypatch.setattr(fock, "_d_monomial", _with_extra_term(_d_monomial, target, backend.alg.scale))
    d2 = d_squared_check(backend)
    lap = laplacian_formula_check(backend)
    assert not d2.passed and d2.max_abs_error >= 0.25
    assert not lap.passed and lap.max_abs_error > 0


def test_doctored_dstar_fails_transpose_check(a1, monkeypatch):
    backend = OrthonormalBackend(a1, WINDOW)
    target = encode_monomial(backend.n, ((1, 1),))  # e^{e,1} Omega pairs with e^{f,1} Omega to 1
    # dtilde* is over 2se: the extra term is 1/2
    amount = backend.alg.scale * backend.alg.gram_inv_scale
    monkeypatch.setattr(fock, "_dstar_monomial", _with_extra_term(_dstar_monomial, target, amount))
    verdict = dtilde_adjoint_matrix_check(backend)
    assert not verdict.passed and verdict.max_abs_error >= 0.5


def test_dstar_leaving_its_energy_block_raises(a1, monkeypatch):
    backend = OrthonormalBackend(a1, WINDOW)
    target = encode_monomial(backend.n, ((0, 1),))

    def leaky(b, mono):
        col = _dstar_monomial(b, mono)
        return {**col, VACUUM: 1} if mono == target else col

    monkeypatch.setattr(fock, "_dstar_monomial", leaky)
    with pytest.raises(InvariantError):
        dtilde_adjoint_matrix_check(backend)


def test_column_checks_match_dense_products(backend):
    """Reference: the dense int products D @ D and D @ DS + DS @ D, read on
    the guarded columns, that the column-by-column checks replaced."""
    cols = check_basis(backend, WINDOW.guard, 3)[:600]

    def d(m):
        return _d_monomial(backend, False, m)

    def ds(m):
        return _dstar_monomial(backend, m)

    inner = dict.fromkeys(cols)  # the columns and every monomial d or d~* reaches from them
    for fn in (d, ds):
        for m in cols:
            inner.update(dict.fromkeys(fn(m)))
    d_cols, ds_cols = {m: d(m) for m in inner}, {m: ds(m) for m in inner}
    d2_cols = {m: _apply(d, d(m)) for m in cols}
    lap_cols = {m: _apply(d, ds(m)) for m in cols}
    for m in cols:
        for r, c in _apply(ds, d(m)).items():
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


@pytest.fixture(scope="module")
def backend_a2_m1_2(a2):
    return OrthonormalBackend(a2, EnergyWindow(-1, 2, 1))


def _two_step_L_column(backend, i, k, mono):
    """Reference: L_{i,k} on one monomial as two single-mode steps per (s, p, q)
    through ``eps_monomial`` and ``iota_monomial``, in the kernel's loop order."""
    n, window = backend.n, backend.window
    out = {}
    for s in range(max(window.kMin, window.kMin + k), min(window.kMax, window.kMax + k) + 1):
        for p, q, cval in backend.pairs[i]:
            if s <= 0:
                first = eps_monomial(n, (q, s - k), mono)
                second = first and iota_monomial(n, (p, s), first[1])
                if second:
                    fock._accumulate(out, second[1], cval * first[0] * second[0])
            else:
                first = iota_monomial(n, (p, s), mono)
                second = first and eps_monomial(n, (q, s - k), first[1])
                if second:
                    fock._accumulate(out, second[1], -cval * first[0] * second[0])
    return out


@pytest.mark.parametrize("which, max_energy", [
    ("backend", 5),   # A1 [-2,3]: margin 0, every monomial of energy <= 5
    ("backend_a2_m1_2", 1),   # A2 [-1,2]: margin 0, energy <= 1
], ids=["a1_m2_3", "a2_m1_2"])
def test_inline_L_columns_equal_the_two_step_reference(request, which, max_energy):
    b = request.getfixturevalue(which)
    kernel = _L_monomial.__wrapped__  # unmemoised
    mons = monomials_in_support(b, 0, max_energy)
    assert len(mons) > 4000
    for mono in mons:
        for i in range(b.n):
            for k in range(-2, 3):
                # equal values in the same order: later sums see the same terms
                assert list(kernel(b, i, k, mono).items()) == list(_two_step_L_column(b, i, k, mono).items())


def _sorted_enumeration(b, margin, max_energy):
    """Reference: every monomial in the margin-shrunk window under the energy
    cap (and the particle cap ``check_basis`` applies), fully sorted by
    (energy, label)."""
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
                mono = encode_monomial(b.n, added, removed)
                label = "(+{} | -{})".format(*(" ".join(f"e[{i},{k}]" for i, k in side) or "-"
                                               for side in decode_monomial(b.n, mono)))
                keyed.append(((e, label), mono))
    keyed.sort(key=lambda km: km[0])
    return [m for _key, m in keyed]


@pytest.mark.parametrize("series, window", [
    ("a1", EnergyWindow(-2, 3, 1)),
    ("a2", EnergyWindow(-1, 2, 1)),
    ("a1", EnergyWindow(-3, 3, 2)),
], ids=["a1_m2_3_g1", "a2_m1_2_g1", "a1_m3_3_g2"])
def test_capped_quantifier_sets_are_prefixes_of_the_sorted_enumeration(request, monkeypatch, series, window):
    data = request.getfixturevalue(series)
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
    assert len(used) >= 6 and truncated
