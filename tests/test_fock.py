import numpy as np
import pytest

from jetcohom import fock
from jetcohom.cochain import InvariantError
from jetcohom.fock import (
    VACUUM,
    EnergyWindow,
    GuardViolation,
    IdentityVerdict,
    OrthonormalBackend,
    WindowViolation,
    apply_d,
    apply_d_twisted,
    apply_eps,
    apply_iota,
    apply_L,
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
    vacuum,
    vacuum_checks,
    verify_identity_suite,
    _L_monomial,
    _apply,
    _closed_form_monomial,
    _d_monomial,
    _dstar_monomial,
)

TOL = 1e-9
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
    v = vacuum()
    assert list(v) == [VACUUM]
    assert energy(backend.n, VACUUM) == 0 and degree_offset(backend.n, VACUUM) == 0


def test_vacuum_annihilation(backend):
    verdict = vacuum_checks(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_eps_iota_basics(backend):
    v = vacuum()
    up = apply_eps(backend, (0, 1), v)
    [(mono, coeff)] = up.items()
    assert energy(backend.n, mono) == 1 and degree_offset(backend.n, mono) == 1 and coeff == 1
    # iota on a monomial not containing the dual mode vanishes
    assert apply_iota(backend, (1, 2), up) == {}
    # eps twice with the same mode vanishes
    assert apply_eps(backend, (0, 1), up) == {}
    # round trip returns the vacuum
    back = apply_iota(backend, (0, 1), up)
    assert back == {VACUUM: 1 + 0j}


def test_window_violation_raised(backend):
    with pytest.raises(WindowViolation):
        apply_eps(backend, (0, 4), vacuum())
    with pytest.raises(WindowViolation):
        apply_iota(backend, (0, -3), vacuum())


def test_guard_violation_raised(backend):
    edge = {encode_monomial(backend.n, ((0, 3),)): 1.0 + 0j}  # supported at kMax
    with pytest.raises(GuardViolation):
        apply_L(backend, 0, 1, edge)
    hole = {encode_monomial(backend.n, (), ((2, -2),)): 1.0 + 0j}  # a hole at kMin
    with pytest.raises(GuardViolation):
        apply_L(backend, 0, -1, hole)
    # modes at both edges of the margin-1 band [-1, 2] are guarded
    apply_L(backend, 1, 1, {encode_monomial(backend.n, ((2, 2),), ((0, -1),)): 1.0 + 0j})
    # vacuum is guarded for any shift
    assert apply_L(backend, 0, 1, vacuum()) == {}


def test_clifford_relations(backend):
    verdict = clifford_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_mode_action_commutators(backend):
    verdict = commutator_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_cocycle_values(backend):
    measured, verdict = cocycle_check(backend, 0, 0, 1, TOL)
    assert verdict.passed
    assert abs(measured - 4.0) <= TOL  # 2c*k with c = 2, k = 1

    measured0, verdict0 = cocycle_check(backend, 0, 0, 0, TOL)
    assert verdict0.passed and abs(measured0) <= TOL

    measured_perp, verdict_perp = cocycle_check(backend, 0, 1, 1, TOL)
    assert verdict_perp.passed and abs(measured_perp) <= TOL


def test_cocycle_skip_when_guard_too_small(a1):
    _, verdict = cocycle_check(OrthonormalBackend(a1, EnergyWindow(-2, 3, 0)), 0, 0, 1, TOL)
    assert verdict.skipped and "guard" in verdict.reason


def test_L_annihilates_vacuum_for_positive_shift(backend):
    for k in (1, 2):
        for i in range(backend.n):
            out = _apply(lambda m: _L_monomial(backend, i, k, m), vacuum())
            assert out == {}


def test_energy_bookkeeping(backend):
    verdict = energy_bookkeeping_check(backend, TOL)
    assert verdict.passed


def test_L0_commutes_with_d(backend):
    verdict = l0_commutes_with_d_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_leibniz(backend):
    verdict = leibniz_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_d_matches_cochain_differential(backend):
    verdict = d_matches_cochain_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL
    assert verdict.vectors > 0


def test_d_squared_formula(backend):
    verdict = d_squared_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_d_squared_vanishes_on_cochain_sector(backend):
    # all modes k >= 1: the right-hand side needs a hole to fill
    for wedge in (((0, 1),), ((0, 1), (1, 2))):
        mono = encode_monomial(backend.n, wedge)
        vv = {mono: 1.0 + 0j}
        dd = apply_d(backend, apply_d(backend, vv))
        assert all(abs(c) <= TOL for c in dd.values())


def test_laplacian_closed_form(backend):
    verdict = laplacian_formula_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_dtilde_adjoint_is_matrix_transpose(backend):
    verdict = dtilde_adjoint_matrix_check(backend, TOL)
    assert verdict.passed and verdict.max_abs_error <= TOL


def test_closed_form_scalar_on_embedded_cochains(backend, a1):
    """On e^{l,k} ^ Omega the closed form acts by the twisted-Laplacian
    scalar of Theorem-form: casimir - c*k (the PSD pipeline value negated
    for k >= 2, zero at k = 1)."""
    from jetcohom.cochain import eigenvalue_of
    from fractions import Fraction as F

    for k, expected in ((1, 0.0), (2, float(eigenvalue_of(a1, (F(-1),), 2)))):
        for l in range(backend.n):
            v = {encode_monomial(backend.n, ((l, k),)): 1.0 + 0j}
            out = _apply(lambda m: _closed_form_monomial(backend, m), v)
            want = {m: expected * c for m, c in v.items() if expected != 0.0}
            keys = set(out) | set(want)
            err = max((abs(out.get(m, 0j) - want.get(m, 0j)) for m in keys), default=0.0)
            assert err <= TOL


def test_guard_zero_emits_skips(a1):
    suite = verify_identity_suite(a1, EnergyWindow(-2, 3, 0), TOL)
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
    suite = verify_identity_suite(a1, WINDOW, TOL)
    for v in suite:
        assert not v.skipped, v.identity
        assert v.passed, (v.identity, v.max_abs_error)


def test_backend_on_a2(backend2):
    # the orthonormalization and the paper normalizations hold beyond rank 1
    measured, verdict = cocycle_check(backend2, 0, 0, 1, TOL, max_energy=2)
    assert verdict.passed and abs(measured - 6.0) <= TOL  # 2c*k = 6 for A2


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
        assert check(warm, TOL).passed
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
        col[VACUUM] = 1.0
    # all empty columns are one object
    assert _d_monomial(backend, False, VACUUM) is _L_monomial(backend, 0, 1, VACUUM)


def _with_extra_term(fn, target):
    """``fn`` with 0.5 * target added to its column of ``target``."""
    def doctored(backend, *args):
        col = fn(backend, *args)
        if args[-1] != target:
            return col
        out = dict(col)
        out[target] = out.get(target, 0j) + 0.5
        return out
    return doctored


def test_doctored_d_fails_matrix_checks(a1, monkeypatch):
    backend = OrthonormalBackend(a1, WINDOW)
    cols = check_basis(backend, WINDOW.guard, 3)
    target = next(m for m in cols if _dstar_monomial(backend, m))
    monkeypatch.setattr(fock, "_d_monomial", _with_extra_term(_d_monomial, target))
    d2 = d_squared_check(backend, TOL)
    lap = laplacian_formula_check(backend, TOL)
    assert not d2.passed and d2.max_abs_error >= 0.25
    assert not lap.passed and lap.max_abs_error > TOL


def test_doctored_dstar_fails_transpose_check(a1, monkeypatch):
    backend = OrthonormalBackend(a1, WINDOW)
    target = encode_monomial(backend.n, ((0, 1),))
    monkeypatch.setattr(fock, "_dstar_monomial", _with_extra_term(_dstar_monomial, target))
    verdict = dtilde_adjoint_matrix_check(backend, TOL)
    assert not verdict.passed and verdict.max_abs_error >= 0.5


def test_dstar_leaving_its_energy_block_raises(a1, monkeypatch):
    backend = OrthonormalBackend(a1, WINDOW)
    target = encode_monomial(backend.n, ((0, 1),))

    def leaky(b, mono):
        col = _dstar_monomial(b, mono)
        return {**col, VACUUM: 1.0} if mono == target else col

    monkeypatch.setattr(fock, "_dstar_monomial", leaky)
    with pytest.raises(InvariantError):
        dtilde_adjoint_matrix_check(backend, TOL)


def test_column_checks_match_dense_products(backend):
    """Reference: the dense products D @ D and D @ DS + DS @ D, read on the
    guarded columns, that the column-by-column checks replaced."""
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
            lap_cols[m][r] = lap_cols[m].get(r, 0j) + c
    closed_cols = {m: _closed_form_monomial(backend, m) for m in cols}
    index = dict.fromkeys(inner)
    for vecs in (d_cols, ds_cols, d2_cols, lap_cols, closed_cols):
        for vec in vecs.values():
            index.update(dict.fromkeys(vec))
    index = {m: j for j, m in enumerate(index)}

    def dense(vecs):
        mat = np.zeros((len(index), len(index)), dtype=complex)
        for c, vec in vecs.items():
            for r, val in vec.items():
                mat[index[r], index[c]] = val
        return mat

    D, DS = dense(d_cols), dense(ds_cols)
    at = [index[m] for m in cols]
    assert np.max(np.abs((D @ D - dense(d2_cols))[:, at])) <= 1e-14
    assert np.max(np.abs((D @ DS + DS @ D - dense(lap_cols))[:, at])) <= 1e-14
    want = float(np.max(np.abs((D @ DS + DS @ D - dense(closed_cols))[:, at])))
    assert abs(laplacian_formula_check(backend, TOL).max_abs_error - want) <= 1e-14
