import dataclasses
import functools
import itertools
import random
from fractions import Fraction as F

import pytest

import jetcohom.exactlinalg as xl
from jetcohom import cochain, report
from jetcohom.affine import AffineWeight, laplacian_shift
from jetcohom.cochain import (
    CellComplex,
    InvariantError,
    build_basis,
    eigenvalue_of,
    harmonic_space,
    isotypic_eigen_check,
    wedge_gram,
)
from jetcohom.liealg import AlgebraSpec, build_algebra, casimir_eigenvalue, int_algebra, orthogonal_cartan
from jetcohom.report import RunConfig, cmd_compute, compute_cell
from jetcohom.reptheory import decompose, weights_of_basis

import oracles


def _count_oracle(n, p, k):
    """Coefficient of x^p y^k in prod_{l=1..k} (1 + x y^l)^n."""
    poly = {(0, 0): 1}
    for level in range(1, k + 1):
        for _ in range(n):
            new = dict(poly)
            for (dp, dk), c in poly.items():
                if dk + level <= k and dp + 1 <= p:
                    key = (dp + 1, dk + level)
                    new[key] = new.get(key, 0) + c
            poly = new
    return poly.get((p, k), 0)


def test_basis_counts_against_generating_function(a1, a2):
    for data in (a1, a2):
        for p in range(0, 4):
            for k in range(0, 5):
                assert len(build_basis(data, p, k)) == _count_oracle(data.dim, p, k)


def test_basis_degenerate_cells(a1):
    assert build_basis(a1, 0, 0).monomials == (0,) and build_basis(a1, 0, 0).wedges() == ((),)
    assert len(build_basis(a1, 0, 2)) == 0
    assert len(build_basis(a1, 2, 1)) == 0  # p > k vanishes
    assert len(build_basis(a1, 1, 1)) == 3
    assert len(build_basis(a1, 2, 3)) == 9
    with pytest.raises(ValueError):
        build_basis(a1, -1, 0)


def test_basis_monomials_canonical(a2):
    basis = build_basis(a2, 2, 3)
    assert len(set(basis.monomials)) == len(basis)
    for wedge in basis.wedges():
        assert list(wedge) == sorted(wedge)
        assert sum(level for level, _ in wedge) == 3


def _ce_oracle_matrix(data, p, k):
    """Evaluate (d phi)(x_0..x_p) = sum_{r<s} (-1)^{r+s}
    phi([x_r,x_s], x_0,..,no r,..,no s,..) on all basis tuples."""
    basis_in = build_basis(data, p, k)
    basis_out = build_basis(data, p + 1, k)

    def wedge_eval(wedge, args):
        # determinant convention: (f1^..^fp)(x1..xp) = det[fi(xj)]
        mat = [[F(1) if wedge[i] == args[j] else F(0) for j in range(len(args))]
               for i in range(len(wedge))]
        return xl.det(mat)

    rows = []
    for out_wedge in basis_out.wedges():
        row = []
        for in_wedge in basis_in.wedges():
            args = list(out_wedge)
            total = F(0)
            for r in range(len(args)):
                for s in range(r + 1, len(args)):
                    (lr, ir), (ls, is_) = args[r], args[s]
                    rest = [args[t] for t in range(len(args)) if t not in (r, s)]
                    for m, c in data.bracket(ir, is_).items():
                        val = wedge_eval(in_wedge, [(lr + ls, m)] + rest)
                        if val:
                            sign = -1 if (r + s) % 2 else 1
                            total += sign * c * val
            row.append(total)
        rows.append(row)
    return rows


@pytest.mark.parametrize("p,k", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_differential_matches_ce_evaluation_oracle(a1, p, k):
    block = oracles.cell_block(a1, p, k)
    oracle = _ce_oracle_matrix(a1, p, k)
    dense = oracles.dense(block)
    assert dense == oracle


def test_differential_on_a2_matches_oracle(a2):
    block = oracles.cell_block(a2, 1, 2)
    assert oracles.dense(block) == _ce_oracle_matrix(a2, 1, 2)


def test_d_on_degree_zero_vanishes(a1):
    block = oracles.cell_block(a1, 0, 0)
    assert block.dMatrix == {}


def test_rank_of_level_two_differential(a1):
    # d: A^1(2) -> A^2(2) is injective; [a_1, a_1] pairs onto a_2
    block = oracles.cell_block(a1, 1, 2)
    assert xl.rank(oracles.dense(block)) == 3


@pytest.mark.parametrize("p,k", [(0, 0), (1, 1), (1, 2), (2, 2), (2, 3), (1, 3), (2, 4), (3, 4), (3, 6)])
def test_d_squared_zero_exact(a1, cc_a1, p, k):
    up = oracles.cell_block(cc_a1.alg, p, k)
    upup = oracles.cell_block(cc_a1.alg, p + 1, k)
    if len(up.basisIn) and len(upup.basisOut):
        assert xl.is_zero_matrix(xl.matmul(oracles.dense(upup), oracles.dense(up)))
    assert cc_a1.d_squared_zero(p, k)


def _all_pairs_gram(metric, basis):
    """Reference Gram: the determinant of pairwise mode metrics for every pair.
    Modes of different levels pair to 0, so two monomials whose level
    multisets differ give a matrix with a zero block and determinant 0."""
    return _all_pairs_gram_of(tuple(map(tuple, metric)), basis.wedges())


@functools.lru_cache(maxsize=8)  # a cell's Gram is read again for the next degree's d*
def _all_pairs_gram_of(metric, mons):
    levels = [sorted(level for level, _ in w) for w in mons]
    return [
        [xl.det([[metric[a[1]][b[1]] if a[0] == b[0] else F(0) for b in wj] for a in wi])
         if li == lj else F(0) for wj, lj in zip(mons, levels)]
        for wi, li in zip(mons, levels)
    ]


def _diagonal(entries):
    out = oracles.zeros(len(entries), len(entries))
    for i, x in enumerate(entries):
        out[i][i] = x
    return out


def test_gram_inverse_identity(cc_a1, cc_a2):
    # the inverse of a compound matrix is the compound of the inverse: the
    # all-pairs Gram of the vector metric inverts the diagonal cochain Gram,
    # which the complex keeps as ints scaled by alg.metric_scale ** p
    for cc in (cc_a1, cc_a2):
        herm = oracles.hermitian_form(cc.alg.data)
        for (p, k) in [(1, 2), (2, 3), (3, 4)]:
            mons = cc.basis(p, k).monomials
            grams = cc.gram(p, k)
            assert len(grams) == len(mons) and all(type(g) is int for g in grams)
            for w, idxs in cc.weight_blocks(p, k).items():
                inverse = _all_pairs_gram(herm, cochain.CochainBasis(p, k, tuple(mons[i] for i in idxs), cc.alg.dim))
                assert inverse == _diagonal([F(cc.alg.metric_scale ** p, grams[i]) for i in idxs]), (p, k, w)


def test_laplacian_small_cells(a1, cc_a1):
    assert cc_a1.laplacian(0, 0).columns == {0: {}}
    assert cc_a1.laplacian(1, 1).columns == {0: {}, 1: {}, 2: {}}  # harmonic cell: scalar 0
    L12 = cc_a1.laplacian(1, 2)
    assert xl.rank(_from_columns(L12.columns, 3, 3)) == 3  # H^1(2) = 0, L nonsingular
    assert L12.columns == {i: {i: 2 * L12.scale} for i in range(3)}


def test_empty_cells_take_the_one_path(a1, cc_a1, monkeypatch):
    # an empty cell has no column and no weight block: every check passes on nothing
    for p, k in [(0, 2), (2, 1), (3, 0), (4, 3)]:
        assert len(cc_a1.basis(p, k)) == 0
        harm = harmonic_space(cc_a1, p, k)
        assert harm.basis == [] and harm.weight_multiset == {} and harm.decomposition == []
        verdict = isotypic_eigen_check(cc_a1, p, k)
        assert verdict.passed and verdict.components == []
        record = compute_cell(cc_a1, p, k)
        assert (record["dim"], record["rank_d"], record["harmonic_dim"], record["harmonic"]) == (0, 0, 0, [])
        assert all(record["checks"].values())
    # d^0 at energy 2 has no column, so d^1 at energy 2 is never built
    built = []
    real = cochain.differential_block
    monkeypatch.setattr(cochain, "differential_block",
                        lambda data, basis_in, basis_out: built.append(basis_in.degree) or real(data, basis_in, basis_out))
    assert CellComplex(a1).d_squared_zero(0, 2) and built == [0]



def test_each_cell_basis_is_built_once(monkeypatch):
    """``compute`` A2 2/4 builds the basis of each (p, k) cell once: d reads
    the bases the complex keeps rather than building its own."""
    calls = []
    real = cochain.build_basis
    monkeypatch.setattr(cochain, "build_basis", lambda data, p, k: calls.append((p, k)) or real(data, p, k))
    cmd_compute(RunConfig(series="A", rank=2, maxDegree=2, maxEnergy=4))
    assert len(calls) > 10 and len(calls) == len(set(calls))


def test_each_block_of_d_is_built_once_and_not_kept(monkeypatch):
    """``compute`` A2 2/4 calls ``differential_block`` once for each block
    of d it reads, and its complex keeps d's columns but no block."""
    calls, runs = [], []
    real_block, real_complex = cochain.differential_block, report.CellComplex
    monkeypatch.setattr(cochain, "differential_block",
                        lambda data, basis_in, basis_out: calls.append((basis_in.degree, basis_in.energy))
                        or real_block(data, basis_in, basis_out))
    monkeypatch.setattr(report, "CellComplex", lambda data: runs.append(real_complex(data)) or runs[-1])
    cmd_compute(RunConfig(series="A", rank=2, maxDegree=2, maxEnergy=4))
    (cc,) = runs
    assert len(calls) > 10 and len(calls) == len(set(calls))
    assert set(calls) == {(p, k) for name, p, k in cc._kept if name == "differential"}
    held = [*vars(cc).values(), *cc._kept.values()]
    assert not any(isinstance(x, cochain.GradedComplexBlock) for x in held)


def test_each_metric_operator_is_built_once_per_cell(monkeypatch):
    """``compute`` A2 2/4 runs the bodies of ``gram``, ``codifferential``
    and ``laplacian`` once per (p, k): memo misses are counted, not the
    calls of the memoised methods, which also count the hits."""
    misses = []
    for name in ("gram", "codifferential", "laplacian"):
        body = getattr(CellComplex, name).__wrapped__

        @functools.wraps(body)
        def spy(self, p, k, body=body):
            misses.append((body.__name__, p, k))
            return body(self, p, k)

        monkeypatch.setattr(CellComplex, name, cochain._per_cell(spy))
    cmd_compute(RunConfig(series="A", rank=2, maxDegree=2, maxEnergy=4))
    assert len(misses) == len(set(misses))
    cells = {(p, k) for p in range(3) for k in range(5)}
    assert {(p, k) for name, p, k in misses if name == "laplacian"} == cells
    for name in ("gram", "codifferential"):
        assert cells <= {(p, k) for n, p, k in misses if n == name}


def test_eigenvalue_examples(a1):
    assert eigenvalue_of(a1, (F(0),), 0) == 0
    assert eigenvalue_of(a1, (F(-1),), 1) == 0
    val = eigenvalue_of(a1, (F(-1),), 2)
    # -<rho,-theta> + ||theta||^2/2 - 2c = 1 + 1 - 4, strictly nonzero
    assert val == -2
    with pytest.raises(ValueError):
        eigenvalue_of(a1, (F(1),), 1)


def test_eigenvalue_equals_affine_shift_random(a2):
    rng = random.Random(13)
    for _ in range(20):
        lam = tuple(-F(rng.randint(0, 4)) * 1 for _ in range(2))
        dom = tuple(-x for x in lam)
        # make dominant weights antidominant inputs
        k = rng.randint(0, 6)
        v = eigenvalue_of(a2, lam, k) if all(
            a2.rootSystem.pair_coroot(dom, i) >= 0 for i in range(2)
        ) else None
        if v is None:
            continue
        assert v == laplacian_shift(a2, AffineWeight(F(k), lam, F(0)))


@pytest.mark.parametrize("p,k,dim_h", [(0, 0, 1), (1, 1, 3), (2, 3, 5), (3, 6, 7), (1, 2, 0), (2, 4, 0)])
def test_harmonic_dimensions_a1(a1, cc_a1, p, k, dim_h):
    assert len(harmonic_space(cc_a1, p, k).basis) == dim_h


def test_harmonic_kernel_vectors_exact(a1, cc_a1):
    harm = harmonic_space(cc_a1, 2, 3)
    laplacian = cc_a1.laplacian(2, 3).columns
    labels = cc_a1.weights(2, 3)
    assert len(harm.basis) == 5
    for vec in harm.basis:
        assert vec and all(type(x) is int and x for x in vec.values())  # sparse int vectors
        assert len({labels[j] for j in vec}) == 1  # supported on one weight block
        assert cochain._apply(laplacian, vec) == {}


@pytest.mark.parametrize("p,k", [(0, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 6)])
def test_isotypic_eigen_exact_a1(a1, cc_a1, p, k):
    verdict = isotypic_eigen_check(cc_a1, p, k)
    assert verdict.passed, verdict
    assert verdict.minimal_polynomial_ok and verdict.laplacian_matches_casimir
    # positivity of the PSD Laplacian scalars
    for _lw, scalar in verdict.components:
        assert scalar >= 0


def test_isotypic_detects_nonharmonic_component(a1, cc_a1):
    verdict = isotypic_eigen_check(cc_a1, 1, 2)
    assert verdict.passed
    [(lw, scalar)] = verdict.components
    assert lw == (F(-1),) and scalar == 2  # nonzero scalar, no harmonic part


def test_wedge_gram_positive_definite(cc_a1, cc_a2):
    # a diagonal Gram is positive definite when its entries are positive
    for cc in (cc_a1, cc_a2):
        for (p, k) in [(1, 1), (2, 3)]:
            assert all(g > 0 for g in cc.gram(p, k))


@pytest.mark.parametrize("series", ["A", "B"])
def test_wedge_gram_matches_all_pairs_determinants(series):
    data = orthogonal_cartan(build_algebra(AlgebraSpec(series, 2)))
    basis = build_basis(data, 2, 3)
    herm = oracles.hermitian_form(data)
    for metric in (herm, xl.invert(herm)):
        diagonal = [metric[i][i] for i in range(data.dim)]
        assert _diagonal(wedge_gram(diagonal, basis)) == _all_pairs_gram(metric, basis)


@pytest.mark.parametrize("series,rank,max_p,max_k", [("A", 1, 3, 6), ("A", 2, 2, 4)])
def test_rank_d_matches_dense_rank(series, rank, max_p, max_k):
    cc = CellComplex(build_algebra(AlgebraSpec(series, rank)))
    for p in range(max_p + 1):
        for k in range(max_k + 1):
            assert cc.rank_d(p, k) == xl.rank(oracles.dense(oracles.cell_block(cc.alg, p, k))), (p, k)


def _cross_weight_pair(cc, p, k):
    labels = cc.weights(p, k)
    return next((i, j) for i in range(len(labels)) for j in range(len(labels)) if labels[i] != labels[j])




def _whole_cell_reference(cc, p, k):
    """Whole-cell dense Grams as all-pairs determinants on the rebased
    algebra, the rational d (from ``differential_block`` on that algebra,
    not from the complex), d* = G^-1 d^T G and L = d*d + dd* of cell (p, k)."""
    data = cc.alg.data
    herm = oracles.hermitian_form(data)
    dual = xl.invert(herm)

    def dstar(q):
        d = oracles.cell_block(data, q, k)
        if not len(d.basisIn) or not len(d.basisOut):
            return None
        gram_out = _all_pairs_gram(dual, build_basis(data, q + 1, k))
        gram_in_inv = _all_pairs_gram(herm, build_basis(data, q, k))
        return xl.matmul(gram_in_inv, xl.matmul([list(col) for col in zip(*oracles.dense(d))], gram_out))

    basis = build_basis(data, p, k)
    L = oracles.zeros(len(basis), len(basis))
    up = dstar(p)
    if up is not None:
        L = xl.mat_add(L, xl.matmul(up, oracles.dense(oracles.cell_block(data, p, k))))
    down = dstar(p - 1) if p > 0 else None
    if down is not None:
        L = xl.mat_add(L, xl.matmul(oracles.dense(oracles.cell_block(data, p - 1, k)), down))
    return _all_pairs_gram(dual, basis), up, L


def _embed(blocks, rows, cols):
    """Whole-cell matrix with each weight block in place and zeros elsewhere."""
    out = oracles.zeros(sum(map(len, rows.values())), sum(map(len, cols.values())))
    for w, m in blocks.items():
        for a, i in enumerate(rows[w]):
            for b, j in enumerate(cols[w]):
                out[i][j] = m[a][b]
    return out


def _all_ints(op):
    return all(type(x) is int for col in op.columns.values() for x in col.values())


def _from_columns(op, rows, cols):
    """Dense matrix of a sparse operator {col: {row: entry}}."""
    out = oracles.zeros(rows, cols)
    for c, col in op.items():
        for r, x in col.items():
            out[r][c] = x
    return out


@pytest.mark.parametrize("series,rank,max_p,max_k", [("A", 1, 3, 6), ("A", 2, 2, 4)])
def test_weight_blocks_match_whole_cell_reference(series, rank, max_p, max_k):
    cc = CellComplex(build_algebra(AlgebraSpec(series, rank)))
    for p in range(max_p + 1):
        for k in range(max_k + 1):
            if not len(cc.basis(p, k)):
                continue
            G, dstar, L = _whole_cell_reference(cc, p, k)
            groups = cc.weight_blocks(p, k)
            n, n_out = len(cc.basis(p, k)), len(cc.basis(p + 1, k))
            lap, d, star = cc.laplacian(p, k), cc.differential(p, k), cc.codifferential(p, k)
            blocks = {w: cochain._dense_block(lap.columns, idxs, idxs) for w, idxs in groups.items()}
            assert _diagonal(cc.gram(p, k)) == oracles.scale(G, cc.alg.metric_scale ** p), (p, k)
            assert _embed(blocks, groups, groups) == oracles.scale(L, lap.scale), (p, k)
            assert _from_columns(lap.columns, n, n) == oracles.scale(L, lap.scale), (p, k)
            d_ref = oracles.dense(oracles.cell_block(cc.alg.data, p, k))
            assert _from_columns(d.columns, n_out, n) == oracles.scale(d_ref, d.scale), (p, k)
            if dstar is not None:
                assert _from_columns(star.columns, n, n_out) == oracles.scale(dstar, star.scale), (p, k)
            for op in (lap, d, star):
                assert op.scale > 0 and _all_ints(op), (p, k)


def _dope_d(monkeypatch, p, k, r, c):
    """Add 1 at (r, c) of every block of d^p at energy k that
    ``differential_block`` builds from now on."""
    real = cochain.differential_block

    def doped(data, basis_in, basis_out):
        block = real(data, basis_in, basis_out)
        if (basis_in.degree, basis_in.energy) == (p, k):
            block.dMatrix[(r, c)] = block.dMatrix.get((r, c), 0) + 1
        return block

    monkeypatch.setattr(cochain, "differential_block", doped)


def _cross_weight_d_entry(cc, p, k, monkeypatch):
    """Dope d^p at energy k with an entry joining two different weights."""
    w_in, w_out = cc.weights(p, k), cc.weights(p + 1, k)
    r, c = next((r, c) for r in range(len(w_out)) for c in range(len(w_in)) if w_out[r] != w_in[c])
    _dope_d(monkeypatch, p, k, r, c)


def test_rank_d_rejects_a_weight_changing_entry(a1, monkeypatch):
    cc = CellComplex(a1)
    _cross_weight_d_entry(cc, 1, 2, monkeypatch)
    with pytest.raises(InvariantError):
        cc.rank_d(1, 2)


def test_harmonic_space_rejects_a_weight_changing_laplacian(a1, monkeypatch):
    # a cross-weight entry of L can only come from d or the metric:
    # a weight-changing d is refused wherever its blocks are cut
    cc = CellComplex(a1)
    _cross_weight_d_entry(cc, 1, 2, monkeypatch)
    with pytest.raises(InvariantError):
        cc.laplacian(1, 2)
    with pytest.raises(InvariantError):
        harmonic_space(cc, 2, 2)


def test_metric_class_mixing_two_weights_is_rejected(a1):
    # pair e and f each with itself: then hermGram(e, f) = hermGram(f, e) = 1/4,
    # and e and f have opposite weights
    gram = list(a1.gram)
    gram[1], gram[2] = {1: F(1, 4)}, {2: F(1, 4)}
    doctored = dataclasses.replace(a1, gram=tuple(gram))
    herm = oracles.hermitian_form(doctored)
    assert herm[1][2] == herm[2][1] == F(1, 4)
    with pytest.raises(InvariantError, match="not diagonal"):
        orthogonal_cartan(doctored)
    with pytest.raises(InvariantError, match="not diagonal"):
        CellComplex(doctored)


def test_isotypic_check_rejects_cross_weight_entries(a1, monkeypatch):
    real_casimir = cochain.casimir_matrix
    i, j = _cross_weight_pair(CellComplex(a1), 2, 3)

    def doctored_casimir(tables, basis):
        C = real_casimir(tables, basis)
        C.columns[j][i] = C.columns[j].get(i, 0) + 1
        return C

    monkeypatch.setattr(cochain, "casimir_matrix", doctored_casimir)
    verdict = isotypic_eigen_check(CellComplex(a1), 2, 3)
    assert not verdict.weight_blocked and not verdict.passed


def test_isotypic_check_rejects_a_laplacian_doctored_inside_a_block(a1):
    cc = CellComplex(a1)
    L = cc.laplacian(2, 3).columns
    L[0][0] = L[0].get(0, 0) + 1  # a diagonal entry lies inside a weight block
    verdict = isotypic_eigen_check(cc, 2, 3)
    assert verdict.weight_blocked and not verdict.passed
    assert not verdict.laplacian_matches_casimir


def _without_top_casimir_value(monkeypatch):
    """Make ``isotypic_eigen_check`` predict every Casimir value but the largest."""
    real = cochain.decompose

    def doctored(data, multiset):
        summands = real(data, multiset)
        top = max(casimir_eigenvalue(data, s.lowestWeight) for s in summands)
        return [s for s in summands if casimir_eigenvalue(data, s.lowestWeight) != top]

    monkeypatch.setattr(cochain, "decompose", doctored)


def test_minimal_polynomial_check_rejects_a_missing_casimir_value(a1, monkeypatch):
    _without_top_casimir_value(monkeypatch)
    verdict = isotypic_eigen_check(CellComplex(a1), 2, 3)
    assert not verdict.minimal_polynomial_ok
    assert verdict.laplacian_matches_casimir
    assert not verdict.passed


def _dense_casimir_reference(data, basis):
    """C = sum_{a,b} (G^-1)_{ab} / 2 * A_a A_b as a dense Fraction matrix.  The
    coadjoint action A_a replaces one factor e^{m,l} of a wedge by
    -sum_b C_{ab}^m e^{b,l} and sorts the result, counting transpositions."""
    wedges = basis.wedges()
    index = {w: i for i, w in enumerate(wedges)}
    n = len(basis)

    def action(a):
        A = oracles.zeros(n, n)
        for col, wedge in enumerate(wedges):
            for j, (level, m) in enumerate(wedge):
                for b, coeffs in data.structure[a].items():
                    if m not in coeffs:
                        continue
                    new = list(wedge)
                    new[j] = (level, b)
                    if len(set(new)) < len(new):
                        continue
                    inversions = sum(x > y for x, y in itertools.combinations(new, 2))
                    A[index[tuple(sorted(new))]][col] -= (-1) ** inversions * coeffs[m]
        return A

    actions = [action(a) for a in range(data.dim)]
    gram_inv = xl.invert(oracles.dense_form(data.gram))
    C = oracles.zeros(n, n)
    for a, row in enumerate(gram_inv):
        for b, w in enumerate(row):
            if w:
                for i, prod_row in enumerate(xl.matmul(actions[a], actions[b])):
                    for j, x in enumerate(prod_row):
                        if x:
                            C[i][j] += w / 2 * x
    return C


@pytest.mark.parametrize("series,rank,max_p,max_k", [("A", 2, 2, 4), ("B", 2, 2, 4), ("G", 2, 2, 2)])
def test_integer_operators_are_scaled_dense_references(series, rank, max_p, max_k):
    # L_int = lambda * L and C_int = gamma * C on every cell, against the
    # dense Fraction references: all-pairs Grams for L, sorted wedges for C
    cc = CellComplex(build_algebra(AlgebraSpec(series, rank)))
    for k in range(max_k + 1):
        for p in range(max_p + 1):
            basis = cc.basis(p, k)
            n = len(basis)
            if not n:
                continue
            _G, _dstar, L_ref = _whole_cell_reference(cc, p, k)
            lap = cc.laplacian(p, k)
            C = cochain.casimir_matrix(cc.casimir_tables, basis)
            assert _all_ints(lap) and _all_ints(C), (p, k)
            assert _from_columns(lap.columns, n, n) == oracles.scale(L_ref, lap.scale), (p, k)
            assert _from_columns(C.columns, n, n) == oracles.scale(_dense_casimir_reference(cc.alg.data, basis), C.scale), (p, k)


def test_a_laplacian_scale_off_by_two_is_rejected(a1):
    cc = CellComplex(a1)
    cc.laplacian(2, 3).scale *= 2
    verdict = isotypic_eigen_check(cc, 2, 3)
    assert verdict.weight_blocked and verdict.minimal_polynomial_ok
    assert not verdict.laplacian_matches_casimir and not verdict.passed


@pytest.mark.parametrize("factor", [3, 4])
def test_laplacian_is_independent_of_how_its_terms_are_scaled(a2, factor):
    # d* of the lower degree written as (factor * S) / (factor * sigma) is the
    # same operator, so L must come out the same
    p, k = 2, 3
    L = CellComplex(a2).laplacian(p, k)
    cc = CellComplex(a2)
    star = cc.codifferential(p - 1, k)
    star.columns = {c: {r: factor * x for r, x in col.items()} for c, col in star.columns.items()}
    star.scale *= factor
    rescaled = cc.laplacian(p, k)
    assert {c: {r: F(x, L.scale) for r, x in col.items()} for c, col in L.columns.items()} == \
        {c: {r: F(x, rescaled.scale) for r, x in col.items()} for c, col in rescaled.columns.items()}


def test_a_basis_weight_that_is_not_integral_is_rejected(a1):
    weights = list(a1.basis_weights)
    weights[-1] = (F(-3, 2),)
    with pytest.raises(InvariantError, match="integral"):
        CellComplex(dataclasses.replace(a1, basis_weights=tuple(weights)))


def _dense_minimal_polynomial_ok(cc, p, k, values):
    """Reference: prod_v (C - v) = 0 as a dense Fraction product over the whole cell."""
    basis = cc.basis(p, k)
    n = len(basis)
    C = _dense_casimir_reference(cc.alg.data, basis)
    factors = [[[x - v if i == j else x for j, x in enumerate(row)] for i, row in enumerate(C)] for v in values]
    return xl.is_zero_matrix(functools.reduce(xl.matmul, factors, oracles.identity(n)))


@pytest.mark.parametrize("series,rank,max_p,max_k", [("A", 1, 3, 6), ("A", 2, 2, 4)])
def test_minimal_polynomial_check_matches_dense_reference(series, rank, max_p, max_k, monkeypatch):
    data = build_algebra(AlgebraSpec(series, rank))
    cc = CellComplex(data)
    cells = [(p, k) for p in range(max_p + 1) for k in range(max_k + 1) if len(cc.basis(p, k))]
    values = {
        cell: sorted({casimir_eigenvalue(data, s.lowestWeight)
                      for s in decompose(data, weights_of_basis(data, cc.basis(*cell)))})
        for cell in cells
    }
    for p, k in cells:
        verdict = isotypic_eigen_check(cc, p, k)
        assert verdict.minimal_polynomial_ok == _dense_minimal_polynomial_ok(cc, p, k, values[(p, k)]) is True
    _without_top_casimir_value(monkeypatch)
    for p, k in cells:
        verdict = isotypic_eigen_check(cc, p, k)
        assert verdict.minimal_polynomial_ok == _dense_minimal_polynomial_ok(cc, p, k, values[(p, k)][:-1]) is False


def test_d_squared_check_rejects_a_weight_preserving_entry(a1, monkeypatch):
    p, k = 1, 4
    cc = CellComplex(a1)
    hit = sorted({r for r, _c in oracles.cell_block(cc.alg, p, k).dMatrix})  # rows of d^p with a nonzero entry
    w_in, w_out = cc.weights(p + 1, k), cc.weights(p + 2, k)
    r, c = next((r, c) for c in hit for r in range(len(w_out)) if w_out[r] == w_in[c])
    _dope_d(monkeypatch, p + 1, k, r, c)  # adds row c of d^p to row r of d^{p+1} d^p
    assert not cc.d_squared_zero(p, k)
    assert compute_cell(cc, p, k)["checks"]["d_squared_zero"] is False
    monkeypatch.undo()
    assert CellComplex(a1).d_squared_zero(p, k)


def test_laplacian_rejects_a_codifferential_that_is_not_an_adjoint(a1):
    cc = CellComplex(a1)
    i, col = next(iter(cc.differential(1, 3).columns.items()))
    r = next(iter(col))
    j = next(j for j in range(len(cc.basis(2, 3))) if j != r)
    star = cc.codifferential(1, 3).columns.setdefault(j, {})
    star[i] = star.get(i, 0) + 1  # adds d e_i to column j of dd* but not to row j
    with pytest.raises(InvariantError, match="self-adjoint"):
        cc.laplacian(2, 3)


def test_harmonic_space_rejects_ranks_that_break_hodge_consistency(a1):
    cc = CellComplex(a1)
    ranks = cc.block_ranks(2, 3)
    ranks[next(iter(ranks))] += 1
    with pytest.raises(InvariantError, match="Hodge"):
        harmonic_space(cc, 2, 3)


@pytest.mark.parametrize("doped,message", [("d", "not closed"), ("d*", "not co-closed")])
def test_harmonic_space_rejects_an_operator_doped_on_a_harmonic_vector(a1, doped, message):
    p, k = 2, 3
    cc = CellComplex(a1)
    j = min(harmonic_space(cc, p, k).basis[0])
    # L and the ranks are kept from the first call; only the doped operator changes
    col = (cc.differential(p, k) if doped == "d" else cc.codifferential(p - 1, k)).columns.setdefault(j, {})
    col[0] = col.get(0, 0) + 1
    with pytest.raises(InvariantError, match=message):
        harmonic_space(cc, p, k)


@pytest.mark.parametrize("series,rank,max_p,max_k", [("A", 1, 3, 6), ("A", 2, 2, 4), ("B", 2, 2, 4), ("G", 2, 2, 4)])
def test_int_core_matches_the_tuple_oracles(series, rank, max_p, max_k):
    # on every cell: the decoded int basis is the tuple basis in the same
    # order, the int d is the tuple d, and the table Casimir is the
    # action-product Casimir, columns and scale
    alg = int_algebra(build_algebra(AlgebraSpec(series, rank)))
    tables = cochain.CasimirTables(alg)
    for k in range(max_k + 1):
        for p in range(max_p + 1):
            block = oracles.cell_block(alg, p, k)
            assert block.basisIn.wedges() == oracles.tuple_basis(alg, p, k), (p, k)
            assert block.basisOut.wedges() == oracles.tuple_basis(alg, p + 1, k), (p, k)
            assert block.dMatrix == oracles.tuple_differential(alg, p, k), (p, k)
            C, ref = cochain.casimir_matrix(tables, block.basisIn), oracles.tuple_casimir(alg, block.basisIn.wedges())
            assert (C.columns, C.scale) == (ref.columns, ref.scale), (p, k)


@pytest.mark.parametrize("series, rank, lo, hi", [("A", 1, -2, 3), ("A", 2, -1, 2), ("B", 2, -1, 2), ("G", 2, -2, 3)])
def test_split_mode_over_a_window_matches_the_tuple_split(series, rank, lo, hi):
    # on every mode of the window: each term of split_mode is one sorted
    # wedge of two modes, each pair comes once, and the signed wedges are
    # the ordered-pair reference's
    alg = int_algebra(build_algebra(AlgebraSpec(series, rank)))
    for level in range(lo, hi + 1):
        for m in range(alg.dim):
            terms = cochain.split_mode(alg.action, m, level, lo, hi)
            wedges = {((l1, a), (l2, b)): c for a, l1, b, l2, c in terms}
            assert len(wedges) == len(terms) and all(u < v for u, v in wedges), (m, level)
            assert wedges == oracles.tuple_split(alg, m, level, lo, hi), (m, level)


def test_casimir_tables_assume_no_symmetry_of_the_inverse_form(a2):
    # with (G^-1)_{ab} != (G^-1)_{ba} on one pair, the one- and two-body
    # rows still sum to sum_a (G^-1)_{ab} / 2 * A_a A_b
    alg = int_algebra(a2)
    a = next(a for a, (b, _w) in enumerate(alg.gram_inv) if a != b)
    gram_inv = list(alg.gram_inv)
    gram_inv[a] = (gram_inv[a][0], 3 * gram_inv[a][1])
    doctored = dataclasses.replace(alg, gram_inv=tuple(gram_inv))
    tables, doctored_tables = cochain.CasimirTables(alg), cochain.CasimirTables(doctored)
    for p, k in [(1, 2), (2, 3), (2, 4)]:
        basis = build_basis(alg, p, k)
        C, ref = cochain.casimir_matrix(doctored_tables, basis), oracles.tuple_casimir(doctored, basis.wedges())
        assert (C.columns, C.scale) == (ref.columns, ref.scale), (p, k)
        assert C.columns != cochain.casimir_matrix(tables, basis).columns


@pytest.mark.parametrize("body", ["one-body", "two-body"])
def test_isotypic_check_rejects_a_casimir_table_entry_off_by_one(a1, body):
    p, k = 2, 3
    cc = CellComplex(a1)  # a fresh run, so the doctored tables are its own
    mono = cc.basis(p, k).monomials[0]
    b1, b2 = (b for b in range(mono.bit_length()) if mono >> b & 1)
    tables = cc.casimir_tables
    if body == "one-body":
        rest, row = mono ^ 1 << b1, tables.one_body(b1)
    else:
        rest, row = mono ^ 1 << b1 ^ 1 << b2, tables.two_body(b1, b2)
    i = next(i for i, (new, _mask, _c) in enumerate(row) if not rest & new)  # a term of this monomial
    new, mask, c = row[i]
    row[i] = (new, mask, c + 1)
    verdict = isotypic_eigen_check(cc, p, k)
    assert not verdict.laplacian_matches_casimir and not verdict.passed
    assert isotypic_eigen_check(CellComplex(a1), p, k).passed
