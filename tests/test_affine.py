import random
from fractions import Fraction as F

import pytest

from jetcohom.affine import (
    AffineRoot,
    AffineWeight,
    AffineWeylGroup,
    affine_pairing,
    laplacian_shift,
    minimal_coset_reps,
    predict_cohomology,
    rho_hat,
    simple_affine_roots,
)

import oracles


def _zero(rank):
    return tuple(F(0) for _ in range(rank))


def test_pairing_examples(a1):
    one = AffineWeight(F(1), _zero(1), F(0))
    lvl = AffineWeight(F(0), _zero(1), F(1))
    assert affine_pairing(a1, one, lvl) == -1
    r = rho_hat(a1)
    rho = a1.rootSystem.rho
    assert affine_pairing(a1, r, r) == a1.weight_pairing(rho, rho)
    lam = AffineWeight(F(3), (F(2),), F(0))
    assert affine_pairing(a1, r, lam) == a1.coxeter * 3 + a1.weight_pairing(rho, (F(2),))


def test_rho_hat_values(a1, a2):
    assert rho_hat(a1) == AffineWeight(F(0), a1.rootSystem.rho, F(-2))
    assert rho_hat(a2) == AffineWeight(F(0), a2.rootSystem.rho, F(-3))


def test_pairing_symmetric_random(a2):
    rng = random.Random(1)
    for _ in range(20):
        w1 = AffineWeight(F(rng.randint(-4, 4)), tuple(F(rng.randint(-3, 3)) for _ in range(2)), F(rng.randint(-3, 3)))
        w2 = AffineWeight(F(rng.randint(-4, 4)), tuple(F(rng.randint(-3, 3)) for _ in range(2)), F(rng.randint(-3, 3)))
        assert affine_pairing(a2, w1, w2) == affine_pairing(a2, w2, w1)


def test_reflections_preserve_pairing(a2):
    group = AffineWeylGroup(a2)
    rng = random.Random(2)
    for w in group.minimal_coset_reps(3):
        for _ in range(5):
            w1 = AffineWeight(F(rng.randint(-4, 4)), tuple(F(rng.randint(-3, 3)) for _ in range(2)), F(rng.randint(-2, 2)))
            w2 = AffineWeight(F(rng.randint(-4, 4)), tuple(F(rng.randint(-3, 3)) for _ in range(2)), F(rng.randint(-2, 2)))
            assert affine_pairing(a2, w.apply(w1), w.apply(w2)) == affine_pairing(a2, w1, w2)
            assert w.apply(w1).central == w1.central


def _minimal_reps_oracle(data, max_length):
    """Independent enumeration: expand all words, keep elements whose action
    sends every finite simple root to a positive affine root."""
    group = AffineWeylGroup(data)
    rank = data.rank

    def is_positive(vec):
        k = vec[0]
        fin = vec[1:-1]
        if k > 0:
            return True
        if k < 0:
            return False
        return any(fin) and all(c >= 0 for c in fin)

    seen = {}
    frontier = {group.identity().matrix: group.identity()}
    seen.update(frontier)
    counts = {0: 1}
    current = frontier
    for length in range(1, max_length + 1):
        nxt = {}
        for elem in current.values():
            for j in range(rank + 1):
                w = group.from_word((j,) + elem.reducedWord)
                if w.matrix not in seen:
                    nxt[w.matrix] = w
        seen.update(nxt)
        minimal = 0
        for w in nxt.values():
            ok = True
            for i in range(rank):
                alpha = (F(0),) + tuple(F(1) if t == i else F(0) for t in range(rank)) + (F(0),)
                img = tuple(sum(row[j] * alpha[j] for j in range(len(alpha))) for row in w.matrix)
                if not is_positive(img):
                    ok = False
                    break
            if ok:
                minimal += 1
        counts[length] = minimal
        current = nxt
    return counts


def test_minimal_reps_counts_vs_oracle(a1, a2):
    reps1 = minimal_coset_reps(a1, 3)
    by_len = {l: sum(1 for w in reps1 if w.length == l) for l in range(4)}
    assert by_len == {0: 1, 1: 1, 2: 1, 3: 1}
    assert _minimal_reps_oracle(a1, 3) == by_len

    reps2 = minimal_coset_reps(a2, 2)
    by_len2 = {l: sum(1 for w in reps2 if w.length == l) for l in range(3)}
    assert by_len2 == {0: 1, 1: 1, 2: 2}
    assert _minimal_reps_oracle(a2, 2) == by_len2


def test_minimal_reps_trivial_and_distinct(a2):
    reps = minimal_coset_reps(a2, 0)
    assert len(reps) == 1 and reps[0].length == 0
    reps = minimal_coset_reps(a2, 3)
    # distinctness via the action on a generic weight
    generic = AffineWeight(F(1, 7), (F(2, 3), F(5, 11)), F(1))
    images = {w.apply(generic).as_vector() for w in reps}
    assert len(images) == len(reps)


def test_inversion_sets_a1(a1):
    group = AffineWeylGroup(a1)
    reps = {w.length: w for w in group.minimal_coset_reps(3)}
    theta = a1.rootSystem.theta
    neg_theta = tuple(-F(c) for c in theta)
    assert group.inversion_set(reps[0]) == []
    assert group.inversion_set(reps[1]) == [AffineRoot(1, neg_theta)]
    assert group.inversion_set(reps[2]) == [AffineRoot(1, neg_theta), AffineRoot(2, neg_theta)]
    # members of minimal-rep inversion sets have k > 0
    for w in reps.values():
        for rt in group.inversion_set(w):
            assert rt.k > 0 and rt.is_positive()


def test_inversion_set_rejects_nonreduced(a1):
    group = AffineWeylGroup(a1)
    bad = group.from_word((0, 0))
    with pytest.raises(ValueError):
        group.inversion_set(bad)


def test_rho_difference_examples(a1):
    group = AffineWeylGroup(a1)
    reps = {w.length: w for w in group.minimal_coset_reps(3)}
    assert group.rho_difference(reps[0]) == AffineWeight(F(0), (F(0),), F(0))
    assert group.rho_difference(reps[1]) == AffineWeight(F(1), (F(-1),), F(0))
    assert group.rho_difference(reps[2]) == AffineWeight(F(3), (F(-2),), F(0))
    assert group.rho_difference(reps[3]) == AffineWeight(F(6), (F(-3),), F(0))


@pytest.mark.parametrize("fix,maxlen", [("a1", 4), ("a2", 3)])
def test_inversion_sum_identity_and_zero_shift(request, fix, maxlen):
    data = request.getfixturevalue(fix)
    group = AffineWeylGroup(data)
    for w in group.minimal_coset_reps(maxlen):
        inv = group.inversion_set(w)
        assert len(inv) == w.length
        total = AffineWeight(F(0), _zero(data.rank), F(0))
        for rt in inv:
            total = total + rt.as_weight()
        diff = group.rho_difference(w)
        assert total == diff
        assert laplacian_shift(data, diff) == 0


def test_rho_difference_injective(a2):
    group = AffineWeylGroup(a2)
    reps = group.minimal_coset_reps(3)
    diffs = [group.rho_difference(w).as_vector() for w in reps]
    assert len(set(diffs)) == len(diffs)
    finites = [group.rho_difference(w).finite for w in reps]
    assert len(set(finites)) == len(finites)


def test_shift_formula_identity_random(a2):
    # P((k, lam, 0)) = -<rho,lam> + ||lam||^2/2 - c*k as an algebraic identity
    rng = random.Random(9)
    rho = a2.rootSystem.rho
    for _ in range(25):
        lam = tuple(F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(2))
        k = rng.randint(0, 7)
        w = AffineWeight(F(k), lam, F(0))
        expect = (
            -a2.weight_pairing(rho, lam)
            + a2.weight_pairing(lam, lam) / 2
            - a2.coxeter * k
        )
        assert laplacian_shift(a2, w) == expect


def test_predictions(a1, a2):
    pred1 = predict_cohomology(a1, 3)
    flat = [(p, i.energy, i.finiteDim) for p in pred1 for i in pred1[p]]
    assert flat == [(0, 0, 1), (1, 1, 3), (2, 3, 5), (3, 6, 7)]
    for p in pred1:
        for i in pred1[p]:
            assert i.lowestWeight.central == 0

    pred2 = predict_cohomology(a2, 2)
    assert [len(pred2[p]) for p in range(3)] == [1, 1, 2]
    assert sorted(i.finiteDim for i in pred2[2]) == [10, 10]
    assert {i.energy for i in pred2[2]} == {2}
    # the two length-2 summands are distinct lowest weights
    assert len({i.lowestWeight.finite for i in pred2[2]}) == 2


def test_zero_locus_matches_inversion_sums(a1, a2):
    for data, max_e, max_len in ((a1, 4, 4), (a2, 3, 3)):
        group = AffineWeylGroup(data)
        zeros = {w.as_vector() for w in oracles.zero_locus_brute_force(data, max_e)}
        expected = {
            group.rho_difference(w).as_vector()
            for w in group.minimal_coset_reps(max_len)
            if group.rho_difference(w).energy <= max_e
        }
        assert zeros == expected


def test_zero_locus_small_examples(a1):
    zl = oracles.zero_locus_brute_force(a1, 1)
    vecs = {tuple(map(str, w.as_vector())) for w in zl}
    assert vecs == {("0", "0", "0"), ("1", "-1", "0")}
    zl3 = {tuple(map(str, w.as_vector())) for w in oracles.zero_locus_brute_force(a1, 3)}
    assert zl3 == {("0", "0", "0"), ("1", "-1", "0"), ("3", "-2", "0")}


@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2)])
def test_affine_identities_non_simply_laced(series, rank):
    # with <,> = Killing/(2c) and central charge -c the affine-Weyl-vector
    # property holds for every type: the two c's cancel
    from jetcohom.liealg import AlgebraSpec, build_algebra

    data = build_algebra(AlgebraSpec(series, rank))
    group = AffineWeylGroup(data)
    for w in group.minimal_coset_reps(3):
        inv = group.inversion_set(w)
        assert len(inv) == w.length and all(rt.k > 0 for rt in inv)
        total = AffineWeight(F(0), _zero(rank), F(0))
        for rt in inv:
            total = total + rt.as_weight()
        diff = group.rho_difference(w)
        assert total == diff
        assert laplacian_shift(data, diff) == 0
    zeros = {x.as_vector() for x in oracles.zero_locus_brute_force(data, 2)}
    expected = {
        group.rho_difference(w).as_vector()
        for w in group.minimal_coset_reps(3)
        if group.rho_difference(w).energy <= 2
    }
    assert zeros == expected


def test_simple_affine_roots(a1):
    roots = simple_affine_roots(a1)
    assert roots[0] == AffineRoot(1, (F(-1),))
    assert roots[1] == AffineRoot(0, (F(1),))
    assert all(r.is_positive() for r in roots)
    assert not AffineRoot(-1, (F(1),)).is_positive()
    assert not AffineRoot(0, (F(-1),)).is_positive()
