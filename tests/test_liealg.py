import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from jetcohom.cochain import CellComplex
from jetcohom.fock import EnergyWindow, OrthonormalBackend
from jetcohom.liealg import (
    _jacobi_triples,
    AlgebraSpec,
    InvalidAlgebraError,
    InvariantError,
    build_algebra,
    casimir_eigenvalue,
    int_algebra,
    orthogonal_cartan,
    scaled_form,
    verify_algebra,
)
import jetcohom.exactlinalg as xl

import oracles


def test_a1_shape(a1):
    assert a1.dim == 3
    assert a1.coxeter == 2
    assert len(a1.rootSystem.positiveRoots) == 1
    # oracle: coxeter = (#roots)/rank, and height(theta) + 1
    assert (a1.dim - a1.rank) // a1.rank == a1.coxeter
    assert sum(a1.rootSystem.theta) + 1 == a1.coxeter


def test_a2_shape(a2):
    assert a2.dim == 8
    assert a2.coxeter == 3
    assert len(a2.rootSystem.positiveRoots) == 3
    assert (a2.dim - a2.rank) // a2.rank == a2.coxeter


@pytest.mark.parametrize(
    "series,rank",
    [("A", 0), ("B", 1), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 2), ("D", 2)],
)
def test_invalid_specs_rejected(series, rank):
    with pytest.raises(InvalidAlgebraError):
        AlgebraSpec(series, rank)


@pytest.mark.parametrize("series,rank,dim,cox", [
    ("B", 2, 10, 4),
    ("C", 3, 21, 6),
    ("G", 2, 14, 6),
    ("D", 4, 28, 6),
    ("A", 3, 15, 4),
    ("E", 6, 78, 12),
])
def test_other_series_build_and_verify(series, rank, dim, cox):
    data = build_algebra(AlgebraSpec(series, rank))  # build_algebra verifies invariants
    assert data.dim == dim
    assert data.coxeter == cox


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_orthogonal_cartan_is_a_valid_algebra_with_diagonal_metric(series, rank):
    data = build_algebra(AlgebraSpec(series, rank))
    rebased = orthogonal_cartan(data)
    verify_algebra(rebased)
    n, r = data.dim, data.rank
    assert all(rebased.hermGram[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    # root vectors are kept: a bracket of two of them with no Cartan part is unchanged
    for i in range(r, n):
        for j in range(r, n):
            if all(q >= r for q in data.bracket(i, j)):
                assert rebased.bracket(i, j) == data.bracket(i, j)
    assert rebased.basis_weights == data.basis_weights


def test_invariants_hold_exhaustively(a1, a2):
    # Jacobi, antisymmetry, trace identity, hermGram positivity, adjointness
    verify_algebra(a1)
    verify_algebra(a2)


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("D", 4)])
def test_the_sparse_jacobi_pass_skips_only_vanishing_triples(series, rank):
    # every Jacobi sum of a valid algebra is zero, so the skipped triples must
    # have three zero terms, not just a zero sum
    data = build_algebra(AlgebraSpec(series, rank))
    checked = set(_jacobi_triples(data.structure))
    every = set(itertools.combinations(range(data.dim), 3))
    assert checked <= every
    assert all(not any(oracles.jacobi_terms(data, *t)) for t in every - checked)
    assert oracles.jacobi_failures(data) == []



@pytest.mark.parametrize("series,rank", [("B", 2), ("G", 2)])
def test_the_streamed_jacobi_triples_are_the_collected_set_each_once(series, rank):
    data = build_algebra(AlgebraSpec(series, rank))
    streamed = list(_jacobi_triples(data.structure))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == oracles.jacobi_triple_set(data.structure)

def test_a_flipped_root_constant_on_e6_breaks_jacobi():
    e6 = build_algebra(AlgebraSpec("E", 6))
    r = e6.rank
    i, j, p = next((i, j, p) for i in range(r, e6.dim) for j, col in e6.structure[i].items()
                   for p in col if j > i and p >= r)
    structure = list(e6.structure)
    for a, b in ((i, j), (j, i)):  # antisymmetry kept
        structure[a] = {**structure[a], b: {**structure[a][b], p: -structure[a][b][p]}}
    doctored = dataclasses.replace(e6, structure=tuple(structure))
    with pytest.raises(InvariantError, match="Jacobi"):
        verify_algebra(doctored)


def test_a_flipped_omega_sign_breaks_adjointness(a2):
    omega = list(a2.omega)
    j, sgn = omega[a2.rank]
    omega[a2.rank] = (j, -sgn)
    doctored = dataclasses.replace(a2, omega=tuple(omega))
    with pytest.raises(InvariantError, match="adjointness"):
        verify_algebra(doctored)


def test_a_doctored_gram_entry_breaks_the_trace_identity(a2):
    rebased = orthogonal_cartan(a2)
    gram = [list(row) for row in rebased.gram]
    gram[0][0] += 1
    doctored = dataclasses.replace(rebased, gram=tuple(map(tuple, gram)))
    with pytest.raises(InvariantError, match="trace identity"):
        verify_algebra(doctored)


def test_scaled_form_values(a1):
    h = [F(1), F(0), F(0)]
    e = [F(0), F(1), F(0)]
    # Killing(h,h) = 8 for the sl2 coroot, divided by 2c = 4
    assert scaled_form(a1, h, h) == 2
    assert scaled_form(a1, e, e) == 0


def test_scaled_form_symmetric_and_invariant(a2):
    n = a2.dim
    basis = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert scaled_form(a2, basis[i], basis[j]) == scaled_form(a2, basis[j], basis[i])
    # invariance <[x,y],z> = <x,[y,z]> on all basis triples
    def bracket_vec(i, j):
        out = [F(0)] * n
        for p, c in a2.bracket(i, j).items():
            out[p] = F(c)
        return out

    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = scaled_form(a2, bracket_vec(i, j), basis[k])
                rhs = scaled_form(a2, basis[i], bracket_vec(j, k))
                assert lhs == rhs


def _matrix_casimir_on_adjoint(data):
    """Half of sum_{a,b} graminv[a][b] ad_a ad_b, as an exact matrix."""
    n = data.dim
    gram_inv = xl.invert([list(r) for r in data.gram])
    ads = [oracles.ad_matrix(data, i) for i in range(n)]
    out = oracles.zeros(n, n)
    for a in range(n):
        for b in range(n):
            w = gram_inv[a][b]
            if w == 0:
                continue
            out = xl.mat_add(out, oracles.scale(xl.matmul(ads[a], ads[b]), w / 2))
    return out


@pytest.mark.parametrize("fix", ["a1", "a2"])
def test_casimir_matches_matrix_oracle(request, fix):
    data = request.getfixturevalue(fix)
    theta = data.rootSystem.theta
    value = casimir_eigenvalue(data, tuple(-F(c) for c in theta))
    cas = _matrix_casimir_on_adjoint(data)
    n = data.dim
    for i in range(n):
        for j in range(n):
            assert cas[i][j] == (value if i == j else 0)


def test_casimir_trivial_and_rejection(a1):
    assert casimir_eigenvalue(a1, (F(0),)) == 0
    with pytest.raises(ValueError):
        casimir_eigenvalue(a1, (F(1),))  # +theta is not antidominant


def test_weight_form_normalization(a1, a2):
    # ||theta||^2 = 2 in the 1/(2c)-scaled Killing form for simply-laced
    for data in (a1, a2):
        th = data.rootSystem.theta
        assert data.weight_pairing(th, th) == 2
        rho = data.rootSystem.rho
        assert data.weight_pairing(rho, th) == data.coxeter - 1


def test_serialization_roundtrip_and_hash(a1):
    doc = a1.to_json_dict()
    assert doc["dim"] == 3 and doc["coxeter"] == 2
    assert doc["weight_basis"] == "simple-root coordinates"
    assert a1.content_hash() == a1.content_hash()
    rebuilt = build_algebra(AlgebraSpec("A", 1))
    assert rebuilt.content_hash() == a1.content_hash()


@pytest.fixture(scope="module", params=[("A", 1), ("A", 2), ("B", 2), ("G", 2)], ids=lambda sr: "".join(map(str, sr)))
def chevalley(request):
    return build_algebra(AlgebraSpec(*request.param))


def test_int_algebra_structure_is_the_scaled_rebased_structure(chevalley):
    alg, rebased = int_algebra(chevalley), orthogonal_cartan(chevalley)
    assert alg.data == rebased and alg.dim == rebased.dim
    assert alg.scale > 0 and all(type(c) is int for row in alg.structure for col in row.values() for c in col.values())
    scaled = tuple({q: {p: alg.scale * c for p, c in col.items()} for q, col in row.items()}
                   for row in rebased.structure)
    assert alg.structure == scaled
    assert alg.weights == chevalley.basis_weights and all(type(c) is int for w in alg.weights for c in w)


def test_int_algebra_gram_times_its_inverse_is_the_identity(chevalley):
    alg = int_algebra(chevalley)
    n = alg.dim
    G, G_inv = oracles.zeros(n, n), oracles.zeros(n, n)
    for matrix, pairs, scale in ((G, alg.gram, alg.gram_scale), (G_inv, alg.gram_inv, alg.gram_inv_scale)):
        for a, (b, x) in enumerate(pairs):
            assert type(x) is int and x
            matrix[a][b] = F(x, scale)
    assert G == [list(row) for row in alg.data.gram]
    assert xl.matmul(G, G_inv) == oracles.identity(n)


def test_int_algebra_metric_inverts_the_mode_metric(chevalley):
    alg = int_algebra(chevalley)
    herm = alg.data.hermGram
    assert len(alg.metric) == alg.dim
    assert all(type(x) is int and x * herm[i][i] == alg.metric_scale for i, x in enumerate(alg.metric))


def test_a_gram_row_with_two_partners_is_rejected(chevalley):
    gram = [list(row) for row in chevalley.gram]
    last = chevalley.dim - 1  # a root vector, which pairs only with its opposite
    gram[last][last] = F(1)
    doctored = dataclasses.replace(chevalley, gram=tuple(map(tuple, gram)))
    for build in (int_algebra, CellComplex, lambda data: OrthonormalBackend(data, EnergyWindow(-1, 2, 1))):
        with pytest.raises(InvariantError, match="exactly one partner"):
            build(doctored)


@pytest.mark.parametrize("p,k", [(1, 2), (2, 3)])
def test_differential_block_on_an_int_algebra_is_s_times_the_rational_one(chevalley, p, k):
    alg = int_algebra(chevalley)
    scaled, rational = oracles.cell_block(alg, p, k), oracles.cell_block(orthogonal_cartan(chevalley), p, k)
    assert scaled.basisIn == rational.basisIn and scaled.basisOut == rational.basisOut
    assert scaled.dMatrix and all(type(x) is int for x in scaled.dMatrix.values())
    assert scaled.dMatrix == {rc: alg.scale * x for rc, x in rational.dMatrix.items()}


def test_the_coadjoint_table_is_built_once_per_algebra(chevalley):
    # action[g][m] lists (t, -C_{gt}^m) in the order of structure[g], on the
    # Chevalley algebra and on its int algebra alike; a replaced algebra
    # gets a table of its own structure
    alg = int_algebra(chevalley)
    for data in (chevalley, alg):
        assert data.action is data.action
        want = [{} for _ in range(data.dim)]
        for g, t in itertools.product(range(data.dim), repeat=2):
            for m, c in data.structure[g].get(t, {}).items():
                want[g].setdefault(m, []).append((t, -c))
        assert data.action == want
    doubled = dataclasses.replace(
        alg, structure=tuple({t: {m: 2 * c for m, c in col.items()} for t, col in row.items()} for row in alg.structure))
    assert doubled.action == [{m: [(t, 2 * c) for t, c in terms] for m, terms in row.items()} for row in alg.action]
