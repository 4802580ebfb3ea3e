from fractions import Fraction as F

import pytest

from jetcohom.liealg import (
    AlgebraSpec,
    InvalidAlgebraError,
    build_algebra,
    casimir_eigenvalue,
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
    ads = [[[F(x) for x in row] for row in data.ad_matrix(i)] for i in range(n)]
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
