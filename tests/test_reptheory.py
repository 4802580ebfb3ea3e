from dataclasses import replace
from fractions import Fraction as F

import pytest

from jetcohom import reptheory
from jetcohom.cochain import build_basis, harmonic_space
from jetcohom.liealg import AlgebraSpec, build_algebra
from jetcohom.reptheory import (
    DecompositionError,
    IrrepSummand,
    antidominant_representative,
    decompose,
    dominant_multiplicities,
    dominant_weights_below,
    expand,
    irrep_character,
    is_weyl_symmetric,
    weights_of_basis,
    weyl_dim,
    weyl_orbit,
)

import oracles


def test_weights_of_trivial_cell(a1):
    basis = build_basis(a1, 0, 0)
    assert weights_of_basis(basis) == {(F(0),): 1}


def test_weights_of_a1_level_one(a1):
    basis = build_basis(a1, 1, 1)
    ws = weights_of_basis(basis)
    assert ws == {(F(-1),): 1, (F(0),): 1, (F(1),): 1}


@pytest.mark.parametrize("p,k", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)])
def test_weight_multisets_weyl_symmetric(a2, p, k):
    basis = build_basis(a2, p, k)
    ws = weights_of_basis(basis)
    assert sum(ws.values()) == len(basis)
    assert is_weyl_symmetric(a2, ws)


def test_weyl_dimension_formula(a1, a2):
    assert weyl_dim(a1, (F(1),)) == 3          # adjoint of sl2 (highest root)
    assert weyl_dim(a1, (F(2),)) == 5
    assert weyl_dim(a1, (F(3),)) == 7
    theta2 = a2.rootSystem.theta
    assert weyl_dim(a2, tuple(F(c) for c in theta2)) == 8
    # highest weight 3*omega_2 = alpha_1 + 2*alpha_2 has dimension 10
    assert weyl_dim(a2, (F(1), F(2))) == 10
    with pytest.raises(ValueError):
        weyl_dim(a2, (F(-1), F(0)))


# (a, b) of the highest weights a theta + b 2rho, on every type up to rank 4
# plus G2 and F4; F4's theta + 2rho is left out, a box of 759,050 weights
HIGHEST = ((1, 0), (2, 0), (0, 1), (1, 1))
DESCENT_CASES = [(s, r, HIGHEST) for s, r in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                                              ("C", 3), ("C", 4), ("D", 4), ("G", 2)]] + [("F", 4, HIGHEST[:3])]


@pytest.mark.parametrize("series, rank, highest", DESCENT_CASES, ids=[f"{s}{r}" for s, r, _ in DESCENT_CASES])
def test_descent_finds_the_dominant_weights_of_the_box_scan(series, rank, highest):
    """The dominant weights below a theta + b 2rho, found by descent from it,
    are those of the box scan, in the same order."""
    data = build_algebra(AlgebraSpec(series, rank))
    rs = data.rootSystem
    for a, b in highest:
        lam = tuple(a * t + b * x for t, x in zip(rs.theta, rs.two_rho))
        assert dominant_weights_below(data, lam) == oracles.dominant_weights_in_box(data, lam)


def test_weights_off_the_root_lattice_are_refused(a2):
    """The fundamental weight (2/3, 1/3) of A2 is dominant but not in the
    root lattice: the int paths raise instead of truncating its coordinates."""
    omega = (F(2, 3), F(1, 3))
    for f in (weyl_dim, dominant_weights_below, dominant_multiplicities, irrep_character):
        with pytest.raises(ValueError, match="not in the root lattice"):
            f(a2, omega)
    assert omega not in a2.weyl_dims and omega not in a2.characters


def test_freudenthal_adjoint_a2(a2):
    theta = tuple(F(c) for c in a2.rootSystem.theta)
    mults = dominant_multiplicities(a2, theta)
    zero = (F(0), F(0))
    assert mults[theta] == 1
    assert mults[zero] == 2  # Cartan multiplicity of the zero weight
    char = irrep_character(a2, theta)
    assert sum(char.values()) == 8
    assert all(m == 1 for w, m in char.items() if w != zero)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_antidominant_representative_is_the_antidominant_weight_of_the_orbit(series, rank):
    data = build_algebra(AlgebraSpec(series, rank))
    rs = data.rootSystem
    weights = [rs.rho, rs.theta, *rs.allRoots, tuple(F(i - 2 * i * i, 2) for i in range(rank))]
    for w in weights:
        low = antidominant_representative(data, w)
        antidominant = [u for u in weyl_orbit(data, w) if all(rs.pair_coroot(u, i) <= 0 for i in range(rank))]
        assert antidominant == [low]


def test_decompose_trivial(a1):
    out = decompose(a1, {(F(0),): 1})
    assert out == [IrrepSummand(lowestWeight=(F(0),), multiplicity=1, dimension=1)]


def test_decompose_adjoint_dual(a1):
    ws = weights_of_basis(build_basis(a1, 1, 1))
    out = decompose(a1, ws)
    assert out == [IrrepSummand(lowestWeight=(F(-1),), multiplicity=1, dimension=3)]


def test_decompose_harmonic_2_3(cc_a1):
    harm = harmonic_space(cc_a1, 2, 3)
    assert [(s.lowestWeight, s.multiplicity, s.dimension) for s in harm.decomposition] == [
        ((F(-2),), 1, 5)
    ]


def test_decompose_mass_and_round_trip(a2):
    for (p, k) in [(1, 1), (2, 2), (2, 3)]:
        ws = weights_of_basis(build_basis(a2, p, k))
        out = decompose(a2, ws)
        assert sum(s.multiplicity * s.dimension for s in out) == sum(ws.values())
        assert expand(a2, out) == ws


def test_decompose_rejects_non_representation(a1):
    with pytest.raises(DecompositionError):
        decompose(a1, {(F(1),): 1})  # not Weyl symmetric: missing -1 weight
    with pytest.raises(DecompositionError):
        # maximal weight not dominant
        decompose(a1, {(F(1), ) : 0, (F(-1),): 1})


def test_decompose_refuses_a_character_that_leaves_its_highest_weight(a1, monkeypatch):
    """A character without the term of its own highest weight mu would leave
    mu in the multiset and peel it forever; decompose raises instead.  The
    doctored character gives up after 100 calls, so a loop fails the test
    rather than hanging it."""
    real, calls = reptheory.irrep_character, []

    def without_mu(data, mu):
        calls.append(mu)
        if len(calls) > 100:
            raise RuntimeError("decompose keeps peeling the same weight")
        return {nu: m for nu, m in real(data, mu).items() if nu != mu}

    monkeypatch.setattr(reptheory, "irrep_character", without_mu)
    ws = weights_of_basis(build_basis(a1, 1, 1))
    with pytest.raises(DecompositionError, match="leaves its highest weight"):
        decompose(a1, ws)
    assert len(calls) == 1


def test_weyl_dim_is_memoised_on_its_algebra():
    data = build_algebra(AlgebraSpec("A", 2))
    assert weyl_dim(data, (F(2), F(2))) == 27
    assert data.weyl_dims[(F(2), F(2))] == 27
    data.weyl_dims[(F(2), F(2))] = 26  # a memo hit returns the stored value
    assert weyl_dim(data, (F(2), F(2))) == 26
    # another algebra object, also one made by replace, has its own memo
    assert weyl_dim(replace(data), (F(2), F(2))) == 27
    assert weyl_dim(build_algebra(AlgebraSpec("A", 2)), (F(2), F(2))) == 27
