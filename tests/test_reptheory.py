from dataclasses import replace
from fractions import Fraction as F

import pytest

from jetcohom.cochain import build_basis, harmonic_space
from jetcohom.liealg import AlgebraSpec, build_algebra
from jetcohom.reptheory import (
    DecompositionError,
    IrrepSummand,
    decompose,
    dominant_multiplicities,
    expand,
    irrep_character,
    is_weyl_symmetric,
    multiplicity_one_audit,
    weights_of_basis,
    weyl_dim,
)


def test_weights_of_trivial_cell(a1):
    basis = build_basis(a1, 0, 0)
    assert weights_of_basis(a1, basis) == {(F(0),): 1}


def test_weights_of_a1_level_one(a1):
    basis = build_basis(a1, 1, 1)
    ws = weights_of_basis(a1, basis)
    assert ws == {(F(-1),): 1, (F(0),): 1, (F(1),): 1}


@pytest.mark.parametrize("p,k", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)])
def test_weight_multisets_weyl_symmetric(a2, p, k):
    basis = build_basis(a2, p, k)
    ws = weights_of_basis(a2, basis)
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


def test_freudenthal_adjoint_a2(a2):
    theta = tuple(F(c) for c in a2.rootSystem.theta)
    mults = dominant_multiplicities(a2, theta)
    zero = (F(0), F(0))
    assert mults[theta] == 1
    assert mults[zero] == 2  # Cartan multiplicity of the zero weight
    char = irrep_character(a2, theta)
    assert sum(char.values()) == 8
    assert all(m == 1 for w, m in char.items() if w != zero)


def test_decompose_trivial(a1):
    out = decompose(a1, {(F(0),): 1})
    assert out == [IrrepSummand(lowestWeight=(F(0),), multiplicity=1, dimension=1)]


def test_decompose_adjoint_dual(a1):
    ws = weights_of_basis(a1, build_basis(a1, 1, 1))
    out = decompose(a1, ws)
    assert out == [IrrepSummand(lowestWeight=(F(-1),), multiplicity=1, dimension=3)]


def test_decompose_harmonic_2_3(a1, cc_a1):
    harm = harmonic_space(a1, 2, 3, cc_a1)
    assert [(s.lowestWeight, s.multiplicity, s.dimension) for s in harm.decomposition] == [
        ((F(-2),), 1, 5)
    ]


def test_decompose_mass_and_round_trip(a2):
    for (p, k) in [(1, 1), (2, 2), (2, 3)]:
        ws = weights_of_basis(a2, build_basis(a2, p, k))
        out = decompose(a2, ws)
        assert sum(s.multiplicity * s.dimension for s in out) == sum(ws.values())
        assert expand(a2, out) == ws


def test_decompose_rejects_non_representation(a1):
    with pytest.raises(DecompositionError):
        decompose(a1, {(F(1),): 1})  # not Weyl symmetric: missing -1 weight
    with pytest.raises(DecompositionError):
        # maximal weight not dominant
        decompose(a1, {(F(1), ) : 0, (F(-1),): 1})


def test_multiplicity_one_audit_cases(a1_report, a2_report):
    assert multiplicity_one_audit([]).passed  # vacuous

    def summands_of(report):
        out = []
        for cell in report["cells"]:
            cell_s = [
                IrrepSummand(tuple(F(x) for x in s["lowestWeight"]), s["multiplicity"], s["dim"])
                for s in cell["harmonic"]
            ]
            out.append(((cell["p"], cell["k"]), cell_s))
        return out

    audit1 = multiplicity_one_audit(summands_of(a1_report))
    assert audit1.passed
    assert audit1.lowest_weights == [(F(-3),), (F(-2),), (F(-1),), (F(0),)]

    audit2 = multiplicity_one_audit(summands_of(a2_report))
    assert audit2.passed
    assert len(audit2.lowest_weights) == 4  # trivial + adjoint + two cubics

    clash = IrrepSummand((F(-1),), 1, 3)
    bad = multiplicity_one_audit([(("x", 0), [clash]), (("y", 1), [clash])])
    assert not bad.passed and bad.violations == [((F(-1),), 2)]


def test_weyl_dim_is_memoised_on_its_algebra():
    data = build_algebra(AlgebraSpec("A", 2))
    assert weyl_dim(data, (F(2), F(2))) == 27
    assert data.weyl_dims[(F(2), F(2))] == 27
    data.weyl_dims[(F(2), F(2))] = 26  # a memo hit returns the stored value
    assert weyl_dim(data, (F(2), F(2))) == 26
    # another algebra object, also one made by replace, has its own memo
    assert weyl_dim(replace(data), (F(2), F(2))) == 27
    assert weyl_dim(build_algebra(AlgebraSpec("A", 2)), (F(2), F(2))) == 27
