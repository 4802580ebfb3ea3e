"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion is zero tolerance, the windowed operator suite included:
it compares exact rationals.
"""

import random
from fractions import Fraction as F

import pytest

from jetcohom.affine import AffineWeight, AffineWeylGroup, laplacian_shift
from jetcohom.cochain import eigenvalue_of, isotypic_eigen_check
from jetcohom.fock import EnergyWindow, OrthonormalBackend, cocycle_check, verify_identity_suite
from jetcohom.liealg import casimir_eigenvalue
from jetcohom.reptheory import expand, is_weyl_symmetric, weights_of_basis
import jetcohom.exactlinalg as xl

import oracles


def _report_line(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_a1_end_to_end(a1_report):
    """A1: H^0(0)=1, H^1(1)=3, H^2(3)=5, H^3(6)=7, zero elsewhere, exact."""
    betti = {(c["p"], c["k"]): c["harmonic_dim"] for c in a1_report["cells"]}
    expected = {(0, 0): 1, (1, 1): 3, (2, 3): 5, (3, 6): 7}
    ok = all(betti[cell] == expected.get(cell, 0) for cell in betti)
    ok = ok and len(betti) == 4 * 7
    ok = ok and all(a1_report["matchVerdict"].values())
    _report_line(1, ok, "A1 betti table 1,3,5,7 at energies 0,1,3,6 matches prediction exactly")


def test_criterion_2_a2_end_to_end(a2_report):
    """A2: computed cells match predictions including both length-2 summands;
    the multiplicity-one audit passes."""
    ok = all(a2_report["matchVerdict"].values())
    cell22 = next(c for c in a2_report["cells"] if (c["p"], c["k"]) == (2, 2))
    dims = sorted(s["dim"] for s in cell22["harmonic"])
    lowests = {tuple(s["lowestWeight"]) for s in cell22["harmonic"]}
    ok = ok and dims == [10, 10] and len(lowests) == 2
    ok = ok and a2_report["exact_suite"]["multiplicity_one"]["pass"]
    _report_line(2, ok, "A2 cell-by-cell match with two distinct length-2 summands; audit passes")


def test_criterion_3_identity_suite(a1):
    """Fock suite on window [-2,3] guard 1: Clifford, commutators, cocycle
    (= 2c*k*G_00 = 8 at k=1), d^2 formula, closed-form Laplacian, all exact."""
    window = EnergyWindow(-2, 3, 1)
    suite = verify_identity_suite(a1, window)
    by_name = {v.identity: v for v in suite}
    needed = [
        "clifford_relations",
        "mode_action_commutators",
        "d_squared_closed_form",
        "laplacian_closed_form",
    ]
    ok = all(not by_name[n].skipped and by_name[n].passed for n in needed)
    backend = OrthonormalBackend(a1, window)
    measured, verdict = cocycle_check(backend, 0, 0, 1)
    ok = ok and verdict.passed and measured == 8
    ok = ok and all(v.passed for v in suite if not v.skipped)
    _report_line(3, ok, f"identity suite green, exactly; cocycle scalar = {measured}")


def test_criterion_4_eigenvalue_consistency(a1, a2, cc_a1, cc_a2):
    """Every isotypic component of every computed cell: the exact Laplacian
    acts by the exact scalar, and the Theorem-form scalar equals the affine
    pairing form identically.  Zero tolerance."""
    ok = True
    for data, cc, max_p, max_k in ((a1, cc_a1, 3, 6), (a2, cc_a2, 2, 4)):
        for p in range(max_p + 1):
            for k in range(max_k + 1):
                verdict = isotypic_eigen_check(cc, p, k)
                ok = ok and verdict.passed
                for lw, scalar in verdict.components:
                    # PSD scalar is minus the closed-form eigenvalue
                    ok = ok and scalar == -eigenvalue_of(data, lw, k)
    # formula identity on random antidominant weights and energies
    rng = random.Random(23)
    for _ in range(40):
        data = rng.choice([a1, a2])
        # -lambda = nonnegative combination of fundamental weights (columns
        # of the inverse Cartan matrix in simple-root coordinates)
        cartan_inv = xl.invert([[F(x) for x in row] for row in data.rootSystem.cartan])
        coeffs = [rng.randint(0, 4) for _ in range(data.rank)]
        lam = tuple(
            -sum(coeffs[q] * cartan_inv[j][q] for q in range(data.rank))
            for j in range(data.rank)
        )
        k = rng.randint(0, 8)
        theorem_form = casimir_eigenvalue(data, lam) - data.coxeter * k
        creme_form = laplacian_shift(data, AffineWeight(F(k), lam, F(0)))
        ok = ok and theorem_form == creme_form
    _report_line(4, ok, "exact Laplacian scalars agree with both eigenvalue formulas, zero tolerance")


def test_criterion_5_zero_locus(a1, a2):
    """Brute-force vanishing locus equals the inversion sums exactly."""
    ok = True
    for data, max_e in ((a1, 4), (a2, 3)):
        group = AffineWeylGroup(data)
        zeros = {w.as_vector() for w in oracles.zero_locus_brute_force(data, max_e)}
        expected = {
            group.rho_difference(w).as_vector()
            for w in group.minimal_coset_reps(max_e + 1)
            if group.rho_difference(w).energy <= max_e
        }
        ok = ok and zeros == expected
    _report_line(5, ok, "zero locus = inversion sums for A1 (<=4) and A2 (<=3), no extras, none missing")


def test_criterion_6_structural_suites(a1, a2, cc_a1, cc_a2, a1_report, a2_report):
    """d^2 = 0 exactly on all blocks; Hodge consistency on all cells; Weyl
    symmetry of all weight multisets; decomposition round trip."""
    ok = True
    for report in (a1_report, a2_report):
        suite = report["exact_suite"]
        ok = ok and all(
            suite[name] for name in ("d_squared_zero", "weyl_symmetric", "round_trip", "positivity")
        )
    # re-verify d^2 = 0 and Hodge directly on a sample of cells
    for data, cc in ((a1, cc_a1), (a2, cc_a2)):
        for (p, k) in [(1, 2), (2, 3), (1, 1)]:
            up = oracles.cell_block(cc.alg, p, k)
            upup = oracles.cell_block(cc.alg, p + 1, k)
            if len(up.basisIn) and len(upup.basisOut):
                ok = ok and xl.is_zero_matrix(xl.matmul(oracles.dense(upup), oracles.dense(up)))
            ws = weights_of_basis(cc.basis(p, k))
            ok = ok and is_weyl_symmetric(data, ws)
    # Hodge numbers were asserted exactly inside harmonic_space for every
    # computed cell; re-check one directly
    from jetcohom.cochain import harmonic_space

    harm = harmonic_space(cc_a1, 2, 3)
    dim = len(cc_a1.basis(2, 3))
    rank_up = xl.rank(oracles.dense(oracles.cell_block(cc_a1.alg, 2, 3)))
    rank_down = xl.rank(oracles.dense(oracles.cell_block(cc_a1.alg, 1, 3)))
    ok = ok and len(harm.basis) == dim - rank_up - rank_down
    ok = ok and expand(a1, harm.decomposition) == harm.weight_multiset
    _report_line(6, ok, "d^2 = 0, Hodge consistency, Weyl symmetry, round-trip: all exact")
