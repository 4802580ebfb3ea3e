"""Exact cohomology of the positive-mode current algebra z*g[[z]].

Submodules: the simple Lie algebra core (`liealg`), affine Weyl
combinatorics and the predicted harmonic decomposition (`affine`), the
exact graded cochain pipeline (`cochain`), character arithmetic
(`reptheory`), the windowed semi-infinite form model used as an exact
identity harness (`fock`), and the batch front door (`cli`, `report`,
`cache`).

All core objects are immutable after construction and the heavy
operations are pure functions of them, so everything is safe to share
across threads; per-cell computations are independent.
"""

from .liealg import AlgebraSpec, AlgebraData, InvariantError, build_algebra, scaled_form, casimir_eigenvalue
from .affine import (
    AffineWeight,
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    PredictedIrrep,
    affine_pairing,
    rho_hat,
    minimal_coset_reps,
    predict_cohomology,
)
from .cochain import (
    CochainBasis,
    GradedComplexBlock,
    HarmonicSpace,
    CellComplex,
    build_basis,
    differential_block,
    eigenvalue_of,
    harmonic_space,
    isotypic_eigen_check,
)
from .reptheory import IrrepSummand, weights_of_basis, decompose, multiplicity_one_audit
from .fock import (
    EnergyWindow,
    SemiInfMonomial,
    OrthonormalBackend,
    decode_monomial,
    encode_monomial,
    verify_identity_suite,
)
from .report import RunConfig, cmd_compute, cmd_predict, cmd_verify_identities

__all__ = [
    "AlgebraSpec", "AlgebraData", "InvariantError", "build_algebra", "scaled_form", "casimir_eigenvalue",
    "AffineWeight", "AffineRoot", "AffineWeylElement", "AffineWeylGroup", "PredictedIrrep",
    "affine_pairing", "rho_hat", "minimal_coset_reps", "predict_cohomology",
    "CochainBasis", "GradedComplexBlock", "HarmonicSpace", "CellComplex",
    "build_basis", "differential_block", "eigenvalue_of",
    "harmonic_space", "isotypic_eigen_check",
    "IrrepSummand", "weights_of_basis", "decompose", "multiplicity_one_audit",
    "EnergyWindow", "SemiInfMonomial", "OrthonormalBackend", "decode_monomial", "encode_monomial",
    "verify_identity_suite",
    "RunConfig", "cmd_compute", "cmd_predict", "cmd_verify_identities",
]

__version__ = "0.1.0"
