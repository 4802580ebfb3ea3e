"""Exact cohomology of the positive-mode current algebra z*g[[z]].

Submodules: the simple Lie algebra core (`liealg`), affine Weyl
combinatorics and the predicted harmonic decomposition (`affine`), the
exact graded cochain pipeline (`cochain`), character arithmetic
(`reptheory`), the windowed semi-infinite form model used as an exact
identity harness (`fock`), and the batch front door (`cli`; `report`,
which also audits multiplicity one; `cache`, which type-checks records).
Importing the package or `cli` loads every submodule but `fock`, which
only `verify-identities` loads; import `jetcohom.fock` for its names.

Several core objects fill memos after construction: ``AlgebraData``
(``weyl_dims``, ``characters`` and its content hash) and the per-run
memos of ``CellComplex`` (one entry per method and cell, under one memo
rule, and its Casimir rows) and ``OrthonormalBackend``; no module holds
state of its own.  Each memo entry is a pure function of its key, so
results do not depend on the order of calls, but no object is promised
safe to share across threads.  Per-cell computations are independent.
"""

from .liealg import AlgebraSpec, AlgebraData, InvariantError, build_algebra, casimir_eigenvalue
from .affine import (
    AffineWeight,
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    PredictedIrrep,
    rho_hat,
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
from .reptheory import IrrepSummand, weights_of_basis, decompose
from .report import RunConfig, cmd_compute, cmd_predict, cmd_verify_identities

__all__ = [
    "AlgebraSpec", "AlgebraData", "InvariantError", "build_algebra", "casimir_eigenvalue",
    "AffineWeight", "AffineRoot", "AffineWeylElement", "AffineWeylGroup", "PredictedIrrep",
    "rho_hat", "predict_cohomology",
    "CochainBasis", "GradedComplexBlock", "HarmonicSpace", "CellComplex",
    "build_basis", "differential_block", "eigenvalue_of",
    "harmonic_space", "isotypic_eigen_check",
    "IrrepSummand", "weights_of_basis", "decompose",
    "RunConfig", "cmd_compute", "cmd_predict", "cmd_verify_identities",
]

__version__ = "0.1.0"
