"""Exact decomposition tables for Fulton-MacPherson configuration spaces.

Given a smooth projective base X of dimension d, the compactification X[n]
of the configuration space of n labeled points decomposes, theory by
theory, into shifted copies of the cartesian powers of X.  This package
computes the multiplicities exactly (arbitrary-precision integers
throughout), evaluates the decomposition over supplied graded data, and
cross-checks every multiplicity against independent brute-force and
blowup-construction oracles.
"""

from .polyseries import (
    EGF,
    IntPoly,
    ONE,
    ZERO,
    binomial,
    egf_exp,
    egf_term,
    format_poly,
    monomial,
)
from .nests import (
    NEST_BUDGET,
    Nest,
    NestStats,
    brute_bivariate,
    enumerate_nests,
    is_nest,
    nest_stats,
)
from .genfun import (
    BudgetError,
    FormalDecomposition,
    KERNEL_BUDGET,
    egf_solve,
    h_recurrence,
    multiplicity_table,
    recurrence_egf,
    sigma,
    verify_identity,
)
from .theory import (
    GradedTable,
    GroupDescriptor,
    SpaceDescriptor,
    ZERO_GROUP,
    Z_GROUP,
    betti_of_fm,
    blowup_formula,
    builtin_space,
    direct_sum,
    evaluate_decomposition,
    formal_evaluation,
    load_space,
    parse_space,
    proj_bundle_formula,
    proj_bundle_table,
    projective_space_powers,
    projective_space_table,
)
from .oracle import (
    CheckResult,
    VerificationReport,
    brute_equiv,
    palindrome_check,
    run_verification,
    x2_oracle,
    x3_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CheckResult",
    "EGF",
    "FormalDecomposition",
    "GradedTable",
    "GroupDescriptor",
    "IntPoly",
    "KERNEL_BUDGET",
    "NEST_BUDGET",
    "Nest",
    "NestStats",
    "ONE",
    "SpaceDescriptor",
    "VerificationReport",
    "ZERO",
    "ZERO_GROUP",
    "Z_GROUP",
    "betti_of_fm",
    "binomial",
    "blowup_formula",
    "brute_bivariate",
    "brute_equiv",
    "builtin_space",
    "direct_sum",
    "egf_exp",
    "egf_solve",
    "egf_term",
    "enumerate_nests",
    "evaluate_decomposition",
    "formal_evaluation",
    "format_poly",
    "h_recurrence",
    "is_nest",
    "load_space",
    "monomial",
    "multiplicity_table",
    "nest_stats",
    "palindrome_check",
    "parse_space",
    "proj_bundle_formula",
    "proj_bundle_table",
    "projective_space_powers",
    "projective_space_table",
    "recurrence_egf",
    "run_verification",
    "sigma",
    "verify_identity",
    "x2_oracle",
    "x3_oracle",
]
