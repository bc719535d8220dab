"""Exact decomposition tables for Fulton-MacPherson configuration spaces.

Given a smooth projective base X of dimension d, the compactification X[n]
of the configuration space of n labeled points decomposes, theory by
theory, into shifted copies of the cartesian powers of X.  This package
computes the multiplicities exactly (arbitrary-precision integers
throughout), evaluates the decomposition over supplied graded data, and
cross-checks every multiplicity against independent brute-force and
blowup-construction oracles.
"""

from importlib import import_module

__version__ = "0.1.0"


class BudgetError(ValueError):
    """Raised when a computation would exceed its configured budget."""


# Each public name and the submodule that defines it.  A name is imported
# on first access (PEP 562) and then cached here, so ``import fmc`` loads
# no submodule and a command pays only for the modules it runs.  The empty
# name is the package itself: ``BudgetError``, above, is shared by the
# kernel and the nest walk, so a nest listing need not load the kernel.
_HOMES = {
    "BudgetError": "",
    "IntPoly": "polyseries",
    "ONE": "polyseries",
    "ZERO": "polyseries",
    "format_poly": "polyseries",
    "NEST_BUDGET": "nests",
    "brute_bivariate": "nests",
    "FormalDecomposition": "genfun",
    "KERNEL_BUDGET": "genfun",
    "egf_solve": "genfun",
    "h_recurrence": "genfun",
    "multiplicity_table": "genfun",
    "recurrence_egf": "genfun",
    "sigma": "genfun",
    "verify_identity": "genfun",
    "GradedTable": "theory",
    "GroupDescriptor": "theory",
    "SpaceDescriptor": "theory",
    "ZERO_GROUP": "theory",
    "Z_GROUP": "theory",
    "betti_of_fm": "theory",
    "builtin_space": "theory",
    "evaluate_decomposition": "theory",
    "formal_evaluation": "theory",
    "load_space": "theory",
    "parse_space": "theory",
    "proj_bundle_table": "theory",
    "CheckResult": "oracle",
    "brute_equiv": "oracle",
    "palindrome_check": "oracle",
    "run_verification": "oracle",
    "x2_oracle": "oracle",
    "x3_oracle": "oracle",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
