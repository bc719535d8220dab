"""Exact decomposition tables for Fulton-MacPherson configuration spaces.

Given a smooth projective base X of dimension d, the compactification X[n]
of the configuration space of n labeled points decomposes, theory by
theory, into shifted copies of the cartesian powers of X.  This package
computes the multiplicities exactly (arbitrary-precision integers
throughout), evaluates the decomposition over supplied graded data, and
cross-checks every multiplicity against independent brute-force and
blowup-construction oracles.
"""

__version__ = "0.1.0"


class BudgetError(ValueError):
    """Raised when a computation would exceed its configured budget."""

