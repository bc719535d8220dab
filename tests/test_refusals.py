"""Refusals of the library, each pinned by exception type and message.

Each call passes one invalid argument, so the message names the rule it
breaks whichever function owns the check.
"""

import pytest

from fmc.genfun import egf_solve, h_recurrence, multiplicity_table, sigma, verify_identity
from fmc.nests import brute_bivariate
from fmc.oracle import min_formula_check, palindrome_check, table_blowup_check, x2_oracle
from fmc.polyseries import ONE, ZERO, IntPoly
from fmc.theory import (
    POINT_TABLE,
    SpaceDescriptor,
    betti_of_fm,
    builtin_space,
    evaluate_decomposition,
    proj_bundle_table,
    projective_betti,
    resolve_space,
    theory_of,
)

DIMENSION = "dimension must be >= 1"
SIZE = "n must be >= 1"
RANK = "rank parameter must be >= 1"
DEGREE = "Betti polynomial degree exceeds 2*dim"
MISMATCH = "space dimension 1 does not match decomposition d=2"
P1 = projective_betti(1)

REFUSALS = {
    "sigma-d": (lambda: sigma(1, 0), DIMENSION),
    "h_recurrence-d": (lambda: h_recurrence(3, 0), DIMENSION),
    "h_recurrence-n": (lambda: h_recurrence(0, 2), SIZE),
    "verify_identity-d": (lambda: verify_identity((ZERO, ONE), 0), DIMENSION),
    "egf_solve-d": (lambda: egf_solve(3, 0), DIMENSION),
    "brute_bivariate-n1-d": (lambda: brute_bivariate(1, 0), DIMENSION),
    "brute_bivariate-n3-d": (lambda: brute_bivariate(3, 0), DIMENSION),
    "x2_oracle-d": (lambda: x2_oracle(0), DIMENSION),
    "min_formula_check-d": (lambda: min_formula_check(0), DIMENSION),
    "table_blowup_check-d": (lambda: table_blowup_check(0), DIMENSION),
    "palindrome_check-d": (lambda: palindrome_check(P1, 0, 1), DIMENSION),
    "palindrome_check-n": (lambda: palindrome_check(P1, 1, 0), SIZE),
    "palindrome_check-lopsided": (
        lambda: palindrome_check(IntPoly([1, 2]), 1, 1),
        "input Poincare polynomial must be palindromic of degree 2d",
    ),
    "betti_of_fm-d": (lambda: betti_of_fm(P1, 0, 1), DIMENSION),
    "betti_of_fm-n": (lambda: betti_of_fm(P1, 1, 0), SIZE),
    "betti_of_fm-degree": (lambda: betti_of_fm(IntPoly([1, 0, 0, 0, 1]), 1, 1), DEGREE),
    "betti_of_fm-negative": (
        lambda: betti_of_fm(IntPoly([1, -1, 1]), 1, 2), "Betti coefficients must be nonnegative",
    ),
    "proj_bundle_table-r": (lambda: proj_bundle_table(POINT_TABLE, 0, 2, "lawson"), RANK),
    "proj_bundle_table-r-empty": (
        lambda: proj_bundle_table(POINT_TABLE, 0, -1, "lawson"), RANK,
    ),
    "SpaceDescriptor-kind": (lambda: SpaceDescriptor("X", 1, "hodge"), "unknown kind 'hodge'"),
    "theory_of-kind": (lambda: theory_of("hodge"), "unknown kind 'hodge'"),
    "resolve_space-dim": (lambda: resolve_space("p1", "lawson", 2), MISMATCH),
    "evaluate_decomposition-dim": (
        lambda: evaluate_decomposition(
            multiplicity_table(2, 2), builtin_space("p1", "lawson"), 0, 0
        ),
        MISMATCH,
    ),
}


@pytest.mark.parametrize("call, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_refusal(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@pytest.mark.parametrize("kind", ["lawson", "chow", "betti"])
@pytest.mark.parametrize(
    "betti, message",
    [
        (IntPoly([1, 0, 0, 0, 1]), DEGREE),
        (IntPoly([1, -1, 1]), "Betti coefficients must be nonnegative"),
    ],
    ids=["degree", "negative"],
)
def test_space_descriptor_refuses_bad_betti_data(kind, betti, message):
    # Built in, read from a file or built by a caller, every space with a
    # Poincare polynomial passes the same Betti rules.
    with pytest.raises(ValueError) as caught:
        SpaceDescriptor("X", 1, kind, betti=betti)
    assert str(caught.value) == message
