"""Independent cross-checks for the decomposition machinery.

Three unrelated computation routes must agree wherever they meet:

* the exhaustive nest enumeration against the generating-function table;
* the partial-Bell triangle against the order-by-order identity solver;
* the explicit blowup constructions of X[2] and X[3] against the nest
  formula (X[2] is one blowup of the square along the diagonal; X[3] blows
  up the cube along the small diagonal, codimension 2d, then along three
  disjoint centers isomorphic to X[2], codimension d each).

Evaluation has two routes, which the table-blowup check compares on X[2]
for X = P^d: graded tables (the only route for descriptor files, torsion
and Deligne-Beilinson data) and one coefficient of the Poincare polynomial
of X[2].  It is blind to a Lawson clamp that reads the wrong nonnegative
level, as the Lawson groups of P^a do not depend on the level.

Blowup reconstructions beyond n = 3 are deliberately absent: the later
centers are proper transforms whose graded data has no closed form here.

Checks return structured results instead of raising so a full matrix can
be reported at once.
"""

from __future__ import annotations

from collections.abc import Callable

from . import BudgetError
from .genfun import (
    FormalDecomposition,
    _check_dim,
    egf_solve,
    h_recurrence,
    multiplicity_table,
    recurrence_egf,
    verify_identity,
)
from .nests import _check_labels, brute_bivariate
from .polyseries import ONE, IntPoly
from .record import Record
from .theory import (
    POINT_TABLE,
    GradedTable,
    GroupDescriptor,
    SpaceDescriptor,
    betti_of_fm,
    evaluate_decomposition,
    proj_bundle_table,
    projective_betti,
)

#: Largest ``max_d`` of a verification sweep.  The table-blowup check runs
#: once per d and its cost about doubles from d = 24 to d = 32 (in process,
#: best of 3 runs alternated over three rounds, Python 3.11.7, shared 2-core
#: VM: 0.13 s and 0.26 s, about two fifths of it building the bundle
#: tables), so the slowest admitted sweep, n <= 7 and d <= 24, ends in seconds.
VERIFY_MAX_D = 24


class CheckResult(Record):
    __slots__ = ("name", "params", "passed", "detail")


def brute_equiv(n: int, d: int) -> CheckResult:
    """Nest enumeration vs generating-function table, all powers at once."""
    brute = brute_bivariate(n, d)
    table = multiplicity_table(n, d)
    rows = {m: p for m, p in enumerate(table.rows, start=1) if p}
    passed = brute == rows
    detail = "nest sums match table rows" if passed else (
        f"mismatch: nests={{{', '.join(f'{m}: {p}' for m, p in brute.items())}}} "
        f"table={{{', '.join(f'{m}: {p}' for m, p in rows.items())}}}"
    )
    return CheckResult("brute-equiv", {"n": n, "d": d}, passed, detail)


def solver_match(n: int, d: int) -> CheckResult:
    """Partial-Bell triangle vs identity solver, coefficient by coefficient."""
    passed = egf_solve(n, d) == recurrence_egf(n, d)
    detail = "solver reproduces recurrence" if passed else "solver coefficients differ"
    return CheckResult("solver-match", {"n": n, "d": d}, passed, detail)


def identity_residual(order: int, d: int) -> CheckResult:
    """Functional-identity residual of the recurrence series."""
    passed = verify_identity(recurrence_egf(order, d), d)
    detail = "residual identically zero" if passed else "nonzero residual"
    return CheckResult("identity-residual", {"order": order, "d": d}, passed, detail)


def _shifts(top: int) -> IntPoly:
    # x + x^2 + ... + x^top: blowing up a center of codimension top + 1 adds
    # one copy of the center at each of these shifts.
    return IntPoly([0] + [1] * top)


def x2_oracle(d: int) -> FormalDecomposition:
    """X[2] rows from the single blowup of the square along the diagonal."""
    _check_dim(d)
    return FormalDecomposition(2, d, (_shifts(d - 1), ONE))


def x3_oracle(d: int) -> FormalDecomposition:
    """X[3] rows from the two-stage blowup of the cube.

    Stage one blows up the small diagonal (a copy of X, codimension 2d);
    stage two blows up three disjoint centers, each a copy of X[2] in
    codimension d, expanded by the single-blowup rows of ``x2_oracle``, so
    no route reads the kernel's table.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2 (diagonal blowups degenerate)")
    centers = 3 * _shifts(d - 1)
    x2 = x2_oracle(d)
    point = _shifts(2 * d - 1) + centers * x2.row_poly(1)
    return FormalDecomposition(3, d, (point, centers * x2.row_poly(2), ONE))


def _blowup_check(
    n: int, d: int, oracle: Callable[[int], FormalDecomposition], construction: str
) -> CheckResult:
    expected = multiplicity_table(n, d)
    got = oracle(d)
    passed = got == expected
    detail = f"{construction} reproduces X[{n}]" if passed else (
        f"blowup terms {got.terms} != nest terms {expected.terms}"
    )
    return CheckResult(f"blowup-x{n}", {"d": d}, passed, detail)


def x2_check(d: int) -> CheckResult:
    return _blowup_check(2, d, x2_oracle, "single blowup")


def x3_check(d: int) -> CheckResult:
    return _blowup_check(3, d, x3_oracle, "two-stage blowup")


def min_formula_check(d: int) -> CheckResult:
    """The X-multiplicities of X[3], ``h_3``, against their closed form in two shapes."""
    h = h_recurrence(3, d).coeffs
    passed = len(h) == 2 * d and h[0] == 0 and all(
        h[j] == 1 + 3 * min(j - 1, 2 * d - 1 - j) == min(3 * j - 2, 6 * d - 3 * j - 2)
        for j in range(1, 2 * d)
    )
    detail = "both closed forms agree" if passed else "closed forms disagree"
    return CheckResult("min-formula", {"d": d}, passed, detail)


def _bundle_powers(a: int, kind: str, max_power: int) -> dict[int, GradedTable]:
    # Tables {m: table} of the powers of P^a: (P^a)^m is a projective bundle
    # with rank parameter a + 1 over (P^a)^(m-1), so no product formula.
    powers, table = {}, POINT_TABLE
    for m in range(1, max_power + 1):
        table = powers[m] = proj_bundle_table(table, a + 1, m * a, kind)
    return powers


def table_blowup_check(d: int) -> CheckResult:
    """The table route on X[2] vs the Poincare route, for X = P^d.

    Lawson groups of P^d and of X[2] are Betti numbers, so the blowup terms
    of ``x2_oracle`` over bundle tables of P^d and its square must give the
    kernel's ``P_{X[2]}`` at every valid index.
    """
    dec = x2_oracle(d)  # first: refuses d < 1
    space = SpaceDescriptor(f"P{d}", d, "lawson", powers=_bundle_powers(d, "lawson", 2))
    poincare = betti_of_fm(projective_betti(d), d, 2)
    for p in range(0, 2 * d + 1):
        for k in range(2 * p, 4 * d + 1):
            lhs = evaluate_decomposition(dec, space, p, k)
            rhs = GroupDescriptor(free_rank=poincare.coefficient(k))
            if lhs != rhs:
                detail = f"disagreement at (p={p}, k={k}): {lhs} != {rhs}"
                return CheckResult("table-blowup", {"d": d}, False, detail)
    return CheckResult("table-blowup", {"d": d}, True, "agrees at every valid index")


def palindrome_check(betti_x: IntPoly, d: int, n: int) -> CheckResult:
    """Poincare polynomial of X[n] stays palindromic of degree 2dn.

    ``betti_of_fm`` refuses an input that is not palindromic of degree 2d.
    """
    result = betti_of_fm(betti_x, d, n)
    passed = result.is_palindromic(2 * d * n)
    detail = f"poincare = {result}" if passed else f"not palindromic: {result}"
    return CheckResult("palindrome", {"d": d, "n": n}, passed, detail)


def structure_check(n: int, d: int) -> CheckResult:
    """Structural facts of the multiplicity table for one (n, d)."""
    table = multiplicity_table(n, d)
    problems = []
    if table.value(n, 0) != 1:
        problems.append("a_{n,0} != 1")
    if any(table.value(m, 0) != 0 for m in range(1, n)):
        problems.append("a_{m,0} != 0 for some m < n")
    if any(a <= 0 for _, _, a in table.terms):
        problems.append("nonpositive multiplicity")
    bound = d * (n - 1) - 1
    if n >= 2 and any(i > bound for _, i, _ in table.terms):
        problems.append("shift beyond d(n-1)-1")
    if n >= 2 and d >= 2 and h_recurrence(n, d).degree != bound:
        problems.append("deg h_n != d(n-1)-1")
    passed = not problems
    detail = "all structural facts hold" if passed else "; ".join(problems)
    return CheckResult("structure", {"n": n, "d": d}, passed, detail)


def run_verification(max_n: int, max_d: int) -> tuple[CheckResult, ...]:
    """Full check matrix over the grid n <= max_n, d <= max_d."""
    if max_d > VERIFY_MAX_D:
        raise BudgetError(f"verify budget exceeded: max_d={max_d} (limit {VERIFY_MAX_D})")
    _check_labels(max_n)
    _check_dim(max_d)
    checks: list[CheckResult] = []
    for d in range(1, max_d + 1):
        for n in range(1, max_n + 1):
            checks.append(brute_equiv(n, d))
        checks.append(solver_match(max_n, d))
        checks.append(identity_residual(max_n, d))
        checks.append(x2_check(d))
        if d >= 2:
            checks.append(x3_check(d))
        checks.append(min_formula_check(d))
        checks.append(table_blowup_check(d))
        betti = projective_betti(d)
        for n in range(1, max_n + 1):
            checks.append(palindrome_check(betti, d, n))
        for n in range(1, max_n + 1):
            checks.append(structure_check(n, d))
    return tuple(checks)
