from functools import partial
from math import prod

import pytest

import fmc.genfun
import fmc.nests
import fmc.oracle
import fmc.theory
from fmc.genfun import BudgetError, FormalDecomposition, multiplicity_table
from fmc.oracle import (
    VERIFY_MAX_D,
    CheckResult,
    brute_equiv,
    identity_residual,
    min_formula_check,
    palindrome_check,
    run_verification,
    solver_match,
    structure_check,
    table_blowup_check,
    x2_check,
    x2_oracle,
    x3_check,
    x3_oracle,
)
from fmc.polyseries import ONE, IntPoly

P2_BETTI = IntPoly([1, 0, 1, 0, 1])
P1_BETTI = IntPoly([1, 0, 1])


class TestBruteEquiv:
    def test_single_label(self):
        assert brute_equiv(1, 3).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid(self, n, d):
        assert brute_equiv(n, d).passed

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_budget_size(self, d):
        # n = 7 is the largest size verify admits; all 78416 nests are counted.
        assert brute_equiv(7, d).passed
        assert sum(count for _, count in fmc.nests._signatures(7)) == 78416

    def test_n4_d2(self):
        result = brute_equiv(4, 2)
        assert result.passed
        assert result.params == {"n": 4, "d": 2}


class TestBlowupOracles:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_x2(self, d):
        assert x2_oracle(d) == multiplicity_table(2, d)
        assert x2_check(d).passed

    def test_x2_d1_is_bare_square(self):
        assert x2_oracle(1).terms == ((2, 0, 1),)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_x3(self, d):
        assert x3_oracle(d) == multiplicity_table(3, d)
        assert x3_check(d).passed

    def test_x3_reads_no_kernel_table(self, monkeypatch):
        # The X[2] centers are expanded by the single-blowup rows, so a wrong
        # kernel row of X[2] cannot leak into the X[3] oracle it checks.
        truth = {d: multiplicity_table(3, d) for d in (2, 3, 4)}
        kernel = fmc.oracle.multiplicity_table

        def wrong(n, d):
            table = kernel(n, d)
            if n != 2:
                return table
            return fmc.genfun.FormalDecomposition(
                n, d, (table.rows[0] + IntPoly([0, 1]), *table.rows[1:])
            )

        monkeypatch.setattr(fmc.oracle, "multiplicity_table", wrong)
        for d, rows in truth.items():
            assert x3_oracle(d) == rows, d

    def test_x3_rejects_d1(self):
        with pytest.raises(ValueError):
            x3_oracle(1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_x3_point_multiplicities_closed_form(self, d):
        dec = x3_oracle(d)
        mults = {shift: mult for m, shift, mult in dec.terms if m == 1}
        for j in range(1, 2 * d):
            assert mults[j] == min(3 * j - 2, 6 * d - 3 * j - 2)
        assert set(mults) == set(range(1, 2 * d))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_x3_square_multiplicities(self, d):
        dec = x3_oracle(d)
        mults = {shift: mult for m, shift, mult in dec.terms if m == 2}
        assert mults == {j: 3 for j in range(1, d)}

    def test_x3_d2_point_row(self):
        mults = {
            shift: mult for m, shift, mult in x3_oracle(2).terms if m == 1
        }
        assert mults == {1: 1, 2: 4, 3: 1}

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_min_formula(self, d):
        assert min_formula_check(d).passed

    @pytest.mark.parametrize(
        "wrong",
        [
            IntPoly([0, 1, 4, 2]),
            IntPoly([0, 1, 4]),
            IntPoly([0, 1, 4, 1, 1]),
            IntPoly([1, 1, 4, 1]),
        ],
    )
    def test_min_formula_reads_the_kernel(self, monkeypatch, wrong):
        # The check compares computed h_3 with the closed form, so a wrong
        # kernel value fails it.
        monkeypatch.setattr(fmc.oracle, "h_recurrence", lambda n, d: wrong)
        result = min_formula_check(2)
        assert not result.passed
        assert result.detail == "closed forms disagree"


class TestOtherChecks:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_solver_and_identity(self, d):
        assert solver_match(5, d).passed
        assert identity_residual(6, d).passed

    def test_solver_match_builds_one_triangle(self, monkeypatch):
        # The solver is compared with the whole (n, d) series at once, so
        # the kernel triangle is built once (three passes of _fill: at 1,
        # then at +X and -X), not once per order m = 1..n.
        calls = []
        fill = fmc.genfun._fill

        def counted(n, d, x):
            calls.append((n, d))
            return fill(n, d, x)

        monkeypatch.setattr(fmc.genfun, "_fill", counted)
        fmc.genfun._triangle.cache_clear()
        assert solver_match(20, 3).passed
        assert calls == [(20, 3), (20, 3), (20, 3)]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_table_blowup(self, d):
        assert table_blowup_check(d).passed

    def test_palindrome_plane_pair(self):
        result = palindrome_check(P2_BETTI, 2, 2)
        assert result.passed
        assert "1 + 3*x^2 + 4*x^4 + 3*x^6 + x^8" in result.detail

    def test_palindrome_line_triple(self):
        assert palindrome_check(P1_BETTI, 1, 3).passed

    def test_palindrome_rejects_point(self):
        with pytest.raises(ValueError):
            palindrome_check(IntPoly([1]), 1, 2)

    def test_palindrome_rejects_lopsided(self):
        with pytest.raises(ValueError):
            palindrome_check(IntPoly([1, 2]), 1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_structure(self, n, d):
        assert structure_check(n, d).passed


# The rows of the true X[3] table at d = 2, whose shifts stop at d(n-1)-1 = 3.
X3_D2_ROWS = (IntPoly([0, 1, 4, 1]), IntPoly([0, 3]), ONE)


def wrong_table(monkeypatch, *rows):
    # The checks read the kernel through fmc.oracle.multiplicity_table, and
    # through fmc.theory's for a Poincare polynomial (betti_of_fm).
    for module in (fmc.oracle, fmc.theory):
        monkeypatch.setattr(
            module, "multiplicity_table", lambda n, d: FormalDecomposition(n, d, rows)
        )


class TestChecksCanFail:
    @pytest.mark.parametrize(
        "rows, h3, detail",
        [
            ((X3_D2_ROWS[0], X3_D2_ROWS[1], IntPoly([2])), None, "a_{n,0} != 1"),
            ((X3_D2_ROWS[0], IntPoly([1, 3]), ONE), None, "a_{m,0} != 0 for some m < n"),
            ((X3_D2_ROWS[0], IntPoly([0, -3]), ONE), None, "nonpositive multiplicity"),
            ((IntPoly([0, 1, 4, 1, 1]), X3_D2_ROWS[1], ONE), None, "shift beyond d(n-1)-1"),
            (X3_D2_ROWS, IntPoly([0, 1, 4]), "deg h_n != d(n-1)-1"),
            (
                (IntPoly([1, -1, 0, 0, 1]), X3_D2_ROWS[1], IntPoly([2])),
                IntPoly([0, 1, 4]),
                "a_{n,0} != 1; a_{m,0} != 0 for some m < n; nonpositive multiplicity; "
                "shift beyond d(n-1)-1; deg h_n != d(n-1)-1",
            ),
        ],
        ids=["a_n0", "a_m0", "nonpositive", "shift", "degree", "all"],
    )
    def test_structure(self, monkeypatch, rows, h3, detail):
        wrong_table(monkeypatch, *rows)
        if h3 is not None:
            monkeypatch.setattr(fmc.oracle, "h_recurrence", lambda n, d: h3)
        result = structure_check(3, 2)
        assert result.passed is False
        assert result.detail == detail

    @pytest.mark.parametrize(
        "check, detail",
        [
            (table_blowup_check, "disagreement at (p=0, k=0): Z != Z^2"),
            (x2_check, "blowup terms ((2, 0, 1),) != nest terms ((2, 0, 1), (1, 0, 1))"),
            (partial(palindrome_check, P1_BETTI, n=2), "not palindromic: 2 + 3*x^2 + x^4"),
        ],
        ids=["table-blowup", "blowup-x2", "palindrome"],
    )
    def test_blowup(self, monkeypatch, check, detail):
        # X[2] at d = 1 is the bare square: an extra copy of X is wrong, and
        # makes P^1[2] the sum P + P^2 = 2 + 3q^2 + q^4.
        wrong_table(monkeypatch, ONE, ONE)
        result = check(1)
        assert result.passed is False
        assert result.detail == detail

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_table_blowup_sees_a_clamp_fault(self, monkeypatch, d):
        # A negative Lawson level that reads zero instead of level 0: the
        # bundle tables of P^d lose groups that X[2]'s Betti numbers keep.
        read_index = fmc.theory.Theory.read_index

        def faulty(theory, p, k, shift):
            if theory.name == "lawson" and p < shift:
                return None
            return read_index(theory, p, k, shift)

        monkeypatch.setattr(fmc.theory.Theory, "read_index", faulty)
        result = table_blowup_check(d)
        assert result.passed is False
        assert result.detail.startswith("disagreement at (p=0, k=2): 0 != ")

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_table_blowup_sees_a_wrong_poincare_polynomial(self, monkeypatch, d):
        # One coefficient of P_{X[2]} off by one.
        betti_of_fm = fmc.oracle.betti_of_fm
        monkeypatch.setattr(
            fmc.oracle, "betti_of_fm", lambda *args: betti_of_fm(*args) + IntPoly([0, 0, 1])
        )
        result = table_blowup_check(d)
        assert result.passed is False
        assert result.detail.startswith("disagreement at (p=0, k=2)")


# Poincare polynomials (in q) and complex dimensions: projective spaces, a
# quadric and a K3 surface, curves of genus 3 and 1, an abelian surface.
EULER_SPACES = {
    "P1": ([1, 0, 1], 1),
    "P2": ([1, 0, 1, 0, 1], 2),
    "P3": ([1, 0, 1, 0, 1, 0, 1], 3),
    "quadric": ([1, 0, 2, 0, 1], 2),
    "K3": ([1, 0, 22, 0, 1], 2),
    "genus-3": ([1, 6, 1], 1),
    "elliptic": ([1, 2, 1], 1),
    "abelian-surface": ([1, 4, 6, 4, 1], 2),
}


def screen_euler(k, d):
    # The screen of a node with k sons, k points of C^d up to translation and
    # dilation: the direction from the first to the second, in P^(d-1), and
    # the other k - 2 points in C^d minus those two, one after another.
    return d * prod(1 - j for j in range(2, k))


def strata_euler(chi, d, n, screen=screen_euler):
    # X[n] is the disjoint union of the open strata of its nests: a nest
    # with m components and nodes of k sons is a configuration of m distinct
    # points of X (Euler characteristic chi (chi - 1) ... (chi - m + 1))
    # carrying one screen per node.
    return sum(
        count * prod(chi - i for i in range(m)) * prod(screen(k, d) for k in sons)
        for (m, sons), count in fmc.nests._signatures(n)
    )


class TestEulerCharacteristic:
    # chi(X[n]) summed over the open strata agrees with the Poincare
    # polynomial at q = -1 (W. Fulton, R. MacPherson, Ann. of Math. 139,
    # 1994; E. Getzler, Duke Math. J. 96, 1999).
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("space", EULER_SPACES)
    def test_strata_match_poincare_at_minus_one(self, space, n):
        coeffs, d = EULER_SPACES[space]
        betti = IntPoly(coeffs)
        assert strata_euler(betti(-1), d, n) == fmc.theory.betti_of_fm(betti, d, n)(-1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_a_wrong_screen_class_is_caught(self, n):
        # One more on the class of a node with three sons, which first
        # occurs at n = 3, breaks the agreement.
        def off_by_one(k, d):
            return screen_euler(k, d) + (k == 3)

        expected = fmc.theory.betti_of_fm(P1_BETTI, 1, n)(-1)
        assert strata_euler(2, 1, n, off_by_one) != expected


class TestReport:
    def test_record_contract(self):
        # Immutable values: field equality, the repr of a frozen dataclass,
        # no assignment; a result holds its params dict, so it is unhashable.
        check = CheckResult("a", {"n": 1}, True, "ok")
        assert check == CheckResult(name="a", params={"n": 1}, passed=True, detail="ok")
        assert check != CheckResult("a", {"n": 2}, True, "ok")
        assert repr(check) == "CheckResult(name='a', params={'n': 1}, passed=True, detail='ok')"
        with pytest.raises(TypeError, match="unhashable"):
            hash(check)
        with pytest.raises(AttributeError):
            check.passed = False
        assert check.passed

    def test_run_verification_passes(self):
        checks = run_verification(4, 2)
        assert type(checks) is tuple and checks
        assert all(isinstance(c, CheckResult) and c.passed for c in checks)

    def test_max_d_capped(self):
        with pytest.raises(BudgetError, match="verify budget"):
            run_verification(1, VERIFY_MAX_D + 1)

    def test_deterministic_order(self):
        first = run_verification(3, 2)
        second = run_verification(3, 2)
        assert [c.name for c in first] == [c.name for c in second]
        assert first == second
