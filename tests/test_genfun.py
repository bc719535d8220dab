import copy
import itertools
import pickle
from functools import lru_cache
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

import fmc.genfun
from fmc.cli import main
from fmc.genfun import (
    KERNEL_BUDGET,
    BudgetError,
    FormalDecomposition,
    egf_solve,
    h_recurrence,
    multiplicity_table,
    recurrence_egf,
    sigma,
    verify_identity,
)
from fmc.nests import brute_bivariate
from fmc.polyseries import IntPoly, ONE, ZERO


@lru_cache(maxsize=None)
def nest_signatures(n):
    """Independent oracle: (component count, son counts) of every nest on {1..n}.

    A nest is its singletons plus a laminar family of larger subsets, found
    by a depth-first search that adds each subset meeting every chosen one
    trivially or by inclusion.  A component is a member inside no other; a
    son of a member is a member below it with no member strictly between.
    """
    labels = range(1, n + 1)
    singletons = [frozenset((label,)) for label in labels]
    subsets = [
        frozenset(combo)
        for size in range(2, n + 1)
        for combo in itertools.combinations(labels, size)
    ]
    found = []

    def sons(member, members):
        below = [other for other in members if other < member]
        return sum(not any(child < mid for mid in below) for child in below)

    def extend(start, chosen):
        members = singletons + chosen
        components = sum(not any(m < other for other in members) for m in members)
        found.append((components, tuple(sons(member, members) for member in chosen)))
        for i in range(start, len(subsets)):
            subset = subsets[i]
            if all(subset <= t or t <= subset or not subset & t for t in chosen):
                extend(i + 1, chosen + [subset])

    extend(0, [])
    return tuple(found)


def nest_weight(son_counts, d):
    """Weight polynomial: product over internal nodes of sigma(sons-1, d)."""
    return prod((sigma(count - 1, d) for count in son_counts), start=ONE)


def egf_mul(a, b):
    """Binomial-convolution product of two series of the same order."""
    out = []
    for n in range(len(a)):
        acc = ZERO
        for k in range(n + 1):
            ak = a[k]
            bk = b[n - k]
            if ak.is_zero or bk.is_zero:
                continue
            acc = acc + ak * bk * comb(n, k)
        out.append(acc)
    return tuple(out)


def divexact_int(poly, divisor):
    """Divide every coefficient by ``divisor``; raises ValueError if inexact."""
    out = []
    for c in poly.coeffs:
        q, r = divmod(c, divisor)
        if r:
            raise ValueError("inexact coefficient division")
        out.append(q)
    return IntPoly(out)


def egf_exp(a):
    """Schoolbook exponential of a series with ``a_0 = 0``, to the same order."""
    out = [ONE]
    for n in range(1, len(a)):
        acc = ZERO
        for k in range(1, n + 1):
            if not a[k].is_zero:
                acc = acc + a[k] * out[n - k] * comb(n - 1, k - 1)
        out.append(acc)
    return tuple(out)


def divexact(num, divisor):
    """Schoolbook exact polynomial quotient; raises ValueError on any remainder."""
    if num.is_zero:
        return ZERO
    dd = divisor.degree
    lead = divisor.coeffs[-1]
    qd = num.degree - dd
    if qd < 0:
        raise ValueError("inexact polynomial division")
    rem = list(num.coeffs)
    quot = [0] * (qd + 1)
    for i in range(qd, -1, -1):
        f, r = divmod(rem[i + dd], lead)
        if r:
            raise ValueError("inexact polynomial division")
        quot[i] = f
        for j, dc in enumerate(divisor.coeffs):
            rem[i + j] -= f * dc
    if any(rem):
        raise ValueError("inexact polynomial division")
    return IntPoly(quot)


def monomial(exponent):
    return IntPoly((0,) * exponent + (1,))


@lru_cache(maxsize=None)
def reference_solve(n_max, d):
    """Independent oracle: the order-by-order identity solve in ``IntPoly`` arithmetic.

    At order n the unknown ``h_n`` enters with the factor ``x^d (1-x)``, so
    one exact polynomial division isolates it.
    """
    xd, xd1 = monomial(d), monomial(d + 1)
    lead = xd - xd1
    h, exp_top, exp_low = [ZERO], [ONE], [ONE]
    for n in range(1, n_max + 1):
        low_top = low_low = ZERO
        for k in range(1, n):
            c = comb(n - 1, k - 1)
            low_top = low_top + h[k] * xd * exp_top[n - k] * c
            low_low = low_low + h[k] * exp_low[n - k] * c
        rhs = lead if n == 1 else ZERO
        hn = divexact(rhs - low_top + low_low * xd1, lead)
        h.append(hn)
        exp_top.append(low_top + hn * xd)
        exp_low.append(low_low + hn)
    return tuple(h)


def reference_residual(series, d):
    """Independent oracle: the identity's residual, order by order, in ``IntPoly``.

    ``exp(x^d N) - x^(d+1) exp(N) - (1-x) x^d t - (1 - x^(d+1))``, truncated
    at the order of ``series``.
    """
    xd, xd1 = monomial(d), monomial(d + 1)
    top = egf_exp(tuple(h * xd for h in series))
    residual = [a - b * xd1 for a, b in zip(top, egf_exp(series))]
    residual[0] -= ONE - xd1
    if len(residual) > 1:
        residual[1] -= xd - xd1
    return tuple(residual)


def brute_h(n, d):
    """Independent oracle: sum nest weights over single-component nests."""
    total = ZERO
    for components, son_counts in nest_signatures(n):
        if components == 1:
            total = total + nest_weight(son_counts, d)
    return total


@lru_cache(maxsize=None)
def reference_bell_row(n, d):
    """Independent oracle: row n of the triangle by schoolbook ``IntPoly`` products.

    Returns ``(B_{n,0}, ..., B_{n,n})`` from the rule
    ``B_{n,k} = sum_j C(n-1, j-1) h_j B_{n-j,k-1}``, reading only rows < n.
    """
    if n == 0:
        return (ONE,)
    rows = [reference_bell_row(m, d) for m in range(n)]
    hs = [ZERO] + [rows[j][1] * comb(n - 1, j - 1) for j in range(1, n)]
    row = [ZERO, ZERO]
    h_n = ZERO
    for k in range(2, n + 1):
        total = ZERO
        for j in range(1, n - k + 2):
            if not hs[j].is_zero:
                total = total + hs[j] * rows[n - j][k - 1]
        row.append(total)
        h_n = h_n + sigma(k - 1, d) * total
    row[1] = ONE if n == 1 else h_n
    return tuple(row)


class TestSigma:
    def test_zero_index(self):
        assert sigma(0, 5) == ZERO

    def test_d2_first(self):
        assert sigma(1, 2) == IntPoly([0, 1])

    def test_d1_first_is_empty(self):
        assert sigma(1, 1) == ZERO

    def test_general(self):
        assert sigma(2, 2) == IntPoly([0, 1, 1, 1])
        assert sigma(3, 1) == IntPoly([0, 1, 1])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sigma(-1, 2)
        with pytest.raises(ValueError):
            sigma(1, 0)


class TestRecurrence:
    def test_base_case(self):
        assert h_recurrence(1, 2) == ONE
        assert h_recurrence(1, 7) == ONE

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_two_labels(self, d):
        assert h_recurrence(2, d) == sigma(1, d)

    def test_three_labels_d2(self):
        assert h_recurrence(3, 2) == brute_h(3, 2)
        assert h_recurrence(3, 2) == IntPoly([0, 1, 4, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_nest_brute_force(self, n, d):
        assert h_recurrence(n, d) == brute_h(n, d)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_degree(self, n, d):
        assert h_recurrence(n, d).degree == d * (n - 1) - 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            h_recurrence(0, 2)
        with pytest.raises(ValueError):
            h_recurrence(2, 0)


class TestSolver:
    def test_first_coefficient(self):
        assert egf_solve(1, 3) == (ZERO, ONE)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_second_coefficient(self, d):
        assert egf_solve(2, d)[2] == IntPoly([0] + [1] * (d - 1))

    def test_d1_collapses(self):
        assert egf_solve(2, 1)[2] == ZERO

    @pytest.mark.parametrize("n", list(range(1, 13)))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_recurrence(self, n, d):
        solved = egf_solve(n, d)
        assert len(solved) == n + 1
        for m in range(1, n + 1):
            assert solved[m] == h_recurrence(m, d)

    @pytest.mark.parametrize("n", list(range(1, 13)))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_reference_solve(self, n, d):
        assert egf_solve(n, d) == reference_solve(n, d)

    @pytest.mark.parametrize("n, d", [(40, 4), (2, 160), (9, 20), (24, 6)])
    def test_matches_recurrence_at_the_budget_corners(self, n, d):
        # The slot width comes from the palindromic bound h_m(2) >> ceil(d(m-1)/2),
        # which reads no kernel output; a bound too tight would raise.
        assert egf_solve(n, d) == recurrence_egf(n, d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_recurrence_for_every_small_n(self, d):
        for n in range(1, 13):
            assert egf_solve(n, d) == recurrence_egf(n, d), n

    def test_slot_width_from_the_palindromic_bound(self, monkeypatch):
        # At (20, 3) the largest h_m(2) takes 17 bytes, the largest
        # coefficient 13, and the shifted bound 13 too.
        widths = set()
        unpack = fmc.genfun._unpack

        def spy(parts, w, expected, at=1):
            widths.add(w)
            return unpack(parts, w, expected, at)

        monkeypatch.setattr(fmc.genfun, "_unpack", spy)
        egf_solve(20, 3)
        assert widths == {13}

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            egf_solve(0, 2)
        with pytest.raises(ValueError):
            egf_solve(3, 0)

    @pytest.mark.parametrize("n, d", [(KERNEL_BUDGET[0] + 1, 1), (2, KERNEL_BUDGET[1] + 1)])
    def test_oversize_calls_rejected(self, n, d):
        with pytest.raises(BudgetError, match="kernel budget"):
            egf_solve(n, d)

    def test_narrow_width_raises(self):
        # At (7, 1) the largest h_n(2) takes w = 2 bytes and a coefficient of
        # h_7 takes 9 bits, so the solve at one byte less carries out of a
        # slot, and the carry must be refused, not read as a polynomial.
        n, d = 7, 1
        solve_at, packed = fmc.genfun._solve_at, fmc.genfun._packed
        at_two = solve_at(n, d, 2)
        w = (max(at_two).bit_length() + 7) // 8
        assert w == 2

        def run(x):
            return solve_at(n, d, x)

        assert packed(run, 2)[1:] == reference_solve(n, d)[1:]
        with pytest.raises(ArithmeticError, match="overflows"):
            packed(run, 2, lambda values: (1 << (8 * (w - 1))) - 1)


class TestIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_recurrence_satisfies_identity(self, d):
        series = recurrence_egf(6, d)
        assert verify_identity(series, d) is True
        residual = reference_residual(series, d)
        assert len(residual) == 7
        assert not any(residual)

    def test_perturbation_detected_at_order_two(self):
        series = recurrence_egf(5, 2)
        bumped = series[:2] + (series[2] + ONE,) + series[3:]
        assert verify_identity(bumped[:2], 2)
        assert not verify_identity(bumped[:3], 2)
        assert not verify_identity(bumped, 2)
        residual = reference_residual(bumped, 2)
        assert residual[0].is_zero
        assert residual[1].is_zero
        assert not residual[2].is_zero

    def test_zero_series_residual(self):
        d = 3
        assert verify_identity((ZERO,) * 4, d) is False
        residual = reference_residual((ZERO,) * 4, d)
        assert residual[0].is_zero
        # order-1 term is -(1-x) x^d
        expected = -(IntPoly([0] * d + [1]) - IntPoly([0] * (d + 1) + [1]))
        assert residual[1] == expected

    def test_negative_coefficient_detected(self):
        series = recurrence_egf(5, 2)
        h3 = series[3]
        assert h3 == IntPoly([0, 1, 4, 1])
        flipped = series[:3] + (IntPoly([0, 1, 4, -1]),) + series[4:]
        assert verify_identity(series, 2)
        assert not verify_identity(flipped, 2)

    @pytest.mark.parametrize("point", [2, 4, 8, 16, 256, 1 << 64])
    def test_root_at_a_small_point_detected(self, point):
        # h_1 = 1 + (x - point)(x - 1) is wrong but has the right value at
        # x = point, and at x = 1 as well, so the residual vanishes there:
        # it must be evaluated past the size of the candidate's coefficients.
        h1 = ONE + IntPoly([-point, 1]) * IntPoly([-1, 1])
        assert h1(point) == h1(1) == 1
        for d in (1, 2, 3):
            assert not verify_identity((ZERO, h1), d)
            assert verify_identity((ZERO, ONE), d)

    @given(
        d=st.integers(1, 3),
        bumps=st.lists(
            st.lists(st.integers(-2, 2), max_size=3).map(IntPoly), min_size=1, max_size=5
        ),
    )
    def test_agrees_with_reference(self, d, bumps):
        # Signed perturbations of the true series, the empty one included.
        series = recurrence_egf(len(bumps), d)
        candidate = (ZERO,) + tuple(h + b for h, b in zip(series[1:], bumps))
        assert verify_identity(candidate, d) == (not any(reference_residual(candidate, d)))

    def test_independent_of_packing(self, monkeypatch):
        # The residual is its own route: it shares no packing code with the
        # kernel or the solver.
        series = recurrence_egf(8, 3)

        def refuse(*args):
            raise AssertionError("packing code called")

        monkeypatch.setattr(fmc.genfun, "_fill", refuse)
        monkeypatch.setattr(fmc.genfun, "_unpack", refuse)
        assert verify_identity(series, 3)
        assert not verify_identity(series[:4] + (series[4] + ONE,) + series[5:], 3)

    def test_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            verify_identity((ONE, ZERO), 2)


class TestMultiplicityTable:
    def test_single_point(self):
        table = multiplicity_table(1, 4)
        assert table.terms == ((1, 0, 1),)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_two_labels(self, d):
        table = multiplicity_table(2, d)
        assert table.value(2, 0) == 1
        for j in range(1, d):
            assert table.value(1, j) == 1
        assert sum(a for _, _, a in table.terms) == 1 + max(d - 1, 0)

    def test_three_labels_d2(self):
        table = multiplicity_table(3, 2)
        assert table.terms == (
            (3, 0, 1),
            (2, 1, 3),
            (1, 1, 1),
            (1, 2, 4),
            (1, 3, 1),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_match_nest_sums(self, n, d):
        table = multiplicity_table(n, d)
        brute = brute_bivariate(n, d)
        for m in range(1, n + 1):
            assert table.row_poly(m) == brute.get(m, ZERO)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_total_counts_weighted_nests(self, n, d):
        # Independent count of (nest, weight vector) pairs.
        expected = 0
        for _, son_counts in nest_signatures(n):
            pairs = 1
            for count in son_counts:
                pairs *= max(d * (count - 1) - 1, 0)
            expected += pairs
        assert sum(a for _, _, a in multiplicity_table(n, d).terms) == expected

    @pytest.mark.parametrize("n", list(range(1, 13)))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_structural_invariants(self, n, d):
        table = multiplicity_table(n, d)
        assert table.value(n, 0) == 1
        for m in range(1, n):
            assert table.value(m, 0) == 0
        assert all(isinstance(a, int) and a > 0 for _, _, a in table.terms)
        if n >= 2:
            bound = d * (n - 1) - 1
            assert all(i <= bound for _, i, _ in table.terms)

    @pytest.mark.parametrize("n", list(range(1, 13)))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_power_extraction(self, n, d):
        # Independent route: a_{m,i} = [x^i] ([t^n] N^m) / m! with N from the
        # schoolbook identity solve, the powers by repeated products, the
        # division exact.
        series = reference_solve(n, d)
        table = multiplicity_table(n, d)
        power = (ONE,) + (ZERO,) * n
        fact = 1
        for m in range(1, n + 1):
            power = egf_mul(power, series)
            fact *= m
            assert table.row_poly(m) == divexact_int(power[n], fact), m

    def test_terms_canonical_order(self):
        # The terms are read off the rows with no sort: the same entries as
        # the nest sums, m descending and shift ascending, zeros left out.
        for n, d in [(1, 2), (3, 2), (4, 3), (5, 1), (5, 2)]:
            entries = [
                (m, i, a)
                for m, poly in brute_bivariate(n, d).items()
                for i, a in enumerate(poly.coeffs)
                if a
            ]
            expected = tuple(sorted(entries, key=lambda t: (-t[0], t[1])))
            assert multiplicity_table(n, d).terms == expected, (n, d)

    def test_record_contract(self):
        # An immutable value: field equality and hashing, the repr of a
        # frozen dataclass, and no assignment.
        table = multiplicity_table(2, 3)
        same = FormalDecomposition(2, 3, (IntPoly([0, 1, 1]), ONE))
        assert table == same and hash(table) == hash(same)
        assert table != FormalDecomposition(n=2, d=2, rows=table.rows)
        assert table != (2, 3, table.rows)
        assert repr(table) == (
            "FormalDecomposition(n=2, d=3, rows=(IntPoly([0, 1, 1]), IntPoly([1])))"
        )
        for field in ("n", "rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(table, field, 1)
        assert table.n == 2
        # Copies and pickles rebuild through __init__, past the frozen fields.
        assert copy.deepcopy(table) == table == pickle.loads(pickle.dumps(table))

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (5, 3)])
    def test_reads_zero_outside_powers(self, n, d):
        # Powers run over 1..n; m = 0 must not wrap round to row n.
        table = multiplicity_table(n, d)
        assert table.value(n, 0) == 1
        for m in (-1, 0, n + 1):
            assert table.row_poly(m) == ZERO
            assert table.value(m, 0) == 0
        assert table.value(n, -1) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_symmetry(self, n, d):
        # each row is symmetric under i -> d(n-m) - i, the shadow of the
        # two equivalent weight conventions
        table = multiplicity_table(n, d)
        for m, i, a in table.terms:
            assert table.value(m, d * (n - m) - i) == a, (n, d, m, i)


class TestKernelBudget:
    @pytest.mark.parametrize(
        "n, d",
        [
            (KERNEL_BUDGET[0] + 1, 1),
            (30, 6),
            (2, KERNEL_BUDGET[1] + 1),
            (1, KERNEL_BUDGET[1] + 1),  # d*(n-1) is 0 at n = 1; d itself is capped
        ],
    )
    def test_oversize_calls_rejected(self, n, d):
        for kernel in (h_recurrence, recurrence_egf, multiplicity_table):
            with pytest.raises(BudgetError, match="kernel budget"):
                kernel(n, d)

    def test_stress_sizes_admitted(self):
        assert h_recurrence(24, 3).degree == 3 * 23 - 1
        assert multiplicity_table(20, 4).value(20, 0) == 1
        assert h_recurrence(1, KERNEL_BUDGET[1]) == ONE


class TestPackedKernel:
    @pytest.mark.parametrize(
        "n, d",
        [(n, d) for d in range(1, 5) for n in range(1, 25)] + [(40, 1), (30, 4)],
    )
    def test_matches_reference(self, n, d):
        entries = fmc.genfun._triangle(n, d)
        hs, row = entries[:n], entries[n:]
        assert row == reference_bell_row(n, d)
        assert hs == tuple(reference_bell_row(m, d)[1] for m in range(1, n + 1))

    def test_narrow_width_raises(self):
        # The kernel's width one byte narrower is too narrow for the largest
        # coefficient of row 24: packing at it carries, and the carry must
        # be refused, not read as a different polynomial.
        row = fmc.genfun._triangle(24, 3)[24:]
        w = (max(p(1) for p in row).bit_length() + 7) // 8
        poly = max(row, key=lambda p: max(p.coeffs, default=0))
        assert max(poly.coeffs) >= 1 << (8 * (w - 1))

        def run(x):
            return [poly(x)]

        assert fmc.genfun._packed(run, 1, lambda values: (1 << (8 * w)) - 1)[0] == poly
        with pytest.raises(ArithmeticError):
            fmc.genfun._packed(run, 1, lambda values: (1 << (8 * (w - 1))) - 1)

    def test_unpacks_each_entry_once(self, capsys, monkeypatch):
        # One (n, d) unpacks its 2n + 1 entries once, whichever commands
        # read it in the process: h-poly reads h_n, mult row n and egf
        # h_1 .. h_n, all from the one kept tuple.
        calls = []
        unpack = fmc.genfun._unpack

        def counted(*args):
            calls.append(args)
            return unpack(*args)

        monkeypatch.setattr(fmc.genfun, "_unpack", counted)
        fmc.genfun._triangle.cache_clear()
        for command in ("h-poly", "mult", "egf"):
            assert main([command, "--n", "12", "--d", "2"]) == 0
        capsys.readouterr()
        assert len(calls) == 2 * 12 + 1

    @pytest.mark.parametrize(
        "argv, unpacked",
        [
            (["h-poly", "--n", "24", "--d", "3"], 2 * 24 + 1),
            (["mult", "--n", "20", "--d", "4"], 2 * 20 + 1),
            (["egf", "--n", "12", "--d", "2"], 2 * 12 + 1),
        ],
    )
    def test_each_command_unpacks_every_entry(self, capsys, monkeypatch, argv, unpacked):
        # Whatever part of the triangle a command prints (h_n alone for
        # h-poly, row n for mult, h_1 .. h_n for egf), the kernel unpacks
        # and checks all 2n + 1 of its entries.
        calls = []
        unpack = fmc.genfun._unpack

        def counted(*args):
            calls.append(args)
            return unpack(*args)

        monkeypatch.setattr(fmc.genfun, "_unpack", counted)
        fmc.genfun._triangle.cache_clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == unpacked

    def test_carry_in_an_unprinted_entry_is_refused(self, capsys, monkeypatch):
        # A planted carry in h_1, which h-poly --n 6 does not print: every
        # kept entry is checked against its value at 1, so the command
        # refuses instead of printing h_6.
        fill = fmc.genfun._fill

        def planted(n, d, x):
            values = fill(n, d, x)
            if x != 1:
                values[0] += 1
            return values

        monkeypatch.setattr(fmc.genfun, "_fill", planted)
        fmc.genfun._triangle.cache_clear()
        try:
            assert main(["h-poly", "--n", "6", "--d", "2"]) == 2
        finally:
            fmc.genfun._triangle.cache_clear()
        out, err = capsys.readouterr()
        assert out == ""
        assert "packed entry overflows" in err


def schoolbook(a, b):
    """Product of two coefficient lists, term by term."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return IntPoly(out)


# Nonnegative coefficient lists: empty (zero), single terms, and dense lists
# of both parities, with coefficients of one bit to a hundred.
coefficient_lists = st.one_of(
    st.just([]),
    st.builds(lambda i, c: [0] * i + [c], st.integers(0, 9), st.integers(1, 2**100)),
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**100)), min_size=1, max_size=9),
)


class TestPackedSplit:
    @given(
        pairs=st.lists(st.tuples(coefficient_lists, coefficient_lists), min_size=1, max_size=6),
        at=st.sampled_from([1, 2]),
    )
    def test_matches_schoolbook(self, pairs, at):
        # Products of polynomials with nonnegative coefficients, packed at
        # the bound of the kernel (at 1) and of the solver (at 2): each
        # coefficient is at most the product's value at 1 or 2.
        polys = [(IntPoly(a), IntPoly(b)) for a, b in pairs]

        def run(x):
            return [a(x) * b(x) for a, b in polys]

        assert fmc.genfun._packed(run, at) == tuple(schoolbook(a, b) for a, b in pairs)

    @pytest.mark.parametrize(
        "coeffs",
        [[], [7], [0, 7], [0, 0, 0, 0, 0, 9], [1, 2, 3], [1, 2, 3, 4], [5, 0, 0, 6, 0, 1]],
        ids=["zero", "constant", "odd-term", "high-odd-term", "odd-length", "even-length", "sparse"],
    )
    @pytest.mark.parametrize("at", [1, 2])
    def test_named_shapes(self, coeffs, at):
        poly = IntPoly(coeffs)
        (entry,) = fmc.genfun._packed(lambda x: [poly(x)], at)
        assert entry == poly

    @pytest.mark.parametrize("at", [1, 2])
    @pytest.mark.parametrize("width", [1, 16], ids=["one-pass", "split"])
    @pytest.mark.parametrize("slot", [2, 1], ids=["even-slot", "odd-slot"])
    def test_planted_narrow_width_raises(self, slot, width, at):
        # One coefficient needs width + 1 bytes and every other one fits in
        # one, and the planted bound gives width bytes: the carry out of that
        # slot must be refused whether it is an even or an odd slot, so the
        # check reads both halves of a split packing.
        coeffs = [1, 2, 3, 4, 5]
        coeffs[slot] = (1 << (8 * width)) + 44
        poly = IntPoly(coeffs)

        def run(x):
            return [poly(x)]

        assert fmc.genfun._packed(run, at)[0] == poly
        with pytest.raises(ArithmeticError, match=f"overflows its {width}-byte slots"):
            fmc.genfun._packed(run, at, lambda values: (1 << (8 * width)) - 1)

    @pytest.mark.parametrize("w, passes", [(1, 2), (10, 2), (11, 3), (16, 3)])
    def test_split_from_eleven_bytes(self, w, passes):
        # Narrow slots pack in one pass at 2^(8w), wide ones in two
        # half-width passes, after the bound pass.
        poly = IntPoly([3, 1 << (8 * w - 1), 0, 5])
        points = []

        def run(x):
            points.append(x)
            return [poly(x)]

        assert fmc.genfun._packed(run, 1) == (poly,)
        assert len(points) == passes
