"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every comparison is exact; each criterion also carries a wall-clock
budget that is asserted.
"""

import json
import time
from contextlib import contextmanager

from fmc.cli import main, render_json
from fmc.genfun import h_recurrence, multiplicity_table, recurrence_egf, verify_identity
from fmc.nests import brute_bivariate
from fmc.oracle import x2_oracle, x3_oracle
from fmc.polyseries import IntPoly, ONE, ZERO
from fmc.theory import (
    GroupDescriptor,
    builtin_space,
    betti_of_fm,
    evaluate_decomposition,
    proj_bundle_table,
)


@contextmanager
def criterion(num, limit_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < limit_seconds
    status = "PASS" if within else "FAIL"
    print(
        f"{status} criterion {num} ({elapsed:.3f}s, limit {limit_seconds}s): {description}"
    )
    assert within, f"criterion {num} exceeded its {limit_seconds}s budget"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_x2_formal_terms(capsys):
    with criterion(1, 1.0, "X[2] formal decomposition for d = 1..5 via the CLI"):
        for d in range(1, 6):
            code, out, _ = run_cli(
                capsys, "decompose", "--theory", "lawson", "--mode", "formal",
                "--n", "2", "--d", str(d),
            )
            assert code == 0
            terms = set()
            for line in out.strip().splitlines()[1:]:
                fields = dict(part.split("=") for part in line.split())
                terms.add(
                    (int(fields["m"]), int(fields["shift"]), int(fields["mult"]))
                )
            expected = {(2, 0, 1)} | {(1, j, 1) for j in range(1, d)}
            assert terms == expected, (d, terms)


def test_criterion_2_x3_multiplicities():
    with criterion(2, 1.0, "X[3] shift multiplicities match the closed forms"):
        for d in range(2, 6):
            dec = multiplicity_table(3, d)
            point_row = {i: a for m, i, a in dec.terms if m == 1}
            square_row = {i: a for m, i, a in dec.terms if m == 2}
            for j in range(1, 2 * d):
                assert point_row[j] == min(3 * j - 2, 6 * d - 3 * j - 2), (d, j)
            assert set(point_row) == set(range(1, 2 * d))
            assert square_row == {j: 3 for j in range(1, d)}


def test_criterion_3_three_way_equality():
    with criterion(3, 30.0, "recurrence = solver = nest brute force, n <= 5, d <= 3"):
        for d in range(1, 4):
            from fmc.genfun import egf_solve

            solved = egf_solve(5, d)
            for n in range(1, 6):
                rec = h_recurrence(n, d)
                assert solved[n] == rec, (n, d)
                grouped = brute_bivariate(n, d)
                assert rec == grouped.get(1, ZERO), (n, d)
                # full table agreement, all powers
                table = multiplicity_table(n, d)
                for m in range(1, n + 1):
                    assert table.row_poly(m) == grouped.get(m, ZERO), (n, d, m)


def test_criterion_4_identity_residual():
    with criterion(4, 5.0, "functional identity residual zero to t^8 for d = 1..4"):
        for d in range(1, 5):
            assert verify_identity(recurrence_egf(8, d), d), d


def test_criterion_5_blowup_oracles():
    with criterion(5, 1.0, "blowup reconstructions of X[2] and X[3] for d <= 5"):
        for d in range(1, 6):
            assert x2_oracle(d) == multiplicity_table(2, d), d
        for d in range(2, 6):
            assert x3_oracle(d) == multiplicity_table(3, d), d


def test_criterion_6_betti():
    with criterion(6, 5.0, "Poincare polynomial of the plane pair and palindromes"):
        plane = IntPoly([1, 0, 1, 0, 1])

        def convolve(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        # independent hand expansion: (1+q^2+q^4)^2 + q^2 (1+q^2+q^4)
        square = convolve([1, 0, 1, 0, 1], [1, 0, 1, 0, 1])
        shifted = [0, 0, 1, 0, 1, 0, 1]
        expected = [
            a + (shifted[i] if i < len(shifted) else 0) for i, a in enumerate(square)
        ]
        assert expected == [1, 0, 3, 0, 4, 0, 3, 0, 1]
        assert betti_of_fm(plane, 2, 2) == IntPoly(expected)

        for d in range(1, 4):
            binomial_row = ONE
            for _ in range(2 * d):
                binomial_row = binomial_row * IntPoly([1, 1])
            palindromic_inputs = [
                IntPoly([1 if i % 2 == 0 else 0 for i in range(2 * d + 1)]),
                binomial_row,
                IntPoly([1] * (2 * d + 1)),
                IntPoly([2] + [1] * (2 * d - 1) + [2]),
            ]
            for n in range(1, 5):
                for betti in palindromic_inputs:
                    assert betti.is_palindromic(2 * d)
                    assert betti_of_fm(betti, d, n).is_palindromic(2 * d * n), (d, n)


def test_criterion_7_structural_invariants():
    with criterion(7, 60.0, "structural invariants of the tables, n <= 6, d <= 4"):
        for n in range(1, 7):
            for d in range(1, 5):
                table = multiplicity_table(n, d)  # all divisions exact or raises
                assert table.value(n, 0) == 1, (n, d)
                for m in range(1, n):
                    assert table.value(m, 0) == 0, (n, d, m)
                assert all(
                    isinstance(a, int) and a > 0 for _, _, a in table.terms
                ), (n, d)
                if n >= 2 and d >= 2:
                    assert h_recurrence(n, d).degree == d * (n - 1) - 1, (n, d)


def test_criterion_8_lawson_spot_check(bundle_powers):
    with criterion(8, 1.0, "L_1 H_2 of the plane pair has free rank 3"):
        # independent derivation through the bundle table: the square of
        # the plane is a bundle with rank parameter 3 over the plane
        plane_table = bundle_powers(2, "lawson", 1)[1]
        square_rank = proj_bundle_table(plane_table, 3, 4, "lawson").lookup(1, 2).free_rank
        point_rank = plane_table.lookup(0, 0).free_rank
        assert square_rank + point_rank == 3

        # the built-in plane reads the same rank off its Poincare polynomial
        space = builtin_space("projective-plane", "lawson")
        value = evaluate_decomposition(multiplicity_table(2, 2), space, 1, 2)
        assert value == GroupDescriptor(free_rank=3)


def test_criterion_9_cli_contract(capsys):
    with criterion(9, 10.0, "CLI byte-exact examples, exit codes, JSON round-trips"):
        code, out, err = run_cli(
            capsys, "h-poly", "--n", "3", "--d", "2", "--format", "json"
        )
        assert (code, out, err) == (0, '{"n":3,"d":2,"coeffs":[0,1,4,1]}\n', "")

        code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--max-d", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "OVERALL PASS"

        code, out, err = run_cli(capsys, "nests", "--n", "0")
        assert code == 2 and out == "" and "--n" in err

        json_commands = [
            ("nests", "--n", "4", "--format", "json"),
            ("h-poly", "--n", "5", "--d", "3", "--format", "json"),
            ("egf", "--n", "5", "--d", "2", "--verify", "--format", "json"),
            ("mult", "--n", "5", "--d", "3", "--format", "json"),
            (
                "decompose", "--theory", "lawson", "--n", "3", "--d", "2",
                "--p", "2", "--k", "4", "--format", "json",
            ),
            (
                "decompose", "--theory", "lawson", "--n", "2", "--d", "2",
                "--mode", "ranks", "--space", "p2", "--p", "1", "--k", "2",
                "--format", "json",
            ),
            (
                "decompose", "--theory", "betti", "--n", "3", "--d", "2",
                "--mode", "ranks", "--space", "p2", "--format", "json",
            ),
            (
                "decompose", "--theory", "db", "--n", "2", "--d", "3",
                "--p", "0", "--k", "4", "--format", "json",
            ),
            (
                "decompose", "--theory", "chow", "--n", "3", "--d", "2",
                "--p", "2", "--format", "json",
            ),
            ("verify", "--max-n", "3", "--max-d", "2", "--format", "json"),
        ]
        for argv in json_commands:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert render_json(json.loads(out)) == out.rstrip("\n"), argv
