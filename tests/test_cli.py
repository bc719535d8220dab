import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fmc
import fmc.genfun
from fmc.cli import _parse, build_parser, main, render_json
from fmc.genfun import multiplicity_table
from fmc.nests import NEST_BUDGET
from fmc.polyseries import IntPoly
from fmc.theory import THEORIES, betti_of_fm, formal_evaluation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_roundtrip(document):
    parsed = json.loads(document)
    assert render_json(parsed) == document.rstrip("\n")


class TestContractExamples:
    def test_h_poly_bytes(self, capsys):
        code, out, err = run_cli(
            capsys, "h-poly", "--n", "3", "--d", "2", "--format", "json"
        )
        assert code == 0
        assert out == '{"n":3,"d":2,"coeffs":[0,1,4,1]}\n'
        assert err == ""

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--max-d", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "OVERALL PASS"

    def test_nests_zero_rejected(self, capsys):
        code, out, err = run_cli(capsys, "nests", "--n", "0")
        assert code == 2
        assert out == ""
        assert "--n" in err


class TestJsonStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ("nests", "--n", "3", "--format", "json"),
            ("h-poly", "--n", "4", "--d", "3", "--format", "json"),
            ("egf", "--n", "4", "--d", "2", "--verify", "--format", "json"),
            ("mult", "--n", "4", "--d", "2", "--format", "json"),
            (
                "decompose", "--theory", "lawson", "--n", "3", "--d", "2",
                "--format", "json",
            ),
            (
                "decompose", "--theory", "lawson", "--n", "2", "--d", "2",
                "--p", "1", "--k", "2", "--format", "json",
            ),
            (
                "decompose", "--theory", "db", "--n", "2", "--d", "2",
                "--p", "1", "--k", "2", "--format", "json",
            ),
            (
                "decompose", "--theory", "chow", "--n", "2", "--d", "3",
                "--p", "2", "--format", "json",
            ),
            (
                "decompose", "--theory", "lawson", "--n", "2", "--d", "2",
                "--mode", "ranks", "--space", "p2", "--p", "1", "--k", "2",
                "--format", "json",
            ),
            (
                "decompose", "--theory", "betti", "--n", "2", "--d", "2",
                "--mode", "ranks", "--space", "p2", "--format", "json",
            ),
            ("verify", "--max-n", "3", "--max-d", "2", "--format", "json"),
        ],
    )
    def test_roundtrip(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_roundtrip(out)

    def test_determinism(self, capsys):
        first = run_cli(capsys, "mult", "--n", "5", "--d", "2", "--format", "json")
        second = run_cli(capsys, "mult", "--n", "5", "--d", "2", "--format", "json")
        assert first == second

    def test_big_integers_become_strings(self):
        assert render_json({"v": 2**63 - 1}) == '{"v":9223372036854775807}'
        assert render_json({"v": 2**63}) == '{"v":"9223372036854775808"}'
        assert_roundtrip(render_json({"v": 2**100}))


class TestSubcommands:
    def test_nests_text(self, capsys):
        code, out, _ = run_cli(capsys, "nests", "--n", "2")
        assert code == 0
        assert out.splitlines()[0] == "n=2 count=2"

    def test_nests_budget(self, capsys):
        code, _, err = run_cli(capsys, "nests", "--n", "8")
        assert code == 2
        assert "budget" in err

    def test_h_poly_text(self, capsys):
        code, out, _ = run_cli(capsys, "h-poly", "--n", "3", "--d", "2")
        assert code == 0
        assert out == "n=3 d=2 h = x + 4*x^2 + x^3\n"

    def test_egf_verify(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--n", "4", "--d", "2", "--verify")
        assert code == 0
        assert "verified: ok" in out

    @pytest.mark.parametrize(
        "patched, failures",
        [
            ("recurrence_egf", ["identity-residual", "solver-match"]),
            ("egf_solve", ["solver-match"]),
        ],
    )
    def test_egf_verify_names_failures(self, capsys, monkeypatch, patched, failures):
        # Both checks judge the printed series: a wrong h_3 from the kernel
        # fails both, a wrong solver only the match.
        real = getattr(fmc.genfun, patched)

        def wrong(n, d):
            series = real(n, d)
            return series[:3] + (series[3] + IntPoly([1]),) + series[4:]

        monkeypatch.setattr(fmc.genfun, patched, wrong)
        code, out, _ = run_cli(capsys, "egf", "--n", "4", "--d", "2", "--verify")
        assert code == 1
        assert out.splitlines()[-1] == f"verified: FAILED ({', '.join(failures)})"
        code, out, _ = run_cli(
            capsys, "egf", "--n", "4", "--d", "2", "--verify", "--format", "json"
        )
        doc = json.loads(out)
        assert (code, doc["verified"], doc["failures"]) == (1, False, failures)

    def test_egf_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "egf", "--n", "3", "--d", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["h"] == [[], [1], [0, 1], [0, 1, 4, 1]]

    def test_mult_text(self, capsys):
        code, out, _ = run_cli(capsys, "mult", "--n", "3", "--d", "2")
        assert out.splitlines() == [
            "n=3 d=2",
            "m=3: 1",
            "m=2: 3*x",
            "m=1: x + 4*x^2 + x^3",
        ]

    def test_decompose_formal_terms(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--theory", "lawson", "--mode", "formal",
            "--n", "2", "--d", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        terms = set()
        for line in lines:
            fields = dict(part.split("=") for part in line.split())
            terms.add((int(fields["m"]), int(fields["shift"]), int(fields["mult"])))
        assert terms == {(2, 0, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1)}

    def test_decompose_ranks_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "2",
            "--mode", "ranks", "--space", "p2", "--p", "1", "--k", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == {"free_rank": 3, "torsion": []}

    def test_decompose_formal_shows_the_space(self, capsys):
        # Formal mode reads --space too: the header names it, the terms stay.
        argv = ("decompose", "--theory", "lawson", "--n", "2", "--d", "2",
                "--mode", "formal", "--p", "1", "--k", "2")
        for fmt, plain, named in (
            ("text", "k=2", "k=2 space=projective-plane"),
            ("json", '"k":2', '"k":2,"space":"projective-plane"'),
        ):
            _, expected, _ = run_cli(capsys, *argv, "--format", fmt)
            code, out, _ = run_cli(capsys, *argv, "--space", "p2", "--format", fmt)
            assert code == 0
            assert plain in expected
            assert out == expected.replace(plain, named, 1)

    def test_decompose_betti_poincare(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--theory", "betti", "--n", "2", "--d", "2",
            "--mode", "ranks", "--space", "p2", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["poincare"] == {"coeffs": [1, 0, 3, 0, 4, 0, 3, 0, 1]}

    def test_decompose_db_formal_names(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--theory", "db", "--n", "2", "--d", "2",
            "--p", "1", "--k", "2", "--format", "json",
        )
        doc = json.loads(out)
        groups = [t["group"] for t in doc["terms"]]
        assert groups == ["H^2_D(X^2, Z(1))", "H^0_D(X, Z(0))"]

    def test_decompose_latex(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "3",
            "--format", "latex",
        )
        assert code == 0
        assert "\\oplus" in out

    def test_decompose_space_file(self, capsys, tmp_path):
        doc = {
            "name": "line",
            "dim": 1,
            "kind": "lawson",
            "table": [
                {"p": 0, "k": 0, "free_rank": 1},
                {"p": 0, "k": 2, "free_rank": 1},
                {"p": 1, "k": 2, "free_rank": 1},
            ],
            "powers": {
                "2": [
                    {"p": 0, "k": 0, "free_rank": 1},
                    {"p": 0, "k": 2, "free_rank": 2},
                    {"p": 0, "k": 4, "free_rank": 1},
                    {"p": 1, "k": 2, "free_rank": 2},
                    {"p": 1, "k": 4, "free_rank": 2},
                    {"p": 2, "k": 4, "free_rank": 1},
                ]
            },
        }
        path = tmp_path / "line.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", str(path), "--p", "1", "--k", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"]["free_rank"] == 2

    def test_malformed_space_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "dim": 1, "kind": "lawson", "oops": []}')
        code, _, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", str(path), "--p", "0", "--k", "0",
        )
        assert code == 2
        assert "unknown fields" in err

    def test_missing_space_in_ranks_mode(self, capsys):
        code, _, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "2",
            "--mode", "ranks", "--p", "1", "--k", "2",
        )
        assert code == 2
        assert "--space" in err

    def test_invalid_lawson_index(self, capsys):
        code, _, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "2",
            "--p", "2", "--k", "1",
        )
        assert code == 2
        assert "k >= 2p" in err

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-n", "3", "--max-d", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] is True
        assert all(check["pass"] for check in doc["checks"])

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "h-poly", "--n", "2", "--d", "2", "--wat")
        assert code == 2
        assert "--wat" in err or "unrecognized" in err

    @pytest.mark.parametrize(
        "sub", ["nests", "h-poly", "egf", "mult", "decompose", "verify"]
    )
    def test_help(self, capsys, sub):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out.lower()


LINE_DOC = {
    "name": "line",
    "dim": 1,
    "kind": "lawson",
    "table": [{"p": 0, "k": 0, "free_rank": 1}, {"p": 1, "k": 2, "free_rank": 1}],
    "powers": {"2": [{"p": 0, "k": 0, "free_rank": 1}]},
}


def without_none(doc):
    return {key: value for key, value in doc.items() if value is not None}


def line_doc(**fields):
    """LINE_DOC with top-level fields replaced; a field set to None is dropped."""
    return without_none({**LINE_DOC, **fields})


def line_record(**fields):
    """LINE_DOC whose table is one record, p = k = 0 and free_rank = 1, with fields replaced."""
    return line_doc(table=[without_none({"p": 0, "k": 0, "free_rank": 1, **fields})])


BETTI_LINE = {"name": "L", "dim": 1, "kind": "betti", "betti": [1, 0, 1]}

# Every descriptor a lawson decompose refuses, with its message.
BAD_DESCRIPTORS = {
    "table-not-list": (line_doc(table={}), "table: expected a list of records"),
    "record-not-object": (line_doc(table=[1]), "table[0]: expected an object"),
    "record-missing-field": (
        line_record(free_rank=None), "table[0]: missing field 'free_rank'"
    ),
    "record-string-field": (line_record(k="0"), "table[0]: field 'k' must be an integer"),
    "record-bool-field": (line_record(p=False), "table[0]: field 'p' must be an integer"),
    "record-negative-k": (
        line_record(k=-2), "table[0]: k < 0 entries are zero and may not be stored"
    ),
    "record-negative-rank": (
        line_record(free_rank=-1), "table[0]: free_rank must be nonnegative"
    ),
    "not-object": ([LINE_DOC], "space descriptor must be a JSON object"),
    "missing-dim": (line_doc(dim=None), "missing field 'dim'"),
    "name-not-string": (line_doc(name=5), "field 'name' must be a string"),
    "dim-zero": (line_doc(dim=0), "field 'dim' must be an integer >= 1"),
    "dim-bool": (line_doc(dim=True), "field 'dim' must be an integer >= 1"),
    "unknown-kind": (
        line_doc(kind="hodge"), "field 'kind' must be one of ['lawson', 'chow', 'db', 'betti']"
    ),
    "betti-with-table": ({**BETTI_LINE, "table": []}, "betti descriptors carry no tables"),
    "betti-not-integers": (
        {**BETTI_LINE, "betti": [1, "0", 1]}, "field 'betti' must be a list of integers"
    ),
    "betti-negative": (
        {**BETTI_LINE, "betti": [1, -1, 1]}, "Betti coefficients must be nonnegative"
    ),
    "betti-degree": (
        {**BETTI_LINE, "betti": [1, 0, 0, 0, 1]}, "Betti polynomial degree exceeds 2*dim"
    ),
    "table-with-betti": (
        line_doc(betti=[1, 0, 1]), "lawson descriptors carry a 'table', not 'betti'"
    ),
    "missing-table": (line_doc(table=None), "missing field 'table'"),
    "powers-not-object": (line_doc(powers=[]), "field 'powers' must be an object"),
    "kind-mismatch": (BETTI_LINE, "space kind 'betti' does not match --theory 'lawson'"),
}


class TestInputGuards:
    @pytest.mark.parametrize(
        "argv",
        [
            ("h-poly", "--n", "30", "--d", "6"),
            ("h-poly", "--n", "41", "--d", "1"),
            ("mult", "--n", "41", "--d", "1"),
            ("egf", "--n", "41", "--d", "2", "--verify"),
            ("decompose", "--theory", "lawson", "--n", "2", "--d", "161"),
        ],
    )
    def test_kernel_budget_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "kernel budget exceeded" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("egf", "--n", "1", "--d", "100000", "--verify"), "kernel budget exceeded"),
            (("verify", "--max-n", "3", "--max-d", "80"), "verify budget exceeded"),
            (("verify", "--max-n", "1", "--max-d", "5000"), "verify budget exceeded"),
        ],
    )
    def test_dimension_caps_exit_2_at_once(self, argv, message):
        # Without a cap on d each runs for half a minute or more; a child
        # with a timeout turns such a regression into a failure, not a hang.
        src = Path(fmc.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "fmc.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "doc, message", list(BAD_DESCRIPTORS.values()), ids=list(BAD_DESCRIPTORS)
    )
    def test_bad_descriptor_exit_2(self, capsys, tmp_path, doc, message):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", str(path), "--p", "0", "--k", "0",
        )
        assert (code, out, err) == (2, "", f"fmc: error: {message}\n")

    def test_zero_padded_betti_file_reads_in_linear_time(self, tmp_path):
        # Trailing zeros reach the polynomial constructor before the degree
        # check, so it must strip them in linear time: stripping one slice
        # at a time is quadratic and runs past the timeout here.
        src = Path(fmc.__file__).resolve().parents[1]
        outputs = []
        for padding in (0, 10**6):
            path = tmp_path / f"padded{padding}.json"
            path.write_text(
                '{"name": "s", "dim": 2, "kind": "betti", "betti": [1, 0, 1, 0, 1'
                + ", 0" * padding + "]}"
            )
            result = subprocess.run(
                [
                    sys.executable, "-m", "fmc.cli", "decompose", "--theory", "betti",
                    "--n", "3", "--d", "2", "--mode", "ranks", "--space", str(path),
                ],
                env=dict(os.environ, PYTHONPATH=str(src)),
                capture_output=True, text=True, timeout=5,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("index", [(), ("--k", "2")])
    def test_betti_space_dimension_checked(self, capsys, index):
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "betti", "--n", "2", "--d", "3",
            "--mode", "ranks", "--space", "p2", *index,
        )
        assert code == 2
        assert out == ""
        assert "space dimension 2 does not match" in err

    @pytest.mark.parametrize("name", ["point", "pt"])
    def test_point_is_not_builtin(self, capsys, monkeypatch, tmp_path, name):
        # A point has dimension 0 and --d is >= 1, so no decomposition could
        # use it: the name is read as a descriptor path, absent here.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "betti", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", name,
        )
        assert (code, out) == (2, "")
        assert err
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (space,) = [a for a in commands.choices["decompose"]._actions if a.dest == "space"]
        assert "point" not in space.help

    def test_duplicate_json_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(LINE_DOC)[:-1] + ', "name": "again"}')
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", str(path), "--p", "0", "--k", "0",
        )
        assert code == 2
        assert out == ""
        assert "duplicate key 'name'" in err

    @pytest.mark.parametrize("key", ["02", "+2", " 2"])
    def test_noncanonical_powers_key_rejected(self, capsys, tmp_path, key):
        doc = json.loads(json.dumps(LINE_DOC))
        doc["powers"][key] = [{"p": 0, "k": 0, "free_rank": 5}]
        path = tmp_path / "powers.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", str(path), "--p", "1", "--k", "2",
        )
        assert code == 2
        assert out == ""
        assert "not a canonical decimal integer" in err

    def test_deeply_nested_file_exit_2(self, capsys, tmp_path):
        # json.load gives up with RecursionError; that is bad input, not a crash.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", str(path), "--p", "0", "--k", "0",
        )
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err

    def test_group_past_the_power_dimension_exit_2(self, capsys, tmp_path):
        # X^2 of a curve has real dimension 4, so L_0H_60 is 0; the record
        # used to be read back as Z^4.
        doc = json.loads(json.dumps(LINE_DOC))
        doc["powers"]["2"] = [{"p": 0, "k": 60, "free_rank": 4}]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", "2", "--d", "1",
            "--mode", "ranks", "--space", str(path), "--p", "0", "--k", "60",
        )
        assert (code, out) == (2, "")
        assert "powers[2][0]: lawson records of X^2 need 0 <= 2p <= k <= 4" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_result_past_the_digit_limit_exit_2(self, capsys, tmp_path, fmt):
        # The largest coefficient a descriptor can carry is written back at
        # n = 1; at n = 2 its square is past the limit.
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "big.json"
        path.write_text(
            f'{{"name": "big", "dim": 1, "kind": "betti", "betti": [1, {"9" * limit}, 1]}}'
        )
        argv = ("decompose", "--theory", "betti", "--d", "1", "--mode", "ranks",
                "--space", str(path), "--format", fmt)
        code, out, _ = run_cli(capsys, *argv, "--n", "1")
        assert code == 0 and "9" * limit in out
        for index in ((), ("--k", "2")):
            code, out, err = run_cli(capsys, *argv, "--n", "2", *index)
            assert (code, out) == (2, "")
            assert err == (
                f"fmc: error: a coefficient of the result has more than {limit} digits, "
                "the most an integer may be written with\n"
            )


class TestPoincareProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 3),
        d=st.integers(1, 3),
        n=st.integers(1, 6),
        half=st.lists(st.integers(0, 3), min_size=3, max_size=3),
        lead=st.integers(1, 3),
    )
    def test_palindromic_input_gives_palindromic_output(
        self, tmp_path_factory, dim, d, n, half, lead
    ):
        # A palindromic Betti input of degree 2d gives a Poincare polynomial
        # of X[n] that is palindromic of degree 2dn; any other dimension is
        # refused.
        front = [lead] + half[:dim]
        path = tmp_path_factory.mktemp("betti") / "space.json"
        path.write_text(json.dumps(
            {"name": "s", "dim": dim, "kind": "betti", "betti": front + front[-2::-1]}
        ))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([
                "decompose", "--theory", "betti", "--n", str(n), "--d", str(d),
                "--mode", "ranks", "--space", str(path), "--format", "json",
            ])
        if dim != d:
            assert (code, out.getvalue()) == (2, "")
            return
        assert code == 0
        coeffs = json.loads(out.getvalue())["poincare"]["coeffs"]
        assert len(coeffs) == 2 * d * n + 1
        assert coeffs == coeffs[::-1]


INDEX_VALUES = [None, *range(-2, 9)]


# Spaces that decompose refuses in every mode and format.
BAD_SPACES = {
    "missing-file": ("--theory", "lawson", "--d", "2", "--space", "/nonexistent.json"),
    "dimension": ("--theory", "lawson", "--d", "3", "--space", "p2", "--p", "0", "--k", "0"),
    "db-builtin": ("--theory", "db", "--d", "2", "--space", "p2"),
}


class TestIndexAgreement:
    @pytest.mark.parametrize("kind", ["lawson", "chow", "db", "betti"])
    def test_cli_refuses_what_the_library_refuses(self, kind):
        # With any index given, formal mode exits 2 exactly when the library
        # refuses the index: a missing or stray slot, or one out of range.
        dec = multiplicity_table(2, 2)
        for p in INDEX_VALUES:
            for k in INDEX_VALUES:
                if p is None and k is None:
                    continue
                try:
                    formal_evaluation(dec, kind, p, k)
                    expected = 0
                except ValueError:
                    expected = 2
                argv = ["decompose", "--theory", kind, "--n", "2", "--d", "2"]
                argv += [] if p is None else ["--p", str(p)]
                argv += [] if k is None else ["--k", str(k)]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code == expected, (p, k)

    @pytest.mark.parametrize(
        "mode, argv",
        [
            *[
                pytest.param(mode, argv, id=name + suffix)
                for mode, suffix in (("ranks", ""), ("formal", "-formal"))
                for name, argv in BAD_SPACES.items()
            ],
            pytest.param("ranks", ("--theory", "lawson", "--d", "2"), id="no-space"),
            pytest.param(
                "ranks", ("--theory", "lawson", "--d", "2", "--space", "p2"), id="no-index"
            ),
        ],
    )
    def test_latex_ranks_refuses_what_text_refuses(self, capsys, mode, argv):
        # A bad --space is refused in both modes; ranks mode also needs a
        # space and an index.
        argv = ("decompose", "--n", "2", "--mode", mode, *argv)
        results = [
            run_cli(capsys, *argv, "--format", fmt) for fmt in ("text", "json", "latex")
        ]
        assert [code for code, _, _ in results] == [2, 2, 2]
        assert len({err for _, _, err in results}) == 1
        assert results[2][1] == ""


class TestLargeMultiplicities:
    def test_lawson_n12_ranks_fit_in_512_mib(self):
        # Multiplicities near 7e11 are summed, never expanded into copies.
        # The child runs under a 512 MiB address-space limit, so a
        # regression fails fast instead of exhausting the machine.
        limit = 512 * 1024 * 1024
        src = Path(fmc.__file__).resolve().parents[1]
        result = subprocess.run(
            [
                sys.executable, "-m", "fmc.cli", "decompose", "--theory", "lawson",
                "--n", "12", "--d", "2", "--mode", "ranks", "--space", "p2",
                "--p", "5", "--k", "14",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "value: Z^297424083906"

    @pytest.mark.parametrize("theory", ["lawson", "db"])
    def test_formal_n12_over_summand_budget_exits_2(self, theory):
        # Formal names are listed once per copy, so near 1e11 copies cannot
        # be printed; the budget refuses them before any list grows.
        limit = 512 * 1024 * 1024
        src = Path(fmc.__file__).resolve().parents[1]
        result = subprocess.run(
            [
                sys.executable, "-m", "fmc.cli", "decompose", "--theory", theory,
                "--n", "12", "--d", "2", "--p", "5", "--k", "14",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 2, result.stderr
        assert "summand budget exceeded" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("theory", ["lawson", "db"])
    def test_formal_n12_latex_lists_no_copies(self, theory):
        # LaTeX names each term once, not once per copy, so the same formal
        # op is printed: the formal value is evaluated only past the latex
        # return.
        limit = 512 * 1024 * 1024
        src = Path(fmc.__file__).resolve().parents[1]
        result = subprocess.run(
            [
                sys.executable, "-m", "fmc.cli", "decompose", "--theory", theory,
                "--n", "12", "--d", "2", "--p", "5", "--k", "14", "--format", "latex",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout.startswith("$ ")

    @pytest.mark.parametrize("n", [21, 24])
    def test_lawson_ranks_past_int64_exit_0(self, capsys, n):
        # Some multiplicities pass sys.maxsize from n = 21 on; summing them
        # must not repeat an empty torsion or formal tuple that many times.
        code, out, err = run_cli(
            capsys, "decompose", "--theory", "lawson", "--n", str(n), "--d", "2",
            "--mode", "ranks", "--space", "p2", "--p", "5", "--k", "14",
            "--format", "json",
        )
        assert code == 0, err
        assert int(json.loads(out)["value"]["free_rank"]) > sys.maxsize

    @pytest.mark.parametrize("n", [21, 24, 32, 40])
    def test_betti_k_is_poincare_coefficient(self, capsys, n):
        poincare = betti_of_fm(IntPoly([1, 0, 1, 0, 1]), 2, n)
        for k in (14, 2 * n, 2 * n + 1):
            code, out, err = run_cli(
                capsys, "decompose", "--theory", "betti", "--n", str(n), "--d", "2",
                "--mode", "ranks", "--space", "p2", "--k", str(k), "--format", "json",
            )
            assert code == 0, err
            assert int(json.loads(out)["value"]["free_rank"]) == poincare.coefficient(k), k


class TestNestListingMemory:
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("text", "38a5bac1076ca0082969310558acc856ba8b0f60f5862cc22757d39023b10362"),
            ("json", "4509bfd93db95cd5830d23b57816394f59508bc7b270db49aef6a8ad9fa91989"),
        ],
        ids=["text", "json"],
    )
    def test_n7_listing_fits_in_56_mib(self, fmt, digest):
        # The listing at the admitted budget holds one int per nest and writes
        # each nest as it is rendered, so neither the 19 MB JSON document nor
        # a row of member tuples per nest is ever held.  The JSON digest is
        # that of the listing rendered as one document.
        limit = 56 * 1024 * 1024
        src = Path(fmc.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "fmc.cli", "nests", "--n", "7", "--format", fmt],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout).hexdigest() == digest


# Runs one command in a fresh interpreter and prints its exit code and then
# every module loaded by then.  The child runs with -S, so that ``site`` and
# its .pth files preload nothing, and imports nothing itself that the
# interpreter had not loaded.
FOOTPRINT = """
import io, sys
from fmc.cli import main
sys.stdout = io.StringIO()
code = main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, " ".join(sorted(sys.modules)))
"""


def import_footprint(*argv, code=0):
    src = Path(fmc.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    exit_code, *loaded = result.stdout.split()
    assert int(exit_code) == code, result.stderr
    return set(loaded)


NOT_KERNEL = {"fmc.theory", "fmc.nests", "fmc.oracle"}
# Standard-library modules no command loads: dataclasses alone pulls in
# inspect, ast and dis, about 20 ms per process with its generated methods.
NEVER_LOADED = {"dataclasses", "inspect", "typing"}
# json loads only for JSON output or a descriptor file.
JSON_MODULES = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}
# argparse, with gettext and locale, and shutil for its help width, loads
# only to render --help or an error.
ARGPARSE_MODULES = {"argparse", "gettext", "locale", "shutil"}
# Every case writes text and reads no descriptor file.
SUCCESS_CASES = [
    (("h-poly", "--n", "4", "--d", "2"), NOT_KERNEL),
    (("mult", "--n", "4", "--d", "2"), NOT_KERNEL),
    (("egf", "--n", "4", "--d", "2"), NOT_KERNEL),
    (
        ("decompose", "--theory", "betti", "--n", "3", "--d", "2",
         "--mode", "ranks", "--space", "p2"),
        {"fmc.nests", "fmc.oracle"},
    ),
    (("nests", "--n", "3"), {"fmc.theory", "fmc.oracle"}),
    (("egf", "--n", "4", "--d", "2", "--verify"), NOT_KERNEL),
    (("verify", "--max-n", "3", "--max-d", "1"), set()),
]


class TestImports:
    def test_version_loads_only_the_cli(self):
        loaded = import_footprint("--version")
        assert {m for m in loaded if m.split(".")[0] == "fmc"} == {"fmc", "fmc.cli"}
        assert not loaded & (NEVER_LOADED | JSON_MODULES | ARGPARSE_MODULES)

    @pytest.mark.parametrize("argv, unused", SUCCESS_CASES)
    def test_command_loads_only_what_it_runs(self, argv, unused):
        loaded = import_footprint(*argv)
        assert "fmc.genfun" in loaded
        assert not loaded & (unused | NEVER_LOADED | JSON_MODULES | ARGPARSE_MODULES)

    @pytest.mark.parametrize(
        "argv, code", [(("h-poly", "--n", "0", "--d", "2"), 2), (("--help",), 0)]
    )
    def test_help_and_errors_go_through_argparse(self, argv, code):
        assert "argparse" in import_footprint(*argv, code=code)

    def test_json_loads_for_json_output_or_a_descriptor_file(self, tmp_path):
        path = tmp_path / "line.json"
        path.write_text('{"name": "L", "dim": 1, "kind": "betti", "betti": [1, 0, 1]}')
        for argv in (
            ("h-poly", "--n", "4", "--d", "2", "--format", "json"),
            ("decompose", "--theory", "betti", "--n", "3", "--d", "1",
             "--mode", "ranks", "--space", str(path)),
        ):
            loaded = import_footprint(*argv)
            assert "json" in loaded and not loaded & NEVER_LOADED, argv

    def test_parser_literals_match_the_library(self, capsys):
        # The parser copies these so that building it imports no library module.
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (theory,) = [a for a in commands.choices["decompose"]._actions if a.dest == "theory"]
        assert theory.choices == tuple(THEORIES)
        for sub, phrase in (("nests", "budget of n <="), ("verify", "past n =")):
            _, out, _ = run_cli(capsys, sub, "--help")
            assert f"{phrase} {NEST_BUDGET}" in " ".join(out.split())


COMMANDS = ["nests", "h-poly", "egf", "mult", "decompose", "verify"]
# The flags of every subcommand, abbreviations, the --flag=value form, help
# flags and junk; the values of every option, junk, signs, spaces,
# underscores and integers past 64 bits and past the digit limit.
FLAGS = [
    "--n", "--d", "--format", "--theory", "--p", "--k", "--space", "--mode",
    "--max-n", "--max-d", "--verify", "--budget-override",
    "--form", "--the", "--max", "--budget", "--ver", "--n=3", "--format=json",
    "-h", "--help", "--version", "--wat", "-n", "--",
]
VALUES = [
    "1", "2", "3", "0", "-1", "-7", " 4", "+5", "1_0", "3.0", "x", "", "a=b",
    str(2**70), "9" * 5000, "json", "text", "latex", "lawson", "chow", "db",
    "betti", "hodge", "formal", "ranks", "p2", "nests",
]
# The required options of each subcommand, with values; the rest take --n, --d.
REQUIRED = {
    "nests": ["--n", "3"],
    "verify": [],
    "decompose": ["--theory", "db", "--n", "2", "--d", "2"],
}


@st.composite
def command_lines(draw):
    """Mostly well-formed command lines, each with one or two things changed."""
    command = draw(st.sampled_from(COMMANDS))
    base = REQUIRED.get(command, ["--n", "3", "--d", "2"])
    items = [base[i:i + 2] for i in range(0, len(base), 2)]
    items += draw(st.lists(
        st.tuples(st.sampled_from(FLAGS), st.sampled_from([None, *VALUES])).map(
            lambda pair: [token for token in pair if token is not None]
        ),
        max_size=4,
    ))
    argv = [command] + [token for item in draw(st.permutations(items)) for token in item]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(FLAGS + VALUES)))
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


class TestParser:
    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    def test_plain_command_lines_parse_as_argparse_does(self, argv):
        parsed = _parse(argv)
        if parsed is not None:
            expected = build_parser().parse_args(argv)
            assert vars(expected) == vars(parsed)
            assert expected.handler is parsed.handler

    @pytest.mark.parametrize("argv", [argv for argv, _ in SUCCESS_CASES] + [
        ("decompose", "--theory", "lawson", "--n", "2", "--d", "2", "--p", "1", "--k", "2",
         "--mode", "ranks", "--space", "p2", "--format", "json", "--format", "text"),
        ("nests", "--n", "3", "--budget-override", "--budget-override"),
    ])
    def test_plain_command_lines_are_read_off_the_table(self, argv):
        parsed = _parse(list(argv))
        assert parsed is not None
        assert vars(parsed) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        (), ("--version",), ("--help",), ("-h",), ("nests", "--n", "3", "-h"),
        ("nests", "--n", "3", "extra"), ("nests", "--n"), ("nests", "--n=3"),
        ("nests", "--n", "3", "--form", "json"), ("decompose", "--theory", "db",
         "--n", "2", "--d", "2", "--p", "-1", "--k", "2"),
        ("nests", "--n", "0"), ("nests", "--n", "3", "--format", "latex"),
        ("h-poly", "--n", "3"), ("--version", "nests", "--n", "3"), ("hpoly",),
    ])
    def test_everything_else_goes_to_argparse(self, argv):
        assert _parse(list(argv)) is None


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [(("--help",), "help-top.txt"), (("--version",), "version.txt")]
    + [((sub, "--help"), f"help-{sub}.txt") for sub in COMMANDS],
)
def test_help_and_version_bytes(argv, golden):
    # argparse's own bytes at 80 columns, as fmc wrote them when argparse
    # parsed every command line.
    src = Path(fmc.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "fmc.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src), COLUMNS="80"),
        capture_output=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN / golden).read_bytes()
