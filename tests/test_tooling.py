import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fmc.cli import main

ROOT = Path(__file__).resolve().parents[1]


PUBLIC_NAMES = """
import json, fmc
bound = {}
exec("from fmc import *", bound)
print(json.dumps({
    "unbound": [name for name in fmc.__all__ if name not in bound],
    "table": sorted(fmc._HOMES),
    "all": sorted(fmc.__all__),
}))
"""


def test_public_names_resolve():
    # A fresh interpreter, so that no earlier test has imported a submodule
    # the lazy package would otherwise have to load.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PUBLIC_NAMES], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    names = json.loads(result.stdout)
    assert names["unbound"] == []
    assert names["table"] == names["all"]


def test_package_imports_only_the_standard_library():
    # fmc has no runtime dependencies: every absolute import of the package
    # names __future__ or a standard-library module.  It imports none of the
    # forbidden modules either, whose import costs every command milliseconds
    # (dataclasses pulls in inspect, ast and dis).
    forbidden = {"dataclasses", "inspect", "typing"}
    foreign = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names - forbidden
            ]
    assert foreign == []


def test_argparse_is_imported_only_inside_functions():
    # argparse costs every process milliseconds; fmc imports it only where
    # it renders --help or an error, never when a module loads.
    eager = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                pending.extend(ast.iter_child_nodes(node))
                continue
            eager += [f"{path.name}: {name}" for name in names if name == "argparse"]
    assert eager == []


def test_no_module_compares_with_a_ranged_theory_name():
    # The Lawson and Chow index ranges live only in fmc.theory.THEORIES, so
    # no code branches on those two names.  Comparisons with "db" and
    # "betti" decide which data a kind carries, not a range, and stay.
    ranged = {"lawson", "chow"}
    found = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                listed = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                items = operand.elts if listed else [operand]
                found += [
                    f"{path.name}:{node.lineno}"
                    for item in items
                    if isinstance(item, ast.Constant) and item.value in ranged
                ]
    assert found == []


def test_only_the_theory_module_reads_a_space():
    # --space has one reader, fmc.theory.resolve_space: no other module
    # builds a built-in space or loads a descriptor file itself.
    readers = {"builtin_space", "load_space"}
    found = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        if path.name == "theory.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in readers:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_each_refusal_is_raised_at_one_site():
    # A rule has one owner: functions that share a rule call it instead of
    # writing out its check and message again.  An f-string's formatted
    # values read as {}, so a rule copied with other variables still matches.
    sites = {}
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            first = node.exc.args[0] if node.exc.args else None
            if isinstance(first, ast.JoinedStr):
                parts = first.values
            elif isinstance(first, ast.Constant) and isinstance(first.value, str):
                parts = [first]
            else:
                continue
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in parts)
            sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}


def test_slotted_classes_are_records():
    # Every value type takes its equality, hashing and immutability from
    # fmc.record.Record instead of hand-writing a mutable contract.
    loose = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name == "Record":
                continue
            slotted = any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                for target in stmt.targets
            )
            bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
            if slotted and "Record" not in bases:
                loose.append(f"{path.name}: {node.name}")
    assert loose == []


@pytest.mark.parametrize(
    "script, args",
    [("multiplicity_grid.py", ["4", "2"]), ("poincare_examples.py", ["3"])],
)
def test_shipped_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["mult", "--n", "4", "--d", "2", "--format", "json"],
        ["decompose", "--theory", "lawson", "--n", "3", "--d", "2", "--mode", "formal"],
        ["egf", "--n", "4", "--d", "2", "--verify"],
        [
            "decompose", "--theory", "lawson", "--n", "3", "--d", "2",
            "--mode", "ranks", "--space", "p2", "--p", "1", "--k", "2",
        ],
        ["nests", "--n", "3", "--format", "json"],
        ["verify", "--max-n", "3", "--max-d", "2"],
    ],
)
def test_trace_child_matches_cli(argv, tmp_path, capsys):
    # The trace harness wraps public functions by name, so deleting or
    # renaming one must neither break tracing nor change what is printed.
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_child.py"), str(trace), "--", *argv],
        env=env, capture_output=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert main(argv) == 0
    assert result.stdout == capsys.readouterr().out.encode("utf-8")
    times = json.loads(trace.read_text(encoding="utf-8"))["times"]
    # The traced layer each command must reach; a nest listing only renders.
    metric = {
        "egf": "genfun.verify_identity_s",
        "verify": "nests.brute_bivariate_s",
        "nests": None,
    }.get(argv[0], "genfun.multiplicity_table_s")
    if metric is not None:
        assert times[metric] > 0


def readme_commands():
    """Each ``fmc ...`` line of the README "Command line" block, with its comment."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("fmc "):
            commands.append((shlex.split(command)[1:], comment.strip()))
    return commands


README_COMMANDS = readme_commands()


def test_readme_examples_cover_every_subcommand():
    subcommands = {"nests", "h-poly", "egf", "mult", "decompose", "verify"}
    assert {argv[0] for argv, _ in README_COMMANDS} == subcommands


@pytest.mark.parametrize(
    "argv, comment", README_COMMANDS, ids=[" ".join(argv) for argv, _ in README_COMMANDS]
)
def test_readme_command_runs(argv, comment, capsys):
    assert main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    if argv[0] == "h-poly" and "json" in argv:
        assert out.rstrip("\n") == comment == '{"n":3,"d":2,"coeffs":[0,1,4,1]}'
    if argv[0] == "decompose" and "--p" in argv:
        assert comment == "evaluated: free rank 3"
        assert out.splitlines()[-1] == "value: Z^3"
