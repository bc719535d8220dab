import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fmc
from fmc.cli import _COMMANDS, main
from fmc.genfun import KERNEL_BUDGET
from fmc.nests import NEST_BUDGET
from fmc.oracle import VERIFY_MAX_D
from fmc.theory import SUMMAND_BUDGET

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


def test_every_public_name_has_a_program_caller():
    # The public API keeps only what callers use: each name of fmc.__all__
    # is read somewhere in the package outside its lazy name table, or in a
    # shipped script.  An import alone is no use, and tests do not count.
    sources = [p for p in sorted((ROOT / "src" / "fmc").glob("*.py")) if p.name != "__init__.py"]
    loaded = set()
    for path in sources + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(fmc.__all__) - loaded) == []


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


def test_json_is_imported_only_to_read_a_descriptor_file():
    # fmc.cli.render_json writes JSON itself, so the json module has one
    # import site, in fmc.theory.load_space.  Outside a function an import
    # has no owner (None).
    sites = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): top.name
            for top in tree.body
            if isinstance(top, ast.FunctionDef)
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            sites += [
                (path.name, owner.get(id(node)))
                for name in names
                if name.split(".")[0] in ("json", "_json")
            ]
    assert sites == [("theory.py", "load_space")]


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


def test_readme_states_every_budget_at_its_value():
    # The README's exit-code paragraph states each size budget as the code
    # has it, and each command option it names is one the parser takes.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(text.split("Exit codes:", 1)[1].split("\n\n", 1)[0].split())
    max_n, max_degree = KERNEL_BUDGET
    exponent = len(str(SUMMAND_BUDGET)) - 1
    assert SUMMAND_BUDGET == 10**exponent
    for phrase in (
        f"`NEST_BUDGET = {NEST_BUDGET}`",
        f"`n <= {max_n}`",
        f"`d <= {max_degree}`",
        f"`d*(n-1) <= {max_degree}`",
        f"`VERIFY_MAX_D = {VERIFY_MAX_D}`",
        f"`SUMMAND_BUDGET = 10^{exponent}`",
    ):
        assert phrase in paragraph
    named = re.findall(r"`([a-z-]+) (--[a-z-]+)`", paragraph)
    assert named
    for command, flag in named:
        assert flag in dict(_COMMANDS[command][2]), (command, flag)


def test_ci_runs_the_tier1_command():
    # The CI workflow runs exactly the ROADMAP's tier-1 command, on the
    # Python whose argparse bytes the help goldens pin.  It is read as plain
    # text, so the test needs no YAML parser.
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^ +(?:- )?run: (.+)$", workflow, re.M)
    assert [run for run in runs if "-m pytest" in run] == [command]
    assert re.findall(r"^ +python-version: (.+)$", workflow, re.M) == ['"3.11"']


def test_ci_installs_the_test_extra():
    # The CI workflow installs exactly the packages of the project's `test`
    # extra, no more and no fewer.  The workflow is read as plain text.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as file:
        extra = tomllib.load(file)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (installed,) = re.findall(r"^ +(?:- )?run: python -m pip install (.+)$", workflow, re.M)
    assert sorted(installed.split()) == sorted(extra)


def test_only_the_entry_routine_ends_the_process():
    # Library code never ends the process: os._exit has one call site, in
    # the entry routine of fmc.cli, and both launchers call that routine.
    sites = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): top.name
            for top in tree.body
            if isinstance(top, ast.FunctionDef)
            for node in ast.walk(top)
        }
        sites += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_exit"
            or isinstance(node, ast.Name) and node.id == "_exit"
            or isinstance(node, ast.alias) and node.name == "_exit"
        ]
    assert sites == [("cli.py", "run")]
    cli = ast.parse((ROOT / "src" / "fmc" / "cli.py").read_text(encoding="utf-8"))
    (guard,) = [node for node in cli.body if isinstance(node, ast.If)]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    run()"
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts.splitlines() == ['fmc = "fmc.cli:run"']


def test_shifted_indices_have_one_reader():
    # A term's shift is applied in one routine, fmc.theory._sum_terms, which
    # every evaluation, the bundle table and term naming call.  Outside a
    # function a reference has no owner (None).
    readers = []
    for path in sorted((ROOT / "src" / "fmc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): top.name
            for top in tree.body
            if isinstance(top, ast.FunctionDef)
            for node in ast.walk(top)
        }
        readers += [
            owner.get(id(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "read_index"
        ]
    assert sorted(readers) == ["_sum_terms"]


def test_nest_route_reads_no_kernel_table():
    # The brute-force sums stay independent of the generating-function
    # kernel: fmc.nests may share its packing, its node weight and its
    # dimension check, but names none of the routines that build or read
    # the kernel's tables, nor the identity solver.
    kernel = {
        "_fill", "_triangle", "multiplicity_table", "h_recurrence",
        "recurrence_egf", "egf_solve", "_solve_at",
    }
    tree = ast.parse((ROOT / "src" / "fmc" / "nests.py").read_text(encoding="utf-8"))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert named & kernel == set()
    assert {"_packed", "sigma"} <= named


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
