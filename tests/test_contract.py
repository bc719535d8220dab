"""The output contract: stdout bytes and exit codes of the benchmark's ops.

``bench/refs.json`` stores the exit code and stdout sha256 of every op the
benchmark can draw, and ``bench/ops.py`` holds the catalogue those ops come
from, with the descriptor files they read.  Every stored op is replayed
here in process through ``fmc.cli.main``, so a byte that moves in any of
them fails tier-1 and names the ops it moved.  Every invalid-input op of
the catalogue must exit 2 with empty stdout, with each seeded variant of
its descriptor files.  The test reads ``bench/`` and writes nothing there.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fmc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
# The seeded variants a benchmark pass binds an invalid op's descriptors to.
VARIANTS = range(4)


def _bench_ops():
    # bench/ is no package: load its catalogue module from the file.  It
    # is registered before it runs, which its dataclasses need.
    spec = importlib.util.spec_from_file_location("bench_ops", BENCH / "ops.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ops = _bench_ops()
REFS = json.loads((BENCH / "refs.json").read_text(encoding="utf-8"))["ops"]
CATALOGUE = [op for classes in ops.catalogue().values() for pool in classes.values() for op in pool]
INVALID = [op for op in CATALOGUE if op.expect == "exit2"]


def replay(argv, tmp_path, capsys):
    """Exit code and stdout of ``fmc`` on argv, each ``@name`` a descriptor file."""
    args = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(ops.descriptor_text(arg[1:]), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    code = main(args)
    return code, capsys.readouterr().out


def test_references_cover_the_catalogue():
    # Every op a pass can draw with an expected output has its reference,
    # and no reference is left over.
    assert set(REFS) == {op.key for op in CATALOGUE if op.expect != "exit2"}


def test_every_stored_op_keeps_its_bytes(tmp_path, capsys):
    moved = []
    for key, ref in REFS.items():
        code, out = replay(key.split(" "), tmp_path, capsys)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if (code, digest) != (ref["exit"], ref["sha256"]):
            moved.append(f"{key}: exit {code}, sha256 {digest[:12]}")
    assert moved == []


@pytest.mark.parametrize("op", INVALID, ids=[op.key for op in INVALID])
def test_every_invalid_op_exits_2_silently(op, tmp_path, capsys):
    for variant in VARIANTS if op.spaces else (None,):
        # The binding a benchmark pass applies to the op's descriptors.
        argv = op.argv if variant is None else ops._bind(op, variant).argv
        assert replay(argv, tmp_path, capsys) == (2, ""), (argv, op.why)
