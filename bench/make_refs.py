"""Regenerate ``bench/refs.json``: reference stdout digests and op costs.

Usage, from the repository root: python3 bench/make_refs.py

Runs every catalogue op that must succeed as a fresh ``fmc`` process and
stores the sha256 of its stdout.  Its cost is its wall time at the
benchmark's reference speed: each timing is scaled by the machine speed
that ``calibrate.py`` measures just before it, and ops over 0.2 s take
the median of three such timings.  An op that fails or breaks an
invariant aborts the script: the catalogue holds only ops the program
handles.  The runaway guard op's reference is made in-process, with the
evaluation summing multiplicities instead of expanding them into lists.
Regenerating changes what the benchmark checks, so it belongs only in a
change that redefines the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sys
from pathlib import Path

import ops
from run import REFS, WORK_DIR, Runner, problem

HEAVY_S = 0.2
SAMPLES = 3


def _guard_reference(root: Path, op: ops.Op) -> str:
    sys.path.insert(0, str(root / "src"))
    import fmc.cli
    from fmc.theory import GroupDescriptor

    def summed(dec, space, p, k):
        # The lawson branch of evaluate_decomposition, multiplying group
        # data by multiplicities; built-in projective tables are torsion-free.
        rank = 0
        for m, shift, mult in dec.terms:
            if k - 2 * shift >= 0:
                group = space.powers[m].lookup(max(p - shift, 0), k - 2 * shift)
                if group.torsion or group.formal:
                    raise ValueError("built-in table with torsion or formal data")
                rank += mult * group.free_rank
        return GroupDescriptor(free_rank=rank)

    fmc.cli.evaluate_decomposition = summed
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if fmc.cli.main(list(op.argv)) != 0:
            raise ValueError(f"guard reference failed: {op.key}")
    return stdout.getvalue()


def main() -> int:
    root = Path.cwd()
    runner = Runner(root)
    workdir = root / WORK_DIR / "refs"
    workdir.mkdir(parents=True, exist_ok=True)
    found: dict[str, ops.Op] = {}
    for classes in ops.catalogue().values():
        for pool in classes.values():
            for op in pool:
                if op.expect in ("ref", "guard"):
                    found[op.key] = op
    refs: dict[str, dict] = {}
    try:
        for number, (key, op) in enumerate(sorted(found.items()), 1):
            if op.expect == "guard":
                text = _guard_reference(root, op).encode()
                refs[key] = {"exit": 0, "sha256": hashlib.sha256(text).hexdigest(),
                             "bytes": len(text), "cost_s": 0.0}
                continue
            argv = []
            for arg in op.argv:
                if arg.startswith("@"):
                    path = workdir / f"{arg[1:]}.json"
                    path.write_text(ops.descriptor_text(arg[1:]), encoding="utf-8")
                    arg = str(path.relative_to(root))
                argv.append(arg)
            out = runner.run(tuple(argv))
            entry = {"exit": out.exit, "sha256": hashlib.sha256(out.stdout).hexdigest(),
                     "bytes": len(out.stdout)}
            why = problem(op, out, {key: entry})
            if why:
                print(f"catalogue op fails: {key}: {why}", file=sys.stderr)
                return 1
            costs = []
            for _ in range(SAMPLES if out.wall > HEAVY_S else 1):
                speed = runner.speed()
                costs.append(runner.run(tuple(argv)).wall * speed)
            entry["cost_s"] = round(statistics.median(costs), 4)
            refs[key] = entry
            print(f"[{number}/{len(found)}] {entry['cost_s']:.3f}s {key}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"about": "sha256 of the stdout of each catalogue op, and its cost in "
                    "seconds at the reference speed, made by bench/make_refs.py", "ops": refs}
    REFS.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
