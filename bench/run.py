"""Benchmark of the ``fmc`` command line: seeded workloads, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload kernel|crosscheck|evaluate|all \\
        --seed N --seconds S --trace 0|1

One closed-loop, single-threaded client starts every op as a fresh
``python -m fmc.cli`` process and waits for it to end before starting the
next.  A pass runs a workload's ops once; passes repeat until ``--seconds``
have elapsed.  Every op's exit code and stdout are checked against
``bench/refs.json`` and against invariants (see ``ops.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain passes with passes whose ops run under ``trace_child.py``, which
wraps the package's public functions from outside, and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import ops

BENCH_DIR = Path(__file__).resolve().parent
TRACE_CHILD = BENCH_DIR / "trace_child.py"
CALIBRATE = BENCH_DIR / "calibrate.py"
REFS = BENCH_DIR / "refs.json"
WORK_DIR = ".bench_work"

# Per-op guards, applied in the child only: a runaway op fails fast and
# counts as failed instead of exhausting a shared machine.
MEMORY_LIMIT = 512 << 20
OP_TIMEOUT_S = 30.0
SETUP_REPEATS = 7
STARTUP_PROBES = 4
# The same op can take 60% longer from one second to the next on a shared
# host.  Every timing is paired with runs of calibrate.py made next to it
# and reported at the reference speed, at which calibrate.py takes
# CALIBRATION_REF_S; a pass runs about CALIBRATIONS_PER_PASS of them
# between its ops.
CALIBRATION_REF_S = 0.1
CALIBRATIONS_PER_PASS = 8
VERSION = ops.Op(("--version",), expect="version")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("startup_ms", "ms"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("genfun.partitions_visited", "count"),
    ("genfun.h_recurrence_s", "s"),
    ("genfun.multiplicity_table_s", "s"),
    ("genfun.egf_solve_s", "s"),
    ("genfun.verify_identity_s", "s"),
    ("genfun.self_s", "s"),
    ("polyseries.mul_calls", "count"),
    ("polyseries.mul_coeff_ops", "count"),
    ("polyseries.mul_s", "s"),
    ("polyseries.max_coeff_bits", "bits"),
    ("polyseries.egf_mul_calls", "count"),
    ("polyseries.egf_exp_calls", "count"),
    ("polyseries.egf_s", "s"),
    ("polyseries.self_s", "s"),
    ("nests.enumerated", "count"),
    ("nests.enumerate_s", "s"),
    ("nests.stats_calls", "count"),
    ("nests.stats_per_nest", "1"),
    ("nests.stats_s", "s"),
    ("nests.brute_bivariate_s", "s"),
    ("nests.self_s", "s"),
    ("oracle.checks", "count"),
    ("oracle.checks_failed", "count"),
    ("oracle.brute_equiv_s", "s"),
    ("oracle.solver_match_s", "s"),
    ("oracle.identity_residual_s", "s"),
    ("oracle.structure_s", "s"),
    ("oracle.table_blowup_s", "s"),
    ("oracle.palindrome_s", "s"),
    ("oracle.blowup_s", "s"),
    ("oracle.self_s", "s"),
    ("theory.decompose_formal_calls", "count"),
    ("theory.decompose_formal_s", "s"),
    ("theory.space_build_s", "s"),
    ("theory.evaluate_s", "s"),
    ("theory.summands", "count"),
    ("theory.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.render_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "1"),
)


@dataclass
class Outcome:
    exit: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


class Runner:
    """Starts one child per op with pinned environment and guards."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(root / "src"),
            "PYTHONHASHSEED": "0",
            "PYTHONIOENCODING": "utf-8",
            "LC_ALL": "C.UTF-8",
        }

    def run(self, argv: tuple[str, ...], trace_path: Path | None = None) -> Outcome:
        if trace_path is None:
            return self.spawn([sys.executable, "-m", "fmc.cli", *argv])
        return self.spawn([sys.executable, str(TRACE_CHILD), str(trace_path), "--", *argv])

    def speed(self) -> float:
        """Reference over current time of calibrate.py: below 1 on a slow machine."""
        out = self.spawn([sys.executable, str(CALIBRATE)])
        if out.exit != 0:
            raise RuntimeError(f"calibrate.py failed: {out.stderr.decode(errors='replace')}")
        return CALIBRATION_REF_S / out.wall

    def spawn(self, cmd: list[str]) -> Outcome:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_limit_child,
        )
        chunks: dict = {proc.stdout: [], proc.stderr: []}
        timed_out = False
        try:
            with selectors.DefaultSelector() as selector:
                for pipe in chunks:
                    selector.register(pipe, selectors.EVENT_READ)
                while selector.get_map():
                    remaining = start + OP_TIMEOUT_S - perf_counter()
                    if remaining <= 0:
                        timed_out = True
                        break
                    for key, _ in selector.select(remaining):
                        data = os.read(key.fd, 1 << 16)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            selector.unregister(key.fileobj)
            if timed_out:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        return Outcome(
            exit=proc.returncode,
            stdout=b"".join(chunks[proc.stdout]),
            stderr=b"".join(chunks[proc.stderr])[-2000:],
            wall=perf_counter() - start,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
            timed_out=timed_out,
        )


def problem(op: ops.Op, out: Outcome, refs: dict) -> str:
    """Why an outcome is wrong for its op, or "" when it is right."""
    if out.timed_out:
        return f"timed out after {OP_TIMEOUT_S:.0f} s"
    if out.exit < 0:
        return f"killed by signal {-out.exit}"
    if op.expect == "exit2" or (op.expect == "guard" and out.exit != 0):
        if out.exit != 2:
            hit_limit = " (memory limit)" if b"MemoryError" in out.stderr else ""
            return f"exit {out.exit}{hit_limit}, expected 2: {op.why}"
        return "exit 2 but stdout is not empty" if out.stdout else ""
    if out.exit != 0:
        return f"exit {out.exit}, expected 0: {out.stderr.decode(errors='replace')[-200:]!r}"
    if op.expect != "version":
        ref = refs.get(op.key)
        if ref is None:
            return "no stored reference"
        if hashlib.sha256(out.stdout).hexdigest() != ref["sha256"]:
            return "stdout differs from the stored reference"
    try:
        found = ops.invariant_problems(op.argv, out.stdout.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        found = [f"unparseable output ({type(exc).__name__})"]
    return "; ".join(found)


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float
    layers: dict
    speed: float  # median calibration speed measured between the pass's ops


@dataclass
class Workload:
    """One workload's ops, set-up times, passes and outcome tally."""

    name: str
    seed: int
    root: Path
    refs: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)  # (op, argv with file paths)
    setup_s: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    startup_s: list = field(default_factory=list)
    runs: int = 0
    seen: set = field(default_factory=set)  # keys of every op run
    failures: dict = field(default_factory=dict)  # key -> (first reason, known)

    @property
    def workdir(self) -> Path:
        return self.root / WORK_DIR / f"{self.name}-s{self.seed}-p{os.getpid()}"

    def set_up(self, runner: Runner) -> None:
        """Make inputs from the seed, load references and warm the bytecode."""
        start = perf_counter()
        with open(REFS, encoding="utf-8") as handle:
            self.refs = json.load(handle)["ops"]
        costs = {key: ref["cost_s"] for key, ref in self.refs.items()}
        plan = ops.plan(self.name, self.seed, costs)
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for op in plan:
            for space in op.spaces:
                path = self.workdir / f"{space}.json"
                path.write_text(ops.descriptor_text(space), encoding="utf-8")
                paths["@" + space] = str(path.relative_to(self.root))
        self.steps = [(op, tuple(paths.get(a, a) for a in op.argv)) for op in plan]
        self.record(VERSION, runner.run(VERSION.argv))
        elapsed = perf_counter() - start
        self.setup_s.append((elapsed, runner.speed()))

    def record(self, op: ops.Op, out: Outcome) -> None:
        # Each distinct op counts once, failed if any of its runs failed,
        # so the tally does not grow with the number of passes a run fits.
        self.runs += 1
        self.seen.add(op.key)
        why = problem(op, out, self.refs)
        if why:
            self.failures.setdefault(op.key, (why, op.known))

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> int:
        return sum(1 for _, known in self.failures.values() if not known)

    def run_pass(self, runner: Runner, traced: bool) -> None:
        trace_path = self.workdir / "trace.json" if traced else None
        every = -(-len(self.steps) // CALIBRATIONS_PER_PASS)
        outcomes, layers, speeds = [], {}, []
        for index, (op, argv) in enumerate(self.steps):
            if index % every == 0:
                speeds.append(runner.speed())
            outcomes.append(runner.run(argv, trace_path))
            if traced:
                _merge(layers, trace_path)
        for (op, _), out in zip(self.steps, outcomes):
            self.record(op, out)
        wall = sum(out.wall for out in outcomes)
        cpu = sum(out.cpu for out in outcomes)
        rss = max(out.rss_mb for out in outcomes)
        speed = statistics.median(speeds)
        (self.traced if traced else self.plain).append(Pass(wall, cpu, rss, layers, speed))

    def probe_startup(self, runner: Runner) -> None:
        for _ in range(STARTUP_PROBES):
            speed = runner.speed()
            out = runner.run(VERSION.argv)
            self.record(VERSION, out)
            self.startup_s.append((out.wall, speed))

    def end_to_end(self, raw: bool = False) -> dict[str, list[float]]:
        """Samples of each end-to-end metric, at reference speed unless raw."""
        def at(value: float, speed: float) -> float:
            return value if raw else value * speed

        return {
            "wall_s": [at(p.wall, p.speed) for p in self.plain],
            "cpu_s": [at(p.cpu, p.speed) for p in self.plain],
            "peak_rss_mb": [p.rss_mb for p in self.plain],
            "startup_ms": [at(wall, speed) * 1000 for wall, speed in self.startup_s],
            "setup_s": [at(wall, speed) for wall, speed in self.setup_s],
        }

    def per_layer(self) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        for p in self.traced:
            times = {name: value * p.speed for name, value in p.layers["times"].items()}
            values = dict(p.layers["counts"], **times)
            calls, nests = values.get("nests.stats_calls", 0), values.get("nests.enumerated", 0)
            values["nests.stats_per_nest"] = calls / nests if nests else 0.0
            for name, _ in PER_LAYER:
                samples.setdefault(name, []).append(values.get(name, 0))
        plain = statistics.median(p.wall * p.speed for p in self.plain)
        samples["trace.overhead_ratio"] = [p.wall * p.speed / plain for p in self.traced]
        return samples


def _merge(layers: dict, trace_path: Path) -> None:
    counts = layers.setdefault("counts", {})
    times = layers.setdefault("times", {})
    try:
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        trace_path.unlink()
    except (OSError, ValueError):
        return  # the child died before writing; its failure is already recorded
    for name, value in trace["counts"].items():
        if name == "polyseries.max_coeff_bits":
            counts[name] = max(counts.get(name, 0), value)
        else:
            counts[name] = counts.get(name, 0) + value
    for name, value in trace["times"].items():
        times[name] = times.get(name, 0.0) + value


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _context(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure(workloads: list[Workload], runner: Runner, seconds: int, trace: bool) -> None:
    """Round-robin passes over the workloads until ``seconds`` have elapsed."""
    start = perf_counter()
    while True:
        for workload in workloads:
            workload.run_pass(runner, traced=False)
            if trace:
                workload.run_pass(runner, traced=True)
            else:
                workload.probe_startup(runner)
        if perf_counter() - start >= seconds:
            return


def report(workloads: list[Workload], trace: bool) -> dict:
    """Print one line per metric and return the result's metrics."""
    metrics = {}
    units = PER_LAYER if trace else END_TO_END
    prefix = len(workloads) > 1
    for workload in workloads:
        samples = workload.per_layer() if trace else workload.end_to_end()
        for name, unit in units:
            median, q1, q3 = _summary(samples[name])
            print(f"{workload.name:<10} {name:<32} {_fmt(median):>14} {unit:<5} "
                  f"q1 {_fmt(q1)} q3 {_fmt(q3)} n={len(samples[name])}")
            metrics[f"{workload.name}.{name}" if prefix else name] = {"value": median, "unit": unit}
        if not trace:
            raw = workload.end_to_end(raw=True)
            print(f"{workload.name:<10} as measured: " + " ".join(
                f"{name} {_fmt(statistics.median(raw[name]))}" for name, _ in END_TO_END)
                + f"; machine speed {_fmt(statistics.median(p.speed for p in workload.plain))}")
        ratio = workload.failed / workload.attempted
        print(f"{workload.name:<10} {'fail_ratio':<32} {ratio:>14.6g} {'1':<5} "
              f"{workload.failed} of {workload.attempted} distinct ops failed; "
              f"{workload.runs} op runs")
        for key, (why, known) in workload.failures.items():
            print(f"{workload.name:<10} FAIL `{key}`: {why}" + (f" [known: {known}]" if known else ""))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fmc" / "cli.py").is_file():
        print("bench: run from the repository root: src/fmc/cli.py not found", file=sys.stderr)
        return 2
    names = ops.WORKLOADS if args.workload == "all" else (args.workload,)
    workloads = [Workload(name, args.seed, root) for name in names]
    runner = Runner(root)
    try:
        for workload in workloads:
            for _ in range(SETUP_REPEATS):
                workload.set_up(runner)
        measure(workloads, runner, args.seconds, bool(args.trace))
        print(f"# fmc benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("# context " + json.dumps(_context(root)))
        metrics = report(workloads, bool(args.trace))
    finally:
        for workload in workloads:
            shutil.rmtree(workload.workdir, ignore_errors=True)
        work = root / WORK_DIR
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
    result = {
        "correct": not any(s.unexpected for s in workloads),
        "attempted": sum(s.attempted for s in workloads),
        "failed": sum(s.failed for s in workloads),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
