"""Run one ``fmc`` command with per-layer tracing added from outside.

Usage: python bench/trace_child.py TRACE_JSON -- ARGV...

Imports ``fmc.cli`` (timing the import), wraps public functions of each
package module in place, then calls ``fmc.cli.main(ARGV)`` exactly as
``python -m fmc.cli ARGV`` would, so stdout and the exit code are the
program's own.  The counters and span times are written to TRACE_JSON.

A wrapped call is a span: its time counts toward its metric only when no
call of the same metric is already open, and a layer's self time is its
spans' durations minus the time of the wrapped calls they made.  Hot leaf
calls (``IntPoly.__mul__``, ``nest_stats``, ``direct_sum``) open no span;
they add a count and their time only.
"""

from __future__ import annotations

import functools
import json
import sys
import traceback
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "theory", "genfun", "polyseries", "nests", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, time of wrapped callees]
        self.open = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_coeff_bits = 0

    def span(self, layer, metric, fn, on_result=None):
        stack, open_, times, self_s = self.stack, self.open, self.times, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            open_[metric] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                open_[metric] -= 1
                if not open_[metric]:
                    times[metric] += elapsed
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def leaf(self, layer, metric, fn, on_call):
        stack, times, self_s = self.stack, self.times, self.self_s

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            times[metric] += elapsed
            self_s[layer] += elapsed
            if stack:
                stack[-1][1] += elapsed
            on_call(args, result)
            return result

        return wrapper

    def counter(self, metric, amount=lambda args, result: 1):
        counts = self.counts

        def count(args, result):
            counts[metric] += amount(args, result)

        return count


def _replace(original, wrapper) -> None:
    # Modules import each other's functions by name, so every module-level
    # reference to the original is rebound, not just the defining one.
    for name, module in list(sys.modules.items()):
        if name == "fmc" or name.startswith("fmc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    import fmc.cli as cli
    import fmc.genfun as genfun
    import fmc.nests as nests
    import fmc.oracle as oracle
    import fmc.polyseries as polyseries
    import fmc.theory as theory

    count = tracer.counter

    def wrap(module, name, layer, metric, on_result=None):
        original = getattr(module, name, None)
        if original is not None:
            _replace(original, tracer.span(layer, metric, original, on_result))

    # polyseries: products are hot leaves, counted with their coefficient work
    def on_mul(args, result):
        a, b = args
        tracer.counts["polyseries.mul_calls"] += 1
        width = len(b.coeffs) if isinstance(b, polyseries.IntPoly) else 1
        tracer.counts["polyseries.mul_coeff_ops"] += len(a.coeffs) * width
        if result is not NotImplemented and result.coeffs:
            bits = max(max(result.coeffs), -min(result.coeffs)).bit_length()
            if bits > tracer.max_coeff_bits:
                tracer.max_coeff_bits = bits

    polyseries.IntPoly.__mul__ = tracer.leaf(
        "polyseries", "polyseries.mul_s", polyseries.IntPoly.__mul__, on_mul)
    wrap(polyseries, "egf_mul", "polyseries", "polyseries.egf_s", count("polyseries.egf_mul_calls"))
    wrap(polyseries, "egf_exp", "polyseries", "polyseries.egf_s", count("polyseries.egf_exp_calls"))
    wrap(polyseries, "egf_pow", "polyseries", "polyseries.egf_s")

    # genfun
    partitions = getattr(genfun, "integer_partitions", None)
    if partitions is not None:
        def counted_partitions(*args):
            for shape in partitions(*args):
                tracer.counts["genfun.partitions_visited"] += 1
                yield shape
        _replace(partitions, counted_partitions)
    wrap(genfun, "h_recurrence", "genfun", "genfun.h_recurrence_s")
    wrap(genfun, "recurrence_egf", "genfun", "genfun.h_recurrence_s")
    wrap(genfun, "multiplicity_table", "genfun", "genfun.multiplicity_table_s")
    wrap(genfun, "egf_solve", "genfun", "genfun.egf_solve_s")
    wrap(genfun, "verify_identity", "genfun", "genfun.verify_identity_s")

    # nests
    wrap(nests, "enumerate_nests", "nests", "nests.enumerate_s",
         count("nests.enumerated", lambda args, result: len(result)))
    wrap(nests, "brute_bivariate", "nests", "nests.brute_bivariate_s")
    if hasattr(nests, "nest_stats"):
        _replace(nests.nest_stats, tracer.leaf(
            "nests", "nests.stats_s", nests.nest_stats, count("nests.stats_calls")))

    # oracle: every check returns a result with a pass flag
    def on_check(args, result):
        tracer.counts["oracle.checks"] += 1
        tracer.counts["oracle.checks_failed"] += not result.passed

    for name, metric in (
        ("brute_equiv", "brute_equiv_s"),
        ("solver_match", "solver_match_s"),
        ("identity_residual", "identity_residual_s"),
        ("structure_check", "structure_s"),
        ("table_blowup_check", "table_blowup_s"),
        ("palindrome_check", "palindrome_s"),
        ("x2_check", "blowup_s"),
        ("x3_check", "blowup_s"),
        ("min_formula_check", "blowup_s"),
    ):
        wrap(oracle, name, "oracle", f"oracle.{metric}", on_check)

    # theory
    wrap(theory, "decompose_formal", "theory", "theory.decompose_formal_s",
         count("theory.decompose_formal_calls"))
    for name in ("builtin_space", "load_space", "parse_space", "projective_space_powers"):
        wrap(theory, name, "theory", "theory.space_build_s")
    for name in ("evaluate_decomposition", "betti_of_fm"):
        wrap(theory, name, "theory", "theory.evaluate_s")
    wrap(theory, "formal_evaluation", "theory", "theory.evaluate_s",
         count("theory.summands", lambda args, result: len(result.formal)))
    if hasattr(theory, "direct_sum"):
        _replace(theory.direct_sum, tracer.leaf(
            "theory", "theory.direct_sum_s", theory.direct_sum,
            count("theory.summands", lambda args, result: len(args))))

    # cli: parsing and the named rendering helpers; text assembled inline
    # in the command handlers stays in cli self time.
    for name in ("render_json", "_group_doc", "_latex_term", "_emit"):
        wrap(cli, name, "cli", "cli.render_s")
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.span("cli", "cli.parse_s", parser.parse_args)
        return parser

    _replace(build_parser, tracer.span("cli", "cli.parse_s", traced_build_parser))
    render_poly = tracer.span("cli", "cli.render_s", polyseries.format_poly)
    plain_poly = polyseries.format_poly

    def format_poly(*args):
        # Printing a polynomial is rendering only when the CLI asks for it.
        if tracer.stack and tracer.stack[-1][0] == "cli":
            return render_poly(*args)
        return plain_poly(*args)

    _replace(plain_poly, format_poly)


class CountingStdout:
    def __init__(self, inner) -> None:
        self._inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self._inner.write(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def main() -> int:
    trace_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: trace_child.py TRACE_JSON -- ARGV...")
    start = perf_counter()
    import fmc.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer)
    stdout = CountingStdout(sys.stdout)
    sys.stdout = stdout
    cli_main = tracer.span("cli", "cli.main_s", fmc.cli.main)
    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported as an uncaught error would be: traceback, exit 1
        traceback.print_exc()
    finally:
        counts = dict(tracer.counts)
        counts["polyseries.max_coeff_bits"] = tracer.max_coeff_bits
        counts["cli.stdout_bytes"] = stdout.bytes
        times = dict(tracer.times)
        times["cli.import_s"] = import_s
        for layer in LAYERS:
            times[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"counts": counts, "times": times}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
