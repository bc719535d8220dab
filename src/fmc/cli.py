"""Command-line surface.

Subcommands: nests, h-poly, egf, mult, decompose, verify.  Every command
writes exactly one document to stdout (JSON, aligned text, or LaTeX for
decompositions); diagnostics go to stderr.  Exit status is 0 on success,
1 when a verification check fails, 2 on invalid input.

JSON output is canonical: fixed key order, compact separators, no floats.
Integers that fit a signed 64-bit word are emitted as JSON numbers; larger
ones as decimal strings, so documents survive consumers that read numbers
as doubles.  Re-serializing a parsed document reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import __version__

# Each handler imports the modules it runs, so a command loads only what it
# needs; ``json`` too loads only where it runs, in ``render_json`` and the
# descriptor-file reader, so text output reads no JSON code.  Annotations
# are not evaluated (PEP 563); the fmc types they name are imported by the
# handlers that use them.  The parser needs two facts of the library
# without importing it, copied here and pinned by tests: the theory names
# of ``fmc.theory.THEORIES``, in table order, and ``fmc.nests.NEST_BUDGET``.
_THEORY_NAMES = ("lawson", "chow", "db", "betti")
_NEST_BUDGET = 7

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _json_ready(value: object) -> object:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if _INT64_MIN <= value <= _INT64_MAX else str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {key: _json_ready(v) for key, v in value.items()}
    raise TypeError(f"unexpected value in JSON document: {type(value).__name__}")


def render_json(doc: dict) -> str:
    import json

    return json.dumps(_json_ready(doc), separators=(",", ":"))


def _any_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _any_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _group_doc(group: GroupDescriptor) -> dict:
    doc: dict[str, object] = {}
    if group.formal:
        if group.free_rank or group.torsion:
            doc["free_rank"] = group.free_rank
            doc["torsion"] = list(group.torsion)
        doc["formal"] = list(group.formal)
    else:
        doc["free_rank"] = group.free_rank
        doc["torsion"] = list(group.torsion)
    return doc


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_nests(args: argparse.Namespace) -> int:
    from .nests import _check_labels, _forests

    n = args.n
    _check_labels(n, args.budget_override)
    labels = range(1, n + 1)
    singletons = tuple((label,) for label in labels)
    rows = sorted(
        (tuple(sorted(singletons + tuple(sons))), m, sorted(sons.items()))
        for m, sons in _forests(n)
    )
    # Each nest is written as soon as it is formatted.  Every value is a
    # small integer, so the JSON fragments are built by hand, in the bytes
    # render_json would give, without holding the whole document.  Every
    # nonempty subset of the labels is a member of some nest, so each is
    # formatted once, up front.
    as_json = args.format == "json"
    name = {
        member: ("[{}]" if as_json else "{{{}}}").format(",".join(map(str, member)))
        for size in labels
        for member in itertools.combinations(labels, size)
    }

    write = sys.stdout.write
    if as_json:
        write(f'{{"n":{n},"count":{len(rows)},"nests":[')
        comma = ""
        for members, m, sons in rows:
            listed = ",".join(f'{{"member":{name[s]},"count":{c}}}' for s, c in sons)
            write(
                f'{comma}{{"members":[{",".join(map(name.__getitem__, members))}],'
                f'"components":{m},"sons":[{listed}]}}'
            )
            comma = ","
        write("]}\n")
    else:
        write(f"n={n} count={len(rows)}\n")
        for members, m, sons in rows:
            line = f"{' '.join(map(name.__getitem__, members))}  components={m}"
            if sons:
                line += " sons: " + " ".join(f"{name[s]}={c}" for s, c in sons)
            write(line + "\n")
    return 0


def cmd_h_poly(args: argparse.Namespace) -> int:
    from .genfun import h_recurrence
    from .polyseries import format_poly

    poly = h_recurrence(args.n, args.d)
    if args.format == "json":
        doc = {"n": args.n, "d": args.d, "coeffs": list(poly.coeffs)}
        _emit(render_json(doc))
    else:
        _emit(f"n={args.n} d={args.d} h = {format_poly(poly)}")
    return 0


def cmd_egf(args: argparse.Namespace) -> int:
    from .genfun import egf_solve, recurrence_egf, verify_identity
    from .polyseries import format_poly

    series = recurrence_egf(args.n, args.d)
    failures = []
    if args.verify:
        if not verify_identity(series, args.d):
            failures.append("identity-residual")
        if egf_solve(args.n, args.d) != series:
            failures.append("solver-match")
    if args.format == "json":
        doc: dict[str, object] = {
            "n": args.n,
            "d": args.d,
            "h": [list(c.coeffs) for c in series],
        }
        if args.verify:
            doc["verified"] = not failures
            doc["failures"] = failures
        _emit(render_json(doc))
    else:
        lines = [f"n={args.n} d={args.d}"]
        for i, c in enumerate(series):
            lines.append(f"h_{i} = {format_poly(c)}")
        if args.verify:
            lines.append(
                "verified: ok" if not failures else f"verified: FAILED ({', '.join(failures)})"
            )
        _emit("\n".join(lines))
    return 1 if failures else 0


def cmd_mult(args: argparse.Namespace) -> int:
    from .genfun import multiplicity_table
    from .polyseries import format_poly

    table = multiplicity_table(args.n, args.d)
    if args.format == "json":
        doc = {
            "n": args.n,
            "d": args.d,
            "entries": [
                {"m": m, "shift": i, "mult": a} for m, i, a in table.terms
            ],
        }
        _emit(render_json(doc))
    else:
        lines = [f"n={args.n} d={args.d}"]
        for m in range(args.n, 0, -1):
            row = table.row_poly(m)
            if not row.is_zero:
                lines.append(f"m={m}: {format_poly(row)}")
        _emit("\n".join(lines))
    return 0


def _resolve_space(args: argparse.Namespace) -> SpaceDescriptor:
    from .theory import builtin_space, is_builtin_space, load_space

    if args.space is None:
        raise ValueError("--space is required in ranks mode")
    if is_builtin_space(args.space):
        space = builtin_space(args.space, args.theory)
    else:
        space = load_space(args.space)
        if space.kind != args.theory:
            raise ValueError(
                f"space kind {space.kind!r} does not match --theory {args.theory!r}"
            )
    # Checked here for every ranks route, the Poincare polynomial included.
    if space.dim != args.d:
        raise ValueError(
            f"space dimension {space.dim} does not match decomposition d={args.d}"
        )
    return space


def _latex_term(theory: str, m: int, shift: int, mult: int) -> str:
    from .theory import THEORIES

    # The symbolic form of the shift action: level p-i, degree k-2i.
    body = THEORIES[theory].latex.format(
        X="X" if m == 1 else f"X^{{{m}}}",
        p="p" if shift == 0 else f"p-{shift}",
        k="k" if shift == 0 else f"k-{2 * shift}",
    )
    if mult > 1:
        body += f"^{{\\oplus {mult}}}"
    return body


def cmd_decompose(args: argparse.Namespace) -> int:
    from .genfun import multiplicity_table
    from .polyseries import format_poly
    from .theory import (
        betti_of_fm,
        check_index,
        evaluate_decomposition,
        formal_evaluation,
        term_group_name,
    )

    n, d, theory = args.n, args.d, args.theory
    p, k = args.p, args.k
    has_index = p is not None or k is not None
    if has_index:
        check_index(theory, p, k)

    dec = multiplicity_table(n, d)

    # Ranks are evaluated in every format, so latex refuses what text and
    # JSON refuse.
    value: GroupDescriptor | None = None
    poincare: IntPoly | None = None
    if args.mode == "ranks":
        space = _resolve_space(args)
        if theory == "betti" and k is None:
            poincare = betti_of_fm(space.betti, d, n)
        else:
            value = evaluate_decomposition(dec, space, p, k)

    if args.format == "latex":
        body = " \\oplus ".join(
            _latex_term(theory, m, shift, mult) for m, shift, mult in dec.terms
        )
        _emit(f"$ {body} $")
        return 0

    doc: dict[str, object] = {"n": n, "d": d, "theory": theory, "mode": args.mode}
    if p is not None:
        doc["p"] = p
    if k is not None:
        doc["k"] = k

    term_docs = []
    if args.mode == "formal":
        for m, shift, mult in dec.terms:
            entry: dict[str, object] = {"m": m, "shift": shift, "mult": mult}
            if has_index:
                entry["group"] = term_group_name(theory, m, shift, p, k)
            term_docs.append(entry)
        if has_index:
            value = formal_evaluation(dec, theory, p, k)
    else:  # ranks
        doc["space"] = space.name
        for m, shift, mult in dec.terms:
            term_docs.append({"m": m, "shift": shift, "mult": mult})

    header = " ".join(f"{key}={val}" for key, val in doc.items())
    doc["terms"] = term_docs
    if value is not None:
        doc["value"] = _group_doc(value)
    if poincare is not None:
        doc["poincare"] = {"coeffs": list(poincare.coeffs)}

    if args.format == "json":
        _emit(render_json(doc))
    else:
        lines = [header]
        for entry in term_docs:
            line = f"m={entry['m']} shift={entry['shift']} mult={entry['mult']}"
            if "group" in entry:
                line += f" group={entry['group']}"
            lines.append(line)
        if value is not None:
            lines.append(f"value: {value}")
        if poincare is not None:
            lines.append(f"poincare = {format_poly(poincare, 'q')}")
        _emit("\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import run_verification

    report = run_verification(args.max_n, args.max_d, allow_large=args.budget_override)
    if args.format == "json":
        doc = {
            "max_n": args.max_n,
            "max_d": args.max_d,
            "overall": report.overall,
            "checks": [
                {
                    "name": check.name,
                    "params": dict(check.params),
                    "pass": check.passed,
                    "detail": check.detail,
                }
                for check in report.checks
            ],
        }
        _emit(render_json(doc))
    else:
        lines = []
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            params = " ".join(f"{key}={val}" for key, val in check.params.items())
            lines.append(f"{status} {check.name} {params}: {check.detail}")
        lines.append(f"OVERALL {'PASS' if report.overall else 'FAIL'}")
        _emit("\n".join(lines))
    return 0 if report.overall else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmc",
        description=(
            "Exact decomposition tables for Fulton-MacPherson configuration "
            "spaces X[n]: multiplicity polynomials, nest enumeration, and "
            "evaluation over Lawson, Chow, Deligne-Beilinson, or Betti data."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_nests = sub.add_parser("nests", help="enumerate nests (labeled forests) of {1..n}")
    p_nests.add_argument("--n", type=_positive_int, required=True, help="number of labels")
    p_nests.add_argument("--format", choices=("json", "text"), default="text")
    p_nests.add_argument(
        "--budget-override",
        action="store_true",
        help=f"enumerate past the default budget of n <= {_NEST_BUDGET}",
    )
    p_nests.set_defaults(handler=cmd_nests)

    p_h = sub.add_parser("h-poly", help="connected multiplicity polynomial h_n")
    p_h.add_argument("--n", type=_positive_int, required=True)
    p_h.add_argument("--d", type=_positive_int, required=True, help="dimension of the base")
    p_h.add_argument("--format", choices=("json", "text"), default="text")
    p_h.set_defaults(handler=cmd_h_poly)

    p_egf = sub.add_parser("egf", help="generating function h_0..h_n of the multiplicities")
    p_egf.add_argument("--n", type=_positive_int, required=True)
    p_egf.add_argument("--d", type=_positive_int, required=True)
    p_egf.add_argument(
        "--verify",
        action="store_true",
        help="also check the functional identity and the independent solver",
    )
    p_egf.add_argument("--format", choices=("json", "text"), default="text")
    p_egf.set_defaults(handler=cmd_egf)

    p_mult = sub.add_parser("mult", help="multiplicity table a_{m,i} for X[n]")
    p_mult.add_argument("--n", type=_positive_int, required=True)
    p_mult.add_argument("--d", type=_positive_int, required=True)
    p_mult.add_argument("--format", choices=("json", "text"), default="text")
    p_mult.set_defaults(handler=cmd_mult)

    p_dec = sub.add_parser("decompose", help="decomposition of X[n] for a chosen theory")
    p_dec.add_argument("--theory", choices=_THEORY_NAMES, required=True)
    p_dec.add_argument("--n", type=_positive_int, required=True)
    p_dec.add_argument("--d", type=_positive_int, required=True)
    p_dec.add_argument("--p", type=_any_int, default=None, help="level index")
    p_dec.add_argument("--k", type=_any_int, default=None, help="degree index")
    p_dec.add_argument(
        "--space",
        default=None,
        help="descriptor file, or a built-in name (p1, p2)",
    )
    p_dec.add_argument("--mode", choices=("formal", "ranks"), default="formal")
    p_dec.add_argument("--format", choices=("json", "text", "latex"), default="text")
    p_dec.set_defaults(handler=cmd_decompose)

    p_verify = sub.add_parser("verify", help="run the oracle cross-check matrix")
    p_verify.add_argument("--max-n", type=_positive_int, default=4)
    p_verify.add_argument("--max-d", type=_positive_int, default=3)
    p_verify.add_argument(
        "--budget-override",
        action="store_true",
        help=f"allow brute-force enumeration past n = {_NEST_BUDGET}",
    )
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"fmc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
