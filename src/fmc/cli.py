"""Command-line surface.

Subcommands: nests, h-poly, egf, mult, decompose, verify.  Every command
writes exactly one document to stdout (JSON, aligned text, or LaTeX for
decompositions); diagnostics go to stderr.  Exit status is 0 on success,
1 when a verification check fails, 2 on invalid input.

JSON output is canonical: fixed key order, compact separators, no floats.
Integers that fit a signed 64-bit word are emitted as JSON numbers; larger
ones as decimal strings, so documents survive consumers that read numbers
as doubles.  Re-serializing a parsed document reproduces it byte for byte.

The command line is described once, in the table ``_COMMANDS``.  A plain
well-formed command line is read straight off it, without importing
argparse; ``build_parser`` builds the argparse parser from the same table,
and only that parser renders --help, reports errors and sets their exit
codes.  A lone --version is answered directly, in argparse's bytes.
"""

from __future__ import annotations

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
# Handlers read their options as attributes of a namespace, whichever
# parser made it.
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


# The converters import argparse only to refuse a value.
def _any_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _any_int(text)
    if value < 1:
        import argparse

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


def _check_digits(numbers: tuple[int, ...]) -> None:
    # Python refuses to write an integer of more decimal digits than its
    # limit (0: none, as before Python 3.10.7); say which number is too long.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(map(abs, numbers), default=0) >= 10**limit:
        raise ValueError(
            f"a coefficient of the result has more than {limit} digits, "
            "the most an integer may be written with"
        )


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


class _Fragments(dict):
    # The text of each value of byte j of a nest's int, made on first use: a
    # listing meets few of the 256 values at each position.
    def __init__(self, text: Callable[[int, int], str], j: int) -> None:
        super().__init__()
        self.text, self.j = text, j

    def __missing__(self, byte: int) -> str:
        found = self[byte] = self.text(self.j, byte)
        return found


def cmd_nests(args: SimpleNamespace) -> int:
    from .nests import _check_labels, _walk

    n = args.n
    _check_labels(n, args.budget_override)
    # Each nest is one int.  From the top: a bit per member, lex-smaller
    # members higher; a son-count slot per member, in the same order; the
    # component count in the low byte.  Every nest holds (n,), the lex-largest
    # member, so none is a prefix of another, and nest A precedes nest B
    # exactly when the smallest member in just one of them is in A: the
    # canonical order is a descending sort.  Singletons are in every nest, so
    # they get no bit; the text of each member byte names them.  A son count
    # is at most n, so it fits a nibble below n = 16; a byte holds it, and the
    # component count, to n = 255, far past any n whose walk can finish.
    labels = range(1, n + 1)
    members = sorted(m for size in labels for m in itertools.combinations(labels, size))
    rank = {member: i for i, member in enumerate(members)}
    bits = 4 if n < 16 else 8
    per = 8 // bits
    member_bytes = -(-len(members) // 8)
    son_bytes = -(-len(members) // per)
    top = 8 * (member_bytes + son_bytes + 1) - 1
    slot_top = 8 * (son_bytes + 1) - bits

    def node(member: tuple[int, ...], sons: int) -> int:
        i = rank[member]
        return (1 << (top - i)) + (sons << (slot_top - bits * i))

    rows = [summary + m for m, summary in _walk(n, node)]
    rows.sort(reverse=True)

    # Each nest is written as soon as it is rendered, a byte at a time.  Every
    # value is a small integer, so the JSON fragments are built by hand, in the
    # bytes render_json would give, without holding the whole document.
    as_json = args.format == "json"
    name = ("[{}]" if as_json else "{{{}}}").format
    sep = "," if as_json else " "

    def member_text(j: int, byte: int) -> str:
        return "".join(
            (sep if i else "") + name(",".join(map(str, members[i])))
            for i in range(8 * j, min(8 * j + 8, len(members)))
            if len(members[i]) == 1 or byte & (0x80 >> (i - 8 * j))
        )

    def son_text(j: int, byte: int) -> str:
        text = ""
        for i in range(per * j, min(per * j + per, len(members))):
            if count := byte >> (bits * (per * j + per - 1 - i)) & ((1 << bits) - 1):
                member = name(",".join(map(str, members[i])))
                text += (
                    f',{{"member":{member},"count":{count}}}' if as_json else f" {member}={count}"
                )
        return text

    member_tables = [_Fragments(member_text, j) for j in range(member_bytes)]
    son_tables = [_Fragments(son_text, j) for j in range(son_bytes)]
    get = dict.__getitem__
    write = sys.stdout.write
    write(f'{{"n":{n},"count":{len(rows)},"nests":[' if as_json else f"n={n} count={len(rows)}\n")
    between = ""
    for value in rows:
        data = value.to_bytes(member_bytes + son_bytes + 1, "big")
        listed = "".join(map(get, member_tables, data))
        sons = "".join(map(get, son_tables, data[member_bytes:]))
        if as_json:
            write(f'{between}{{"members":[{listed}],"components":{data[-1]},"sons":[{sons[1:]}]}}')
            between = ","
        else:
            write(f"{listed}  components={data[-1]}{' sons:' if sons else ''}{sons}\n")
    if as_json:
        write("]}\n")
    return 0


def cmd_h_poly(args: SimpleNamespace) -> int:
    from .genfun import h_recurrence
    from .polyseries import format_poly

    poly = h_recurrence(args.n, args.d)
    if args.format == "json":
        doc = {"n": args.n, "d": args.d, "coeffs": list(poly.coeffs)}
        _emit(render_json(doc))
    else:
        _emit(f"n={args.n} d={args.d} h = {format_poly(poly)}")
    return 0


def cmd_egf(args: SimpleNamespace) -> int:
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


def cmd_mult(args: SimpleNamespace) -> int:
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


def _fields(**fields: object) -> dict[str, object]:
    # One decompose row: its fields but the absent ones (None).
    return {key: val for key, val in fields.items() if val is not None}


def cmd_decompose(args: SimpleNamespace) -> int:
    from .genfun import multiplicity_table
    from .polyseries import format_poly
    from .theory import (
        betti_of_fm,
        check_index,
        evaluate_decomposition,
        formal_evaluation,
        resolve_space,
        term_group_name,
    )

    n, d, theory = args.n, args.d, args.theory
    p, k = args.p, args.k
    has_index = p is not None or k is not None
    if has_index:
        check_index(theory, p, k)

    dec = multiplicity_table(n, d)

    # A space is read in every mode and ranks are evaluated in every format,
    # so latex and formal mode refuse what text and JSON ranks refuse.
    value = poincare = space = None
    ranks = args.mode == "ranks"
    if args.space is not None:
        space = resolve_space(args.space, theory, d)
    elif ranks:
        raise ValueError("--space is required in ranks mode")
    if ranks:
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
    if ranks:
        _check_digits(poincare.coeffs if poincare is not None else (value.free_rank,))
    elif has_index:
        value = formal_evaluation(dec, theory, p, k)

    # The header, then one row per term; the text lines and the JSON
    # document are written from the same rows.
    named = has_index and not ranks
    rows = [_fields(n=n, d=d, theory=theory, mode=args.mode, p=p, k=k, space=space and space.name)]
    for m, shift, mult in dec.terms:
        group = term_group_name(theory, m, shift, p, k) if named else None
        rows.append(_fields(m=m, shift=shift, mult=mult, group=group))

    if args.format == "json":
        doc = dict(rows[0], terms=rows[1:])
        if value is not None:
            doc["value"] = _group_doc(value)
        if poincare is not None:
            doc["poincare"] = {"coeffs": list(poincare.coeffs)}
        _emit(render_json(doc))
    else:
        lines = [" ".join(f"{key}={val}" for key, val in row.items()) for row in rows]
        if value is not None:
            lines.append(f"value: {value}")
        if poincare is not None:
            lines.append(f"poincare = {format_poly(poincare, 'q')}")
        _emit("\n".join(lines))
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
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
# Command line
# ---------------------------------------------------------------------------

# Each subcommand's help, handler and options; an option is its flag and
# the keyword arguments argparse's ``add_argument`` takes for it.
_COMMANDS = {
    "nests": (
        "enumerate nests (labeled forests) of {1..n}",
        cmd_nests,
        (
            ("--n", dict(type=_positive_int, required=True, help="number of labels")),
            ("--format", dict(choices=("json", "text"), default="text")),
            ("--budget-override", dict(
                action="store_true",
                help=f"enumerate past the default budget of n <= {_NEST_BUDGET}",
            )),
        ),
    ),
    "h-poly": (
        "connected multiplicity polynomial h_n",
        cmd_h_poly,
        (
            ("--n", dict(type=_positive_int, required=True)),
            ("--d", dict(type=_positive_int, required=True, help="dimension of the base")),
            ("--format", dict(choices=("json", "text"), default="text")),
        ),
    ),
    "egf": (
        "generating function h_0..h_n of the multiplicities",
        cmd_egf,
        (
            ("--n", dict(type=_positive_int, required=True)),
            ("--d", dict(type=_positive_int, required=True)),
            ("--verify", dict(
                action="store_true",
                help="also check the functional identity and the independent solver",
            )),
            ("--format", dict(choices=("json", "text"), default="text")),
        ),
    ),
    "mult": (
        "multiplicity table a_{m,i} for X[n]",
        cmd_mult,
        (
            ("--n", dict(type=_positive_int, required=True)),
            ("--d", dict(type=_positive_int, required=True)),
            ("--format", dict(choices=("json", "text"), default="text")),
        ),
    ),
    "decompose": (
        "decomposition of X[n] for a chosen theory",
        cmd_decompose,
        (
            ("--theory", dict(choices=_THEORY_NAMES, required=True)),
            ("--n", dict(type=_positive_int, required=True)),
            ("--d", dict(type=_positive_int, required=True)),
            ("--p", dict(type=_any_int, default=None, help="level index")),
            ("--k", dict(type=_any_int, default=None, help="degree index")),
            ("--space", dict(default=None, help="descriptor file, or a built-in name (p1, p2)")),
            ("--mode", dict(choices=("formal", "ranks"), default="formal")),
            ("--format", dict(choices=("json", "text", "latex"), default="text")),
        ),
    ),
    "verify": (
        "run the oracle cross-check matrix",
        cmd_verify,
        (
            ("--max-n", dict(type=_positive_int, default=4)),
            ("--max-d", dict(type=_positive_int, default=3)),
            ("--budget-override", dict(
                action="store_true",
                help=f"allow brute-force enumeration past n = {_NEST_BUDGET}",
            )),
            ("--format", dict(choices=("json", "text"), default="text")),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

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
    for command, (summary, handler, options) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for flag, settings in options:
            command_parser.add_argument(flag, **settings)
        command_parser.set_defaults(handler=handler)
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives, or None.

    Reads only the plain form: the subcommand, then exact flags, each but a
    store_true flag followed by a value that does not start with "-"; a
    repeated flag keeps its last value.  Anything else is None, refused
    values, --help and abbreviations included, and goes to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    values: dict[str, object] = {"command": argv[0], "handler": handler}
    for flag, settings in options:
        switch = settings.get("action") == "store_true"
        values[_dest(flag)] = False if switch else settings.get("default")
    settings_of = dict(options)
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        settings = settings_of.get(flag)
        if settings is None:
            return None
        seen.add(flag)
        if settings.get("action") == "store_true":
            values[_dest(flag)] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = settings.get("type", str)(text)
        except Exception:
            # Whatever a converter raises, argparse's ArgumentTypeError
            # included, argparse converts again and reports.
            return None
        if value not in settings.get("choices", (value,)):
            return None
        values[_dest(flag)] = value
    if any(settings.get("required") and flag not in seen for flag, settings in options):
        return None
    # types.SimpleNamespace, without importing types.
    return type(sys.implementation)(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv == ["--version"]:
        sys.stdout.write(f"fmc {__version__}\n")
        return 0
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
