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
import os
import sys

from . import __version__

# Each handler imports the modules it runs, so a command loads only what it
# needs.  ``render_json`` writes JSON itself, so ``json`` loads only to read
# a descriptor file, in ``fmc.theory.load_space``.  Annotations are not
# evaluated (PEP 563); the fmc types they name are imported by the
# handlers that use them.  The parser needs one fact of the library
# without importing it, copied here and pinned by a test: the theory names
# of ``fmc.theory.THEORIES``, in table order.  Handlers read their options
# as attributes of a namespace, whichever parser made it.
_THEORY_NAMES = ("lawson", "chow", "db", "betti")
# Rows of a nest listing rendered and written together.
_NEST_CHUNK = 256

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


# The escape of each character json.dumps (ensure_ascii) escapes below
# U+0080: the quote, the backslash, the control characters and DEL.
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in [*range(0x20), 0x7F]} | {
    ord('"'): '\\"', ord("\\"): "\\\\", ord("\b"): "\\b", ord("\f"): "\\f",
    ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t",
}


def _json_escape(char: str) -> str:
    # A character of a string the table has escaped, as json.dumps writes
    # it: ASCII as it stands, \uXXXX past it, a surrogate pair past U+FFFF.
    code = ord(char)
    if code < 0x80:
        return char
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _json_string(text: str) -> str:
    # The string as json.dumps writes it with ensure_ascii.
    text = text.translate(_JSON_ESCAPES)
    if not text.isascii():
        text = "".join(map(_json_escape, text))
    return f'"{text}"'


def render_json(doc: dict) -> str:
    """The canonical JSON text of ``doc``, as ``json.dumps`` gives it compactly.

    Bools, integers (as decimal strings outside a signed 64-bit word),
    strings, lists or tuples, and dicts with string keys, in insertion
    order; anything else raises ``TypeError``.
    """
    parts: list[str] = []
    add = parts.append

    def write(value: object) -> None:
        if value is True or value is False:
            add("true" if value else "false")
        elif isinstance(value, int):
            add(str(value) if _INT64_MIN <= value <= _INT64_MAX else f'"{value}"')
        elif isinstance(value, str):
            add(_json_string(value))
        elif isinstance(value, (list, tuple)):
            add("[")
            for i, item in enumerate(value):
                if i:
                    add(",")
                write(item)
            add("]")
        elif isinstance(value, dict):
            add("{")
            for i, (key, item) in enumerate(value.items()):
                if not isinstance(key, str):
                    raise TypeError(f"unexpected key in JSON document: {type(key).__name__}")
                add(f"{',' if i else ''}{_json_string(key)}:")
                write(item)
            add("}")
        else:
            raise TypeError(f"unexpected value in JSON document: {type(value).__name__}")

    write(doc)
    return "".join(parts)


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
    # The text of each value of a word, half-word or byte of a nest's int,
    # made on first use: a listing meets few of the values at each position.
    def __init__(self, text: Callable[[int], str]) -> None:
        super().__init__()
        self.text = text

    def __missing__(self, value: int) -> str:
        found = self[value] = self.text(value)
        return found


def _halves(high: _Fragments, low: _Fragments, bits: int) -> _Fragments:
    # The texts of values twice as wide as those of `high` and `low`: each
    # joins the texts of its two halves, so a miss costs one concatenation.
    mask = (1 << bits) - 1
    return _Fragments(lambda value: high[value >> bits] + low[value & mask])


def _words(values: list[int], width: int) -> memoryview:
    # The values as rows of width // 4 unsigned 32-bit words, in the
    # machine's byte order: a row's low word comes first on a little-endian
    # machine and last on a big-endian one.
    order = sys.byteorder
    return memoryview(b"".join([value.to_bytes(width, order) for value in values])).cast("I")


def cmd_nests(args: SimpleNamespace) -> int:
    from .nests import _check_labels, _walk

    n = args.n
    _check_labels(n)
    # Each nest is one int of 32-bit words.  From the top: a bit per member,
    # lex-smaller members higher; a son-count slot per member, in the same
    # order; the component count in the low word.  Every nest holds (n,),
    # the lex-largest member, so none is a prefix of another, and nest A
    # precedes nest B exactly when the smallest member in just one of them
    # is in A: the canonical order is a descending sort.  Singletons are in
    # every nest, so they get no bit; the text of each member word names
    # them.  A son count is at most n <= NEST_BUDGET < 16, so it fits a
    # 4-bit slot, eight to a word.
    labels = range(1, n + 1)
    members = sorted(m for size in labels for m in itertools.combinations(labels, size))
    rank = {member: i for i, member in enumerate(members)}
    member_words = -(-len(members) // 32)
    son_words = -(-len(members) // 8)
    words = member_words + son_words + 1
    top = 32 * words - 1
    slot_top = 32 * (son_words + 1) - 4

    def node(member: tuple[int, ...], sons: int) -> int:
        i = rank[member]
        return (1 << (top - i)) + (sons << (slot_top - 4 * i))

    rows = [summary + m for m, summary in _walk(n, node)]
    rows.sort(reverse=True)

    # The sorted rows are written a chunk at a time, and each chunk is
    # rendered a word column at a time: word t of every row maps through
    # the fragment table of word t, whose texts join those of its half-words
    # and bytes.  A son word that is zero in every row of the chunk writes
    # nothing and is skipped.  Text joins each row's fragments, its
    # component count's (which opens the son list exactly when a member is
    # internal, that is when m < n) and its newline into one string per
    # chunk.  Every value is a small integer, so the JSON fragments are built
    # by hand, in the bytes render_json would give, without holding the
    # whole document.
    as_json = args.format == "json"
    name = ("[{}]" if as_json else "{{{}}}").format
    sep = "," if as_json else " "

    names = [name(",".join(map(str, member))) for member in members]

    def member_text(j: int, byte: int) -> str:
        return "".join(
            (sep if i else "") + names[i]
            for i in range(8 * j, min(8 * j + 8, len(members)))
            if len(members[i]) == 1 or byte & (0x80 >> (i - 8 * j))
        )

    def son_text(j: int, byte: int) -> str:
        text = ""
        for i in range(2 * j, min(2 * j + 2, len(members))):
            if count := byte >> (4 * (2 * j + 1 - i)) & 0xF:
                member = names[i]
                text += (
                    f',{{"member":{member},"count":{count}}}' if as_json else f" {member}={count}"
                )
        return text

    def word_table(text: Callable[[int, int], str], k: int) -> _Fragments:
        # Word k of the member or son slots, from its four bytes' texts.
        b = [_Fragments(lambda byte, j=j: text(j, byte)) for j in range(4 * k, 4 * k + 4)]
        return _halves(_halves(b[0], b[1], 8), _halves(b[2], b[3], 8), 16)

    member_tables = [word_table(member_text, k) for k in range(member_words)]
    son_tables = [word_table(son_text, k) for k in range(son_words)]
    components = [f"  components={m}{' sons:' if m < n else ''}" for m in range(n + 1)]
    # Where each word of a row sits in the view, from the top word down.
    place = range(words)[::-1] if sys.byteorder == "little" else range(words)

    write = sys.stdout.write
    write(f'{{"n":{n},"count":{len(rows)},"nests":[' if as_json else f"n={n} count={len(rows)}\n")
    for start in range(0, len(rows), _NEST_CHUNK):
        view = _words(rows[start:start + _NEST_CHUNK], 4 * words)
        columns = [view[p::words] for p in place]
        listed = [map(table.__getitem__, c) for table, c in zip(member_tables, columns)]
        sons = [
            map(table.__getitem__, c)
            for table, c in zip(son_tables, columns[member_words:])
            if any(c)
        ]
        if as_json:
            slots = zip(*sons) if sons else itertools.repeat(())
            text = ",".join([
                f'{{"members":[{"".join(row)}],"components":{m},"sons":[{"".join(s)[1:]}]}}'
                for row, m, s in zip(zip(*listed), columns[-1], slots)
            ])
            write(f",{text}" if start else text)
        else:
            counts = map(components.__getitem__, columns[-1])
            lines = zip(*listed, counts, *sons, itertools.repeat("\n"))
            write("".join(itertools.chain.from_iterable(lines)))
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

    checks = run_verification(args.max_n, args.max_d)
    overall = all(check.passed for check in checks)
    if args.format == "json":
        doc = {
            "max_n": args.max_n,
            "max_d": args.max_d,
            "overall": overall,
            "checks": [
                {
                    "name": check.name,
                    "params": check.params,
                    "pass": check.passed,
                    "detail": check.detail,
                }
                for check in checks
            ],
        }
        _emit(render_json(doc))
    else:
        lines = []
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            params = " ".join(f"{key}={val}" for key, val in check.params.items())
            lines.append(f"{status} {check.name} {params}: {check.detail}")
        lines.append(f"OVERALL {'PASS' if overall else 'FAIL'}")
        _emit("\n".join(lines))
    return 0 if overall else 1


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
            # argparse exits with 0 (--help, --version) or 2 (an error).
            return exc.code
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"fmc: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Entry point of the ``fmc`` process: ``main()``, then exit at once.

    Once stdout and stderr are flushed nothing observable is left (fmc
    registers no atexit handler, starts no thread and writes no file), so
    the process ends with ``os._exit`` and skips interpreter teardown.  A
    flush that fails, or a missing stream, falls back to ``sys.exit``, whose
    teardown reports the failure as it always has (exit 120 on a full disk).
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
