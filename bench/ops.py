"""Workload catalogues, seeded op selection, descriptor files and output checks.

Every op is one ``fmc`` command line.  Each workload draws its ops from a
fixed, finite catalogue, so the stored references in ``refs.json`` cover
every op any seed can pick.  The seed chooses which catalogue entries run,
the descriptor variants they read and the order they run in; it never
changes what an entry computes.  Draws are balanced on the per-op costs
recorded in ``refs.json`` so that one pass does about the same work for
every seed.

Expected outcomes come from two places:

* ``expect="ref"``: exit 0 and stdout equal to the stored reference (taken
  from the program once, when the catalogue was made), plus invariants
  checked here without importing ``fmc``;
* ``expect="exit2"``: exit 2 and empty stdout.  These are invalid inputs,
  and the reason each must be refused is quoted from the README or the
  ROADMAP defect list, never taken from the program.

Ops tagged ``known`` fail at the commit that defined the benchmark.  They
stay in the mix so that their failure shows in ``failed``; they do not
make a run incorrect.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

FMT2 = ((), ("--format", "json"))
FMT3 = ((), ("--format", "json"), ("--format", "latex"))
THEORIES = ("lawson", "chow", "db", "betti")
DESCRIPTOR_MAX_POWER = 7


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: str = "ref"  # "ref" | "exit2" | "guard" | "version"
    known: str = ""  # why this op fails at the defining commit, if it does
    why: str = ""  # README/ROADMAP reason for an expected exit 2

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def spaces(self) -> list[str]:
        return [a[1:] for a in self.argv if a.startswith("@")]


def _dec(theory: str, n: int, d: int, mode: str, *extra: str) -> tuple[str, ...]:
    return ("decompose", "--theory", theory, "--n", str(n), "--d", str(d), "--mode", mode) + extra


# ---------------------------------------------------------------------------
# Catalogues
# ---------------------------------------------------------------------------


def _kernel_classes() -> dict[str, list[Op]]:
    return {
        "h-poly": [
            Op(("h-poly", "--n", str(n), "--d", str(d)) + f)
            for n in (22, 23, 24) for d in (2, 3) for f in FMT2
        ],
        "mult": [
            Op(("mult", "--n", str(n), "--d", str(d)) + f)
            for n in range(16, 21) for d in (3, 4) for f in FMT2
        ],
        "egf": [
            Op(("egf", "--n", str(n), "--d", str(d), "--verify") + f)
            for n in (18, 19, 20) for d in (2, 3) for f in FMT2
        ],
        "betti": [
            Op(_dec("betti", n, 2, "ranks", "--space", "p2") + f)
            for n in (15, 16, 17) for f in FMT2
        ],
    }


def _crosscheck_classes() -> dict[str, list[Op]]:
    return {
        "verify6": [Op(("verify", "--max-n", "6", "--max-d", "3") + f) for f in FMT2],
        "verify5": [Op(("verify", "--max-n", "5", "--max-d", "4") + f) for f in FMT2],
        "nests-text": [Op(("nests", "--n", "6"))],
        "nests-json": [Op(("nests", "--n", "6", "--format", "json"))],
    }


_FORMAL_INDEX = {
    "lawson": (("--p", "0", "--k", "2"), ("--p", "1", "--k", "3"), ("--p", "2", "--k", "6")),
    "chow": (("--p", "0"), ("--p", "1"), ("--p", "2")),
    "db": (("--p", "0", "--k", "2"), ("--p", "1", "--k", "3"), ("--p", "2", "--k", "5")),
    "betti": (("--k", "2"), ("--k", "3"), ("--k", "6")),
}
# Small levels make shifted Deligne-Beilinson levels negative, which the
# evaluation keeps as formal summands.
_RANKS_INDEX = {
    "lawson": (("--p", "0", "--k", "2"), ("--p", "1", "--k", "4"), ("--p", "2", "--k", "5")),
    "chow": (("--p", "0"), ("--p", "1"), ("--p", "2")),
    "db": (("--p", "0", "--k", "2"), ("--p", "1", "--k", "3"), ("--p", "1", "--k", "4")),
    "betti": ((), ("--k", "2"), ("--k", "3")),
}


def _evaluate_light_grid() -> dict[str, list[Op]]:
    formal = [
        Op(_dec(t, n, d, "formal") + f)
        for t in THEORIES for n in (2, 3, 5, 7) for d in (1, 2, 3) for f in FMT3
    ]
    formal_index = [
        Op(_dec(t, n, d, "formal") + idx + f)
        for t in THEORIES for n in (2, 3, 4, 5) for d in (1, 2)
        for idx in _FORMAL_INDEX[t] for f in FMT2
    ]
    builtin = [
        Op(_dec(t, n, d, "ranks", "--space", space) + idx + f)
        for t in ("lawson", "chow", "betti") for space, d in (("p1", 1), ("p2", 2))
        for n in range(2, 8) for idx in _RANKS_INDEX[t] for f in FMT3
    ]
    files = [
        Op(_dec(t, n, d, "ranks", "--space", f"@{t}-d{d}-v{v}") + idx + f)
        for t in THEORIES for d in (1, 2, 3) for v in (0, 1)
        for n in range(2, 7) for idx in _RANKS_INDEX[t] for f in FMT3
    ]
    return {"formal": formal, "formal-index": formal_index, "builtin": builtin, "files": files}


# Per-class sample sizes of the evaluate catalogue; a fixed generator keeps
# the catalogue (and so refs.json) the same for every seed.
_LIGHT_SAMPLE = {"formal": 40, "formal-index": 40, "builtin": 50, "files": 70}


def _evaluate_light_classes() -> dict[str, list[Op]]:
    rng = random.Random("fmc-bench-evaluate-catalogue")
    grid = _evaluate_light_grid()
    return {name: rng.sample(grid[name], _LIGHT_SAMPLE[name]) for name in grid}


def _evaluate_heavy() -> list[Op]:
    # n = 8..9 on built-in spaces: evaluate_decomposition expands every
    # multiplicity into a list of group copies, 0.2-0.6 s and up to 90 MB.
    picks = [
        ("lawson", 8, ("--p", "3", "--k", "10")),
        ("lawson", 8, ("--p", "4", "--k", "10")),
        ("lawson", 8, ("--p", "4", "--k", "12")),
        ("lawson", 9, ("--p", "3", "--k", "8")),
        ("chow", 8, ("--p", "5",)),
        ("chow", 8, ("--p", "6",)),
        ("chow", 9, ("--p", "4",)),
    ]
    return [
        Op(_dec(t, n, 2, "ranks", "--space", "p2") + idx + f)
        for t, n, idx in picks for f in FMT2
    ]


_README_EXIT2 = "README: exit 2 on invalid input"


def _evaluate_invalid() -> list[Op]:
    def bad(argv: tuple[str, ...], why: str) -> Op:
        return Op(argv, expect="exit2", why=f"{_README_EXIT2}; {why}")

    return [
        bad(("nests", "--n", "8"), "nest enumeration is capped at n <= 7 by default"),
        bad(("h-poly", "--n", "three", "--d", "2"), "bad flags"),
        bad(("mult", "--n", "4"), "bad flags (--d missing)"),
        bad(("nests", "--n", "3", "--format", "latex"), "only decompose accepts latex"),
        bad(_dec("hodge", 2, 2, "formal"), "theory is one of lawson|chow|db|betti"),
        bad(_dec("lawson", 2, 2, "ranks", "--space", "p2", "--p", "2", "--k", "3"),
            "lawson takes --p and --k with k >= 2p >= 0"),
        bad(_dec("lawson", 2, 1, "ranks", "--space", "@bad-field", "--p", "0", "--k", "0"),
            "unknown descriptor fields are rejected"),
        bad(_dec("lawson", 2, 1, "ranks", "--space", "@bad-negk", "--p", "0", "--k", "0"),
            "entries with k < 0 may not be stored"),
        bad(_dec("chow", 2, 1, "ranks", "--space", "@bad-chowk", "--p", "0"),
            "chow tables use k = 0 in every record"),
        bad(_dec("lawson", 2, 1, "ranks", "--space", "@bad-dim", "--p", "0", "--k", "0"),
            "dim is an integer >= 1"),
        bad(_dec("lawson", 2, 1, "ranks", "--space", "@bad-json", "--p", "0", "--k", "0"),
            "malformed descriptor file"),
    ]


def _evaluate_fixed() -> list[Op]:
    """Ops in every evaluate pass: three known defects and one runaway guard."""
    return [
        Op(_dec("betti", 2, 3, "ranks", "--space", "p2"), expect="exit2",
           why="ROADMAP defect: the space dimension 2 does not match d=3",
           known="ROADMAP defect: exits 0 with a wrong Poincare polynomial"),
        Op(_dec("lawson", 2, 1, "ranks", "--space", "@dup-powers", "--p", "1", "--k", "2"),
           expect="exit2", why="ROADMAP defect: powers keys '2' and '02' collide",
           known="ROADMAP defect: the last table silently wins"),
        Op(_dec("lawson", 2, 1, "ranks", "--space", "@dup-key", "--p", "0", "--k", "0"),
           expect="exit2", why="ROADMAP defect: duplicate JSON object keys",
           known="ROADMAP defect: the last key silently wins"),
        Op(_dec("lawson", 12, 2, "ranks", "--space", "p2", "--p", "5", "--k", "14"),
           expect="guard", why="ROADMAP: every command gets a size budget",
           known="ROADMAP defect: no budget outside nests; multiplicities near 7e11 "
                 "are expanded into lists until the memory limit stops the child"),
    ]


def catalogue() -> dict[str, dict[str, list[Op]]]:
    """Every op any seed can draw, by workload and class."""
    light = _evaluate_light_classes()
    return {
        "kernel": _kernel_classes(),
        "crosscheck": _crosscheck_classes(),
        "evaluate": dict(light, heavy=_evaluate_heavy(), invalid=_evaluate_invalid(),
                         fixed=_evaluate_fixed()),
    }


# How many ops each pass draws per class; "fixed" and crosscheck classes
# run whole.  Kernel: about 5 s; crosscheck: 4 ops; evaluate: 31 ops.
DRAWS = {
    "kernel": {"h-poly": 2, "mult": 2, "egf": 2, "betti": 1},
    "crosscheck": {"verify6": 1, "verify5": 1, "nests-text": 1, "nests-json": 1},
    "evaluate": {"formal": 4, "formal-index": 5, "builtin": 5, "files": 6, "heavy": 3,
                 "invalid": 4, "fixed": 4},
}
WORKLOADS = tuple(DRAWS)
BALANCE_TOLERANCE = 0.01
BALANCE_TRIES = 400


def _draw(rng: random.Random, classes: dict[str, list[Op]], draws: dict[str, int]) -> list[Op]:
    ops: list[Op] = []
    for name, count in draws.items():
        pool = classes[name]
        ops.extend(pool if count >= len(pool) else rng.sample(pool, count))
    return ops


def _cost(ops: list[Op], costs: dict[str, float]) -> float:
    return sum(costs.get(op.key, 0.0) for op in ops)


def plan(workload: str, seed: int, costs: dict[str, float]) -> list[Op]:
    """The ops of one pass: seeded draws whose recorded cost is near the
    workload's target, in seeded order."""
    classes = catalogue()[workload]
    draws = DRAWS[workload]
    target_rng = random.Random(f"target:{workload}")
    totals = sorted(_cost(_draw(target_rng, classes, draws), costs) for _ in range(201))
    target = totals[len(totals) // 2]
    rng = random.Random(f"{workload}:{seed}")
    best, best_gap = None, None
    for _ in range(BALANCE_TRIES):
        ops = _draw(rng, classes, draws)
        gap = abs(_cost(ops, costs) - target)
        if best_gap is None or gap < best_gap:
            best, best_gap = ops, gap
        if gap <= BALANCE_TOLERANCE * target:
            break
    rng.shuffle(best)
    variant = rng.randrange(4)
    return [_bind(op, variant) for op in best]


def _bind(op: Op, variant: int) -> Op:
    # Invalid-input descriptors carry a seeded variant; valid descriptor
    # names already fix their content, which refs.json was made from.
    argv = tuple(
        f"{a}-v{variant}" if a.startswith("@") and not re.search(r"-v\d+$", a) else a
        for a in op.argv
    )
    return Op(argv, op.expect, op.known, op.why)


# ---------------------------------------------------------------------------
# Descriptor files
# ---------------------------------------------------------------------------


def _table(rng: random.Random, kind: str, top_p: int, top_k: int, size: int) -> list[dict]:
    cells = [(p, 0) for p in range(top_p + 1)] if kind == "chow" else [
        (p, k) for p in range(top_p + 1)
        for k in range(2 * p if kind == "lawson" else 0, top_k + 1)
    ]
    records = []
    for p, k in sorted(rng.sample(cells, min(size, len(cells)))):
        record = {"p": p, "k": k, "free_rank": rng.randrange(4)}
        if rng.random() < 0.4:
            record["torsion"] = sorted(rng.choice((2, 3, 4, 6)) for _ in range(rng.randrange(1, 3)))
        records.append(record)
    return records


def _generated(kind: str, dim: int, variant: int) -> dict:
    rng = random.Random(f"descriptor:{kind}:{dim}:{variant}")
    doc: dict = {"name": f"gen-{kind}-{dim}-{variant}", "dim": dim, "kind": kind}
    if kind == "betti":
        half = [1] + [rng.randrange(4) for _ in range(dim)]
        doc["betti"] = half + half[-2::-1]  # palindromic of degree 2*dim
        return doc
    doc["table"] = _table(rng, kind, dim, 2 * dim, 6)
    doc["powers"] = {
        str(m): _table(rng, kind, m * dim, 2 * m * dim, 4 + 2 * m)
        for m in range(2, DESCRIPTOR_MAX_POWER + 1)
    }
    return doc


def descriptor_text(name: str) -> str:
    """File content for a descriptor placeholder ``@name`` in an argv."""
    match = re.fullmatch(r"(lawson|chow|db|betti)-d(\d)-v(\d+)", name)
    if match:
        kind, dim, variant = match.group(1), int(match.group(2)), int(match.group(3))
        return json.dumps(_generated(kind, dim, variant))
    match = re.fullmatch(r"([a-z-]+)-v(\d+)", name)
    if not match:
        raise ValueError(f"unknown descriptor {name!r}")
    bad, variant = match.group(1), int(match.group(2))
    rng = random.Random(f"descriptor:{bad}:{variant}")
    # A valid lawson descriptor of a curve up to its square, then one flaw.
    base = {"name": f"{bad}-{variant}", "dim": 1, "kind": "lawson",
            "table": _table(rng, "lawson", 1, 2, 3), "powers": {"2": _table(rng, "lawson", 2, 4, 5)}}
    if bad == "bad-field":
        base["colour"] = "blue"
    elif bad == "bad-negk":
        base["table"].append({"p": 0, "k": -2 - variant, "free_rank": 1})
    elif bad == "bad-chowk":
        base.update(kind="chow", table=[{"p": 0, "k": 1 + variant, "free_rank": 1}],
                    powers={"2": [{"p": 0, "k": 0, "free_rank": 1}]})
    elif bad == "bad-dim":
        base["dim"] = 0
    elif bad == "bad-json":
        return json.dumps(base)[: -1 - variant]
    elif bad == "dup-powers":
        base["powers"]["02"] = _table(rng, "lawson", 2, 4, 5)
    elif bad == "dup-key":
        text = json.dumps(base)
        return text[:-1] + f', "name": "{bad}-{variant}-again"}}'
    else:
        raise ValueError(f"unknown descriptor {name!r}")
    return json.dumps(base)


# ---------------------------------------------------------------------------
# Invariants, written without fmc
# ---------------------------------------------------------------------------


def _flag(argv: tuple[str, ...], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def parse_poly(text: str, var: str) -> dict[int, int]:
    """Coefficients of a polynomial printed as ``1 + 3*q^2 - x``."""
    coeffs: dict[int, int] = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        if var not in term:
            coeffs[0] = int(term)
            continue
        coef, _, power = term.partition(var)
        coef = coef.rstrip("*")
        exp = int(power[1:]) if power.startswith("^") else 1
        coeffs[exp] = -1 if coef == "-" else int(coef or 1)
    return coeffs


def _nest_count(n: int) -> int:
    # Nests of {1..n} are forests whose internal nodes have >= 2 children:
    # trees T(k) (Schroeder's fourth problem) and forests F(k) = 2 T(k).
    binom = [[1]]
    for i in range(1, n + 1):
        binom.append([1] + [binom[i - 1][j - 1] + binom[i - 1][j] for j in range(1, i)] + [1])
    trees, forests = [0, 1], [1, 1]
    for m in range(2, n + 1):
        t = sum(binom[m - 1][k - 1] * trees[k] * forests[m - k] for k in range(1, m))
        trees.append(t)
        forests.append(2 * t)
    return forests[n]


def invariant_problems(argv: tuple[str, ...], stdout: str) -> list[str]:
    """Facts every correct output shows, checked from the text alone."""
    problems: list[str] = []
    fmt = _flag(argv, "--format") or "text"
    doc = None
    if fmt == "json":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON"]
    cmd = argv[0]
    n = int(_flag(argv, "--n") or 0)
    d = int(_flag(argv, "--d") or 0)
    lines = stdout.splitlines()
    if cmd == "--version":
        if not re.fullmatch(r"fmc \S+\n", stdout):
            problems.append("version line")
    elif cmd == "h-poly":
        poly = doc["coeffs"] if doc else None
        degree = len(poly) - 1 if doc else max(parse_poly(lines[0].split(" h = ")[1], "x"))
        if n >= 2 and degree != d * (n - 1) - 1:
            problems.append("deg h_n != d(n-1)-1")
    elif cmd == "mult":
        first = (doc["entries"][0] if doc else None)
        ok = (first == {"m": n, "shift": 0, "mult": 1}) if doc else lines[1] == f"m={n}: 1"
        if not ok:
            problems.append("a_{n,0} != 1")
    elif cmd == "egf":
        ok = doc["verified"] if doc else lines[-1] == "verified: ok"
        if not ok:
            problems.append("identity not verified")
    elif cmd == "verify":
        ok = doc["overall"] if doc else lines[-1] == "OVERALL PASS"
        if not ok:
            problems.append("verification failed")
    elif cmd == "nests":
        want = _nest_count(n)
        count = doc["count"] if doc else int(lines[0].split("count=")[1])
        listed = len(doc["nests"]) if doc else len(lines) - 1
        if not count == listed == want:
            problems.append(f"nest count {count}/{listed}, expected {want}")
    elif cmd == "decompose" and fmt != "latex":
        if doc:
            first = doc["terms"][0]
            top = (first["m"], first["shift"], first["mult"]) == (n, 0, 1)
        else:
            top = (lines[1] + " ").startswith(f"m={n} shift=0 mult=1 ")
        if not top:
            problems.append("a_{n,0} != 1")
        if _flag(argv, "--theory") == "betti" and _flag(argv, "--mode") == "ranks" \
                and "--k" not in argv:
            if doc:
                poly = dict(enumerate(doc["poincare"]["coeffs"]))
            else:
                poly = parse_poly(lines[-1].split("poincare = ")[1], "q")
            top = 2 * d * n
            if max(poly) != top or any(poly.get(i, 0) != poly.get(top - i, 0) for i in range(top + 1)):
                problems.append("Poincare polynomial not palindromic of degree 2dn")
    return problems
