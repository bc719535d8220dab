"""Fixed pure-Python work that measures how fast the machine runs right now.

The benchmark runs this program as a child between ops.  It imports no
part of ``fmc``, so its time changes only with the machine: on a shared
host the same op can take 60% longer from one second to the next.  Its
mix follows an ``fmc`` invocation: interpreter start-up and stdlib
imports, schoolbook products of big-integer polynomials, and dict, list
and string work.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as fmc.cli does)
import json


def product(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def main() -> None:
    poly = [1]
    for k in range(1, 120):
        poly = product(poly, [k, 1, 3, k])[:160]
    counts: dict[tuple[int, int], int] = {}
    for i in range(120000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    text = json.dumps({"poly": [str(c) for c in poly], "counts": len(counts)})
    if len(text) < 100:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
