"""Enumeration of nests (labeled forests) on {1..n} and their weight sums.

A nest is a family of subsets of {1..n} that contains every singleton and
in which no two members partially overlap, i.e. any two members are either
disjoint or nested.  Such a family is exactly a forest: the leaves are the
singletons, every internal node is the union of its sons, and every
internal node has at least two sons.

Each nest carries two statistics: the number of connected components
(maximal members) and, for every internal node, its number of sons.  One
walk builds every nest as a forest (partition {1..n} into components, then
partition each root into sons), in one pass per nest: {1..n} is partitioned
once, and the forests on each partition into k >= 2 blocks are yielded as
they stand and again under the root {1..n} with k sons, as the
one-component nests.  The caller gives each internal member with
its son count an integer summary; a tree's summary is the sum over its
internal members, made once per block and shared by every forest that holds
the block, and a forest comes out as (component count, sum of its trees'
summaries).  The trees of a forest have disjoint members, so the sum is
exact, and the cost is proportional to the number of nests rather than to
the number of candidate subset families.  ``fmc nests`` gives each member
one bit, lex-smaller members higher, and a son-count slot below: the
canonical order (members are sorted label tuples, and nests are compared as
sorted member sequences) is then a descending sort of plain ints, and the
listing is rendered from the ints' 32-bit words a column at a time.

The weight polynomial of a nest in ambient dimension ``d`` is the product
over internal nodes I of ``x + x^2 + ... + x^(d*(sons(I)-1)-1)``; the empty
product is 1.  It depends only on the nest's signature (component count,
sorted son counts), so the brute-force side of the decomposition check
counts signatures once per n and sums their weights, grouped by component
count, for each ``d``.  There a node with k sons adds one to slot k of the
summary, the walk's (component count, summary) pairs are counted, and each
distinct signature is decoded once.  The sums run on integers at a point
and are unpacked by ``fmc.genfun._packed``, the kernel's packing: every
weight is nonnegative, so the sums at 1 bound the coefficients.  That and
the node weight ``sigma`` are all the nest route takes from the kernel
module, which it imports only when it sums, so a listing never loads it.
The count still visits every labelled forest, so it stays independent of
the generating-function kernel.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from math import prod

from . import BudgetError

#: Hard cap on the label count for exhaustive enumeration, which nothing
#: lifts; the number of nests grows super-exponentially (n=7 already has
#: 78416, n=8 has 1.32 million).
NEST_BUDGET = 7


def _set_partitions(items: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    # Blocks keep their elements sorted because items are consumed in order
    # and each new element is prepended only when it is the smallest left.
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1 :]
        yield ((first,),) + part


def _walk(n: int, node: Callable[[tuple[int, ...], int], int]) -> Iterator[tuple[int, int]]:
    # (component count, summary) of every nest on {1..n}, where a nest's
    # summary is the sum of node(member, son count) over its internal
    # members.  `memo` keeps the summaries of every tree on each block met
    # so far, so one walk makes them once per block.  The full label set is
    # partitioned once: the forests on a partition into k >= 2 blocks are
    # yielded as they stand, and again under the root node(full, k) as the
    # one-component nests.
    memo: dict[tuple[int, ...], list[int]] = {}

    def trees(block: tuple[int, ...]) -> list[int]:
        found = memo.get(block)
        if found is None:
            found = memo[block] = []
            for part in _set_partitions(block):
                if len(part) >= 2:
                    found += forests(part, node(block, len(part)))
        return found

    def forests(part: tuple[tuple[int, ...], ...], base: int) -> list[int]:
        # base plus one tree for every block of `part` that is not a
        # singleton, every way.
        sums = [base]
        for block in part:
            if len(block) >= 2:
                sums = [s + t for t in trees(block) for s in sums]
        return sums

    full = tuple(range(1, n + 1))
    for part in _set_partitions(full):
        k = len(part)
        if k == 1:
            # {1..n} as one block: its trees are the one-component nests the
            # other partitions give, and for n = 1 it is the lone singleton.
            if n == 1:
                yield 1, 0
            continue
        sums = forests(part, 0)
        for s in sums:
            yield k, s
        root = node(full, k)
        for s in sums:
            yield 1, s + root


def _check_labels(n: int) -> None:
    if n < 1:
        raise ValueError("label count must be >= 1")
    if n > NEST_BUDGET:
        raise BudgetError(f"enumeration budget exceeded: n={n} (limit n <= {NEST_BUDGET})")


@lru_cache(maxsize=None)
def _signatures(n: int) -> tuple:
    # How many nests on n labels have each (component count, sorted son
    # counts).  A node with k sons adds one to slot k of its forest's
    # summary; a forest has fewer than n nodes, so a slot of n's bit length
    # never carries.  Callers check the budget first: a refused n is never cached.
    width = n.bit_length()
    mask = (1 << width) - 1
    counts = Counter(_walk(n, lambda member, sons: 1 << (width * sons)))
    found = {}
    for (m, slots), count in counts.items():
        sons = (k for k in range(2, n + 1) for _ in range(slots >> (width * k) & mask))
        found[m, tuple(sons)] = count
    return tuple(sorted(found.items()))


def brute_bivariate(n: int, d: int) -> dict[int, IntPoly]:
    """Sum of nest weights grouped by component count.

    The result maps each occurring component count m to
    ``sum(weight(S) for nests S with c(S) = m)``; zero sums are dropped.
    """
    # Only the cross-check reads the kernel module, for its packing and its
    # node weights; a nest listing never loads it.
    from .genfun import _check_dim, _packed, sigma

    _check_dim(d)
    _check_labels(n)
    signatures = _signatures(n)
    components = sorted({m for (m, _), _ in signatures})

    def sums(x: int) -> list[int]:
        # Each component count's weight sum at the point x; weights[k] is
        # that of a node with k sons.
        weights = [0] + [sigma(k, d)(x) for k in range(n)]
        totals = dict.fromkeys(components, 0)
        for (m, sons), count in signatures:
            totals[m] += count * prod(weights[k] for k in sons)
        return list(totals.values())

    return {m: p for m, p in zip(components, _packed(sums, 1)) if p}
