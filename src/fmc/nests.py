"""Enumeration of nests (labeled forests) on {1..n} and their weight sums.

A nest is a family of subsets of {1..n} that contains every singleton and
in which no two members partially overlap, i.e. any two members are either
disjoint or nested.  Such a family is exactly a forest: the leaves are the
singletons, every internal node is the union of its sons, and every
internal node has at least two sons.

Each nest carries two statistics: the number of connected components
(maximal members) and, for every internal node, its number of sons.  The
enumeration builds every nest as a forest (partition {1..n} into
components, then partition each root into sons), so it reads both
statistics off the construction.  The trees on each block are built once
per enumeration and shared by every forest that holds the block, so the
cost is proportional to the number of nests rather than to the number of
candidate subset families.  ``fmc nests`` sorts these forests into the
canonical order (members are sorted label tuples, and nests are compared
as sorted member sequences) and writes them as it goes.

The weight polynomial of a nest in ambient dimension ``d`` is the product
over internal nodes I of ``x + x^2 + ... + x^(d*(sons(I)-1)-1)``; the empty
product is 1.  It depends only on the nest's signature (component count,
sorted son counts), so the brute-force side of the decomposition checks
counts signatures once per n, straight off the construction, and sums
their weights, grouped by component count, for each ``d``.  The count
still visits every labelled forest, so it stays independent of the
generating-function kernel.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from math import prod

from .genfun import BudgetError, sigma
from .polyseries import ONE, IntPoly

#: Hard cap on the label count for exhaustive enumeration; the number of
#: nests grows super-exponentially (n=7 already has 78416).
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


def _trees(block: tuple[int, ...], memo: dict) -> tuple[tuple, ...]:
    # Every tree rooted at `block` (len >= 2), each as its (internal member,
    # son count) pairs, root first.  `memo` keeps the trees of every block
    # met so far, so one enumeration builds each block's trees once.
    found = memo.get(block)
    if found is None:
        found = memo[block] = tuple(
            ((block, len(part)),) + tuple(itertools.chain.from_iterable(combo))
            for part in _set_partitions(block)
            if len(part) >= 2
            for combo in _choices(part, memo)
        )
    return found


def _choices(part: tuple[tuple[int, ...], ...], memo: dict) -> Iterator[tuple]:
    # One tree for every block of `part` that is not a singleton, every way.
    return itertools.product(*(_trees(block, memo) for block in part if len(block) >= 2))


def _forests(n: int) -> Iterator[tuple[int, dict[tuple[int, ...], int]]]:
    # (component count, {internal member: son count}) of every nest on
    # {1..n}, in construction order: components first, then each root's tree.
    memo: dict = {}
    for part in _set_partitions(tuple(range(1, n + 1))):
        for combo in _choices(part, memo):
            yield len(part), dict(itertools.chain.from_iterable(combo))


def _check_labels(n: int, allow_large: bool) -> None:
    if n < 1:
        raise ValueError("label count must be >= 1")
    if n > NEST_BUDGET and not allow_large:
        raise BudgetError(
            f"enumeration budget exceeded: n={n} > {NEST_BUDGET} (override to proceed)"
        )


def _weight(son_counts: Iterable[int], d: int) -> IntPoly:
    return prod((sigma(count - 1, d) for count in son_counts), start=ONE)


@lru_cache(maxsize=None)
def _signatures(n: int) -> tuple:
    # How many nests on n labels have each (component count, sorted son
    # counts).  Callers check the budget first: a refused n is never cached.
    counts = Counter((m, tuple(sorted(sons.values()))) for m, sons in _forests(n))
    return tuple(sorted(counts.items()))


def brute_bivariate(n: int, d: int, allow_large: bool = False) -> dict[int, IntPoly]:
    """Sum of nest weights grouped by component count.

    The result maps each occurring component count m to
    ``sum(weight(S) for nests S with c(S) = m)``; zero sums are dropped.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    _check_labels(n, allow_large)
    totals: dict[int, IntPoly] = {}
    for (m, sons), count in _signatures(n):
        totals[m] = totals.get(m, IntPoly()) + _weight(sons, d) * count
    return {m: p for m, p in sorted(totals.items()) if not p.is_zero}
