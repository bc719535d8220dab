"""The nest route: the forest construction of ``fmc.nests``, the brute-force
weight sums it feeds, and the ``fmc nests`` listing written from it.

The library keeps only the construction.  Its references live here: a
depth-first search over laminar families, one walk over a family's members
by size (which validates a family and finds its statistics), a cubic
containment scan, and the listing rendered as a whole document through
``render_json``.
"""

import itertools
import json
import sys
from collections import Counter, namedtuple
from functools import lru_cache
from math import prod

import pytest

import fmc.cli
import fmc.nests
from fmc.cli import main, render_json
from fmc.genfun import sigma
from fmc.nests import BudgetError, brute_bivariate
from fmc.oracle import run_verification
from fmc.polyseries import IntPoly, ONE

#: Component count and {internal member: son count} of a nest.
Stats = namedtuple("Stats", "components sons")


def canonical_members(family):
    """Sorted tuple-of-tuples form of a family of label sets."""
    return tuple(sorted(tuple(sorted(m)) for m in {frozenset(m) for m in family}))


def walk(members):
    """The statistics of distinct members, or None if two partially overlap.

    top[label] is the largest member seen so far holding the label, and a
    member's sons are the tops it meets.  Those tops are disjoint, so they
    lie inside the member exactly when their sizes add up to the number of
    its labels they cover.  The tops left at the end are the components.
    """
    top = {}
    sons = {}
    for member in sorted(members, key=len):
        below = {top[label] for label in member if label in top}
        if sum(map(len, below)) != sum(label in top for label in member):
            return None
        if len(member) > 1:
            sons[member] = len(below)
        top.update(dict.fromkeys(member, member))
    return Stats(components=len(set(top.values())), sons=sons)


def is_nest(n, family):
    """True iff the family contains all singletons and no overlapped pair.

    Members must be drawn from ``{1..n}``; the empty set is never a valid
    member.
    """
    if n < 1:
        raise ValueError("label count must be >= 1")
    sets = [frozenset(m) for m in family]
    for member in sets:
        if not member:
            return False
        if not member <= frozenset(range(1, n + 1)):
            raise ValueError("member labels outside 1..n")
    present = set(sets)
    singletons = {frozenset((label,)) for label in range(1, n + 1)}
    return present >= singletons and walk(present) is not None


def from_family(n, family):
    """Canonical members of a raw family of label sets; ValueError if not a nest."""
    members = canonical_members(family)
    if not is_nest(n, members):
        raise ValueError("family is not a nest")
    return members


def nest_stats(members):
    """Component count and son counts, singleton sons included; ValueError if not a nest."""
    stats = walk(members)
    if stats is None:
        raise ValueError("family is not a nest")
    return stats


def nest_weight(members, d):
    """Weight polynomial: product over internal nodes of sigma(sons-1, d)."""
    return prod((sigma(count - 1, d) for count in nest_stats(members).sons.values()), start=ONE)


def constructed(n):
    """(members, stats) of every nest as ``fmc.nests._walk`` builds it, canonical order.

    The walk gives each nest one int: its component count in slot 0 plus one
    summary per internal member.  Here that summary is the son count in a
    slot of its own for each larger subset, from slot 1 up, decoded back
    into {member: son count}.  A count is at most n, so no slot carries.
    """
    labels = range(1, n + 1)
    larger = [m for size in range(2, n + 1) for m in itertools.combinations(labels, size)]
    slot = {member: i for i, member in enumerate(larger, 1)}
    width = n.bit_length()
    mask = (1 << width) - 1

    def node(member, sons):
        return sons << (width * slot[member])

    singletons = tuple((label,) for label in labels)
    found = []
    for nest in fmc.nests._walk(n, node):
        sons = {
            member: count
            for member in larger
            if (count := nest >> (width * slot[member]) & mask)
        }
        found.append((tuple(sorted(singletons + tuple(sons))), Stats(nest & mask, sons)))
    return sorted(found)


def enumerate_nests(n):
    """The members of every constructed nest, in canonical order."""
    return [members for members, _ in constructed(n)]


@lru_cache(maxsize=None)
def reference_nests(n):
    """Independent oracle: every nest on {1..n}, canonical order, by a depth-first search.

    A nest is its singletons plus a laminar family of larger subsets: each
    such member has at least two sons, since its largest proper sub-members
    cover it.  The search takes the larger subsets in a fixed order and adds
    each one that meets every chosen member trivially or by inclusion.
    """
    labels = range(1, n + 1)
    singletons = [frozenset((label,)) for label in labels]
    subsets = [
        frozenset(combo)
        for size in range(2, n + 1)
        for combo in itertools.combinations(labels, size)
    ]
    found = []

    def extend(start, chosen):
        found.append(canonical_members(singletons + chosen))
        for i in range(start, len(subsets)):
            subset = subsets[i]
            if all(subset <= t or t <= subset or not subset & t for t in chosen):
                extend(i + 1, chosen + [subset])

    extend(0, [])
    return tuple(sorted(found))


def filter_all_families(n):
    """Independent oracle: every subset family passing is_nest, by filtering.

    Candidate non-singleton subsets are all 2^(#subsets) combinations; only
    feasible for tiny n.
    """
    labels = range(1, n + 1)
    non_singletons = [
        combo
        for size in range(2, n + 1)
        for combo in itertools.combinations(labels, size)
    ]
    singletons = [(label,) for label in labels]
    nests = []
    for picks in itertools.chain.from_iterable(
        itertools.combinations(non_singletons, r) for r in range(len(non_singletons) + 1)
    ):
        family = singletons + list(picks)
        if is_nest(n, family):
            nests.append(tuple(sorted(family)))
    return sorted(nests)


def reference_nest_stats(members):
    """Independent oracle: the statistics by cubic containment scans.

    A component is a member inside no other; a son of a member is a member
    below it with no member strictly between the two.
    """
    sets = [frozenset(m) for m in members]
    component_count = 0
    for member in sets:
        if not any(member < other for other in sets):
            component_count += 1
    sons = {}
    for member, key in zip(sets, members):
        if len(member) == 1:
            continue
        below = [other for other in sets if other < member]
        count = sum(
            1 for child in below if not any(child < mid for mid in below)
        )
        sons[key] = count
    return Stats(components=component_count, sons=sons)


def reference_listing(n, fmt):
    """``fmc nests`` stdout as a whole document, rendered through render_json."""
    found = [(members, nest_stats(members)) for members in reference_nests(n)]
    if fmt == "json":
        doc = {
            "n": n,
            "count": len(found),
            "nests": [
                {
                    "members": members,
                    "components": stats.components,
                    "sons": [
                        {"member": member, "count": count}
                        for member, count in sorted(stats.sons.items())
                    ],
                }
                for members, stats in found
            ],
        }
        return render_json(doc) + "\n"
    lines = [f"n={n} count={len(found)}"]
    for members, stats in found:
        sons = " ".join(
            "{" + ",".join(map(str, member)) + "}=" + str(count)
            for member, count in sorted(stats.sons.items())
        )
        line = " ".join("{" + ",".join(map(str, m)) + "}" for m in members)
        line += f"  components={stats.components}"
        if sons:
            line += f" sons: {sons}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def listing(capsys, n, fmt):
    code = main(["nests", "--n", str(n), "--format", fmt])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_signatures():
    """An empty signature cache before the test and after it."""
    fmc.nests._signatures.cache_clear()
    yield
    fmc.nests._signatures.cache_clear()


class TestIsNest:
    def test_singletons_only(self):
        assert is_nest(3, [(1,), (2,), (3,)])

    def test_overlap_rejected(self):
        assert not is_nest(3, [(1,), (2,), (3,), (1, 2), (1, 3)])

    def test_chain_accepted(self):
        assert is_nest(3, [(1,), (2,), (3,), (2, 3), (1, 2, 3)])

    def test_missing_singleton_rejected(self):
        assert not is_nest(3, [(1,), (2,)])

    def test_empty_member_rejected(self):
        assert not is_nest(2, [(1,), (2,), ()])

    def test_labels_outside_range(self):
        with pytest.raises(ValueError):
            is_nest(2, [(1,), (2,), (3,)])

    def test_equal_size_overlap_rejected(self):
        singletons = [(label,) for label in range(1, 5)]
        assert not is_nest(4, singletons + [(1, 2, 3), (2, 3, 4)])
        assert not is_nest(4, singletons + [(2, 3), (1, 2)])

    def test_long_chain(self):
        n = 12
        singletons = [(label,) for label in range(1, n + 1)]
        chain = [tuple(range(start, n + 1)) for start in range(1, n)]
        assert is_nest(n, singletons + chain)
        # One member straddling two links of the chain breaks it.
        assert not is_nest(n, singletons + chain + [(5, 6)])


class TestEnumeration:
    def test_counts_small(self):
        assert len(enumerate_nests(1)) == 1
        assert len(enumerate_nests(2)) == 2
        assert len(enumerate_nests(3)) == 8

    def test_n2_contents(self):
        assert enumerate_nests(2) == [((1,), (1, 2), (2,)), ((1,), (2,))]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_filter_oracle(self, n):
        expected = filter_all_families(n)
        assert enumerate_nests(n) == expected
        assert list(reference_nests(n)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_valid_no_duplicates(self, n):
        nests = enumerate_nests(n)
        assert len(set(nests)) == len(nests)
        for members in nests:
            assert is_nest(n, members)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            brute_bivariate(0, 2)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            brute_bivariate(8, 2)


BUDGET_REFUSAL = (
    f"fmc: error: enumeration budget exceeded: n=8 (limit n <= {fmc.nests.NEST_BUDGET})"
)


@pytest.mark.parametrize("argv, last_line", [
    (("nests", "--n", "8"), BUDGET_REFUSAL),
    (("verify", "--max-n", "8", "--max-d", "1"), BUDGET_REFUSAL),
    (("nests", "--n", "8", "--budget-override"),
     "fmc: error: unrecognized arguments: --budget-override"),
], ids=["nests", "verify", "override"])
def test_over_budget_lines_walk_nothing(capsys, monkeypatch, fresh_signatures, argv, last_line):
    # NEST_BUDGET is one fixed limit: a listing or a verify sweep past it is
    # refused before any nest is walked, verify before its first check, and
    # no flag lifts it.  The cache is empty, so every n would be walked.
    def refuse(n, node):
        raise AssertionError(f"walked the nests of n={n}")

    monkeypatch.setattr(fmc.nests, "_walk", refuse)
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[-1] == last_line
    if last_line == BUDGET_REFUSAL:
        assert lines == [BUDGET_REFUSAL]


class TestFromFamily:
    def test_canonicalizes(self):
        members = from_family(3, [(3,), (2,), (1,), (3, 2), (2, 1, 3)])
        assert members == ((1,), (1, 2, 3), (2,), (2, 3), (3,))
        # the internal nodes are the members with sons
        assert sorted(nest_stats(members).sons) == [(1, 2, 3), (2, 3)]

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="not a nest"):
            from_family(3, [(1,), (2,), (3,), (1, 2), (2, 3)])

    def test_deduplicates(self):
        members = from_family(2, [(1,), (1,), (2,), (1, 2), (2, 1)])
        assert members == ((1,), (1, 2), (2,))


class TestStats:
    def test_chain_example(self):
        stats = nest_stats(((1,), (1, 2, 3), (2,), (2, 3), (3,)))
        assert stats.components == 1
        assert stats.sons == {(1, 2, 3): 2, (2, 3): 2}

    def test_all_singletons(self):
        stats = nest_stats(((1,), (2,), (3,)))
        assert stats.components == 3
        assert stats.sons == {}

    def test_one_pair(self):
        stats = nest_stats(((1,), (1, 2), (2,), (3,)))
        assert stats.components == 2
        assert stats.sons == {(1, 2): 2}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_reference(self, n):
        for members in reference_nests(n):
            assert nest_stats(members) == reference_nest_stats(members)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_construction_matches_walk_and_reference(self, n):
        found = constructed(n)
        assert [members for members, _ in found] == list(reference_nests(n))
        for members, stats in found:
            assert stats == nest_stats(members) == reference_nest_stats(members)

    def test_overlapping_family_rejected(self):
        with pytest.raises(ValueError, match="not a nest"):
            nest_stats(((1,), (1, 2), (2,), (2, 3), (3,)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_son_count_identity(self, n):
        # sum of (sons - 1) over internal nodes = n - components
        for _, stats in constructed(n):
            assert stats.components >= 1
            assert all(c >= 2 for c in stats.sons.values())
            assert sum(c - 1 for c in stats.sons.values()) == n - stats.components


class TestWeights:
    def test_all_singletons_weight_one(self):
        assert nest_weight(((1,), (2,), (3,)), 2) == ONE

    def test_single_root_three_sons(self):
        assert nest_weight(((1,), (1, 2, 3), (2,), (3,)), 2) == IntPoly([0, 1, 1, 1])

    def test_binary_chain(self):
        assert nest_weight(((1,), (1, 2, 3), (2,), (2, 3), (3,)), 2) == IntPoly([0, 0, 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_max_total_weight(self, n, d):
        top = max(nest_weight(members, d).degree for members in reference_nests(n))
        assert top == d * (n - 1) - 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weight_degree_bound(self, n, d):
        for members in reference_nests(n):
            stats = nest_stats(members)
            weight = nest_weight(members, d)
            if weight.is_zero:
                continue
            bound = d * (n - stats.components) - len(stats.sons)
            assert weight.degree <= bound


class TestBruteBivariate:
    def test_single_label(self):
        assert brute_bivariate(1, 3) == {1: ONE}

    def test_budget_checked_before_cache(self, monkeypatch):
        # n = 4 is walked and cached under the real budget; a budget below
        # it still refuses n = 4, so the cache is never read past the budget.
        assert brute_bivariate(4, 2)[4] == ONE
        monkeypatch.setattr(fmc.nests, "NEST_BUDGET", 3)
        with pytest.raises(BudgetError):
            brute_bivariate(4, 2)

    def test_one_enumeration_per_n(self, monkeypatch, fresh_signatures):
        # verify sweeps every d for every n; the forests are walked once per n.
        calls = []
        walk = fmc.nests._walk

        def counted(n, node):
            calls.append(n)
            return walk(n, node)

        monkeypatch.setattr(fmc.nests, "_walk", counted)
        assert all(check.passed for check in run_verification(6, 3))
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_label_set_partitioned_once(self, monkeypatch, n):
        # The forests on each partition of {1..n} into k >= 2 blocks serve
        # as they stand and, under one more root, as the one-component nests,
        # so a walk partitions the full label set once, not again for its trees.
        full = tuple(range(1, n + 1))
        calls = []
        partitions = fmc.nests._set_partitions

        def counted(items):
            calls.append(tuple(items))
            return partitions(items)

        monkeypatch.setattr(fmc.nests, "_set_partitions", counted)
        walked = list(fmc.nests._walk(n, lambda member, sons: 0))
        assert calls.count(full) == 1
        assert len(walked) == len(reference_nests(n))

    def test_large_dimension_has_no_kernel_budget(self):
        # The brute sums share the kernel's packing but not its budget: at
        # d = 100 the top degree d*(n-1) - 1 = 199 is past the kernel's 160.
        sums = brute_bivariate(3, 100)
        pair, triple = sigma(1, 100), sigma(2, 100)
        assert sums == {3: ONE, 2: pair * 3, 1: triple + pair * pair * 3}
        assert sums[1].degree == 199

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_signatures_match_walk(self, n):
        walked = Counter(
            (stats.components, tuple(sorted(stats.sons.values())))
            for stats in map(nest_stats, reference_nests(n))
        )
        assert fmc.nests._signatures(n) == tuple(sorted(walked.items()))

    def test_wrong_son_count_fails_verify(self, monkeypatch, fresh_signatures):
        # The oracle reads son counts off the walk's ints, so one count off
        # by one in one nest's int must show up as a failing check.  The
        # first nest with n - 1 components holds one pair with 2 sons; its
        # int is swapped for the same pair with 3.  For n = 1 no nest has
        # n - 1 components, and nothing is swapped.
        walk = fmc.nests._walk

        def off_by_one(n, node):
            nests = walk(n, node)
            pairs = itertools.combinations(range(1, n + 1), 2)
            swap = {node(p, 2) + n - 1: node(p, 3) + n - 1 for p in pairs}
            i = next((i for i, nest in enumerate(nests) if nest in swap), None)
            if i is not None:
                nests[i] = swap[nests[i]]
            return nests

        monkeypatch.setattr(fmc.nests, "_walk", off_by_one)
        failed = {check.name for check in run_verification(4, 2) if not check.passed}
        assert "brute-equiv" in failed

    def test_wrong_component_count_fails(self, capsys, monkeypatch, fresh_signatures):
        # The walk writes each nest's component count into its int, which
        # both the oracle and the listing read.  For each n >= 2 the first
        # one-component nest is listed with count 2: a second walk in the
        # same order, whose only nonzero node is the root {1..n}, marks the
        # one-component nests.
        walk = fmc.nests._walk

        def miscounted(n, node):
            nests = walk(n, node)
            marks = walk(n, lambda member, sons: 256 * (len(member) == n))
            i = next((i for i, mark in enumerate(marks) if mark >= 256), None)
            if i is not None:
                nests[i] += 1
            return nests

        monkeypatch.setattr(fmc.nests, "_walk", miscounted)
        failed = {check.name for check in run_verification(4, 2) if not check.passed}
        assert "brute-equiv" in failed
        for fmt in ("text", "json"):
            assert listing(capsys, 4, fmt)[1] != reference_listing(4, fmt)

    def test_two_labels_d3(self):
        assert brute_bivariate(2, 3) == {2: ONE, 1: IntPoly([0, 1, 1])}

    def test_three_labels_d2(self):
        assert brute_bivariate(3, 2) == {
            3: ONE,
            2: IntPoly([0, 3]),
            1: IntPoly([0, 1, 4, 1]),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_top_component_entry_is_one(self, n, d):
        assert brute_bivariate(n, d)[n] == ONE

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_upper_index_convention_agrees(self, n, d):
        # Substituting each node weight mu by d*(sons-1)-mu yields the same
        # grouped sums: each per-node factor is symmetric over 1..d(sons-1)-1.
        def flipped_node_weight(sons):
            k = sons - 1
            coeffs = [0] * max(d * k, 1)
            for mu in range(1, d * k):
                coeffs[d * k - mu] += 1
            return IntPoly(coeffs)

        flipped = {}
        for members in reference_nests(n):
            stats = nest_stats(members)
            weight = ONE
            for count in stats.sons.values():
                weight = weight * flipped_node_weight(count)
            if weight.is_zero:
                continue
            m = stats.components
            flipped[m] = flipped.get(m, IntPoly()) + weight
        flipped = {m: p for m, p in flipped.items() if not p.is_zero}
        assert flipped == brute_bivariate(n, d)


class TestListing:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_reference_renderer(self, capsys, n, fmt):
        assert listing(capsys, n, fmt) == (0, reference_listing(n, fmt), "")

    def test_json_copies_no_document(self, capsys, monkeypatch):
        expected = reference_listing(5, "json")

        def refuse(doc):
            raise AssertionError("the nest listing went through render_json")

        monkeypatch.setattr(fmc.cli, "render_json", refuse)
        assert listing(capsys, 5, "json") == (0, expected, "")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_json_roundtrip(self, capsys, n):
        code, out, _ = listing(capsys, n, "json")
        assert code == 0
        assert render_json(json.loads(out)) == out.rstrip("\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_budget_checked_before_output(self, capsys, monkeypatch, fmt):
        def refuse(n, node):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(fmc.nests, "_walk", refuse)
        code, out, err = listing(capsys, 8, fmt)
        assert (code, out) == (2, "")
        assert "budget" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_every_chunk_edge(self, capsys, monkeypatch, chunk, fmt):
        # Each chunk skips the son words that are zero in all of its rows,
        # and JSON chunks are joined by a comma: small chunks put an edge
        # between every few rows, and a chunk of one row skips every son word
        # its row leaves zero.
        monkeypatch.setattr(fmc.cli, "_NEST_CHUNK", chunk)
        for n in range(1, 6):
            assert listing(capsys, n, fmt) == (0, reference_listing(n, fmt), ""), n

    def test_rows_are_read_as_32_bit_words(self):
        # cmd_nests lays each nest's int out in 32-bit words and reads a chunk
        # of them through a view in the machine's byte order, so a row's low
        # word comes first on a little-endian machine.
        view = fmc.cli._words([1 << 32 | 2, 3 << 32 | 4], 8)
        assert view.itemsize == 4
        assert view.tolist() == ([2, 1, 4, 3] if sys.byteorder == "little" else [1, 2, 3, 4])

    def test_son_counts_fit_a_nibble(self):
        # cmd_nests packs each son count into a 4-bit slot, and the component
        # count into a 32-bit word; both are at most n <= NEST_BUDGET.
        assert fmc.nests.NEST_BUDGET < 16
