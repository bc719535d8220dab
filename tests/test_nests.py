import itertools
from collections import Counter
from math import prod

import pytest

import fmc.nests
from fmc.genfun import sigma
from fmc.nests import (
    BudgetError,
    Nest,
    NestStats,
    brute_bivariate,
    enumerate_nests,
    is_nest,
    nest_stats,
    nests_with_stats,
)
from fmc.oracle import run_verification
from fmc.polyseries import IntPoly, ONE


def nest_weight(nest, d):
    """Weight polynomial: product over internal nodes of sigma(sons-1, d)."""
    return prod((sigma(count - 1, d) for count in nest_stats(nest).sons.values()), start=ONE)


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


@pytest.fixture
def fresh_signatures():
    """An empty signature cache before the test and after it."""
    fmc.nests._signatures.cache_clear()
    yield
    fmc.nests._signatures.cache_clear()


def reference_nest_stats(nest):
    """Independent oracle: the statistics by cubic containment scans.

    A component is a member inside no other; a son of a member is a member
    below it with no member strictly between the two.
    """
    members = [frozenset(m) for m in nest.members]
    component_count = 0
    for member in members:
        if not any(member < other for other in members):
            component_count += 1
    sons = {}
    for member, key in zip(members, nest.members):
        if len(member) == 1:
            continue
        below = [other for other in members if other < member]
        count = sum(
            1 for child in below if not any(child < mid for mid in below)
        )
        sons[key] = count
    return NestStats(components=component_count, sons=sons)


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
        members = sorted(nest.members for nest in enumerate_nests(2))
        assert members == [((1,), (1, 2), (2,)), ((1,), (2,))]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_filter_oracle(self, n):
        expected = filter_all_families(n)
        got = [nest.members for nest in enumerate_nests(n)]
        assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_valid_no_duplicates(self, n):
        nests = enumerate_nests(n)
        assert len(set(nests)) == len(nests)
        for nest in nests:
            assert is_nest(n, nest.members)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_nests(0)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            enumerate_nests(8)
        # override path works below the cap too
        assert len(enumerate_nests(3, allow_large=True)) == 8


class TestFromFamily:
    def test_canonicalizes(self):
        nest = Nest.from_family(3, [(3,), (2,), (1,), (3, 2), (2, 1, 3)])
        assert nest.members == ((1,), (1, 2, 3), (2,), (2, 3), (3,))
        # the internal nodes are the members with sons
        assert sorted(nest_stats(nest).sons) == [(1, 2, 3), (2, 3)]

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="not a nest"):
            Nest.from_family(3, [(1,), (2,), (3,), (1, 2), (2, 3)])

    def test_deduplicates(self):
        nest = Nest.from_family(2, [(1,), (1,), (2,), (1, 2), (2, 1)])
        assert nest.members == ((1,), (1, 2), (2,))


class TestStats:
    def test_chain_example(self):
        nest = Nest(3, ((1,), (1, 2, 3), (2,), (2, 3), (3,)))
        stats = nest_stats(nest)
        assert stats.components == 1
        assert stats.sons == {(1, 2, 3): 2, (2, 3): 2}

    def test_all_singletons(self):
        nest = Nest(3, ((1,), (2,), (3,)))
        stats = nest_stats(nest)
        assert stats.components == 3
        assert stats.sons == {}

    def test_one_pair(self):
        nest = Nest(3, ((1,), (1, 2), (2,), (3,)))
        stats = nest_stats(nest)
        assert stats.components == 2
        assert stats.sons == {(1, 2): 2}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_reference(self, n):
        for nest in enumerate_nests(n):
            assert nest_stats(nest) == reference_nest_stats(nest)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_construction_matches_walk_and_reference(self, n):
        found = nests_with_stats(n)
        assert [nest for nest, _ in found] == enumerate_nests(n)
        for nest, stats in found:
            assert stats == nest_stats(nest) == reference_nest_stats(nest)

    def test_overlapping_family_rejected(self):
        with pytest.raises(ValueError, match="not a nest"):
            nest_stats(Nest(3, ((1,), (1, 2), (2,), (2, 3), (3,))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_son_count_identity(self, n):
        # sum of (sons - 1) over internal nodes = n - components
        for nest in enumerate_nests(n):
            stats = nest_stats(nest)
            assert stats.components >= 1
            assert all(c >= 2 for c in stats.sons.values())
            assert sum(c - 1 for c in stats.sons.values()) == n - stats.components


class TestWeights:
    def test_all_singletons_weight_one(self):
        assert nest_weight(Nest(3, ((1,), (2,), (3,))), 2) == ONE

    def test_single_root_three_sons(self):
        nest = Nest(3, ((1,), (1, 2, 3), (2,), (3,)))
        assert nest_weight(nest, 2) == IntPoly([0, 1, 1, 1])

    def test_binary_chain(self):
        nest = Nest(3, ((1,), (1, 2, 3), (2,), (2, 3), (3,)))
        assert nest_weight(nest, 2) == IntPoly([0, 0, 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_max_total_weight(self, n, d):
        top = max(
            nest_weight(nest, d).degree for nest in enumerate_nests(n)
        )
        assert top == d * (n - 1) - 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weight_degree_bound(self, n, d):
        for nest in enumerate_nests(n):
            stats = nest_stats(nest)
            weight = nest_weight(nest, d)
            if weight.is_zero:
                continue
            bound = d * (n - stats.components) - len(stats.sons)
            assert weight.degree <= bound


class TestBruteBivariate:
    def test_single_label(self):
        assert brute_bivariate(1, 3) == {1: ONE}

    def test_budget_checked_before_cache(self, monkeypatch):
        monkeypatch.setattr(fmc.nests, "NEST_BUDGET", 3)
        assert brute_bivariate(4, 2, allow_large=True)[4] == ONE
        with pytest.raises(BudgetError):
            brute_bivariate(4, 2)

    def test_one_enumeration_per_n(self, monkeypatch, fresh_signatures):
        # verify sweeps every d for every n; the forests are generated once per n.
        calls = []
        forests = fmc.nests._forests

        def counted(n):
            calls.append(n)
            return forests(n)

        monkeypatch.setattr(fmc.nests, "_forests", counted)
        assert run_verification(6, 3).overall
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_signatures_match_walk(self, n):
        walked = Counter(
            (stats.components, tuple(sorted(stats.sons.values())))
            for stats in map(nest_stats, enumerate_nests(n))
        )
        assert fmc.nests._signatures(n) == tuple(sorted(walked.items()))

    def test_wrong_son_count_fails_verify(self, monkeypatch, fresh_signatures):
        # The oracle reads son counts off the construction, so one count off
        # by one in the generator must show up as a failing check.
        forests = fmc.nests._forests

        def off_by_one(n):
            rest = forests(n)
            for m, sons in rest:
                if sons:
                    member = next(iter(sons))
                    yield m, {**sons, member: sons[member] + 1}
                    break
                yield m, sons
            yield from rest

        monkeypatch.setattr(fmc.nests, "_forests", off_by_one)
        report = run_verification(4, 2)
        failed = {check.name for check in report.checks if not check.passed}
        assert "brute-equiv" in failed

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
        for nest in enumerate_nests(n):
            stats = nest_stats(nest)
            weight = ONE
            for count in stats.sons.values():
                weight = weight * flipped_node_weight(count)
            if weight.is_zero:
                continue
            m = stats.components
            flipped[m] = flipped.get(m, IntPoly()) + weight
        flipped = {m: p for m, p in flipped.items() if not p.is_zero}
        assert flipped == brute_bivariate(n, d)
