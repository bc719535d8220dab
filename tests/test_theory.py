import json
import sys
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from fmc.genfun import BudgetError, multiplicity_table
import fmc.theory
from fmc.polyseries import IntPoly, ONE
from fmc.theory import (
    POINT_TABLE,
    GradedTable,
    GroupDescriptor,
    SpaceDescriptor,
    ZERO_GROUP,
    Z_GROUP,
    betti_of_fm,
    builtin_space,
    evaluate_decomposition,
    formal_groups,
    parse_space,
    proj_bundle_table,
)

P1_BETTI = IntPoly([1, 0, 1])
P2_BETTI = IntPoly([1, 0, 1, 0, 1])
DB_BUNDLE = "no Deligne-Beilinson bundle tables: levels are unbounded"


def power(poly, m):
    """``poly ** m`` as an m-fold product."""
    result = ONE
    for _ in range(m):
        result = result * poly
    return result


def reference_evaluate(dec, space, p=None, k=None):
    """The per-term route: each term reads one coefficient of its own power P^m.

    ``H_k`` for Betti and Lawson data and ``H_{2p}`` for Chow, at the index
    the term's shift gives under the theory's conventions.
    """
    theory = fmc.theory.check_index(space.kind, p, k)
    power_of = cache(lambda m: power(space.betti, m))
    return fmc.theory._sum_terms(
        dec.terms, theory, p, k,
        lambda m, pp, kk: GroupDescriptor(
            free_rank=power_of(m).coefficient(kk if theory.has_degree else 2 * pp)
        ),
    )


def valid_indices(kind, top):
    """Every valid outer index (p, k) of ``kind`` with p <= top, k <= 2 top."""
    if kind == "lawson":
        return [(p, k) for p in range(top + 1) for k in range(2 * p, 2 * top + 1)]
    if kind == "chow":
        return [(p, None) for p in range(top + 1)]
    return [(None, k) for k in range(2 * top + 1)]


groups = st.builds(
    GroupDescriptor,
    free_rank=st.integers(0, 5),
    torsion=st.lists(st.integers(2, 9), max_size=3).map(tuple),
    formal=st.lists(st.sampled_from(["A", "B", "C"]), max_size=2).map(tuple),
)


class TestGroupDescriptor:
    def test_zero(self):
        assert ZERO_GROUP.is_zero
        assert str(ZERO_GROUP) == "0"

    def test_str(self):
        g = GroupDescriptor(free_rank=2, torsion=(3, 2))
        assert str(g) == "Z^2 + Z/2 + Z/3"

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupDescriptor(free_rank=-1)
        with pytest.raises(ValueError):
            GroupDescriptor(torsion=(1,))

    def test_torsion_canonicalized(self):
        assert GroupDescriptor(torsion=(4, 2)) == GroupDescriptor(torsion=(2, 4))

    @given(a=groups, b=groups, c=groups, copies=st.integers(0, 3))
    def test_direct_sum_laws(self, a, b, c, copies):
        # _total is the one accumulator of every direct sum.
        total = fmc.theory._total

        def plus(*summands):
            return total((g, 1) for g in summands)

        assert plus(a, b) == plus(b, a)
        assert plus(plus(a, b), c) == plus(a, plus(b, c))
        assert plus(a, ZERO_GROUP) == plus(a) == a
        assert total([(a, copies)]) == plus(*[a] * copies)

    def test_direct_sum_keeps_the_summand_budget(self):
        # Every group sum lists at most SUMMAND_BUDGET torsion orders and
        # formal names; two halves of 600 000 each are too many, as one
        # group or as copies of one.
        half = GroupDescriptor(torsion=(2,) * 600_000)
        for parts in ([(half, 1), (half, 1)], [(half, 2)]):
            with pytest.raises(BudgetError, match="summand budget exceeded"):
                fmc.theory._total(parts)


class TestGradedTable:
    def test_lookup_defaults(self):
        table = GradedTable({(0, 0): Z_GROUP})
        assert table.lookup(0, 0) == Z_GROUP
        assert table.lookup(1, 2) == ZERO_GROUP
        assert table.lookup(0, -2) == ZERO_GROUP

    def test_zero_entries_dropped(self):
        table = GradedTable({(0, 0): Z_GROUP, (1, 2): ZERO_GROUP})
        assert (1, 2) not in table.groups

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            GradedTable({(0, -1): Z_GROUP})


class TestRecords:
    # The records are immutable values: field equality and hashing, the
    # repr a frozen dataclass prints, no assignment, validation on build.
    def test_equal_records_hash_equal(self):
        a, b = GroupDescriptor(torsion=(4, 2)), GroupDescriptor(0, (2, 4), ())
        assert a == b and hash(a) == hash(b)
        assert GroupDescriptor(1) != GroupDescriptor(2)
        assert GroupDescriptor() != GradedTable({})

    def test_records_holding_a_dict_are_unhashable(self):
        table = GradedTable({(0, 0): Z_GROUP})
        space = SpaceDescriptor("X", 1, "lawson", powers={1: table})
        for record in (table, space, builtin_space("p1", "lawson")):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        rebuilt = {1: GradedTable({(0, 0): Z_GROUP})}
        assert space == SpaceDescriptor("X", 1, "lawson", None, rebuilt)

    def test_repr(self):
        assert repr(GroupDescriptor(torsion=(4, 2), formal=("b", "a"))) == (
            "GroupDescriptor(free_rank=0, torsion=(2, 4), formal=('a', 'b'))"
        )
        assert repr(GradedTable({(0, 0): Z_GROUP, (1, 2): ZERO_GROUP})) == (
            "GradedTable(groups={(0, 0): GroupDescriptor(free_rank=1, torsion=(), formal=())})"
        )
        assert repr(builtin_space("p1", "betti")) == (
            "SpaceDescriptor(name='projective-line', dim=1, kind='betti', "
            "betti=IntPoly([1, 0, 1]), powers={})"
        )
        assert repr(fmc.theory.THEORIES["betti"]).startswith(
            "Theory(name='betti', has_level=False, has_degree=True, negative_level='zero', "
            "text='H_{k}({X})', latex='H_{{{k}}}({X})', index_rule='', index_ok=<function "
        )

    @pytest.mark.parametrize(
        "record, field",
        [
            (Z_GROUP, "free_rank"),
            (Z_GROUP, "torsion"),
            (POINT_TABLE, "groups"),
            (SpaceDescriptor("X", 1, "lawson"), "powers"),
            (fmc.theory.THEORIES["lawson"], "index_ok"),
            (Z_GROUP, "extra"),
        ],
    )
    def test_assignment_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert Z_GROUP.free_rank == 1

    def test_default_powers_are_not_shared(self):
        a, b = SpaceDescriptor("a", 1, "lawson"), SpaceDescriptor("b", 1, "lawson")
        assert a.powers == {} and a.powers is not b.powers
        a.powers[1] = POINT_TABLE
        assert b.powers == {}

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GroupDescriptor(free_rank=-1), "free rank must be nonnegative"),
            (lambda: GroupDescriptor(torsion=(3, 1)), "torsion orders must be >= 2"),
            (lambda: GradedTable({(0, -1): Z_GROUP}), "may not store entries with k < 0"),
            (lambda: SpaceDescriptor("X", 1, "db", IntPoly([1])), "not a Poincare polynomial"),
            (lambda: SpaceDescriptor("X", 1, "homology"), "unknown kind 'homology'"),
        ],
    )
    def test_validation_errors(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestDecomposeFormal:
    def test_n2_d3(self):
        assert multiplicity_table(2, 3).terms == ((2, 0, 1), (1, 1, 1), (1, 2, 1))

    def test_n1(self):
        assert multiplicity_table(1, 5).terms == ((1, 0, 1),)

    def test_n3_d2(self):
        assert multiplicity_table(3, 2).terms == (
            (3, 0, 1),
            (2, 1, 3),
            (1, 1, 1),
            (1, 2, 4),
            (1, 3, 1),
        )


class TestProjectiveTables:
    def test_point(self, bundle_powers):
        assert bundle_powers(0, "lawson", 1)[1].groups == {(0, 0): Z_GROUP}

    def test_bundle_over_point(self):
        # rank parameter 3 over a point rebuilds the projective plane
        assert proj_bundle_table(POINT_TABLE, 3, 2, "lawson").lookup(1, 2) == Z_GROUP

    def test_bundle_over_plane(self, bundle_powers):
        plane = bundle_powers(2, "lawson", 1)[1]
        assert proj_bundle_table(plane, 3, 4, "lawson").lookup(1, 2) == GroupDescriptor(2)

    def test_bundle_identity(self, bundle_powers):
        table = bundle_powers(2, "lawson", 1)[1]
        assert proj_bundle_table(table, 1, 2, "lawson").groups == table.groups

    def test_window_holds_valid_indices_only(self):
        # A Lawson group with k < 2p is zero, so the bundle table neither
        # reads nor stores one, even where the base (unchecked) holds it.
        base = GradedTable({(1, 0): Z_GROUP, (0, 0): Z_GROUP})
        assert proj_bundle_table(base, 1, 1, "lawson").groups == {(0, 0): Z_GROUP}

    def test_db_refused(self):
        # Deligne-Beilinson levels are unbounded: a level-5 record lies
        # outside every window 0..total_dim, and a shift j >= 1 reads a
        # negative level that no table stores.
        base = GradedTable({(5, 0): Z_GROUP, (0, 3): GroupDescriptor(2)})
        for r in (1, 3):
            with pytest.raises(ValueError, match=DB_BUNDLE):
                proj_bundle_table(base, r, 1, "db")

    def test_plane_ranks(self, bundle_powers):
        # rank 1 exactly for even k with 2p <= k <= 4
        table = bundle_powers(2, "lawson", 1)[1]
        for p in range(0, 4):
            for k in range(0, 7):
                expected = 1 if (k % 2 == 0 and 2 * p <= k <= 4) else 0
                assert table.lookup(p, k).free_rank == expected

    def test_chow_tables(self, bundle_powers):
        plane, square = bundle_powers(2, "chow", 2).values()
        assert plane.groups == {(0, 0): Z_GROUP, (1, 0): Z_GROUP, (2, 0): Z_GROUP}
        # Chow ranks of the square of the plane: 1,2,3,2,1 in levels 0..4
        assert [square.lookup(p, 0).free_rank for p in range(5)] == [1, 2, 3, 2, 1]


class TestEvaluate:
    def test_plane_square_rank(self):
        space = builtin_space("projective-plane", "lawson")
        value = evaluate_decomposition(multiplicity_table(2, 2), space, 1, 2)
        assert value == GroupDescriptor(free_rank=3)

    def test_identity_decomposition_keeps_table(self, bundle_powers):
        space = builtin_space("p2", "lawson")
        dec = multiplicity_table(1, 2)
        for (p, k), group in bundle_powers(2, "lawson", 1)[1].groups.items():
            if k >= 2 * p:
                assert evaluate_decomposition(dec, space, p, k) == group

    def test_chow_evaluation(self):
        space = builtin_space("p1", "chow")
        dec = multiplicity_table(2, 1)
        # X[2] = square of the line: Chow ranks 1, 2, 1
        assert [
            evaluate_decomposition(dec, space, p).free_rank for p in range(3)
        ] == [1, 2, 1]

    def test_db_formal_terms(self):
        groups, value = formal_groups(multiplicity_table(2, 2), "db", 1, 2)
        assert list(map(str, groups)) == ["H^2_D(X^2, Z(1))", "H^0_D(X, Z(0))"]
        assert value.formal == ("H^0_D(X, Z(0))", "H^2_D(X^2, Z(1))")

    def test_db_negative_level_stays_formal(self):
        space = SpaceDescriptor(
            name="Y",
            dim=2,
            kind="db",
            powers={
                1: GradedTable({(0, 0): Z_GROUP}),
                2: GradedTable({(0, 0): Z_GROUP}),
            },
        )
        value = evaluate_decomposition(multiplicity_table(2, 2), space, 0, 2)
        assert value.formal == ("H^0_D(X, Z(-1))",)

    def test_lawson_level_clamp(self):
        # at p=0 the shifted terms read level 0, not a missing negative level
        space = builtin_space("p2", "lawson")
        value = evaluate_decomposition(multiplicity_table(2, 2), space, 0, 2)
        # terms: L_0H_2(X^2) rank 2, clamp L_{-1}H_0(X) -> L_0H_0(X) rank 1
        assert value == GroupDescriptor(free_rank=3)

    def test_betti_evaluation(self):
        space = builtin_space("p2", "betti")
        dec = multiplicity_table(2, 2)
        ranks = [evaluate_decomposition(dec, space, k=k).free_rank for k in range(9)]
        assert ranks == [1, 0, 3, 0, 4, 0, 3, 0, 1]

    @pytest.mark.parametrize(
        "kind, p, k", [("lawson", 5, 14), ("chow", 20, None), ("betti", None, 14)],
        ids=["lawson", "chow", "betti"],
    )
    def test_ranks_compute_each_power_once(self, monkeypatch, kind, p, k):
        # Built-in ranks are one coefficient of the Poincare polynomial of
        # X[n], built by Horner's rule in P on integers at a point: one
        # packed pass, no polynomial product, and no shifted table read on
        # the way.  Power by power it takes 285 products at n = 40.
        def unreachable(*args):
            raise AssertionError("shifted table read reached")

        monkeypatch.setattr(fmc.theory, "_sum_terms", unreachable)
        dec = multiplicity_table(40, 2)
        space = builtin_space("p2", kind)
        products, packs = [], []
        plain_mul, plain_packed = IntPoly.__mul__, fmc.theory._packed

        def counted_mul(self, other):
            products.append(other)
            return plain_mul(self, other)

        def counted_packed(*args, **kwargs):
            packs.append(args)
            return plain_packed(*args, **kwargs)

        monkeypatch.setattr(IntPoly, "__mul__", counted_mul)
        monkeypatch.setattr(fmc.theory, "_packed", counted_packed)
        value = evaluate_decomposition(dec, space, p, k)
        assert (len(products), len(packs)) == (0, 1)
        assert value.free_rank > 0

    @settings(deadline=None)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 3),
        half=st.lists(st.integers(0, 5), min_size=4, max_size=4),
        kind=st.sampled_from(["lawson", "chow", "betti"]),
    )
    def test_poincare_read_matches_per_term_reference(self, n, d, half, kind):
        # Any nonnegative Betti polynomial palindromic of degree 2d, as
        # Poincare duality asks, at every valid index a little past the top
        # dimension.
        front = half[: d + 1]
        space = SpaceDescriptor("X", d, kind, betti=IntPoly(front + front[-2::-1]))
        dec = multiplicity_table(n, d)
        for p, k in valid_indices(kind, d * n + 1):
            expected = reference_evaluate(dec, space, p, k)
            assert evaluate_decomposition(dec, space, p, k) == expected, (p, k)

    def test_db_takes_no_poincare_polynomial(self):
        # Deligne-Beilinson groups are not Betti numbers: a negative level
        # stays formal, which no coefficient of P_{X[n]} can say.
        with pytest.raises(ValueError, match="Poincare polynomial"):
            SpaceDescriptor("X", 2, "db", betti=P2_BETTI)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("kind", ["lawson", "chow"])
    @pytest.mark.parametrize("a", [1, 2])
    def test_builtin_ranks_match_bundle_tables(self, a, kind, n, bundle_powers):
        # The Poincare-polynomial reads against tables built from a point by
        # iterated projective bundles, at every valid index and a little past
        # the top dimension.
        dec = multiplicity_table(n, a)
        builtin = builtin_space(f"p{a}", kind)
        tables = SpaceDescriptor("P", a, kind, powers=bundle_powers(a, kind, n))
        top = a * n + 1
        for p in range(top + 1):
            for k in range(2 * p, 2 * top + 1) if kind == "lawson" else (None,):
                got = evaluate_decomposition(dec, builtin, p, k)
                assert got == evaluate_decomposition(dec, tables, p, k), (p, k)

    def test_missing_power_table(self, bundle_powers):
        # Only power 1 is supplied, as a descriptor file without "powers".
        plane = bundle_powers(2, "lawson", 1)[1]
        space = SpaceDescriptor("P2", 2, "lawson", powers={1: plane})
        with pytest.raises(ValueError, match="power"):
            evaluate_decomposition(multiplicity_table(2, 2), space, 1, 2)

    @pytest.mark.parametrize(
        "kind, power, index, message",
        [
            (
                "lawson", 2, (0, 60),
                "power 2 index (0, 60): lawson records of X^2 need 0 <= 2p <= k <= 4",
            ),
            ("chow", 1, (2, 0), "power 1 index (2, 0): chow records of X^1 need 0 <= p <= 1"),
            ("db", 2, (1, 6), "power 2 index (1, 6): db records of X^2 need k <= 5"),
        ],
    )
    def test_table_record_out_of_range_refused(self, kind, power, index, message):
        # A space built by the library keeps the record ranges a descriptor
        # file keeps; the Lawson group L_0H_60 of the square of a curve used
        # to evaluate as Z^4.
        powers = {1: GradedTable({}), 2: GradedTable({})}
        powers[power] = GradedTable({index: GroupDescriptor(4)})
        with pytest.raises(ValueError) as caught:
            evaluate_decomposition(
                multiplicity_table(2, 1), SpaceDescriptor("X", 1, kind, powers=powers), *index
            )
        assert str(caught.value) == message

    def test_invalid_outer_index(self):
        space = builtin_space("p2", "lawson")
        with pytest.raises(ValueError):
            evaluate_decomposition(multiplicity_table(2, 2), space, 2, 1)

    def test_stray_index_rejected(self):
        dec = multiplicity_table(2, 2)
        with pytest.raises(ValueError, match="takes no index k"):
            formal_groups(dec, "chow", 1, 0)
        with pytest.raises(ValueError, match="takes no index p"):
            formal_groups(dec, "betti", 0, 4)
        with pytest.raises(ValueError, match="takes no index p"):
            evaluate_decomposition(dec, builtin_space("p2", "betti"), 0, 4)

    def test_dimension_mismatch(self):
        space = builtin_space("p2", "lawson")
        with pytest.raises(ValueError):
            evaluate_decomposition(multiplicity_table(2, 3), space, 1, 2)

    def test_theories_consume_identical_terms(self):
        # at an index deep enough that no term drops to zero, every theory
        # must surface exactly one formal summand per unit of multiplicity
        dec = multiplicity_table(3, 2)
        total = sum(mult for _, _, mult in dec.terms)
        evaluations = {
            "lawson": formal_groups(dec, "lawson", 6, 12),
            "chow": formal_groups(dec, "chow", 6),
            "db": formal_groups(dec, "db", 6, 12),
            "betti": formal_groups(dec, "betti", k=12),
        }
        for kind, (groups, value) in evaluations.items():
            assert len(value.formal) == total, kind
            assert [len(group.formal) for group in groups] == [1] * len(dec.terms), kind

    @pytest.mark.parametrize(
        "kind, p, k", [("lawson", 5, 14), ("lawson", 0, 30), ("chow", 12, None), ("chow", 20, None)]
    )
    def test_ranks_past_int64_match_term_sum(self, kind, p, k, bundle_powers):
        # At n = 21 some multiplicities pass sys.maxsize.  The rank is summed
        # here term by term with the conventions written out: a shift i reads
        # lawson at (max(p - i, 0), k - 2i) and chow at level p - i, and a
        # negative slot reads the zero group.
        n = 21
        dec = multiplicity_table(n, 2)
        assert max(mult for _, _, mult in dec.terms) > sys.maxsize
        powers = bundle_powers(2, kind, n)
        expected = 0
        for m, i, mult in dec.terms:
            at = (max(p - i, 0), k - 2 * i) if kind == "lawson" else (p - i, 0)
            if min(at) >= 0:
                expected += mult * powers[m].lookup(*at).free_rank
        space = builtin_space("p2", kind)
        assert expected > sys.maxsize
        assert evaluate_decomposition(dec, space, p, k) == GroupDescriptor(free_rank=expected)


def shift_and_add(row, shift):
    """``row`` read at ``2^shift`` by repeated shifts, quadratic in its size."""
    value = 0
    for a in reversed(row.coeffs):
        value = (value << shift) + a
    return value


def reference_poincare_at(rows, betti, q):
    """The value ``_poincare`` packs at q, its rows read by ``shift_and_add``."""
    shift = 2 * (q.bit_length() - 1)
    p = betti(q)
    total = 0
    for row in reversed(rows):
        total = total * p + shift_and_add(row, shift)
    return [total * p]


class TestBetti:
    def test_kunneth_square_of_line(self):
        assert P1_BETTI * P1_BETTI == IntPoly([1, 0, 2, 0, 1])

    def test_kunneth_identity(self):
        assert power(P2_BETTI, 1) == P2_BETTI

    def test_kunneth_square_of_plane(self):
        assert P2_BETTI * P2_BETTI == IntPoly([1, 0, 2, 0, 3, 0, 2, 0, 1])

    def test_plane_pair(self):
        # independent hand expansion: (1+q^2+q^4)^2 + q^2 (1+q^2+q^4)
        expected = P2_BETTI * P2_BETTI + P2_BETTI * IntPoly([0, 0, 1])
        assert betti_of_fm(P2_BETTI, 2, 2) == expected
        assert expected == IntPoly([1, 0, 3, 0, 4, 0, 3, 0, 1])

    def test_line_pair_d1(self):
        assert betti_of_fm(P1_BETTI, 1, 2) == IntPoly([1, 0, 2, 0, 1])

    def test_identity(self):
        assert betti_of_fm(P2_BETTI, 2, 1) == P2_BETTI

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            betti_of_fm(P2_BETTI, 1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_palindromic_outputs(self, n, d):
        inputs = [
            IntPoly([1 if i % 2 == 0 else 0 for i in range(2 * d + 1)]),
            power(ONE + IntPoly([0, 1]), 2 * d),
            IntPoly([1] * (2 * d + 1)),
        ]
        for betti in inputs:
            assert betti.is_palindromic(2 * d)
            assert betti_of_fm(betti, d, n).is_palindromic(2 * d * n)

    @pytest.mark.parametrize("digits", [1, 1000])
    @pytest.mark.parametrize(
        "betti", [P2_BETTI, IntPoly([2, 1, 3]), IntPoly([0])], ids=["p2", "uneven", "zero"]
    )
    def test_rows_pack_like_shift_and_add(self, monkeypatch, betti, digits):
        # _poincare packs each row from its coefficients' bytes.  At every
        # point _packed asks for, one pass at 2^(8w) or the split pair at
        # +-2^(4w), its values are those of the shift-and-add loop, and so is
        # the polynomial.
        rows = tuple(
            IntPoly([10 ** (digits - 1) * (m + i + 1) + i for i in range(2 * m + 3)])
            for m in range(6)
        )
        runs = []
        plain = fmc.theory._packed

        def recording(run, at):
            def recorded(q):
                runs.append((q, run(q)))
                return runs[-1][1]

            return plain(recorded, at)

        monkeypatch.setattr(fmc.theory, "_packed", recording)
        result = fmc.theory._poincare(rows, betti)
        assert len(runs) == (3 if digits > 1 and betti(1) else 2)
        for q, values in runs:
            assert values == reference_poincare_at(rows, betti, q), q
        assert result == plain(lambda q: reference_poincare_at(rows, betti, q), 1)[0]

    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 3),
        raw=st.lists(st.integers(0, 5), min_size=3, max_size=3),
        middle=st.integers(0, 5),
    )
    def test_random_palindromic_inputs(self, n, d, raw, middle):
        half = raw[:d]
        half[0] = max(half[0], 1)
        betti = IntPoly(half + [middle] + half[::-1])
        assert betti.is_palindromic(2 * d)
        assert betti_of_fm(betti, d, n).is_palindromic(2 * d * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_euler_characteristic_consistency(self, n, d):
        betti = IntPoly([1 if i % 2 == 0 else 0 for i in range(2 * d + 1)])
        chi = betti(-1)
        scalar = sum(
            mult * chi**m for m, _, mult in multiplicity_table(n, d).terms
        )
        assert betti_of_fm(betti, d, n)(-1) == scalar


SPACE_DOC = {
    "name": "demo",
    "dim": 1,
    "kind": "lawson",
    "table": [
        {"p": 0, "k": 0, "free_rank": 1, "torsion": []},
        {"p": 0, "k": 1, "free_rank": 2, "torsion": [2]},
        {"p": 1, "k": 2, "free_rank": 1},
    ],
    "powers": {
        "2": [
            {"p": 0, "k": 0, "free_rank": 1, "torsion": []},
        ]
    },
}


class TestDescriptorFiles:
    def test_parse_roundtrip(self):
        space = parse_space(json.loads(json.dumps(SPACE_DOC)))
        assert space.name == "demo"
        assert space.dim == 1
        assert space.powers[1].lookup(0, 1) == GroupDescriptor(2, (2,))
        assert space.powers[2].lookup(0, 0) == Z_GROUP

    def test_unknown_top_field_rejected(self):
        doc = dict(SPACE_DOC, extra=1)
        with pytest.raises(ValueError, match="unknown fields"):
            parse_space(doc)

    def test_unknown_record_field_rejected(self):
        doc = json.loads(json.dumps(SPACE_DOC))
        doc["table"][0]["weird"] = 3
        with pytest.raises(ValueError, match="unknown fields"):
            parse_space(doc)

    def test_bad_torsion_rejected(self):
        doc = json.loads(json.dumps(SPACE_DOC))
        doc["table"][0]["torsion"] = [1]
        with pytest.raises(ValueError, match="torsion"):
            parse_space(doc)

    def test_betti_descriptor(self):
        space = parse_space(
            {"name": "line", "dim": 1, "kind": "betti", "betti": [1, 0, 1]}
        )
        assert space.betti == P1_BETTI

    def test_betti_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            parse_space({"name": "x", "dim": 1, "kind": "betti", "betti": [1, -1]})

    def test_betti_degree_bound(self):
        with pytest.raises(ValueError, match="degree"):
            parse_space(
                {"name": "x", "dim": 1, "kind": "betti", "betti": [1, 0, 1, 0, 1]}
            )

    def test_chow_degree_slot_must_be_zero(self):
        with pytest.raises(ValueError, match="chow"):
            parse_space(
                {
                    "name": "x",
                    "dim": 1,
                    "kind": "chow",
                    "table": [{"p": 0, "k": 2, "free_rank": 1}],
                }
            )

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_space(
                {
                    "name": "x",
                    "dim": 1,
                    "kind": "lawson",
                    "table": [
                        {"p": 0, "k": 0, "free_rank": 1},
                        {"p": 0, "k": 0, "free_rank": 2},
                    ],
                }
            )

    def test_power_one_rejected(self):
        doc = json.loads(json.dumps(SPACE_DOC))
        doc["powers"]["1"] = []
        with pytest.raises(ValueError, match="powers"):
            parse_space(doc)


# Each bound on a descriptor record of a power of complex dimension e: the
# index (p, k) refused at the bound's edge, and the one a step inside it.
RECORD_EDGES = {
    "lawson 0 <= 2p": ("lawson", lambda e: (-1, 0), lambda e: (0, 0)),
    "lawson 2p <= k": ("lawson", lambda e: (1, 1), lambda e: (1, 2)),
    "lawson k <= 2e": ("lawson", lambda e: (e, 2 * e + 1), lambda e: (e, 2 * e)),
    "chow 0 <= p": ("chow", lambda e: (-1, 0), lambda e: (0, 0)),
    "chow p <= e": ("chow", lambda e: (e + 1, 0), lambda e: (e, 0)),
    "db k <= 2e + 1": ("db", lambda e: (0, 2 * e + 2), lambda e: (0, 2 * e + 1)),
}


def _one_record_space(kind, power, p, k):
    record = [{"p": p, "k": k, "free_rank": 1}]
    doc = {"name": "x", "dim": 2, "kind": kind, "table": record}
    if power > 1:
        doc.update(table=[], powers={str(power): record})
    return parse_space(doc)


class TestRecordRanges:
    @pytest.mark.parametrize("power", [1, 3])
    @pytest.mark.parametrize(
        "kind, refused, accepted", RECORD_EDGES.values(), ids=list(RECORD_EDGES)
    )
    def test_bound_refused_at_its_edge(self, kind, refused, accepted, power):
        e = 2 * power
        inside = accepted(e)
        space = _one_record_space(kind, power, *inside)
        assert space.powers[power].lookup(*inside) == Z_GROUP
        with pytest.raises(ValueError, match=rf"{kind} records of X\^{power} need"):
            _one_record_space(kind, power, *refused(e))

    @pytest.mark.parametrize("kind", ["lawson", "chow", "db"])
    def test_outer_rule_is_the_record_rule_without_top(self, kind):
        # At dim 7 no top bound binds on this grid, so an outer index is
        # accepted exactly when a one-record table at it is.  Chow takes no
        # outer degree and stores its records at k = 0.
        def accepts(check, *args):
            try:
                check(*args)
            except ValueError:
                return False
            return True

        chow = kind == "chow"
        for p in range(-2, 7):
            for k in range(13):
                record = {"p": p, "k": 0 if chow else k, "free_rank": 1}
                doc = {"name": "x", "dim": 7, "kind": kind, "table": [record]}
                outer = accepts(fmc.theory.check_index, kind, p, None if chow else k)
                assert outer == accepts(parse_space, doc), (p, k)

    @pytest.mark.parametrize("p", [-50, 0, 50])
    def test_db_level_is_free(self, p):
        space = _one_record_space("db", 2, p, 9)
        assert space.powers[2].lookup(p, 9) == Z_GROUP

    def test_library_chow_record_takes_no_degree(self):
        # A space built by the library keeps the Chow rule of a descriptor
        # file: no evaluation reads a Chow record at k != 0.
        with pytest.raises(ValueError) as caught:
            evaluate_decomposition(
                multiplicity_table(2, 1),
                SpaceDescriptor("X", 1, "chow", powers={
                    1: GradedTable({(0, 5): GroupDescriptor(3)}), 2: GradedTable({}),
                }),
                0,
            )
        assert str(caught.value) == "power 1 index (0, 5): chow tables use k = 0"

    @pytest.mark.parametrize(
        "records",
        [
            [{"p": 0, "k": 5, "free_rank": 3}, {"p": 9, "k": 0, "free_rank": 1}],
            [{"p": 9, "k": 5, "free_rank": 3}],
        ],
        ids=["later-record-out-of-range", "same-record-out-of-range"],
    )
    def test_chow_degree_is_the_first_fault_of_a_file(self, records):
        doc = {"name": "x", "dim": 1, "kind": "chow", "table": records}
        with pytest.raises(ValueError) as caught:
            parse_space(doc)
        assert str(caught.value) == "table[0]: chow tables use k = 0"


# ---------------------------------------------------------------------------
# Shifted reads of tables with torsion, against the conventions written out
# ---------------------------------------------------------------------------

KINDS = ["lawson", "chow", "db", "betti"]


def record_indices(kind, e):
    """Indices a record of a power of complex dimension e may hold.

    Deligne-Beilinson levels are free; a few around 0..e are drawn.  Betti
    records at level 1 are never read at an outer level 0.
    """
    if kind == "lawson":
        return [(p, k) for k in range(2 * e + 1) for p in range(k // 2 + 1)]
    if kind == "chow":
        return [(p, 0) for p in range(e + 1)]
    if kind == "db":
        return [(p, k) for p in range(-1, e + 2) for k in range(2 * e + 2)]
    return [(p, k) for p in (0, 1) for k in range(2 * e + 1)]


torsion_groups = st.builds(
    GroupDescriptor,
    free_rank=st.integers(0, 3),
    torsion=st.lists(st.integers(2, 12), max_size=2).map(tuple),
)


def tables(kind, e):
    """Random in-range tables of a power of complex dimension e, with torsion."""
    return st.dictionaries(
        st.sampled_from(record_indices(kind, e)), torsion_groups, max_size=8
    ).map(GradedTable)


def shifted_index(kind, p, k, i):
    """The index a term shifted by i reads at outer (p, k), or None for zero.

    A shift lowers the level by i (not for Betti data, which has none) and
    the degree by 2i (not for Chow data, which has none).  A negative degree
    reads zero in every theory; a negative level reads level 0 for Lawson
    and zero for Chow, and a Deligne-Beilinson one is returned as it is.
    """
    level = p if kind == "betti" else p - i
    degree = k if kind == "chow" else k - 2 * i
    if degree < 0 or (level < 0 and kind == "chow"):
        return None
    if level < 0 and kind == "lawson":
        level = 0
    return level, degree


def reference_sum(reads):
    """The direct sum of ``copies`` copies of each group, by plain arithmetic."""
    rank, torsion, formal = 0, [], []
    for group, copies in reads:
        rank += copies * group.free_rank
        torsion += list(group.torsion) * copies
        formal += list(group.formal) * copies
    return GroupDescriptor(rank, tuple(torsion), tuple(formal))


def reference_formula(kind, terms, p, k):
    """The sum at (p, k) over (table, shift, copies) terms of Lawson, Chow or Betti tables."""
    reads = []
    for table, i, copies in terms:
        at = shifted_index(kind, p, k, i)
        if at is not None:
            reads.append((table.groups.get(at, ZERO_GROUP), copies))
    return reference_sum(reads)


def bundle_window(kind, top):
    """The indices a bundle of complex dimension top holds: levels 0..top, degrees 0..2 top.

    Lawson keeps k >= 2p and Chow k = 0; Betti data takes every pair.
    """
    if kind == "lawson":
        return [(p, k) for p in range(top + 1) for k in range(2 * p, 2 * top + 1)]
    degrees = (0,) if kind == "chow" else range(2 * top + 1)
    return [(p, k) for p in range(top + 1) for k in degrees]


def decomposition_window(kind, top):
    """Valid outer indices up to top, with negative Deligne-Beilinson levels."""
    if kind == "db":
        return [(p, k) for p in range(-1, top + 1) for k in range(2 * top + 2)]
    return valid_indices(kind, top)


class TestShiftedReads:
    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(), kind=st.sampled_from(KINDS), d=st.integers(1, 3), r=st.integers(1, 4)
    )
    def test_bundle_table_matches_reference(self, data, kind, d, r):
        # Deligne-Beilinson data is refused whatever it holds.
        y = data.draw(tables(kind, d))
        total_dim = d + r - 1
        if kind == "db":
            with pytest.raises(ValueError, match=DB_BUNDLE):
                proj_bundle_table(y, r, total_dim, kind)
            return
        terms = [(y, j, 1) for j in range(r)]
        expected = {
            at: reference_formula(kind, terms, *at) for at in bundle_window(kind, total_dim)
        }
        table = proj_bundle_table(y, r, total_dim, kind)
        assert table.groups == {at: g for at, g in expected.items() if not g.is_zero}

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(), kind=st.sampled_from(KINDS), n=st.integers(1, 3), d=st.integers(1, 2)
    )
    def test_decomposition_matches_reference(self, data, kind, n, d):
        # A negative Deligne-Beilinson level is named as a formal summand.
        powers = {m: data.draw(tables(kind, m * d)) for m in range(1, n + 1)}
        space = SpaceDescriptor("X", d, kind, powers=powers)
        dec = multiplicity_table(n, d)
        for p, k in decomposition_window(kind, n * d + 1):
            reads = []
            for m, i, mult in dec.terms:
                at = shifted_index(kind, p or 0, k or 0, i)
                if at is None:
                    continue
                level, degree = at
                if level < 0:
                    power_name = "X" if m == 1 else f"X^{m}"
                    group = GroupDescriptor(formal=(f"H^{degree}_D({power_name}, Z({level}))",))
                else:
                    group = powers[m].groups.get(at, ZERO_GROUP)
                reads.append((group, mult))
            assert evaluate_decomposition(dec, space, p, k) == reference_sum(reads), (p, k)
