import copy
import pickle
from math import comb

import pytest
from hypothesis import given, strategies as st

from fmc.polyseries import IntPoly, ONE, ZERO

X = IntPoly((0, 1))


# Series are tuples (h_0, ..., h_r) of polynomials and stand for
# sum h_i t^i / i!.  The schoolbook series and division routines below are
# local references: the package runs its identity routes on integers.


def monomial(exponent):
    """The polynomial ``x**exponent``."""
    return IntPoly((0,) * exponent + (1,))


def divexact(num, divisor):
    """Exact polynomial quotient; raises ValueError on any remainder."""
    if num.is_zero:
        return ZERO
    dd = divisor.degree
    lead = divisor.coeffs[-1]
    qd = num.degree - dd
    if qd < 0:
        raise ValueError("inexact polynomial division")
    rem = list(num.coeffs)
    quot = [0] * (qd + 1)
    for i in range(qd, -1, -1):
        f, r = divmod(rem[i + dd], lead)
        if r:
            raise ValueError("inexact polynomial division")
        quot[i] = f
        for j, dc in enumerate(divisor.coeffs):
            rem[i + j] -= f * dc
    if any(rem):
        raise ValueError("inexact polynomial division")
    return IntPoly(quot)


def egf_exp(a):
    """Exponential of a series with ``a_0 = 0``, to the same order.

    Division-free: ``e_0 = 1``, ``e_n = sum_k C(n-1, k-1) a_k e_{n-k}``.
    """
    if a[0]:
        raise ValueError("exp requires a zero constant term")
    out = [ONE]
    for n in range(1, len(a)):
        acc = ZERO
        for k in range(1, n + 1):
            if not a[k].is_zero:
                acc = acc + a[k] * out[n - k] * comb(n - 1, k - 1)
        out.append(acc)
    return tuple(out)


def egf_unit(order):
    """The multiplicative identity: h_0 = 1, all other coefficients zero."""
    return (ONE,) + (ZERO,) * order


def egf_term(n, value, order):
    """The series whose only nonzero coefficient is ``h_n = value``."""
    return tuple(value if i == n else ZERO for i in range(order + 1))


def egf_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def egf_scale(a, q):
    return tuple(c * q for c in a)


def egf_mul(a, b):
    """Binomial-convolution product of two series of the same order."""
    out = []
    for n in range(len(a)):
        acc = ZERO
        for k in range(n + 1):
            ak = a[k]
            bk = b[n - k]
            if ak.is_zero or bk.is_zero:
                continue
            acc = acc + ak * bk * comb(n, k)
        out.append(acc)
    return tuple(out)


ORDER = 5

small_polys = st.lists(st.integers(-9, 9), max_size=5).map(IntPoly)
small_egfs = st.lists(small_polys, min_size=ORDER + 1, max_size=ORDER + 1).map(tuple)
zero_const_egfs = st.lists(small_polys, min_size=ORDER, max_size=ORDER).map(
    lambda cs: (ZERO, *cs)
)


def count_perfect_matchings(points: int) -> int:
    """Independent brute force: enumerate all pairings of labeled points."""

    def pairings(labels):
        if not labels:
            yield ()
            return
        first, rest = labels[0], labels[1:]
        for idx, partner in enumerate(rest):
            remaining = rest[:idx] + rest[idx + 1 :]
            for tail in pairings(remaining):
                yield ((first, partner),) + tail

    if points % 2:
        return 0
    return sum(1 for _ in pairings(tuple(range(points))))


class TestIntPoly:
    def test_canonical_form_strips_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()
        assert IntPoly().degree == -1

    def test_difference_of_squares(self):
        assert (ONE + X) * (ONE - X) == IntPoly([1, 0, -1])

    def test_zero_annihilates(self):
        p = IntPoly([3, -1, 2])
        assert p * ZERO == ZERO

    def test_square_of_x_plus_x2(self):
        p = IntPoly([0, 1, 1])
        assert p * p == IntPoly([0, 0, 1, 2, 1])

    def test_evaluation(self):
        p = IntPoly([1, 3, 4, 3, 1])
        assert p(1) == 12
        assert p(-1) == 0

    def test_divexact(self):
        num = (ONE - X) * IntPoly([0, 0, 1])  # x^2 - x^3
        assert divexact(num, ONE - X) == IntPoly([0, 0, 1])
        with pytest.raises(ValueError):
            divexact(X + ONE, IntPoly([0, 0, 1]))

    def test_palindromic(self):
        assert IntPoly([1, 3, 4, 3, 1]).is_palindromic(4)
        assert not IntPoly([1, 2]).is_palindromic(4)
        assert IntPoly([1, 0, 1]).is_palindromic(2)

    def test_monomial_and_shift(self):
        assert 2 * monomial(3) == IntPoly([0, 0, 0, 2])
        assert IntPoly([1, 1]) * monomial(2) == IntPoly([0, 0, 1, 1])

    def test_record_contract(self):
        # An immutable value: the shared ONE survives a refused assignment,
        # equal polynomials hash equal, and copies rebuild through __init__.
        with pytest.raises(AttributeError):
            ONE.coeffs = (5,)
        assert ONE == IntPoly([1]) and ONE.coeffs == (1,)
        p = IntPoly([1, 2])
        for field in ("coeffs", "extra"):
            with pytest.raises(AttributeError):
                setattr(p, field, (3,))
        with pytest.raises(AttributeError):
            del p.coeffs
        assert p.coeffs == (1, 2)
        assert p == IntPoly((1, 2, 0)) and hash(p) == hash(IntPoly((1, 2, 0)))
        assert p != (1, 2)
        assert repr(p) == "IntPoly([1, 2])"
        assert copy.deepcopy(p) == p == pickle.loads(pickle.dumps(p))
        assert pickle.loads(pickle.dumps(ZERO)) == ZERO

    @given(a=small_polys, b=small_polys, c=small_polys)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestEGF:
    def test_t_times_t(self):
        t = egf_term(1, ONE, 4)
        assert egf_mul(t, t)[2] == IntPoly([2])

    def test_unit_is_identity(self):
        e = (ZERO, ONE, IntPoly([0, 1]), IntPoly([5]))
        assert egf_mul(egf_unit(3), e) == e

    def test_binomial_cross_term(self):
        e = egf_term(1, X, 4)
        assert egf_mul(e, e)[2] == IntPoly([0, 0, 2])

    def test_exp_of_t(self):
        series = egf_exp(egf_term(1, ONE, 6))
        assert series == (ONE,) * 7

    def test_exp_of_2t(self):
        series = egf_exp(egf_term(1, IntPoly([2]), 6))
        assert series == tuple(IntPoly([2**i]) for i in range(7))

    def test_exp_counts_perfect_matchings(self):
        # exp(t^2/2!) counts the ways to pair up labeled points.
        series = egf_exp(egf_term(2, ONE, 8))
        assert len(series) == 9
        for points in range(9):
            assert series[points] == IntPoly([count_perfect_matchings(points)])

    def test_exp_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            egf_exp(egf_unit(3))

    @given(a=small_egfs, b=small_egfs, c=small_egfs)
    def test_ring_laws(self, a, b, c):
        assert egf_mul(a, b) == egf_mul(b, a)
        assert egf_mul(egf_mul(a, b), c) == egf_mul(a, egf_mul(b, c))
        assert egf_mul(a, egf_add(b, c)) == egf_add(egf_mul(a, b), egf_mul(a, c))

    @given(a=zero_const_egfs, b=zero_const_egfs)
    def test_exp_is_additive_to_multiplicative(self, a, b):
        assert egf_exp(egf_add(a, b)) == egf_mul(egf_exp(a), egf_exp(b))

    @given(a=small_egfs, b=small_egfs, q=small_polys)
    def test_scalar_poly_commutes_with_product(self, a, b, q):
        assert egf_scale(egf_mul(a, b), q) == egf_mul(egf_scale(a, q), b)
