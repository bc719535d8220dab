"""Multiplicity polynomials of configuration-space compactifications.

For a smooth base of dimension ``d``, the connected multiplicity polynomial
``h_n(x)`` collects one monomial ``x^w`` for every single-component nest on
n labels together with an admissible weight vector of total weight w.  It
obeys the recurrence over set partitions of {1..n}

    h_1 = 1,    h_n = sum over partitions {I_1..I_k}, k >= 2:
                         h_|I_1| * ... * h_|I_k| * sigma_{k-1}

with ``sigma_k = x + x^2 + ... + x^(d*k-1)`` for k > 0 and ``sigma_0 = 0``.
Summing the products over all partitions into exactly k blocks gives the
partial Bell polynomial ``B_{n,k} = B_{n,k}(h_1, h_2, ...)``, so

    h_n = sum_{k>=2} sigma_{k-1} * B_{n,k}.

The kernel fills one triangle per ``(n, d)`` with the division-free rule
(the block holding label 1 has j labels)

    B_{0,0} = 1,    B_{n,k} = sum_j C(n-1, j-1) * h_j * B_{n-j,k-1},

which needs only ``h_j`` with j < n for k >= 2; then ``B_{n,1} = h_n``.

It runs that rule on plain integers.  Every ``h_j``, ``sigma_k`` and
binomial has nonnegative coefficients, so the pass at ``x = 1`` gives each
entry's coefficient sum, which bounds each of its coefficients; the largest
sum among the kept entries (the column ``h_1 .. h_n`` and row n) fixes a
slot width of w bytes.  The next passes pack every polynomial P into big
integers (Kronecker substitution), so CPython's big-integer products do the
polynomial products.  From w = 11 bytes on they run at ``x = X`` and
``x = -X``, ``X = 2^(4w)``, on integers half the size of one pass at
``2^(8w)`` (Kronecker substitution at two points, after D. Harvey, *Faster
polynomial multiplication via multipoint Kronecker substitution*, 2009).
Evaluation at -X is a ring map from Z[x] to Z, so both passes are exact:
the even coefficients of P are the w-byte digits of ``(P(X) + P(-X)) / 2``,
and the odd ones those of ``(P(X) - P(-X)) / 2^(4w+1)``.  Below 11 bytes
the integers are too small for the halving to pay for a third pass, and
one pass at ``x = 2^(8w)`` packs P as its w-byte digits.  The digits of
every part together must have the sum of the entry's ``x = 1`` value: a
carry out of a slot of any part lowers the digit sum, so a width too narrow
raises ``ArithmeticError`` instead of giving a wrong polynomial.  Every
entry is unpacked and checked at once, printed or not, and the kernel keeps
the polynomials of each ``(n, d)``: ``h_recurrence`` reads h_n,
``multiplicity_table`` row n and ``recurrence_egf`` the column.  One
routine, ``_packed``, runs the integer passes of the kernel and the solver,
and also of the brute-force nest sums (``fmc.nests``) and the Poincare
polynomial of X[n] (``fmc.theory``): each has nonnegative coefficients, so
its value at 1 bounds them.  The kernel and the solver check their budget
before packing; the other two have none.

The exponential generating function ``N(x,t) = sum h_n t^n / n!`` is pinned
down by the functional identity

    exp(x^d N) - x^(d+1) exp(N) = (1-x) x^d t + (1 - x^(d+1)),

which an independent solver unwinds order by order in t: at order n the
unknown ``h_n`` enters with the factor ``x^d (1-x)``, so one exact
division isolates it.  It runs through ``_packed`` too, the first pass at
``x = 2``; the division stays exact, and checked, at ``x = -X`` too.  Each
``h_n`` is x times a palindromic polynomial of degree ``d(n-1) - 2``
(checked over the whole kernel budget), so each coefficient's value also
stands at some ``x^j`` with ``j >= ceil(d(n-1)/2)`` and is at most
``h_n(2) >> ceil(d(n-1)/2)``.  The largest such bound fixes the slot width
without reading the kernel.  The digits of each unpacked ``h_n`` must still
have the value ``h_n(2)``, which a carry out of a slot of any part
lowers too, so a bound too tight raises ``ArithmeticError`` instead of
giving a wrong polynomial.  The residual check uses no packing code: it
evaluates the identity once, at a power of 2 above twice a bound on every
residual coefficient, where it vanishes iff the residual does.

Finally, the multiplicity table ``a_{m,i}`` reads off how many i-shifted
copies of the m-th cartesian power occur in the decomposition.  It equals
``[x^i] ([t^n/n!] N^m) / m!``, which is exactly ``[x^i] B_{n,m}``: row n of
the triangle, with no division.  ``multiplicity_table`` hands that row to
the ``FormalDecomposition`` as it stands.

Kernel and solver calls are bounded by ``KERNEL_BUDGET``, which also caps d
itself (at n = 1 the degree d*(n-1) is 0); larger calls raise
``BudgetError`` instead of running for minutes.  Only ``_check_dim`` refuses
d < 1 and only ``_check_size`` n < 1; other functions call them or the kernel.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import comb

from . import BudgetError
from .polyseries import ZERO, IntPoly
from .record import Record

#: Largest kernel call, as (labels n, top degree d*(n-1)); d alone is held
#: to the second limit too.  The packed triangle at n = 40, d = 4 takes
#: about 0.4 s.
KERNEL_BUDGET = (40, 160)

# The narrowest slot width, in bytes, at which _packed splits its packing
# into two half-width passes.  Below it the integers are too small for the
# halving to pay for a third pass.  In process, on the kernel ops of the
# benchmark, the split slowed those of 8 to 10 bytes (the Betti Poincare
# ops by 13-19 %, mult (16, 3) by 18 %, egf --verify (18, 2) by 3 %), was
# about even at 11 (mult (16, 4) 8 % faster, egf --verify (19, 2) 4 %
# slower) and won from 12 on (h-poly (24, 3) by 33 %).  Every table of
# verify --max-n 6 --max-d 3 packs at 1 to 3 bytes.
_SPLIT_WIDTH = 11


def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError("dimension must be >= 1")


def sigma(k: int, d: int) -> IntPoly:
    """Weight polynomial of one internal node with ``k+1`` sons.

    ``sigma(0, d) = 0`` and ``sigma(k, d) = x + x^2 + ... + x^(d*k-1)``,
    which is the zero polynomial when ``d*k - 1 < 1``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_dim(d)
    if k == 0 or d * k - 1 < 1:
        return ZERO
    return IntPoly((0,) + (1,) * (d * k - 1))


def _fill(n: int, d: int, x: int) -> list[int]:
    # The triangle at the point x, entry [m][k] = B_{m,k}(x) for m = 0..n;
    # returns the entries the kernel keeps: h_1 .. h_n, then row n.  Each
    # h_m = sum_k sigma_{k-1} B_{m,k} is summed by Horner's rule in y = x^d
    # over the tails t_k = B_{m,k} + ... + B_{m,m}:
    # h_m = (1 + x + ... + x^(d-1)) (t_2 + y t_3 + y^2 t_4 + ...) - t_2,
    # since sigma_{k-1} = (1 + x + ... + x^(d-1)) (1 + y + ... + y^(k-2)) - 1,
    # so each step multiplies by the short y instead of by a sigma.
    y = x**d
    span = sum(x**i for i in range(d))
    rows = [[1]]
    for m in range(1, n + 1):
        hs = [0] + [rows[j][1] * comb(m - 1, j - 1) for j in range(1, m)]
        row = [0, 0]
        for k in range(2, m + 1):
            total = 0
            for j in range(1, m - k + 2):
                total += hs[j] * rows[m - j][k - 1]
            row.append(total)
        horner = tail = 0
        for total in reversed(row[2:]):
            tail += total
            horner = horner * y + tail
        row[1] = 1 if m == 1 else span * horner - tail
        rows.append(row)
    return [rows[m][1] for m in range(1, n + 1)] + rows[n]


def _check_size(n: int, d: int) -> None:
    # The one size check of the kernel and the solver.
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_dim(d)
    max_n, max_degree = KERNEL_BUDGET
    if n > max_n or d * max(n - 1, 1) > max_degree:
        raise BudgetError(
            f"kernel budget exceeded: n={n}, d={d}, d*(n-1)={d * (n - 1)} "
            f"(limits n <= {max_n}, d <= {max_degree}, d*(n-1) <= {max_degree})"
        )


def _digits(value: int, w: int) -> list[int]:
    # The digits of value >= 0 in base 2^(8w), low first.
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]


def _unpack(parts: tuple[int, ...], w: int, expected: int, at: int = 1) -> IntPoly:
    # The polynomial whose coefficients are the digits of its parts,
    # interleaved: coefficient i is a digit of parts[i % len(parts)].  A
    # carry out of a slot of any part lowers the digits' value at the point
    # at (1 or 2) below the expected one, so the check refuses every width
    # too narrow for the coefficients.
    digits = [_digits(part, w) for part in parts]
    stride = len(parts)
    coeffs = [0] * (stride * max(map(len, digits)))
    for i, row in enumerate(digits):
        coeffs[i:stride * len(row):stride] = row
    poly = IntPoly(coeffs)
    if (sum(map(sum, digits)) if at == 1 else poly(at)) != expected:
        raise ArithmeticError(f"packed entry overflows its {w}-byte slots")
    return poly


def _packed(
    run: Callable[[int], list[int]], at: int, top: Callable[[list[int]], int] = max
) -> tuple[IntPoly, ...]:
    # The integer passes of the kernel, the solver, the brute nest sums and
    # the Poincare polynomial: run(at) gives each polynomial's value at the
    # point at (1 or 2), and top(values) bounds every coefficient and fixes
    # the slot width w (one byte at least, for polynomials that are all
    # zero).  From _SPLIT_WIDTH bytes on, run(X) and run(-X), X = 2^(4w),
    # pack each polynomial P into two integers of half the width of one pass
    # at 2^(8w): (P(X) + P(-X)) / 2 holds its even coefficients and
    # (P(X) - P(-X)) / 2^(4w+1) its odd ones.  Below it, run(2^(8w)) packs P
    # into one integer.  Every polynomial is unpacked and checked against
    # its value at at.  Callers check their own budgets.
    bounds = run(at)
    w = max((top(bounds).bit_length() + 7) // 8, 1)
    if w < _SPLIT_WIDTH:
        parts = [(value,) for value in run(1 << (8 * w))]
    else:
        x = 1 << (4 * w)
        parts = [((p + m) >> 1, (p - m) >> (4 * w + 1)) for p, m in zip(run(x), run(-x))]
    return tuple(_unpack(part, w, bound, at) for part, bound in zip(parts, bounds))


@lru_cache(maxsize=None)
def _triangle(n: int, d: int) -> tuple[IntPoly, ...]:
    # Kernel entries h_1, ..., h_n, then B_{n,0}, ..., B_{n,n}, kept for
    # each (n, d).
    _check_size(n, d)
    return _packed(lambda x: _fill(n, d, x), 1)


def h_recurrence(n: int, d: int) -> IntPoly:
    """The polynomial ``h_n = B_{n,1}`` from the partial-Bell triangle."""
    return _triangle(n, d)[n - 1]


def recurrence_egf(n_max: int, d: int) -> tuple[IntPoly, ...]:
    """The series ``N`` as its coefficients ``(0, h_1, ..., h_n_max)``."""
    return (ZERO,) + _triangle(n_max, d)[:n_max]


def _exp_at(a: list[int]) -> list[int]:
    # Coefficients of exp(sum a_n t^n / n!) for a_0 = 0, to the same order,
    # by the division-free recurrence e_n = sum_k C(n-1, k-1) a_k e_{n-k}.
    e = [1]
    for n in range(1, len(a)):
        e.append(sum(comb(n - 1, k - 1) * a[k] * e[n - k] for k in range(1, n + 1) if a[k]))
    return e


def _solve_at(n_max: int, d: int, x: int) -> list[int]:
    # The order-by-order solve at an integer point x other than 0 and 1:
    # [0, h_1(x), ..., h_n_max(x)], each h_n(x) an exact quotient by x^d (1-x).
    xd = x**d
    xd1 = xd * x
    lead = xd - xd1
    h = [0]
    exp_top = [1]  # exp(x^d N) at x
    exp_low = [1]  # exp(N) at x
    for n in range(1, n_max + 1):
        low_top = low_low = 0
        for k in range(1, n):
            if h[k]:
                c = comb(n - 1, k - 1) * h[k]
                low_top += c * exp_top[n - k]
                low_low += c * exp_low[n - k]
        low_top *= xd
        hn, rem = divmod((lead if n == 1 else 0) - low_top + low_low * xd1, lead)
        if rem:
            raise ArithmeticError(f"identity solve failed at order {n}: division not exact")
        h.append(hn)
        exp_top.append(low_top + hn * xd)
        exp_low.append(low_low + hn)
    return h


def egf_solve(n_max: int, d: int) -> tuple[IntPoly, ...]:
    """Solve the functional identity for ``N`` order by order in t.

    Returns ``(0, h_1, ..., h_n_max)``.  Independent of the partial-Bell
    triangle: the two constructions agree coefficientwise, which the
    verification suite asserts.
    """
    def top(values: list[int]) -> int:
        # values[m] = h_m(2), and h_m(2) >> ceil(d(m-1)/2) bounds the
        # coefficients of h_m (see the module docstring).
        return max(h >> (d * m + 1) // 2 for m, h in enumerate(values[1:]))

    _check_size(n_max, d)
    return _packed(lambda x: _solve_at(n_max, d, x), 2, top)


def verify_identity(series: tuple[IntPoly, ...], d: int) -> bool:
    """Whether a candidate series ``(0, h_1, ...)`` satisfies the functional identity.

    True iff ``exp(x^d N) - x^(d+1) exp(N) = (1-x) x^d t + (1 - x^(d+1))``
    holds to the order of ``series``.  The candidate's coefficients may have
    any sign.
    """
    _check_dim(d)
    if series[0]:
        raise ValueError("series must have zero constant term")
    # No residual coefficient exceeds 2 e_n + 1 < 2^(s-1), e the exponential
    # of the absolute coefficient sums, so it is zero iff its value at 2^s is.
    bound = 2 * max(_exp_at([sum(map(abs, h.coeffs)) for h in series])) + 1
    x = 1 << (bound.bit_length() + 1)
    xd = x**d
    xd1 = xd * x
    values = [h(x) for h in series]
    residual = [a - b * xd1 for a, b in zip(_exp_at([v * xd for v in values]), _exp_at(values))]
    residual[0] -= 1 - xd1
    if len(residual) > 1:
        residual[1] -= xd - xd1
    return not any(residual)


class FormalDecomposition(Record):
    """X[n] as a formal sum of shifted powers of X.

    ``rows[m - 1]`` is the polynomial ``sum_i a_{m,i} x^i``: the copies of
    the m-th power, by shift i, for m = 1..n.
    """

    __slots__ = ("n", "d", "rows")

    def __init__(self, n: int, d: int, rows: tuple[IntPoly, ...]) -> None:
        self._set(n=n, d=d, rows=rows)

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """``(m, shift, a_{m,shift})`` with m descending, shift ascending, a > 0."""
        return tuple(
            (m, i, a)
            for m in range(self.n, 0, -1)
            for i, a in enumerate(self.rows[m - 1].coeffs)
            if a
        )

    def row_poly(self, m: int) -> IntPoly:
        """The polynomial ``sum_i a_{m,i} x^i`` for a fixed power m."""
        return self.rows[m - 1] if 1 <= m <= self.n else ZERO

    def value(self, m: int, i: int) -> int:
        return self.row_poly(m).coefficient(i)


def multiplicity_table(n: int, d: int) -> FormalDecomposition:
    """All ``a_{m,i}``: row m of the table is the partial Bell polynomial ``B_{n,m}``."""
    return FormalDecomposition(n=n, d=d, rows=_triangle(n, d)[n + 1:])
