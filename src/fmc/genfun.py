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

The kernel keeps one triangle of partial Bell polynomials per ``d``, filled
row by row with the division-free rule (the block holding label 1 has j
labels)

    B_{0,0} = 1,    B_{n,k} = sum_j C(n-1, j-1) * h_j * B_{n-j,k-1},

which needs only ``h_j`` with j < n for k >= 2; then ``B_{n,1} = h_n``.

The exponential generating function ``N(x,t) = sum h_n t^n / n!`` is pinned
down by the functional identity

    exp(x^d N) - x^(d+1) exp(N) = (1-x) x^d t + (1 - x^(d+1)),

which an independent solver unwinds order by order in t: at order n the
unknown ``h_n`` enters with the factor ``x^d (1-x)``, so one exact
polynomial division isolates it.

Finally, the multiplicity table ``a_{m,i}`` reads off how many i-shifted
copies of the m-th cartesian power occur in the decomposition.  It equals
``[x^i] ([t^n/n!] N^m) / m!``, which is exactly ``[x^i] B_{n,m}``: row n of
the triangle, with no division.

Kernel calls are bounded by ``KERNEL_BUDGET``; larger calls raise
``BudgetError`` instead of running for minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .polyseries import (
    EGF,
    ONE,
    ZERO,
    IntPoly,
    binomial,
    egf_exp,
    egf_term,
    monomial,
)

#: Largest kernel call, as (labels n, top degree d*(n-1)); the triangle's
#: cost grows about as n^3 * (d*(n-1))^2, and (40, 160) runs in seconds.
KERNEL_BUDGET = (40, 160)


class BudgetError(ValueError):
    """Raised when a computation would exceed its configured budget."""


def sigma(k: int, d: int) -> IntPoly:
    """Weight polynomial of one internal node with ``k+1`` sons.

    ``sigma(0, d) = 0`` and ``sigma(k, d) = x + x^2 + ... + x^(d*k-1)``,
    which is the zero polynomial when ``d*k - 1 < 1``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if k == 0 or d * k - 1 < 1:
        return ZERO
    return IntPoly((0,) + (1,) * (d * k - 1))


@lru_cache(maxsize=None)
def _bell_row(n: int, d: int) -> tuple[IntPoly, ...]:
    # Row n of the triangle: (B_{n,0}, ..., B_{n,n}); reads only rows < n.
    if n == 0:
        return (ONE,)
    rows = [_bell_row(m, d) for m in range(n)]
    hs = [ZERO] + [rows[j][1] * binomial(n - 1, j - 1) for j in range(1, n)]
    row = [ZERO, ZERO]
    h_n = ZERO
    for k in range(2, n + 1):
        total = ZERO
        for j in range(1, n - k + 2):
            if not hs[j].is_zero:
                total = total + hs[j] * rows[n - j][k - 1]
        row.append(total)
        h_n = h_n + sigma(k - 1, d) * total
    row[1] = ONE if n == 1 else h_n
    return tuple(row)


def _triangle_row(n: int, d: int) -> tuple[IntPoly, ...]:
    # Kernel entry: validate and budget a call, then read row n.
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    max_n, max_degree = KERNEL_BUDGET
    if n > max_n or d * (n - 1) > max_degree:
        raise BudgetError(
            f"kernel budget exceeded: n={n}, d*(n-1)={d * (n - 1)} "
            f"(limits n <= {max_n}, d*(n-1) <= {max_degree})"
        )
    return _bell_row(n, d)


def h_recurrence(n: int, d: int) -> IntPoly:
    """The polynomial ``h_n = B_{n,1}`` from the partial-Bell triangle."""
    return _triangle_row(n, d)[1]


def recurrence_egf(n_max: int, d: int) -> EGF:
    """The series ``N`` with coefficients ``0, h_1, ..., h_n_max``."""
    _triangle_row(n_max, d)  # validates, budgets and fills rows 1..n_max
    return EGF([ZERO] + [_bell_row(n, d)[1] for n in range(1, n_max + 1)], n_max)


def egf_solve(n_max: int, d: int) -> EGF:
    """Solve the functional identity for ``N`` order by order in t.

    Independent of the partition recurrence: the two constructions agree
    coefficientwise, which the verification suite asserts.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    xd = monomial(d)
    xd1 = monomial(d + 1)
    lead = xd - xd1  # x^d (1 - x), the factor multiplying the unknown h_n
    rhs_1 = xd - xd1  # coefficient of t in (1-x) x^d t

    h: list[IntPoly] = [ZERO]
    exp_top: list[IntPoly] = [ONE]  # coefficients of exp(x^d N)
    exp_low: list[IntPoly] = [ONE]  # coefficients of exp(N)
    for n in range(1, n_max + 1):
        low_top = ZERO
        low_low = ZERO
        for k in range(1, n):
            c = binomial(n - 1, k - 1)
            if h[k].is_zero:
                continue
            low_top = low_top + (h[k] * xd) * exp_top[n - k] * c
            low_low = low_low + h[k] * exp_low[n - k] * c
        rhs = rhs_1 if n == 1 else ZERO
        residual = rhs - (low_top - low_low * xd1)
        try:
            hn = residual.divexact(lead)
        except ValueError as exc:
            raise ArithmeticError(
                f"identity solve failed at order {n}: division not exact"
            ) from exc
        h.append(hn)
        exp_top.append(low_top + hn * xd)
        exp_low.append(low_low + hn)
    return EGF(h, n_max)


def verify_identity(series: EGF, d: int) -> EGF:
    """Residual of the functional identity for a candidate series.

    Returns ``exp(x^d N) - x^(d+1) exp(N) - (1-x) x^d t - (1 - x^(d+1))``
    truncated at the order of ``series``; the zero series iff the identity
    holds to that order.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not series.coefficient(0).is_zero:
        raise ValueError("series must have zero constant term")
    order = series.order
    xd = monomial(d)
    xd1 = monomial(d + 1)
    lhs = egf_exp(series.scale(xd)) - egf_exp(series).scale(xd1)
    rhs = egf_term(0, ONE - xd1, order)
    if order >= 1:
        rhs = rhs + egf_term(1, xd - xd1, order)
    return lhs - rhs


@dataclass(frozen=True)
class MultiplicityTable:
    """Nonzero multiplicities ``a_{m,i}`` of the i-shifted m-th power."""

    n: int
    d: int
    entries: dict[tuple[int, int], int]

    def value(self, m: int, i: int) -> int:
        return self.entries.get((m, i), 0)

    def row_poly(self, m: int) -> IntPoly:
        """The polynomial ``sum_i a_{m,i} x^i`` for a fixed power m."""
        if not 1 <= m <= self.n:
            return ZERO
        top = max((i for (mm, i) in self.entries if mm == m), default=-1)
        return IntPoly(self.value(m, i) for i in range(top + 1))

    def terms(self) -> list[tuple[int, int, int]]:
        """Nonzero ``(m, i, a_{m,i})`` in canonical order: m desc, i asc."""
        return sorted(
            ((m, i, a) for (m, i), a in self.entries.items()),
            key=lambda t: (-t[0], t[1]),
        )

    def total(self) -> int:
        return sum(self.entries.values())


def multiplicity_table(n: int, d: int) -> MultiplicityTable:
    """All ``a_{m,i}``: row m of the table is the partial Bell polynomial ``B_{n,m}``."""
    row = _triangle_row(n, d)
    entries: dict[tuple[int, int], int] = {}
    for m in range(1, n + 1):
        for i, a in enumerate(row[m].coeffs):
            if a < 0:
                raise ArithmeticError("negative multiplicity")
            if a:
                entries[(m, i)] = a
    return MultiplicityTable(n=n, d=d, entries=entries)
