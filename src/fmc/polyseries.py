"""Exact arithmetic for integer polynomials.

Polynomials are dense, with arbitrary-precision integer coefficients stored
low power first; the canonical form carries no trailing zero, and the zero
polynomial is the empty coefficient tuple.  ``format_poly`` writes a
polynomial as the command line prints it.

``IntPoly`` is a ``fmc.record.Record``, which enforces its immutability, and
all operations are pure functions, so values may be shared freely across
threads.
"""

from __future__ import annotations

from collections.abc import Iterable

from .record import Record


class IntPoly(Record):
    """Dense integer polynomial; ``coeffs[i]`` multiplies ``x**i``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = tuple(map(int, coeffs))
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        super().__init__(cs[:end])

    @property
    def degree(self) -> int:
        """Degree in canonical form; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __rmul__(self, other: int) -> "IntPoly":
        return self.__mul__(other)

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def is_palindromic(self, degree: int) -> bool:
        """True if the coefficients read the same both ways over 0..degree."""
        if degree < 0 or self.degree > degree:
            return False
        padded = self.coeffs + (0,) * (degree + 1 - len(self.coeffs))
        return padded == padded[::-1]

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        return format_poly(self)


ZERO = IntPoly()
ONE = IntPoly((1,))


def format_poly(p: IntPoly, var: str = "x") -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = var if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
