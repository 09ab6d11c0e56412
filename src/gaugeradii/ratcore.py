"""Exact rational scalars, vectors and small square systems.

Everything in this library is computed over arbitrary-precision rationals;
floating point never enters, because downstream predicates decide *equality*
cases of geometric inequalities and a single rounded bit would flip them.

The scalar type is ``fractions.Fraction``, always reduced with a positive
denominator; the simplex pivots on ints and uses it only for its inputs and
outputs.

Vectors are plain tuples of rationals; helpers below keep the arithmetic
readable without pulling in a matrix library that cannot do exact
rationals.  The one elimination is on ints: ``int_det`` is Bareiss'
fraction-free determinant, which the hull takes its face normals from, and
``solve_square`` solves a square rational system by Cramer's rule on it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as Rational
from typing import Iterable

RATIONAL_BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)

#: A vector is a tuple of Rational.
Vec = tuple

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class RationalParseError(ValueError):
    """A string is not an exact integer or fraction literal."""


def parse_rational(text: str) -> Rational:
    """Parse ``"p"`` or ``"p/q"``; decimal or exponent literals are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise RationalParseError(
            f"not an exact rational literal: {text!r} (use 'p' or 'p/q', no decimals)"
        )
    if "/" in s and s.split("/")[1].lstrip("0") == "":
        raise RationalParseError(f"zero denominator: {text!r}")
    return Rational(s.removeprefix("+"))


def rat(value) -> Rational:
    """Coerce an int, Fraction or exact string literal to Rational.

    Floats are refused outright: silently converting one would smuggle
    binary rounding into an exact computation.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass an int, Rational or 'p/q' string")
    if isinstance(value, Rational):  # already reduced; no copy
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Rational(value)


def rat_str(q) -> str:
    """Serialize a rational as ``"p"`` or ``"p/q"`` (no decimal forms)."""
    return str(q)


# ---------------------------------------------------------------------------
# vectors


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def vzero(dim: int) -> Vec:
    return (ZERO,) * dim


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec):
    total = ZERO
    for a, b in zip(u, v, strict=True):
        if a and b:
            total += a * b
    return total


def vcross(u: Vec, v: Vec) -> tuple:
    """The cross product of two vectors in three dimensions."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def is_zero_vec(u: Vec) -> bool:
    return all(not a for a in u)


# ---------------------------------------------------------------------------
# square systems on integers


def int_det(rows) -> int:
    """The determinant of a square int matrix by Bareiss' fraction-free
    elimination (Math. Comp. 22, 1968): every division is exact, so no entry
    leaves the ints."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        pivot, top = m[k][k], m[k][k + 1 :]
        for r in m[k + 1 :]:
            f = r[k]
            r[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(r[k + 1 :], top)]
        prev = pivot
    return sign * m[-1][-1]


def solve_square(matrix, rhs) -> Vec | None:
    """The unique solution x of the square system A x = b, or None when A is
    singular.  Each row of [A | b] is first cleared of its denominators
    (times their lcm), and x then follows by Cramer's rule on ``int_det``."""
    n = len(matrix)
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise ValueError("solve_square needs an n x n matrix and n right-hand sides")
    rows = []
    for row, b in zip(matrix, rhs):
        entries = [rat(x) for x in row] + [rat(b)]
        den = math.lcm(*(q.denominator for q in entries))
        rows.append([q.numerator * (den // q.denominator) for q in entries])
    a = [row[:n] for row in rows]
    d = int_det(a)
    if not d:
        return None
    return tuple(
        Rational(int_det([r[:j] + [row[n]] + r[j + 1 :] for r, row in zip(a, rows)]), d)
        for j in range(n)
    )
