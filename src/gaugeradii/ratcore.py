"""Exact rational scalars, vectors and small dense linear algebra.

Everything in this library is computed over arbitrary-precision rationals;
floating point never enters, because downstream predicates decide *equality*
cases of geometric inequalities and a single rounded bit would flip them.

The scalar type is ``fractions.Fraction``, always reduced with a positive
denominator; the simplex pivots on ints and uses it only for its inputs and
outputs.

Vectors are plain tuples of rationals and matrices tuples of row tuples;
helpers below keep the arithmetic readable without pulling in a matrix
library that cannot do exact rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rational
from typing import Iterable, Sequence

RATIONAL_BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)

#: A vector is a tuple of Rational; a matrix is a tuple of equal-length rows.
Vec = tuple
Mat = tuple

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
# linear systems


class LinearSystemResult:
    """Outcome of solving A x = b exactly.

    ``status`` is one of ``"unique"``, ``"no_solution"``, ``"underdetermined"``.
    For a unique system ``solution`` holds x; for a consistent underdetermined
    one ``kernel_vector`` holds a nonzero null-space witness of A.
    """

    __slots__ = ("status", "solution", "kernel_vector")

    def __init__(self, status: str, solution: Vec | None = None, kernel_vector: Vec | None = None):
        self.status = status
        self.solution = solution
        self.kernel_vector = kernel_vector

    def __repr__(self) -> str:
        return f"LinearSystemResult({self.status})"


def _echelon(rows: list[list]) -> list[tuple[int, int]]:
    """In-place fraction Gauss-Jordan; returns (row, col) pivot positions.

    Plain elimination with first-nonzero pivoting is enough at the matrix
    sizes this library sees (single digits); canonical rationals keep the
    arithmetic exact regardless of pivot choice.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [a - f * p for a, p in zip(rows[i], prow)]
        pivots.append((r, c))
        r += 1
    return pivots


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> LinearSystemResult:
    """Solve A x = b exactly, classifying the system when x is not unique."""
    m = len(matrix)
    if m != len(rhs):
        raise ValueError(f"matrix has {m} rows but rhs has {len(rhs)} entries")
    ncols = len(matrix[0]) if m else 0
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    aug = [[rat(x) for x in row] + [rat(b)] for row, b in zip(matrix, rhs)]
    pivots = _echelon(aug)
    pivot_cols = {c for _, c in pivots if c < ncols}
    for r, c in pivots:
        if c == ncols:  # pivot in the rhs column: 0 = nonzero
            return LinearSystemResult("no_solution")
    if len(pivot_cols) < ncols:
        free = next(c for c in range(ncols) if c not in pivot_cols)
        witness = [ZERO] * ncols
        witness[free] = ONE
        for r, c in pivots:
            witness[c] = -aug[r][free]
        return LinearSystemResult("underdetermined", kernel_vector=tuple(witness))
    x = [ZERO] * ncols
    for r, c in pivots:
        x[c] = aug[r][ncols]
    return LinearSystemResult("unique", solution=tuple(x))

