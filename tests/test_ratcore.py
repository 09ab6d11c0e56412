"""Exact scalar arithmetic, parsing and small linear algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det, rank, solve_linear
from gaugeradii.ratcore import (
    RationalParseError,
    int_det,
    parse_rational,
    rat,
    rat_str,
    solve_square,
    vdot,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).map(lambda f: rat(f))


def test_basic_arithmetic():
    assert rat("1/2") + rat("1/3") == rat("5/6")
    assert rat("3/6") == rat("1/2")
    assert rat("4/5") / rat("2/5") == 2
    assert rat_str(rat("3/6")) == "1/2"
    assert rat_str(rat(-4)) == "-4"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        rat(1) / rat(0)


@pytest.mark.parametrize("bad", ["2.5", "1e3", "nan", "inf", "1/0", "0x10", "1 / 2 / 3"])
def test_parser_rejects_non_exact_literals(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_parser_accepts_exact_literals():
    assert parse_rational(" -8/6 ") == rat("-4/3")
    assert parse_rational("+7") == 7


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.5)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if c != 0:
        assert (a / c) * c == a


def test_solve_identity():
    assert solve_square([[1, 0], [0, 1]], ["1/3", "-7/2"]) == (rat("1/3"), rat("-7/2"))
    assert solve_linear([[1, 0], [0, 1]], ["1/3", "-7/2"]) == (
        "unique", (rat("1/3"), rat("-7/2"))
    )


def test_solve_symmetric_system():
    assert solve_square([[1, 1], [1, -1]], [1, 0]) == (rat("1/2"), rat("1/2"))
    assert solve_square([["1/2", "1/3"], [2, "-3/4"]], ["1/6", 5]) == solve_linear(
        [["1/2", "1/3"], [2, "-3/4"]], ["1/6", 5]
    )[1]


def test_solve_singular_gives_kernel_witness():
    assert solve_square([[1, 2], [2, 4]], [3, 6]) is None
    status, w = solve_linear([[1, 2], [2, 4]], [3, 6])
    assert status == "underdetermined"
    assert any(x != 0 for x in w)
    assert vdot([1, 2], w) == 0


def test_solve_inconsistent():
    assert solve_square([[1, 2], [2, 4]], [3, 7]) is None
    assert solve_linear([[1, 2], [2, 4]], [3, 7]) == ("no_solution", None)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1, 2])


small_ints = st.integers(min_value=-6, max_value=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3))
def test_solve_round_trip(matrix, x):
    b = [vdot(row, x) for row in matrix]
    if det(matrix) == 0:
        assert solve_square(matrix, b) is None
        return
    assert solve_square(matrix, b) == tuple(rat(v) for v in x)


@st.composite
def square_systems(draw):
    """An n x n rational system, n from 1 to 4.  Some have a row that is a
    multiple of another, and their right-hand side is either consistent or
    a random vector, so both kinds of singular system occur."""
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        f = draw(entries)
        matrix[-1] = [f * q for q in matrix[0]]
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=n, max_size=n))
        rhs = [vdot(row, x) for row in matrix]
    else:
        rhs = draw(st.lists(entries, min_size=n, max_size=n))
    return matrix, rhs


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(square_systems())
def test_solve_square_matches_gauss_jordan_hypothesis(system):
    """Cramer's rule on Bareiss determinants gives the Gauss-Jordan solution
    of every unique system, and None for every singular one, consistent or
    not; ``int_det`` of the cleared matrix is zero exactly when ``det`` is."""
    matrix, rhs = system
    status, solution = solve_linear(matrix, rhs)
    assert solve_square(matrix, rhs) == (solution if status == "unique" else None)
    den = math.lcm(*(q.denominator for row in matrix for q in row))
    assert int_det([[int(q * den) for q in row] for row in matrix]) == det(matrix) * den ** len(matrix)


def test_int_det_values():
    assert int_det([[-3]]) == -3
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == det([[2, 0, 1], [1, 3, 2], [1, 1, 1]])
    assert int_det([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0


def test_det_values():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det([[1, 2], [1, 2]]) == 0
    assert det([[1, 2], [3, 4]]) == -2
    assert det([["1/2", 0], [5, "2/3"]]) == Fraction(1, 3)


def test_det_requires_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_rank():
    assert rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
