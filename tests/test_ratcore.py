"""Exact scalar arithmetic, parsing and small linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det, rank
from gaugeradii.ratcore import (
    RationalParseError,
    parse_rational,
    rat,
    rat_str,
    solve_linear,
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
    res = solve_linear([[1, 0], [0, 1]], ["1/3", "-7/2"])
    assert res.status == "unique"
    assert res.solution == (rat("1/3"), rat("-7/2"))


def test_solve_symmetric_system():
    res = solve_linear([[1, 1], [1, -1]], [1, 0])
    assert res.solution == (rat("1/2"), rat("1/2"))


def test_solve_singular_gives_kernel_witness():
    res = solve_linear([[1, 2], [2, 4]], [3, 6])
    assert res.status == "underdetermined"
    w = res.kernel_vector
    assert any(x != 0 for x in w)
    assert vdot([1, 2], w) == 0


def test_solve_inconsistent():
    assert solve_linear([[1, 2], [2, 4]], [3, 7]).status == "no_solution"


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1, 2])


small_ints = st.integers(min_value=-6, max_value=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3))
def test_solve_round_trip(matrix, x):
    if det(matrix) == 0:
        return
    b = [vdot(row, x) for row in matrix]
    res = solve_linear(matrix, b)
    assert res.status == "unique"
    assert res.solution == tuple(rat(v) for v in x)


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
