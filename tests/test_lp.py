"""The exact simplex engine: statuses, certificates, and the randomized
verification sweep (every optimal outcome rechecked, every infeasibility
certified by a Farkas ray)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_simplex
from gaugeradii import kernel, lp
from gaugeradii.constructions import SplitMix64
from gaugeradii.ratcore import Rational, rat


def dense_program(objective, lhs, rhs, free) -> lp.LinearProgram:
    """The program with these dense rational data, built through
    ``ProgramBuilder``, the one way a rational row becomes an int row."""
    builder = lp.ProgramBuilder()
    for c, is_free in zip(objective, free, strict=True):
        builder.add_var(c, is_free)
    for row, b in zip(lhs, rhs, strict=True):
        builder.add_row({j: a for j, a in enumerate(row) if a}, b)
    return builder.build()


def make_lp(objective, rows, rhs, free=None):
    n = len(objective)
    return dense_program(
        [rat(c) for c in objective],
        [[rat(a) for a in row] for row in rows],
        [rat(b) for b in rhs],
        tuple(free) if free else (False,) * n,
    )


def test_simple_optimal():
    out = lp.solve(make_lp([1], [[1]], [1]))
    assert out.status == lp.OPTIMAL
    assert out.primal == (1,)
    assert out.value == 1
    assert lp.verify_outcome(make_lp([1], [[1]], [1]), out)


def test_infeasible_with_farkas():
    program = make_lp([0], [[1]], [-1])
    out = lp.solve(program)
    assert out.status == lp.INFEASIBLE
    assert out.farkas is not None
    assert lp.verify_farkas(program, out.farkas)


def test_unbounded():
    out = lp.solve(make_lp([-1, 0], [[1, -1]], [0]))
    assert out.status == lp.UNBOUNDED
    assert out.primal is None


def test_free_variables():
    # maximize x with x free and x + y = -5, y >= 0: optimum at y = 0, x = -5
    program = make_lp([-1, 0], [[1, 1]], [-5], free=(True, False))
    out = lp.solve(program)
    assert out.status == lp.OPTIMAL
    assert out.primal == (-5, 0)
    assert out.value == 5
    assert lp.verify_outcome(program, out)


def test_degenerate_redundant_rows():
    # duplicated constraint: solver must survive and certify normally
    program = make_lp([1, 1], [[1, 1], [1, 1], [1, 0]], [2, 2, 1])
    out = lp.solve(program)
    assert out.status == lp.OPTIMAL
    assert lp.verify_outcome(program, out)


def test_verifier_rejects_perturbed_primal():
    program = make_lp(["1/2", 2], [[1, 1]], [3])
    out = lp.solve(program)
    assert lp.verify_outcome(program, out)
    bad = lp.LPOutcome(
        status=out.status,
        primal=(out.primal[0] + 1, out.primal[1]),
        dual=out.dual,
        value=out.value,
    )
    assert not lp.verify_outcome(program, bad)


def test_verifier_detects_duality_gap():
    program = make_lp(["1/2", 2], [[1, 1]], [3])
    out = lp.solve(program)
    bad = lp.LPOutcome(
        status=out.status, primal=out.primal, dual=out.dual, value=out.value + 1
    )
    assert not lp.verify_outcome(program, bad)


def test_malformed_program():
    row = lp.Row({0: 1}, 1, 1)
    with pytest.raises(lp.MalformedProgramError):  # a column the program lacks
        lp.LinearProgram((1, 2), 1, (lp.Row({2: 1}, 1, 1),), (False, False))
    with pytest.raises(lp.MalformedProgramError):
        lp.LinearProgram((1, 2), 1, (row,), (False,))
    with pytest.raises(lp.MalformedProgramError):
        lp.LinearProgram((1, 2), 1, (lp.Row({0: 1}, 1, 0),), (False, False))
    with pytest.raises(lp.MalformedProgramError):
        lp.LinearProgram((1, 2), -1, (row,), (False, False))


def test_builder_layout():
    b = lp.ProgramBuilder()
    x = b.add_var(objective=1)
    y = b.add_var(free=True)
    b.add_row({x: 1, y: 2}, 5)
    b.add_row({x: Rational(1, 2), y: Rational(-1, 3)}, Rational(5, 4))
    program = b.build()
    assert program.objective == (1, 0)
    assert program.lhs == ((1, 2), (Rational(1, 2), Rational(-1, 3)))
    assert program.rhs == (5, Rational(5, 4))
    assert program.free == (False, True)
    # each row as ints over the lcm of its own denominators
    assert program.rows == (lp.Row({x: 1, y: 2}, 5, 1), lp.Row({x: 6, y: -4}, 15, 12))


def test_hull_membership_layout():
    """Weight columns in point order, one row per coordinate, then the mass
    row; a zero point coordinate gets no entry."""
    b = lp.ProgramBuilder()
    t = b.add_var(free=True)
    mu = b.add_var(objective=1)
    # (5, 7) - (t, 0) in mu * conv{(2, 0), (0, -3), (1, 1)}
    nus = b.add_hull_membership([(2, 0), (0, -3), (1, 1)], [{t: 1}, {}], (5, 7), mass=mu)
    # (0, 4) - (0, t) in -2 * conv{(1, 2)}, unit mass
    lams = b.add_hull_membership([(1, 2)], [{}, {t: 1}], (0, 4), scale=-2)
    assert nus == [2, 3, 4]
    assert lams == [5]
    program = b.build()
    assert program.objective == (0, 1, 0, 0, 0, 0)
    assert program.free == (True, False, False, False, False, False)
    assert program.lhs == (
        (1, 0, 2, 0, 1, 0),  # t + 2 nu_0 + nu_2 = 5
        (0, 0, 0, -3, 1, 0),  # -3 nu_1 + nu_2 = 7
        (0, -1, 1, 1, 1, 0),  # nu_0 + nu_1 + nu_2 - mu = 0
        (0, 0, 0, 0, 0, -2),  # -2 lam = 0
        (1, 0, 0, 0, 0, -4),  # t - 4 lam = 4
        (0, 0, 0, 0, 0, 1),  # lam = 1
    )
    assert program.rhs == (5, 7, 0, 0, 4, 1)
    assert set(b._rows[0].coeffs) == {t, nus[0], nus[2]}
    assert set(b._rows[1].coeffs) == {nus[1], nus[2]}


def test_format_program_mentions_signs():
    text = lp.format_program(make_lp([1], [[1]], [1], free=(True,)))
    assert "free" in text and "min" in text


def random_program(rng: SplitMix64) -> lp.LinearProgram:
    n = 1 + rng.below(12)
    m = 1 + rng.below(8)
    def q():
        return Rational(rng.below(41) - 20, 1 + rng.below(20))
    objective = [q() for _ in range(n)]
    lhs = [[q() for _ in range(n)] for _ in range(m)]
    rhs = [q() for _ in range(m)]
    return dense_program(objective, lhs, rhs, [rng.below(4) == 0 for _ in range(n)])


def test_randomized_sweep_all_outcomes_certified():
    rng = SplitMix64(2024)
    seen = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
    for _ in range(500):
        program = random_program(rng)
        out = lp.solve(program)
        seen[out.status] += 1
        if out.status == lp.OPTIMAL:
            assert lp.verify_outcome(program, out)
        elif out.status == lp.INFEASIBLE:
            assert lp.verify_farkas(program, out.farkas)
    # the sweep must actually exercise every status
    assert all(count > 0 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# differential check against the former rational engine


def solve_both(program):
    """Solve with ``lp.solve`` and with the rational oracle, recording the
    ``(pr, pc)`` pivot sequence of each."""
    pivots = ([], [])
    engines = ((kernel, lp.solve), (fraction_simplex, fraction_simplex.solve))
    outcomes = []
    for (module, solve), seen in zip(engines, pivots):
        original = module.pivot

        def recording(rows, pr, pc, original=original, seen=seen):
            seen.append((pr, pc))
            original(rows, pr, pc)

        module.pivot = recording
        try:
            outcomes.append(solve(program))
        finally:
            module.pivot = original
    return outcomes, pivots


def assert_same_as_oracle(program):
    (out, expected), (path, expected_path) = solve_both(program)
    assert out == expected, (lp.format_program(program), out, expected)
    assert path == expected_path, lp.format_program(program)
    return out.status


def variant(rng: SplitMix64, kind: str) -> lp.LinearProgram:
    """A random program reshaped into one of the awkward cases."""
    p = random_program(rng)
    lhs, rhs = [list(row) for row in p.lhs], list(p.rhs)
    if kind == "sparse":
        lhs = [[a if rng.below(4) == 0 else 0 * a for a in row] for row in lhs]
    elif kind == "degenerate":
        rhs = [b if rng.below(3) == 0 else 0 * b for b in rhs]
    elif kind == "redundant":
        k = rng.below(len(lhs))
        scale = Rational(rng.below(7) - 3 or 2, 1 + rng.below(3))
        lhs.append([scale * a for a in lhs[k]])
        rhs.append(scale * rhs[k])
    elif kind == "zero-row":
        k = rng.below(len(lhs) + 1)
        lhs.insert(k, [Rational(0)] * p.num_vars)
        rhs.insert(k, Rational(rng.below(3) - 1))
    elif kind == "negative-rhs":
        rhs = [-abs(b) for b in rhs]
    elif kind == "free":
        return dense_program(p.objective, p.lhs, p.rhs, (True,) * p.num_vars)
    return dense_program(p.objective, lhs, rhs, p.free)


def test_solve_matches_fraction_oracle():
    rng = SplitMix64(4242)
    seen = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
    for _ in range(150):
        seen[assert_same_as_oracle(random_program(rng))] += 1
    for kind in ("sparse", "degenerate", "redundant", "zero-row", "negative-rhs", "free"):
        for _ in range(60):
            seen[assert_same_as_oracle(variant(rng, kind))] += 1
    assert all(count > 0 for count in seen.values()), seen


@st.composite
def programs(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 5))
    q = st.fractions(min_value=-9, max_value=9, max_denominator=8).map(rat)
    objective = draw(st.lists(q, min_size=n, max_size=n))
    lhs = [draw(st.lists(q, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(q, min_size=m, max_size=m))
    return dense_program(objective, lhs, rhs, draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(programs())
def test_solve_matches_fraction_oracle_hypothesis(program):
    assert_same_as_oracle(program)


# ---------------------------------------------------------------------------
# int rows over any positive denominator


def rescaled(program: lp.LinearProgram, rng: SplitMix64) -> lp.LinearProgram:
    """The same program with every row, and the objective, written over a
    random positive multiple of its denominator."""
    def k():
        return 1 + rng.below(12)
    rows = []
    for row in program.rows:
        f = k()
        rows.append(lp.Row({j: a * f for j, a in row.coeffs.items()}, row.rhs * f, row.den * f))
    f = k()
    return lp.LinearProgram(
        tuple(c * f for c in program.costs), program.cden * f, tuple(rows), program.free
    )


def test_int_rows_over_any_denominator_match_fraction_oracle():
    """Scaling a row by a positive constant changes no pivot under Bland's
    rule, and the represented program is the same: status, primal, dual,
    value, Farkas ray and the pivot sequence all equal the oracle's on the
    program with its rows in lowest terms."""
    rng = SplitMix64(777)
    seen = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
    programs = [random_program(rng) for _ in range(100)]
    for kind in ("sparse", "degenerate", "redundant", "zero-row", "negative-rhs", "free"):
        programs += [variant(rng, kind) for _ in range(30)]
    for program in programs:
        scaled = rescaled(program, rng)
        assert scaled.lhs == program.lhs and scaled.rhs == program.rhs
        assert scaled.objective == program.objective
        (out, expected), (path, expected_path) = solve_both(scaled)
        assert out == expected == lp.solve(program), lp.format_program(program)
        assert path == expected_path
        seen[out.status] += 1
    assert all(count > 0 for count in seen.values()), seen
