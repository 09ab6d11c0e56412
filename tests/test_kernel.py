"""The integer tableau pivot against the Gauss-Jordan formula, entry by entry."""

from fractions import Fraction
from math import gcd

from gaugeradii import kernel
from gaugeradii.constructions import SplitMix64


def random_tableau(rng, rows, cols):
    return kernel.Tableau(
        [[rng.below(21) - 10 for _ in range(cols)] for _ in range(rows)],
        [1 + rng.below(6) for _ in range(rows)],
    )


def test_pivot_matches_formula():
    rng = SplitMix64(99)
    negative_pivots = unit_pivots = zero_factor_rows = reduced_rows = 0
    for trial in range(60):
        rows, cols = 3 + rng.below(5), 4 + rng.below(6)
        tab = random_tableau(rng, rows, cols)
        pr, pc = rng.below(rows), rng.below(cols)
        if trial % 3 == 0:
            tab[pr][pc] = tab.dens[pr] * (1 - 2 * rng.below(2))
        elif tab[pr][pc] == 0:
            tab[pr][pc] = -7
        for i in range(rows):
            if i != pr and rng.below(3) == 0:
                tab[i][pc] = 0
        a = [[Fraction(x, d) for x in row] for row, d in zip(tab, tab.dens)]
        before = [(list(row), d) for row, d in zip(tab, tab.dens)]
        p = a[pr][pc]
        negative_pivots += p < 0
        unit_pivots += p == 1

        kernel.pivot(tab, pr, pc)
        assert len(tab) == rows and len(tab.dens) == rows
        for i in range(rows):
            row, d = tab[i], tab.dens[i]
            assert type(d) is int and d > 0, (trial, i)
            assert all(type(x) is int for x in row), (trial, i)
            for j in range(cols):
                if i == pr:
                    expected = a[pr][j] / p
                else:
                    expected = a[i][j] - a[i][pc] * a[pr][j] / p
                assert Fraction(row[j], d) == expected, (trial, i, j)
            if i != pr and a[i][pc] == 0:
                assert (row, d) == before[i], (trial, i)
                zero_factor_rows += 1
            else:
                assert gcd(d, *row) == 1, (trial, i)
                unreduced = abs(before[pr][0][pc]) if i == pr else before[i][1] * tab.dens[pr]
                reduced_rows += d != unreduced
    assert negative_pivots and unit_pivots and zero_factor_rows and reduced_rows


def test_pivot_normalizes_and_eliminates():
    tab = kernel.Tableau([[2, 4], [3, 5]], [1, 1])
    kernel.pivot(tab, 0, 0)
    assert tab == [[1, 2], [0, -1]]
    assert tab.dens == [1, 1]

    # values [-4/3, 2, 2/3], [3/2, 5/2, 0], [0, 7/5, 1/5]
    tab = kernel.Tableau([[-4, 6, 2], [3, 5, 0], [0, 7, 1]], [3, 2, 5])
    kernel.pivot(tab, 0, 0)
    assert tab == [[2, -3, -1], [0, 19, 3], [0, 7, 1]]
    assert tab.dens == [2, 4, 5]


def test_active_backend_reported():
    assert kernel.BACKEND == "python"
