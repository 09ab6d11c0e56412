"""The integer tableau pivot against the Gauss-Jordan formula, entry by entry."""

from fractions import Fraction
from math import gcd

from gaugeradii import kernel
from gaugeradii.constructions import SplitMix64


def random_tableau(rng, rows, cols, scale=1):
    """Small random entries; ``scale`` writes every row over a ``scale``
    times larger denominator, the same values out of lowest terms."""
    return kernel.Tableau(
        [[scale * (rng.below(21) - 10) for _ in range(cols)] for _ in range(rows)],
        [scale * (1 + rng.below(6)) for _ in range(rows)],
    )


def assert_touched_row_bounded(row, d, context):
    """The kernel's invariant for a row a pivot touched: its denominator is
    below the bound, or the row is in lowest terms."""
    assert d < kernel.REDUCE_AT or gcd(d, *row) == 1, context


def test_pivot_matches_formula():
    """Exact values, positive denominators and untouched rows, on small
    tableaus and on large-entry ones whose every touched row must be
    reduced."""
    rng = SplitMix64(99)
    negative_pivots = unit_pivots = zero_factor_rows = lazy_rows = reduced_rows = 0
    for trial in range(80):
        large = trial % 4 == 3
        rows, cols = 3 + rng.below(5), 4 + rng.below(6)
        tab = random_tableau(rng, rows, cols, kernel.REDUCE_AT if large else 1)
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
                assert_touched_row_bounded(row, d, (trial, i))
                if i == pr:
                    assert gcd(d, *row) == 1, trial  # the pivot row is normalized
                elif large:
                    reduced_rows += d < before[i][1]
                else:
                    lazy_rows += gcd(d, *row) != 1
    assert negative_pivots and unit_pivots and zero_factor_rows
    assert lazy_rows and reduced_rows


def test_pivot_reduces_rows_past_the_bound():
    """A row written over 2**63 is reduced after the pivot, by both the
    in-place update (unit multiplier) and the scaled one; a row below the
    bound is left as the elimination wrote it."""
    big = 1 << 63
    # values [1, 2, 3]; [2, 4, 8] / 2**63; [1, 3, 1] / 2**63; [2, 1, 5] / 4
    tab = kernel.Tableau([[1, 2, 3], [2, 4, 8], [1, 3, 1], [2, 1, 5]], [1, big, big, 4])
    kernel.pivot(tab, 0, 0)
    assert tab == [[1, 2, 3], [0, 0, 1], [0, 1, -2], [0, -3, -1]]
    assert tab.dens == [1, big // 2, big, 4]

    # values [2, 3, 5] / 1, so p = 2 and rows with an odd factor are scaled
    tab = kernel.Tableau([[2, 3, 5], [6, 0, 6], [3, 3, 3], [4, 2, 2]], [1, big, 3 * big, 6])
    kernel.pivot(tab, 0, 0)
    assert tab[0] == [2, 3, 5] and tab.dens[0] == 2
    # row 1, in place: [6, 0, 6] - 3 [2, 3, 5] = [0, -9, -9] over 2**63,
    # already in lowest terms
    assert tab[1] == [0, -9, -9] and tab.dens[1] == big
    # row 2, scaled: 2 [3, 3, 3] - 3 [2, 3, 5] = [0, -3, -9] over 6 * 2**63,
    # reduced by 3
    assert tab[2] == [0, -1, -3] and tab.dens[2] == 2 * big
    # row 3, in place: [4, 2, 2] - 2 [2, 3, 5] = [0, -4, -8] over 6, below
    # the bound and left unreduced
    assert tab[3] == [0, -4, -8] and tab.dens[3] == 6
    for row, d in zip(tab, tab.dens):
        assert_touched_row_bounded(row, d, (row, d))


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
