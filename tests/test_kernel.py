"""The tableau pivot against the Gauss-Jordan formula, entry by entry."""

import copy
from fractions import Fraction

from gaugeradii import kernel
from gaugeradii.constructions import SplitMix64


def random_tableau(rng, rows, cols):
    return [
        [Fraction(rng.below(21) - 10, 1 + rng.below(4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_pivot_matches_formula():
    rng = SplitMix64(99)
    unit_pivots = zero_factor_rows = 0
    for trial in range(40):
        rows, cols = 3 + rng.below(5), 4 + rng.below(6)
        a = random_tableau(rng, rows, cols)
        pr, pc = rng.below(rows), rng.below(cols)
        if trial % 3 == 0:
            a[pr][pc] = Fraction(1)
        elif a[pr][pc] == 0:
            a[pr][pc] = Fraction(-7, 3)
        for i in range(rows):
            if i != pr and rng.below(3) == 0:
                a[i][pc] = Fraction(0)
        p = a[pr][pc]
        unit_pivots += p == 1
        zero_factor_rows += sum(1 for i in range(rows) if i != pr and a[i][pc] == 0)

        out = copy.deepcopy(a)
        kernel.pivot(out, pr, pc)
        for i in range(rows):
            for j in range(cols):
                if i == pr:
                    expected = a[pr][j] / p
                else:
                    expected = a[i][j] - a[i][pc] * a[pr][j] / p
                assert out[i][j] == expected, (trial, i, j)
    assert unit_pivots and zero_factor_rows


def test_pivot_normalizes_and_eliminates():
    tab = [[Fraction(2), Fraction(4)], [Fraction(3), Fraction(5)]]
    kernel.pivot(tab, 0, 0)
    assert tab[0] == [1, 2]
    assert tab[1] == [0, -1]


def test_active_backend_reported():
    assert kernel.BACKEND == "python"
