"""Tableau pivot loop: the step that dominates every LP solve.

The tableau holds Python ints with one positive denominator per row, so a
pivot does integer multiplies and one gcd per touched row instead of
rational arithmetic per cell.

``lp.py`` looks ``pivot`` up through this module at call time, so a
benchmark may rebind it temporarily to count pivots.
"""

from math import gcd

# Kept for the configuration stamp that benchmark runs record and compare.
BACKEND = "python"


class Tableau(list):
    """Rows of ints; entry ``(i, j)`` stands for ``self[i][j] / self.dens[i]``.

    Every ``dens[i]`` is a positive int.
    """

    __slots__ = ("dens",)

    def __init__(self, rows, dens):
        super().__init__(rows)
        self.dens = list(dens)


def pivot(rows, pr, pc):
    """Gauss-Jordan pivot in place on a `Tableau`: normalize row ``pr`` by its
    ``pc`` entry, then eliminate column ``pc`` from every other row.

    The represented values are exactly those of the rational pivot
    ``a'[pr] = a[pr] / p``, ``a'[i] = a[i] - a[i][pc] * a'[pr]``.  Every row
    the pivot touches is left in lowest terms: ``gcd(dens[i], *rows[i]) == 1``.
    Rows whose ``pc`` entry is zero are not touched at all; the containment
    tableaus this library builds are block-sparse.
    """
    dens = rows.dens
    prow = rows[pr]
    p = prow[pc]
    if p < 0:
        p = -p
        prow = [-a for a in prow]
    g = gcd(*prow)
    if g != 1:
        p //= g
        prow = [a // g for a in prow]
    rows[pr] = prow
    dens[pr] = p
    for i, row in enumerate(rows):
        f = row[pc]
        if not f or i == pr:
            continue
        d = dens[i] * p
        if p == 1:
            row = [a - f * b for a, b in zip(row, prow)]
        else:
            row = [a * p - f * b for a, b in zip(row, prow)]
        g = gcd(d, *row)
        if g != 1:
            d //= g
            row = [a // g for a in row]
        rows[i] = row
        dens[i] = d
