"""Tableau pivot loop: the step that dominates every LP solve.

The tableau holds Python ints with one positive denominator per row, so a
pivot does integer multiplies instead of rational arithmetic per cell.  A
row may be written over any positive denominator without changing the
pivot path (Bland's rule reads only signs and cross-multiplied ratios), so
rows are put back into lowest terms only once their denominator grows past
`REDUCE_AT`.

``lp.py`` looks ``pivot`` up through this module at call time, so a
benchmark may rebind it temporarily to count pivots.
"""

from math import gcd

# Kept for the configuration stamp that benchmark runs record and compare.
BACKEND = "python"

# A touched row is reduced (one gcd over the row, then exact divisions) only
# when its denominator reaches this bound.  On the programs this library
# solves that gcd costs more than the elimination it follows, and few rows
# reach the bound: 1,473 of 87,248 row updates over the property-pairs
# benchmark universe, none over complete-simplices.  The bound is there to
# keep entry growth in check, as some rule must for integer elimination to
# stay polynomial (Bareiss 1968); its worst case is a reduction per touched
# row.  Bounds of 30, 124 and 250 bits timed within 11% of 62 in-process,
# and 250 bits read the same as 62 end to end (BENCH_lazy_rows.json).
REDUCE_AT = 1 << 62


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
    ``a'[pr] = a[pr] / p``, ``a'[i] = a[i] - a[i][pc] * a'[pr]``.  Row ``pr``
    is left in lowest terms.  Row ``i`` with factor ``f`` becomes
    ``row * v - u * prow`` over ``dens[i] * v``, where ``v = p / h`` and
    ``u = f / h`` for ``h = gcd(f, p)``; when ``v`` is 1 only the pivot row's
    nonzero columns change, in place.  A row whose denominator then reaches
    `REDUCE_AT` is put into lowest terms, so every touched row ends below the
    bound or in lowest terms.  Rows whose ``pc`` entry is zero are not
    touched at all; the containment tableaus this library builds are
    block-sparse.
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
    nonzero = None
    for i, row in enumerate(rows):
        f = row[pc]
        if not f or i == pr:
            continue
        h = gcd(f, p)
        v = p // h
        u = f // h
        d = dens[i]
        if v == 1:
            if nonzero is None:
                nonzero = [(j, b) for j, b in enumerate(prow) if b]
            for j, b in nonzero:
                row[j] -= u * b
        else:
            d *= v
            row = [a * v - u * b for a, b in zip(row, prow)]
            rows[i] = row
            dens[i] = d
        if d >= REDUCE_AT:
            g = gcd(d, *row)
            if g != 1:
                rows[i] = [a // g for a in row]
                dens[i] = d // g
