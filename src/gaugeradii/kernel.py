"""Tableau pivot loop: the step that dominates every LP solve.

``lp.py`` looks ``pivot`` up through this module at call time, so a
benchmark may rebind it temporarily to count pivots.
"""

# Kept for the configuration stamp that benchmark runs record and compare.
BACKEND = "python"


def pivot(rows, pr, pc):
    """Gauss-Jordan pivot in place: normalize row ``pr`` by its ``pc`` entry,
    then eliminate column ``pc`` from every other row.

    ``rows`` is a list of equal-length lists of exact rationals.  Zero entries
    are skipped explicitly; the containment tableaus this library builds are
    block-sparse and the zero test is far cheaper than a rational multiply.
    """
    prow = rows[pr]
    piv = prow[pc]
    ncols = len(prow)
    if piv != 1:
        inv = 1 / piv
        for j in range(ncols):
            if prow[j]:
                prow[j] = prow[j] * inv
    for i in range(len(rows)):
        if i == pr:
            continue
        row = rows[i]
        f = row[pc]
        if f:
            for j in range(ncols):
                pj = prow[j]
                if pj:
                    row[j] = row[j] - f * pj
