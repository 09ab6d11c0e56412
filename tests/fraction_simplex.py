"""The rational two-phase simplex that ``lp.py`` replaced, kept as an oracle.

``solve``, ``_two_phase``, ``_optimize`` and ``pivot`` are the library's
former engine verbatim: a dense tableau of ``Rational`` entries, pivoted by
Gauss-Jordan under Bland's rule.  The integer-tableau solver must reproduce
its outcomes and its pivot sequence exactly.  ``pivot`` is looked up at call
time, so a test may rebind it to record the pivots.
"""

from __future__ import annotations

from gaugeradii.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LPOutcome
from gaugeradii.ratcore import ONE, ZERO, Rational, vdot


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; see the module docstring for the contract."""
    # Split free variables x = x+ - x-.
    col_of: list[tuple[int, int | None]] = []
    split_cols: list[tuple[int, Rational]] = []  # (original var, sign)
    for j in range(lp.num_vars):
        pos = len(split_cols)
        split_cols.append((j, ONE))
        if lp.free[j]:
            split_cols.append((j, -ONE))
            col_of.append((pos, pos + 1))
        else:
            col_of.append((pos, None))
    n = len(split_cols)
    c = [lp.objective[j] * s for j, s in split_cols]
    rows = [[row[j] * s for j, s in split_cols] for row in lp.lhs]

    status, x_split, dual, farkas = _two_phase(c, rows, list(lp.rhs))
    if status == INFEASIBLE:
        return LPOutcome(INFEASIBLE, farkas=farkas)
    if status == UNBOUNDED:
        return LPOutcome(UNBOUNDED)
    primal = []
    for j, (pos, neg) in enumerate(col_of):
        val = x_split[pos]
        if neg is not None:
            val = val - x_split[neg]
        primal.append(val)
    value = vdot(lp.objective, primal)
    return LPOutcome(OPTIMAL, primal=tuple(primal), dual=tuple(dual), value=value)


def _two_phase(c: list, rows: list[list], b: list):
    """Core simplex on ``min c.x, A x = b, x >= 0`` (dense lists, mutated)."""
    m = len(rows)
    n = len(c)
    # Orient every row to b_i >= 0; remember signs to map duals back.
    sigma = [ONE] * m
    for i in range(m):
        if b[i] < 0:
            sigma[i] = -ONE
            rows[i] = [-a for a in rows[i]]
            b[i] = -b[i]

    # Tableau layout: [ original columns | artificial columns | rhs ].
    # The artificial block starts as the identity, so after any sequence of
    # pivots it holds the current basis inverse — duals are read from there.
    tab = [rows[i] + [ONE if k == i else ZERO for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    # Phase 1: minimize the sum of artificials.  Reduced-cost row for that
    # objective, given the all-artificial starting basis:
    zrow = [ZERO] * (n + m + 1)
    for i in range(m):
        trow = tab[i]
        for j in range(n):
            if trow[j]:
                zrow[j] -= trow[j]
        zrow[n + m] -= trow[n + m]
    tab.append(zrow)

    stat = _optimize(tab, basis, m, n + m)
    phase1_value = -tab[m][n + m]
    if phase1_value > 0:
        # Farkas ray from the phase-1 dual y_i = 1 - reduced_cost(artificial i).
        ray = tuple(sigma[i] * (ONE - tab[m][n + i]) for i in range(m))
        return INFEASIBLE, None, None, ray
    # Feasible: drive basic artificials (at level zero) out of the basis where
    # possible; rows that stay artificial are identically zero on the original
    # columns and remain inert through phase 2.
    for i in range(m):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j]), None)
            if pc is not None:
                pivot(tab, i, pc)
                basis[i] = pc

    # Phase 2: rebuild the reduced-cost row for the real objective.
    zrow = list(c) + [ZERO] * (m + 1)
    for i in range(m):
        bj = basis[i]
        cb = zrow[bj]
        if cb:
            trow = tab[i]
            for j in range(n + m + 1):
                if trow[j]:
                    zrow[j] -= cb * trow[j]
    tab[m] = zrow

    stat = _optimize(tab, basis, m, n)
    if stat == UNBOUNDED:
        return UNBOUNDED, None, None, None
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][n + m]
    dual = tuple(sigma[i] * (-tab[m][n + i]) for i in range(m))
    return OPTIMAL, x, dual, None


def _optimize(tab: list[list], basis: list[int], m: int, allowed: int):
    """Bland-rule simplex iterations on the prepared tableau.

    ``allowed`` bounds the entering-column search (artificials are barred in
    phase 2).  Bland's rule — lowest eligible entering index, ties in the
    ratio test broken by lowest basic-variable index — guarantees
    termination on every input, degenerate or not.
    """
    zrow = tab[m]
    rhs_col = len(zrow) - 1
    while True:
        enter = next((j for j in range(allowed) if zrow[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][rhs_col] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        pivot(tab, leave, enter)
        basis[leave] = enter


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
