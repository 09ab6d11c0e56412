"""Exact two-phase simplex over rationals, with certificates.

Every radius, containment test and concentricity predicate in this library
reduces to a linear program in standard equality form

    minimize c . x   subject to   A x = b,   x_j >= 0 or x_j free,

solved here with textbook two-phase simplex under Bland's anti-cycling rule.
No floats, no tolerances: an outcome is *exactly* optimal, and callers decide
equality cases of geometric inequalities straight from the objective values.

Beyond the optimum the solver returns the pieces the geometry needs:

* an exact dual vector (read off the artificial columns, which carry the
  basis inverse through the pivots) — contact normals come from it;
* on infeasibility, a Farkas ray ``y`` with ``y.A <= 0`` (componentwise on
  sign-restricted columns, ``= 0`` on free ones) and ``y.b > 0``.

Free variables are split into differences of nonnegative pairs; duals are
per-constraint and unaffected.  Degenerate optima return *a* basic optimal
solution, never a canonical one — callers must not assume uniqueness.

Programs are integer from the start: a `LinearProgram` holds each row as
Python ints over its own positive denominator (a `Row`), and its objective
over one more.  The facet-form programs of `radii` and `theorems` are
written that way straight from integer facets and images; `ProgramBuilder`
converts a row of ``Rational`` numbers once, from its sparse entries, as it
is added.  ``solve`` only lays the rows out densely, splitting the free
columns, into the integer tableau (a `kernel.Tableau`).  Every represented
value equals the one a rational tableau would hold, and signs and ratio
comparisons are read off the ints.  Bland's rule therefore takes the same
pivot path as over rationals, whatever positive denominator a row is written
over (Schrijver, *Theory of Linear and Integer Programming*, 1986).
``Rational`` values are formed only for the primal, dual, value and Farkas
outputs; the value is read off the final reduced-cost row.  Speed matters
mostly in the pivot loop, which lives in `kernel`.
At the problem sizes this library targets (a few hundred columns) dense
tableaus are entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from . import kernel
from .ratcore import ONE, ZERO, Rational, Vec, vdot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class MalformedProgramError(ValueError):
    """Objective, rows and sign markers disagree in shape, or a denominator
    is not positive."""


class Row(NamedTuple):
    """One equality ``sum_j coeffs[j] x_j = rhs``, every number over ``den``:
    ``coeffs`` maps variable indices to ints (a missing index is a zero),
    ``rhs`` is an int and ``den`` a positive int."""

    coeffs: dict
    rhs: int
    den: int


@dataclass(frozen=True)
class LinearProgram:
    """``minimize (costs / cden) . x  s.t.`` every ``Row`` of ``rows``, with
    per-variable signs: ``free[j]`` True means x_j is unrestricted,
    otherwise x_j >= 0.

    Every coefficient is an int over a positive denominator, one per row
    and one for the objective, which is the form the tableau pivots on.
    ``objective``, ``lhs`` and ``rhs`` give the same program densely in
    ``Rational``s, for the certificate checks and for printing.
    """

    costs: tuple
    cden: int
    rows: tuple
    free: tuple

    def __post_init__(self):
        n = len(self.costs)
        if len(self.free) != n:
            raise MalformedProgramError("sign markers do not match variable count")
        if self.cden <= 0:
            raise MalformedProgramError("denominators must be positive")
        for row in self.rows:
            if row.den <= 0:
                raise MalformedProgramError("denominators must be positive")
            if row.coeffs and (min(row.coeffs) < 0 or max(row.coeffs) >= n):
                raise MalformedProgramError("constraint row does not match variable count")

    @property
    def num_vars(self) -> int:
        return len(self.costs)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def objective(self) -> tuple:
        return tuple(Rational(c, self.cden) for c in self.costs)

    @property
    def lhs(self) -> tuple:
        return tuple(
            tuple(Rational(row.coeffs.get(j, 0), row.den) for j in range(self.num_vars))
            for row in self.rows
        )

    @property
    def rhs(self) -> tuple:
        return tuple(Rational(row.rhs, row.den) for row in self.rows)


@dataclass(frozen=True)
class LPOutcome:
    """Solver result.  ``primal``/``dual``/``value`` are set when optimal;
    ``farkas`` carries the infeasibility ray when status is ``infeasible``."""

    status: str
    primal: tuple | None = None
    dual: tuple | None = None
    value: Rational | None = None
    farkas: tuple | None = None


def _ints(coeffs: dict, rhs) -> Row:
    """The row ``coeffs . x = rhs`` of int or ``Rational`` numbers as a
    ``Row`` over the lcm of their denominators."""
    den = lcm(rhs.denominator, *(q.denominator for q in coeffs.values()))
    return Row(
        {j: q.numerator * (den // q.denominator) for j, q in coeffs.items() if q},
        rhs.numerator * (den // rhs.denominator),
        den,
    )


class ProgramBuilder:
    """Incremental sparse construction of a LinearProgram from int or
    ``Rational`` numbers.

    The containment programs downstream are assembled variable-block by
    variable-block; this keeps their code free of index bookkeeping.  Each
    row is converted to a ``Row`` once, from its sparse entries, as it is
    added.  Floats are refused: they have no ``denominator``.
    """

    def __init__(self):
        self._objective: list = []
        self._free: list = []
        self._rows: list = []

    def add_var(self, objective=0, free: bool = False) -> int:
        self._objective.append(objective)
        self._free.append(free)
        return len(self._objective) - 1

    def add_vars(self, count: int, objective=0, free: bool = False) -> list[int]:
        return [self.add_var(objective, free) for _ in range(count)]

    def add_row(self, coeffs: dict[int, object], rhs) -> None:
        """Add one equality row given as ``{variable index: coefficient}``."""
        self._rows.append(_ints(coeffs, rhs))

    def add_hull_membership(self, points, lhs, rhs, scale=ONE, mass=None) -> list[int]:
        """Constrain ``rhs - lhs`` to ``scale * mu * conv(points)``; return the
        weight columns.

        "x in t + mu*conv(P)" is not linear in (t, mu) with P given by points,
        since it reads x = t + mu * (convex combination of p_j).  Substituting
        nu_j := mu * lambda_j absorbs the product: the constraints become

            lhs[k] + scale * sum_j nu_j p_j[k] = rhs[k]      and      sum_j nu_j = mu,

        which are linear, with nu >= 0.  ``lhs[k]`` is a ``{variable:
        coefficient}`` dict (t and any other terms of coordinate k); ``mass``
        is the variable mu, or None for mu = 1.  This substitution is what
        makes every radius and containment in the library a single LP.

        Layout: one weight column per point, in point order, then one row per
        coordinate k, then the mass row.  Zero point coordinates get no entry.
        """
        nus = self.add_vars(len(points))
        if scale != ONE:  # unit scale (hull tests, circumradius) skips the multiplies
            points = [[scale * x for x in p] for p in points]
        for k, b in enumerate(rhs):
            row = dict(lhs[k])
            row.update((nu, p[k]) for nu, p in zip(nus, points) if p[k])
            self.add_row(row, b)
        total = dict.fromkeys(nus, 1)
        if mass is not None:
            total[mass] = -1
        self.add_row(total, 1 if mass is None else 0)
        return nus

    def build(self) -> LinearProgram:
        cden = lcm(*(q.denominator for q in self._objective))
        return LinearProgram(
            costs=tuple(q.numerator * (cden // q.denominator) for q in self._objective),
            cden=cden,
            rows=tuple(self._rows),
            free=tuple(self._free),
        )


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; see the module docstring for the contract."""
    # Split free variables x = x+ - x-: column pos[j] holds x_j, or x_j+
    # with x_j- right after it.
    pos = []
    n = 0
    for is_free in lp.free:
        pos.append(n)
        n += 1 + is_free
    negs = [(j, pos[j] + 1) for j, is_free in enumerate(lp.free) if is_free]
    c = [0] * n
    for p, cj in zip(pos, lp.costs):
        c[p] = cj
    for j, q in negs:
        c[q] = -c[q - 1]
    # Row i of the tableau holds ints over its own ``dens[i]``.
    rows, b, dens = [], [], []
    for coeffs, rhs, den in lp.rows:
        dense = [0] * n
        for j, a in coeffs.items():
            dense[pos[j]] = a
        for j, q in negs:
            dense[q] = -dense[q - 1]
        rows.append(dense)
        b.append(rhs)
        dens.append(den)

    status, x_split, dual, value, farkas = _two_phase(c, lp.cden, rows, b, dens)
    if status == INFEASIBLE:
        return LPOutcome(INFEASIBLE, farkas=farkas)
    if status == UNBOUNDED:
        return LPOutcome(UNBOUNDED)
    primal = [x_split[p] for p in pos]
    for j, q in negs:
        primal[j] -= x_split[q]
    return LPOutcome(OPTIMAL, primal=tuple(primal), dual=dual, value=value)


def _two_phase(c: list, cden: int, rows: list[list], b: list, dens: list):
    """Core simplex on ``min c.x, A x = b, x >= 0``.

    Integer data: ``c[j] / cden``, row i of ``A`` is ``rows[i] / dens[i]`` and
    ``b[i] / dens[i]`` (lists, mutated).  Outputs are Rationals: the primal,
    the dual and the value c.x when optimal, the Farkas ray when
    infeasible.
    """
    m = len(rows)
    n = len(c)
    # Orient every row to b_i >= 0; remember signs to map duals back.
    sigma = [1] * m
    for i in range(m):
        if b[i] < 0:
            sigma[i] = -1
            rows[i] = [-a for a in rows[i]]
            b[i] = -b[i]

    # Tableau layout: [ original columns | artificial columns | rhs ].
    # The artificial block starts as the identity, so after any sequence of
    # pivots it holds the current basis inverse — duals are read from there.
    tab = [rows[i] + [dens[i] if k == i else 0 for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    # Phase 1: minimize the sum of artificials.  Reduced-cost row for that
    # objective, given the all-artificial starting basis, over the lcm of the
    # row denominators:
    zden = lcm(*dens)
    zrow = [0] * (n + m + 1)
    for i in range(m):
        trow = tab[i]
        scale = zden // dens[i]
        for j in range(n):
            if trow[j]:
                zrow[j] -= trow[j] * scale
        zrow[n + m] -= trow[n + m] * scale
    tab = kernel.Tableau(tab + [zrow], dens + [zden])

    _optimize(tab, basis, m, n + m)
    zrow, zden = tab[m], tab.dens[m]
    if zrow[n + m] < 0:  # phase-1 optimum -zrow[n+m]/zden is positive
        # Farkas ray from the phase-1 dual y_i = 1 - reduced_cost(artificial i).
        ray = tuple(Rational(sigma[i] * (zden - zrow[n + i]), zden) for i in range(m))
        return INFEASIBLE, None, None, None, ray
    # Feasible: drive basic artificials (at level zero) out of the basis where
    # possible; rows that stay artificial are identically zero on the original
    # columns and remain inert through phase 2.
    for i in range(m):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j]), None)
            if pc is not None:
                kernel.pivot(tab, i, pc)
                basis[i] = pc

    # Phase 2: rebuild the reduced-cost row for the real objective.  Basic
    # columns are unit columns, so each basic cost is read straight from c.
    costed = [i for i in range(m) if basis[i] < n and c[basis[i]]]
    zden = cden * lcm(*(tab.dens[i] for i in costed))
    zrow = [cj * (zden // cden) for cj in c] + [0] * (m + 1)
    for i in costed:
        scale = c[basis[i]] * (zden // (cden * tab.dens[i]))
        trow = tab[i]
        for j in range(n + m + 1):
            if trow[j]:
                zrow[j] -= scale * trow[j]
    tab[m] = zrow
    tab.dens[m] = zden

    stat = _optimize(tab, basis, m, n)
    if stat == UNBOUNDED:
        return UNBOUNDED, None, None, None, None
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Rational(tab[i][n + m], tab.dens[i])
    # The reduced-cost row's rhs entry holds -c.x for the basic solution x.
    zrow, zden = tab[m], tab.dens[m]
    dual = tuple(Rational(-sigma[i] * zrow[n + i], zden) for i in range(m))
    return OPTIMAL, x, dual, Rational(-zrow[n + m], zden), None


def _optimize(tab: kernel.Tableau, basis: list[int], m: int, allowed: int):
    """Bland-rule simplex iterations on the prepared tableau.

    ``allowed`` bounds the entering-column search (artificials are barred in
    phase 2).  Bland's rule — lowest eligible entering index, ties in the
    ratio test broken by lowest basic-variable index — guarantees
    termination on every input, degenerate or not.  Denominators are
    positive, so signs are read off the ints, and the ratio test compares
    ``rhs_i / a_i`` by cross-multiplying (the row denominators cancel).
    """
    rhs_col = len(tab[m]) - 1
    while True:
        zrow = tab[m]  # the pivot replaces rows, so re-read it each step
        enter = next((j for j in range(allowed) if zrow[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        for i in range(m):
            row = tab[i]
            a = row[enter]
            if a > 0:
                r = row[rhs_col]
                if leave is None:
                    leave, best_r, best_a = i, r, a
                    continue
                lhs, rhs = r * best_a, best_r * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_r, best_a = i, r, a
        if leave is None:
            return UNBOUNDED
        kernel.pivot(tab, leave, enter)
        basis[leave] = enter


# ---------------------------------------------------------------------------
# independent certificate checks


def verify_outcome(lp: LinearProgram, outcome: LPOutcome) -> bool:
    """Recheck an optimal outcome from scratch: primal and dual feasibility,
    complementary slackness and a zero duality gap, all exact."""
    if outcome.status != OPTIMAL or outcome.primal is None or outcome.dual is None:
        return False
    x, y = outcome.primal, outcome.dual
    if len(x) != lp.num_vars or len(y) != lp.num_rows:
        return False
    for row, b in zip(lp.lhs, lp.rhs):
        if vdot(row, x) != b:
            return False
    reduced = []
    for j in range(lp.num_vars):
        rc = lp.objective[j] - vdot([row[j] for row in lp.lhs], y)
        reduced.append(rc)
        if lp.free[j]:
            if rc != 0:
                return False
        else:
            if x[j] < 0 or rc < 0:
                return False
    if any(x[j] * reduced[j] != 0 for j in range(lp.num_vars)):
        return False
    cx = vdot(lp.objective, x)
    return cx == vdot(lp.rhs, y) == outcome.value


def verify_farkas(lp: LinearProgram, ray: Vec) -> bool:
    """Check that ``ray`` certifies infeasibility of the program."""
    if len(ray) != lp.num_rows:
        return False
    for j in range(lp.num_vars):
        col = vdot([row[j] for row in lp.lhs], ray)
        if lp.free[j]:
            if col != 0:
                return False
        elif col > 0:
            return False
    return vdot(lp.rhs, ray) > 0


def format_program(lp: LinearProgram) -> str:
    """Plain-text tableau dump for debugging."""
    lines = ["min " + "  ".join(str(q) for q in lp.objective)]
    for row, b in zip(lp.lhs, lp.rhs):
        lines.append("  ".join(str(q) for q in row) + f"  =  {b}")
    lines.append("signs: " + "  ".join("free" if f else ">=0" for f in lp.free))
    return "\n".join(lines)
