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

The tableau is integer: each row holds Python ints over its own positive
denominator (a `kernel.Tableau`), every represented value equals the one a
rational tableau would hold, and signs and ratio comparisons are read off the
ints.  Bland's rule therefore takes the same pivot path as over rationals;
``Rational`` values are formed only for the primal, dual, value and Farkas
outputs.  Speed matters mostly in the pivot loop, which lives in `kernel`.
At the problem sizes this library targets (a few hundred columns) dense
tableaus are entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import kernel
from .ratcore import ONE, ZERO, Rational, Vec, rat, vdot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class MalformedProgramError(ValueError):
    """Objective, constraint matrix and sign markers disagree in shape."""


@dataclass(frozen=True)
class LinearProgram:
    """``minimize objective . x  s.t.  lhs x = rhs``, with per-variable signs.

    ``free[j]`` True means x_j is unrestricted, otherwise x_j >= 0.
    """

    objective: tuple
    lhs: tuple
    rhs: tuple
    free: tuple

    def __post_init__(self):
        n = len(self.objective)
        if len(self.free) != n:
            raise MalformedProgramError("sign markers do not match variable count")
        if len(self.lhs) != len(self.rhs):
            raise MalformedProgramError("constraint matrix and rhs differ in row count")
        for row in self.lhs:
            if len(row) != n:
                raise MalformedProgramError("constraint row does not match variable count")

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class LPOutcome:
    """Solver result.  ``primal``/``dual``/``value`` are set when optimal;
    ``farkas`` carries the infeasibility ray when status is ``infeasible``."""

    status: str
    primal: tuple | None = None
    dual: tuple | None = None
    value: Rational | None = None
    farkas: tuple | None = None


class ProgramBuilder:
    """Incremental sparse construction of a LinearProgram.

    The containment programs downstream are assembled variable-block by
    variable-block; this keeps their code free of index bookkeeping.
    """

    def __init__(self):
        self._objective: list = []
        self._free: list = []
        self._rows: list = []
        self._rhs: list = []

    def add_var(self, objective=ZERO, free: bool = False) -> int:
        self._objective.append(rat(objective))
        self._free.append(free)
        return len(self._objective) - 1

    def add_vars(self, count: int, objective=ZERO, free: bool = False) -> list[int]:
        return [self.add_var(objective, free) for _ in range(count)]

    def add_row(self, coeffs: dict[int, object], rhs) -> None:
        """Add one equality row given as ``{variable index: coefficient}``."""
        self._rows.append({j: rat(c) for j, c in coeffs.items()})
        self._rhs.append(rat(rhs))

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
        total = {nu: ONE for nu in nus}
        if mass is not None:
            total[mass] = -ONE
        self.add_row(total, ONE if mass is None else ZERO)
        return nus

    def build(self) -> LinearProgram:
        n = len(self._objective)
        dense = tuple(
            tuple(row.get(j, ZERO) for j in range(n)) for row in self._rows
        )
        return LinearProgram(
            objective=tuple(self._objective),
            lhs=dense,
            rhs=tuple(self._rhs),
            free=tuple(self._free),
        )


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; see the module docstring for the contract."""
    # Split free variables x = x+ - x-.
    col_of: list[tuple[int, int | None]] = []
    n = 0
    for j in range(lp.num_vars):
        if lp.free[j]:
            col_of.append((n, n + 1))
            n += 2
        else:
            col_of.append((n, None))
            n += 1
    # Scale the objective and each constraint row by the lcm of its own
    # denominators: row i of the tableau then holds ints over ``dens[i]``.
    c, _, cden = _split_ints(lp.objective, lp.free)
    rows, b, dens = [], [], []
    for row, rhs in zip(lp.lhs, lp.rhs):
        ints, b_int, den = _split_ints(row, lp.free, rhs)
        rows.append(ints)
        b.append(b_int)
        dens.append(den)

    status, x_split, dual, farkas = _two_phase(c, cden, rows, b, dens)
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


def _split_ints(values, free, rhs=ZERO):
    """``(ints, b, den)``: the split ``values`` (a free variable's entry
    followed by its negation) and ``rhs``, as ints over the lcm ``den`` of
    all their denominators."""
    den = lcm(rhs.denominator, *(q.denominator for q in values))
    ints = []
    for q, is_free in zip(values, free):
        a = q.numerator * (den // q.denominator) if q else 0
        ints.append(a)
        if is_free:
            ints.append(-a)
    return ints, rhs.numerator * (den // rhs.denominator), den


def _two_phase(c: list, cden: int, rows: list[list], b: list, dens: list):
    """Core simplex on ``min c.x, A x = b, x >= 0``.

    Integer data: ``c[j] / cden``, row i of ``A`` is ``rows[i] / dens[i]`` and
    ``b[i] / dens[i]`` (lists, mutated).  Outputs are Rationals.
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
        return INFEASIBLE, None, None, ray
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
        return UNBOUNDED, None, None, None
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Rational(tab[i][n + m], tab.dens[i])
    zrow, zden = tab[m], tab.dens[m]
    dual = tuple(Rational(-sigma[i] * zrow[n + i], zden) for i in range(m))
    return OPTIMAL, x, dual, None


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


def feasible_point(lp: LinearProgram) -> tuple | None:
    """Feasibility probe: some feasible point, or None."""
    probe = LinearProgram(
        objective=(ZERO,) * lp.num_vars, lhs=lp.lhs, rhs=lp.rhs, free=lp.free
    )
    out = solve(probe)
    return out.primal if out.status == OPTIMAL else None


def format_program(lp: LinearProgram) -> str:
    """Plain-text tableau dump for debugging."""
    lines = ["min " + "  ".join(str(q) for q in lp.objective)]
    for row, b in zip(lp.lhs, lp.rhs):
        lines.append("  ".join(str(q) for q in row) + f"  =  {b}")
    lines.append("signs: " + "  ".join("free" if f else ">=0" for f in lp.free))
    return "\n".join(lines)
