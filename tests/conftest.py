"""Shared fixtures and independent oracles.

The oracles here cross-check results through a second route: 2D hulls via
exact monotone chain and simplex membership via barycentric coordinates from
a Gauss-Jordan solve over fractions (both without LPs), the inradius from
its own containment LP rather than from the circumradius, and the
circumradius from the vertex-form LP rather than the facet form.  The
circumradius value and the concentricity predicates, which the library
decides on the small side of LP duality, are checked against the primal
programs they replaced, one row per facet.  The hulls, facets, membership and boundedness tests, which the
library decides on integer images with no LP in every dimension, are
checked against the general routes they replaced: one membership LP per
point, brute force over vertex subsets with rational cofactor normals,
membership LPs, and LPs maximizing each coordinate over a halfspace region.
Those oracles take raw point lists, and the generators of hull cases yield
point lists, since a body is built as its hull: an oracle reading a body's
vertices would compare the hull with itself.
The (C - C)/2 norm is checked against its norm LP, which also checks the
norm taken as twice a segment's circumradius.  The diameter and the other
largest norms, which the library takes from one routine, are checked
against the norm LP of every vertex difference or vertex, and the cone LP
checks the gauge function written as one hull-membership block or read off
the facets.  The Minkowski center read off the asymmetry's facet-form dual is
checked against the vertex-form witness of R(-K, K), and where the two
differ, the center polytope is shown to be more than a point by LPs over
each coordinate.  Full dimension is checked against an exact rank by
fraction elimination, and the Cramer solves on Bareiss determinants against
the same Gauss-Jordan solve.
"""

import itertools
import sys

import pytest
from hypothesis import strategies as st

from gaugeradii import lp
from gaugeradii.bodies import (
    Halfspace,
    VPolytope,
    check_same_dim,
    facets,
    negate,
    normalize_halfspace,
    scale,
    support,
    translate,
)
from gaugeradii.constructions import (
    SplitMix64,
    simplex_sandwich_pair,
    spiked_difference_pair,
    triangle_mix_gauge,
)
from gaugeradii.radii import (
    DegenerateGaugeError,
    asymmetry,
    circumradius,
    inradius,
)
from gaugeradii.ratcore import (
    ONE,
    ZERO,
    is_zero_vec,
    rat,
    vdot,
    vec,
    vneg,
    vsub,
)


def V(points):
    return VPolytope.from_points(points)


@pytest.fixture
def triangle():
    """The standard centered triangle conv{(1,0),(0,1),(-1,-1)}."""
    return V([(1, 0), (0, 1), (-1, -1)])


@pytest.fixture
def square():
    return V([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def clear_caches():
    """Empty every memo cache of the library, so LP counts start cold."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("gaugeradii"):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class SolveCounter:
    """``count`` is the number of ``lp.solve`` calls since the last
    ``reset``, which also empties every cache so the count starts cold;
    ``shapes`` lists the (rows, columns) of each of those programs."""

    def __init__(self):
        self.count = 0
        self.shapes = []

    def reset(self):
        clear_caches()
        self.count = 0
        self.shapes = []


@pytest.fixture
def solve_counter(monkeypatch):
    """A reset ``SolveCounter`` that sees every ``lp.solve`` call."""
    counter = SolveCounter()
    solve = lp.solve

    def counting(program):
        counter.count += 1
        counter.shapes.append((program.num_rows, program.num_vars))
        return solve(program)

    monkeypatch.setattr(lp, "solve", counting)
    counter.reset()
    return counter


def inradius_by_lp(body, gauge):
    """r(body, gauge) from its own containment LP: maximize lambda subject to
    lambda*c + t in the body for every gauge vertex c."""
    n = check_same_dim(body, gauge)
    builder = lp.ProgramBuilder()
    t = builder.add_vars(n, free=True)
    lam = builder.add_var(objective=-ONE)  # maximize lambda
    for c in gauge.vertices:
        lhs = [{t[k]: ONE, lam: c[k]} for k in range(n)]
        builder.add_hull_membership(body.vertices, lhs, (ZERO,) * n, scale=-ONE)
    out = lp.solve(builder.build())
    if out.status == lp.UNBOUNDED:
        raise DegenerateGaugeError("inradius is unbounded: gauge is a single point")
    assert out.status == lp.OPTIMAL
    return -out.value, tuple(out.primal[v] for v in t)


def circumradius_by_vertices(body, gauge):
    """R(body, gauge) and a witness translation from the vertex-form LP:
    minimize lambda subject to v in t + lambda*conv(gauge) for every body
    vertex v; None when infeasible (no dilate of a flat gauge covers the
    body)."""
    n = check_same_dim(body, gauge)
    builder = lp.ProgramBuilder()
    t = builder.add_vars(n, free=True)
    lam = builder.add_var(objective=ONE)
    for v in body.vertices:
        builder.add_hull_membership(gauge.vertices, [{tk: ONE} for tk in t], v, mass=lam)
    out = lp.solve(builder.build())
    if out.status == lp.INFEASIBLE:
        return None
    assert out.status == lp.OPTIMAL
    return out.value, tuple(out.primal[v] for v in t)


def minkowski_center_by_vertices(body):
    """s(K) and a Minkowski center from the vertex-form LP of R(-K, K): its
    witness t gives the center c = -t/(1 + s).  A one-point body is its own
    center, with s = 1."""
    if len(body.vertices) == 1:
        return ONE, body.vertices[0]
    s, t = circumradius_by_vertices(negate(body), body)
    return s, tuple(-x / (1 + s) for x in t)


def minkowski_center_is_unique(body):
    """Whether the Minkowski centers of a body are one point: the least and
    the largest value of each coordinate over the center polytope, the c
    with -v + (1 + s) c in sK for every vertex v of K, agree.  Two LPs per
    coordinate, one membership block per vertex."""
    s, _ = minkowski_center_by_vertices(body)
    n = body.dim
    for j in range(n):
        ends = []
        for sign in (ONE, -ONE):
            builder = lp.ProgramBuilder()
            c = [builder.add_var(objective=sign if i == j else ZERO, free=True) for i in range(n)]
            for v in body.vertices:
                lhs = [{ci: -(1 + s)} for ci in c]
                builder.add_hull_membership(body.vertices, lhs, vneg(v), scale=s)
            out = lp.solve(builder.build())
            assert out.status == lp.OPTIMAL
            ends.append(sign * out.value)
        if ends[0] != ends[1]:
            return False
    return True


def circumradius_by_facet_rows(body, gauge):
    """R(body, gauge) from the facet-form primal LP against a
    full-dimensional gauge: minimize lambda subject to
    g.t + b lambda - slack = h(body, g) for every facet g.x <= b of the
    gauge, t free and lambda >= 0, one row per facet; the support values are
    rational."""
    n = check_same_dim(body, gauge)
    halves = facets(gauge)
    assert halves is not None, "the facet form needs a full-dimensional gauge"
    builder = lp.ProgramBuilder()
    t = builder.add_vars(n, free=True)
    lam = builder.add_var(objective=ONE)
    for g, b in halves:
        row = {tk: gk for tk, gk in zip(t, g) if gk}
        row[lam] = b
        row[builder.add_var()] = -ONE
        builder.add_row(row, support(body, g)[0])
    out = lp.solve(builder.build())
    assert out.status == lp.OPTIMAL
    return out.value


def _containment_by_facet_rows(builder, lhs, points, container, factor):
    """``lhs + p in factor * container`` for every vertex p of ``points``:
    one row g.lhs + slack = factor b - h(points, g) per facet g.x <= b of a
    full-dimensional container, one hull-membership block per point of a
    flat one."""
    halves = facets(container)
    if halves is None:
        for p in points.vertices:
            builder.add_hull_membership(container.vertices, lhs, vneg(p), scale=-factor)
        return
    for g, b in halves:
        row = {builder.add_var(): ONE}
        for gk, coord in zip(g, lhs):
            if gk:
                for var, coef in coord.items():
                    row[var] = row.get(var, ZERO) + gk * coef
        builder.add_row(row, factor * b - support(points, g)[0])


def concentric_by_facet_rows(body, gauge, mirrored, mutual):
    """The concentricity predicate from the primal feasibility LP over a
    Minkowski center c of the gauge and a translation t: every inclusion of
    ``theorems._concentric_feasible`` written as its rows over (c, t), one
    per facet of a full-dimensional container, with rational support
    values."""
    K, C = body, gauge
    n = check_same_dim(K, C)
    circ = circumradius(K, C)
    if circ is None:
        return False
    R = circ.value
    sigma, sigma_C = (-ONE, negate(C)) if mirrored else (ONE, C)
    r = inradius(K, sigma_C).value
    builder = lp.ProgramBuilder()
    c_vars = builder.add_vars(n, free=True)
    t_vars = builder.add_vars(n, free=True)
    sC = asymmetry(C).s
    _containment_by_facet_rows(builder, [{c: ONE + sC} for c in c_vars], negate(C), C, sC)
    if mutual:
        sK = asymmetry(K).s
        _containment_by_facet_rows(builder, [{t: ONE + sK} for t in t_vars], negate(K), K, sK)
    inner = [{t: ONE, c: -sigma * r} for c, t in zip(c_vars, t_vars)]
    _containment_by_facet_rows(builder, inner, scale(sigma_C, r), K, ONE)
    outer = [{t: -ONE, c: R} for c, t in zip(c_vars, t_vars)]
    _containment_by_facet_rows(builder, outer, K, C, R)
    return lp.solve(builder.build()).status == lp.OPTIMAL


def _in_hull_by_lp(point, points):
    """Whether the point lies in the hull of the list of points, from one
    membership LP."""
    builder = lp.ProgramBuilder()
    builder.add_hull_membership([vec(p) for p in points], [{}] * len(point), vec(point))
    return lp.solve(builder.build()).status == lp.OPTIMAL


def canonicalize_by_lp(points):
    """The extreme points of a list of points, sorted, as a vertex tuple:
    each point is dropped when one membership LP puts it in the hull of the
    others, in a single pass.  It reads the raw list, never a body, so it
    does not see the library's hull."""
    pts = list(dict.fromkeys(map(vec, points)))
    if len(pts) > 1:
        i = 0
        while i < len(pts):
            p = pts.pop(i)
            if _in_hull_by_lp(p, pts):
                continue
            pts.insert(i, p)
            i += 1
    return tuple(sorted(pts))


def bounded_by_lp(region):
    """Whether a halfspace region is bounded, from up to 2n LPs maximizing
    each coordinate and its negative over it; None when it is empty."""
    for k in range(region.dim):
        for sign in (ONE, -ONE):
            builder = lp.ProgramBuilder()
            xs = [
                builder.add_var(objective=-sign if j == k else ZERO, free=True)
                for j in range(region.dim)
            ]
            for h in region.halfspaces:
                row = {x: a for x, a in zip(xs, h.normal) if a}
                row[builder.add_var()] = ONE
                builder.add_row(row, h.offset)
            out = lp.solve(builder.build())
            if out.status == lp.INFEASIBLE:
                return None
            if out.status == lp.UNBOUNDED:
                return False
    return True


def rank(matrix):
    """Exact rank of a rational matrix by Gaussian elimination over
    fractions: the oracle for full-dimension and simplex tests."""
    rows = [[rat(x) for x in row] for row in matrix]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def solve_linear(matrix, rhs):
    """Exact solution of A x = b by Gauss-Jordan elimination over
    fractions: ``("unique", x)``, ``("underdetermined", w)`` with w a nonzero
    kernel vector of A, or ``("no_solution", None)``.  The oracle for the
    Cramer solves of ``ratcore.solve_square`` and for barycentric membership."""
    if len(matrix) != len(rhs):
        raise ValueError(f"matrix has {len(matrix)} rows but rhs has {len(rhs)} entries")
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    rows = [[rat(x) for x in row] + [rat(b)] for row, b in zip(matrix, rhs)]
    pivots = []
    for c in range(ncols + 1):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if c == ncols:  # a pivot in the rhs column: 0 = nonzero
            return "no_solution", None
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        prow = rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * p for a, p in zip(rows[i], prow)]
        pivots.append(c)
    if len(pivots) < ncols:
        free = next(c for c in range(ncols) if c not in pivots)
        witness = [ZERO] * ncols
        witness[free] = ONE
        for r, c in enumerate(pivots):
            witness[c] = -rows[r][free]
        return "underdetermined", tuple(witness)
    return "unique", tuple(rows[r][ncols] for r in range(ncols))


def det(matrix):
    """Exact determinant of a square rational matrix by Gaussian elimination
    over fractions: the oracle for the int cofactor normals of hull faces."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    rows = [[rat(x) for x in row] for row in matrix]
    sign = ONE
    result = ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        piv = rows[c][c]
        result *= piv
        inv = ONE / piv
        prow = [x * inv for x in rows[c]]
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                rows[i] = [a - f * p for a, p in zip(rows[i], prow)]
    return sign * result


def cofactor_normal(points):
    """A normal of the affine hull of n points in R^n from cofactor
    determinants of their differences to the first, over rationals; zero
    exactly when the points are affinely dependent."""
    base = points[0]
    dirs = [vsub(v, base) for v in points[1:]]
    normal = []
    for j in range(len(base)):
        minor = [[d[k] for k in range(len(base)) if k != j] for d in dirs]
        sign = ONE if j % 2 == 0 else -ONE
        normal.append(sign * (det(minor) if minor else ONE))
    return tuple(normal)


def facets_by_subsets(points):
    """The normalized facets of the hull of a list of points, None for a
    flat one, by brute force over n-subsets of the vertices of
    ``canonicalize_by_lp``, in reverse lexicographic subset order, each
    facet kept where first met."""
    verts = canonicalize_by_lp(points)
    n = len(verts[0])
    found = {}
    for subset in reversed(list(itertools.combinations(range(len(verts)), n))):
        normal = cofactor_normal([verts[i] for i in subset])
        if is_zero_vec(normal):
            continue
        offset = vdot(normal, verts[subset[0]])
        sides = {
            (x > offset) - (x < offset)
            for x in (vdot(normal, v) for i, v in enumerate(verts) if i not in subset)
        }
        if sides <= {0}:
            return None
        if sides >= {-1, 1}:
            continue
        if 1 in sides:
            normal, offset = vneg(normal), -offset
        found.setdefault(normalize_halfspace(Halfspace(normal, offset)), None)
    return tuple(found) or None


def sym_gauge_norm_by_lp(z, points):
    """The (C - C)/2 norm of z, for C the hull of a list of points, from its
    LP: minimize sum nu + sum nu' subject to z = sum nu_j c_j - sum nu'_j c_j
    over the points c_j and sum nu = sum nu'; None when infeasible (z
    outside the span of C - C)."""
    return _norm_lp(vec(z), canonicalize_by_lp(points))


def _norm_lp(zv, verts):
    """The optimum of the norm LP of ``sym_gauge_norm_by_lp`` over the points
    ``verts``, which need not be extreme; None when infeasible."""
    builder = lp.ProgramBuilder()
    plus = builder.add_vars(len(verts), objective=ONE)
    minus = builder.add_vars(len(verts), objective=ONE)
    for k in range(len(zv)):
        row = {}
        for p, m, c in zip(plus, minus, verts):
            if c[k]:
                row[p] = c[k]
                row[m] = -c[k]
        builder.add_row(row, zv[k])
    balance = {p: ONE for p in plus}
    balance.update({m: -ONE for m in minus})
    builder.add_row(balance, ZERO)
    out = lp.solve(builder.build())
    return None if out.status == lp.INFEASIBLE else out.value


def diameter_by_pairs(body, gauge):
    """``(D, pair)`` from the norm LP of every vertex difference over the
    gauge's vertices, the pair the first one, in vertex order, to attain D
    (None for a one-point body); None when some difference leaves the span
    of C - C.  It takes no norm from the library."""
    verts = body.vertices
    best, pair = ZERO, None
    for i, j in itertools.combinations(range(len(verts)), 2):
        norm = _norm_lp(vsub(verts[j], verts[i]), gauge.vertices)
        if norm is None:
            return None
        if norm > best:
            best, pair = norm, (verts[i], verts[j])
    return best, pair


def largest_vertex_norm_by_lp(body, gauge):
    """The largest norm LP value of a vertex of the body over the gauge's
    vertices; None when some vertex leaves the span of C - C."""
    norms = [_norm_lp(v, gauge.vertices) for v in body.vertices]
    return None if None in norms else max(norms)


def is_equilateral_by_lp(simplex, gauge):
    """Whether every edge of the simplex has the same norm LP value over the
    gauge's vertices, none of them None."""
    verts = simplex.vertices
    norms = {
        _norm_lp(vsub(verts[j], verts[i]), gauge.vertices)
        for i, j in itertools.combinations(range(len(verts)), 2)
    }
    return len(norms) == 1 and None not in norms


def gauge_value_by_cone(z, body):
    """The gauge function from its cone LP: minimize sum nu subject to
    z = sum nu_j v_j over the vertices v_j of the body, nu >= 0; None when
    infeasible (z outside the cone of the body)."""
    zv = vec(z)
    verts = body.vertices
    builder = lp.ProgramBuilder()
    nus = builder.add_vars(len(verts), objective=ONE)
    for k in range(body.dim):
        builder.add_row({nu: v[k] for nu, v in zip(nus, verts) if v[k]}, zv[k])
    out = lp.solve(builder.build())
    return out.value if out.status == lp.OPTIMAL else None


def hull2d(points):
    """Exact convex hull of 2D points (Andrew monotone chain), ccw order
    starting at the lexicographic minimum.  Oracle only; no LPs involved."""
    pts = sorted(set(tuple(vec(p)) for p in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def barycentric_inside(point, simplex_vertices):
    """Membership of a point in a simplex via its barycentric coordinates,
    solved directly (no LP).  Returns True iff all coordinates are >= 0."""
    verts = [tuple(vec(v)) for v in simplex_vertices]
    p = tuple(vec(point))
    n = len(p)
    assert len(verts) == n + 1
    rows = [[v[k] for v in verts] for k in range(n)] + [[ONE] * (n + 1)]
    rhs = list(p) + [ONE]
    status, coords = solve_linear(rows, rhs)
    assert status == "unique"
    return all(c >= ZERO for c in coords)


def in_translated_dilate(point, translation, factor, simplex_vertices):
    """point in translation + factor*S, via the barycentric oracle."""
    f = rat(factor)
    shifted = [a - b for a, b in zip(vec(point), vec(translation))]
    scaled = [[f * x for x in vec(v)] for v in simplex_vertices]
    return barycentric_inside(shifted, scaled)


def planar_point_sets(count, seed):
    """``count`` seeded planar point lists of 1 to 8 points, coordinates in
    [-2, 2] over denominators up to 1, 2, 3 or 4 in turn, so repeated points
    are common; every third list lies on one line, and every fourth repeats
    one of its points."""
    rng = SplitMix64(seed)
    for trial in range(count):
        size, den_bound = 1 + rng.below(8), 1 + trial % 4
        if trial % 3 == 0:
            base, step = rng.point(2, 2, den_bound), rng.point(2, 2, den_bound)
            ts = [rng.rational(2, den_bound) for _ in range(size)]
            pts = [tuple(b + t * d for b, d in zip(base, step)) for t in ts]
        else:
            pts = [rng.point(2, 2, den_bound) for _ in range(size)]
        if trial % 4 == 0:
            pts.append(pts[rng.below(size)])
        yield pts


def family_pairs():
    """(simplex, gauge) pairs of the paper's families: S and -S against the
    sandwich gauge on a small (lambda, mu) grid, in the plane and in space,
    both variants; S and -S against the mixed-triangle gauge moved off the
    origin; and the spiked pair in space."""
    for n, grid in ((2, (("1", "1/2"), ("3", "1"), ("2", "2"), ("1", "0"))), (3, (("1", "1/2"),))):
        for lam, mu in grid:
            for variant in ("min", "max"):
                pair = simplex_sandwich_pair(n, lam, mu, variant)
                for S in (pair.simplex, negate(pair.simplex)):
                    yield S, pair.gauge
    for lam in ("0", "1/4", "1/3", "1/2", "2/3", "1"):
        pair = triangle_mix_gauge(lam)
        gauge = translate(pair.gauge, (1, -2))  # Minkowski centers off the origin
        for S in (pair.simplex, negate(pair.simplex)):
            yield S, gauge
    pair = spiked_difference_pair(3)
    yield pair.simplex, pair.gauge


@st.composite
def small_bodies(draw, dim):
    """A list of 1 to dim+2 points with coordinates in [-3, 3],
    denominators up to 3."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(rat)
    count = draw(st.integers(1, dim + 2))
    return [draw(st.tuples(*[q] * dim)) for _ in range(count)]


def lattice_bodies(dim):
    """A list of 1 to 14 points of {-1, 0, 1}^dim over a common denominator
    1, 2 or 3: many repeated, collinear and coplanar points, and flat
    sets."""
    point = st.tuples(*[st.integers(-1, 1)] * dim)
    return st.builds(
        lambda pts, den: [tuple(rat(x) / den for x in p) for p in pts],
        st.lists(point, min_size=1, max_size=14),
        st.integers(1, 3),
    )


def spatial_hull_cases(seed):
    """Seeded 3-D point lists beyond ``test_bodies.spatial_point_sets``:
    small-integer lattice sets in {-1, 0, 1}^3 (many coplanar points),
    rational points, repeats, sets on one plane or line, and the vertices of
    the 12-vertex sandwich gauges and of their reflections."""
    rng = SplitMix64(seed)
    for trial in range(30):
        den = 1 + trial % 3
        size = 4 + rng.below(11)
        pts = [tuple(rat(rng.below(3) - 1) / den for _ in range(3)) for _ in range(size)]
        yield pts + pts[: trial % 3]
        yield [rng.point(3, 3, 4) for _ in range(4 + rng.below(9))]
        yield [(x, y, rat(trial % 2)) for x, y, _ in pts]
        yield [(x, x, y) for x, y, _ in pts]
    for lam, mu in (("1", "1/2"), ("3", "1"), ("2", "2"), ("1", "0")):
        for variant in ("min", "max"):
            gauge = simplex_sandwich_pair(3, lam, mu, variant).gauge
            yield list(gauge.vertices)
            yield list(negate(gauge).vertices)


@st.composite
def body_gauge_pairs(draw):
    dim = draw(st.sampled_from((2, 3)))
    return V(draw(small_bodies(dim))), V(draw(small_bodies(dim)))
