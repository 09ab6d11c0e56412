"""Shared fixtures and independent oracles.

The oracles here cross-check results through a second route: 2D hulls via
exact monotone chain and simplex membership via barycentric coordinates from
a direct linear solve (both without LPs), the inradius from its own
containment LP rather than from the circumradius, and the circumradius from
the vertex-form LP rather than the facet form.  The circumradius value and
the concentricity predicates, which the library decides on the small side of
LP duality, are checked against the primal programs they replaced, one row
per facet.  The hulls, facets and (C - C)/2 norm, which the library computes
on integer images, are checked against the general routes they replaced: one
membership LP per point, brute force over vertex subsets with rational
cofactor normals, and the norm LP.  The norm LP also checks the norm taken
as twice a segment's circumradius, and the cone LP checks the gauge
function written as one hull-membership block.
"""

import itertools
import sys

import pytest
from hypothesis import strategies as st

from gaugeradii import lp
from gaugeradii.bodies import (
    Halfspace,
    VPolytope,
    canonicalize,
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
from gaugeradii.radii import DegenerateGaugeError, asymmetry, circumradius, inradius
from gaugeradii.ratcore import (
    ONE,
    ZERO,
    det,
    is_zero_vec,
    rat,
    solve_linear,
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
    body, gauge = canonicalize(body), canonicalize(gauge)
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
    body, gauge = canonicalize(body), canonicalize(gauge)
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


def circumradius_by_facet_rows(body, gauge):
    """R(body, gauge) from the facet-form primal LP against a
    full-dimensional gauge: minimize lambda subject to
    g.t + b lambda - slack = h(body, g) for every facet g.x <= b of the
    gauge, t free and lambda >= 0, one row per facet; the support values are
    rational."""
    body, gauge = canonicalize(body), canonicalize(gauge)
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
    K, C = canonicalize(body), canonicalize(gauge)
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
    builder = lp.ProgramBuilder()
    builder.add_hull_membership(points, [{}] * len(point), point)
    return lp.solve(builder.build()).status == lp.OPTIMAL


def canonicalize_by_lp(body):
    """The extreme points of the body, sorted: each point is dropped when one
    membership LP puts it in the hull of the others, in a single pass."""
    pts = list(dict.fromkeys(body.vertices))
    if len(pts) > 1:
        i = 0
        while i < len(pts):
            p = pts.pop(i)
            if _in_hull_by_lp(p, pts):
                continue
            pts.insert(i, p)
            i += 1
    return VPolytope(body.dim, tuple(sorted(pts)), canonical=True)


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


def facets_by_subsets(body):
    """The normalized facets of a full-dimensional body, None for a flat one,
    by brute force over n-subsets of the vertices of ``canonicalize_by_lp``,
    in reverse lexicographic subset order, each facet kept where first met."""
    verts = canonicalize_by_lp(body).vertices
    n = body.dim
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


def sym_gauge_norm_by_lp(z, gauge):
    """The (C - C)/2 norm of z from its LP: minimize sum nu + sum nu' subject
    to z = sum nu_j c_j - sum nu'_j c_j and sum nu = sum nu'; None when
    infeasible (z outside the span of C - C)."""
    zv = vec(z)
    verts = canonicalize_by_lp(gauge).vertices
    builder = lp.ProgramBuilder()
    plus = builder.add_vars(len(verts), objective=ONE)
    minus = builder.add_vars(len(verts), objective=ONE)
    for k in range(gauge.dim):
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


def gauge_value_by_cone(z, body):
    """The gauge function from its cone LP: minimize sum nu subject to
    z = sum nu_j v_j over the vertices v_j of the body, nu >= 0; None when
    infeasible (z outside the cone of the body)."""
    zv = vec(z)
    verts = canonicalize(body).vertices
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
    res = solve_linear(rows, rhs)
    assert res.status == "unique"
    return all(c >= ZERO for c in res.solution)


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
        yield V(pts)


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
    """1 to dim+2 points with coordinates in [-3, 3], denominators up to 3."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(rat)
    count = draw(st.integers(1, dim + 2))
    return V([draw(st.tuples(*[q] * dim)) for _ in range(count)])


@st.composite
def body_gauge_pairs(draw):
    dim = draw(st.sampled_from((2, 3)))
    return draw(small_bodies(dim)), draw(small_bodies(dim))
