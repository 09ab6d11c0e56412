"""Polytope representations and Minkowski algebra over exact rationals.

The vertex representation is primary: the radii downstream reduce to
containment LPs over vertex lists, or over the facets of a full-dimensional
gauge computed from them.  Halfspace representations come from exact
desk-scale routines, since general V/H conversion is out of scope here:
``facets`` reads a polygon's edges off its counter-clockwise ring, a
3-polytope's facets off its beneath-beyond hull and, from four dimensions
on, keeps the hyperplanes through n vertices that have every vertex on one
side (a simplex's n+1 facets are its special case); ``enumerate_vertices``
goes back from halfspaces to vertices.

Bodies are immutable value objects; operations are pure functions, so results
may be shared freely and cached.  ``canonicalize`` keeps exactly the extreme
points and sorts them, which makes vertex-set equality of polytopes a plain
tuple comparison: in the plane by Andrew's monotone chain, in space by the
beneath-beyond hull, and for flat sets in space and from four dimensions on
with one membership LP per point.

Hulls in the plane and in space, facets, widths and the full-dimension test
``spans_space`` are decided on ``integer_image``: the points times the lcm
of their denominators, so every sign and dot product is a Python int
operation, and a ``Rational`` is formed only for a result.  Membership in a
full-dimensional body in two or three dimensions is a sign test per facet;
other vertex bodies solve a hull-membership LP.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, NamedTuple

from . import lp
from .ratcore import (
    ONE,
    ZERO,
    Rational,
    Vec,
    det,
    rat,
    rat_str,
    solve_linear,
    vadd,
    vcross,
    vdot,
    vec,
    vneg,
    vscale,
    vsub,
    vzero,
)


class DimensionMismatchError(ValueError):
    """Bodies or directions of different ambient dimensions were combined."""


class DegenerateSimplexError(ValueError):
    """Expected dim+1 affinely independent vertices."""


class UnboundedRegionError(ValueError):
    """A halfspace intersection is unbounded where a polytope was required."""


class ScaleGuardError(ValueError):
    """Brute-force enumeration request exceeds the desk-scale guard."""


@dataclass(frozen=True)
class VPolytope:
    """Convex body given by a finite list of rational vertices.

    ``canonical`` is True once no listed point is in the convex hull of the
    others and the list is sorted lexicographically.

    The hash is the one the dataclass would compute, taken once here: bodies
    key every memo cache, and hashing a ``Rational`` costs a modular inverse.
    """

    dim: int
    vertices: tuple
    canonical: bool = False

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a polytope needs at least one point")
        for v in self.vertices:
            if len(v) != self.dim:
                raise DimensionMismatchError(
                    f"point of length {len(v)} in a {self.dim}-dimensional body"
                )
        object.__setattr__(self, "_hash", hash((self.dim, self.vertices, self.canonical)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_points(cls, points: Iterable, dim: int | None = None) -> "VPolytope":
        pts = tuple(vec(p) for p in points)
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension from an empty point list")
            dim = len(pts[0])
        return cls(dim=dim, vertices=pts)

    def __repr__(self) -> str:
        pts = ", ".join("(" + ", ".join(map(str, v)) + ")" for v in self.vertices[:6])
        more = "" if len(self.vertices) <= 6 else f", ... {len(self.vertices)} vertices"
        return f"VPolytope[{self.dim}d: {pts}{more}]"


class Halfspace(NamedTuple):
    normal: tuple
    offset: Rational


@dataclass(frozen=True)
class HPolytope:
    """Intersection of halfspaces ``normal . x <= offset``."""

    dim: int
    halfspaces: tuple

    def __post_init__(self):
        for h in self.halfspaces:
            if len(h.normal) != self.dim:
                raise DimensionMismatchError("halfspace normal of wrong length")


def check_same_dim(*bodies) -> int:
    dims = {b.dim for b in bodies}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed ambient dimensions: {sorted(dims)}")
    return dims.pop()


# ---------------------------------------------------------------------------
# support and membership


def support(body: VPolytope, direction) -> tuple:
    """h(K, a) = max a.v over vertices; returns (value, indices of argmax)."""
    a = vec(direction)
    if len(a) != body.dim:
        raise DimensionMismatchError("direction length does not match body dimension")
    best = None
    argmax: list[int] = []
    for i, v in enumerate(body.vertices):
        val = vdot(a, v)
        if best is None or val > best:
            best = val
            argmax = [i]
        elif val == best:
            argmax.append(i)
    return best, tuple(argmax)


def integer_image(points) -> tuple:
    """``(den, images)``: ``den`` is the lcm of the denominators of every
    coordinate of ``points``, and ``images`` lists the points times ``den``
    as int tuples.  Since ``den > 0``, orders, signs and dot products of the
    points are those of their images, up to a positive factor."""
    den = math.lcm(*(q.denominator for p in points for q in p))
    return den, [tuple(q.numerator * (den // q.denominator) for q in p) for p in points]


def integer_support(images, a) -> int:
    """max a.p over int points ``images``, for an int vector a."""
    return max(sum(map(mul, a, p)) for p in images)


def integer_width(images, a) -> int:
    """max a.p - min a.p over int points ``images``, for an int vector a."""
    dots = [sum(map(mul, a, p)) for p in images]
    return max(dots) - min(dots)


def width(body: VPolytope, direction) -> Rational:
    """h(K, a) + h(K, -a), the extent of the body along a, from the integer
    images of its vertices and of a."""
    a = vec(direction)
    if len(a) != body.dim:
        raise DimensionMismatchError("direction length does not match body dimension")
    da, (ai,) = integer_image([a])
    den, images = integer_image(body.vertices)
    return Rational(integer_width(images, ai), den * da)


def spans_space(points) -> bool:
    """True when the affine hull of ``points`` is the whole space.

    Decided on integer images by fraction-free elimination of the
    differences to the first point: each step keeps one nonzero difference
    and replaces every other by a combination with a zero in its leading
    coordinate (in the plane, their cross products with it), and the hull
    is full exactly when that succeeds once per coordinate."""
    _, images = integer_image(points)
    base = images[0]
    rows = [[a - b for a, b in zip(p, base)] for p in images[1:]]
    for _ in base:
        rows = [r for r in rows if any(r)]
        if not rows:
            return False
        pivot = rows.pop()
        c = next(j for j, a in enumerate(pivot) if a)
        p = pivot[c]
        rows = [[p * a - r[c] * b for a, b in zip(r, pivot)] for r in rows]
    return True


def _in_hull(point: Vec, points: list) -> bool:
    """Membership in conv(points) via a feasibility LP over convex weights."""
    builder = lp.ProgramBuilder()
    builder.add_hull_membership(points, [{}] * len(point), point)
    return lp.solve(builder.build()).status == lp.OPTIMAL


def contains_point(body, point) -> bool:
    """Exact membership test for either representation.  A full-dimensional
    vertex body in two or three dimensions takes one sign test per facet of
    its ``facets``; other vertex bodies solve a hull-membership LP."""
    x = vec(point)
    if len(x) != body.dim:
        raise DimensionMismatchError("point length does not match body dimension")
    if isinstance(body, HPolytope):
        halves = body.halfspaces
    else:
        halves = facets(body) if body.dim in (2, 3) else None
        if halves is None:
            return _in_hull(x, list(body.vertices))
    return all(vdot(g, x) <= b for g, b in halves)


# ---------------------------------------------------------------------------
# canonical forms


def _ccw_ring(images) -> list:
    """Indices of the extreme points among sorted, distinct planar int
    points, counter-clockwise from the first (Andrew's monotone chain).
    Popping on a cross product <= 0 drops the points inside an edge, so a
    collinear set gives its two ends."""

    def chain(order):
        hull = []
        for i in order:
            x, y = images[i]
            while len(hull) >= 2:
                (ox, oy), (ax, ay) = images[hull[-2]], images[hull[-1]]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                hull.pop()
            hull.append(i)
        return hull

    if len(images) < 3:
        return list(range(len(images)))
    return chain(range(len(images)))[:-1] + chain(reversed(range(len(images))))[:-1]


def _hull3(images) -> tuple | None:
    """The convex hull of int points in Z^3 by beneath-beyond: ``(vertices,
    planes)``, the ascending indices of the extreme points (the first of
    equal images) and a dict from each facet's outward primitive plane
    ``(normal, offset)`` to the ascending indices of the extreme points on
    it; None when the points are flat.

    It starts from a tetrahedron on the first affinely independent points.
    Each further point drops the triangles it strictly sees and closes the
    horizon with triangles to itself; a point that sees none is in the hull
    so far.  The triangles merge by their primitive plane, and a point on
    the final surface is extreme exactly when the normals of the planes
    through it span R^3: one inside a facet or an edge lies on one or two.
    """
    first = {}
    for i, p in enumerate(images):
        first.setdefault(p, i)
    pts = list(first)
    faces = {}  # (i, j, k), counter-clockwise seen from outside -> (normal, offset)
    edges = {}  # directed edge of a face -> that face

    def normal(i, j, k):
        a = pts[i]
        return vcross([x - y for x, y in zip(pts[j], a)], [x - y for x, y in zip(pts[k], a)])

    def add(i, j, k):
        n = normal(i, j, k)
        faces[i, j, k] = n, sum(map(mul, n, pts[i]))
        edges[i, j] = edges[j, k] = edges[k, i] = (i, j, k)

    try:  # a base triangle (0, 1, c) and an apex d off its plane
        c = next(k for k in range(2, len(pts)) if any(normal(0, 1, k)))
        n = normal(0, 1, c)
        off = sum(map(mul, n, pts[0]))
        d = next(k for k in range(c + 1, len(pts)) if sum(map(mul, n, pts[k])) != off)
    except StopIteration:
        return None
    if sum(map(mul, n, pts[d])) > off:  # the apex above the base: turn the base over
        add(0, c, 1), add(c, 0, d), add(1, c, d), add(0, 1, d)
    else:
        add(0, 1, c), add(1, 0, d), add(c, 1, d), add(0, c, d)
    for q in range(2, len(pts)):
        if q == c or q == d:
            continue
        x = pts[q]
        seen = {f for f, (n, off) in faces.items() if sum(map(mul, n, x)) > off}
        horizon = [
            (u, v)
            for i, j, k in seen
            for u, v in ((i, j), (j, k), (k, i))
            if edges[v, u] not in seen
        ]
        for f in seen:
            del faces[f]
        for u, v in horizon:
            add(u, v, q)
    planes = {}
    for (i, j, k), (n, off) in faces.items():
        g = math.gcd(*n)
        planes.setdefault((tuple(a // g for a in n), off // g), set()).update((i, j, k))
    through = {}  # the origin and the normals of the planes through a point
    for (n, _), on in planes.items():
        for i in on:
            through.setdefault(i, [(0, 0, 0)]).append(n)
    extreme = {i for i, normals in through.items() if spans_space(normals)}
    index = list(first.values())
    return [index[i] for i in sorted(extreme)], {
        plane: [index[i] for i in sorted(on & extreme)] for plane, on in planes.items()
    }


@lru_cache(maxsize=None)
def canonicalize(body: VPolytope) -> VPolytope:
    """Drop every point inside the hull of the others, dedupe and sort.

    In the plane the extreme points are the ring of ``_ccw_ring`` on the
    sorted integer images, and in space the vertices of ``_hull3`` on the
    integer images.  Flat sets in space and points from four dimensions on
    are each tested for membership in the hull of the others: removing a
    non-extreme point never changes the hull, so a single pass is enough,
    and the surviving points are exactly the extreme ones.
    """
    if body.canonical:
        return body
    if body.dim == 2:
        # equal images are equal points, so the dict also drops duplicates
        by_image = sorted(dict(zip(integer_image(body.vertices)[1], body.vertices)).items())
        ring = _ccw_ring([image for image, _ in by_image])
        return VPolytope(2, tuple(by_image[i][1] for i in sorted(ring)), canonical=True)
    hull = _hull3(integer_image(body.vertices)[1]) if body.dim == 3 else None
    if hull is not None:
        return VPolytope(3, tuple(sorted(body.vertices[i] for i in hull[0])), canonical=True)
    pts = list(dict.fromkeys(body.vertices))
    if len(pts) > 1:
        i = 0
        while i < len(pts):
            p = pts.pop(i)
            if _in_hull(p, pts):
                continue
            pts.insert(i, p)
            i += 1
    return VPolytope(body.dim, tuple(sorted(pts)), canonical=True)


def same_vertex_set(a: VPolytope, b: VPolytope) -> bool:
    """Exact equality of the represented bodies (canonical vertex lists)."""
    check_same_dim(a, b)
    return canonicalize(a).vertices == canonicalize(b).vertices


# ---------------------------------------------------------------------------
# Minkowski algebra


def translate(body: VPolytope, shift) -> VPolytope:
    t = vec(shift)
    if len(t) != body.dim:
        raise DimensionMismatchError("translation length does not match body dimension")
    verts = tuple(vadd(v, t) for v in body.vertices)
    if body.canonical:
        return VPolytope(body.dim, tuple(sorted(verts)), canonical=True)
    return VPolytope(body.dim, verts)


def negate(body: VPolytope) -> VPolytope:
    verts = tuple(vneg(v) for v in body.vertices)
    if body.canonical:
        return VPolytope(body.dim, tuple(sorted(verts)), canonical=True)
    return VPolytope(body.dim, verts)


def scale(body: VPolytope, factor) -> VPolytope:
    """Dilation by factor >= 0 (compose with ``negate`` for negatives)."""
    f = rat(factor)
    if f < 0:
        raise ValueError("dilation factor must be nonnegative; use negate() first")
    if f == 0:
        return VPolytope(body.dim, (vzero(body.dim),), canonical=True)
    verts = tuple(vscale(f, v) for v in body.vertices)
    if body.canonical:
        return VPolytope(body.dim, tuple(sorted(verts)), canonical=True)
    return VPolytope(body.dim, verts)


def minkowski_sum(a: VPolytope, b: VPolytope) -> VPolytope:
    """Canonicalized pairwise vertex sums of the two bodies."""
    check_same_dim(a, b)
    sums = tuple(vadd(u, v) for u in a.vertices for v in b.vertices)
    return canonicalize(VPolytope(a.dim, sums))


@lru_cache(maxsize=None)
def difference_body(body: VPolytope) -> VPolytope:
    """K + (-K); always origin-symmetric.

    For a body that is already centrally symmetric about c this is just
    2(K - c), which skips the quadratic pairwise-sum canonicalization.
    """
    sym, center = is_centrally_symmetric(body)
    if sym:
        return scale(translate(canonicalize(body), vneg(center)), 2)
    return minkowski_sum(body, negate(body))


@lru_cache(maxsize=None)
def is_centrally_symmetric(body: VPolytope) -> tuple:
    """(True, center) iff the canonical vertex set equals its reflection
    through the vertex mean — the only possible center."""
    k = canonicalize(body)
    c = vertex_centroid(k)
    twice_c = vadd(c, c)
    reflected = tuple(sorted(vsub(twice_c, v) for v in k.vertices))
    if reflected == k.vertices:
        return True, c
    return False, None


def vertex_centroid(body: VPolytope) -> Vec:
    """Arithmetic mean of the vertex list (the centroid, for a simplex)."""
    total = body.vertices[0]
    for v in body.vertices[1:]:
        total = vadd(total, v)
    return vscale(ONE / len(body.vertices), total)


# ---------------------------------------------------------------------------
# facets, halfspaces, enumeration


def is_simplex(body: VPolytope) -> bool:
    """n + 1 canonical vertices and n + 1 ``facets``; the same test
    ``simplex_hrep`` makes, so the facets are found once for both."""
    k = canonicalize(body)
    if len(k.vertices) != k.dim + 1:
        return False
    halves = facets(k)
    return halves is not None and len(halves) == k.dim + 1


def normalize_halfspace(half: Halfspace) -> Halfspace:
    """Scale by a positive rational so the normal is a primitive integer
    vector; makes halfspace lists comparable."""
    entries = list(half.normal) + [half.offset]
    denom_lcm = 1
    for q in entries:
        denom_lcm = math.lcm(denom_lcm, int(q.denominator))
    ints = [int(q * denom_lcm) for q in entries]
    g = 0
    for z in ints[:-1]:
        g = math.gcd(g, abs(z))
    if g == 0:
        raise ValueError("zero normal in halfspace")
    scale_q = Rational(denom_lcm, g)
    return Halfspace(
        tuple(q * scale_q for q in half.normal), half.offset * scale_q
    )


def _cofactor_normal(dirs: list) -> list:
    """A normal of the span of n - 1 int vectors in Z^n: the signed
    cofactor determinants; zero exactly when the vectors are dependent."""
    if not dirs:
        return [1]
    return [
        (-1) ** j * int(det([d[:j] + d[j + 1 :] for d in dirs])) for j in range(len(dirs[0]))
    ]


@lru_cache(maxsize=None)
def facets(body: VPolytope) -> tuple | None:
    """Exact facet description of a full-dimensional polytope: the
    normalized halfspaces ``normal . x <= offset``, one per facet; None when
    the body is flat.

    The facets come in the order in which a walk over the n-subsets of
    canonical vertex indices, in reverse lexicographic order, first meets
    them; so the facets of a simplex come out opposite its vertices in vertex
    order.  A polygon's edges are read off its counter-clockwise ring
    (``_polygon_edges``).  A 3-polytope's facets are the planes of
    ``_hull3``, sorted by their three largest vertex indices, descending.
    Otherwise the walk is a brute force on the integer images of the
    vertices: a hyperplane through n affinely independent vertices, with the
    int normal ``_cofactor_normal`` of their differences, is a facet
    hyperplane exactly when every vertex lies on one side of it, and the
    body is flat when every vertex lies on it or no such subset exists.  A
    facet with more than n vertices is met once per n-subset and kept once.
    The normal is made primitive, and the offset is the image offset over
    the lcm of the denominators.
    """
    k = canonicalize(body)
    if k.dim == 2:
        return _polygon_edges(k)
    den, images = integer_image(k.vertices)
    if k.dim == 3:
        # Any three vertices of a facet are affinely independent, so the
        # walk first meets a facet at its three largest vertex indices.
        hull = _hull3(images)
        return None if hull is None else tuple(
            Halfspace(tuple(map(Rational, normal)), Rational(offset, den))
            for (normal, offset), _ in sorted(
                hull[1].items(), key=lambda item: item[1][-3:], reverse=True
            )
        )
    found = {}
    for subset in reversed(list(itertools.combinations(range(len(images)), k.dim))):
        base = images[subset[0]]
        normal = _cofactor_normal(
            [[a - b for a, b in zip(images[i], base)] for i in subset[1:]]
        )
        if not any(normal):
            continue
        offset = sum(map(mul, normal, base))
        below = above = False
        for i, p in enumerate(images):
            if i not in subset:
                x = sum(map(mul, normal, p))
                below |= x < offset
                above |= x > offset
                if below and above:  # stop at the first vertex on the far side
                    break
        if below and above:  # vertices on both sides: no facet
            continue
        if not (below or above):  # every vertex on this hyperplane
            return None
        g = math.gcd(*normal)
        if above:  # every vertex on the far side: flip
            g = -g
        found.setdefault((tuple(a // g for a in normal), offset // g), None)
    return tuple(
        Halfspace(tuple(map(Rational, normal)), Rational(offset, den))
        for normal, offset in found
    ) or None  # no n affinely independent vertices


def _polygon_edges(polygon: VPolytope) -> tuple | None:
    """The normalized edges of a canonical polygon, None for a flat one.

    Along the counter-clockwise ring, the edge from p to q has the outward
    primitive int normal (dy, -dx) of d = q - p and the offset normal . p,
    both on the integer images; edges sort by their index pairs, descending,
    as ``facets`` orders them."""
    den, images = integer_image(polygon.vertices)
    ring = _ccw_ring(images)
    if len(ring) < 3:
        return None
    edges = []
    for i, j in zip(ring, ring[1:] + ring[:1]):
        (px, py), (qx, qy) = images[i], images[j]
        a, b = qy - py, px - qx
        g = math.gcd(a, b)
        a, b = a // g, b // g
        half = Halfspace((Rational(a), Rational(b)), Rational(a * px + b * py, den))
        edges.append(((min(i, j), max(i, j)), half))
    edges.sort(reverse=True)
    return tuple(half for _, half in edges)


def simplex_hrep(body: VPolytope) -> HPolytope:
    """Exact facet description of a simplex: the ``facets`` of a body with
    n + 1 of them, the i-th opposite the i-th canonical vertex."""
    halves = facets(body)
    if halves is None or len(halves) != body.dim + 1:
        raise DegenerateSimplexError(
            f"not a simplex: need {body.dim + 1} affinely independent vertices"
        )
    return HPolytope(body.dim, halves)


def intersect(a: HPolytope, b: HPolytope) -> HPolytope:
    """Concatenated (deduplicated) halfspace lists."""
    check_same_dim(a, b)
    seen = dict.fromkeys(
        normalize_halfspace(h) for h in (*a.halfspaces, *b.halfspaces)
    )
    return HPolytope(a.dim, tuple(seen))


def _hrep_support(region: HPolytope, direction: Vec):
    """max direction.x over the region, or None when unbounded."""
    builder = lp.ProgramBuilder()
    xs = [builder.add_var(objective=-direction[k], free=True) for k in range(region.dim)]
    for h in region.halfspaces:
        slack = builder.add_var()
        row = {x: h.normal[k] for k, x in enumerate(xs) if h.normal[k]}
        row[slack] = ONE
        builder.add_row(row, h.offset)
    out = lp.solve(builder.build())
    if out.status == lp.UNBOUNDED:
        return None
    if out.status == lp.INFEASIBLE:
        raise ValueError("empty halfspace intersection")
    return -out.value


# Size guard of ``enumerate_vertices``: its subset loop grows as C(m, n).
ENUMERATION_MAX_DIM = 4
ENUMERATION_MAX_HALFSPACES = 16


def enumerate_vertices(region: HPolytope) -> VPolytope:
    """Brute-force vertex enumeration of a bounded low-dimensional H-polytope.

    Solves the square system of every dim-subset of halfspaces and keeps the
    feasible unique solutions; each such point sits on dim independent active
    constraints and is therefore a vertex, and every vertex arises this way.
    Regions beyond ``ENUMERATION_MAX_DIM`` dimensions or
    ``ENUMERATION_MAX_HALFSPACES`` halfspaces raise ``ScaleGuardError``.
    """
    n = region.dim
    if n > ENUMERATION_MAX_DIM or len(region.halfspaces) > ENUMERATION_MAX_HALFSPACES:
        raise ScaleGuardError(
            f"enumeration guard: dim {n} (max {ENUMERATION_MAX_DIM}), "
            f"{len(region.halfspaces)} halfspaces (max {ENUMERATION_MAX_HALFSPACES})"
        )
    for k in range(n):
        for sgn in (ONE, -ONE):
            d = [ZERO] * n
            d[k] = sgn
            if _hrep_support(region, tuple(d)) is None:
                raise UnboundedRegionError("halfspace intersection is unbounded")
    found = {}
    for subset in itertools.combinations(region.halfspaces, n):
        res = solve_linear([h.normal for h in subset], [h.offset for h in subset])
        if res.status != "unique":
            continue
        x = res.solution
        if all(vdot(h.normal, x) <= h.offset for h in region.halfspaces):
            found[x] = None
    if not found:
        raise ValueError("empty halfspace intersection")
    return VPolytope(n, tuple(sorted(found)), canonical=True)


# ---------------------------------------------------------------------------
# JSON forms (the on-disk body format of the CLI)


def body_to_json(body) -> dict:
    if isinstance(body, VPolytope):
        return {
            "dim": body.dim,
            "vertices": [[rat_str(x) for x in v] for v in body.vertices],
        }
    return {
        "dim": body.dim,
        "halfspaces": [
            {"normal": [rat_str(x) for x in h.normal], "offset": rat_str(h.offset)}
            for h in body.halfspaces
        ],
    }


def body_from_json(data: dict):
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("body JSON needs a 'dim' field")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    if "vertices" in data:
        return VPolytope.from_points(data["vertices"], dim=dim)
    if "halfspaces" in data:
        halves = tuple(
            Halfspace(vec(h["normal"]), rat(h["offset"])) for h in data["halfspaces"]
        )
        return HPolytope(dim, halves)
    raise ValueError("body JSON needs 'vertices' or 'halfspaces'")
