"""Polytope representations and Minkowski algebra over exact rationals.

The vertex representation is primary: the radii downstream reduce to
containment LPs over vertex lists, or over the facets of a full-dimensional
gauge computed from them.  Halfspace representations come from exact
desk-scale routines, since general V/H conversion is out of scope here:
``facets`` reads the facets off one convex hull, ``enumerate_vertices``
goes back from halfspaces to vertices by a Cramer solve
(``ratcore.solve_square``) of every square subsystem.

Bodies are immutable value objects; operations are pure functions, so results
may be shared freely and cached.  ``canonicalize`` keeps exactly the extreme
points and sorts them, which makes vertex-set equality of polytopes a plain
tuple comparison.

Hulls, facets, membership, widths and the full-dimension test
``spans_space`` are decided on ``integer_image``: the points times the lcm
of their denominators, so every sign and dot product is a Python int
operation, and a ``Rational`` is formed only for a result.  One hull,
``_hull``, serves every dimension: Andrew's monotone chain in the plane,
beneath-beyond elsewhere, with face normals from cross products in space
and from the Bareiss determinants of ``ratcore.int_det`` beyond.  A flat
set is hulled inside its affine hull, projected onto the coordinates that
map it one-to-one.  Nothing here solves an LP.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, NamedTuple

from .ratcore import (
    ONE,
    Rational,
    Vec,
    int_det,
    rat,
    rat_str,
    solve_square,
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


def _independent(rows, limit: int) -> tuple:
    """Fraction-free elimination of int vectors, in order, until ``limit``
    of them are kept: ``(kept, columns)``, the positions of the vectors
    that are linearly independent of the kept ones before them, and the
    coordinate each was pivoted on.  A kept vector is reduced to zero in
    the earlier pivot coordinates, so the kept vectors restricted to the
    pivot coordinates form an invertible triangular matrix."""
    basis = []
    kept = []
    for pos, r in enumerate(rows):
        if len(kept) == limit:
            break
        for b, c in basis:
            f = r[c]
            if f:
                r = [b[c] * x - f * y for x, y in zip(r, b)]
        c = next((j for j, x in enumerate(r) if x), None)
        if c is not None:
            basis.append((r, c))
            kept.append(pos)
    return kept, [c for _, c in basis]


def _differences(images) -> list:
    """The int differences of ``images[1:]`` to ``images[0]``."""
    base = images[0]
    return [[a - b for a, b in zip(p, base)] for p in images[1:]]


def spans_space(points) -> bool:
    """True when the affine hull of ``points`` is the whole space: the
    differences of their integer images to the first are n independent
    vectors under ``_independent``."""
    _, images = integer_image(points)
    return len(_independent(_differences(images), len(images[0]))[0]) == len(images[0])


def contains_point(body, point) -> bool:
    """Exact membership test for either representation.  A full-dimensional
    vertex body takes one sign test per facet of its ``facets``; a flat one
    holds x exactly when x is one of its points or no extreme point of the
    body and x together, on their common integer images."""
    x = vec(point)
    if len(x) != body.dim:
        raise DimensionMismatchError("point length does not match body dimension")
    if isinstance(body, HPolytope):
        halves = body.halfspaces
    else:
        halves = facets(body)
        if halves is None:
            *points, xi = integer_image(body.vertices + (x,))[1]
            pts = sorted({xi, *points})
            return xi in points or pts.index(xi) not in _extreme(pts)
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


def _cofactor_normal(dirs: list) -> list:
    """A normal of the span of n - 1 int vectors in Z^n: the signed
    cofactor determinants; zero exactly when the vectors are dependent."""
    if not dirs:
        return [1]
    return [(-1) ** j * int_det([d[:j] + d[j + 1 :] for d in dirs]) for j in range(len(dirs[0]))]


def _hull(pts) -> tuple | None:
    """The convex hull of distinct int points in Z^n, sorted:
    ``(vertices, planes)``, the ascending indices of the extreme points and
    a dict from each facet's outward primitive plane ``(normal, offset)`` to
    the ascending indices of the extreme points on it; None when the points
    are flat.

    In the plane the extreme points are the ``_ccw_ring``, and its edges
    are the facets.  In any other dimension the hull is built
    beneath-beyond, with faces that are simplices of n points: it starts
    from a simplex on the first affinely independent points and turns
    every face away from the sum of the simplex's points, which is n + 1
    times an interior point.  Each further point drops the faces it
    strictly sees and joins itself to the horizon: the ridges (faces less
    one point) of exactly one seen face.  A point that sees none is in the
    hull so far.  The faces merge by their primitive plane, and a point on
    the final surface is extreme exactly when the normals of the planes
    through it span R^n: one inside a lower face lies only on planes that
    contain that face.
    """
    n = len(pts[0])
    if n == 2:
        ring = _ccw_ring(pts)
        if len(ring) < 3:
            return None
        planes = {}
        for i, j in zip(ring, ring[1:] + ring[:1]):
            (px, py), (qx, qy) = pts[i], pts[j]
            a, b = qy - py, px - qx
            g = math.gcd(a, b)
            planes[(a // g, b // g), (a * px + b * py) // g] = [i, j] if i < j else [j, i]
        return sorted(ring), planes
    kept, _ = _independent(_differences(pts), n)
    if len(kept) < n:
        return None
    simplex = [0] + [i + 1 for i in kept]
    inner = [sum(c) for c in zip(*(pts[i] for i in simplex))]
    faces = {}  # a face's ascending point indices -> its outward (normal, offset)

    def add(face):
        a = pts[face[0]]
        dirs = [[x - y for x, y in zip(pts[i], a)] for i in face[1:]]
        normal = vcross(*dirs) if n == 3 else _cofactor_normal(dirs)
        offset = sum(map(mul, normal, a))
        if sum(map(mul, normal, inner)) > (n + 1) * offset:
            normal, offset = [-x for x in normal], -offset
        faces[face] = normal, offset

    for i in simplex:
        add(tuple(j for j in simplex if j != i))
    for q, x in enumerate(pts):
        if q in simplex:
            continue
        seen = [f for f, (a, b) in faces.items() if sum(map(mul, a, x)) > b]
        ridges = Counter(r for f in seen for r in itertools.combinations(f, n - 1))
        for f in seen:
            del faces[f]
        for r, count in ridges.items():
            if count == 1:
                add(tuple(sorted(r + (q,))))
    planes = {}
    for face, (normal, offset) in faces.items():
        g = math.gcd(*normal)
        planes.setdefault((tuple(a // g for a in normal), offset // g), set()).update(face)
    through = {}
    for (normal, _), on in planes.items():
        for i in on:
            through.setdefault(i, []).append(normal)
    extreme = {i for i, normals in through.items() if len(_independent(normals, n)[0]) == n}
    return sorted(extreme), {plane: sorted(on & extreme) for plane, on in planes.items()}


def _extreme(pts) -> list:
    """The ascending indices of the extreme points of distinct int points,
    sorted, flat or not.  In the plane they are the ``_ccw_ring``, which
    takes collinear sets too and needs no facet planes; elsewhere they are
    the vertices of ``_hull``.  A flat set is projected onto the
    coordinates its differences pivot on under ``_independent``: that
    projection is one-to-one on its affine hull, so it keeps the extreme
    points."""
    if len(pts[0]) == 2:
        return sorted(_ccw_ring(pts))
    hull = _hull(pts)
    if hull is not None:
        return hull[0]
    _, columns = _independent(_differences(pts), len(pts[0]))
    if not columns:
        return [0]
    projected = [tuple(p[c] for c in columns) for p in pts]
    order = sorted(range(len(pts)), key=projected.__getitem__)
    return sorted(order[i] for i in _extreme([projected[i] for i in order]))


@lru_cache(maxsize=None)
def canonicalize(body: VPolytope) -> VPolytope:
    """Drop every point inside the hull of the others, dedupe and sort: the
    points at ``_extreme`` of the integer images, in any dimension and for
    flat sets alike, with no LP."""
    if body.canonical:
        return body
    # equal images are equal points, so the dict also drops duplicates
    by_image = sorted(dict(zip(integer_image(body.vertices)[1], body.vertices)).items())
    extreme = _extreme([image for image, _ in by_image])
    return VPolytope(body.dim, tuple(by_image[i][1] for i in extreme), canonical=True)


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
    den, (ints,) = integer_image([half.normal])
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero normal in halfspace")
    return Halfspace(tuple(Rational(z // g) for z in ints), half.offset * Rational(den, g))


@lru_cache(maxsize=None)
def facets(body: VPolytope) -> tuple | None:
    """Exact facet description of a full-dimensional polytope: the
    normalized halfspaces ``normal . x <= offset``, one per facet; None when
    the body is flat.

    The facets are the planes of ``_hull`` on the integer images of the
    canonical vertices, each offset over the lcm of their denominators.
    They come in the order in which a walk over the n-subsets of canonical
    vertex indices, in reverse lexicographic order, would first meet them
    through n affinely independent vertices, so a simplex's facets come out
    opposite its vertices in vertex order.  That subset is the greedy one
    from a facet's largest vertex index down, and the facets sort by it,
    descending: up to three dimensions it is the facet's n largest indices.
    """
    k = canonicalize(body)
    den, images = integer_image(k.vertices)
    hull = _hull(images)
    if hull is None:
        return None
    n = k.dim

    def first_subset(item):
        on = item[1]
        if len(on) == n:
            return on
        rest = on[-2::-1]
        kept, _ = _independent(_differences([images[i] for i in on[::-1]]), n - 1)
        return sorted([on[-1]] + [rest[i] for i in kept])

    return tuple(
        Halfspace(tuple(map(Rational, normal)), Rational(offset, den))
        for (normal, offset), _ in sorted(hull[1].items(), key=first_subset, reverse=True)
    )


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


# Size guard of ``enumerate_vertices``: its subset loop grows as C(m, n).
ENUMERATION_MAX_DIM = 4
ENUMERATION_MAX_HALFSPACES = 16


def enumerate_vertices(region: HPolytope) -> VPolytope:
    """Brute-force vertex enumeration of a bounded low-dimensional H-polytope.

    Solves the square system of every dim-subset of halfspaces and keeps the
    feasible unique solutions; each such point sits on dim independent active
    constraints and is therefore a vertex, and every vertex arises this way.
    A nonempty region is bounded iff its normals positively span R^n, that
    is, iff the origin lies strictly inside their hull, on the inner side of
    every one of its ``facets``; a region whose normals fail that, empty or
    not, raises ``UnboundedRegionError``.  Regions beyond
    ``ENUMERATION_MAX_DIM`` dimensions or ``ENUMERATION_MAX_HALFSPACES``
    halfspaces raise ``ScaleGuardError``.
    """
    n = region.dim
    if n > ENUMERATION_MAX_DIM or len(region.halfspaces) > ENUMERATION_MAX_HALFSPACES:
        raise ScaleGuardError(
            f"enumeration guard: dim {n} (max {ENUMERATION_MAX_DIM}), "
            f"{len(region.halfspaces)} halfspaces (max {ENUMERATION_MAX_HALFSPACES})"
        )
    normals = [h.normal for h in region.halfspaces]
    halves = facets(VPolytope.from_points(normals, n)) if normals else None
    if halves is None or any(offset <= 0 for _, offset in halves):
        raise UnboundedRegionError("the halfspaces bound no polytope")
    found = {}
    for subset in itertools.combinations(region.halfspaces, n):
        x = solve_square([h.normal for h in subset], [h.offset for h in subset])
        if x is not None and all(vdot(h.normal, x) <= h.offset for h in region.halfspaces):
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
