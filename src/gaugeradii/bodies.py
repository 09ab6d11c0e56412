"""Polytope representations and Minkowski algebra over exact rationals.

The vertex representation is primary: the radii downstream reduce to
containment LPs over vertex lists, or over the facets of a full-dimensional
gauge computed from them.  Halfspace representations come from exact
desk-scale routines, since general V/H conversion is out of scope here:
``facets`` reads the facets off one convex hull, ``enumerate_vertices``
goes back from halfspaces to vertices by a Cramer solve
(``ratcore.solve_square``) of every square subsystem.

Bodies are immutable value objects; operations are pure functions, so results
may be shared freely and cached.  A ``VPolytope`` is built as its vertex
set: its constructor keeps exactly the extreme points of the listed ones,
sorted, so equality of polytopes is a plain comparison.  The only other
bodies are affine copies of such a body (``_affine_copy``).

Hulls, facets, membership, supports and widths are decided on
``integer_image``: the points times the lcm of their denominators, so
every sign and dot product is a Python int operation, and a ``Rational``
is formed only for a result.  A body keeps its image and its
``integer_facets``, which ``radii`` and ``theorems`` write their
facet-form LPs from; both come from the one ``_hull`` call that found
its vertices.  An affine copy maps its original's, and builds its
``Fraction`` vertices only when they are read.  One hull, ``_hull``,
serves every dimension: Andrew's monotone chain in the plane,
beneath-beyond elsewhere, with face normals from cross products in space
and from the Bareiss determinants of ``ratcore.int_det`` beyond.  A flat
set is hulled inside its affine hull, projected onto the coordinates
that map it one-to-one.  Nothing here solves an LP.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, mul
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


class VPolytope:
    """Convex body, the convex hull of a finite list of rational points,
    kept as its vertex set.

    The constructor clears the denominators of the points once
    (``integer_image``), drops repeats, sorts, and keeps three things from
    one ``_hull`` call: the extreme points as ``vertices``, in
    lexicographic order, their integer ``image``, and the facet planes,
    which ``integer_facets`` puts in order on first read.  So any listing of
    a point set, with repeats or points inside the hull, gives the same
    body.  The only other way to make a body is ``_affine_copy``, which
    maps its original's image and facets when they are first read, and its
    ``vertices`` too: the facet-form paths never read them.

    Bodies are immutable and key every memo cache.  A body hashes and
    compares on ``(dim, image)``: the image is an exact, one-to-one encoding
    of the vertex tuple, so a copy is keyed without its vertices.  The hash
    is taken once.
    """

    # (original, factor, shift) for the copy factor * original + shift made
    # by ``_affine_copy``; shift is None or a vector.
    _source = None

    def __init__(self, dim: int, vertices: tuple):
        if not vertices:
            raise ValueError("a polytope needs at least one point")
        for v in vertices:
            if len(v) != dim:
                raise DimensionMismatchError(
                    f"point of length {len(v)} in a {dim}-dimensional body"
                )
        den, images = integer_image(vertices)
        # equal images are equal points, so the dict also drops repeats
        points = sorted(dict(zip(images, vertices)).items())
        kept, planes = _hull([image for image, _ in points])
        image = _lowest(den, [points[i][0] for i in kept])
        if planes is not None:
            # the offsets were over den, the kept images are over image[0]
            g, at = den // image[0], {i: k for k, i in enumerate(kept)}
            planes = [(u, b // g, tuple(map(at.get, on))) for (u, b), on in planes.items()]
        vertices = tuple(points[i][1] for i in kept)
        self.__dict__.update(dim=dim, vertices=vertices, image=image, _planes=planes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: bodies are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: bodies are immutable")

    def __eq__(self, other):
        if not isinstance(other, VPolytope):
            return NotImplemented
        return self.dim == other.dim and self.image == other.image

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.image))

    @cached_property
    def vertices(self) -> tuple:
        """An ``_affine_copy``'s points, its original's mapped in their
        order, reversed for a reflection; a constructed body keeps its
        vertices from the start."""
        body, factor, shift = self._source
        points = body.vertices
        if factor == -1:
            points = [vneg(v) for v in reversed(points)]
        elif factor != 1:
            points = [vscale(factor, v) for v in points]
        if shift is not None:
            points = [vadd(v, shift) for v in points]
        return tuple(points)

    @cached_property
    def image(self) -> tuple:
        """An ``_affine_copy``'s ``(den, images)``, the ``integer_image`` of
        its vertices, mapped from its original's; a constructed body keeps
        its image from the start."""
        a, c, den = _affine_ints(self)
        images = [[a * x + y for x, y in zip(p, c)] for p in self._source[0].image[1]]
        if a < 0:
            images.reverse()
        return _lowest(den, images)

    @cached_property
    def _facets(self) -> tuple | None:
        """The ``integer_facets``."""
        if self._source is None:
            return None if self._planes is None else _in_facet_order(self.image[1], self._planes)
        planes = self._source[0]._facets
        if planes is None:
            return None
        # x -> (a x + c) / g on the images maps the plane g.x <= b to
        # sign(a) g.x <= (|a| b + sign(a) g.c) / g.
        a, c, den = _affine_ints(self)
        images = self.image[1]
        g = den // self.image[0]
        if a > 0:
            return tuple((u, (a * b + sum(map(mul, u, c))) // g, on) for u, b, on in planes)
        # a = -1 also reverses the vertex order
        last = len(images) - 1
        planes = [
            (
                tuple(-x for x in u),
                (-a * b - sum(map(mul, u, c))) // g,
                tuple(last - i for i in on[::-1]),
            )
            for u, b, on in planes
        ]
        return _in_facet_order(images, planes)

    @cached_property
    def _halfspaces(self) -> tuple | None:
        """The ``facets``."""
        if self._facets is None:
            return None
        den = self.image[0]
        return tuple(
            Halfspace(tuple(map(Rational, u)), Rational(b, den)) for u, b, _ in self._facets
        )

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
    """h(K, a) = max a.v over vertices; returns (value, indices of argmax),
    from the integer images of the body and of a."""
    a = vec(direction)
    if len(a) != body.dim:
        raise DimensionMismatchError("direction length does not match body dimension")
    da, (ai,) = integer_image([a])
    den, images = body.image
    dots = [sum(map(mul, ai, p)) for p in images]
    best = max(dots)
    return Rational(best, den * da), tuple(i for i, x in enumerate(dots) if x == best)


def integer_image(points) -> tuple:
    """``(den, images)``: ``den`` is the lcm of the denominators of every
    coordinate of ``points``, and ``images`` holds the points times ``den``
    as int tuples.  Since ``den > 0``, orders, signs and dot products of the
    points are those of their images, up to a positive factor.  A body
    keeps its own as ``VPolytope.image``."""
    den = math.lcm(*(q.denominator for p in points for q in p))
    return den, tuple(tuple(q.numerator * (den // q.denominator) for q in p) for p in points)


def _lowest(den: int, images) -> tuple:
    """``integer_image`` of the int points ``images`` over ``den > 0``: the
    lcm of the reduced denominators of x_i / den is den / gcd(den, x_1,
    ..., x_k)."""
    g = math.gcd(den, *itertools.chain.from_iterable(images))
    if g == 1:
        return den, tuple(map(tuple, images))
    return den // g, tuple(tuple(x // g for x in p) for p in images)


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
    den, images = body.image
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


def contains_point(body, point) -> bool:
    """Exact membership test for either representation.  A full-dimensional
    vertex body takes one int sign test per facet of its ``integer_facets``,
    on the integer image of x; a flat one holds x exactly when x is one of
    its points or no extreme point of the body and x together, on their
    common integer images."""
    x = vec(point)
    if len(x) != body.dim:
        raise DimensionMismatchError("point length does not match body dimension")
    if isinstance(body, HPolytope):
        return all(vdot(g, x) <= b for g, b in body.halfspaces)
    planes = body._facets
    if planes is None:
        *points, xi = integer_image(body.vertices + (x,))[1]
        pts = sorted({xi, *points})
        return xi in points or pts.index(xi) not in _hull(pts)[0]
    # g.x <= b / den on x = xi / dx
    den, (dx, (xi,)) = body.image[0], integer_image([x])
    return all(sum(map(mul, g, xi)) * den <= b * dx for g, b, _ in planes)


# ---------------------------------------------------------------------------
# hulls


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


def _hull(pts) -> tuple:
    """The convex hull of distinct int points in Z^n, sorted:
    ``(vertices, planes)``, the ascending indices of the extreme points and
    a dict from each facet's outward primitive plane ``(normal, offset)`` to
    the ascending indices of the extreme points on it; planes is None when
    the points are flat.

    In the plane the extreme points are the ``_ccw_ring``, which takes
    collinear sets too, and its edges are the facets.  A flat set elsewhere
    is projected onto the coordinates its differences pivot on under
    ``_independent``: that projection is one-to-one on its affine hull, so
    the extreme points are those of the projected set.  A full-dimensional
    set in any other dimension is hulled
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
            return sorted(ring), None
        planes = {}
        for i, j in zip(ring, ring[1:] + ring[:1]):
            (px, py), (qx, qy) = pts[i], pts[j]
            a, b = qy - py, px - qx
            g = math.gcd(a, b)
            planes[(a // g, b // g), (a * px + b * py) // g] = [i, j] if i < j else [j, i]
        return sorted(ring), planes
    kept, columns = _independent(_differences(pts), n)
    if len(kept) < n:
        if not columns:
            return [0], None
        projected = [tuple(p[c] for c in columns) for p in pts]
        order = sorted(range(len(pts)), key=projected.__getitem__)
        return sorted(order[i] for i in _hull([projected[i] for i in order])[0]), None
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


def canonicalize(body: VPolytope) -> VPolytope:
    """The body itself: every body is built as its vertex set, the sorted
    extreme points of the listed ones (``VPolytope``), so there is nothing
    left to normalize.  Kept as the public name of that normal form."""
    return body


def same_vertex_set(a: VPolytope, b: VPolytope) -> bool:
    """Exact equality of the represented bodies, that is of their vertex
    sets."""
    check_same_dim(a, b)
    return a == b


# ---------------------------------------------------------------------------
# Minkowski algebra


def _affine_copy(body: VPolytope, factor: Rational, shift) -> VPolytope:
    """The body factor * body + shift, for factor -1 and no shift
    or factor > 0.  Its points are the body's mapped in their order,
    reversed for factor -1, so no sort is needed.  The copy maps the body's
    image and facets when first read, and its ``vertices`` too."""
    copy = object.__new__(VPolytope)
    copy.__dict__.update(dim=body.dim, _source=(body, factor, shift))
    return copy


def _affine_ints(copy: VPolytope) -> tuple:
    """``(a, c, den)`` for an ``_affine_copy`` f K + t: its points are
    (a x + c) / den for the images x of the points of K, with a = -1 or
    a > 0 an int, c an int vector and den a positive int."""
    body, factor, shift = copy._source
    q, dk = factor.denominator, body.image[0]
    dt, (ti,) = integer_image([shift]) if shift else (1, ((0,) * copy.dim,))
    return factor.numerator * dt, [q * dk * y for y in ti], q * dk * dt


def translate(body: VPolytope, shift) -> VPolytope:
    t = vec(shift)
    if len(t) != body.dim:
        raise DimensionMismatchError("translation length does not match body dimension")
    return _affine_copy(body, ONE, t)


def negate(body: VPolytope) -> VPolytope:
    return _affine_copy(body, -ONE, None)


def scale(body: VPolytope, factor) -> VPolytope:
    """Dilation by factor >= 0 (compose with ``negate`` for negatives)."""
    f = rat(factor)
    if f < 0:
        raise ValueError("dilation factor must be nonnegative; use negate() first")
    if f == 0:
        return VPolytope(body.dim, (vzero(body.dim),))
    return _affine_copy(body, f, None)


def minkowski_sum(a: VPolytope, b: VPolytope) -> VPolytope:
    """The body of the pairwise vertex sums of the two bodies."""
    check_same_dim(a, b)
    return VPolytope(a.dim, tuple(vadd(u, v) for u in a.vertices for v in b.vertices))


@lru_cache(maxsize=None)
def difference_body(body: VPolytope) -> VPolytope:
    """K + (-K); always origin-symmetric.

    For a body that is already centrally symmetric about c this is just
    2(K - c), which skips the hull of the quadratic pairwise sums.
    """
    sym, center = is_centrally_symmetric(body)
    if sym:
        return scale(translate(body, vneg(center)), 2)
    return minkowski_sum(body, negate(body))


@lru_cache(maxsize=None)
def is_centrally_symmetric(body: VPolytope) -> tuple:
    """(True, center) iff the vertex set equals its reflection through the
    vertex mean — the only possible center.  A reflection reverses the
    sorted vertex order, so that holds exactly when the i-th and the i-th
    last integer images have one sum for every i."""
    images = body.image[1]
    total = list(map(add, images[0], images[-1]))
    if all(list(map(add, p, q)) == total for p, q in zip(images, reversed(images))):
        return True, vertex_centroid(body)
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
    """Full-dimensional with n + 1 ``integer_facets``, the test
    ``simplex_facets`` makes: a full-dimensional polytope with n + 1 facets
    is a simplex."""
    planes = integer_facets(body)
    return planes is not None and len(planes) == body.dim + 1


def normalize_halfspace(half: Halfspace) -> Halfspace:
    """Scale by a positive rational so the normal is a primitive integer
    vector; makes halfspace lists comparable."""
    den, (ints,) = integer_image([half.normal])
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero normal in halfspace")
    return Halfspace(tuple(Rational(z // g) for z in ints), half.offset * Rational(den, g))


def facets(body: VPolytope) -> tuple | None:
    """Exact facet description of a full-dimensional polytope: the
    normalized halfspaces ``normal . x <= offset``, one per facet; None when
    the body is flat.  They are the ``integer_facets``, each offset over the
    denominator of the body's ``image``, and the body keeps them."""
    return body._halfspaces


def integer_facets(body: VPolytope) -> tuple | None:
    """The facets of a full-dimensional polytope on the integer image of its
    vertices: one ``(normal, offset, on)`` per facet, with the primitive int
    outer normal, the int offset over the image's ``den`` and the ascending
    indices of the vertices on the facet; None when the body is flat.  The
    body keeps them: the planes its constructor kept from ``_hull``, put in
    ``_in_facet_order``, or an affine copy's original's mapped, and sorted
    again only for a reflection."""
    return body._facets


def _in_facet_order(images, planes) -> tuple:
    """The ``(normal, offset, on)`` planes in the order in which a walk over
    the n-subsets of vertex indices, in reverse lexicographic order, would
    first meet them through n affinely independent vertices, so a simplex's
    facets come out opposite its vertices in vertex order.  That subset is
    the greedy one from a facet's largest vertex index down: up to three
    dimensions it is the facet's n largest indices."""
    n = len(images[0])

    def first_subset(plane):
        on = plane[2]
        if len(on) == n:
            return on
        rest = on[-2::-1]
        kept, _ = _independent(_differences([images[i] for i in on[::-1]]), n - 1)
        return tuple(sorted([on[-1]] + [rest[i] for i in kept]))

    return tuple(sorted(planes, key=first_subset, reverse=True))


def simplex_facets(body: VPolytope) -> tuple:
    """The ``integer_facets`` of a simplex, a full-dimensional body with
    n + 1 of them, the i-th opposite the i-th vertex; raises
    ``DegenerateSimplexError`` for any other body."""
    planes = integer_facets(body)
    if planes is None or len(planes) != body.dim + 1:
        raise DegenerateSimplexError(
            f"not a simplex: need {body.dim + 1} affinely independent vertices"
        )
    return planes


def simplex_hrep(body: VPolytope) -> HPolytope:
    """Exact facet description of a simplex: the ``facets`` of a body with
    n + 1 of them (``simplex_facets``), the i-th opposite the i-th
    vertex."""
    simplex_facets(body)
    return HPolytope(body.dim, facets(body))


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
    return VPolytope(n, tuple(found))


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
