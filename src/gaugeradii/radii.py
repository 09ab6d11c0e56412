"""Circumradius, inradius, diameter and Minkowski asymmetry of polytopes
with respect to a (possibly non-symmetric) polytopal gauge body, all exact.

The circumradius R(K, C) — the least dilation factor of C that can cover a
translate of K — is the workhorse: the inradius is its reciprocal with the
roles swapped, the asymmetry is R(-K, K), and translative containment tests
throughout the library are "circumradius <= 1".

Against a full-dimensional gauge the value comes from the facet form, the
least lambda with g.t + lambda b >= h(K, g) on every facet g.x <= b of C,
solved as its dual: one column per facet of C and n + 1 rows, written as
int rows straight from the integer facets of C and the integer image of K
that the bodies keep (``bodies.integer_facets``, ``VPolytope.image``), so
no ``Rational`` enters the program.  The dual vector of that LP
holds an optimal t, and the asymmetry reads its Minkowski center off it,
so s(K) and a center cost one solve.  Against a simplex the dual's
feasible set is one point, so R(K, S) is a closed form over the facets of
S, s(S) = n and the centroid is the one Minkowski center: no LP is solved
(``_simplex_circumradius``).  The circumradius and inradius
witnesses (a translation and the contacts of an optimal containment) come
from the vertex-form LP instead, one hull-membership block per vertex of
K, solved only when a caller first reads them; its dual is what
``certificates.extract`` reads.  A flat gauge has no facets and takes the
vertex form for its value too.  Every (C - C)/2 norm, that of one vector
(``sym_gauge_norm``), of the vertex differences (``diameter``) or of the
vertices (``largest_vertex_norm``) of a body, or of a simplex's edges
(``theorems.is_equilateral``), comes from one routine,
``_largest_norm``, on int vectors: against a full-dimensional gauge in two
or three dimensions a closed form over directions read off the gauge's
facets and edges, and otherwise 2 R([0, z], C), a closed form again
against a simplex.  Every value can be re-certified independently.

Results are memoized on the bodies, which are immutable and built as their
vertex sets, so equal bodies are one key; a verification suite touches the
same radii many times over.  ``clear_caches`` empties
these memo caches and those of ``bodies`` between independent questions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from operator import mul

from . import lp
from .bodies import (
    DimensionMismatchError,
    VPolytope,
    check_same_dim,
    contains_point,
    difference_body,
    integer_facets,
    integer_image,
    integer_support,
    integer_width,
    is_centrally_symmetric,
    negate,
    scale,
    vertex_centroid,
    width,
)
from .ratcore import ONE, ZERO, Rational, is_zero_vec, solve_square, vcross, vec, vscale, vsub, vzero


class DegenerateGaugeError(ValueError):
    """The gauge body cannot measure anything (e.g. a single point)."""


class InfiniteRadiusError(ValueError):
    """A value would be infinite (affine hulls incompatible)."""


class SinglePointBodyError(ValueError):
    """The body is one point where a positive radius or diameter is needed."""


class ZeroDirectionError(ValueError):
    """A direction that must be nonzero is zero."""


class RadiiResult:
    """An exact radius value with its certifying data.

    ``translation`` is the witness shift of the defining containment;
    ``attaining`` is operation-specific: the ``(vertex, normal)`` contacts
    read off the vertex-form LP dual for the circumradius, the diametral
    vertex pair for the diameter, None otherwise.  Given ``witness``, a
    function returning ``(translation, attaining)``, both are computed on
    their first read and kept: a caller who reads only ``value`` never pays
    for the LP that finds them.  A facet-form circumradius also keeps the
    optimal translation its own LP found, ``_t``, for
    ``_optimal_translation``; it need not be ``translation``.
    """

    __slots__ = ("value", "_witness", "_data", "_t")

    def __init__(self, value: Rational, translation=None, attaining=None, *, witness=None, t=None):
        self.value = value
        self._witness = witness
        self._data = (translation, attaining)
        self._t = t

    def _read(self) -> tuple:
        if self._witness is not None:
            self._data, self._witness = self._witness(), None
        return self._data

    @property
    def translation(self) -> tuple | None:
        return self._read()[0]

    @property
    def attaining(self) -> tuple | None:
        return self._read()[1]

    def __repr__(self) -> str:
        return f"RadiiResult(value={self.value})"


class AsymmetryResult:
    """s(K) with one Minkowski center, both from the same LP."""

    __slots__ = ("s", "center")

    def __init__(self, s: Rational, center: tuple):
        self.s = s
        self.center = center

    def __repr__(self) -> str:
        return f"AsymmetryResult(s={self.s})"


# ---------------------------------------------------------------------------
# circumradius


def circumradius_program(body: VPolytope, gauge: VPolytope):
    """Build the vertex-form containment LP for R(body, gauge): minimize
    lambda subject to v_i in t + lambda*gauge for every body vertex v_i, one
    ``add_hull_membership`` block per vertex."""
    n = check_same_dim(body, gauge)
    builder = lp.ProgramBuilder()
    t = builder.add_vars(n, free=True)
    lam = builder.add_var(objective=ONE)
    lhs = [{tk: ONE} for tk in t]
    for v in body.vertices:
        builder.add_hull_membership(gauge.vertices, lhs, v, mass=lam)
    return builder.build(), (t, lam)


@lru_cache(maxsize=None)
def circumradius(body: VPolytope, gauge: VPolytope) -> RadiiResult | None:
    """R(body, gauge); None when no dilate of the gauge can cover the body
    (the affine hulls are incompatible).

    Against a full-dimensional gauge the value is the optimum of the facet
    form, one row per facet g.x <= b of the gauge,

        minimize lambda  subject to  g.t + b lambda >= h(body, g),

    with t free and lambda >= 0, and it is solved as its dual
    (``_facet_circumradius``): one column per facet and n + 1 rows, whatever
    the body.  Such a gauge covers every body, so the result is never None.
    That LP's dual vector holds an optimal t of the facet form, which the
    result keeps for ``_optimal_translation``.  A simplex gauge, with n + 1
    facets, leaves that dual one feasible point, so its value is the closed
    form of ``_simplex_circumradius``, with no LP, and its optimal t is a
    closed form too.  The translation and the contacts are read off the
    vertex-form LP (``circumradius_program``), solved on their first read
    only; its optimum is the same value, and its dual gives ``attaining``.
    A flat gauge has no facets and takes the vertex form for everything."""
    check_same_dim(body, gauge)
    planes = integer_facets(gauge)
    if planes is None:
        return _circumradius_by_vertices(body, gauge)
    if len(planes) == body.dim + 1:
        value, t = _simplex_circumradius(body, gauge), None
    else:
        value, t = _facet_circumradius(body, gauge)

    def witness():
        res = _circumradius_by_vertices(body, gauge)
        return res.translation, res.attaining

    return RadiiResult(value, witness=witness, t=t)


def _simplex_circumradius(body: VPolytope, simplex: VPolytope) -> Rational:
    """R(body, S) against a full-dimensional simplex S, with no LP:

        R = sum_f h(body, a_f) / w(S, a_f)

    over the facets a_f.x <= b_f of S, with w the width.  The barycentric
    coordinates (b_f - a_f.x) / w(S, a_f) of a point x sum to 1, so
    y_f = 1 / w(S, a_f) is the one point of the feasible set of the dual
    LP of ``_facet_circumradius``, and its objective is the optimum.  The
    sum is taken on the integer images, with one ``Rational`` at the end."""
    den, images = body.image
    dg, corners = simplex.image
    terms = [
        (integer_support(images, a), integer_width(corners, a))
        for a, _, _ in integer_facets(simplex)
    ]
    lcm = math.lcm(*(w for _, w in terms))
    return Rational(dg * sum(h * (lcm // w) for h, w in terms), den * lcm)


def _facet_circumradius(body: VPolytope, gauge: VPolytope) -> tuple:
    """``(R, t)``: the facet-form optimum R with an optimal translation t,
    body in t + R gauge, both read off one LP.  The LP has one column
    y_g >= 0 per facet g.x <= b of the full-dimensional gauge and n + 1
    rows,

        R = max sum_g y_g h(body, g)  subject to  sum_g y_g g = 0,  sum_g y_g b = 1.

    The last row is an equality because the primal's lambda >= 0 is implied:
    the normals of a full-dimensional gauge balance with positive weights, so
    no lambda < 0 is feasible.  Every number is an int: the gauge's
    ``integer_facets`` give the primitive normals and the offsets over the
    gauge's image denominator, which the last row is written over, and the
    support values are taken on the body's integer image, so the objective
    is den times the one above, den the denominator of the body's image.
    The dual vector u is optimal for this LP's own dual, which is the facet
    form: every column's reduced cost -den h(body, g) - u[:n].g - u[n] b is
    nonnegative, and -u[n] = den R, so t = -u[:n] / den has
    g.t + R b >= h(body, g) on every facet.  ``circumradius`` keeps t and
    ``asymmetry`` reads its Minkowski center off it."""
    den, images = body.image
    planes = integer_facets(gauge)
    rows = [
        lp.Row({y: g[k] for y, (g, _, _) in enumerate(planes) if g[k]}, 0, 1)
        for k in range(body.dim)
    ]
    dg = gauge.image[0]
    rows.append(lp.Row({y: b for y, (_, b, _) in enumerate(planes) if b}, dg, dg))
    program = lp.LinearProgram(
        costs=tuple(-integer_support(images, g) for g, _, _ in planes),
        cden=1,
        rows=tuple(rows),
        free=(False,) * len(planes),
    )
    out = lp.solve(program)
    if out.status != lp.OPTIMAL:  # a full-dimensional gauge covers every body
        raise RuntimeError("facet-form circumradius LP must have an optimum")
    return -out.value / den, tuple(-x / den for x in out.dual[: body.dim])


def _optimal_translation(body: VPolytope, gauge: VPolytope) -> tuple:
    """A translation t with body in t + R gauge for R = R(body, gauge),
    against a full-dimensional gauge, with no LP of its own.  Against a
    simplex S, y_f = 1 / w(S, a_f) > 0 is the one dual point of
    ``_simplex_circumradius``, so by complementary slackness every facet
    a_f.x <= b_f of t + R S supports the body: a_f.t = h(body, a_f) - R b_f.
    Any n of the normals are independent, and t solves the first n of these
    equations by Cramer's rule on ints.  Against any other gauge t is the
    one ``circumradius`` read off its facet-form dual."""
    res = circumradius(body, gauge)
    if res._t is not None:
        return res._t
    n = body.dim
    planes = integer_facets(gauge)[:n]
    den, images = body.image
    dg = gauge.image[0]
    p, q = res.value.numerator, res.value.denominator
    # times den q dg, for the images over den and the offsets b over dg
    rhs = [q * dg * integer_support(images, a) - p * den * b for a, b, _ in planes]
    return vscale(Rational(1, den * q * dg), solve_square([a for a, _, _ in planes], rhs))


def _circumradius_by_vertices(body: VPolytope, gauge: VPolytope) -> RadiiResult | None:
    program, (t_vars, lam_var) = circumradius_program(body, gauge)
    out = lp.solve(program)
    if out.status == lp.INFEASIBLE:
        return None
    if out.status != lp.OPTIMAL:  # minimizing a nonnegative variable
        raise RuntimeError("circumradius LP cannot be unbounded")
    translation = tuple(out.primal[v] for v in t_vars)
    # Body vertex i owns one ``add_hull_membership`` block: n coordinate rows,
    # then its mass row.  A nonzero dual on the coordinate rows makes it a
    # contact, with that block as an outer normal of the scaled gauge at it
    # (complementary slackness).
    n = body.dim
    contacts = []
    for i, v in enumerate(body.vertices):
        normal = tuple(out.dual[i * (n + 1) : i * (n + 1) + n])
        if not is_zero_vec(normal):
            contacts.append((v, normal))
    return RadiiResult(out.primal[lam_var], translation, tuple(contacts))


# ---------------------------------------------------------------------------
# inradius


def inradius(body: VPolytope, gauge: VPolytope) -> RadiiResult:
    """r(body, gauge): the largest factor rho with rho*gauge fitting in a
    translate of the body, read off R(gauge, body) = 1/rho.

    gauge in t + R*body means rho*gauge - rho*t in body, so the witness is
    -rho*t, computed on its first read.  No dilate of the body covering the
    gauge means the body is flat across the gauge: rho = 0, witnessed by the
    first vertex."""
    res = circumradius(gauge, body)
    if res is None:
        return RadiiResult(ZERO, body.vertices[0])
    if res.value == 0:
        raise DegenerateGaugeError("inradius is unbounded: gauge is a single point")
    rho = ONE / res.value
    return RadiiResult(rho, witness=lambda: (vscale(-rho, res.translation), None))


# ---------------------------------------------------------------------------
# norms, diameter, breadth


def sym_gauge_norm(z, gauge: VPolytope) -> Rational | None:
    """Norm of z in the symmetrized gauge (C - C)/2: the least rho with
    z in (rho/2)(C - C).  None when z leaves the span of C - C.  It is
    ``_largest_norm`` of z's integer image."""
    zv = vec(z)
    if len(zv) != gauge.dim:
        raise DimensionMismatchError("vector length does not match gauge dimension")
    found = _largest_norm(*integer_image([zv]), gauge)
    return None if found is None else found[1]


def _largest_norm(den: int, vectors, gauge: VPolytope) -> tuple | None:
    """``(k, value)``: the largest (C - C)/2 norm of the int vectors over
    ``den`` and the index k of the first vector to attain it (None when
    every vector is 0); None as soon as a vector leaves the span of C - C.

    For a full-dimensional gauge in two or three dimensions the norm of z
    is, with no LP, the largest of

        2 |a.z| / (h(C, a) + h(C, -a))

    over the directions a of ``_norm_directions``.  Each such ratio is at
    most the norm, and the largest is attained at the facet normals of
    C - C = C + (-C), which are among them.  The ratios of every (vector,
    direction) pair are compared on ints in one loop, which keeps the first
    strict maximum, and one ``Rational`` is formed at the end.  The closed
    form is cheap and its arguments rarely repeat, so it is not memoized.

    Flat gauges and dimensions >= 4 take 2 R([0, z], C) for each nonzero z:
    the segment [0, z] lies in t + lambda C exactly when z is in
    lambda (C - C), so the norm is twice the circumradius of the segment,
    and z leaves the span when that is None.  Against a full-dimensional
    gauge that is the (n + 1)-row facet-form value LP of ``circumradius``,
    a closed form again against a simplex, memoized there."""
    directions = _norm_directions(gauge)
    if directions is None:
        origin, best, k = vzero(gauge.dim), ZERO, None
        for i, z in enumerate(vectors):
            if any(z):
                segment = VPolytope(gauge.dim, (origin, tuple(Rational(x, den) for x in z)))
                res = circumradius(segment, gauge)
                if res is None:
                    return None
                if res.value > best:
                    best, k = res.value, i
        return k, 2 * best
    dc, dirs = directions
    best_num, best_w, k = 0, 1, None
    for i, z in enumerate(vectors):
        for a, w in dirs:
            num = abs(sum(map(mul, a, z)))
            if num * best_w > best_num * w:
                best_num, best_w, k = num, w, i
    # 2|a.z| / (h(C, a) + h(C, -a)) = 2 dc |a.z| / (den w), w the integer width
    return k, Rational(2 * dc * best_num, den * best_w)


@lru_cache(maxsize=None)
def _norm_directions(gauge: VPolytope) -> tuple | None:
    """``(den, [(a, w)])`` for a full-dimensional gauge in two or three
    dimensions, None otherwise: ``den`` is the denominator of the gauge's
    integer images, each a is a primitive int direction, one per line, and
    w is the integer width of the images along a.

    The directions are the facet normals of C and, in space, the cross
    products of two nonparallel edge directions of C; an edge is a vertex
    pair on two facets.  A facet of C + (-C) is the sum of faces of C and
    -C with a common outer normal, so it has the normal of a facet of C or
    -C, or it is the sum of two nonparallel edges, with their cross product
    as normal (Fukuda, J. Symb. Comp. 38, 2004)."""
    planes = integer_facets(gauge) if gauge.dim in (2, 3) else None
    if planes is None:
        return None
    den, images = gauge.image
    normals = [g for g, _, _ in planes]
    if gauge.dim == 3:
        on = [set(on) for _, _, on in planes]  # the vertex indices on each facet
        edges = {tuple(e) for f, g in combinations(on, 2) if len(e := f & g) == 2}
        dirs = {_line([x - y for x, y in zip(images[j], images[i])]) for i, j in edges}
        normals += [vcross(u, v) for u, v in combinations(dirs, 2)]
    return den, [(a, integer_width(images, a)) for a in set(map(_line, normals))]


def _line(a) -> tuple:
    """The primitive int vector on the line of a nonzero int vector a, with
    its first nonzero entry positive."""
    g = math.gcd(*a)
    return tuple(x // g for x in a) if next(x for x in a if x) > 0 else tuple(-x // g for x in a)


@lru_cache(maxsize=None)
def diameter(body: VPolytope, gauge: VPolytope) -> RadiiResult | None:
    """D(body, gauge): the largest pairwise vertex distance in the
    (C - C)/2 norm, with the attaining pair, the first pair i < j, in
    vertex order, whose norm is D; a one-point body has none.  None if
    some difference leaves the span of the gauge.  It is ``_largest_norm``
    of the pairwise differences of the body's integer image."""
    check_same_dim(body, gauge)
    den, images = body.image
    found = _largest_norm(den, (vsub(y, x) for x, y in combinations(images, 2)), gauge)
    if found is None:
        return None
    k, value = found
    pair = None if k is None else list(combinations(body.vertices, 2))[k]
    return RadiiResult(value, attaining=pair)


def largest_vertex_norm(body: VPolytope, gauge: VPolytope) -> Rational | None:
    """The largest (C - C)/2 norm of a vertex of the body, that is the
    largest ``sym_gauge_norm(v, gauge)`` over its vertices v, None when
    some vertex leaves the span of C - C: ``_largest_norm`` of the body's
    integer image."""
    check_same_dim(body, gauge)
    found = _largest_norm(*body.image, gauge)
    return None if found is None else found[1]


def breadth(body: VPolytope, gauge: VPolytope, direction) -> Rational:
    """s-breadth: 2 h(K - K, s) / h(C - C, s), via ``width``, since
    h(K - K, s) = h(K, s) + h(K, -s)."""
    d = vec(direction)
    if is_zero_vec(d):
        raise ZeroDirectionError("breadth needs a nonzero direction")
    check_same_dim(body, gauge)
    num = width(body, d)
    den = width(gauge, d)
    if den == 0:
        raise DegenerateGaugeError("gauge has zero breadth in this direction")
    return 2 * num / den


def jung_ratio(body: VPolytope, gauge: VPolytope) -> Rational | None:
    """Circumradius over diameter; None when the circumradius is infinite."""
    circ = circumradius(body, gauge)
    if circ is None:
        return None
    diam = diameter(body, gauge)
    if diam is None or diam.value == 0:
        raise SinglePointBodyError("Jung ratio needs a body with positive diameter")
    return circ.value / diam.value


# ---------------------------------------------------------------------------
# asymmetry and Minkowski centers


@lru_cache(maxsize=None)
def asymmetry(body: VPolytope) -> AsymmetryResult:
    """Minkowski asymmetry s(K) = R(-K, K) with one Minkowski center.

    Both come from one LP: -K in t + sK means -(K - c) in s(K - c) for
    c = -t/(1 + s), and the translation t is read off the same solve as s.
    For a full-dimensional body that is the facet form of R(-K, K), whose
    dual vector holds an optimal t (``_facet_circumradius``); a flat body
    takes the vertex-form LP.  A symmetric body has s = 1 and its center,
    with no LP.  So does a simplex, with s = n and its centroid: the one
    feasible dual point y_f = 1 / w(S, a_f) of ``_simplex_circumradius`` is
    positive on every facet, so by complementary slackness all n + 1
    facets are tight at any optimal t, which makes t, and the center,
    unique (Grünbaum 1963).  Centers are not unique in general, and which
    optimal t the solve returns is not specified; predicates quantifying
    over centers must use the full center polytope, never just this one:
    ``is_minkowski_center`` tests a point against it, and the concentricity
    LPs of ``theorems`` carry its rows.
    """
    sym, center = is_centrally_symmetric(body)
    if sym:  # s = 1 exactly iff the body is symmetric; center is forced
        return AsymmetryResult(ONE, center)
    planes = integer_facets(body)
    if planes is None:  # -K always fits in a translate of a dilate of K
        res = _circumradius_by_vertices(negate(body), body)
        return AsymmetryResult(res.value, vscale(-ONE / (ONE + res.value), res.translation))
    if len(planes) == body.dim + 1:  # a simplex: s = n, the centroid its only center
        return AsymmetryResult(Rational(body.dim), vertex_centroid(body))
    s, t = _facet_circumradius(negate(body), body)
    return AsymmetryResult(s, vscale(-ONE / (ONE + s), t))


def is_minkowski_center(body: VPolytope, point) -> bool:
    """Exact check of -(K - c) in s(K)(K - c).  For a full-dimensional body
    that is one sign test per facet g.x <= b of K,

        (1 + s) g.c <= s b - h(K, -g),

    since the inclusion holds exactly when h(-(K - c), g) <= s h(K - c, g)
    on every facet normal; it is taken on ints, from the ``integer_facets``
    and the integer images of K and c.  A flat body takes one membership
    test per vertex."""
    c = vec(point)
    if len(c) != body.dim:
        raise DimensionMismatchError("point length does not match body dimension")
    s = asymmetry(body).s
    planes = integer_facets(body)
    if planes is not None:
        # times q dc den for s = p/q, c = ci/dc and the images of K over den:
        # (q + p) den g.ci <= dc (p b - q h(K, -g) den)
        p, q = s.numerator, s.denominator
        den, images = body.image
        dc, (ci,) = integer_image([c])
        return all(
            (q + p) * den * sum(map(mul, g, ci))
            <= dc * (p * b + q * min(sum(map(mul, g, x)) for x in images))
            for g, b, _ in planes
        )
    shifted = vscale(ONE + s, c)
    target = scale(body, s)
    return all(
        contains_point(target, tuple(sc - v for sc, v in zip(shifted, vert)))
        for vert in body.vertices
    )


# ---------------------------------------------------------------------------
# constant width


def is_constant_width(body: VPolytope, gauge: VPolytope) -> bool:
    """K has constant width iff K - K = D(K, C)/2 (C - C), iff

        D(K, C) * D(C, K) = 4.

    By the definition of D, K - K lies in D(K, C)/2 (C - C), which lies in
    D(K, C) D(C, K)/4 (K - K); so the product is at least 4, and it is 4
    exactly when both inclusions are equalities.  A one-point body has
    constant width; a gauge whose differences leave the span of K - K does
    not."""
    diam = diameter(body, gauge)
    if diam is None:
        raise InfiniteRadiusError("constant width needs a gauge spanning the body")
    if diam.value == 0:
        return True
    back = diameter(gauge, body)
    return back is not None and diam.value * back.value == 4


# ---------------------------------------------------------------------------
# memo caches

# Taken at import, so that a rebinding of these names (a benchmark counting
# calls) leaves the caches reachable here.
_CACHES = (
    difference_body,
    is_centrally_symmetric,
    circumradius,
    _norm_directions,
    diameter,
    asymmetry,
)


def clear_caches() -> None:
    """Empty every memo cache of ``bodies`` and ``radii``.  The caches grow
    with every body asked about, and the bodies they hold keep their images
    and facets; a long run of independent questions, such as the trials of
    ``explore``, calls this between them."""
    for cache in _CACHES:
        cache.cache_clear()
