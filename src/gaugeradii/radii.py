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
so s(K) and a center cost one solve.  The circumradius and inradius
witnesses (a translation and the contacts of an optimal containment) come
from the vertex-form LP instead, one hull-membership block per vertex of
K, solved only when a caller first reads them; its dual is what
``certificates.extract`` reads.  A flat gauge has no facets and takes the
vertex form for its value too.  The (C - C)/2 norm behind the diameter
needs no LP of its own: against a full-dimensional gauge in two or three
dimensions it is a closed form over directions read off the gauge's facets
and edges, and otherwise 2 R([0, z], C).  Every value can be re-certified
independently.

Results are memoized on the (immutable, canonicalized) bodies; a verification
suite touches the same radii many times over.  ``clear_caches`` empties
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
    _canonical_form,
    canonicalize,
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
    width,
)
from .ratcore import ONE, ZERO, Rational, is_zero_vec, vcross, vec, vscale, vzero


class DegenerateGaugeError(ValueError):
    """The gauge body cannot measure anything (e.g. a single point)."""


class RadiiResult:
    """An exact radius value with its certifying data.

    ``translation`` is the witness shift of the defining containment;
    ``attaining`` is operation-specific: the ``(vertex, normal)`` contacts
    read off the vertex-form LP dual for the circumradius, the diametral
    vertex pair for the diameter, None otherwise.  Given ``witness``, a
    function returning ``(translation, attaining)``, both are computed on
    their first read and kept: a caller who reads only ``value`` never pays
    for the LP that finds them.
    """

    __slots__ = ("value", "_witness", "_data")

    def __init__(self, value: Rational, translation=None, attaining=None, *, witness=None):
        self.value = value
        self._witness = witness
        self._data = (translation, attaining)

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


def circumradius(body: VPolytope, gauge: VPolytope) -> RadiiResult | None:
    """R(body, gauge); None when no dilate of the gauge can cover the body
    (the affine hulls are incompatible).

    Against a full-dimensional gauge the value is the optimum of the facet
    form, one row per facet g.x <= b of the gauge,

        minimize lambda  subject to  g.t + b lambda >= h(body, g),

    with t free and lambda >= 0, and it is solved as its dual
    (``_facet_circumradius``): one column per facet and n + 1 rows, whatever
    the body.  Such a gauge covers every body, so the result is never None.
    The translation and the contacts are read off the vertex-form LP
    (``circumradius_program``), solved on their first read only; its optimum
    is the same value, and its dual gives ``attaining``.  A flat gauge has
    no facets and takes the vertex form for everything."""
    return _circumradius(canonicalize(body), canonicalize(gauge))


@lru_cache(maxsize=None)
def _circumradius(body: VPolytope, gauge: VPolytope) -> RadiiResult | None:
    check_same_dim(body, gauge)
    if integer_facets(gauge) is None:
        return _circumradius_by_vertices(body, gauge)

    def witness():
        res = _circumradius_by_vertices(body, gauge)
        return res.translation, res.attaining

    return RadiiResult(_facet_circumradius(body, gauge)[0], witness=witness)


def _facet_circumradius(body: VPolytope, gauge: VPolytope) -> tuple:
    """``(R, u, den)``: the facet-form optimum, read off its LP dual, with
    that LP's dual vector u and the denominator den of the body's integer
    image.  The LP has one column y_g >= 0 per facet g.x <= b of the
    full-dimensional canonical gauge and n + 1 rows,

        R = max sum_g y_g h(body, g)  subject to  sum_g y_g g = 0,  sum_g y_g b = 1.

    The last row is an equality because the primal's lambda >= 0 is implied:
    the normals of a full-dimensional gauge balance with positive weights, so
    no lambda < 0 is feasible.  Every number is an int: the gauge's
    ``integer_facets`` give the primitive normals and the offsets over the
    gauge's image denominator, which the last row is written over, and the
    support values are taken on the body's integer image, so the objective
    is den times the one above.  The dual vector u is optimal for
    this LP's own dual, which is the facet form: every column's reduced cost
    -den h(body, g) - u[:n].g - u[n] b is nonnegative, and -u[n] = den R,
    so t = -u[:n] / den has g.t + R b >= h(body, g) on every facet.  Only
    the asymmetry reads t, so forming it is left to that caller."""
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
    return -out.value / den, out.dual, den


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
    first canonical vertex."""
    res = circumradius(gauge, body)
    if res is None:
        return RadiiResult(ZERO, canonicalize(body).vertices[0])
    if res.value == 0:
        raise DegenerateGaugeError("inradius is unbounded: gauge is a single point")
    rho = ONE / res.value
    return RadiiResult(rho, witness=lambda: (vscale(-rho, res.translation), None))


# ---------------------------------------------------------------------------
# norms, diameter, breadth


def sym_gauge_norm(z, gauge: VPolytope) -> Rational | None:
    """Norm of z in the symmetrized gauge (C - C)/2: the least rho with
    z in (rho/2)(C - C).  None when z leaves the span of C - C.

    For a full-dimensional gauge in two or three dimensions this is, with no
    LP, the largest of

        2 |a.z| / (h(C, a) + h(C, -a))

    over the directions a of ``_norm_directions``.  Each such ratio is at
    most the norm, and the largest is attained at the facet normals of
    C - C = C + (-C), which are among them.  The fractions are compared on
    integer images.  The closed form is cheap and its arguments rarely
    repeat, so it is not memoized.

    Flat gauges and dimensions >= 4 take 2 R([0, z], C): the segment [0, z]
    lies in t + lambda C exactly when z is in lambda (C - C), so the norm is
    twice the circumradius of the segment, and None when that is None.
    Against a full-dimensional gauge that is the (n + 1)-row facet-form
    value LP of ``circumradius``, memoized there."""
    zv = vec(z)
    if len(zv) != gauge.dim:
        raise DimensionMismatchError("vector length does not match gauge dimension")
    if is_zero_vec(zv):
        return ZERO
    gauge = canonicalize(gauge)
    directions = _norm_directions(gauge)
    if directions is None:
        segment = VPolytope(gauge.dim, tuple(sorted((vzero(gauge.dim), zv))), canonical=True)
        res = _circumradius(segment, gauge)
        return None if res is None else 2 * res.value
    dc, dirs = directions
    dz, (zi,) = integer_image([zv])
    # 2|a.z| / (h(C, a) + h(C, -a)) = 2 dc |a.zi| / (dz w), w the integer width
    best_num, best_w = 0, 1
    for a, w in dirs:
        num = abs(sum(map(mul, a, zi)))
        if num * best_w > best_num * w:
            best_num, best_w = num, w
    return Rational(2 * dc * best_num, dz * best_w)


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


def diameter(body: VPolytope, gauge: VPolytope) -> RadiiResult | None:
    """D(body, gauge): the largest pairwise vertex distance in the
    (C - C)/2 norm, with the attaining pair.  None if some difference leaves
    the span of the gauge."""
    return _diameter(canonicalize(body), canonicalize(gauge))


@lru_cache(maxsize=None)
def _diameter(body: VPolytope, gauge: VPolytope) -> RadiiResult | None:
    check_same_dim(body, gauge)
    verts = body.vertices  # canonical, hence sorted: first attaining pair is
    best = ZERO            # the lexicographically smallest one
    pair = None
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            norm = sym_gauge_norm(tuple(a - b for a, b in zip(verts[j], verts[i])), gauge)
            if norm is None:
                return None
            if norm > best:
                best = norm
                pair = (verts[i], verts[j])
    return RadiiResult(best, attaining=pair)


def breadth(body: VPolytope, gauge: VPolytope, direction) -> Rational:
    """s-breadth: 2 h(K - K, s) / h(C - C, s), via ``width``, since
    h(K - K, s) = h(K, s) + h(K, -s)."""
    d = vec(direction)
    if is_zero_vec(d):
        raise ValueError("breadth needs a nonzero direction")
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
        raise ValueError("Jung ratio needs a body with positive diameter")
    return circ.value / diam.value


# ---------------------------------------------------------------------------
# asymmetry and Minkowski centers


def asymmetry(body: VPolytope) -> AsymmetryResult:
    """Minkowski asymmetry s(K) = R(-K, K) with one Minkowski center.

    Both come from one LP: -K in t + sK means -(K - c) in s(K - c) for
    c = -t/(1 + s), and the translation t is read off the same solve as s.
    For a full-dimensional body that is the facet form of R(-K, K), whose
    dual vector holds an optimal t (``_facet_circumradius``); a flat body
    takes the vertex-form LP.  A symmetric body has s = 1 and its center,
    with no LP.  Centers are not unique in general, and which optimal t the
    solve returns is not specified; predicates quantifying over centers must
    use the full center polytope, never just this one:
    ``is_minkowski_center`` tests a point against it, and the concentricity
    LPs of ``theorems`` carry its rows.
    """
    return _asymmetry(canonicalize(body))


@lru_cache(maxsize=None)
def _asymmetry(body: VPolytope) -> AsymmetryResult:
    sym, center = is_centrally_symmetric(body)
    if sym:  # s = 1 exactly iff the body is symmetric; center is forced
        return AsymmetryResult(ONE, center)
    if integer_facets(body) is None:  # -K always fits in a translate of a dilate of K
        res = _circumradius_by_vertices(negate(body), body)
        return AsymmetryResult(res.value, vscale(-ONE / (ONE + res.value), res.translation))
    s, u, den = _facet_circumradius(negate(body), body)
    # c = -t/(1 + s) for the translation t = -u[:n]/den
    return AsymmetryResult(s, tuple(x / (den * (ONE + s)) for x in u[: body.dim]))


def is_minkowski_center(body: VPolytope, point) -> bool:
    """Exact check of -(K - c) in s(K)(K - c).  For a full-dimensional body
    that is one sign test per facet g.x <= b of K,

        (1 + s) g.c <= s b - h(K, -g),

    since the inclusion holds exactly when h(-(K - c), g) <= s h(K - c, g)
    on every facet normal; it is taken on ints, from the ``integer_facets``
    and the integer images of K and c.  A flat body takes one membership
    test per vertex."""
    c = vec(point)
    k = canonicalize(body)
    if len(c) != k.dim:
        raise DimensionMismatchError("point length does not match body dimension")
    s = asymmetry(k).s
    planes = integer_facets(k)
    if planes is not None:
        # times q dc den for s = p/q, c = ci/dc and the images of K over den:
        # (q + p) den g.ci <= dc (p b - q h(K, -g) den)
        p, q = s.numerator, s.denominator
        den, images = k.image
        dc, (ci,) = integer_image([c])
        return all(
            (q + p) * den * sum(map(mul, g, ci))
            <= dc * (p * b + q * min(sum(map(mul, g, x)) for x in images))
            for g, b, _ in planes
        )
    shifted = vscale(ONE + s, c)
    target = scale(k, s)
    return all(
        contains_point(target, tuple(sc - v for sc, v in zip(shifted, vert)))
        for vert in k.vertices
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
        raise ValueError("constant width needs a gauge spanning the body")
    if diam.value == 0:
        return True
    back = diameter(gauge, body)
    return back is not None and diam.value * back.value == 4


# ---------------------------------------------------------------------------
# memo caches

# Taken at import, so that a rebinding of these names (a benchmark counting
# calls) leaves the caches reachable here.
_CACHES = (
    _canonical_form,
    difference_body,
    is_centrally_symmetric,
    _circumradius,
    _norm_directions,
    _diameter,
    _asymmetry,
)


def clear_caches() -> None:
    """Empty every memo cache of ``bodies`` and ``radii``.  The caches grow
    with every body asked about, and the bodies they hold keep their images
    and facets; a long run of independent questions, such as the trials of
    ``explore``, calls this between them."""
    for cache in _CACHES:
        cache.cache_clear()
