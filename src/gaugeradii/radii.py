"""Circumradius, inradius, diameter and Minkowski asymmetry of polytopes
with respect to a (possibly non-symmetric) polytopal gauge body, all exact.

The circumradius R(K, C) — the least dilation factor of C that can cover a
translate of K — is the workhorse: the inradius is its reciprocal with the
roles swapped, the asymmetry is R(-K, K), and translative containment tests
throughout the library are "circumradius <= 1".

Against a full-dimensional gauge the value comes from the facet form, the
least lambda with g.t + lambda b >= h(K, g) on every facet g.x <= b of C,
solved as its dual: one column per facet of C and n + 1 rows, with the
support values of K taken on integer images.  Each functional also returns
a witness: a translation, the contacts of an optimal containment, or a
Minkowski center.  Those come from the vertex-form LP, one hull-membership
block per vertex of K, which is solved only when a caller first reads a
witness; its dual is what ``certificates.extract`` reads.  A flat gauge has
no facets and takes the vertex form for its value too.  The (C - C)/2 norm
behind the diameter needs no LP of its own: it is a closed form over the
edges of a full-dimensional planar gauge, and otherwise 2 R([0, z], C).
Every value can be re-certified independently.

Results are memoized on the (immutable, canonicalized) bodies; a verification
suite touches the same radii many times over.
"""

from __future__ import annotations

from functools import lru_cache

from . import lp
from .bodies import (
    DimensionMismatchError,
    VPolytope,
    canonicalize,
    check_same_dim,
    contains_point,
    facets,
    integer_image,
    integer_support,
    integer_width,
    is_centrally_symmetric,
    negate,
    scale,
    support,
    width,
)
from .ratcore import ONE, ZERO, Rational, Vec, is_zero_vec, vdot, vec, vneg, vscale, vzero


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
    """s(K) with one Minkowski center; given ``witness``, a function
    returning the center, it is computed on its first read and kept."""

    __slots__ = ("s", "_witness", "_center")

    def __init__(self, s: Rational, center=None, *, witness=None):
        self.s = s
        self._witness = witness
        self._center = center

    @property
    def center(self) -> tuple:
        if self._witness is not None:
            self._center, self._witness = self._witness(), None
        return self._center

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
    halves = facets(gauge)
    if halves is None:
        return _circumradius_by_vertices(body, gauge)

    def witness():
        res = _circumradius_by_vertices(body, gauge)
        return res.translation, res.attaining

    return RadiiResult(_facet_circumradius(body, halves), witness=witness)


def _facet_circumradius(body: VPolytope, halves) -> Rational:
    """The facet-form optimum, read off its LP dual: one column y_g >= 0 per
    facet g.x <= b of the gauge and n + 1 rows,

        R = max sum_g y_g h(body, g)  subject to  sum_g y_g g = 0,  sum_g y_g b = 1.

    The last row is an equality because the primal's lambda >= 0 is implied:
    the normals of a full-dimensional gauge balance with positive weights, so
    no lambda < 0 is feasible.  The support values are taken on the body's
    integer images (the facet normals are primitive int vectors)."""
    den, images = integer_image(body.vertices)
    builder = lp.ProgramBuilder()
    ys = [
        builder.add_var(objective=-integer_support(images, [q.numerator for q in g]))
        for g, _ in halves
    ]
    for k in range(body.dim):
        builder.add_row({y: g[k] for y, (g, _) in zip(ys, halves) if g[k]}, ZERO)
    builder.add_row({y: b for y, (_, b) in zip(ys, halves) if b}, ONE)
    out = lp.solve(builder.build())
    if out.status != lp.OPTIMAL:  # a full-dimensional gauge covers every body
        raise RuntimeError("facet-form circumradius LP must have an optimum")
    return -out.value / den


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

    For a full-dimensional planar gauge this is, with no LP,

        max over the facet normals g of C of  2 |g.z| / (h(C, g) + h(C, -g)),

    since every edge of C - C = C + (-C) is parallel to an edge of C or -C,
    so the facet normals of (C - C)/2 are among the +-g, with support values
    (h(C, g) + h(C, -g))/2.  The fractions are compared on integer images.

    Flat gauges and dimensions >= 3 take 2 R([0, z], C): the segment [0, z]
    lies in t + lambda C exactly when z is in lambda (C - C), so the norm is
    twice the circumradius of the segment, and None when that is None.
    Against a full-dimensional gauge that is the (n + 1)-row facet-form
    value LP of ``circumradius``."""
    zv = vec(z)
    if len(zv) != gauge.dim:
        raise ValueError("vector length does not match gauge dimension")
    if is_zero_vec(zv):
        return ZERO
    return _sym_gauge_norm(zv, canonicalize(gauge))


@lru_cache(maxsize=None)
def _sym_gauge_norm(zv: Vec, gauge: VPolytope) -> Rational | None:
    halves = facets(gauge) if gauge.dim == 2 else None
    if halves is not None:
        dz, (zi,) = integer_image([zv])
        dc, images = integer_image(gauge.vertices)
        # 2|g.z| / (h(C, g) + h(C, -g)) = 2 dc |g.zi| / (dz W), W the integer width
        best_num, best_w = 0, 1
        for g, _ in halves:
            gi = (g[0].numerator, g[1].numerator)
            num = abs(gi[0] * zi[0] + gi[1] * zi[1])
            w = integer_width(images, gi)
            if num * best_w > best_num * w:
                best_num, best_w = num, w
        return Rational(2 * dc * best_num, dz * best_w)
    segment = VPolytope(gauge.dim, tuple(sorted((vzero(gauge.dim), zv))), canonical=True)
    res = _circumradius(segment, gauge)
    return None if res is None else 2 * res.value


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

    The center follows from the witness translation, on its first read:
    -K in t + sK means -(K - c) in s(K - c) for c = -t/(1 + s).  A symmetric
    body has s = 1 and its center, with no LP.  Centers are not unique in
    general; predicates quantifying over centers must use the full center
    polytope, never just this one: ``is_minkowski_center`` tests a point
    against it, and the concentricity LPs of ``theorems`` carry its rows.
    """
    return _asymmetry(canonicalize(body))


@lru_cache(maxsize=None)
def _asymmetry(body: VPolytope) -> AsymmetryResult:
    sym, center = is_centrally_symmetric(body)
    if sym:  # s = 1 exactly iff the body is symmetric; center is forced
        return AsymmetryResult(ONE, center)
    result = circumradius(negate(body), body)
    if result is None:
        raise ValueError("asymmetry needs a full-dimensional body")
    s = result.value
    return AsymmetryResult(s, witness=lambda: vscale(-ONE / (ONE + s), result.translation))


def is_minkowski_center(body: VPolytope, point) -> bool:
    """Exact check of -(K - c) in s(K)(K - c).  For a full-dimensional body
    that is one sign test per facet g.x <= b of K,

        (1 + s) g.c <= s b - h(K, -g),

    since the inclusion holds exactly when h(-(K - c), g) <= s h(K - c, g)
    on every facet normal; a flat body takes one membership LP per vertex."""
    c = vec(point)
    k = canonicalize(body)
    if len(c) != k.dim:
        raise DimensionMismatchError("point length does not match body dimension")
    s = asymmetry(k).s
    halves = facets(k)
    if halves is not None:
        return all(
            (ONE + s) * vdot(g, c) <= s * b - support(k, vneg(g))[0] for g, b in halves
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
