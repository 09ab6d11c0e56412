"""Evaluators for the radius inequality chains, equivalence conditions and
concentricity predicates, each reporting exact per-link values and equality
flags.

Design rules observed throughout:

* Equality flags compare exact rationals.  There are no tolerances anywhere
  in this module.
* Translative containment ``A in t + B`` is decided as "circumradius <= 1";
  optimal containment as "circumradius = 1".
* Difference bodies are built only where a statement is about one: the radii
  of K against C - C, and R(C - C, C).  Elsewhere they are written through
  the radii, e.g. K - K = D(K, C)/2 (C - C) as D(K, C) D(C, K) = 4.
* Predicates of the form "there exists a Minkowski center c ..." are decided
  by one LP over the full center polytope.  Minkowski centers are not
  unique, so testing only the returned center would be wrong.  Each
  inclusion is one row per facet of its container, with the support value
  of the contained set on the right, and the system of rows is decided by
  its Farkas LP, which has 2n + 1 rows whatever the number of facets.  When
  the body or the gauge is flat, every inclusion is written vertex by
  vertex instead, and then the system itself is solved.
* Every containment written vertex by vertex, "x in t + mu conv(P)" with
  convex weight columns over the points P, comes from one method,
  ``lp.ProgramBuilder.add_hull_membership``: the gauge function, the flat
  concentricity systems, and in ``radii`` the circumradius witness LP.
* Completeness is decided only where an exact criterion exists: simplices
  (via the symmetrized-gauge characterization) and constant-width bodies.
  Everything else reports "undecidable" rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lp
from .bodies import (
    DegenerateSimplexError,
    DimensionMismatchError,
    VPolytope,
    check_same_dim,
    contains_point,
    difference_body,
    facets,
    integer_facets,
    integer_support,
    integer_width,
    is_centrally_symmetric,
    is_simplex,
    minkowski_sum,
    negate,
    same_vertex_set,
    scale,
    simplex_facets,
    simplex_hrep,
    support,
    translate,
    width,
)
from .radii import (
    InfiniteRadiusError,
    SinglePointBodyError,
    ZeroDirectionError,
    asymmetry,
    circumradius,
    diameter,
    inradius,
    is_constant_width,
    is_minkowski_center,
    largest_vertex_norm,
    sym_gauge_norm,
)
from .ratcore import ONE, ZERO, Rational, is_zero_vec, rat, rat_str, solve_square, vec, vneg, vsub, vzero


class GaugeNotSymmetricError(ValueError):
    """This chain is only defined for a centrally symmetric gauge."""


class NotCenteredError(ValueError):
    """The body must be Minkowski centered at the origin."""


class NotPlanarError(ValueError):
    """A planar statement was asked about bodies outside the plane."""


# ---------------------------------------------------------------------------
# gauge function


class OriginNotInGaugeError(ValueError):
    pass


def gauge_value(z, body: VPolytope) -> Rational | None:
    """Gauge function of a body containing the origin: the least rho >= 0
    with z in rho * body.  None when z is outside the cone of the body.
    One LP: a hull-membership block for z over the body's vertices, with
    mass rho, minimizing rho.

    For non-symmetric bodies this is *not* a norm (gauge(z) != gauge(-z) in
    general) and deliberately not called a length.
    """
    zv = vec(z)
    if len(zv) != body.dim:
        raise DimensionMismatchError("vector length does not match body dimension")
    if not contains_point(body, vzero(body.dim)):
        raise OriginNotInGaugeError("gauge function needs the origin inside the body")
    if is_zero_vec(zv):
        return ZERO
    builder = lp.ProgramBuilder()
    rho = builder.add_var(objective=ONE)
    builder.add_hull_membership(body.vertices, [{}] * body.dim, zv, mass=rho)
    out = lp.solve(builder.build())
    return out.value if out.status == lp.OPTIMAL else None


# ---------------------------------------------------------------------------
# containment factors


def translative_factor(body: VPolytope, gauge: VPolytope) -> Rational:
    """Least rho with body in a translate of rho*gauge (a circumradius)."""
    res = circumradius(body, gauge)
    if res is None:
        raise InfiniteRadiusError("no translate of any dilate contains the body")
    return res.value


# ---------------------------------------------------------------------------
# inequality chains


CHAINS = (
    "bohnenblust",
    "extended-bohnenblust",
    "asymmetric-jung-bound",
    "concentricity",
    "symmetric-gauge-chain",
    "gauge-asymmetry-chain",
    "body-asymmetry-chain",
    "mirrored-concentricity",
    "generalized-concentricity",
    "complete-chain",
    "extended-jung",
)

SYMMETRIC_ONLY_CHAINS = {"bohnenblust", "concentricity", "symmetric-gauge-chain"}

# Chains with a value over D(K, C), which is 0/0 for a one-point body.
_OVER_DIAMETER = {"bohnenblust", "extended-bohnenblust", "asymmetric-jung-bound", "extended-jung"}


@dataclass(frozen=True)
class ChainReport:
    """Exact link values of one inequality chain.

    For ``kind == "values"`` the i-th relation compares values[i] with
    values[i+1]; for ``kind == "inclusions"`` the values are containment
    factors, each compared against 1.  ``">"`` marks a violated link (never
    expected; it would witness a counterexample), and ``holds`` is True when
    no link is violated.
    """

    chain_id: str
    values: tuple
    relations: tuple
    holds: bool
    kind: str = "values"
    note: str | None = None

    @property
    def all_equal(self) -> bool:
        return all(r == "=" for r in self.relations)

    def to_json(self) -> dict:
        data = {
            "chain": self.chain_id,
            "values": [rat_str(v) for v in self.values],
            "relations": list(self.relations),
            "holds": self.holds,
            "kind": self.kind,
        }
        if self.note:
            data["note"] = self.note
        return data


def _relation(a, b) -> str:
    if a == b:
        return "="
    return "<" if a < b else ">"


def _values_report(chain_id: str, values: tuple, note: str | None = None) -> ChainReport:
    relations = tuple(_relation(a, b) for a, b in zip(values, values[1:]))
    return ChainReport(chain_id, values, relations, ">" not in relations, "values", note)


def _inclusion_report(chain_id: str, factors: tuple, note: str | None = None) -> ChainReport:
    relations = tuple(_relation(f, ONE) for f in factors)
    return ChainReport(chain_id, factors, relations, ">" not in relations, "inclusions", note)


def _chain_diameter(chain_id: str, K: VPolytope, C: VPolytope) -> Rational:
    d = diameter(K, C)
    if d is None:
        raise InfiniteRadiusError("diameter is infinite for this pair")
    if d.value == 0 and chain_id in _OVER_DIAMETER:
        raise SinglePointBodyError(
            f"chain {chain_id!r} divides by D(K, C), which is 0 for a one-point body"
        )
    return d.value


def eval_chain(chain_id: str, body: VPolytope, gauge: VPolytope) -> ChainReport:
    """Evaluate one inequality chain on (body, gauge) with exact relations."""
    if chain_id not in CHAINS:
        raise ValueError(f"unknown chain {chain_id!r}; choose from {CHAINS}")
    if chain_id in SYMMETRIC_ONLY_CHAINS and not is_centrally_symmetric(gauge)[0]:
        raise GaugeNotSymmetricError(f"chain {chain_id!r} needs a symmetric gauge")
    n = rat(check_same_dim(body, gauge))

    if chain_id == "extended-jung":
        return _extended_jung_chain(body, gauge)

    R = translative_factor(body, gauge)
    D = _chain_diameter(chain_id, body, gauge)
    sK = asymmetry(body).s
    sC = asymmetry(gauge).s
    r = inradius(body, gauge).value
    r_mirror = inradius(body, negate(gauge)).value

    if chain_id == "bohnenblust":
        return _values_report(chain_id, (R / D, n / (n + 1)))
    if chain_id == "extended-bohnenblust":
        return _values_report(chain_id, (R / D, sK * (sC + 1) / (2 * (sK + 1))))
    if chain_id == "asymmetric-jung-bound":
        return _values_report(chain_id, (R / D, n * (sC + 1) / (2 * (n + 1))))
    if chain_id == "concentricity":
        return _values_report(chain_id, (r + R, D))
    if chain_id == "symmetric-gauge-chain":
        return _values_report(
            chain_id, ((1 + sK) * r, r + R, (1 + sK) / sK * R, D)
        )
    if chain_id == "gauge-asymmetry-chain":
        return _values_report(
            chain_id,
            ((1 + sK) * r_mirror, r_mirror + R, sC * r + R, (1 + sC) * D / 2),
        )
    if chain_id == "body-asymmetry-chain":
        return _values_report(
            chain_id,
            ((1 + sK) * r_mirror, r_mirror + R, (1 + sK) / sK * R, (1 + sC) * D / 2),
        )
    if chain_id == "mirrored-concentricity":
        return _values_report(chain_id, (r_mirror + R, (1 + sC) * D / 2))
    if chain_id == "generalized-concentricity":
        return _values_report(chain_id, (sC * r + R, (1 + sC) * D / 2))
    # complete-chain: evaluated on any pair, meaningful when K is complete.
    return _values_report(
        chain_id,
        (
            (1 + sK) * r_mirror,
            r_mirror + R,
            (1 + sK) / sK * R,
            sC * r + R,
            (1 + sC) * D / 2,
        ),
        note="hypothesis: body complete with respect to the gauge",
    )


def _extended_jung_chain(K: VPolytope, C: VPolytope) -> ChainReport:
    """Inclusion chain: (s+1)/s K in K-K in D/2 (C-C), the last translatively
    inside D/2 (s(C)+1) C.  The first link is a direct inclusion after
    re-centering K at a Minkowski center; K - K is the unit ball of twice the
    (K - K)/2 norm, so its factor is half the largest such norm of a vertex.
    Every Minkowski center c gives K - c in s/(s + 1)(K - K), so the link
    holds whichever center ``asymmetry`` returns.
    The second link is exactly 1 by the definition of D: K - K is spanned by
    vertex differences of K, whose largest (C-C)/2-norm is D.  So D itself
    is never read; ``_chain_diameter`` is still called, as the guard that
    refuses a pair whose D is infinite or zero."""
    asym = asymmetry(K)
    sK = asym.s
    K0 = translate(K, tuple(-x for x in asym.center))
    _chain_diameter("extended-jung", K, C)
    sC = asymmetry(C).s
    f1 = largest_vertex_norm(K0, K) * (sK + 1) / (2 * sK)
    f3 = translative_factor(difference_body(C), C) / (sC + 1)
    return _inclusion_report(
        "extended-jung",
        (f1, ONE, f3),
        note="first link re-centered at a Minkowski center of the body",
    )


# ---------------------------------------------------------------------------
# condition vectors


@dataclass(frozen=True)
class ConditionVector:
    """Named boolean outcomes of one equivalence theorem's conditions.

    ``consistent`` must be True on every instance satisfying the theorem's
    hypotheses; a mixed vector witnesses an implementation bug, not a poor
    input.
    """

    entries: tuple  # of (name, bool) pairs

    @property
    def flags(self) -> tuple:
        return tuple(flag for _name, flag in self.entries)

    @property
    def consistent(self) -> bool:
        return len(set(self.flags)) == 1

    @property
    def all_true(self) -> bool:
        return all(self.flags)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def to_json(self) -> dict:
        return {"conditions": dict(self.entries), "consistent": self.consistent}


# ---------------------------------------------------------------------------
# elementary radius bounds (used by the main chains)


@dataclass(frozen=True)
class RadiusBoundsReport:
    """The five elementary radius/asymmetry bounds, labeled (a)..(e), plus
    the concentricity implications triggered by equality in (a)."""

    checks: tuple  # (("a", bool), ..., ("e", bool))
    gauge_equality_followup: bool | None  # s(C) = R/r(K,-C): K mirrored conc. wrt C
    body_equality_followup: bool | None  # s(K) = R/r(K,-C): C mirrored conc. wrt K

    @property
    def all_hold(self) -> bool:
        return all(flag for _name, flag in self.checks)


def radius_bound_checks(body: VPolytope, gauge: VPolytope) -> RadiusBoundsReport:
    """Check the bounds (a)..(e) on (K, C).  A one-point body is refused: its
    R(K, C) = s(K) r(K, -C) = 0 would run a follow-up whose implication needs
    a full-dimensional body."""
    R = translative_factor(body, gauge)
    if R == 0:
        raise SinglePointBodyError(
            "radius bounds need R(K, C) > 0, which is 0 for a one-point body"
        )
    R_neg = translative_factor(body, negate(gauge))
    r = inradius(body, gauge).value
    r_neg = inradius(body, negate(gauge)).value
    CC = difference_body(gauge)
    R_cc = translative_factor(body, CC)
    r_cc = inradius(body, CC).value
    sK = asymmetry(body).s
    sC = asymmetry(gauge).s

    # All bounds are cross-multiplied so zero inradii (flat bodies) stay exact.
    a = max(sK, sC) * r_neg <= R
    b = (sC + 1) * R_cc <= sC * R and R <= (sC + 1) * R_cc
    c = (sC + 1) * r_cc <= sC * r and r <= (sC + 1) * r_cc
    d = min(sK, sC) * r >= r_neg and min(sK, sC) * R >= R_neg
    e = sC * r * R_cc >= R * r_cc

    gauge_followup = None
    if sC * r_neg == R:
        gauge_followup = is_mirrored_concentric(body, gauge)
    body_followup = None
    if sK * r_neg == R:
        body_followup = is_mirrored_concentric(gauge, body)
    return RadiusBoundsReport(
        checks=(("a", a), ("b", b), ("c", c), ("d", d), ("e", e)),
        gauge_equality_followup=gauge_followup,
        body_equality_followup=body_followup,
    )


def breadth_ratio_bounds(gauge: VPolytope, r, directions) -> bool:
    """For a Minkowski-centered gauge C and r in [0, 1], the ratio
    (h(C,a) + h(rC,-a)) / (h(C,a) + h(C,-a)) stays within
    [(1 + s r)/(1 + s), (r + s)/(1 + s)] for every direction a."""
    rho = rat(r)
    if not (ZERO <= rho <= ONE):
        raise ValueError("the shrink factor must lie in [0, 1]")
    if not is_minkowski_center(gauge, vzero(gauge.dim)):
        raise NotCenteredError("gauge must be Minkowski centered at the origin")
    s = asymmetry(gauge).s
    for a in directions:
        av = vec(a)
        if is_zero_vec(av):
            raise ZeroDirectionError("breadth bound needs nonzero directions")
        h_plus = support(gauge, av)[0]
        h_minus = support(gauge, tuple(-x for x in av))[0]
        num = h_plus + rho * h_minus
        den = h_plus + h_minus
        if not ((1 + s * rho) * den <= (1 + s) * num <= (rho + s) * den):
            return False
    return True


@dataclass(frozen=True)
class RatioBoundsReport:
    """Circum/in ratio against the asymmetries: the lower bound always, the
    upper bound where completeness is decidable."""

    lower_holds: bool
    completeness: str  # "complete" | "incomplete" | "undecidable"
    upper_holds: bool | None
    equality_concentric: bool | None  # mutual concentricity at upper equality


def ratio_bound_checks(body: VPolytope, gauge: VPolytope) -> RatioBoundsReport:
    R = translative_factor(body, gauge)
    r = inradius(body, gauge).value
    sK = asymmetry(body).s
    sC = asymmetry(gauge).s
    lower = R * sC >= r * sK and R * sK >= r * sC

    if is_simplex(body):
        completeness = "complete" if simplex_complete(body, gauge)[0] else "incomplete"
    elif is_constant_width(body, gauge):
        completeness = "complete"
    else:
        completeness = "undecidable"
    upper = None
    equality_followup = None
    if completeness == "complete":
        upper = R <= sK * sC * r
        if R == sK * sC * r:
            equality_followup = are_mutually_concentric(body, gauge)
    return RatioBoundsReport(lower, completeness, upper, equality_followup)


# ---------------------------------------------------------------------------
# concentricity predicates


def is_minkowski_concentric(body: VPolytope, gauge: VPolytope) -> bool:
    """Does r(K,C)(C-c) in K-t in R(K,C)(C-c) hold for some Minkowski center
    c of the gauge and some translation t?"""
    return _concentric_feasible(body, gauge, mirrored=False, mutual=False)


def is_mirrored_concentric(body: VPolytope, gauge: VPolytope, *, mutual: bool = False) -> bool:
    """Mirrored variant: -r(K,-C)(C-c) in K-t in R(K,C)(C-c); with
    ``mutual`` the translation t must itself be a Minkowski center of K."""
    return _concentric_feasible(body, gauge, mirrored=True, mutual=mutual)


def are_mutually_concentric(body: VPolytope, gauge: VPolytope) -> bool:
    """Minkowski concentric with t a Minkowski center of the body, which
    makes the relation symmetric in the two sets."""
    return _concentric_feasible(body, gauge, mirrored=False, mutual=True)


def _concentric_feasible(body: VPolytope, gauge: VPolytope, mirrored: bool, mutual: bool) -> bool:
    """Is there a Minkowski center c of C and a translation t with, for
    sigma = -1 when mirrored and +1 otherwise,

        (1+s(C)) c - C in s(C) C            (c is a Minkowski center of C)
        (1+s(K)) t - K in s(K) K            (with ``mutual``)
        t - sigma r c + sigma r C in K      (inner inclusion)
        R c - t + K in R C                  (outer inclusion)?

    Each inclusion reads alpha c + beta t + P in factor * Q for a set P, a
    container Q and scalars.  When K and C are full-dimensional, it is one
    row alpha g.c + beta g.t <= bound per facet g of Q (``_facet_rows``),
    and the system is decided on the small side of Farkas' lemma: it has
    no solution exactly when some y >= 0 with A^T y = 0 has b.y < 0.  So
    one LP with 2n + 1 rows and one column per row of the system,

        minimize b.y  subject to  A^T y = 0,  sum y = 1,  y >= 0,

    decides it: feasible iff its optimum is >= 0 (exactly 0 on concentric
    equality pairs).  It always has one, since the Minkowski-center rows
    carry the facet normals of C, which balance with positive weights, on
    c alone.  Its int rows come straight from ``_facet_rows``, each row of
    A^T over the lcm of the alphas' (or betas') denominators.  When K or C
    is flat, the system itself is solved as a feasibility LP over (c, t),
    with one hull-membership block per point of P, ``alpha c + beta t + p
    = factor * (convex combination of the vertices of Q)``.
    """
    n = check_same_dim(body, gauge)
    circ = circumradius(body, gauge)
    if circ is None:
        return False
    R = circ.value
    sigma, sigma_C = (-ONE, negate(gauge)) if mirrored else (ONE, gauge)
    r = inradius(body, sigma_C).value
    sC = asymmetry(gauge).s
    # (alpha, beta, P, Q, factor) per inclusion
    inclusions = [(ONE + sC, ZERO, negate(gauge), gauge, sC)]
    if mutual:
        sK = asymmetry(body).s
        inclusions.append((ZERO, ONE + sK, negate(body), body, sK))
    inclusions.append((-sigma * r, ONE, scale(sigma_C, r), body, ONE))
    inclusions.append((R, -ONE, body, gauge, R))
    if integer_facets(body) is None or integer_facets(gauge) is None:
        builder = lp.ProgramBuilder()
        c_vars = builder.add_vars(n, free=True)
        t_vars = builder.add_vars(n, free=True)
        for alpha, beta, points, container, factor in inclusions:
            lhs = [{c: alpha, t: beta} for c, t in zip(c_vars, t_vars)]
            for p in points.vertices:
                builder.add_hull_membership(container.vertices, lhs, vneg(p), scale=-factor)
        return lp.solve(builder.build()).status == lp.OPTIMAL
    system = []  # one (alpha, beta, g, bound, den) per row of the system
    for alpha, beta, points, container, factor in inclusions:
        den, rows = _facet_rows(points, container, factor)
        system += [(alpha, beta, g, bound, den) for g, bound in rows]
    cden = math.lcm(*(row[4] for row in system))
    costs = tuple(bound * (cden // den) for _, _, _, bound, den in system)
    normals = [row[2] for row in system]
    lp_rows = []
    for side in (0, 1):  # the alphas on the c coordinates, then the betas on t
        den = math.lcm(*(row[side].denominator for row in system))
        ints = [row[side].numerator * (den // row[side].denominator) for row in system]
        for k in range(n):
            entries = {y: f * g[k] for y, (f, g) in enumerate(zip(ints, normals)) if f and g[k]}
            lp_rows.append(lp.Row(entries, 0, den))
    lp_rows.append(lp.Row(dict.fromkeys(range(len(costs)), 1), 1, 1))
    program = lp.LinearProgram(costs, cden, tuple(lp_rows), (False,) * len(costs))
    return lp.solve(program).value >= 0


def _facet_rows(points: VPolytope, container: VPolytope, factor) -> tuple:
    """``(den, rows)``: ``x + p in factor * container`` for every vertex p
    of ``points``, as one ``(g, bound)`` pair per facet g.y <= b of a
    full-dimensional container, in facet order,

        g.x <= factor b - h(points, g)  =  bound / den,

    since the inclusion over all p is decided by the largest g.p; the
    caller writes x = alpha c + beta t into the row.  The
    normals g are the container's primitive int ``integer_facets`` normals,
    and the bounds are ints over one denominator: b is an int offset over
    the container's image denominator, and the support values are taken on
    the integer image of ``points``."""
    dp, images = points.image
    p, q = factor.numerator, factor.denominator
    dq = container.image[0]
    return q * dq * dp, [
        (g, p * b * dp - q * dq * integer_support(images, g))
        for g, b, _ in integer_facets(container)
    ]


# ---------------------------------------------------------------------------
# completeness of simplices


def simplex_complete(simplex: VPolytope, gauge: VPolytope):
    """Decide diametral completeness of a simplex with respect to the gauge.

    Completeness is invariant under symmetrizing the gauge, and for the
    symmetric gauge C' = C - C a simplex is complete iff

        S - S  in  D(S,C') C'  in  (n+1)((S - c) ∩ (-S + c))   for some c.

    The left inclusion holds by the definition of D: every vertex of S - S
    is a vertex difference of S, and D(S,C') is the largest of their
    C'-norms.  The right one is one feasibility LP over c, since by symmetry
    of C' both intersection halves impose the same facet constraints
    a_f . c <= b_f - h(D C', a_f)/(n+1).  No C' is built, by

        D(S,C') = D(S,C)/2    and    h(C', a) = h(C, a) + h(C, -a),

    the second read off ``width``.  Against a full-dimensional gauge in two
    or three dimensions neither D(S, C) nor the hull of S solves an LP, so
    the feasibility LP is the only solve.  Its rows a_f . c + slack_f = b_f
    - D(S,C)/2 (h(C, a_f) + h(C, -a_f))/(n + 1), free c first and then one
    slack per facet, are int rows over their lowest denominators, from the
    ``integer_facets`` of S and the integer widths of the gauge's image.

    Returns (complete, witness c or None).
    """
    planes = simplex_facets(simplex)  # raises DegenerateSimplexError when not a simplex
    n = simplex.dim
    d = diameter(simplex, gauge)
    if d is None:
        raise InfiniteRadiusError("gauge does not span the simplex")
    D2 = d.value / 2  # D(S, C')
    p, q = D2.numerator, D2.denominator
    ds, dg, images = simplex.image[0], *gauge.image
    rows = []
    for slack, (a, b, _) in enumerate(planes, n):
        # b / ds - (p / q) w / (dg (n + 1)) for the integer width w over dg
        full = ds * q * dg * (n + 1)
        rhs = b * q * dg * (n + 1) - p * integer_width(images, a) * ds
        g = math.gcd(full, rhs)
        entries = {k: x * (full // g) for k, x in enumerate(a) if x}
        entries[slack] = full // g
        rows.append(lp.Row(entries, rhs // g, full // g))
    free = (True,) * n + (False,) * len(rows)
    out = lp.solve(lp.LinearProgram((0,) * len(free), 1, tuple(rows), free))
    if out.status != lp.OPTIMAL:
        return False, None
    return True, out.primal[:n]


def is_equilateral(simplex: VPolytope, gauge: VPolytope) -> bool:
    """All edges of the simplex have the same symmetrized-gauge length
    (equivalently: every edge is diametral)."""
    simplex_facets(simplex)  # validates the simplex
    norms = set()
    verts = simplex.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            norms.add(sym_gauge_norm(vsub(verts[j], verts[i]), gauge))
    return len(norms) == 1 and None not in norms


# ---------------------------------------------------------------------------
# simplex equivalence conditions


def simplex_equality_conditions(simplex: VPolytope, gauge: VPolytope) -> ConditionVector:
    """The five equivalent characterizations of extremal complete simplices:
    the four-link inclusion chain, equality through both main chains,
    equality in the generalized concentricity inequality, equality in the
    asymmetric Jung bound, and completeness with R = n s(C) r.

    Of the chain (n+1)/n (S-c) in S-S in D/2 (C-C) in D/2 (s(C)+1)(C-c') in
    t + (n+1)(-S), c and c' Minkowski centers, only the last link is decided.
    The first three hold for every simplex and gauge, because
    - (S-c)/n lies in -(S-c) as s(S) = n, so S-S contains (1+1/n)(S-c);
    - S-S is spanned by vertex differences of S, whose largest (C-C)/2-norm is D;
    - -(C-c') lies in s(C)(C-c'), so C-C lies in (s(C)+1)(C-c')."""
    simplex_facets(simplex)  # validates the simplex
    n = rat(simplex.dim)
    R = translative_factor(simplex, gauge)
    r = inradius(simplex, gauge).value
    r_mirror = inradius(simplex, negate(gauge)).value
    d = diameter(simplex, gauge)
    if d is None:
        raise InfiniteRadiusError("gauge does not span the simplex")
    D = d.value
    sC = asymmetry(gauge).s

    f4 = translative_factor(gauge, negate(simplex)) * (sC + 1) * D / (2 * (n + 1))
    cond_inclusions = f4 <= 1

    cond_chains = (
        eval_chain("gauge-asymmetry-chain", simplex, gauge).all_equal
        and eval_chain("body-asymmetry-chain", simplex, gauge).all_equal
    )
    # Equality in the mirrored concentricity inequality.  (The generalized
    # variant s(C)r + R is an equality even for homothetic self-gauge pairs
    # like (S, S), which satisfy none of the other conditions; only the
    # mirrored form closes the equivalence cycle.)
    cond_concentricity = r_mirror + R == (sC + 1) * D / 2
    cond_jung = 2 * (n + 1) * R == n * (sC + 1) * D
    cond_complete = simplex_complete(simplex, gauge)[0] and R == n * sC * r

    return ConditionVector(
        entries=(
            ("inclusion_chain", cond_inclusions),
            ("chain_equalities", cond_chains),
            ("mirrored_concentricity_equality", cond_concentricity),
            ("jung_bound_equality", cond_jung),
            ("complete_with_extremal_ratio", cond_complete),
        )
    )


def sandwich_equivalence(body: VPolytope, gauge: VPolytope) -> ConditionVector:
    """Equality throughout the complete chain is equivalent to the closing
    inclusion D/2 (s(C)+1) C in a translate of (s(K)+1)(-K)."""
    chain = eval_chain("complete-chain", body, gauge)
    d = diameter(body, gauge)
    if d is None:
        raise InfiniteRadiusError("diameter is infinite for this pair")
    D = d.value
    sK = asymmetry(body).s
    sC = asymmetry(gauge).s
    closing = translative_factor(gauge, negate(body)) * D * (sC + 1) / (2 * (sK + 1)) <= 1
    return ConditionVector(
        entries=(
            ("complete_chain_equalities", chain.all_equal),
            ("closing_inclusion", closing),
        )
    )


# ---------------------------------------------------------------------------
# planar results


def triangle_gauge_decomposition(simplex: VPolytope, gauge: VPolytope):
    """Write the gauge as t + lam*S + (1-lam)(-S) for a Minkowski-centered
    triangle S, or None.

    The pair (lam, t) solves the support equalities h(C, a) = t.a +
    lam h(S, a) + (1-lam) h(-S, a) on the three facet normals of S — a
    nonsingular 3x3 system for any nondegenerate triangle — and is then
    verified by exact vertex-set equality.  (A decomposition forces
    C - C = S - S; the final check covers that.)
    """
    if simplex.dim != 2:
        raise NotPlanarError("the decomposition is a planar construction")
    hrep = simplex_hrep(simplex)
    negS = negate(simplex)
    rows = []
    rhs = []
    for half in hrep.halfspaces:
        a = half.normal
        h_s = support(simplex, a)[0]
        h_neg = support(negS, a)[0]
        rows.append([a[0], a[1], h_s - h_neg])
        rhs.append(support(gauge, a)[0] - h_neg)
    solved = solve_square(rows, rhs)
    if solved is None:
        return None
    t, lam = solved[:2], solved[2]
    if not (ZERO <= lam <= ONE):
        return None
    mixed = translate(minkowski_sum(scale(simplex, lam), scale(negS, ONE - lam)), t)
    if not same_vertex_set(gauge, mixed):
        return None
    return lam, t


def triangle_equality_conditions(simplex: VPolytope, gauge: VPolytope) -> ConditionVector:
    """The seven equivalent planar conditions (completeness and constant
    width coincide in the plane).  The triangle is re-centered at a Minkowski
    center first; every condition is translation invariant in the triangle.
    Condition (i) is the chain of ``simplex_equality_conditions`` with the
    middle link an equality, i.e. constant width; its first and third links
    hold always, for the reasons given there."""
    if simplex.dim != 2:
        raise NotPlanarError("this equivalence is planar")
    if len(simplex.vertices) != 3:
        raise DegenerateSimplexError("need a triangle")
    center = asymmetry(simplex).center
    S = translate(simplex, tuple(-x for x in center))
    R = translative_factor(S, gauge)
    r = inradius(S, gauge).value
    r_mirror = inradius(S, negate(gauge)).value
    D = diameter(S, gauge).value
    sC = asymmetry(gauge).s
    j_plus = R / D
    j_minus = translative_factor(negate(S), gauge) / D  # D(-S, C) = D(S, C)

    f4 = translative_factor(gauge, negate(S)) * (sC + 1) * D / 6

    cond_ii = eval_chain("complete-chain", S, gauge).all_equal
    # Mirrored concentricity equality; see simplex_equality_conditions for
    # why the mirrored (not the generalized) form is the right condition.
    cond_iii = r_mirror + R == (sC + 1) * D / 2
    cond_iv = 3 * j_plus == sC + 1
    constant = is_constant_width(S, gauge)
    cond_i = constant and f4 <= 1
    cond_v = constant and R == 2 * sC * r
    cond_vi = constant and j_plus >= j_minus
    # A mixed gauge t + rho(lam S + (1 - lam)(-S)) has C - C = rho(S - S),
    # so rho is the width ratio along any facet normal a of S (C is full
    # dimensional here, since R(S, C) is finite).  The decomposition is
    # taken at unit scale, on C / rho.
    a = facets(S)[0].normal
    decomposition = triangle_gauge_decomposition(S, scale(gauge, width(S, a) / width(gauge, a)))
    cond_vii = decomposition is not None and decomposition[0] <= rat("1/2")

    return ConditionVector(
        entries=(
            ("inclusion_chain", cond_i),
            ("complete_chain_equalities", cond_ii),
            ("mirrored_concentricity_equality", cond_iii),
            ("jung_bound_equality", cond_iv),
            ("constant_width_with_extremal_ratio", cond_v),
            ("constant_width_with_jung_dominance", cond_vi),
            ("mixed_triangle_gauge", cond_vii),
        )
    )


# ---------------------------------------------------------------------------
# ratio laws for complete simplices


@dataclass(frozen=True)
class SimplexRatioReport:
    """R/r of a complete simplex and its reflection against the bounds
    n/s(C) and n s(C), plus the crossed equality law tying the two bodies
    to the extremal-simplex conditions."""

    applicable: bool  # the simplex is complete wrt the gauge
    bounds_hold: bool | None
    cross_law_holds: bool | None
    ratio: Rational | None = None
    ratio_reflected: Rational | None = None


def complete_simplex_ratio_laws(simplex: VPolytope, gauge: VPolytope) -> SimplexRatioReport:
    if not simplex_complete(simplex, gauge)[0]:
        return SimplexRatioReport(applicable=False, bounds_hold=None, cross_law_holds=None)
    n = rat(simplex.dim)
    sC = asymmetry(gauge).s
    reports = {}
    for label, body in (("plus", simplex), ("minus", negate(simplex))):
        R = translative_factor(body, gauge)
        r = inradius(body, gauge).value
        ratio = R / r
        reports[label] = {
            "ratio": ratio,
            "in_bounds": n <= ratio * sC and ratio <= n * sC,
            "right_eq": ratio == n * sC,
            "left_eq": ratio * sC == n,
            "extremal": simplex_equality_conditions(body, gauge).all_true,
        }
    bounds = reports["plus"]["in_bounds"] and reports["minus"]["in_bounds"]
    cross = (
        reports["plus"]["right_eq"] == reports["minus"]["left_eq"] == reports["plus"]["extremal"]
    ) and (
        reports["minus"]["right_eq"] == reports["plus"]["left_eq"] == reports["minus"]["extremal"]
    )
    return SimplexRatioReport(
        applicable=True,
        bounds_hold=bounds,
        cross_law_holds=cross,
        ratio=reports["plus"]["ratio"],
        ratio_reflected=reports["minus"]["ratio"],
    )
