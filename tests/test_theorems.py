"""Chain evaluators, equivalence condition vectors, concentricity predicates
and the completeness oracle, on hand-checkable instances plus small seeded
sweeps (the mandated large sweeps live in the acceptance module)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    V,
    body_gauge_pairs,
    concentric_by_facet_rows,
    family_pairs,
    gauge_value_by_cone,
    minkowski_center_is_unique,
)
from gaugeradii import lp, theorems
from gaugeradii.bodies import (
    DegenerateSimplexError,
    VPolytope,
    canonicalize,
    check_same_dim,
    difference_body,
    facets,
    negate,
    same_vertex_set,
    scale,
    simplex_hrep,
    support,
    translate,
    vertex_centroid,
    width,
)
from gaugeradii.constructions import (
    SplitMix64,
    random_pair_suite,
    random_simplex,
    random_vpolytope,
    simplex_sandwich_pair,
    standard_centered_simplex,
    triangle_mix_gauge,
)
from gaugeradii.radii import (
    SinglePointBodyError,
    asymmetry,
    circumradius,
    diameter,
    inradius,
    is_constant_width,
    is_minkowski_center,
)
from gaugeradii.ratcore import ONE, ZERO, rat, vec, vneg
from gaugeradii.theorems import (
    ChainReport,
    ConditionVector,
    GaugeNotSymmetricError,
    InfiniteRadiusError,
    NotCenteredError,
    NotPlanarError,
    OriginNotInGaugeError,
    are_mutually_concentric,
    breadth_ratio_bounds,
    complete_simplex_ratio_laws,
    eval_chain,
    gauge_value,
    is_equilateral,
    is_minkowski_concentric,
    is_mirrored_concentric,
    radius_bound_checks,
    ratio_bound_checks,
    sandwich_equivalence,
    simplex_complete,
    simplex_equality_conditions,
    translative_factor,
    triangle_equality_conditions,
    triangle_gauge_decomposition,
)


def seeded_pairs(count, seed, dims=(2, 3)):
    rng = SplitMix64(seed)
    out = []
    for trial in range(count):
        dim = dims[trial % len(dims)]
        out.append(
            (
                random_vpolytope(dim, dim + 2, 5, 0, rng=rng),
                random_vpolytope(dim, dim + 2, 5, 0, rng=rng),
            )
        )
    return out


# ---------------------------------------------------------------------------
# gauge function


def test_gauge_value_basics(triangle):
    assert gauge_value((0, 0), triangle) == 0
    assert gauge_value((1, 0), triangle) == 1
    assert gauge_value((-1, 0), triangle) == 2  # witnesses the asymmetry
    with pytest.raises(OriginNotInGaugeError):
        gauge_value((1, 0), translate(triangle, (5, 5)))


def test_gauge_value_outside_cone():
    segment = V([(0, 0), (1, 0)])
    assert gauge_value((0, 1), segment) is None


def gauge_value_cases():
    """Seeded 2-D and 3-D bodies moved to put the origin at their vertex
    centroid (an interior point) and at a vertex (a pointed cone), then flat
    bodies through the origin, each with z at the vertices, their negatives
    and seeded points."""
    rng = SplitMix64(31)
    bodies = []
    for trial in range(20):
        dim = 2 + trial % 2
        body = random_vpolytope(dim, dim + 2, 4, 0, rng=rng)
        bodies.append(translate(body, vneg(vertex_centroid(body))))
        bodies.append(translate(body, vneg(body.vertices[0])))
    bodies += [
        V([(-1, 0), (2, 0)]),
        V([(0, 0), (1, 2)]),
        V([(0, 0, 0), (1, 2, 3)]),
        V([(-1, -1, 0), (2, 0, 0), (0, 1, 0)]),  # a flat triangle around 0
        V([(0, 0, 0), (2, 0, 1), (0, 1, 0), (2, 1, 1)]),  # a flat square at 0
    ]
    for body in bodies:
        zs = list(body.vertices) + [vneg(v) for v in body.vertices]
        zs += [rng.point(body.dim, 3, 4) for _ in range(4)]
        for z in zs:
            yield z, body


def test_gauge_value_matches_cone_oracle():
    """The hull-membership block with mass rho gives the cone LP's value,
    and None exactly where that LP is infeasible."""
    seen = set()
    for z, body in gauge_value_cases():
        got = gauge_value(z, body)
        assert got == gauge_value_by_cone(z, body), (z, body)
        seen.add("none" if got is None else "zero" if got == 0 else "positive")
    assert seen == {"none", "zero", "positive"}


# ---------------------------------------------------------------------------
# chains


def test_symmetric_self_gauge_chain(square):
    report = eval_chain("symmetric-gauge-chain", square, square)
    assert report.values == (2, 2, 2, 2)
    assert report.all_equal and report.holds


def test_symmetric_chains_require_symmetric_gauge(square, triangle):
    for chain in ("bohnenblust", "concentricity", "symmetric-gauge-chain"):
        with pytest.raises(GaugeNotSymmetricError):
            eval_chain(chain, square, triangle)


def test_unknown_chain(square):
    with pytest.raises(ValueError):
        eval_chain("no-such-chain", square, square)


def test_difference_body_chain_pattern(triangle):
    report = eval_chain("complete-chain", difference_body(triangle), triangle)
    assert report.values == (3, rat("9/2"), 6, 6, 6)
    assert report.relations == ("<", "<", "=", "=")
    assert report.note is not None


def test_chains_hold_on_seeded_pairs():
    for body, gauge in seeded_pairs(8, 101):
        for chain in ("gauge-asymmetry-chain", "body-asymmetry-chain",
                      "mirrored-concentricity", "generalized-concentricity",
                      "extended-bohnenblust", "asymmetric-jung-bound",
                      "extended-jung"):
            assert eval_chain(chain, body, gauge).holds, chain
        sym = difference_body(gauge)
        for chain in ("bohnenblust", "concentricity", "symmetric-gauge-chain"):
            assert eval_chain(chain, body, sym).holds, chain


def test_chains_over_the_diameter_refuse_a_one_point_body(square, triangle):
    point = V([(0, 0)])
    for gauge in (square, triangle):
        for chain in ("extended-bohnenblust", "asymmetric-jung-bound", "extended-jung"):
            with pytest.raises(ValueError, match=f"'{chain}'"):
                eval_chain(chain, point, gauge)
        # chains that do not divide by D(K, C) still report
        assert eval_chain("mirrored-concentricity", point, gauge).values == (0, 0)
    with pytest.raises(ValueError, match="'bohnenblust'"):
        eval_chain("bohnenblust", point, square)


def test_chain_report_json(square):
    data = eval_chain("concentricity", square, square).to_json()
    assert data["values"] == ["2", "2"]
    assert data["relations"] == ["="]
    assert data["holds"] is True


# ---------------------------------------------------------------------------
# elementary bounds


def test_radius_bounds_on_sandwich_body():
    pair = simplex_sandwich_pair(2, "1", "1/2", "min")
    report = radius_bound_checks(pair.simplex, pair.gauge)
    assert report.all_hold
    # R(S,C)/r(S,-C) = s(S) = 2 exactly: the equality implication fires and
    # the gauge must come out mirrored concentric with respect to the body
    assert circumradius(pair.simplex, pair.gauge).value == 2 * inradius(
        pair.simplex, negate(pair.gauge)
    ).value
    assert report.body_equality_followup is True


def test_radius_bounds_symmetric_self_gauge(square):
    report = radius_bound_checks(square, square)
    assert report.all_hold


def test_radius_bounds_random():
    for body, gauge in seeded_pairs(8, 202):
        report = radius_bound_checks(body, gauge)
        assert report.all_hold
        assert report.gauge_equality_followup in (None, True)
        assert report.body_equality_followup in (None, True)


def test_radius_bounds_refuse_a_one_point_body(square, triangle):
    # R(K, C) = s(K) r(K, -C) = 0 would run the body follow-up, whose
    # implication needs a full-dimensional body
    point = V([(0, 0)])
    for gauge in (square, triangle, V([(-1, 0), (1, 0)])):
        with pytest.raises(ValueError, match=r"R\(K, C\)"):
            radius_bound_checks(point, gauge)


def test_breadth_bounds_endpoints(square, triangle):
    directions = [(1, 0), (0, 1), (1, 1), (2, -3)]
    assert breadth_ratio_bounds(square, 1, directions)
    assert breadth_ratio_bounds(square, 0, directions)
    assert breadth_ratio_bounds(triangle, "1/2", [h for h in triangle.vertices])
    with pytest.raises(NotCenteredError):
        breadth_ratio_bounds(translate(square, (2, 2)), "1/2", directions)
    with pytest.raises(ValueError):
        breadth_ratio_bounds(square, "3/2", directions)


def test_breadth_bound_instance_values(triangle):
    # r = 1/2 on the centered triangle, direction (1,1):
    # ratio (h(C,a) + r h(C,-a)) / (h(C,a) + h(C,-a)) = (1+1)/(1+2) = 2/3,
    # and the admissible window is [2/3, 5/6]
    s = asymmetry(triangle).s
    lo = (1 + s * rat("1/2")) / (1 + s)
    hi = (rat("1/2") + s) / (1 + s)
    assert (lo, hi) == (rat("2/3"), rat("5/6"))
    assert breadth_ratio_bounds(triangle, "1/2", [(1, 1)])


def test_ratio_bounds(square, triangle):
    report = ratio_bound_checks(square, square)
    assert report.lower_holds
    assert report.completeness == "complete"  # symmetric self-gauge has constant width
    assert report.upper_holds
    pair = simplex_sandwich_pair(2, "1", "1/2", "min")
    rep_minus = ratio_bound_checks(negate(pair.simplex), pair.gauge)
    assert rep_minus.completeness == "complete"
    # R/r = 5/2 = s(K)s(C): upper bound tight, mutual concentricity follows
    assert rep_minus.upper_holds and rep_minus.equality_concentric is True
    for body, gauge in seeded_pairs(6, 303):
        assert ratio_bound_checks(body, gauge).lower_holds


# ---------------------------------------------------------------------------
# concentricity


def test_self_concentricity(square, triangle):
    for body in (square, triangle):
        assert is_minkowski_concentric(body, body)
        assert is_mirrored_concentric(body, body)
        assert are_mutually_concentric(body, body)


def test_sandwich_pair_concentricities():
    pair = simplex_sandwich_pair(2, "1", "1/2", "min")
    assert are_mutually_concentric(pair.simplex, pair.gauge)
    assert is_mirrored_concentric(pair.simplex, pair.gauge, mutual=True)
    assert is_mirrored_concentric(pair.gauge, pair.simplex, mutual=True)


def test_concentricity_with_flat_gauge(square):
    assert not is_minkowski_concentric(square, V([(0, 0), (1, 0)]))


def center_polytope_by_hulls(builder, body, c_vars):
    """Oracle rows: c_vars in the Minkowski-center polytope of the body, as
    (1+s)c - v in s*K for every vertex v, one hull-membership block each."""
    k = canonicalize(body)
    s = asymmetry(k).s
    lhs = [{c: ONE + s} for c in c_vars]
    for v in k.vertices:
        builder.add_hull_membership(k.vertices, lhs, v, scale=-s)


def concentric_by_hulls(body, gauge, mirrored, mutual):
    """Oracle: the concentricity LP in vertex form, every inclusion written
    point by point with convex-weight columns."""
    K, C = canonicalize(body), canonicalize(gauge)
    n = check_same_dim(K, C)
    circ = circumradius(K, C)
    if circ is None:
        return False
    R = circ.value
    inner_sign = -ONE if mirrored else ONE
    r = inradius(K, negate(C) if mirrored else C).value
    builder = lp.ProgramBuilder()
    c_vars = builder.add_vars(n, free=True)
    t_vars = builder.add_vars(n, free=True)
    center_polytope_by_hulls(builder, C, c_vars)
    if mutual:
        center_polytope_by_hulls(builder, K, t_vars)
    # inner: inner_sign * r * (w - c) + t in K, for every gauge vertex w
    rho = -inner_sign * r
    inner = [{c: rho, t: ONE} for c, t in zip(c_vars, t_vars)]
    for w in C.vertices:
        builder.add_hull_membership(K.vertices, inner, tuple(rho * x for x in w), scale=-ONE)
    # outer: v - t in R(C - c), i.e. v - t + R c = R * (convex comb of C)
    outer = [{t: -ONE, c: R} for c, t in zip(c_vars, t_vars)]
    for v in K.vertices:
        builder.add_hull_membership(C.vertices, outer, tuple(-x for x in v), scale=-R)
    return lp.solve(builder.build()).status == lp.OPTIMAL


CONCENTRICITY_MODES = {
    (False, False): is_minkowski_concentric,
    (True, False): is_mirrored_concentric,
    (True, True): lambda K, C: is_mirrored_concentric(K, C, mutual=True),
    (False, True): are_mutually_concentric,
}


def assert_concentricity_matches(oracle, body, gauge):
    """Answers (or exception types) equal to the oracle's in all four
    (mirrored, mutual) modes; returns the library's answers."""
    got = []
    for (mirrored, mutual), decide in CONCENTRICITY_MODES.items():
        answer = outcome(decide, body, gauge)
        assert answer == outcome(oracle, body, gauge, mirrored, mutual), (
            body, gauge, mirrored, mutual
        )
        got.append(answer)
    return got


def concentricity_cases():
    for S, gauge in family_pairs():
        yield S, gauge
        yield gauge, S
    yield from random_pair_suite(30, 20240817)  # acceptance pairs 0-29


def flat_concentricity_cases():
    """Flat and one-point bodies and gauges; then a segment and a triangle
    against planar and spatial gauges, each pair in both orders (the spatial
    triangle is flat, the planar one is paired with a segment).  A flat body
    in the symmetric square or cube is concentric at its center."""
    square = V([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    cases = [
        (V([(0, 0), (1, 0)]), square),  # flat body, full-dimensional gauge
        (V([(-1, 0), (1, "1/2")]), V([(1, 0), (0, 1), (-1, -1)])),
        (V([(0, 0, 0), (2, 0, 0), (0, 1, 0)]), standard_centered_simplex(3)),
        (V([(3, 2)]), square),  # one-point body
        (V([(0, 1), (2, 1)]), V([(0, 0), (3, 0)])),  # parallel flat pair
        (V([(0, 0, 1), (1, 0, 1), (0, 1, 1)]), V([(0, 0, 0), (1, 0, 0), (0, 2, 0)])),
        (square, V([(0, 0), (1, 0)])),  # flat gauge
    ]
    quadrilateral = V([(2, 0), (0, 1), (-1, 1), (-1, -2)])
    spatial = V([(1, 0, 0), (0, 2, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)])
    cube = V([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    segment2 = V([(0, 0), (1, 1)])
    triangle2 = V([(0, 0), (3, 0), (1, 2)])
    segment3 = V([(0, 0, 0), (1, -1, 1)])
    triangle3 = V([(0, 0, 0), (1, 0, 0), (0, 1, 1)])
    for flat, full in (
        (segment2, quadrilateral), (segment2, square), (segment2, triangle2),
        (segment3, spatial), (segment3, cube), (triangle3, spatial), (triangle3, cube),
    ):
        cases += [(flat, full), (full, flat)]
    return cases


def test_facet_concentricity_matches_hull_oracle():
    """Facet rows decide every concentricity predicate as the vertex-form LP
    does, on the sandwich grid for +-S both ways round, the mixed-triangle
    grid with the gauge moved off the origin, the spiked pair and acceptance
    pairs 0-29."""
    seen = set()
    count = 0
    for body, gauge in concentricity_cases():
        seen.update(assert_concentricity_matches(concentric_by_hulls, body, gauge))
        count += 1
    assert seen == {True, False}
    print(f"PASS: {count} pairs x 4 modes equal to the vertex-form LP")


def test_facet_concentricity_flat_bodies_match_hull_oracle():
    seen = set()
    for body, gauge in flat_concentricity_cases():
        seen.update(assert_concentricity_matches(concentric_by_hulls, body, gauge))
    assert seen == {True, False}


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(body_gauge_pairs())
def test_facet_concentricity_matches_hull_oracle_hypothesis(pair):
    body, gauge = pair
    assert_concentricity_matches(concentric_by_hulls, body, gauge)
    assert_concentricity_matches(concentric_by_hulls, gauge, body)


# ---------------------------------------------------------------------------
# the primal facet-row LP (``concentric_by_facet_rows``) as an oracle for the
# (2n + 1)-row Farkas LP that decides concentricity


def test_dual_concentricity_matches_facet_rows_on_acceptance_pairs():
    """All 200 acceptance pairs, 100 of them 3-D: K against C and C against
    K, and K against C - C, -C and -K."""
    seen = set()
    for body, gauge in random_pair_suite(200, 20240817):
        for a, b in (
            (body, gauge),
            (gauge, body),
            (body, difference_body(gauge)),
            (body, negate(gauge)),
            (body, negate(body)),
        ):
            seen.update(assert_concentricity_matches(concentric_by_facet_rows, a, b))
    assert seen == {True, False}


def test_dual_concentricity_matches_facet_rows_on_families():
    """The sandwich grid, the moved mixed-triangle grid and the spiked pair,
    both ways round; the concentric pairs among them are the equality cases
    where the Farkas optimum is exactly 0."""
    seen = set()
    for simplex, gauge in family_pairs():
        seen.update(assert_concentricity_matches(concentric_by_facet_rows, simplex, gauge))
        seen.update(assert_concentricity_matches(concentric_by_facet_rows, gauge, simplex))
    assert seen == {True, False}


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(body_gauge_pairs())
def test_dual_concentricity_matches_facet_rows_hypothesis(pair):
    body, gauge = pair
    assert_concentricity_matches(concentric_by_facet_rows, body, gauge)
    assert_concentricity_matches(concentric_by_facet_rows, gauge, body)


def test_concentricity_lp_has_2n_plus_one_rows(solve_counter):
    """With K and C full-dimensional, the predicate's own LP, solved after
    the radius values (n + 1 rows each), has 2n + 1 rows and one column per
    facet row of the system: two blocks of facets of C (center polytope,
    outer inclusion), one of K (inner), one more of K with ``mutual``."""
    for n in (2, 3):
        pair = simplex_sandwich_pair(n, "1", "1/2")
        K, C = canonicalize(pair.simplex), canonicalize(pair.gauge)
        fK, fC = len(facets(K)), len(facets(C))
        for (mirrored, mutual), decide in CONCENTRICITY_MODES.items():
            solve_counter.reset()
            assert decide(K, C)
            *values, program = solve_counter.shapes
            assert all(rows == n + 1 for rows, _ in values)
            assert program == (2 * n + 1, 2 * fC + (1 + mutual) * fK)


SANDWICH_GRID = (
    ("1", "1/2"), ("3", "1"), ("5/3", "1/4"), ("2", "1/3"), ("3/2", "1"),
    ("4", "3"), ("5/4", "1/2"), ("7/3", "2/3"), ("5", "3"), ("4", "1"),
)


def test_concentricity_farkas_lp_always_has_an_optimum(monkeypatch):
    """The Farkas LP of the facet path is never infeasible, so its optimum
    alone decides: on 60 acceptance pairs in three orientations and on the
    sandwich grid (n = 2, 3, both variants, S and -S, both orders), every
    such solve in all four modes is optimal.  It must be: the
    Minkowski-center rows of C carry (1 + s(C)) g on the c coordinates and
    nothing on t, and the facet normals g of a full-dimensional C balance
    with positive weights, so A^T y = 0, sum y = 1, y >= 0 has a solution.
    The predicate's own LP is its last solve, after the radii."""
    outcomes = []
    solve = lp.solve

    def recording(program):
        outcomes.append(solve(program))
        return outcomes[-1]

    monkeypatch.setattr(lp, "solve", recording)
    cases = []
    for body, gauge in random_pair_suite(60, 20240817):
        cases += [(body, gauge), (gauge, body), (body, negate(gauge))]
    for n in (2, 3):
        for lam, mu in SANDWICH_GRID:
            for variant in ("min", "max"):
                pair = simplex_sandwich_pair(n, lam, mu, variant)
                for S in (pair.simplex, negate(pair.simplex)):
                    cases += [(S, pair.gauge), (pair.gauge, S)]
    answers = Counter()
    for body, gauge in cases:
        for decide in CONCENTRICITY_MODES.values():
            answer = decide(body, gauge)
            out = outcomes[-1]
            assert out.status == lp.OPTIMAL
            assert answer == (out.value >= 0)
            answers[answer] += 1
    assert min(answers.values()) >= 100, answers


def test_flat_container_solves_the_primal(square, solve_counter):
    """A flat body has no facets, so the system over (c, t) is solved as it
    stands, every inclusion vertex by vertex: one hull-membership block of
    n + 1 = 3 rows per point of a contained set.  For a segment in the
    square that is 7 blocks, 21 rows: 4 for the center polytope of C (the
    points of -C), 1 for the single point of 0*C in K, 2 for K in R*C.  The
    columns are 4 + 16 + 2 + 8: c and t, then the weights on C's 4 vertices
    in the 4 center blocks, on K's 2 vertices in the inner block, and on
    C's 4 vertices in the 2 outer blocks."""
    K, C = canonicalize(V([(0, 0), (1, 0)])), canonicalize(square)
    solve_counter.reset()
    is_minkowski_concentric(K, C)
    assert solve_counter.shapes[-1] == (21, 30)


# ---------------------------------------------------------------------------
# completeness and equilaterality


def test_simplex_complete_cases(triangle, square):
    complete, witness = simplex_complete(triangle, difference_body(triangle))
    assert complete and witness is not None
    assert not simplex_complete(triangle, square)[0]
    pair = simplex_sandwich_pair(3, "3", "1", "min")
    assert simplex_complete(pair.simplex, pair.gauge)[0]
    assert simplex_complete(negate(pair.simplex), pair.gauge)[0]


def simplex_complete_by_difference_bodies(simplex, gauge):
    """Oracle: the completeness test written with C' = C - C and S - S.

    It checks S - S in D(S,C') C' vertex by vertex, asserting that this never
    fails, and takes D(S,C') and h(C', a_f) from C' itself.  The feasibility
    LP is built row for row as ``simplex_complete`` builds it.
    """
    S = canonicalize(simplex)
    hrep = simplex_hrep(S)
    n = S.dim
    C2 = difference_body(gauge)
    d = diameter(S, C2)
    if d is None:
        raise InfiniteRadiusError("gauge does not span the simplex")
    D2 = d.value
    for u in difference_body(S).vertices:
        g = gauge_value(u, C2)
        assert g is not None and g <= D2
    builder = lp.ProgramBuilder()
    c_vars = builder.add_vars(n, free=True)
    for half in hrep.halfspaces:
        h = D2 * support(C2, half.normal)[0]
        slack = builder.add_var()
        row = {c_vars[k]: half.normal[k] for k in range(n) if half.normal[k]}
        row[slack] = ONE
        builder.add_row(row, half.offset - h / (n + 1))
    out = lp.solve(builder.build())
    if out.status != lp.OPTIMAL:
        return False, None
    return True, tuple(out.primal[v] for v in c_vars)


def completeness_cases():
    rng = SplitMix64(7)
    for trial in range(40):
        dim = 2 + trial % 2
        S = random_simplex(dim, 4, rng)
        yield S, random_vpolytope(dim, dim + 2, 4, 0, rng=rng)
        yield translate(S, rng.point(dim, 3)), S
        yield S, VPolytope(dim, S.vertices + negate(S).vertices)
    for n in (2, 3):
        for variant in ("min", "max"):
            pair = simplex_sandwich_pair(n, "3", "1", variant)
            yield pair.simplex, pair.gauge
            yield negate(pair.simplex), pair.gauge
        S = standard_centered_simplex(n)
        yield S, S
        yield S, difference_body(S)
        yield S, translate(S, (5,) * n)  # gauge away from the origin
    triangle = V([(1, 0), (0, 1), (-1, -1)])
    yield triangle, V([(-1, 0), (1, 0)])  # flat gauge
    yield V([(1, 1), (1, -1), (-1, 1), (-1, -1)]), triangle  # not a simplex
    yield triangle, standard_centered_simplex(3)  # dimensions differ


def test_simplex_complete_matches_difference_body_oracle():
    def outcome(decide, simplex, gauge):
        try:
            return decide(simplex, gauge)
        except ValueError as exc:
            return type(exc)

    seen = set()
    for simplex, gauge in completeness_cases():
        got = outcome(simplex_complete, simplex, gauge)
        assert got == outcome(simplex_complete_by_difference_bodies, simplex, gauge)
        seen.add(got[0] if isinstance(got, tuple) else got)
    assert seen >= {True, False, InfiniteRadiusError}


def test_simplex_complete_solve_count(triangle, square, solve_counter):
    """The witness takes one LP, and D(S, C) none, against a full-dimensional
    gauge in the plane and in space: with cold caches, 1 solve for a
    triangle and for a 3-D simplex, and no difference body."""
    pair = simplex_sandwich_pair(3, "3", "1", "min")
    for simplex, gauge, solves in ((triangle, square, 1), (pair.simplex, pair.gauge, 1)):
        simplex, gauge = canonicalize(simplex), canonicalize(gauge)
        solve_counter.reset()
        simplex_complete(simplex, gauge)
        assert solve_counter.count == solves


def test_is_equilateral(triangle, square):
    assert is_equilateral(triangle, difference_body(triangle))
    assert is_equilateral(triangle, triangle)
    stretched = V([(2, 0), (0, 1), (-2, -1)])
    assert not is_equilateral(stretched, square)


@pytest.mark.parametrize("decide", [simplex_complete, simplex_equality_conditions, is_equilateral])
def test_simplex_predicates_check_simplices_on_integer_facets(monkeypatch, triangle, square, decide):
    """Each predicate refuses a body that is not a simplex with the error and
    the message of ``simplex_hrep``, and never builds that H-description."""
    wanted = {}
    flat = V([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    cases = ((square, triangle), (V([(0, 0), (1, 1), (2, 2)]), square), (V([(1, 1)]), square),
             (flat, standard_centered_simplex(3)))
    for body, _ in cases:
        with pytest.raises(DegenerateSimplexError) as exc:
            simplex_hrep(body)
        wanted[body] = str(exc.value)

    def refuse(body):
        raise AssertionError("simplex_hrep called")

    monkeypatch.setattr(theorems, "simplex_hrep", refuse)
    for body, gauge in cases:
        with pytest.raises(DegenerateSimplexError) as exc:
            decide(body, gauge)
        assert str(exc.value) == wanted[body]
    decide(triangle, square)


# ---------------------------------------------------------------------------
# equivalence vectors (spot checks; the full grids run in acceptance)


def test_simplex_conditions_split():
    pair = simplex_sandwich_pair(2, "1", "1/2", "max")
    good = simplex_equality_conditions(negate(pair.simplex), pair.gauge)
    bad = simplex_equality_conditions(pair.simplex, pair.gauge)
    assert good.all_true and good.consistent
    assert not any(bad.flags) and bad.consistent


def test_triangle_conditions_and_json():
    pair = triangle_mix_gauge("1/4")
    vector = triangle_equality_conditions(pair.simplex, pair.gauge)
    assert vector.all_true and vector.consistent
    data = vector.to_json()
    assert data["consistent"] is True and all(data["conditions"].values())


def test_triangle_conditions_reject_non_planar():
    simplex3 = standard_centered_simplex(3)
    with pytest.raises(ValueError):
        triangle_equality_conditions(simplex3, simplex3)


def simplex_equality_conditions_by_inclusion_chain(simplex, gauge):
    """Oracle: the simplex condition vector deciding all four links of its
    inclusion chain, with S - S and C - C built.  It asserts that the first
    three links hold; the other entries are computed as the library does."""
    S = canonicalize(simplex)
    C = canonicalize(gauge)
    simplex_hrep(S)
    n = rat(S.dim)
    SS = difference_body(S)
    CC = difference_body(C)
    R = translative_factor(S, C)
    r = inradius(S, C).value
    r_mirror = inradius(S, negate(C)).value
    d = diameter(S, C)
    if d is None:
        raise InfiniteRadiusError("gauge does not span the simplex")
    D = d.value
    sC = asymmetry(C).s
    f1 = translative_factor(scale(S, (n + 1) / n), SS)
    f2 = direct_factor(SS, CC) / (D / 2)
    f3 = translative_factor(CC, C) / (sC + 1)
    f4 = translative_factor(C, negate(S)) * (sC + 1) * D / (2 * (n + 1))
    assert f1 <= 1 and f2 == 1 and f3 <= 1
    cond_chains = (
        eval_chain("gauge-asymmetry-chain", S, C).all_equal
        and eval_chain("body-asymmetry-chain", S, C).all_equal
    )
    return ConditionVector(
        entries=(
            ("inclusion_chain", f1 <= 1 and f2 <= 1 and f3 <= 1 and f4 <= 1),
            ("chain_equalities", cond_chains),
            ("mirrored_concentricity_equality", r_mirror + R == (sC + 1) * D / 2),
            ("jung_bound_equality", 2 * (n + 1) * R == n * (sC + 1) * D),
            ("complete_with_extremal_ratio", simplex_complete(S, C)[0] and R == n * sC * r),
        )
    )


def triangle_equality_conditions_by_inclusion_chain(simplex, gauge):
    """Oracle: the planar condition vector deciding all four links of the
    inclusion chain, the middle one as S - S = D/2 (C - C).  It asserts that
    the first and third links hold and that the middle one is constant width."""
    S0 = canonicalize(simplex)
    if S0.dim != 2:
        raise NotPlanarError("this equivalence is planar")
    if len(S0.vertices) != 3:
        raise DegenerateSimplexError("need a triangle")
    center = asymmetry(S0).center
    S = translate(S0, tuple(-x for x in center))
    C = canonicalize(gauge)
    SS = difference_body(S)
    CC = difference_body(C)
    R = translative_factor(S, C)
    r = inradius(S, C).value
    r_mirror = inradius(S, negate(C)).value
    D = diameter(S, C).value
    sC = asymmetry(C).s
    j_plus = R / D
    j_minus = translative_factor(negate(S), C) / D
    f1 = translative_factor(scale(S, rat("3/2")), SS)
    mid_equality = same_vertex_set(SS, scale(CC, D / 2))
    f3 = translative_factor(CC, C) / (sC + 1)
    f4 = translative_factor(C, negate(S)) * (sC + 1) * D / 6
    assert f1 <= 1 and f3 <= 1
    cond_ii = eval_chain("complete-chain", S, C).all_equal
    constant = is_constant_width(S, C)
    assert mid_equality == constant
    a = facets(S)[0].normal
    decomposition = triangle_gauge_decomposition(S, scale(C, width(S, a) / width(C, a)))
    return ConditionVector(
        entries=(
            ("inclusion_chain", f1 <= 1 and mid_equality and f3 <= 1 and f4 <= 1),
            ("complete_chain_equalities", cond_ii),
            ("mirrored_concentricity_equality", r_mirror + R == (sC + 1) * D / 2),
            ("jung_bound_equality", 3 * j_plus == sC + 1),
            ("constant_width_with_extremal_ratio", constant and R == 2 * sC * r),
            ("constant_width_with_jung_dominance", constant and j_plus >= j_minus),
            ("mixed_triangle_gauge", decomposition is not None and decomposition[0] <= rat("1/2")),
        )
    )


def condition_cases():
    rng = SplitMix64(8)
    for trial in range(16):
        dim = 2 + trial % 2
        S = random_simplex(dim, 4, rng)
        yield S, random_vpolytope(dim, dim + 2, 4, 0, rng=rng)
        yield S, S
        yield S, VPolytope(dim, S.vertices + negate(S).vertices)
    for n in (2, 3):
        for variant in ("min", "max"):
            pair = simplex_sandwich_pair(n, "3", "1", variant)
            yield pair.simplex, pair.gauge
            yield negate(pair.simplex), pair.gauge
    for lam in ("0", "1/4", "1/2", "2/3", "1"):
        pair = triangle_mix_gauge(lam)
        yield pair.simplex, pair.gauge
        yield pair.simplex, scale(pair.gauge, 3)  # a dilate of a mixed gauge
    triangle = V([(1, 0), (0, 1), (-1, -1)])
    yield triangle, V([(-1, 0), (1, 0)])  # flat gauge
    yield V([(1, 1), (1, -1), (-1, 1), (-1, -1)]), triangle  # not a simplex
    yield standard_centered_simplex(3), standard_centered_simplex(3)  # 3-D


def test_condition_vectors_match_inclusion_chain_oracles():
    """Deciding only the closing inclusion gives the same flags and the same
    exceptions as deciding all four links."""

    def outcome(decide, simplex, gauge):
        try:
            return decide(simplex, gauge).entries
        except ValueError as exc:
            return type(exc)

    seen = set()
    for simplex, gauge in condition_cases():
        for decide, oracle in (
            (simplex_equality_conditions, simplex_equality_conditions_by_inclusion_chain),
            (triangle_equality_conditions, triangle_equality_conditions_by_inclusion_chain),
        ):
            got = outcome(decide, simplex, gauge)
            assert got == outcome(oracle, simplex, gauge)
            seen.add(got[0][1] if isinstance(got, tuple) else got)
    assert seen >= {True, False, InfiniteRadiusError, DegenerateSimplexError}


def test_condition_vectors_solve_count(solve_counter):
    """Neither vector solves an LP for the always-true links.  With cold
    caches the simplex vector takes 3 solves on a 3-D pair: the facet-form
    values of R(S, C) and s(C), and the feasibility LP of
    ``simplex_complete``.  The triangle vector takes 3 as well: the
    facet-form values of two translative factors against C and of s(C).
    Hulls, facets and norms take none, and neither vector builds a
    difference body.  Every radius against the simplex or its reflection,
    and s(S), is a closed form; the gauge's Minkowski center comes from the
    dual of its asymmetry's LP, with no solve of its own."""
    pair = simplex_sandwich_pair(3, "3", "1", "min")
    simplex, gauge = canonicalize(negate(pair.simplex)), canonicalize(pair.gauge)
    solve_counter.reset()
    assert simplex_equality_conditions(simplex, gauge).all_true
    assert solve_counter.count == 3
    assert difference_body.cache_info().misses == 0
    pair = triangle_mix_gauge("1/4")
    simplex, gauge = canonicalize(pair.simplex), canonicalize(pair.gauge)
    solve_counter.reset()
    assert triangle_equality_conditions(simplex, gauge).all_true
    assert solve_counter.count == 3
    assert difference_body.cache_info().misses == 0


def test_sandwich_equivalence_cases(triangle):
    vector = sandwich_equivalence(difference_body(triangle), triangle)
    assert vector.entries == (
        ("complete_chain_equalities", False),
        ("closing_inclusion", False),
    )
    assert vector.consistent
    pair = simplex_sandwich_pair(2, "1", "1/2", "min")
    good = sandwich_equivalence(negate(pair.simplex), pair.gauge)
    assert good.all_true and good.consistent


def test_sandwich_equivalence_random():
    for body, gauge in seeded_pairs(6, 404):
        assert sandwich_equivalence(body, gauge).consistent


@pytest.mark.parametrize("factor", ["1/3", "2", "3"])
def test_triangle_conditions_are_scale_invariant(factor):
    """Condition (vii) takes the decomposition of C scaled to C - C = S - S,
    so a translated dilate of a mixed triangle gauge has the vector of the
    gauge itself, as every other condition does."""
    for lam in ("0", "1/4", "1/2", "2/3", "1"):
        pair = triangle_mix_gauge(lam)
        vector = triangle_equality_conditions(pair.simplex, pair.gauge)
        assert vector.consistent
        assert vector.entries[-1] == ("mixed_triangle_gauge", rat(lam) <= rat("1/2"))
        dilate = translate(scale(pair.gauge, factor), (1, -2))
        assert triangle_equality_conditions(pair.simplex, dilate).entries == vector.entries


def test_triangle_conditions_consistent_on_planar_sandwich_pairs():
    """Every planar sandwich pair, both variants and both orientations of
    the simplex, gives a consistent condition vector, although the gauge
    is a dilate lam S + mu(-S) of a unit mixed gauge."""
    kinds = set()
    for lam in ("1", "2", "3", "5/2"):
        for mu in ("0", "1/2", "1"):
            for variant in ("min", "max"):
                pair = simplex_sandwich_pair(2, lam, mu, variant)
                for simplex in (pair.simplex, negate(pair.simplex)):
                    vector = triangle_equality_conditions(simplex, pair.gauge)
                    assert vector.consistent, (lam, mu, variant, vector.entries)
                    kinds.add(vector.all_true)
    assert kinds == {True, False}


# ---------------------------------------------------------------------------
# triangle decomposition


def test_decomposition_round_trip(triangle):
    from gaugeradii.bodies import minkowski_sum

    gauge = translate(
        minkowski_sum(scale(triangle, "2/5"), scale(negate(triangle), "3/5")), (7, -3)
    )
    lam, t = triangle_gauge_decomposition(triangle, gauge)
    assert lam == rat("2/5") and t == vec((7, -3))


def test_decomposition_midpoint(triangle):
    gauge = scale(difference_body(triangle), "1/2")
    lam, t = triangle_gauge_decomposition(triangle, gauge)
    assert lam == rat("1/2") and t == vec((0, 0))


def test_decomposition_rejects_wrong_difference_body(triangle, square):
    assert triangle_gauge_decomposition(triangle, square) is None


# ---------------------------------------------------------------------------
# difference bodies only where the statement is about one


def direct_factor(body, sym_gauge):
    """Oracle: least rho with body in rho*sym_gauge, no translation, as the
    largest gauge value of a vertex of the body."""
    worst = ZERO
    for v in canonicalize(body).vertices:
        g = gauge_value(v, sym_gauge)
        if g is None:
            raise InfiniteRadiusError("body leaves the span of the gauge")
        worst = max(worst, g)
    return worst


def is_constant_width_by_difference_bodies(body, gauge):
    """Oracle: K has constant width iff K - K and D(K, C)/2 (C - C) have the
    same vertex set."""
    diam = diameter(body, gauge)
    if diam is None:
        raise InfiniteRadiusError("constant width needs a gauge spanning the body")
    return same_vertex_set(
        difference_body(body), scale(difference_body(gauge), diam.value / 2)
    )


def extended_jung_by_difference_bodies(body, gauge):
    """Oracle: the extended-Jung link values with K - K and C - C built and
    the first two links decided as direct inclusions."""
    K, C = canonicalize(body), canonicalize(gauge)
    check_same_dim(K, C)
    asym = asymmetry(K)
    sK = asym.s
    K0 = translate(K, tuple(-x for x in asym.center))
    KK = difference_body(K)
    CC = difference_body(C)
    d = diameter(K, C)
    if d is None:
        raise InfiniteRadiusError("diameter is infinite for this pair")
    if d.value == 0:
        raise SinglePointBodyError("chain 'extended-jung' divides by D(K, C)")
    D = d.value
    sC = asymmetry(C).s
    f1 = direct_factor(scale(K0, (sK + 1) / sK), KK)
    f2 = direct_factor(KK, CC) / (D / 2)
    f3 = translative_factor(CC, C) / (sC + 1)
    return (f1, f2, f3)


def triangle_gauge_decomposition_with_precheck(simplex, gauge):
    """Oracle: the decomposition returning None up front unless
    C - C = S - S."""
    S = canonicalize(simplex)
    if S.dim != 2:
        raise NotPlanarError("the decomposition is a planar construction")
    simplex_hrep(S)
    if not same_vertex_set(difference_body(canonicalize(gauge)), difference_body(S)):
        return None
    return triangle_gauge_decomposition(S, gauge)


def difference_body_cases():
    for body, gauge in random_pair_suite(24, 20240817):  # acceptance stream
        yield body, gauge
        yield difference_body(gauge), gauge  # the four below have constant width
        yield gauge, gauge
        yield scale(difference_body(body), 3), body
        yield scale(difference_body(gauge), 3), gauge
    for lam in ("0", "1/4", "1/2", "2/3", "1"):
        pair = triangle_mix_gauge(lam)
        yield pair.simplex, pair.gauge
        yield translate(pair.simplex, (1, 2)), pair.gauge
    for n in (2, 3):
        for variant in ("min", "max"):
            pair = simplex_sandwich_pair(n, "3", "1", variant)
            yield pair.simplex, pair.gauge
            yield negate(pair.simplex), pair.gauge
    triangle = V([(1, 0), (0, 1), (-1, -1)])
    square = V([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    point = V([(0, 0)])
    segment = V([(0, 0), (2, 1)])
    yield point, square  # one-point body
    yield point, triangle
    yield point, point
    yield segment, V([(-2, -1), (4, 2)])  # collinear segments
    yield segment, square  # a flat body in a spanning gauge
    yield segment, V([(-1, 0), (1, 0)])  # gauges that do not span the body
    yield square, V([(-1, 0), (1, 0)])
    yield triangle, point
    yield triangle, standard_centered_simplex(3)  # dimensions differ


def outcome(decide, *args):
    """The result of ``decide(*args)``, or the type of the ValueError it raises."""
    try:
        return decide(*args)
    except ValueError as exc:
        return type(exc)


def kind(result):
    return result if isinstance(result, type) else type(result)


def test_difference_body_free_paths_match_oracles():
    """Constant width from D(K, C) D(C, K) = 4, the extended-Jung chain
    without K - K and the decomposition without its C - C = S - S test give
    the values, flags and exceptions of the difference-body formulations."""
    widths, chains, decompositions = set(), set(), set()
    for body, gauge in difference_body_cases():
        width = outcome(is_constant_width, body, gauge)
        assert width == outcome(is_constant_width_by_difference_bodies, body, gauge)
        widths.add(width)
        chain = outcome(eval_chain, "extended-jung", body, gauge)
        if isinstance(chain, ChainReport):
            chain = chain.values
        assert chain == outcome(extended_jung_by_difference_bodies, body, gauge)
        chains.add(kind(chain))
        decomposition = outcome(triangle_gauge_decomposition, body, gauge)
        assert decomposition == outcome(triangle_gauge_decomposition_with_precheck, body, gauge)
        decompositions.add(kind(decomposition))
    assert widths >= {True, False, InfiniteRadiusError}
    assert chains >= {tuple, SinglePointBodyError, InfiniteRadiusError}
    assert decompositions >= {tuple, type(None), NotPlanarError, DegenerateSimplexError}


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(body_gauge_pairs(), st.fractions(min_value="1/3", max_value=3, max_denominator=3))
def test_constant_width_matches_difference_body_oracle_hypothesis(pair, factor):
    body, gauge = pair
    widened = scale(difference_body(gauge), factor)
    for K in (body, widened):
        assert outcome(is_constant_width, K, gauge) == outcome(
            is_constant_width_by_difference_bodies, K, gauge
        )
    assert is_constant_width(widened, gauge)


def test_constant_width_and_extended_jung_solve_count(triangle, square, solve_counter):
    """With cold caches, constant width builds no difference body and, with
    the norms of full-dimensional gauges free of LPs, takes no LP in the
    plane or in 3-D.  The extended-Jung chain builds only C - C."""
    triangle, square = canonicalize(triangle), canonicalize(square)
    simplex = canonicalize(standard_centered_simplex(3))
    octahedron = canonicalize(V([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]))
    for body, gauge, solves in ((triangle, square, 0), (simplex, octahedron, 0)):
        solve_counter.reset()
        assert not is_constant_width(body, gauge)
        assert solve_counter.count == solves
        assert difference_body.cache_info().misses == 0
    solve_counter.reset()
    assert eval_chain("extended-jung", square, triangle).holds
    assert difference_body.cache_info().misses == 1
    difference_body(triangle)
    assert difference_body.cache_info().misses == 1


def test_extended_jung_first_link_is_the_same_at_every_prism_center():
    """The prism conv{0, e1, e2} x [0, 1] has s = 2 and a segment of
    Minkowski centers, (1/3, 1/3, z) for 1/3 <= z <= 2/3.  Re-centered at
    either end, K - c lies in s/(s + 1) (K - K) with factor exactly 1, so
    the extended-Jung chain does not depend on which center the asymmetry
    returns: its links stay (1, 1, 1) against a cube and a sandwich gauge."""
    prism = V([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)])
    third = rat("1/3")
    ends = [(third, third, third), (third, third, 2 * third)]
    asym = asymmetry(prism)
    assert asym.s == 2 and not minkowski_center_is_unique(prism)
    assert is_minkowski_center(prism, asym.center)
    assert asym.center[:2] == (third, third) and third <= asym.center[2] <= 2 * third
    assert not is_minkowski_center(prism, (third, third, rat("3/10")))
    for c in ends:
        assert is_minkowski_center(prism, c)
        recentered = scale(translate(prism, vneg(c)), (asym.s + 1) / asym.s)
        assert direct_factor(recentered, difference_body(prism)) == 1
    cube = V([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    for gauge in (cube, simplex_sandwich_pair(3, "1", "1/2", "min").gauge):
        assert eval_chain("extended-jung", prism, gauge).values == (1, 1, 1)


# ---------------------------------------------------------------------------
# ratio laws for complete simplices


def test_ratio_laws_on_sandwich_pair():
    pair = simplex_sandwich_pair(2, "1", "1/2", "min")
    report = complete_simplex_ratio_laws(pair.simplex, pair.gauge)
    assert report.applicable
    assert report.ratio == rat("8/5")  # = n / s(C)
    assert report.ratio_reflected == rat("5/2")  # = n * s(C)
    assert report.bounds_hold and report.cross_law_holds


def test_ratio_laws_symmetric_gauge_collapse(triangle):
    # with a symmetric gauge both bounds collapse to n and both ratios hit it
    report = complete_simplex_ratio_laws(triangle, difference_body(triangle))
    assert report.applicable
    assert report.ratio == report.ratio_reflected == 2
    assert report.bounds_hold and report.cross_law_holds


def test_ratio_laws_not_applicable(triangle, square):
    report = complete_simplex_ratio_laws(triangle, square)
    assert not report.applicable
    assert report.bounds_hold is None
