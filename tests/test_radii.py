"""Radii functionals against hand-derived instances and their exact
invariance laws.

The 8/3 circumradius instance carries a two-sided oracle: summing the body's
support values over the gauge's facet normals (which cancel) gives the lower
bound 3*rho >= 8 without any LP, and the barycentric oracle confirms the
containment at exactly 8/3.
"""

import pytest
from hypothesis import given, settings

from conftest import (
    V,
    body_gauge_pairs,
    circumradius_by_facet_rows,
    circumradius_by_vertices,
    family_pairs,
    in_translated_dilate,
    inradius_by_lp,
    planar_point_sets,
    small_bodies,
    sym_gauge_norm_by_lp,
)
from gaugeradii.bodies import (
    DimensionMismatchError,
    canonicalize,
    contains_point,
    difference_body,
    facets,
    negate,
    same_vertex_set,
    scale,
    simplex_hrep,
    support,
    translate,
    vertex_centroid,
)
from gaugeradii.constructions import (
    SplitMix64,
    random_pair_suite,
    random_vpolytope,
    simplex_sandwich_pair,
    spiked_difference_pair,
    standard_centered_simplex,
    triangle_mix_gauge,
)
from gaugeradii.radii import (
    DegenerateGaugeError,
    asymmetry,
    breadth,
    circumradius,
    diameter,
    inradius,
    is_constant_width,
    is_minkowski_center,
    jung_ratio,
    sym_gauge_norm,
)
from gaugeradii.ratcore import rat, vadd, vec, vsub


def seeded_pairs(count, seed, dim=2, verts=4):
    rng = SplitMix64(seed)
    return [
        (random_vpolytope(dim, verts, 5, 0, rng=rng), random_vpolytope(dim, verts, 5, 0, rng=rng))
        for _ in range(count)
    ]


def test_self_circumradius(square, triangle):
    for body in (square, triangle):
        res = circumradius(body, body)
        assert res.value == 1


def test_reflected_simplex_circumradius(triangle):
    assert circumradius(negate(triangle), triangle).value == 2


def test_square_in_triangle_gauge(square, triangle):
    res = circumradius(square, triangle)
    assert res.value == rat("8/3")
    assert res.translation == vec(("-1/3", "-1/3"))
    # oracle, lower bound: the triangle's facet normals sum to zero, so for
    # any t, summing h(square, a_f) <= a_f.t + rho h(triangle, a_f) kills t
    normals = [h.normal for h in simplex_hrep(triangle).halfspaces]
    assert vadd(vadd(normals[0], normals[1]), normals[2]) == vec((0, 0))
    support_sum = sum(support(square, a)[0] for a in normals)
    gauge_sum = sum(support(triangle, a)[0] for a in normals)
    assert support_sum == 8 and gauge_sum == 3  # so rho >= 8/3
    # oracle, upper bound: every square corner inside t + 8/3 triangle
    for corner in square.vertices:
        assert in_translated_dilate(corner, res.translation, "8/3", triangle.vertices)


def test_circumradius_infinite_for_flat_gauge(square):
    segment = V([(0, 0), (1, 0)])
    assert circumradius(square, segment) is None


def test_inradius(square, triangle):
    assert inradius(square, square).value == 1
    assert inradius(square, triangle).value == 1
    half = scale(square, "1/2")
    # r(K, C) R(C, K) = 1, with r from its own LP
    value, _ = inradius_by_lp(triangle, half)
    assert value * circumradius(half, triangle).value == 1
    assert inradius(triangle, half).value == value


def test_inradius_rejects_point_gauge(square):
    with pytest.raises(DegenerateGaugeError):
        inradius(square, V([(0, 0)]))


def test_reciprocity_random():
    for body, gauge in seeded_pairs(8, 21):
        value, _ = inradius_by_lp(body, gauge)
        assert value * circumradius(gauge, body).value == 1
        assert inradius(body, gauge).value == value


def test_witness_translations_certify_values():
    for body, gauge in seeded_pairs(6, 58):
        circ = circumradius(body, gauge)
        cover = translate(scale(gauge, circ.value), circ.translation)
        assert all(contains_point(cover, v) for v in body.vertices)
        inr = inradius(body, gauge)
        inscribed = translate(scale(gauge, inr.value), inr.translation)
        assert all(contains_point(body, v) for v in inscribed.vertices)


def test_inradius_of_flat_body_is_zero(square):
    segment = V([(0, 0), (1, 0)])
    assert inradius(segment, square).value == 0


def test_sym_gauge_norm(triangle):
    assert sym_gauge_norm((0, 0), triangle) == 0
    # the ray through (1,-1) leaves S-S on the edge 2x - y = 3
    assert sym_gauge_norm((2, -2), triangle) == 4
    assert sym_gauge_norm((-2, 2), triangle) == 4


def test_planar_sym_gauge_norm_matches_lp_oracle():
    """On 3,000 seeded planar gauges, flat ones included, the closed-form
    norm over the facet normals equals the norm LP, for a random z with its
    own denominators and for a difference of two gauge points."""
    rng = SplitMix64(27182)
    outcomes = set()
    for gauge in planar_point_sets(3000, 16180):
        pts = gauge.vertices
        for z in (rng.point(2, 3, 5), vsub(pts[rng.below(len(pts))], pts[0])):
            got = sym_gauge_norm(z, gauge)
            assert got == sym_gauge_norm_by_lp(z, gauge)
            outcomes.add("none" if got is None else "zero" if got == 0 else "positive")
    assert outcomes == {"none", "zero", "positive"}


def test_spatial_sym_gauge_norm_matches_lp_oracle():
    """Every vertex difference of the 100 3-D acceptance pairs, against C,
    -C and K: twice the segment's circumradius equals the norm LP."""
    count = 0
    for body, gauge in random_pair_suite(200, 20240817):
        if body.dim != 3:
            continue
        verts = canonicalize(body).vertices
        for g in (gauge, negate(gauge), body):
            for i, v in enumerate(verts):
                for w in verts[i + 1:]:
                    z = vsub(w, v)
                    assert sym_gauge_norm(z, g) == sym_gauge_norm_by_lp(z, g), (z, g)
                    count += 1
    assert count >= 100 * 3 * 6


def test_flat_spatial_gauge_norms_match_lp_oracle():
    """A segment, a triangle and a coplanar quadrilateral in space: z in the
    span of C - C has a norm, z leaving it has None, as from the norm LP."""
    rng = SplitMix64(4242)
    outcomes = set()
    for gauge in (
        V([(0, 0, 0), (1, 2, 3)]),
        V([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        V([(0, 0, 1), (2, 0, 1), (0, 1, 1), (2, 1, 1)]),
    ):
        pts = canonicalize(gauge).vertices
        diffs = [vsub(p, pts[0]) for p in pts[1:]]
        zs = diffs + [vadd(diffs[0], diffs[-1]), tuple(rat("-3/2") * x for x in diffs[-1])]
        zs += [(0, 0, 1), (1, 0, 0)] + [rng.point(3, 3, 4) for _ in range(4)]
        for z in zs:
            got = sym_gauge_norm(z, gauge)
            assert got == sym_gauge_norm_by_lp(z, gauge), (z, gauge)
            outcomes.add(got is None)
    assert outcomes == {True, False}


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(small_bodies(3), small_bodies(3))
def test_spatial_sym_gauge_norm_matches_lp_oracle_hypothesis(body, gauge):
    pts = body.vertices
    for p in pts[1:]:
        z = vsub(p, pts[0])
        assert sym_gauge_norm(z, gauge) == sym_gauge_norm_by_lp(z, gauge)


def test_norm_is_twice_segment_circumradius(triangle):
    rng = SplitMix64(77)
    for _ in range(12):
        z = rng.point(2, 6)
        if all(x == 0 for x in z):
            continue
        segment = V([(0, 0), z])
        assert sym_gauge_norm(z, triangle) == 2 * circumradius(segment, triangle).value


def test_diameter(square, triangle):
    res = diameter(square, triangle)
    assert res.value == 4
    assert res.attaining == (vec((-1, 1)), vec((1, -1)))


def test_diameter_identities():
    for body, gauge in seeded_pairs(6, 33):
        d = diameter(body, gauge).value
        assert d == 2 * diameter(body, difference_body(gauge)).value
        assert d == diameter(negate(body), gauge).value


def test_asymmetry_basics(square, triangle):
    assert asymmetry(square).s == 1
    assert asymmetry(square).center == vec((0, 0))
    res = asymmetry(triangle)
    assert res.s == 2 and res.center == vec((0, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_simplex_asymmetry_is_dimension(n):
    res = asymmetry(standard_centered_simplex(n))
    assert res.s == n
    assert res.center == vec([0] * n)


def test_asymmetry_range_and_reflection():
    for body, _ in seeded_pairs(8, 55):
        s = asymmetry(body).s
        assert 1 <= s <= body.dim
        assert asymmetry(negate(body)).s == s


def test_minkowski_center_checks(triangle):
    assert is_minkowski_center(triangle, vertex_centroid(triangle))
    assert not is_minkowski_center(triangle, (1, 0))
    shifted = translate(triangle, (5, "1/2"))
    assert is_minkowski_center(shifted, (5, "1/2"))
    for body, _ in seeded_pairs(5, 13):
        assert is_minkowski_center(body, asymmetry(body).center)


def is_minkowski_center_by_lps(body, point):
    """Oracle: -(K - c) in s(K)(K - c), one membership LP per vertex."""
    k = canonicalize(body)
    s = asymmetry(k).s
    shifted = tuple((1 + s) * x for x in vec(point))
    target = scale(k, s)
    return all(contains_point(target, tuple(a - b for a, b in zip(shifted, v))) for v in k.vertices)


def test_minkowski_center_facet_signs_match_membership_lps():
    """The per-facet sign test agrees with the membership LPs at the
    center, nearby points and the vertices of random bodies, and the
    membership LPs still decide flat bodies."""
    bodies = [body for pair in seeded_pairs(6, 77) for body in pair]
    bodies += [body for pair in seeded_pairs(4, 78, dim=3, verts=5) for body in pair]
    bodies += [V([(0, 0), (2, 0)]), V([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), V([(1, 2)])]
    seen = set()
    for body in bodies:
        center = asymmetry(body).center
        points = [center, *canonicalize(body).vertices]
        for k in range(body.dim):
            for eps in (rat("1/7"), rat("-1/50")):
                points.append(tuple(x + eps if j == k else x for j, x in enumerate(center)))
        for p in points:
            got = is_minkowski_center(body, p)
            assert got == is_minkowski_center_by_lps(body, p)
            seen.add(got)
    assert seen == {True, False}
    with pytest.raises(DimensionMismatchError):
        is_minkowski_center(V([(1, 0), (0, 1), (-1, -1)]), (0, 0, 0))


def test_breadth(square, triangle):
    assert breadth(square, square, (1, 0)) == 2
    assert breadth(square, square, (0, 1)) == 2
    # invariant under central symmetrization of both arguments
    for body, gauge in seeded_pairs(5, 91):
        d = (3, -1)
        assert breadth(body, gauge, d) == breadth(
            difference_body(body), difference_body(gauge), d
        )
    with pytest.raises(ValueError):
        breadth(square, triangle, (0, 0))


def test_breadth_below_diameter(triangle, square):
    # breadth never exceeds the diameter, and attains it for some direction
    hexagon = difference_body(triangle)
    dmax = diameter(square, triangle).value
    values = [breadth(square, triangle, v) for v in hexagon.vertices]
    assert all(b <= dmax for b in values)
    assert dmax in values


def test_jung_ratio(triangle, square):
    hexagon = difference_body(triangle)
    assert circumradius(triangle, hexagon).value == rat("2/3")
    assert diameter(triangle, hexagon).value == 1
    assert jung_ratio(triangle, hexagon) == rat("2/3")
    segment = V([(0, 0), (1, 0)])
    assert jung_ratio(segment, square) == rat("1/2")


def test_translation_invariance(triangle, square):
    for body, gauge in ((square, triangle), (triangle, square)):
        moved_body = translate(body, (7, -3))
        moved_gauge = translate(gauge, ("-1/2", 9))
        assert circumradius(moved_body, moved_gauge).value == circumradius(body, gauge).value
        assert inradius(moved_body, moved_gauge).value == inradius(body, gauge).value
        assert diameter(moved_body, moved_gauge).value == diameter(body, gauge).value
        assert asymmetry(moved_body).s == asymmetry(body).s


def test_homogeneity_and_monotonicity(triangle, square):
    assert circumradius(scale(square, "3/2"), triangle).value == rat("3/2") * rat("8/3")
    sub_body = V([(1, 1), (1, -1), (-1, 1)])  # hull subset of the square
    assert circumradius(sub_body, triangle).value <= circumradius(square, triangle).value


def test_affine_invariance(triangle, square):
    # unimodular map plus translation
    def apply(m, t, body):
        return canonicalize(
            type(body)(
                body.dim,
                tuple(
                    (
                        m[0][0] * v[0] + m[0][1] * v[1] + t[0],
                        m[1][0] * v[0] + m[1][1] * v[1] + t[1],
                    )
                    for v in body.vertices
                ),
            )
        )

    m = ((rat(2), rat(1)), (rat(1), rat(1)))
    t = (rat(-3), rat(5))
    for body, gauge in ((square, triangle), (triangle, difference_body(triangle))):
        assert (
            circumradius(apply(m, t, body), apply(m, t, gauge)).value
            == circumradius(body, gauge).value
        )
        assert diameter(apply(m, t, body), apply(m, t, gauge)).value == diameter(body, gauge).value


def test_constant_width(square, triangle):
    assert is_constant_width(square, square)
    assert not is_constant_width(triangle, square)
    assert is_constant_width(difference_body(triangle), triangle)
    # the witness identity: K - K equals D/2 (C - C) exactly
    d = diameter(difference_body(triangle), triangle).value
    assert same_vertex_set(
        difference_body(difference_body(triangle)),
        scale(difference_body(triangle), d / 2),
    )


# ---------------------------------------------------------------------------
# the inradius LP (``inradius_by_lp``) as an oracle for r(K, C) = 1/R(C, K)


def inscribes(body, gauge, value, translation):
    """value*gauge + translation lies in the body, checked vertex by vertex."""
    inner = translate(scale(gauge, value), translation)
    return all(contains_point(body, v) for v in inner.vertices)


def compare_with_lp(body, gauge):
    """Assert the inradius agrees with the LP oracle in value (or exception)
    and inscribes its dilate; True when the oracle's translation differs,
    which must then be a witness too."""
    try:
        expected = inradius_by_lp(body, gauge)
    except (DegenerateGaugeError, DimensionMismatchError) as exc:
        with pytest.raises(type(exc)):
            inradius(body, gauge)
        return False
    res = inradius(body, gauge)
    assert res.value == expected[0]
    assert inscribes(body, gauge, res.value, res.translation)
    if res.translation == expected[1]:
        return False
    assert inscribes(body, gauge, *expected)
    return True


def flat_cases():
    square3 = V([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    return [
        (V([(0, 0), (1, 0)]), V([(1, 1), (1, -1), (-1, 1), (-1, -1)])),
        (V([(2, 1), (-1, 3)]), V([(1, 0), (0, 1), (-1, -1)])),
        (V([(0, 0), (1, 0)]), V([(0, 0), (0, 1)])),
        (V([(3, "1/2")]), V([(1, 0), (0, 1), (-1, -1)])),
        (V([(0, 0, 0), (2, 0, 0), (0, 1, 0)]), standard_centered_simplex(3)),
        (V([(1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, 1)]), square3),
        (V([(0, 0, 0), (1, 1, 1)]), square3),
    ]


def test_flat_body_translation_matches_lp():
    # the body cannot hold any dilate of the gauge: r = 0 at the first
    # canonical vertex, the translation the LP also lands on
    for body, gauge in flat_cases():
        res = inradius(body, gauge)
        assert res.value == 0
        assert (res.value, res.translation) == inradius_by_lp(body, gauge)
        assert res.translation == canonicalize(body).vertices[0]


def test_inradius_matches_lp_oracle():
    """Equal values and exceptions, exact witnesses, against C, -C and C - C
    on acceptance-stream pairs, the sandwich pairs for +-S both ways round,
    the triangle_mix_gauge grid, a flat body with a parallel flat gauge and
    degenerate gauges."""
    cases = []
    for body, gauge in random_pair_suite(30, 20240817, dims=(2, 3), max_vertices=5):
        cases += [(body, gauge), (body, negate(gauge)), (body, difference_body(gauge))]
    for n in (2, 3):
        for lam, mu in (("1", "1/2"), ("3", "1"), ("2", "2"), ("1", "0")):
            for variant in ("min", "max"):
                pair = simplex_sandwich_pair(n, lam, mu, variant)
                for S in (pair.simplex, negate(pair.simplex)):
                    cases += [(S, pair.gauge), (pair.gauge, S)]
    for lam in ("0", "1/4", "1/3", "1/2", "2/3", "1"):
        pair = triangle_mix_gauge(lam)
        for S in (pair.simplex, negate(pair.simplex)):
            cases += [(S, pair.gauge), (pair.gauge, S)]
    square = V([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    cases += [
        (square, V([(0, 0)])),
        (V([(5, 5)]), V([(0, 0)])),
        (square, standard_centered_simplex(3)),
        (V([(0, 1), (2, 1)]), V([(0, 0), (3, 0)])),
    ]
    differing = sum(compare_with_lp(body, gauge) for body, gauge in cases)
    print(f"PASS: {len(cases)} inradii equal to the LP's, {differing} other witnesses")


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(body_gauge_pairs())
def test_inradius_matches_lp_oracle_hypothesis(pair):
    body, gauge = pair
    compare_with_lp(body, gauge)
    compare_with_lp(gauge, body)


def test_inradius_reuses_the_circumradius(triangle, square, solve_counter):
    """r(K, C) is read off the cached R(C, K): no solve of its own."""
    for body, gauge in ((square, triangle), (triangle, square), (V([(0, 0), (1, 0)]), square)):
        solve_counter.reset()
        circumradius(gauge, body)
        warm = solve_counter.count
        inradius(body, gauge)
        assert solve_counter.count == warm


# ---------------------------------------------------------------------------
# the vertex-form LP (``circumradius_by_vertices``) as an oracle for the
# facet-form circumradius value


def compare_with_vertex_form(body, gauge):
    """Assert R(body, gauge) equals the vertex-form LP in value, or both are
    None, and that the witness translation is the one that LP lands on."""
    expected = circumradius_by_vertices(body, gauge)
    res = circumradius(body, gauge)
    if expected is None:
        assert res is None
        return
    assert (res.value, res.translation) == expected


def test_facet_circumradius_matches_vertex_form_on_acceptance_pairs():
    """All 200 acceptance pairs, 100 of them 3-D: R(K, C) and R(C, K), and K
    against C - C, -C and -K."""
    for body, gauge in random_pair_suite(200, 20240817):
        for a, b in (
            (body, gauge),
            (gauge, body),
            (body, difference_body(gauge)),
            (body, negate(gauge)),
            (body, negate(body)),
        ):
            compare_with_vertex_form(a, b)


def test_facet_circumradius_degenerate_cases(square):
    """Flat and one-point bodies, gauges that miss the origin, flat gauges
    (both routes give None) and one-point gauges."""
    cube = V([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    far_triangle = V([(5, 5), (7, 5), (5, 8)])
    cases = flat_cases() + [(gauge, body) for body, gauge in flat_cases()]
    cases += [
        (V([(3, "1/2")]), square),
        (V([(1, 2, 3)]), cube),
        (square, far_triangle),
        (far_triangle, translate(square, (-9, 4))),
        (cube, translate(standard_centered_simplex(3), (4, 4, "-7/2"))),
        (V([(0, 0), (1, 0)]), V([(5, 5)])),
        (square, V([(0, 0)])),
        (V([(2, 2)]), V([(0, 0)])),
    ]
    nones = 0
    for body, gauge in cases:
        compare_with_vertex_form(body, gauge)
        nones += circumradius(body, gauge) is None
    assert nones >= 5


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(body_gauge_pairs())
def test_facet_circumradius_matches_vertex_form_hypothesis(pair):
    body, gauge = pair
    compare_with_vertex_form(body, gauge)
    compare_with_vertex_form(gauge, body)


def test_values_solve_no_witness_lp(triangle, square, solve_counter):
    """A value takes the one facet-form LP; the witness LP runs on the first
    read of a translation, contacts or center, and once only."""
    body = V([(0, 0), (2, 1), (1, 3)])
    circumradius(body, square).value
    assert solve_counter.count == 1
    res = circumradius(body, square)
    res.translation, res.attaining, res.translation
    assert solve_counter.count == 2
    solve_counter.reset()
    inr = inradius(square, triangle)
    assert solve_counter.count == 1
    inr.translation, inr.translation
    assert solve_counter.count == 2
    solve_counter.reset()
    asym = asymmetry(body)
    assert solve_counter.count == 1
    asym.center, asym.center
    assert solve_counter.count == 2


# ---------------------------------------------------------------------------
# the facet-form primal LP (``circumradius_by_facet_rows``) as an oracle for
# the circumradius value, which is read off its (n + 1)-row dual


def compare_with_facet_rows(body, gauge) -> bool:
    """Assert R(body, gauge) equals the optimum of the primal facet-row LP;
    False, with no comparison, for a flat gauge, which has no facets."""
    if facets(canonicalize(gauge)) is None:
        return False
    assert circumradius(body, gauge).value == circumradius_by_facet_rows(body, gauge), (
        body, gauge
    )
    return True


def test_dual_circumradius_matches_facet_rows_on_acceptance_pairs():
    """All 200 acceptance pairs, 100 of them 3-D: R(K, C) and R(C, K), and K
    against C - C, -C and -K."""
    for body, gauge in random_pair_suite(200, 20240817):
        for a, b in (
            (body, gauge),
            (gauge, body),
            (body, difference_body(gauge)),
            (body, negate(gauge)),
            (body, negate(body)),
        ):
            assert compare_with_facet_rows(a, b)


def test_dual_circumradius_matches_facet_rows_on_families():
    """The sandwich grid, the moved mixed-triangle grid and the spiked pair,
    both ways round and against the mirrored gauge."""
    for simplex, gauge in family_pairs():
        for a, b in ((simplex, gauge), (gauge, simplex), (simplex, negate(gauge))):
            assert compare_with_facet_rows(a, b)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(body_gauge_pairs())
def test_dual_circumradius_matches_facet_rows_hypothesis(pair):
    body, gauge = pair
    compare_with_facet_rows(body, gauge)
    compare_with_facet_rows(gauge, body)


def test_value_lp_has_n_plus_one_rows(square, solve_counter):
    """The value LP against a full-dimensional gauge has n + 1 rows and one
    column per facet of the gauge, in the plane and in space."""
    cube = V([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    spiked = spiked_difference_pair(3)
    cases = (
        (V([(0, 0), (2, 1), (1, 3)]), square, 4),
        (standard_centered_simplex(3), cube, 6),
        (spiked.simplex, spiked.gauge, len(facets(spiked.gauge))),
    )
    for body, gauge, facet_count in cases:
        body, gauge = canonicalize(body), canonicalize(gauge)
        solve_counter.reset()
        circumradius(body, gauge).value
        assert solve_counter.shapes == [(body.dim + 1, facet_count)]
