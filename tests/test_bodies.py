"""Polytope operations: construction as the vertex set, support, Minkowski
algebra, facet structure and enumeration, cross-checked against the LP-free
oracles in conftest (2D hulls, barycentric membership) and, for the hull,
facets, membership and boundedness in one to four dimensions and the planar
and spatial norm, against the LP and brute-force routes they replaced.
Those oracles read the raw point lists a body is built from, since the
body itself already holds the library's hull."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    V,
    _in_hull_by_lp,
    barycentric_inside,
    bounded_by_lp,
    canonicalize_by_lp,
    det,
    facets_by_subsets,
    hull2d,
    lattice_bodies,
    planar_point_sets,
    rank,
    small_bodies,
    solve_linear,
    spatial_hull_cases,
    sym_gauge_norm_by_lp,
)
from gaugeradii import bodies
from gaugeradii.bodies import (
    DegenerateSimplexError,
    DimensionMismatchError,
    Halfspace,
    HPolytope,
    ScaleGuardError,
    UnboundedRegionError,
    VPolytope,
    body_from_json,
    body_to_json,
    canonicalize,
    contains_point,
    difference_body,
    enumerate_vertices,
    facets,
    integer_facets,
    integer_image,
    intersect,
    is_centrally_symmetric,
    is_simplex,
    minkowski_sum,
    negate,
    normalize_halfspace,
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
    random_vpolytope,
    simplex_sandwich_pair,
    standard_centered_simplex,
)
from gaugeradii.radii import sym_gauge_norm
from gaugeradii.ratcore import ONE, rat, vadd, vdot, vec, vneg, vscale, vsub

HEXAGON = [(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)]


def test_support_square(square):
    value, argmax = support(square, (1, 0))
    assert value == 1
    assert {square.vertices[i] for i in argmax} == {(1, 1), (1, -1)}


def test_support_triangle(triangle):
    value, argmax = support(triangle, (1, 1))
    assert value == 1
    assert {triangle.vertices[i] for i in argmax} == {(1, 0), (0, 1)}


def test_support_positive_homogeneity(triangle):
    v1, arg1 = support(triangle, (3, -2))
    v2, arg2 = support(triangle, (6, -4))
    assert v2 == 2 * v1 and arg1 == arg2


def test_support_dimension_mismatch(triangle):
    with pytest.raises(DimensionMismatchError):
        support(triangle, (1, 0, 0))


def test_support_additivity():
    rng = SplitMix64(11)
    for _ in range(10):
        a = random_vpolytope(2, 4, 5, 0, rng=rng)
        b = random_vpolytope(2, 4, 5, 0, rng=rng)
        d = rng.point(2, 5)
        if all(x == 0 for x in d):
            continue
        assert support(minkowski_sum(a, b), d)[0] == support(a, d)[0] + support(b, d)[0]


def test_minkowski_identity(triangle):
    origin = V([(0, 0)])
    assert same_vertex_set(minkowski_sum(triangle, origin), triangle)
    assert same_vertex_set(scale(triangle, 1), triangle)
    assert same_vertex_set(negate(negate(triangle)), triangle)


def test_difference_body_of_triangle(triangle):
    got = difference_body(triangle)
    assert sorted(got.vertices) == sorted(vec(p) for p in HEXAGON)
    # oracle: hull of all 9 pairwise differences has exactly these corners
    diffs = [
        tuple(a - b for a, b in zip(u, w))
        for u in triangle.vertices
        for w in triangle.vertices
    ]
    assert sorted(hull2d(diffs)) == sorted(got.vertices)


def test_difference_body_symmetric_cases(square):
    assert same_vertex_set(difference_body(square), scale(square, 2))
    segment = V([(0, 0), (1, 0)])
    assert sorted(difference_body(segment).vertices) == [vec((-1, 0)), vec((1, 0))]


def test_scale_rejects_negative(triangle):
    with pytest.raises(ValueError):
        scale(triangle, -1)


def test_contains_point(square, triangle):
    assert contains_point(square, (0, 0))
    assert not contains_point(square, (2, 0))
    assert contains_point(triangle, ("1/3", "1/3"))
    assert contains_point(triangle, vertex_centroid(triangle))
    # agrees with the barycentric oracle on a grid
    for x in range(-2, 3):
        for y in range(-2, 3):
            p = (rat(x) / 2, rat(y) / 2)
            assert contains_point(triangle, p) == barycentric_inside(p, triangle.vertices)


def test_canonicalize_removes_interior_points(triangle):
    """A listing with interior points and a repeat is built as its vertex
    set; ``canonicalize`` returns the body itself."""
    listed = triangle.vertices + (vec((0, 0)), vec(("1/3", "1/3")), triangle.vertices[0])
    fat = VPolytope(2, listed)
    assert fat.vertices == triangle.vertices == canonicalize_by_lp(listed)
    assert fat == triangle and hash(fat) == hash(triangle)
    assert canonicalize(fat) is fat


def test_simplex_hrep_standard (triangle):
    got = {(h.normal, h.offset) for h in simplex_hrep(triangle).halfspaces}
    want = {
        (vec((1, 1)), rat(1)),
        (vec((-2, 1)), rat(1)),
        (vec((1, -2)), rat(1)),
    }
    assert got == want


def test_simplex_hrep_corner():
    s = V([(0, 0), (1, 0), (0, 1)])
    got = {(h.normal, h.offset) for h in simplex_hrep(s).halfspaces}
    want = {
        (vec((1, 1)), rat(1)),
        (vec((-1, 0)), rat(0)),
        (vec((0, -1)), rat(0)),
    }
    assert got == want


def test_simplex_hrep_rejects_degenerate():
    coplanar = V([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateSimplexError):
        simplex_hrep(coplanar)
    # seeded sets of n+1 points with coordinates in {-1, 0, 1}: the facet
    # construction alone must reject exactly the sets that are no simplex
    rng = SplitMix64(2718)
    outcomes = set()
    for trial in range(3000):
        n = 2 + trial % 2
        pts = [tuple(rng.below(3) - 1 for _ in range(n)) for _ in range(n + 1)]
        body = V(pts)
        simplex = is_simplex(body)
        assert simplex == is_simplex_by_rank(pts)
        flat_but_long = not simplex and len(body.vertices) == n + 1
        if simplex:
            assert len(simplex_hrep(body).halfspaces) == n + 1
        else:
            with pytest.raises(DegenerateSimplexError):
                simplex_hrep(body)
        outcomes.add((simplex, flat_but_long))
    assert outcomes == {(True, False), (False, False), (False, True)}


def is_simplex_by_rank(points):
    """Oracle: n + 1 listed points whose differences have rank n."""
    n = len(points[0])
    return len(points) == n + 1 and rank([vsub(v, points[0]) for v in points[1:]]) == n


def simplex_hrep_by_cofactors(body):
    """Oracle: the facet of a simplex opposite each vertex in turn, its
    normal from cofactor determinants, oriented by that vertex."""
    n = body.dim
    halves = []
    for i in range(n + 1):
        rest = [v for k, v in enumerate(body.vertices) if k != i]
        dirs = [vsub(v, rest[0]) for v in rest[1:]]
        normal = tuple(
            (ONE if j % 2 == 0 else -ONE)
            * (det([[d[k] for k in range(n) if k != j] for d in dirs]) if dirs else ONE)
            for j in range(n)
        )
        offset = vdot(normal, rest[0])
        if vdot(normal, body.vertices[i]) > offset:
            normal, offset = vneg(normal), -offset
        halves.append(normalize_halfspace(Halfspace(normal, offset)))
    return tuple(halves)


def test_simplex_hrep_is_the_simplex_case_of_facets():
    rng = SplitMix64(1618)
    for trial in range(60):
        n = 2 + trial % 2
        body = V([rng.point(n, 4) for _ in range(n + 1)])
        if not is_simplex(body):
            continue
        halves = simplex_hrep(body).halfspaces
        assert halves == simplex_hrep_by_cofactors(body)  # same tuple, same order
        assert set(facets(body)) == set(halves)


def test_facets_round_trip_random_bodies():
    """The facets of random bodies enumerate back to their vertices; in the
    plane there is one facet per hull edge."""
    rng = SplitMix64(4242)
    for trial in range(40):
        n = 2 + trial % 2
        body = random_vpolytope(n, n + 1 + trial % 5, 4, 0, rng=rng)
        halves = facets(body)
        assert all(normalize_halfspace(h) == h for h in halves)
        assert len(set(halves)) == len(halves)
        assert enumerate_vertices(HPolytope(n, halves)).vertices == body.vertices
        if n == 2:
            assert len(halves) == len(hull2d(body.vertices))


def test_planar_hull_and_facets_match_oracles():
    """On 3,000 seeded planar sets the monotone-chain hull and the edges read
    off its ring equal the LP hull and the brute-force facets: the same
    tuples in the same order, for one and two points, repeats, collinear
    sets and non-integer coordinates."""
    shapes = Counter()
    for pts in planar_point_sets(3000, 31415):
        body = V(pts)
        assert body.vertices == canonicalize_by_lp(pts)
        halves = facets(body)
        assert halves == facets_by_subsets(pts)
        distinct = len(set(pts))
        if halves is not None:
            shapes["polygon"] += 1
        else:
            shapes[("point", "segment", "collinear")[min(distinct, 3) - 1]] += 1
        shapes["repeats"] += distinct < len(pts)
        shapes["fractions"] += any(x.denominator > 1 for v in pts for x in v)
    assert set(shapes) == {"polygon", "point", "segment", "collinear", "repeats", "fractions"}
    assert min(shapes.values()) >= 100, shapes


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_bodies(2), st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * 2))
def test_planar_routes_match_oracles_hypothesis(points, z):
    body = V(points)
    assert body.vertices == canonicalize_by_lp(points)
    assert facets(body) == facets_by_subsets(points)
    assert sym_gauge_norm(z, body) == sym_gauge_norm_by_lp(z, points)


def spatial_point_sets(seed):
    """Seeded 3-D point lists: boxes and cubes, prisms over random polygons,
    the vertices of difference bodies (facets with more than three
    vertices), random sets, coplanar and collinear sets, and repeated
    points."""
    rng = SplitMix64(seed)
    for trial in range(12):
        a, b, c = (1 + rng.below(3) for _ in range(3))
        lo = rng.point(3, 2, 2)
        yield [tuple(o + d for o, d in zip(lo, (x, y, z))) for x in (0, a) for y in (0, b) for z in (0, c)]
        base = [rng.point(2, 3) for _ in range(3 + rng.below(4))]
        h = rng.rational(2, 3) or rat(1)
        yield [(x, y, z) for x, y in base for z in (0, h)]
        body = random_vpolytope(3, 4 + trial % 3, 3, 0, rng=rng)
        yield list(difference_body(body).vertices)
        pts = [rng.point(3, 2, 1 + trial % 4) for _ in range(4 + rng.below(5))]
        yield pts + [pts[rng.below(len(pts))]]
        u, w, p = rng.point(3, 2), rng.point(3, 2), rng.point(3, 2)
        ts = [(rng.rational(2), rng.rational(2)) for _ in range(3 + rng.below(4))]
        yield [tuple(pk + t * uk + r * wk for pk, uk, wk in zip(p, u, w)) for t, r in ts]
        yield [tuple(pk + t * uk for pk, uk in zip(p, u)) for t, _ in ts]


def test_spatial_facets_match_subset_oracle(solve_counter):
    """The beneath-beyond hull on integer images against the LP loop and the
    brute force over rational cofactor normals, on the seeded sets of
    ``spatial_point_sets`` and ``spatial_hull_cases``: the same vertex
    tuple, the same facet tuple in the same order, or None for the flat
    sets, and the same membership answer as a membership LP for vertices,
    an edge midpoint, the vertex mean and random points.  No set, flat or
    not, solves an LP for any of it.  In one and four dimensions the facets
    are the brute force's too."""
    rng = SplitMix64(1618)
    shapes = Counter()
    for pts in [*spatial_point_sets(2718), *spatial_hull_cases(3141)]:
        solve_counter.reset()
        body = V(pts)
        halves = facets(body)
        verts = body.vertices
        probes = [*verts[:3], vertex_centroid(body), vscale(rat("1/2"), vadd(verts[0], verts[-1]))]
        probes += [rng.point(3, 2, 1 + rng.below(3)) for _ in range(4)]
        inside = [contains_point(body, p) for p in probes]
        assert solve_counter.count == 0
        assert verts == canonicalize_by_lp(pts)
        assert halves == facets_by_subsets(pts)
        assert inside == [_in_hull_by_lp(p, pts) for p in probes]
        shapes["flat" if halves is None else "solid"] += 1
        shapes["dropped"] += len(verts) < len(set(pts))
        shapes["big facet"] += halves is not None and any(
            sum(vdot(g, v) == b for v in verts) > 3 for g, b in halves
        )
        shapes["outside"] += not all(inside)
    assert min(shapes.values()) >= 30, shapes
    segment = [(2,), ("-1/2",), (1,)]
    unit_4d = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for pts in (segment, [(0, 0, 0, 0), (1, 1, 1, 1)] + unit_4d):
        assert facets(V(pts)) == facets_by_subsets(pts) is not None


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.one_of(small_bodies(3), lattice_bodies(3)),
    st.tuples(*[st.fractions(-2, 2, max_denominator=4)] * 3),
)
def test_spatial_routes_match_oracles_hypothesis(points, z):
    body = V(points)
    verts = body.vertices
    assert verts == canonicalize_by_lp(points)
    assert facets(body) == facets_by_subsets(points)
    for p in (vec(z), vertex_centroid(body), vscale(rat("1/2"), vadd(verts[0], verts[-1]))):
        assert contains_point(body, p) == _in_hull_by_lp(p, points)
    assert sym_gauge_norm(z, body) == sym_gauge_norm_by_lp(z, points)


def hull_point_sets(count, seed):
    """Seeded point lists in one to four dimensions, in turn: lattice points
    of {-1, 0, 1}^n over a common denominator, rational points, points on a
    hyperplane (one point in one dimension) and points on a line, with
    repeats."""
    rng = SplitMix64(seed)
    for trial in range(count):
        n = 1 + trial % 4
        size = 1 + rng.below(4 + 2 * n)
        kind = trial // 4 % 4
        if kind == 0:
            den = 1 + trial % 3
            pts = [tuple(rat(rng.below(3) - 1) / den for _ in range(n)) for _ in range(size)]
        elif kind == 1:
            pts = [rng.point(n, 3, 1 + rng.below(3)) for _ in range(size)]
        elif kind == 2:  # x_n = x_1 - 2 x_(n-1) + 1
            free = [rng.point(n - 1, 2, 2) for _ in range(size)]
            pts = [p + ((p[0] - 2 * p[-1] if p else 0) + 1,) for p in free]
        else:
            base, step = rng.point(n, 2, 2), rng.point(n, 2, 3)
            pts = [tuple(b + rng.rational(2) * d for b, d in zip(base, step)) for _ in range(size)]
        yield pts + pts[: trial % 3]


def test_hull_matches_oracles_in_every_dimension(solve_counter):
    """The one hull against the LP loop, the subset brute force and
    membership LPs on seeded sets in one to four dimensions, flat sets
    included: the same vertex tuple, the same facet tuple in the same order
    or None, the same membership answer for random points, the vertex mean
    and a vertex, and no LP solved for any of it."""
    rng = SplitMix64(2024)
    shapes = Counter()
    for pts in hull_point_sets(240, 577):
        solve_counter.reset()
        body = V(pts)
        halves = facets(body)
        probes = [rng.point(body.dim, 2, 1 + rng.below(3)) for _ in range(3)]
        probes += [vertex_centroid(body), body.vertices[0]]
        inside = [contains_point(body, p) for p in probes]
        assert solve_counter.count == 0
        assert body.vertices == canonicalize_by_lp(pts)
        assert halves == facets_by_subsets(pts)
        assert inside == [_in_hull_by_lp(p, pts) for p in probes]
        shapes[body.dim, halves is None] += 1
        shapes["outside"] += not all(inside)
    assert min(shapes.values()) >= 15, shapes


@st.composite
def bodies_with_point(draw):
    n = draw(st.integers(1, 4))
    points = draw(st.one_of(small_bodies(n), lattice_bodies(n)))
    return points, draw(st.tuples(*[st.fractions(-2, 2, max_denominator=4)] * n))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(bodies_with_point())
def test_hull_routes_match_oracles_hypothesis(case):
    """The oracles' answers in one to four dimensions, and the boundedness
    decision for the region with the points as normals and offset 1, which
    holds the origin."""
    points, z = case
    body = V(points)
    verts = body.vertices
    assert verts == canonicalize_by_lp(points)
    assert facets(body) == facets_by_subsets(points)
    for p in (vec(z), vertex_centroid(body), vscale(rat("1/2"), vadd(verts[0], verts[-1]))):
        assert contains_point(body, p) == _in_hull_by_lp(p, points)
    region = HPolytope(body.dim, tuple(Halfspace(vec(v), ONE) for v in points))
    try:
        bounded = enumerate_vertices(region) is not None
    except UnboundedRegionError:
        bounded = False
    assert bounded == bounded_by_lp(region)


@pytest.mark.parametrize("variant", ["min", "max"])
def test_four_dimensional_sandwich_facets_keep_the_subset_order(variant):
    """In four dimensions a facet's n largest vertex indices can be
    affinely dependent, so the order key is the first independent subset;
    the sandwich gauges' facets are the brute force's, order included."""
    gauge = simplex_sandwich_pair(4, 1, "1/2", variant).gauge
    assert facets(gauge) == facets_by_subsets(gauge.vertices) is not None


def test_planar_contains_point_matches_hull_lp():
    """Edge sign tests for full-dimensional polygons, the extreme-point test
    for flat ones: the same answer as a membership LP, boundary points
    included."""
    rng = SplitMix64(577)
    inside = Counter()
    for pts in planar_point_sets(400, 1123):
        body = V(pts)
        for p in [rng.point(2, 2, 1 + rng.below(4)) for _ in range(4)] + pts[:2]:
            got = contains_point(body, p)
            assert got == _in_hull_by_lp(p, pts)
            inside[(facets(body) is not None, got)] += 1
    assert min(inside.values()) >= 50, inside


def test_body_hash_is_the_key_hash():
    """Taken once, on the one key (dim, image).  A body built again from its
    vertices or from its listing reversed equals it and hashes alike, and a
    body with one vertex more does not equal it."""
    for pts in list(planar_point_sets(50, 8)) + list(spatial_point_sets(9)):
        body = V(pts)
        assert hash(body) == hash((body.dim, body.image))
        for again in (VPolytope(body.dim, body.vertices), V(pts[::-1])):
            assert again == body and hash(again) == hash(body)
        far = tuple(x + 100 for x in body.vertices[0])
        assert VPolytope(body.dim, body.vertices + (far,)) != body


@st.composite
def listings(draw):
    """``(n, points, listing)``: a point set in one to four dimensions, one
    point and flat sets included, and another listing of the same hull:
    permuted, with repeats and with points on a segment between two of the
    points (an edge or a chord) and the mean of the points added, and in
    int coordinates where a coordinate is integral."""
    n = draw(st.integers(1, 4))
    points = draw(st.one_of(small_bodies(n), lattice_bodies(n)))
    pick = st.sampled_from(points)
    extra = [tuple(sum(x) / len(points) for x in zip(*points))]
    for p, q, t in draw(st.lists(st.tuples(pick, pick, st.fractions(0, 1, max_denominator=4)), max_size=3)):
        extra.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
    listing = draw(st.permutations(points + extra + draw(st.lists(pick, max_size=3))))
    if draw(st.booleans()):
        listing = [tuple(int(x) if x.denominator == 1 else x for x in p) for p in listing]
    return n, points, listing


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(listings())
def test_any_listing_gives_the_body_of_its_vertices(case):
    """Construction is canonical: any listing of a point set gives a body
    that equals, and hashes like, the body of its sorted vertices, with the
    same vertices, image, integer facets and facets."""
    n, points, listing = case
    body = VPolytope(n, tuple(listing))
    assert body.vertices == canonicalize_by_lp(points)
    for other in (VPolytope(n, tuple(points)), VPolytope(n, tuple(sorted(body.vertices)))):
        assert other == body and hash(other) == hash(body)
        assert other.vertices == body.vertices
        assert other.image == body.image == integer_image(body.vertices)
        assert integer_facets(other) == integer_facets(body)
        assert facets(other) == facets(body)


def test_constructed_bodies_keep_their_hull(monkeypatch):
    """The constructor's ``_hull`` call serves the body's facets: reading
    ``integer_facets`` and ``facets`` of a constructed body, flat or not,
    in one to four dimensions, hulls nothing more."""
    calls = Counter()
    original = bodies._hull

    def counting(pts):
        calls["hull"] += 1
        return original(pts)

    monkeypatch.setattr(bodies, "_hull", counting)
    seen = Counter()
    for pts in hull_point_sets(120, 1729):
        calls.clear()
        body = V(pts)
        assert calls["hull"] >= 1
        built = calls["hull"]
        planes, halves = integer_facets(body), facets(body)
        assert calls["hull"] == built
        assert (planes is None) == (halves is None)
        seen[body.dim, halves is None] += 1
    assert all(seen[n, flat] >= 5 for n in (2, 3, 4) for flat in (False, True)), seen


# ---------------------------------------------------------------------------
# affine copies


def assert_copy_is_fresh(copy, mapped):
    """An affine copy against a freshly built body on the same vertices:
    the vertex tuple is the sorted ``mapped`` points (what the copies
    returned before they kept their order), and the integer image, the
    integer facets and the ``facets`` halfspaces agree, order included."""
    assert copy.vertices == tuple(sorted(mapped))
    fresh = VPolytope(copy.dim, tuple(mapped))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert fresh.vertices == copy.vertices
    assert copy.image == integer_image(copy.vertices)
    assert integer_facets(copy) == integer_facets(fresh)
    assert facets(copy) == facets(fresh)


def copies_of(k, factor, shift):
    """``(copy, mapped vertices)`` for the three affine maps of a body and
    two of their compositions."""
    f, t = rat(factor), vec(shift)
    neg = [vneg(v) for v in k.vertices]
    yield negate(k), neg
    yield scale(k, f), [vscale(f, v) for v in k.vertices]
    yield translate(k, t), [vadd(v, t) for v in k.vertices]
    yield scale(negate(k), f), [vscale(f, v) for v in neg]
    yield translate(negate(scale(k, f)), t), [vadd(vneg(vscale(f, v)), t) for v in k.vertices]


def test_affine_copies_match_fresh_bodies():
    """Seeded bodies in two to four dimensions, flat ones included, and the
    sandwich gauges: every copy equals a fresh body, and once the original
    has its facets, no copy hulls again."""
    rng = SplitMix64(99)
    cases = [V(p) for p in hull_point_sets(160, 31) if len(p[0]) >= 2]
    cases += [V(p) for p in list(spatial_hull_cases(5))[:40]]
    cases += [simplex_sandwich_pair(n, 1, "1/2", v).gauge for n in (2, 3, 4) for v in ("min", "max")]
    seen = Counter()
    calls = Counter()
    original = bodies._hull

    def counting(pts):
        calls["hull"] += 1
        return original(pts)

    for k in cases:
        integer_facets(k)
        factor = abs(rng.rational(3, 4)) or rat("5/2")
        shift = rng.point(k.dim, 3, 5)
        bodies._hull = counting
        try:
            copies = list(copies_of(k, factor, shift))
            for copy, _ in copies:
                integer_facets(copy)
        finally:
            bodies._hull = original
        for copy, mapped in copies:
            assert_copy_is_fresh(copy, mapped)
        seen[k.dim, integer_facets(k) is None] += 1
    assert calls["hull"] == 0
    assert all(seen[n, flat] >= 5 for n in (2, 3, 4) for flat in (False, True)), seen


def eager_copies(k, factor, shift):
    """The vertex tuples of ``copies_of``, each built as ``negate``,
    ``scale`` and ``translate`` built them before copies were lazy: every
    point mapped in order, and the tuple reversed after a negation."""
    f, t = rat(factor), vec(shift)
    neg = tuple(vneg(v) for v in k.vertices)[::-1]
    yield neg
    yield tuple(vscale(f, v) for v in k.vertices)
    yield tuple(vadd(v, t) for v in k.vertices)
    yield tuple(vscale(f, v) for v in neg)
    scaled = tuple(vneg(v) for v in (vscale(f, v) for v in k.vertices))[::-1]
    yield tuple(vadd(v, t) for v in scaled)


def test_affine_copies_build_vertices_lazily():
    """A chained copy builds no vertex tuple for its image, its facets, its
    hash or an equality test; read last, its vertices are the tuple the
    eager maps build, and the copy equals, and hashes like, a fresh body
    on the same points."""
    rng = SplitMix64(404)
    cases = [V(p) for p in hull_point_sets(60, 17) if len(p[0]) >= 2]
    cases += [simplex_sandwich_pair(n, 1, "1/2", "max").simplex for n in (2, 3, 4)]
    for k in cases:
        factor = abs(rng.rational(3, 4)) or rat("5/2")
        shift = rng.point(k.dim, 3, 5)
        for (copy, _), eager in zip(copies_of(k, factor, shift), eager_copies(k, factor, shift)):
            fresh = VPolytope(k.dim, eager)
            integer_facets(copy)
            assert copy == fresh and hash(copy) == hash(fresh)
            assert "vertices" not in vars(copy)
            assert copy.vertices == eager == fresh.vertices


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.one_of(small_bodies(n), lattice_bodies(n)),
        st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7),
        st.tuples(*[st.fractions(-3, 3, max_denominator=6)] * n),
    ))
)
def test_affine_copies_match_fresh_bodies_hypothesis(case):
    points, factor, shift = case
    for copy, mapped in copies_of(V(points), factor, shift):
        assert_copy_is_fresh(copy, mapped)


def test_full_dimension_from_constructor_matches_rank():
    """A body has facets exactly when the rational rank test calls its
    points full-dimensional, on sets of 1 to 6 points in 1 to 4
    dimensions, many of them flat."""
    rng = SplitMix64(3141)
    seen = Counter()
    for trial in range(2000):
        n = 1 + trial % 4
        pts = [rng.point(n, 1 + trial % 3, 1 + rng.below(3)) for _ in range(1 + rng.below(6))]
        if trial % 5 == 0 and len(pts) > 2:  # push the last point into the span of the others
            pts[-1] = tuple(a + rng.rational(2) * (b - a) for a, b in zip(pts[0], pts[1]))
        full = rank([vsub(p, pts[0]) for p in pts[1:]]) == n if len(pts) > 1 else False
        assert (integer_facets(VPolytope(n, pts)) is not None) == full
        seen[full] += 1
    assert min(seen.values()) >= 300, seen


def test_width_is_the_support_sum():
    """h(K, a) + h(K, -a) on integer images equals the support sum, in 2-D
    and 3-D, for directions with denominators of their own."""
    rng = SplitMix64(1729)
    for trial in range(300):
        n = 2 + trial % 2
        body = V([rng.point(n, 3, 4) for _ in range(1 + rng.below(6))])
        a = rng.point(n, 3, 5)
        assert width(body, a) == support(body, a)[0] + support(body, vneg(a))[0]
    with pytest.raises(DimensionMismatchError):
        width(body, (1,) * (n + 1))


def test_facets_none_for_flat_bodies(square):
    assert facets(square) is not None
    for flat in (
        V([(0, 0)]),
        V([(0, 0), (2, 1)]),
        V([(0, 0), (1, 1), (2, 2)]),
        V([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]),
        V([(0, 0, 1), (1, 0, 1), (0, 1, 1)]),
    ):
        assert facets(flat) is None


def test_is_simplex(triangle, square):
    assert is_simplex(triangle)
    assert not is_simplex(square)


def test_normalize_halfspace():
    h = normalize_halfspace(Halfspace(vec(("2/3", "-4/3")), rat("2/9")))
    assert h == Halfspace(vec((1, -2)), rat("1/3"))
    with pytest.raises(ValueError, match="zero normal"):
        normalize_halfspace(Halfspace(vec((0, 0)), rat(1)))


def normalize_halfspace_by_lcm(half):
    """Oracle: the halfspace times lcm/gcd, the lcm taken over the
    denominators of the normal and the offset, the gcd over the normal's
    entries after clearing them."""
    entries = list(half.normal) + [half.offset]
    den = math.lcm(*(q.denominator for q in entries))
    g = math.gcd(*(int(q * den) for q in half.normal))
    factor = Fraction(den, g)
    return Halfspace(tuple(q * factor for q in half.normal), half.offset * factor)


def test_normalize_halfspace_matches_lcm_oracle():
    """On 3,000 seeded halfspaces in one to four dimensions, the primitive
    normal read off the normal's integer image gives the oracle's
    halfspace, entry types included."""
    rng = SplitMix64(3000)
    for trial in range(3000):
        normal = rng.point(1 + trial % 4, 6, 1 + trial % 7)
        if not any(normal):
            continue
        half = Halfspace(normal, rng.rational(9, 1 + trial % 5))
        got = normalize_halfspace(half)
        assert got == normalize_halfspace_by_lcm(half)
        assert all(type(q) is Fraction for q in (*got.normal, got.offset))


def test_enumerate_vertices_square(square):
    hrep = HPolytope(
        2,
        (
            Halfspace(vec((1, 0)), rat(1)),
            Halfspace(vec((-1, 0)), rat(1)),
            Halfspace(vec((0, 1)), rat(1)),
            Halfspace(vec((0, -1)), rat(1)),
        ),
    )
    assert same_vertex_set(enumerate_vertices(hrep), square)


def test_enumerate_round_trip(triangle):
    assert same_vertex_set(enumerate_vertices(simplex_hrep(triangle)), triangle)


def test_enumerate_intersection_hexagon(triangle):
    region = intersect(simplex_hrep(triangle), simplex_hrep(negate(triangle)))
    got = enumerate_vertices(region)
    assert len(got.vertices) == 6
    assert is_centrally_symmetric(got)[0]
    for v in got.vertices:  # oracle: inside both triangles
        assert barycentric_inside(v, triangle.vertices)
        assert barycentric_inside(v, negate(triangle).vertices)


def enumerate_vertices_by_gauss_jordan(region):
    """Oracle: the sorted feasible points among the unique Gauss-Jordan
    solutions of every square subsystem of the region."""
    found = set()
    for subset in itertools.combinations(region.halfspaces, region.dim):
        status, x = solve_linear([h.normal for h in subset], [h.offset for h in subset])
        if status == "unique" and all(vdot(h.normal, x) <= h.offset for h in region.halfspaces):
            found.add(x)
    return tuple(sorted(found))


def test_enumerate_max_sandwich_matches_gauss_jordan():
    """The 4-D "max" sandwich gauge, the outer intersection
    (lam + 4 mu)S ∩ (4 lam + mu)(-S), has the vertices that Gauss-Jordan
    solves of its square subsystems give."""
    S = standard_centered_simplex(4)
    counts = []
    for lam, mu in (("1", "0"), ("1", "1/2"), ("3", "1"), ("2", "2")):
        lam, mu = rat(lam), rat(mu)
        outer = intersect(
            simplex_hrep(scale(S, lam + 4 * mu)), simplex_hrep(scale(negate(S), 4 * lam + mu))
        )
        gauge = simplex_sandwich_pair(4, lam, mu, "max").gauge
        assert gauge.vertices == enumerate_vertices(outer).vertices
        assert gauge.vertices == enumerate_vertices_by_gauss_jordan(outer)
        counts.append(len(gauge.vertices))
    assert counts[0] == 5 and max(counts) > 5


def test_enumerate_unbounded_raises():
    hrep = HPolytope(2, (Halfspace(vec((1, 0)), rat(1)),))
    with pytest.raises(UnboundedRegionError):
        enumerate_vertices(hrep)
    # empty, and its normals bound no polytope: x <= 0 and -x <= -1
    slab = HPolytope(2, (Halfspace(vec((1, 0)), rat(0)), Halfspace(vec((-1, 0)), rat(-1))))
    with pytest.raises(UnboundedRegionError, match="the halfspaces bound no polytope"):
        enumerate_vertices(slab)
    empty = HPolytope(1, (Halfspace(vec((1,)), rat(0)), Halfspace(vec((-1,)), rat(-1))))
    with pytest.raises(ValueError, match="empty halfspace intersection"):
        enumerate_vertices(empty)


def test_enumerate_boundedness_matches_lp_probe():
    """The hull of the normals decides boundedness as the coordinate LPs
    did, on seeded regions in one to four dimensions: a region is refused
    as unbounded exactly when the same normals with offset 1, a region
    holding the origin, are unbounded, and a nonempty region is enumerated
    exactly when it is bounded."""
    rng = SplitMix64(8128)
    seen = Counter()
    for trial in range(400):
        n = 1 + trial % 4
        normals = [rng.point(n, 2, 2) for _ in range(n + 1 + rng.below(n + 3))]
        region = HPolytope(n, tuple(Halfspace(a, rng.rational(2)) for a in normals))
        spanning = bounded_by_lp(HPolytope(n, tuple(Halfspace(a, ONE) for a in normals)))
        bounded = bounded_by_lp(region)
        try:
            enumerate_vertices(region)
            got = "vertices"
        except UnboundedRegionError:
            got = "unbounded"
        except ValueError:
            got = "empty"
        assert got == ("unbounded" if not spanning else "empty" if bounded is None else "vertices")
        seen[got, bounded] += 1
    assert min(seen.values()) >= 20, seen


def test_enumerate_scale_guard():
    halves = tuple(Halfspace(vec((1, k)), rat(1)) for k in range(20))
    with pytest.raises(ScaleGuardError):
        enumerate_vertices(HPolytope(2, halves))


def test_intersect_dedupes(triangle):
    h = simplex_hrep(triangle)
    assert len(intersect(h, h).halfspaces) == len(h.halfspaces)


def test_centroid(triangle):
    assert vertex_centroid(triangle) == vec((0, 0))
    assert vertex_centroid(V([(0, 0), (1, 0), (0, 1)])) == vec(("1/3", "1/3"))


def test_is_centrally_symmetric(square, triangle):
    assert is_centrally_symmetric(square) == (True, vec((0, 0)))
    assert is_centrally_symmetric(triangle) == (False, None)
    sym, center = is_centrally_symmetric(translate(square, (3, -2)))
    assert sym and center == vec((3, -2))


def test_difference_bodies_symmetric_about_origin(triangle):
    rng = SplitMix64(47)
    bodies = [triangle] + [random_vpolytope(2, 5, 6, 0, rng=rng) for _ in range(5)]
    for body in bodies:
        assert is_centrally_symmetric(difference_body(body)) == (True, vec((0, 0)))


def test_body_json_round_trip(triangle):
    data = body_to_json(triangle)
    assert data["vertices"][0][0].count(".") == 0
    assert same_vertex_set(body_from_json(data), triangle)
    h = simplex_hrep(triangle)
    data_h = body_to_json(h)
    back = body_from_json(data_h)
    assert back == h


def test_body_json_rejects_decimals():
    with pytest.raises(Exception):
        body_from_json({"dim": 2, "vertices": [["0.5", "1"], ["1", "0"], ["0", "1"]]})
    with pytest.raises(Exception):
        body_from_json({"dim": 2, "vertices": [[0.5, 1], [1, 0], [0, 1]]})


def test_vpolytope_validation():
    with pytest.raises(ValueError):
        VPolytope(2, ())
    with pytest.raises(DimensionMismatchError):
        V([(1, 0), (0, 1, 2)])
