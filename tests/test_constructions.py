"""Generators: the canonical simplex, the two example families, seeded
randomness (including the splitmix64 known-answer vectors)."""

import pytest

from conftest import rank
from gaugeradii import constructions
from gaugeradii.bodies import (
    VPolytope,
    canonicalize,
    contains_point,
    difference_body,
    integer_facets,
    is_centrally_symmetric,
    negate,
    same_vertex_set,
    scale,
    simplex_hrep,
    vertex_centroid,
)
from gaugeradii.constructions import (
    NoSpikePointError,
    SplitMix64,
    pair_from_json,
    random_nonsymmetric_vpolytope,
    random_pair_suite,
    random_simplex,
    random_vpolytope,
    simplex_sandwich_pair,
    spiked_difference_pair,
    standard_centered_simplex,
    triangle_mix_gauge,
)
from gaugeradii.radii import asymmetry, circumradius
from gaugeradii.ratcore import vec, vsub


def test_standard_simplex_shape():
    s = standard_centered_simplex(2)
    assert sorted(s.vertices) == sorted([vec((1, 0)), vec((0, 1)), vec((-1, -1))])
    assert vertex_centroid(s) == vec((0, 0))
    with pytest.raises(ValueError):
        standard_centered_simplex(1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_simplex_is_centered_with_asymmetry_n(n):
    s = standard_centered_simplex(n)
    res = asymmetry(s)
    assert res.s == n and res.center == vec([0] * n)


def test_sandwich_bracketing():
    for n in (2, 3):
        for lam, mu in (("1", "1/2"), ("2", "2")):
            inner = simplex_sandwich_pair(n, lam, mu, "min").gauge
            outer = simplex_sandwich_pair(n, lam, mu, "max").gauge
            # inner gauge sits inside the outer one without translation
            assert all(contains_point(outer, v) for v in inner.vertices)
            assert circumradius(inner, outer).value <= 1


def test_sandwich_degenerate_parameters():
    pair = simplex_sandwich_pair(2, "1", "0", "min")
    assert same_vertex_set(pair.gauge, pair.simplex)
    pair = simplex_sandwich_pair(2, "3", "3", "max")
    assert is_centrally_symmetric(pair.gauge)[0]
    with pytest.raises(ValueError):
        simplex_sandwich_pair(2, "1", "2", "min")
    with pytest.raises(ValueError):
        simplex_sandwich_pair(2, "0", "0", "min")


def test_spiked_pair_properties():
    pair = spiked_difference_pair(3)
    s = pair.simplex
    ss = difference_body(s)
    spike = [v for v in pair.gauge.vertices if not contains_point(ss, v)]
    assert len(spike) == 1
    p = spike[0]
    # p is a vertex of (n+1)(S ∩ -S) chosen outside S - S
    assert not contains_point(ss, p)
    from gaugeradii.bodies import enumerate_vertices, intersect

    region = intersect(simplex_hrep(s), simplex_hrep(negate(s)))
    big = scale(enumerate_vertices(region), 4)
    assert contains_point(big, p)
    assert p == min(v for v in big.vertices if not contains_point(ss, v))


def test_spiked_pair_planar_raises():
    with pytest.raises(NoSpikePointError):
        spiked_difference_pair(2)


def test_spiked_pair_explicit_override():
    auto = spiked_difference_pair(3)
    spike = next(
        v for v in auto.gauge.vertices
        if not contains_point(difference_body(auto.simplex), v)
    )
    manual = spiked_difference_pair(3, spike=spike)
    assert same_vertex_set(manual.gauge, auto.gauge)
    with pytest.raises(ValueError):
        spiked_difference_pair(3, spike=(0, 0, 0))


def test_triangle_mix_endpoints():
    assert same_vertex_set(
        triangle_mix_gauge("0").gauge, negate(standard_centered_simplex(2))
    )
    mid = triangle_mix_gauge("1/2").gauge
    assert is_centrally_symmetric(mid)[0]
    assert same_vertex_set(
        mid, scale(difference_body(standard_centered_simplex(2)), "1/2")
    )
    with pytest.raises(ValueError):
        triangle_mix_gauge("3/2")


def test_splitmix64_known_answers():
    # reference sequence for seed 0 (widely published test vector)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_random_vpolytope_deterministic():
    a = random_vpolytope(2, 5, 6, seed=123)
    b = random_vpolytope(2, 5, 6, seed=123)
    assert a == b
    c = random_vpolytope(2, 5, 6, seed=124)
    assert a != c


@pytest.mark.parametrize("dim", [2, 3])
def test_random_vpolytope_full_dimensional(dim):
    rng = SplitMix64(9)
    for _ in range(5):
        body = random_vpolytope(dim, dim + 2, 5, 0, rng=rng)
        base = body.vertices[0]
        assert rank([vsub(v, base) for v in body.vertices[1:]]) == dim
        assert is_centrally_symmetric(difference_body(body))[0]


def seeded_draws():
    """The acceptance stream and the draws of ``explore`` (one simplex, then
    one gauge of dim + 2 points, per trial) for seeds 1 to 5 in 2-D and 3-D,
    then the same with coordinates in [-1, 1], where redraws are common."""
    draws = random_pair_suite(200, 20240817)
    for bound in (4, 1):
        for seed in range(1, 6):
            for dim in (2, 3):
                rng = SplitMix64(seed)
                for _ in range(40):
                    simplex = random_simplex(dim, bound, rng)
                    draws.append((simplex, random_vpolytope(dim, dim + 2, bound, 0, rng=rng)))
    return draws


def test_full_dimension_decisions_match_rank_route(monkeypatch):
    """Every accept or redraw decision, made on whether the drawn body has
    facets, is the one the rational rank test makes on its points, so the
    drawn bodies are the same."""
    draws = seeded_draws()
    redraws = []

    def by_rank(body):
        pts = body.vertices
        full = rank([vsub(p, pts[0]) for p in pts[1:]]) == body.dim
        redraws.append(not full)
        return full or None  # the generators only ask whether this is None

    monkeypatch.setattr(constructions, "integer_facets", by_rank)
    assert seeded_draws() == draws
    assert sum(redraws) >= 50


def test_random_simplex_is_canonical():
    # its n + 1 drawn points are its sorted vertices, and the same points in
    # any order make the same body, with the same facets
    rng = SplitMix64(8)
    for trial in range(40):
        dim = 2 + trial % 2
        simplex = random_simplex(dim, 1 + trial % 3, rng)
        assert len(simplex.vertices) == dim + 1
        assert simplex.vertices == tuple(sorted(simplex.vertices))
        shuffled = VPolytope(dim, simplex.vertices[1:] + simplex.vertices[:1])
        assert canonicalize(shuffled) == shuffled == simplex
        assert integer_facets(shuffled) == integer_facets(simplex)


def test_random_nonsymmetric_bodies():
    rng = SplitMix64(17)
    for _ in range(5):
        body = random_nonsymmetric_vpolytope(2, 4, 5, 0, rng=rng)
        assert not is_centrally_symmetric(body)[0]


def test_pair_json_round_trip():
    pair = simplex_sandwich_pair(2, "1", "1/2", "min")
    again = pair_from_json(pair.to_json())
    assert same_vertex_set(again.simplex, pair.simplex)
    assert same_vertex_set(again.gauge, pair.gauge)
    assert again.family == "sandwich-min"
    assert dict(again.parameters)["lam"] == "1"
