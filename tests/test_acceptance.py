"""Acceptance gate.

Every check in this module is an exact rational comparison; there are no
tolerances to pin.  Each test is one gate of the release checklist and
prints a PASS line (run ``pytest -s`` to see them live).  The randomized
sweeps reuse one seeded splitmix64 stream, so the entire suite is
reproducible bit-for-bit.
"""

import pytest

from conftest import diameter_by_pairs, inradius_by_lp
from gaugeradii.bodies import (
    canonicalize,
    difference_body,
    negate,
    scale,
    translate,
)
from gaugeradii.certificates import extract, scaled_gauge_body, validate
from gaugeradii.constructions import (
    SplitMix64,
    random_nonsymmetric_vpolytope,
    random_pair_suite,
    simplex_sandwich_pair,
    spiked_difference_pair,
    standard_centered_simplex,
    triangle_mix_gauge,
)
from gaugeradii.radii import (
    asymmetry,
    circumradius,
    diameter,
    inradius,
    is_constant_width,
    sym_gauge_norm,
)
from gaugeradii.ratcore import rat, vsub
from gaugeradii.theorems import (
    are_mutually_concentric,
    eval_chain,
    is_equilateral,
    radius_bound_checks,
    ratio_bound_checks,
    simplex_complete,
    simplex_equality_conditions,
    triangle_equality_conditions,
    triangle_gauge_decomposition,
)

SUITE_SEED = 20240817
PARAM_GRID = (("1", "1/2"), ("3", "1"), ("2", "2"), ("1", "0"))


@pytest.fixture(scope="module")
def random_pairs():
    """The 200-pair seeded stream shared by the randomized criteria."""
    return random_pair_suite(200, SUITE_SEED, dims=(2, 3), max_vertices=5)


@pytest.fixture(scope="module")
def nonsymmetric_gauges():
    """50 seeded non-symmetric gauges in dimensions 2 and 3."""
    rng = SplitMix64(SUITE_SEED + 1)
    gauges = []
    for trial in range(50):
        dim = (2, 3)[trial % 2]
        gauges.append(random_nonsymmetric_vpolytope(dim, dim + 2, 5, 0, rng=rng))
    return gauges


def sandwich_instances():
    for n in (2, 3):
        for lam, mu in PARAM_GRID:
            for variant in ("min", "max"):
                yield n, rat(lam), rat(mu), simplex_sandwich_pair(n, lam, mu, variant)


def test_sandwich_family_closed_forms():
    """All six closed-form radii reproduce exactly for both family variants."""
    for n, lam, mu, pair in sandwich_instances():
        S, C = pair.simplex, pair.gauge
        nq = rat(n)
        assert circumradius(S, C).value == 1 / (lam + mu / nq)
        assert circumradius(negate(S), C).value == 1 / (lam / nq + mu)
        assert inradius(S, C).value == 1 / (lam + nq * mu)
        assert inradius(negate(S), C).value == 1 / (nq * lam + mu)
        assert diameter(S, C).value == 2 / (lam + mu)
        assert diameter(negate(S), C).value == 2 / (lam + mu)
        assert asymmetry(C).s == (nq * lam + mu) / (lam + nq * mu)
    print("PASS: sandwich-family closed forms exact (16 instances, 6 formulas each)")


def test_simplex_condition_split():
    """The five-way equivalence: all-true for -S, all-false for S when the
    gauge is strictly asymmetric, all-true for both at the symmetric point;
    the condition vector is internally consistent on every instance."""
    for n in (2, 3):
        for lam, mu in (("1", "1/2"), ("3", "1")):
            for variant in ("min", "max"):
                pair = simplex_sandwich_pair(n, lam, mu, variant)
                good = simplex_equality_conditions(negate(pair.simplex), pair.gauge)
                bad = simplex_equality_conditions(pair.simplex, pair.gauge)
                assert good.all_true and good.consistent, (n, lam, mu, variant)
                assert not any(bad.flags) and bad.consistent, (n, lam, mu, variant)
        for variant in ("min", "max"):
            pair = simplex_sandwich_pair(n, "2", "2", variant)
            for body in (pair.simplex, negate(pair.simplex)):
                vector = simplex_equality_conditions(body, pair.gauge)
                assert vector.all_true and vector.consistent
    print("PASS: simplex equality conditions split exactly as predicted")


def test_spiked_pair_complete_but_not_concentric():
    """The spiked difference-body gauge keeps both simplices complete while
    breaking their concentricity with the gauge."""
    pair = spiked_difference_pair(3)
    S, C = pair.simplex, pair.gauge
    assert simplex_complete(S, C)[0]
    assert simplex_complete(negate(S), C)[0]
    assert not are_mutually_concentric(C, S)
    assert not are_mutually_concentric(C, negate(S))
    print("PASS: spiked pair is complete for both simplices, concentric for neither")


def test_difference_body_chain_pattern(nonsymmetric_gauges):
    """On (C-C, C) the complete chain always lands on (<, <, =, =)."""
    for gauge in nonsymmetric_gauges:
        report = eval_chain("complete-chain", difference_body(gauge), gauge)
        assert report.relations == ("<", "<", "=", "="), report.to_json()
    print("PASS: difference-body chain pattern (<, <, =, =) on 50 gauges")


def test_property_suites_random_pairs(random_pairs):
    """200 seeded pairs: both main chains, the Jung-type bounds, the five
    elementary radius bounds, the ratio lower bound, the always-valid
    sandwich chain, and (against the symmetrized gauge) the symmetric-gauge
    chains.  Zero violations allowed."""
    violations = []
    for index, (body, gauge) in enumerate(random_pairs):
        checks = {
            "gauge-asymmetry-chain": eval_chain("gauge-asymmetry-chain", body, gauge).holds,
            "body-asymmetry-chain": eval_chain("body-asymmetry-chain", body, gauge).holds,
            "extended-bohnenblust": eval_chain("extended-bohnenblust", body, gauge).holds,
            "asymmetric-jung-bound": eval_chain("asymmetric-jung-bound", body, gauge).holds,
            "extended-jung": eval_chain("extended-jung", body, gauge).holds,
            "radius-bounds": radius_bound_checks(body, gauge).all_hold,
            "ratio-lower-bound": ratio_bound_checks(body, gauge).lower_holds,
        }
        sym = difference_body(gauge)
        checks["bohnenblust"] = eval_chain("bohnenblust", body, sym).holds
        checks["concentricity"] = eval_chain("concentricity", body, sym).holds
        checks["symmetric-gauge-chain"] = eval_chain("symmetric-gauge-chain", body, sym).holds
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            violations.append((index, failed))
    assert not violations, violations
    print("PASS: property suites clean on 200 seeded pairs (10 checks each)")


def test_asymmetry_properties(random_pairs):
    """s equals the dimension exactly on simplices, stays within [1, n] on
    random bodies, and is reflection invariant."""
    for n in (2, 3, 4, 5):
        assert asymmetry(standard_centered_simplex(n)).s == n
    for body, gauge in random_pairs:
        for k in (body, gauge):
            s = asymmetry(k).s
            assert 1 <= s <= k.dim
            assert asymmetry(negate(k)).s == s
    print("PASS: asymmetry range, simplex values and reflection invariance")


def test_triangle_conditions_and_decomposition():
    """Seven-way planar equivalence across the mixing grid, plus exact
    recovery of the mixing parameter and translation."""
    for lam, expect_true in (("0", True), ("1/4", True), ("1/2", True),
                             ("3/5", False), ("1", False)):
        pair = triangle_mix_gauge(lam)
        vector = triangle_equality_conditions(pair.simplex, pair.gauge)
        assert vector.consistent, (lam, vector.entries)
        assert vector.all_true == expect_true, (lam, vector.entries)
        assert any(vector.flags) == expect_true
    triangle = standard_centered_simplex(2)
    rng = SplitMix64(SUITE_SEED + 2)
    from gaugeradii.bodies import minkowski_sum

    for _ in range(20):
        lam = rat(rng.below(101)) / 100
        shift = rng.point(2, 9)
        gauge = translate(
            minkowski_sum(scale(triangle, lam), scale(negate(triangle), 1 - lam)),
            shift,
        )
        recovered = triangle_gauge_decomposition(triangle, gauge)
        assert recovered == (lam, shift)
    print("PASS: triangle conditions grid and 20 exact decomposition round-trips")


def test_certificates_random_pairs(random_pairs):
    """Extraction always yields a validating certificate with at most n+1
    contacts and exactly balanced normals."""
    for body, gauge in random_pairs:
        cert = extract(body, gauge)
        res = circumradius(body, gauge)
        scaled = scaled_gauge_body(canonicalize(gauge), res.value, res.translation)
        assert validate(canonicalize(body), scaled, cert)
        assert 2 <= cert.count <= body.dim + 1
        balance = [0] * body.dim
        for w, a in zip(cert.weights, cert.normals):
            balance = [b + w * x for b, x in zip(balance, a)]
        assert all(x == 0 for x in balance)
    print("PASS: 200 certificates extracted and independently validated")


def test_constant_width_and_equilateral(nonsymmetric_gauges):
    """Difference bodies always have constant width with respect to their
    gauge; the sandwich-family simplices are equilateral."""
    for gauge in nonsymmetric_gauges:
        assert is_constant_width(difference_body(gauge), gauge)
    for _n, _lam, _mu, pair in sandwich_instances():
        assert is_equilateral(pair.simplex, pair.gauge)
        assert is_equilateral(negate(pair.simplex), pair.gauge)
    print("PASS: constant width on 50 difference bodies; equilateral sandwich simplices")


def test_cross_oracle_identities(random_pairs):
    """The three dual-route identities hold on every suite pair: the
    symmetrized norm doubles the segment circumradius, the diameter halves
    under gauge symmetrization, and the inradius LP is the reciprocal of the
    circumradius with the roles swapped."""
    from gaugeradii.bodies import VPolytope

    for body, gauge in random_pairs:
        diam = diameter(body, gauge)
        assert diam.value == 2 * diameter(body, difference_body(gauge)).value
        assert inradius_by_lp(body, gauge)[0] * circumradius(gauge, body).value == 1
        if diam.attaining is not None:
            z = vsub(diam.attaining[1], diam.attaining[0])
            segment = VPolytope(body.dim, (diam.attaining[0], diam.attaining[1]))
            assert sym_gauge_norm(z, gauge) == 2 * circumradius(segment, gauge).value
    print("PASS: cross-oracle identities exact on 200 pairs")


def test_int_diameter_matches_pair_oracle(random_pairs):
    """D taken on integer images has the value and the attaining pair of the
    per-pair norm loop on every suite pair, both ways round, against the
    gauge and against its difference body."""
    for body, gauge in random_pairs:
        for K, C in ((body, gauge), (gauge, body)):
            for G in (C, difference_body(C)):
                res = diameter(K, G)
                assert (res.value, res.attaining) == diameter_by_pairs(K, G)
    print("PASS: integer-image diameter equals the pair loop on 800 cases")


def test_global_constants_replaced_by_instance_bounds(random_pairs):
    """The gauge-dependent Jung constant (a maximum over all bodies) and its
    Euclidean-ball value are irrational or non-enumerable at desk scale; the
    suite substitutes the per-instance bound, which must hold on every pair."""
    for body, gauge in random_pairs[:20]:
        report = eval_chain("asymmetric-jung-bound", body, gauge)
        assert report.holds
    print("PASS: global-constant criteria replaced by per-instance bound checks")
