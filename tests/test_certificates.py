"""Optimal-containment certificates: extraction, independent validation,
and the Caratheodory contact bound."""

import pytest

from conftest import V
from gaugeradii import certificates, lp
from gaugeradii.bodies import canonicalize, difference_body, simplex_hrep, support
from gaugeradii.certificates import (
    ContainmentCertificate,
    certificate_from_json,
    certificate_to_json,
    extract,
    scaled_gauge_body,
    validate,
)
from gaugeradii.constructions import SplitMix64, random_vpolytope
from gaugeradii.radii import circumradius
from gaugeradii.ratcore import is_zero_vec, rat, vdot, vec


def extract_and_validate(body, gauge):
    cert = extract(body, gauge)
    res = circumradius(body, gauge)
    scaled = scaled_gauge_body(canonicalize(gauge), res.value, res.translation)
    assert validate(canonicalize(body), scaled, cert)
    return cert


def test_self_containment_certificate(square):
    cert = extract_and_validate(square, square)
    assert 2 <= cert.count <= 3


def test_square_in_triangle_certificate(square, triangle):
    cert = extract_and_validate(square, triangle)
    assert cert.count == 3
    # normals are positive multiples of the triangle's three facet normals
    facet_normals = [h.normal for h in simplex_hrep(triangle).halfspaces]

    def matches(a):
        for f in facet_normals:
            if a[0] * f[1] == a[1] * f[0] and (a[0] * f[0] > 0 or a[1] * f[1] > 0):
                return True
        return False

    assert all(matches(a) for a in cert.normals)
    assert sum(cert.weights) == 1


def test_simplex_in_difference_body_certificate(triangle):
    hexagon = difference_body(triangle)
    assert circumradius(triangle, hexagon).value == rat("2/3")
    cert = extract_and_validate(triangle, hexagon)
    assert cert.count <= 3


def test_handcrafted_antipodal_certificate(square):
    cert = ContainmentCertificate(
        contacts=(vec((1, 1)), vec((-1, -1))),
        normals=(vec((1, 0)), vec((-1, 0))),
        weights=(rat("1/2"), rat("1/2")),
    )
    assert validate(square, square, cert)


def test_validate_rejects_one_sided_normals(square):
    cert = ContainmentCertificate(
        contacts=(vec((1, 1)), vec((1, -1))),
        normals=(vec((1, 0)), vec((1, 0))),
        weights=(rat("1/2"), rat("1/2")),
    )
    assert not validate(square, square, cert)


def test_validate_rejects_bad_weights(square):
    cert = ContainmentCertificate(
        contacts=(vec((1, 1)), vec((-1, -1))),
        normals=(vec((1, 0)), vec((-1, 0))),
        weights=(rat("1/2"), rat("1/3")),
    )
    assert not validate(square, square, cert)


def test_validate_rejects_interior_contact(square, triangle):
    res = circumradius(square, triangle)
    scaled = scaled_gauge_body(triangle, res.value, res.translation)
    cert = ContainmentCertificate(
        contacts=(vec((0, 0)), vec((1, 1))),
        normals=(vec((1, 1)), vec((-1, -1))),
        weights=(rat("1/2"), rat("1/2")),
    )
    assert not validate(square, scaled, cert)


def test_extract_rejects_infinite(square):
    with pytest.raises(ValueError):
        extract(square, V([(0, 0), (1, 0)]))


def test_extract_rejects_singleton_body(triangle):
    with pytest.raises(ValueError):
        extract(V([(2, 3)]), triangle)


def test_random_pairs_certified():
    rng = SplitMix64(404)
    for trial in range(30):
        dim = (2, 3)[trial % 2]
        body = random_vpolytope(dim, dim + 2, 5, 0, rng=rng)
        gauge = random_vpolytope(dim, dim + 2, 5, 0, rng=rng)
        cert = extract_and_validate(body, gauge)
        assert 2 <= cert.count <= dim + 1
        balance = [0] * dim
        for w, a in zip(cert.weights, cert.normals):
            balance = [b + w * x for b, x in zip(balance, a)]
        assert all(x == 0 for x in balance)
        # every dual contact, pruned or not, touches the scaled gauge with
        # its normal supporting there
        res = circumradius(body, gauge)
        scaled = scaled_gauge_body(canonicalize(gauge), res.value, res.translation)
        for v, a in res.attaining:
            assert v in canonicalize(body).vertices
            assert not is_zero_vec(a)
            assert vdot(a, v) == support(scaled, a)[0]


def test_extract_solves_only_the_weight_lp(square, triangle, monkeypatch):
    """With the circumradius cached, extraction solves one LP (the weight LP)
    besides the membership LPs of its final ``validate``."""
    circumradius(square, triangle)
    solve, validate_ = lp.solve, certificates.validate
    counted = []
    validating = []

    def counting_solve(program):
        if not validating:
            counted.append(program)
        return solve(program)

    def flagged_validate(*args):
        validating.append(True)
        try:
            return validate_(*args)
        finally:
            validating.pop()

    monkeypatch.setattr(lp, "solve", counting_solve)
    monkeypatch.setattr(certificates, "validate", flagged_validate)
    cert = extract(square, triangle)
    assert cert.count == 3
    assert len(counted) == 1


def test_certificate_json_round_trip(square, triangle):
    cert = extract(square, triangle)
    data = certificate_to_json(cert)
    assert set(data) == {"contacts", "normals", "weights"}
    assert certificate_from_json(data) == cert
    # certificates written with the former re-solve flag still load
    assert certificate_from_json({**data, "fallback_used": False}) == cert
