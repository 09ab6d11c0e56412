"""Optimal-containment certificates: extraction from LP duals, plus a fully
independent validator.

A containment K inside a translated dilate of C is *optimal* when no smaller
dilate admits any translate.  Optimality is witnessed combinatorially: at
most n+1 contact points of K on the boundary of the scaled gauge, an outer
normal of the gauge at each, and positive convex weights under which the
normals sum to zero.

Extraction takes the contacts that ``radii.circumradius`` reads off the dual
of its vertex-form LP — the equality block of each body vertex carries its
candidate normal, and the free translation variable forces the weighted
normals to cancel — and prunes them with one small weight LP.  There is no second solve
and no repair step: a certificate that fails validation is an error.  The
validator shares *nothing* with extraction: it rechecks every condition from
the vertex data alone and is the ground truth whenever the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp
from .bodies import VPolytope, canonicalize, contains_point, scale, support, translate
from .radii import circumradius
from .ratcore import ZERO, is_zero_vec, rat, rat_str, vec, vdot


class ExtractionError(RuntimeError):
    """The dual yielded no certificate that survives validation."""


@dataclass(frozen=True)
class ContainmentCertificate:
    """Contact points, outer normals and convex weights per the optimal
    containment condition."""

    contacts: tuple
    normals: tuple
    weights: tuple

    @property
    def count(self) -> int:
        return len(self.contacts)


def validate(body: VPolytope, scaled_gauge: VPolytope, cert: ContainmentCertificate) -> bool:
    """Exact check of all certificate conditions against the vertex data.

    Requires every vertex of the body to lie in the scaled gauge, 2..n+1
    contacts, each a point of the body on the boundary of the scaled gauge
    with its normal supporting there, and positive weights summing to one
    under which the normals vanish.  The containment bounds the circumradius
    from above and the balanced contacts bound it from below, so together
    they prove the containment optimal; a contact lies in the scaled gauge
    because it lies in the body.  Needs only support evaluations and
    membership tests (``contains_point``: sign tests per edge in the plane,
    LPs otherwise) — nothing from extraction.
    """
    n = body.dim
    k = cert.count
    if not (2 <= k <= n + 1):
        return False
    if len(cert.normals) != k or len(cert.weights) != k:
        return False
    if any(w <= 0 for w in cert.weights) or sum(cert.weights) != 1:
        return False
    balance = [ZERO] * n
    for w, a in zip(cert.weights, cert.normals):
        if is_zero_vec(a):
            return False
        for i in range(n):
            balance[i] += w * a[i]
    if not all(x == 0 for x in balance):
        return False
    if not all(contains_point(scaled_gauge, v) for v in body.vertices):
        return False
    for p, a in zip(cert.contacts, cert.normals):
        if not contains_point(body, p):
            return False
        if vdot(a, p) != support(scaled_gauge, a)[0]:
            return False
    return True


def scaled_gauge_body(gauge: VPolytope, value, translation) -> VPolytope:
    """The body ``translation + value * gauge`` a certificate refers to."""
    return translate(scale(gauge, value), translation)


def extract(body: VPolytope, gauge: VPolytope) -> ContainmentCertificate:
    """Certificate for the optimal containment achieved at R(body, gauge).

    The contacts and their normals are those of ``circumradius(...).attaining``
    (the cached vertex-form dual), so that LP is solved at most once.  One
    small feasibility LP then selects a basic convex combination of the
    normals summing to zero, which prunes the contact count to at most n+1
    (Caratheodory, done by the LP returning a basic solution).  A certificate
    that fails ``validate`` raises ``ExtractionError``; there is no repair.
    """
    body, gauge = canonicalize(body), canonicalize(gauge)
    res = circumradius(body, gauge)
    if res is None:
        raise ValueError("no dilate of the gauge covers the body (infinite circumradius)")
    if res.value == 0:
        raise ValueError("degenerate containment: the body is a single point")
    candidates = res.attaining
    builder = lp.ProgramBuilder()
    n = body.dim
    ws = builder.add_hull_membership([a for _, a in candidates], [{}] * n, (ZERO,) * n)
    sol = lp.solve(builder.build())
    if sol.status != lp.OPTIMAL:
        raise ExtractionError("the contact normals admit no balancing weights")
    kept = [(p, a, sol.primal[w]) for (p, a), w in zip(candidates, ws) if sol.primal[w] > 0]
    cert = ContainmentCertificate(*zip(*kept))
    scaled = scaled_gauge_body(gauge, res.value, res.translation)
    if not validate(body, scaled, cert):
        raise ExtractionError("the extracted certificate failed validation")
    return cert


# ---------------------------------------------------------------------------
# JSON form


def certificate_to_json(cert: ContainmentCertificate) -> dict:
    return {
        "contacts": [[rat_str(x) for x in p] for p in cert.contacts],
        "normals": [[rat_str(x) for x in a] for a in cert.normals],
        "weights": [rat_str(w) for w in cert.weights],
    }


def certificate_from_json(data: dict) -> ContainmentCertificate:
    return ContainmentCertificate(
        contacts=tuple(vec(p) for p in data["contacts"]),
        normals=tuple(vec(a) for a in data["normals"]),
        weights=tuple(rat(w) for w in data["weights"]),
    )
