"""Exact generators: the canonical centered simplex, the two parametrized
gauge families with known closed-form radii, and seeded random polytopes for
the property suites.

A regular simplex has irrational coordinates, but every quantity this library
computes is invariant under a simultaneous regular affine map of body and
gauge.  The rational model

    S_n = conv{e_1, ..., e_n, -(e_1 + ... + e_n)}

is an affine image of the regular simplex with centroid (= unique Minkowski
center) at the origin, so all simplex constructions are built on it.  This
substitution is the load-bearing modeling decision of the whole package:
without it no simplex instance would be exactly representable.

Randomness is a splitmix64 stream with fixed published constants, not the
stdlib PRNG, so that suites are reproducible bit-for-bit from a seed across
platforms and implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bodies import (
    VPolytope,
    body_from_json,
    body_to_json,
    contains_point,
    difference_body,
    enumerate_vertices,
    integer_facets,
    intersect,
    is_centrally_symmetric,
    minkowski_sum,
    negate,
    scale,
    simplex_hrep,
)
from .ratcore import ONE, ZERO, Rational, rat, rat_str


class InvalidParameterError(ValueError):
    """A family parameter is outside the range the construction is defined on."""


class NoSpikePointError(ValueError):
    """Every vertex of (n+1)(S ∩ -S) already lies in S - S (happens for n < 3)."""


class ExhaustedRedrawsError(RuntimeError):
    """Random generation kept producing degenerate bodies."""


@dataclass(frozen=True)
class ExamplePair:
    """A simplex/gauge pair from one of the generator families."""

    simplex: VPolytope
    gauge: VPolytope
    family: str
    parameters: tuple  # of (name, value-as-string) pairs

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "parameters": dict(self.parameters),
            "simplex": body_to_json(self.simplex),
            "gauge": body_to_json(self.gauge),
        }


def pair_from_json(data: dict) -> ExamplePair:
    return ExamplePair(
        simplex=body_from_json(data["simplex"]),
        gauge=body_from_json(data["gauge"]),
        family=data.get("family", "random"),
        parameters=tuple((k, str(v)) for k, v in data.get("parameters", {}).items()),
    )


def standard_centered_simplex(n: int) -> VPolytope:
    """conv{e_1, .., e_n, -(1,..,1)}: Minkowski centered at 0, asymmetry n."""
    if n < 2:
        raise ValueError("need dimension at least 2")
    verts = []
    for i in range(n):
        e = [ZERO] * n
        e[i] = ONE
        verts.append(tuple(e))
    verts.append((-ONE,) * n)
    return VPolytope(n, tuple(verts))


def simplex_sandwich_pair(n: int, lam, mu, variant: str = "min") -> ExamplePair:
    """The family lam*S + mu*(-S)  in  C  in  (lam+n*mu)S ∩ (n*lam+mu)(-S)
    (lam >= mu >= 0, lam > 0), taking C as the inner body (variant "min") or
    the outer intersection (variant "max").

    The mixed points lam*p_i - mu*p_j sit on the boundary of both brackets,
    which is what pins all the radii of (±S, C) to their closed forms
    independent of the variant.
    """
    lam, mu = rat(lam), rat(mu)
    if not (lam >= mu >= 0 and lam > 0):
        raise InvalidParameterError("parameters must satisfy lam >= mu >= 0 with lam > 0")
    if variant not in ("min", "max"):
        raise InvalidParameterError("variant must be 'min' or 'max'")
    S = standard_centered_simplex(n)
    if variant == "min":
        gauge = minkowski_sum(scale(S, lam), scale(negate(S), mu))
    else:
        outer = intersect(
            simplex_hrep(scale(S, lam + n * mu)),
            simplex_hrep(scale(negate(S), n * lam + mu)),
        )
        gauge = enumerate_vertices(outer)
    return ExamplePair(
        simplex=S,
        gauge=gauge,
        family=f"sandwich-{variant}",
        parameters=(("dim", str(n)), ("lam", rat_str(lam)), ("mu", rat_str(mu))),
    )


def spiked_difference_pair(n: int, spike=None) -> ExamplePair:
    """Gauge conv({p} ∪ (S-S)) for a vertex p of (n+1)(S ∩ -S) outside S-S.

    Such a p exists only from dimension 3 on; in the plane the enumeration
    comes up empty and NoSpikePointError is raised.  p is chosen
    lexicographically first for reproducibility (any valid choice works);
    pass ``spike`` to override with an explicit point.
    """
    S = standard_centered_simplex(n)
    SS = difference_body(S)
    if spike is not None:
        p = tuple(rat(x) for x in spike)
        inter = enumerate_vertices(intersect(simplex_hrep(S), simplex_hrep(negate(S))))
        if not contains_point(scale(inter, n + 1), p) or contains_point(SS, p):
            raise ValueError("explicit spike must lie in (n+1)(S ∩ -S) but not in S - S")
    else:
        inter = enumerate_vertices(intersect(simplex_hrep(S), simplex_hrep(negate(S))))
        candidates = [
            v for v in scale(inter, n + 1).vertices if not contains_point(SS, v)
        ]
        if not candidates:
            raise NoSpikePointError(
                f"(n+1)(S ∩ -S) has no vertex outside S - S in dimension {n}"
            )
        p = min(candidates)
    gauge = VPolytope(n, SS.vertices + (p,))
    return ExamplePair(
        simplex=S,
        gauge=gauge,
        family="spiked-difference",
        parameters=(("dim", str(n)), ("spike", ",".join(rat_str(x) for x in p))),
    )


def triangle_mix_gauge(lam) -> ExamplePair:
    """Planar gauge lam*S + (1-lam)*(-S) on the centered triangle, lam in [0,1]."""
    lam = rat(lam)
    if not (ZERO <= lam <= ONE):
        raise InvalidParameterError("mixing parameter must lie in [0, 1]")
    S = standard_centered_simplex(2)
    gauge = minkowski_sum(scale(S, lam), scale(negate(S), ONE - lam))
    return ExamplePair(
        simplex=S,
        gauge=gauge,
        family="triangle-mix",
        parameters=(("dim", "2"), ("lam", rat_str(lam))),
    )


# ---------------------------------------------------------------------------
# seeded randomness


MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: increment 0x9E3779B97F4A7C15, finalizer constants
    0xBF58476D1CE4E5B9 / 0x94D049BB133111EB, xor-shifts 30/27/31."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def rational(self, bound: int, den_bound: int = 3) -> Rational:
        """Numerator in [-bound, bound], denominator in [1, den_bound]."""
        num = self.below(2 * bound + 1) - bound
        den = 1 + self.below(den_bound)
        return Rational(num, den)

    def point(self, dim: int, bound: int, den_bound: int = 3) -> tuple:
        return tuple(self.rational(bound, den_bound) for _ in range(dim))


def random_vpolytope(
    dim: int,
    vertex_count: int,
    coordinate_bound: int,
    seed: int,
    *,
    rng: SplitMix64 | None = None,
) -> VPolytope:
    """Deterministic full-dimensional random body: the body of
    ``vertex_count`` draws with denominators up to 3, redrawn until it has
    facets, that is until the affine hull is all of R^dim."""
    if dim < 2 or vertex_count < dim + 1:
        raise ValueError("need dim >= 2 and at least dim+1 points")
    rng = rng if rng is not None else SplitMix64(seed)
    for _attempt in range(500):
        body = VPolytope(dim, tuple(rng.point(dim, coordinate_bound) for _ in range(vertex_count)))
        if integer_facets(body) is not None:
            return body
    raise ExhaustedRedrawsError("could not draw a full-dimensional body")


def random_nonsymmetric_vpolytope(
    dim: int,
    vertex_count: int,
    coordinate_bound: int,
    seed: int,
    *,
    rng: SplitMix64 | None = None,
) -> VPolytope:
    rng = rng if rng is not None else SplitMix64(seed)
    for _attempt in range(500):
        body = random_vpolytope(dim, vertex_count, coordinate_bound, 0, rng=rng)
        if not is_centrally_symmetric(body)[0]:
            return body
    raise ExhaustedRedrawsError("could not draw a non-symmetric body")


def random_pair_suite(trials: int, seed: int, dims=(2, 3), max_vertices: int = 5):
    """Deterministic stream of (body, gauge) pairs for the property suites.

    Dimensions alternate through ``dims``; vertex counts vary in
    [dim+1, max_vertices].  Everything is derived from one splitmix64 stream,
    so (trials, seed) pins the whole suite.
    """
    rng = SplitMix64(seed)
    pairs = []
    for trial in range(trials):
        dim = dims[trial % len(dims)]
        span = max(0, max_vertices - dim)
        count_k = dim + 1 + (rng.below(span + 1) if span else 0)
        count_c = dim + 1 + (rng.below(span + 1) if span else 0)
        body = random_vpolytope(dim, count_k, 6, 0, rng=rng)
        gauge = random_vpolytope(dim, count_c, 6, 0, rng=rng)
        pairs.append((body, gauge))
    return pairs


def random_simplex(dim: int, coordinate_bound: int, rng: SplitMix64) -> VPolytope:
    """A nondegenerate random simplex (dim+1 affinely independent points)."""
    for _attempt in range(500):
        body = VPolytope(dim, tuple(rng.point(dim, coordinate_bound) for _ in range(dim + 1)))
        if integer_facets(body) is not None:
            return body
    raise ExhaustedRedrawsError("could not draw a nondegenerate simplex")
