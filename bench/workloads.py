"""The benchmark's three workloads: item universes, seeded passes, digests.

Every workload draws its items from a fixed, finite universe of keyed items,
so the exact output of every item is recorded once (``expected.json``, by
``record.py``) and checked on every run whatever the seed.  The seed picks
one pass's items and their order.  An item returns a JSON-able result made
only of exact data (``rat_str`` values, chain relations, condition flags,
certificate contacts/normals/weights, CLI stdout bytes); its digest is the
sha256 of that result's canonical JSON.

Library calls go through module attributes (``theorems.eval_chain``), never
through names bound here, so the hooks in ``hooks.py`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

import hooks
from gaugeradii import bodies, certificates, cli, constructions, radii, theorems
from gaugeradii.ratcore import rat, rat_str

#: Seed of the acceptance property stream in tests/test_acceptance.py.
ACCEPTANCE_SEED = 20240817
ACCEPTANCE_PAIRS = 200

PAIR_CHAINS = (
    "gauge-asymmetry-chain",
    "body-asymmetry-chain",
    "extended-bohnenblust",
    "asymmetric-jung-bound",
    "extended-jung",
)
SYM_CHAINS = ("bohnenblust", "concentricity", "symmetric-gauge-chain")

EXPLORE_CHUNKS = 240
EXPLORE_TRIALS = 20

# (lambda, mu) grid of the sandwich family: lambda > mu > 0, small
# denominators, ten distinct ratios lambda/mu (the radius ratios depend only
# on that ratio, the LPs on both values).
SANDWICH_PARAMS = (
    ("1", "1/2"), ("3", "1"), ("5/3", "1/4"), ("2", "1/3"), ("3/2", "1"),
    ("4", "3"), ("5/4", "1/2"), ("7/3", "2/3"), ("5", "3"), ("4", "1"),
)


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def shuffled(items: list, rng) -> list:
    """Fisher-Yates shuffle driven by the library's splitmix64."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def cost_strata(keys: list, costs: dict, count: int) -> list:
    """Split keys, ranked by recorded cost, into ``count`` runs of about equal
    total cost: dear items get narrow strata and cheap ones wide strata, so
    one pick per stratum gives a pass whose cost hardly depends on the seed."""
    ranked = sorted(keys, key=lambda k: (costs[k], k))
    total = sum(costs[k] for k in ranked)
    strata = [[] for _ in range(count)]
    spent = 0.0
    for key in ranked:
        strata[min(count - 1, int(count * spent / total))].append(key)
        spent += costs[key]
    return [s for s in strata if s]


class Workload:
    """A universe of keyed items and the seeded choice of one pass's items.

    ``select`` draws, for each ``(key prefix, count)`` group of ``PASS``, one
    key from each of ``count`` cost strata of that group (cost is the item's
    recorded latency at the reference speed), then shuffles the picks.
    ``build(keys)`` makes the inputs (set-up time); ``run(key)`` runs one
    item and returns ``(result, ok)``, where ``ok`` is the workload's own
    exact check, independent of the recorded digest.
    """

    name = ""
    PASS: tuple = ()
    # Empty the library's caches before each item, as if each item were its
    # own CLI call; an item's cost then does not depend on what ran before.
    COLD_ITEMS = True

    def universe(self) -> list:
        raise NotImplementedError

    def select(self, seed: int, costs: dict) -> list:
        rng = constructions.SplitMix64(seed)
        picks = []
        for prefix, count in self.PASS:
            group = [k for k in self.universe() if k.startswith(prefix)]
            # Antithetic picks: one seeded rank u per group, taken at u in
            # even strata and at 1 - u in odd ones, so a dear pick in one
            # stratum is offset by a cheap pick in the next.
            u = rng.below(1 << 32) / (1 << 32)
            for index, stratum in enumerate(cost_strata(group, costs, count)):
                rank = u if index % 2 == 0 else 1 - u
                picks.append(stratum[min(len(stratum) - 1, int(rank * len(stratum)))])
        return shuffled(picks, rng)

    def build(self, keys: list) -> None:
        pass

    def run(self, key: str):
        raise NotImplementedError

    def latencies(self, start: float, end: float) -> list:
        """Per-item latencies (seconds) of the last ``run`` call."""
        return [end - start]


# ---------------------------------------------------------------------------
# property-pairs


def _cert_json(cert) -> dict:
    return {
        "contacts": [[rat_str(x) for x in p] for p in cert.contacts],
        "normals": [[rat_str(x) for x in a] for a in cert.normals],
        "weights": [rat_str(w) for w in cert.weights],
    }


def property_checks(body, gauge):
    """The ten checks of the acceptance property suite on one pair, then a
    containment certificate, extracted and independently validated."""
    chains = [theorems.eval_chain(c, body, gauge) for c in PAIR_CHAINS]
    bounds = theorems.radius_bound_checks(body, gauge)
    ratio = theorems.ratio_bound_checks(body, gauge)
    sym = bodies.difference_body(gauge)
    sym_chains = [theorems.eval_chain(c, body, sym) for c in SYM_CHAINS]
    cert = certificates.extract(body, gauge)
    circ = radii.circumradius(body, gauge)
    scaled = certificates.scaled_gauge_body(
        bodies.canonicalize(gauge), circ.value, circ.translation
    )
    valid = certificates.validate(bodies.canonicalize(body), scaled, cert)
    result = {
        "chains": [c.to_json() for c in chains + sym_chains],
        "radius_bounds": {
            "checks": dict(bounds.checks),
            "gauge_followup": bounds.gauge_equality_followup,
            "body_followup": bounds.body_equality_followup,
        },
        "ratio_bounds": {
            "lower": ratio.lower_holds,
            "completeness": ratio.completeness,
            "upper": ratio.upper_holds,
            "equality_concentric": ratio.equality_concentric,
        },
        "certificate": _cert_json(cert),
        "valid": valid,
    }
    ok = (
        all(c.holds for c in chains + sym_chains)
        and bounds.all_hold
        and ratio.lower_holds
        and valid
        and 2 <= cert.count <= body.dim + 1
    )
    return result, ok


class PropertyPairs(Workload):
    """Pairs of the 200-pair acceptance stream (dimensions 2 and 3 alternate);
    the key names the dimension and the stream index."""

    name = "property-pairs"
    PASS = (("2d-", 30), ("3d-", 4))

    def universe(self) -> list:
        return [f"{2 + i % 2}d-pair-{i}" for i in range(ACCEPTANCE_PAIRS)]

    def build(self, keys: list) -> None:
        self.pairs = constructions.random_pair_suite(
            ACCEPTANCE_PAIRS, ACCEPTANCE_SEED, dims=(2, 3), max_vertices=5
        )

    def run(self, key: str):
        body, gauge = self.pairs[int(key.rsplit("-", 1)[1])]
        return property_checks(body, gauge)


# ---------------------------------------------------------------------------
# explore-2d


class Explore2D(Workload):
    """``gaugeradii explore --dim 2`` in-process, one call per chunk of
    ``EXPLORE_TRIALS`` trials with the chunk's own seed; the item is one
    trial, and the chunk's stdout bytes are the checked result."""

    name = "explore-2d"
    PASS = (("chunk-", 15),)
    # One long explore run: its caches grow across chunks, as they do in a
    # single ``explore --trials 600`` call.
    COLD_ITEMS = False

    def universe(self) -> list:
        return [f"chunk-{i}" for i in range(1, EXPLORE_CHUNKS + 1)]

    def build(self, keys: list) -> None:
        # Each trial calls random_simplex once: its calls mark trial starts.
        self.marks = []
        original = constructions.random_simplex

        def marked(*args, **kwargs):
            self.marks.append(time.perf_counter())
            return original(*args, **kwargs)

        hooks.rebind(original, marked)

    def run(self, key: str):
        self.marks.clear()
        argv = ["explore", "--dim", "2", "--trials", str(EXPLORE_TRIALS),
                "--seed", key.split("-")[1]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        report = json.loads(text)
        # The plane has no counterexample (seven-way equivalence).
        ok = (
            code == 0
            and report["results"]["trials"] == EXPLORE_TRIALS
            and report["results"]["hits"] == []
            and len(self.marks) == EXPLORE_TRIALS
        )
        return {"exit": code, "stdout": text}, ok

    def latencies(self, start: float, end: float) -> list:
        bounds = [start] + self.marks[1:] + [end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# complete-simplices


class CompleteSimplices(Workload):
    """Complete simplex/gauge pairs with closed-form radii: the sandwich
    family lam*S + mu*(-S) in C in (lam+n*mu)S ∩ (n*lam+mu)(-S), both
    variants, for the body S ("plus") and -S ("minus").  Keys read
    ``<n>d-<variant>-<sign>-<lam>-<mu>``."""

    name = "complete-simplices"
    PASS = (("2d-", 16), ("3d-", 2))

    def universe(self) -> list:
        return [
            f"{n}d-{variant}-{sign}-{lam}-{mu}"
            for n in (2, 3)
            for variant in ("min", "max")
            for sign in ("plus", "minus")
            for lam, mu in SANDWICH_PARAMS
        ]

    def build(self, keys: list) -> None:
        self.instances = {}
        for key in keys:
            n, variant, sign, lam, mu = key.split("-")
            n, lam, mu = int(n[0]), rat(lam), rat(mu)
            pair = constructions.simplex_sandwich_pair(n, lam, mu, variant)
            simplex = pair.simplex if sign == "plus" else bodies.negate(pair.simplex)
            self.instances[key] = (simplex, pair.gauge, n, lam, mu, sign)

    def run(self, key: str):
        simplex, gauge, n, lam, mu, sign = self.instances[key]
        report = theorems.complete_simplex_ratio_laws(simplex, gauge)
        mutual = theorems.are_mutually_concentric(simplex, gauge)
        mirrored = theorems.is_mirrored_concentric(simplex, gauge)
        mirrored_reversed = theorems.is_mirrored_concentric(gauge, simplex)
        result = {
            "applicable": report.applicable,
            "bounds_hold": report.bounds_hold,
            "cross_law_holds": report.cross_law_holds,
            "ratio": None if report.ratio is None else rat_str(report.ratio),
            "ratio_reflected": None if report.ratio_reflected is None else rat_str(report.ratio_reflected),
            "mutually_concentric": mutual,
            "mirrored_concentric": mirrored,
            "mirrored_concentric_reversed": mirrored_reversed,
        }
        # Closed forms: s(C) = (n lam + mu)/(lam + n mu), R/r(S, C) = n/s(C)
        # and R/r(-S, C) = n s(C).
        s_gauge = (n * lam + mu) / (lam + n * mu)
        ratio, reflected = n / s_gauge, n * s_gauge
        if sign == "minus":
            ratio, reflected = reflected, ratio
        ok = (
            report.applicable
            and report.bounds_hold
            and report.cross_law_holds
            and report.ratio == ratio
            and report.ratio_reflected == reflected
        )
        return result, ok


WORKLOADS = {w.name: w for w in (PropertyPairs, Explore2D, CompleteSimplices)}
