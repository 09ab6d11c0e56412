"""Command-line front end.

Subcommands: ``compute`` (radii of a body/gauge pair), ``verify`` (run one
verification suite on explicit bodies, a constructed family instance, or a
seeded random sample), ``construct`` (write a family instance to JSON),
``certify`` (emit a validated optimal-containment certificate) and
``explore`` (search for a counterexample to the open extremal-simplex
question; expected to find none).

Reports are deterministic JSON on stdout: numbers are exact rational strings,
keys are sorted and there are no timestamps, so identical inputs and seed
give byte-identical output.  ``--approx`` appends clearly labeled decimal
renderings for human convenience; they are never used in any comparison.

Exit codes: 0 computed/verified, 1 a verified property failed (report carries
the counterexample), 2 invalid input (``InputError`` and the library's
named ``ValueError`` subclasses), 3 internal failure (a ``RuntimeError``
such as a certificate that fails validation, a ``TypeError``, or a plain
``ValueError``, which no input check raises; the input loaders have
already turned the last two into invalid input where the input was at
fault; reported on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import certificates, constructions, radii, theorems
from .bodies import (
    VPolytope,
    body_from_json,
    body_to_json,
    is_centrally_symmetric,
    negate,
    translate,
)
from .constructions import SplitMix64, pair_from_json
from .ratcore import rat, rat_str

SUITES = (
    "chains",
    "radius-bounds",
    "breadth-bounds",
    "ratio-bounds",
    "simplex-conditions",
    "triangle-conditions",
    "sandwich",
    "ratio-laws",
)

FAMILY_CHOICES = ("sandwich", "spiked", "triangle-mix", "simplex")


class InputError(ValueError):
    pass


def _approx(q) -> str:
    return f"{float(q.numerator) / float(q.denominator):.9g} (approx, non-normative)"


def _maybe_approx(report: dict, values: dict, want: bool) -> None:
    if want:
        report["approx"] = {k: _approx(v) for k, v in values.items()}


def _load_body(path: str) -> tuple:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        body = body_from_json(json.loads(raw))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read body from {path}: {exc}") from exc
    return _vertex_body(body, path), hashlib.sha256(raw).hexdigest()


def _vertex_body(body, path: str) -> VPolytope:
    """The body read from ``path``, refused unless it lists vertices."""
    if not isinstance(body, VPolytope):
        raise InputError(f"{path}: the CLI operates on vertex representations")
    return body


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _report(command: str, arguments: dict, results, status: str, inputs: dict | None = None) -> dict:
    report = {"command": command, "arguments": arguments, "results": results, "status": status}
    if inputs:
        report["inputs"] = inputs
    return report


# ---------------------------------------------------------------------------
# compute


def _cmd_compute(args) -> int:
    body, body_digest = _load_body(args.body)
    gauge, gauge_digest = _load_body(args.gauge)
    which = [w.strip() for w in args.which.split(",")] if args.which else [
        "R", "r", "D", "s", "center", "jung"
    ]
    results: dict = {}
    approx_pool: dict = {}
    for item in which:
        if item == "R":
            res = radii.circumradius(body, gauge)
            if res is None:
                results["R"] = "infinite"
            else:
                results["R"] = rat_str(res.value)
                results["R_translation"] = [rat_str(x) for x in res.translation]
                approx_pool["R"] = res.value
        elif item == "r":
            res = radii.inradius(body, gauge)
            results["r"] = rat_str(res.value)
            results["r_translation"] = [rat_str(x) for x in res.translation]
            approx_pool["r"] = res.value
        elif item == "D":
            res = radii.diameter(body, gauge)
            if res is None:
                results["D"] = "infinite"
            else:
                results["D"] = rat_str(res.value)
                if res.attaining:
                    results["D_pair"] = [[rat_str(x) for x in p] for p in res.attaining]
                approx_pool["D"] = res.value
        elif item in ("s", "center"):
            asym = radii.asymmetry(body)
            results["s"] = rat_str(asym.s)
            results["center"] = [rat_str(x) for x in asym.center]
            approx_pool["s"] = asym.s
        elif item == "jung":
            j = radii.jung_ratio(body, gauge)
            results["jung"] = "infinite" if j is None else rat_str(j)
            if j is not None:
                approx_pool["jung"] = j
        else:
            raise InputError(f"unknown functional {item!r}; choose from R,r,D,s,center,jung")
    report = _report(
        "compute",
        {"body": args.body, "gauge": args.gauge, "which": ",".join(which)},
        results,
        "ok",
        inputs={"body_sha256": body_digest, "gauge_sha256": gauge_digest},
    )
    _maybe_approx(report, approx_pool, args.approx)
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _family_instance(args):
    if args.family == "sandwich":
        pair = constructions.simplex_sandwich_pair(
            args.dim or 2, args.lam or "1", args.mu or "0", args.variant
        )
    elif args.family == "spiked":
        pair = constructions.spiked_difference_pair(args.dim or 3)
    elif args.family == "triangle-mix":
        pair = constructions.triangle_mix_gauge(args.lam or "0")
    else:  # "simplex"; argparse choices admit no other family
        simplex = constructions.standard_centered_simplex(args.dim or 2)
        pair = constructions.ExamplePair(
            simplex=simplex, gauge=simplex, family="simplex",
            parameters=(("dim", str(args.dim or 2)),),
        )
    return pair


def _verify_instances(args):
    """Yield (label, body, gauge) instances for the requested suite."""
    if bool(args.body) != bool(args.gauge):
        raise InputError("verify needs both --body and --gauge, or neither")
    if args.body:
        body, _ = _load_body(args.body)
        gauge, _ = _load_body(args.gauge)
        yield "files", body, gauge
        return
    if args.pair:
        try:
            with open(args.pair) as fh:
                pair = pair_from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InputError(f"cannot read pair from {args.pair}: {exc}") from exc
        simplex = _vertex_body(pair.simplex, args.pair)
        gauge = _vertex_body(pair.gauge, args.pair)
        yield "pair-file", negate(simplex) if args.reflect else simplex, gauge
        return
    if args.family:
        pair = _family_instance(args)
        simplex = negate(pair.simplex) if args.reflect else pair.simplex
        yield pair.family, simplex, pair.gauge
        return
    if args.trials:
        needs_simplex = args.suite in (
            "simplex-conditions", "triangle-conditions", "ratio-laws"
        )
        dims = (2,) if args.suite == "triangle-conditions" else (2, 3)
        if needs_simplex:
            rng = SplitMix64(args.seed)
            for trial in range(args.trials):
                dim = dims[trial % len(dims)]
                simplex = constructions.random_simplex(dim, 6, rng)
                gauge = constructions.random_vpolytope(dim, dim + 2, 6, 0, rng=rng)
                yield f"trial-{trial}", simplex, gauge
        else:
            for trial, (body, gauge) in enumerate(
                constructions.random_pair_suite(args.trials, args.seed, dims=dims)
            ):
                yield f"trial-{trial}", body, gauge
        return
    raise InputError("verify needs --body/--gauge, --pair, --family, or --trials")


def _run_suite(suite: str, body: VPolytope, gauge: VPolytope):
    """Returns (passed, details-json)."""
    if suite == "chains":
        symmetric = is_centrally_symmetric(gauge)[0]
        details = {}
        passed = True
        for chain in theorems.CHAINS:
            if chain == "complete-chain":
                continue  # meaningful only under a completeness hypothesis
            if not symmetric and chain in theorems.SYMMETRIC_ONLY_CHAINS:
                continue
            report = theorems.eval_chain(chain, body, gauge)
            details[chain] = report.to_json()
            passed = passed and report.holds
        return passed, details
    if suite == "radius-bounds":
        report = theorems.radius_bound_checks(body, gauge)
        details = {"checks": dict(report.checks)}
        if report.gauge_equality_followup is not None:
            details["gauge_equality_followup"] = report.gauge_equality_followup
        if report.body_equality_followup is not None:
            details["body_equality_followup"] = report.body_equality_followup
        followups_ok = report.gauge_equality_followup in (None, True) and (
            report.body_equality_followup in (None, True)
        )
        return report.all_hold and followups_ok, details
    if suite == "breadth-bounds":
        center = radii.asymmetry(gauge).center
        centered = translate(gauge, tuple(-x for x in center))
        directions = [v for v in centered.vertices if any(v)]
        ok = all(
            theorems.breadth_ratio_bounds(centered, shrink, directions)
            for shrink in ("0", "1/3", "1/2", "1")
        )
        return ok, {"directions_tested": len(directions)}
    if suite == "ratio-bounds":
        report = theorems.ratio_bound_checks(body, gauge)
        ok = report.lower_holds and report.upper_holds in (None, True) and (
            report.equality_concentric in (None, True)
        )
        return ok, {
            "lower_holds": report.lower_holds,
            "completeness": report.completeness,
            "upper_holds": report.upper_holds,
        }
    if suite == "simplex-conditions":
        vector = theorems.simplex_equality_conditions(body, gauge)
        return vector.consistent, vector.to_json()
    if suite == "triangle-conditions":
        vector = theorems.triangle_equality_conditions(body, gauge)
        return vector.consistent, vector.to_json()
    if suite == "sandwich":
        chain = theorems.eval_chain("extended-jung", body, gauge)
        vector = theorems.sandwich_equivalence(body, gauge)
        details = {"chain": chain.to_json(), **vector.to_json()}
        return chain.holds and vector.consistent, details
    # "ratio-laws", the last of SUITES; argparse choices admit no other suite
    report = theorems.complete_simplex_ratio_laws(body, gauge)
    if not report.applicable:
        return True, {"applicable": False}
    return bool(report.bounds_hold and report.cross_law_holds), {
        "applicable": True,
        "bounds_hold": report.bounds_hold,
        "cross_law_holds": report.cross_law_holds,
        "ratio": rat_str(report.ratio),
        "ratio_reflected": rat_str(report.ratio_reflected),
    }


def _cmd_verify(args) -> int:
    checked = 0
    for label, body, gauge in _verify_instances(args):
        radii.clear_caches()
        passed, details = _run_suite(args.suite, body, gauge)
        checked += 1
        if not passed:
            report = _report(
                "verify",
                {"suite": args.suite, "trials": args.trials, "seed": args.seed},
                {
                    "checked": checked,
                    "counterexample": {
                        "label": label,
                        "body": body_to_json(body),
                        "gauge": body_to_json(gauge),
                        "details": details,
                    },
                },
                "violation",
            )
            _emit(report, args.out)
            return 1
    report = _report(
        "verify",
        {"suite": args.suite, "trials": args.trials, "seed": args.seed},
        {"checked": checked, "violations": 0},
        "ok",
    )
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# construct / certify / explore


def _cmd_construct(args) -> int:
    pair = _family_instance(args)
    if not args.out:
        raise InputError("construct needs --out")
    with open(args.out, "w") as fh:
        json.dump(pair.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    report = _report(
        "construct",
        {"family": args.family, "dim": args.dim, "lam": args.lam, "mu": args.mu},
        {"written": args.out, "family": pair.family, "parameters": dict(pair.parameters)},
        "ok",
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_certify(args) -> int:
    body, body_digest = _load_body(args.body)
    gauge, gauge_digest = _load_body(args.gauge)
    circ = radii.circumradius(body, gauge)
    if circ is None:
        raise InputError("circumradius is infinite; nothing to certify")
    cert = certificates.extract(body, gauge)  # validated, or ExtractionError
    results = {
        "circumradius": rat_str(circ.value),
        "translation": [rat_str(x) for x in circ.translation],
        "certificate": certificates.certificate_to_json(cert),
        "valid": True,
    }
    report = _report(
        "certify",
        {"body": args.body, "gauge": args.gauge},
        results,
        "ok",
        inputs={"body_sha256": body_digest, "gauge_sha256": gauge_digest},
    )
    _maybe_approx(report, {"circumradius": circ.value}, args.approx)
    _emit(report, args.out)
    return 0


def _cmd_explore(args) -> int:
    """Search for a complete, fully concentric simplex/gauge pair with the
    radius ratio strictly inside (n/s(C), n s(C)).

    No such pair is known; in the plane the seven-way equivalence rules them
    out entirely.  Any hit is reported verbatim for inspection.  Trials share
    no bodies, so each starts with empty memo caches, which keeps the run's
    memory flat in the trial count.
    """
    rng = SplitMix64(args.seed)
    dim = args.dim
    stats = {"trials": args.trials, "complete": 0, "concentric": 0, "hits": []}
    for _trial in range(args.trials):
        radii.clear_caches()
        simplex = constructions.random_simplex(dim, 4, rng)
        gauge = constructions.random_vpolytope(dim, dim + 2, 4, 0, rng=rng)
        if not theorems.simplex_complete(simplex, gauge)[0]:
            continue
        stats["complete"] += 1
        if not (
            theorems.are_mutually_concentric(simplex, gauge)
            and theorems.is_mirrored_concentric(simplex, gauge)
            and theorems.is_mirrored_concentric(gauge, simplex)
        ):
            continue
        stats["concentric"] += 1
        ratio = theorems.translative_factor(simplex, gauge) / radii.inradius(simplex, gauge).value
        s_gauge = radii.asymmetry(gauge).s
        n = rat(dim)
        if n < ratio * s_gauge and ratio < n * s_gauge:
            stats["hits"].append(
                {
                    "simplex": body_to_json(simplex),
                    "gauge": body_to_json(gauge),
                    "ratio": rat_str(ratio),
                    "gauge_asymmetry": rat_str(s_gauge),
                }
            )
    report = _report(
        "explore",
        {"trials": args.trials, "seed": args.seed, "dim": dim},
        stats,
        "ok",
    )
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low: int):
    """An argparse ``type`` that accepts integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeradii",
        description="Exact radii of rational polytopes with respect to polytopal gauges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, files: bool, approx: bool):
        """--out, and --body/--gauge and --approx where the command reads them."""
        if files:
            p.add_argument("--body", help="body JSON file (vertex representation)")
            p.add_argument("--gauge", help="gauge JSON file (vertex representation)")
        p.add_argument("--out", help="also write the report to this file")
        if approx:
            p.add_argument("--approx", action="store_true",
                           help="append decimal renderings (labeled non-normative)")

    p = sub.add_parser("compute", help="radii/asymmetry of a body with respect to a gauge")
    add_common(p, files=True, approx=True)
    p.add_argument("--which", help="comma list from R,r,D,s,center,jung (default: all)")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p, files=True, approx=False)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--pair", help="ExamplePair JSON file (as written by construct)")
    p.add_argument("--family", choices=FAMILY_CHOICES)
    p.add_argument("--lambda", dest="lam", help="family parameter lambda (rational)")
    p.add_argument("--mu", help="family parameter mu (rational)")
    p.add_argument("--variant", choices=("min", "max"), default="min")
    p.add_argument("--dim", type=_int_at_least(2))
    p.add_argument("--reflect", action="store_true", help="use -S instead of S")
    p.add_argument("--trials", type=_int_at_least(1))
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="write a family instance to JSON")
    add_common(p, files=False, approx=False)
    p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--lambda", dest="lam", help="family parameter lambda (rational)")
    p.add_argument("--mu", help="family parameter mu (rational)")
    p.add_argument("--variant", choices=("min", "max"), default="min")
    p.add_argument("--dim", type=_int_at_least(2))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", help="emit a validated containment certificate")
    add_common(p, files=True, approx=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("explore", help="search the open extremal-simplex question")
    add_common(p, files=False, approx=False)
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dim", type=_int_at_least(2), default=2)
    p.set_defaults(func=_cmd_explore)
    return parser


def _fail(command: str, status: str, exc: Exception, code: int) -> int:
    print(
        json.dumps(
            {"command": command, "status": status, "error": str(exc)},
            indent=2,
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InputError and the library's named input errors
        if type(exc) is ValueError:  # a bare one is raised by no input check
            return _fail(args.command, "internal-error", exc, 3)
        return _fail(args.command, "error", exc, 2)
    except (RuntimeError, TypeError) as exc:
        return _fail(args.command, "internal-error", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
