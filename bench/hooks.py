"""Counters and spans around the library's public functions, from outside.

Nothing here edits the library: a hook rebinds a function in its defining
module and in every ``gaugeradii`` module that imported it by name (for
example ``theorems`` binds ``inradius`` and ``contains_point`` at import), so
no call path escapes.  A function that no longer exists is skipped and its
metrics are reported as absent, never as zero.

Two modes:

* counting (always on): LP solves and their cells, pivots and pivot cells.
  One integer update per call; these deterministic counts must agree
  between traced and untraced runs of the same items.
* tracing: a span per call of every layer function.  A span's self time is
  its duration minus the durations of the spans it directly encloses, so
  the self times of all spans under an item's root span add up to the item's
  wall time exactly.
"""

from __future__ import annotations

import functools
import sys
import time

perf = time.perf_counter

#: Per-layer span names -> (defining module, function name).
LAYER_FUNCTIONS = {
    "bodies.canonicalize": ("gaugeradii.bodies", "canonicalize"),
    "bodies.contains_point": ("gaugeradii.bodies", "contains_point"),
    "radii.circumradius": ("gaugeradii.radii", "circumradius"),
    "radii.inradius": ("gaugeradii.radii", "inradius"),
    "radii.diameter": ("gaugeradii.radii", "diameter"),
    "radii.asymmetry": ("gaugeradii.radii", "asymmetry"),
    "radii.sym_gauge_norm": ("gaugeradii.radii", "sym_gauge_norm"),
    "certificates.extract": ("gaugeradii.certificates", "extract"),
    "certificates.validate": ("gaugeradii.certificates", "validate"),
    "theorems.eval_chain": ("gaugeradii.theorems", "eval_chain"),
    "theorems.radius_bound_checks": ("gaugeradii.theorems", "radius_bound_checks"),
    "theorems.ratio_bound_checks": ("gaugeradii.theorems", "ratio_bound_checks"),
    "theorems.simplex_complete": ("gaugeradii.theorems", "simplex_complete"),
    "theorems.gauge_value": ("gaugeradii.theorems", "gauge_value"),
    "theorems.simplex_equality_conditions": ("gaugeradii.theorems", "simplex_equality_conditions"),
    "theorems.complete_simplex_ratio_laws": ("gaugeradii.theorems", "complete_simplex_ratio_laws"),
    "theorems.is_minkowski_concentric": ("gaugeradii.theorems", "is_minkowski_concentric"),
    "theorems.is_mirrored_concentric": ("gaugeradii.theorems", "is_mirrored_concentric"),
    "theorems.are_mutually_concentric": ("gaugeradii.theorems", "are_mutually_concentric"),
    "cli.main": ("gaugeradii.cli", "main"),
}

#: Span names with their own LP-solve attribution.
LP_ATTRIBUTED = ("radii.", "certificates.extract")

ROOT = "bench"  # the item's root span: the benchmark's own code
BOOKKEEPING = "trace"  # tracing work done inside an item (outcome bit sizes)


def library_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gaugeradii" or name.startswith("gaugeradii."))
    ]


def rebind(original, replacement) -> int:
    """Replace every module-level binding of ``original`` in the library."""
    count = 0
    for mod in library_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def find(module: str, name: str):
    mod = sys.modules.get(module)
    return None if mod is None else getattr(mod, name, None)


def discover_caches() -> list:
    """Every memo cache in the library, found by its ``cache_info`` method."""
    found = {}
    for mod in library_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return list(found.values())


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def outcome_bits(out) -> int:
    best = 0
    for part in (out.primal, out.dual, out.farkas):
        for q in part or ():
            best = max(best, _bits(q))
    if out.value is not None:
        best = max(best, _bits(out.value))
    return best


class Probe:
    """Installs the hooks and accumulates their counts and spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.counts = {}  # deterministic counts, only for hooks that exist
        self.spans = {}  # span name -> [calls, self seconds, lp solves]
        self.stack = []  # open spans: [name, start, child seconds, lp solves]
        self.lp_rows_max = 0
        self.lp_cols_max = 0
        self.lp_infeasible = 0
        self.lp_bits_max = 0
        self.caches = []
        self.cache_peak = 0  # most entries held at any item boundary
        self.cache_hits = 0  # hits and misses of caches cleared so far
        self.cache_misses = 0

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, perf(), 0.0, 0])

    def exit(self) -> None:
        name, start, child, solves = self.stack.pop()
        duration = perf() - start
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration - child
        entry[2] += solves
        if self.stack:
            self.stack[-1][2] += duration

    def _span(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.caches = discover_caches()
        for cache in self.caches:  # hit ratios count the items, not set-up
            cache.cache_clear()
        pivot = find("gaugeradii.kernel", "pivot")
        if pivot is not None:
            self.counts["kernel.pivots"] = 0
            self.counts["kernel.cells"] = 0
            rebind(pivot, self._pivot_hook(pivot))
        solve = find("gaugeradii.lp", "solve")
        if solve is not None:
            self.counts["lp.solves"] = 0
            self.counts["lp.cells"] = 0
            rebind(solve, self._solve_hook(solve))
        if self.trace:
            for name, (module, attr) in LAYER_FUNCTIONS.items():
                fn = find(module, attr)
                if fn is not None:
                    self.spans[name] = [0, 0.0, 0]
                    rebind(fn, self._span(name, fn))

    def _pivot_hook(self, fn):
        counts = self.counts
        traced = self._span("kernel", fn) if self.trace else fn
        if self.trace:
            self.spans["kernel"] = [0, 0.0, 0]

        def pivot(rows, pr, pc):
            counts["kernel.pivots"] += 1
            counts["kernel.cells"] += len(rows) * len(rows[pr])
            return traced(rows, pr, pc)

        return pivot

    def _solve_hook(self, fn):
        counts = self.counts
        if not self.trace:

            def solve(program):
                counts["lp.solves"] += 1
                counts["lp.cells"] += program.num_rows * program.num_vars
                return fn(program)

            return solve

        self.spans["lp"] = [0, 0.0, 0]
        self.spans[BOOKKEEPING] = [0, 0.0, 0]
        enter, exit_, stack = self.enter, self.exit, self.stack
        infeasible = find("gaugeradii.lp", "INFEASIBLE")

        def solve(program):
            counts["lp.solves"] += 1
            counts["lp.cells"] += program.num_rows * program.num_vars
            if stack:
                stack[-1][3] += 1
            enter("lp")
            try:
                out = fn(program)
            finally:
                exit_()
            enter(BOOKKEEPING)
            self.lp_rows_max = max(self.lp_rows_max, program.num_rows)
            self.lp_cols_max = max(self.lp_cols_max, program.num_vars)
            self.lp_infeasible += out.status == infeasible
            self.lp_bits_max = max(self.lp_bits_max, outcome_bits(out))
            exit_()
            return out

        return solve

    # -- results -------------------------------------------------------------

    def item_boundary(self, clear: bool) -> None:
        """Sample the caches between items; with ``clear``, empty them so
        that the next item starts cold."""
        infos = [c.cache_info() for c in self.caches]
        self.cache_peak = max(self.cache_peak, sum(i.currsize for i in infos))
        if clear:
            self.cache_hits += sum(i.hits for i in infos)
            self.cache_misses += sum(i.misses for i in infos)
            for c in self.caches:
                c.cache_clear()

    def cache_totals(self) -> dict:
        if not self.caches:
            return {}
        self.item_boundary(clear=True)
        totals = {"cache.entries": self.cache_peak}
        if self.cache_hits + self.cache_misses:
            totals["cache.hit_ratio"] = self.cache_hits / (self.cache_hits + self.cache_misses)
        return totals

    def layer_metrics(self) -> dict:
        """Per-layer figures of a traced run, keyed by metric name."""
        out = dict(self.counts)
        for name, (calls, self_s, solves) in self.spans.items():
            if name in ("kernel", "lp", ROOT, BOOKKEEPING):
                out[f"{name}.self_s"] = self_s
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name.startswith(LP_ATTRIBUTED):
                out[f"{name}.lp_solves"] = solves
        if "lp.solves" in self.counts and "lp" in self.spans:
            solves = self.counts["lp.solves"]
            out["lp.rows_max"] = self.lp_rows_max
            out["lp.cols_max"] = self.lp_cols_max
            out["lp.outcome_bits_max"] = self.lp_bits_max
            if solves:
                out["lp.infeasible_share"] = self.lp_infeasible / solves
        out.update(self.cache_totals())
        return out
