"""In-process run of one workload, traced or not.

Usage: python perfbench/tracer.py --workload W --seed N --traced 0|1 --out PATH

Runs the workload's jobs as calls into their entry points inside this one
process and writes a JSON object to PATH: the in-process time, each job's
gate problem and the digest of its result, and with --traced 1 the self
time and call count of every traced function plus the layer counters.

Tracing wraps each traced public function in every bringcover module
namespace that bound it (``closure`` is imported by name into dessins,
verify and monodromy, so patching perms alone would miss those calls).
Per-element primitives such as compose, cycle_type or the tracking step
are not wrapped.  Spans nest in two independent levels, so that each level
reports self times on its own:

* ``verify``: the ten Context builds and the checks; a check's self time
  leaves out the builds it triggered, and the two together account for
  the run_checks time.
* ``module``: the public functions of cells, perms, dessins, cover,
  tracking, quintic and monodromy; ``identify_closure``'s self time leaves
  out the ``closure`` calls it makes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

# Context cache key -> build name
BUILDS = {
    "complex5": "complex5", "surface": "surface", "cover": "cover",
    "d": "dessin_d", "icosa": "icosahedron", "i4": "i4", "union": "union",
    "j": "dessin_j", "triple": "triple", "sheet": "sheet",
}

CHECKS = (
    "cells.counts_n4", "cells.counts_n5", "cells.counts_n6",
    "cells.refinement_laws", "cells.top_cell_formula",
    "cover.base_surface", "cover.double_counts", "cover.mirror_convention",
    "cover.orientation_cover",
    "dessins.cover_passport", "dessins.cover_regular",
    "dessins.i4_automorphisms", "dessins.i4_census", "dessins.i4_self_dual",
    "dessins.icosahedron", "dessins.involutions",
    "dessins.main_isomorphism", "dessins.main_isomorphism_mirror_flag",
    "dessins.passport_laws", "dessins.union_automorphisms",
    "dessins.union_census",
    "monodromy.cycle_types", "monodromy.doubling_invariance",
    "monodromy.group", "monodromy.identities",
    "monodromy.printed_expression_weight", "monodromy.quality",
    "monodromy.sheet_isomorphism",
    "perms.regular_representation_law",
)

# module -> traced public functions
SPANS = {
    "cells": ("enumerate_cells", "canonical_class", "refinements",
              "build_complex5"),
    "perms": ("closure", "identify_closure", "regular_representation"),
    "dessins": ("automorphism_group", "isomorphic", "acts_freely"),
    "cover": ("surface_from_cells", "orientation_cover", "cover_to_dessin"),
    "tracking": ("track_loop",),
    "quintic": ("verify_identities",),
    "monodromy": ("monodromy_triple", "sheet_constellation"),
}

LOOP_NAMES = {0: "p0", 1: "p1", "inf": "pinf"}

CLI_JOBS = ("cells", "cover", "dessins", "monodromy",
            *(f"export_{t}" for t in workloads.EXPORT_TARGETS))


# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cells.enumerate_cells_ms", "ms"), ("cells.canonical_class_ms", "ms"),
    ("cells.canonical_class_calls", "count"), ("cells.refinements_ms", "ms"),
    ("cells.build_complex5_ms", "ms"), ("cells.orbit_keys", "count"),
    ("perms.identify_closure_ms", "ms"),
    ("perms.identify_closure_calls", "count"), ("perms.closure_ms", "ms"),
    ("perms.closure_calls", "count"), ("perms.closure_elements", "count"),
    ("perms.regular_representation_ms", "ms"),
    ("dessins.automorphism_group_ms", "ms"),
    ("dessins.automorphism_group_calls", "count"),
    ("dessins.isomorphic_ms", "ms"), ("dessins.isomorphic_calls", "count"),
    ("dessins.acts_freely_ms", "ms"),
    ("cover.surface_from_cells_ms", "ms"),
    ("cover.orientation_cover_ms", "ms"), ("cover.cover_to_dessin_ms", "ms"),
    *((f"tracking.track_loop.{p}_ms", "ms") for p in LOOP_NAMES.values()),
    ("tracking.waypoints", "count"), ("tracking.steps_used", "count"),
    ("tracking.step_yield", "ratio"),
    ("quintic.verify_identities_ms", "ms"),
    ("monodromy.monodromy_triple_ms", "ms"),
    ("monodromy.sheet_constellation_ms", "ms"),
    *((f"verify.build.{b}_ms", "ms") for b in BUILDS.values()),
    *((f"verify.check.{c}_ms", "ms") for c in CHECKS),
    *((f"cli.{j}_s", "s") for j in CLI_JOBS),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead_ms", "ms"), ("trace.outside_verify_ms", "ms"),
]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stacks = {"verify": [], "module": []}

    def call(self, level, name, fn, *args, **kwargs):
        """Call fn inside a span; its self time excludes nested spans of
        the same level."""
        stack = self._stacks[level]
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.self_s[name] += elapsed - frame[0]
            self.calls[name] += 1

    def metrics(self) -> dict:
        out = {f"{n}_ms": 1000 * s for n, s in self.self_s.items()}
        out.update({f"{n}_calls": c for n, c in self.calls.items()})
        out.update(self.counts)
        return out


def _rebind(original, replacement) -> None:
    """Point every bringcover binding of original at replacement."""
    for name, module in list(sys.modules.items()):
        if not (name == "bringcover" or name.startswith("bringcover.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _span_wrapper(tracer, name, fn, on_result):
    """fn inside a module-level span; name may be a function of fn's
    arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(*args, **kwargs) if callable(name) else name
        result = tracer.call("module", span, fn, *args, **kwargs)
        on_result(result)
        return result
    return wrapper


def instrument(tracer: Tracer) -> None:
    # bringcover is importable only in the child, not in run.py, which
    # imports this module for PER_LAYER
    from bringcover import cli, tracking, verify  # noqa: F401 (binds names)

    counts = tracer.counts

    def count_orbits(result):
        classes = result if isinstance(result, list) else [result]
        counts["cells.orbit_keys"] += sum(c.orbit_size for c in classes)

    def count_closure(grp):
        counts["perms.closure_elements"] += grp.order

    def count_steps(res):
        counts["tracking.steps_used"] += res.steps_used

    on_result = {
        "cells.enumerate_cells": count_orbits,
        "cells.canonical_class": count_orbits,
        "perms.closure": count_closure,
        "tracking.track_loop": count_steps,
    }
    names = {"tracking.track_loop": lambda spec, cfg:
             f"tracking.track_loop.{LOOP_NAMES[spec.puncture]}"}
    for mod_name, fn_names in SPANS.items():
        module = importlib.import_module(f"bringcover.{mod_name}")
        for fn_name in fn_names:
            name = f"{mod_name}.{fn_name}"
            fn = getattr(module, fn_name)
            _rebind(fn, _span_wrapper(tracer, names.get(name, name), fn,
                                      on_result.get(name, lambda _: None)))

    contour = tracking.contour

    def counting_contour(spec):
        ts = contour(spec)
        counts["tracking.waypoints"] += len(ts) - 1
        return ts

    _rebind(contour, counting_contour)

    get = verify.Context._get

    def traced_get(ctx, key, build):
        # build runs only on a cache miss, so only then is there a span
        if key in BUILDS:
            build = functools.partial(
                tracer.call, "verify", f"verify.build.{BUILDS[key]}", build)
        return get(ctx, key, build)

    verify.Context._get = traced_get
    verify.CHECKS = [
        dataclasses.replace(c, fn=functools.partial(
            tracer.call, "verify", f"verify.check.{c.name}", c.fn))
        for c in verify.CHECKS]


def run(workload: str, seed: int, traced: bool, tmp: Path,
        quick: bool) -> dict:
    tracer = Tracer()
    if traced:
        instrument(tracer)
    elapsed = 0.0
    problems, results = {}, {}
    for job in workloads.jobs(workload, tmp, seed, quick):
        entry = importlib.import_module(job.entry).main
        start = time.perf_counter()
        code = entry(list(job.args))
        elapsed += time.perf_counter() - start
        problem, result = job.gate()
        if code != 0:
            problem = f"exit code {code}" + (f"; {problem}" if problem else "")
        problems[job.label] = problem
        results[job.label] = workloads.digest(result)
    return {"elapsed_ms": 1000 * elapsed, "problems": problems,
            "results": results, "metrics": tracer.metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    tmp = out.parent / f"{out.stem}-files"
    tmp.mkdir()
    payload = run(args.workload, args.seed, bool(args.traced), tmp,
                  args.quick)
    out.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
