"""Cold-process benchmark of bringcover, with a traced per-layer run.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--quick]

Workloads (see BENCHMARK.json for why each one is there):

    verify_all      python -m bringcover.cli verify-all --json
    monodromy_fine  verify-all --only monodromy --steps 4096
    census_n6       cells.enumerate_cells(6, k) for k = 0..3, then
                    cells.refinements of the 60 top cells
    cli_reports     cells, cover, dessins and monodromy with --json, and
                    export --target D, I4, union, J and sheet

--trace 0 first times ``python -c "import bringcover"`` several times
(import_s), then repeats the workload's iteration, one cold child process
at a time, up to the iteration boundary nearest to --seconds (at least
once).  Each child is accounted for alone through wait4.  Per iteration,
wall_s is spawn to exit summed over its processes, cpu_s their user + sys
time, and peak_rss_mb the largest child max-RSS; the run reports their
medians over iterations.  A fixed reference task timed before every
import and every job (reference_s, see end_to_end) gives the gated
metrics: wall_per_ref and cpu_per_ref, the median over iterations of an
iteration's wall and cpu time divided by the reference times bracketing
it, and setup_s, the median import time so divided and rescaled to a
machine on which the reference task takes NOMINAL_REFERENCE_S.

--trace 1 runs one cold iteration, then the same jobs in-process twice in
fresh child processes, untraced and traced (see tracer.py), and reports the
per-layer metrics.  A layer the workload never calls reads 0.  Besides the
traced self times and counts: cli.<job>_s is the cold wall time of each
cli_reports process; cli.overhead_ms is the cold iteration's wall time
minus the untraced in-process time of the same jobs; trace.overhead_ms is
traced minus untraced in-process time; trace.outside_verify_ms is the
traced in-process time that no Context build or check span covers.

Every child's output passes a correctness gate (workloads.py); a wrong
answer counts as failed, never as a fast run.  Children run with
PYTHONPATH=src, PYTHONHASHSEED=0 and BRINGCOVER_PURE=1, and write into a
scratch directory under the checkout that is removed afterwards.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment
and a table of the metrics, fail_ratio included.

--quick shrinks every workload (256 steps per circle, census at n=5) for
the self-test.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads
from workloads import ROOT, SRC

SETUP_SAMPLES = 9
# setup_s is import_s scaled to a machine on which reference_s() takes this
# long, about its median on the 2-vCPU machine of perfbench/baseline.json
NOMINAL_REFERENCE_S = 0.25
# the gated metrics; the raw times are printed beside them
END_TO_END = [("wall_per_ref", "ratio"), ("cpu_per_ref", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]
RAW = [("wall_s", "s"), ("cpu_s", "s"), ("import_s", "s"),
       ("reference_s", "s")]


class Gates:
    """Correctness gates attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, label: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{label}: {problem}")

    def record_exit(self, child: workloads.Child) -> None:
        self.record(child.label, f"exit code {child.exit_code}"
                    if child.exit_code else None)


def run_job(job, tmp: Path, gates: Gates) -> workloads.Child:
    child = workloads.spawn(job.label, job.argv(), tmp / f"{job.label}.log")
    problem = f"exit code {child.exit_code}" if child.exit_code else None
    problem = problem or job.gate()[0]
    gates.record(job.label, problem)
    return child


def cold_iteration(workload, tmp, seed, quick, gates) -> list:
    return [run_job(job, tmp, gates)
            for job in workloads.jobs(workload, tmp, seed, quick)]


def warm_up(tmp: Path, gates: Gates) -> str:
    """Import every module once, untimed, and return the kernel's name.

    The first import after a source change compiles bytecode, which a user
    does not pay on every run.
    """
    log = tmp / "warm_up.log"
    gates.record_exit(workloads.spawn(
        "warm_up", [sys.executable, "-c", workloads.KERNEL_QUERY], log))
    return log.read_text(encoding="utf-8").strip() or "unknown"


def measure_setup(tmp: Path, gates: Gates, samples: int,
                  refs: list) -> list:
    """Cold ``import bringcover`` processes, each after a reference time
    appended to refs."""
    children = []
    for _ in range(samples):
        refs.append(reference_s())
        child = workloads.spawn(
            "setup", [sys.executable, "-c", "import bringcover"],
            tmp / "setup.log")
        gates.record_exit(child)
        children.append(child)
    return children


def reference_s() -> float:
    """Wall time of a fixed pure-Python task that calls no bringcover code:
    hashing and storing the 40320 permutation tuples of 8 points, then
    integer arithmetic.  It measures how fast the machine currently runs
    the kind of work bringcover does."""
    start = time.perf_counter()
    gens = ((1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0))
    seen = {gens[0]}
    frontier = [gens[0]]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    total = len(seen)
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def per_ref(groups: list, refs: list) -> tuple:
    """Wall and cpu time of each group of children over its reference.

    The children of all groups ran one after another, refs[i] timed just
    before the i-th of them and the last ref after the last child.  A
    group's reference is the median of the times bracketing its children:
    the one before each child and the one after its last.
    """
    walls, cpus, i = [], [], 0
    for group in groups:
        ref = statistics.median(refs[i:i + len(group) + 1])
        walls.append(sum(c.wall_s for c in group) / ref)
        cpus.append(sum(c.cpu_s for c in group) / ref)
        i += len(group)
    return walls, cpus


def end_to_end(args, tmp: Path, gates: Gates) -> dict:
    """Raw and reference-normalized medians over cold iterations.

    On a shared machine the speed of the CPU drifts by tens of percent over
    minutes, for bringcover and any other code alike.  The reference task
    runs before every import and job and after the last job; dividing each
    import and iteration by the reference times that bracket it cancels
    most of that drift, so wall_per_ref, cpu_per_ref and setup_s are the
    gated metrics.  The reference shares no code with bringcover, so a
    change to bringcover moves them in full.
    """
    refs = []
    imports = measure_setup(tmp, gates, 3 if args.quick else SETUP_SAMPLES,
                            refs)
    iterations = []
    start = time.perf_counter()
    while True:
        iteration = []
        for job in workloads.jobs(args.workload, tmp, args.seed, args.quick):
            refs.append(reference_s())
            iteration.append(run_job(job, tmp, gates))
        iterations.append(iteration)
        elapsed = time.perf_counter() - start
        # stop at the iteration boundary nearest to --seconds
        if elapsed + elapsed / len(iterations) / 2 > args.seconds:
            break
    refs.append(reference_s())
    walls, cpus = per_ref([[c] for c in imports] + iterations, refs)
    return {
        "wall_per_ref": statistics.median(walls[len(imports):]),
        "cpu_per_ref": statistics.median(cpus[len(imports):]),
        "peak_rss_mb": statistics.median(
            max(c.maxrss_mb for c in it) for it in iterations),
        "setup_s": statistics.median(walls[:len(imports)])
                   * NOMINAL_REFERENCE_S,
        "wall_s": statistics.median(
            sum(c.wall_s for c in it) for it in iterations),
        "cpu_s": statistics.median(
            sum(c.cpu_s for c in it) for it in iterations),
        "import_s": statistics.median(c.wall_s for c in imports),
        "reference_s": statistics.median(refs),
        "walls": [round(sum(c.wall_s for c in it), 3) for it in iterations],
    }


def in_process(args, tmp: Path, traced: int, gates: Gates) -> dict:
    out = tmp / f"inproc{traced}.json"
    argv = [sys.executable, str(Path(tracer.__file__)), "--workload",
            args.workload, "--seed", str(args.seed), "--traced", str(traced),
            "--out", str(out), *(["--quick"] if args.quick else [])]
    label = "traced" if traced else "untraced"
    child = workloads.spawn(label, argv, tmp / f"{label}.log")
    if child.exit_code:
        gates.record_exit(child)
        return {}
    payload = json.loads(out.read_text(encoding="utf-8"))
    for job, problem in payload["problems"].items():
        gates.record(f"{label} {job}", problem)
    return payload


def per_layer(args, tmp: Path, gates: Gates) -> dict:
    cold = cold_iteration(args.workload, tmp, args.seed, args.quick, gates)
    untraced = in_process(args, tmp, 0, gates)
    traced = in_process(args, tmp, 1, gates)
    if untraced and traced:
        same = untraced["results"] == traced["results"]
        gates.record("traced output equals untraced",
                     None if same else "results differ")
    metrics = {name: 0 for name, _ in tracer.PER_LAYER}
    metrics.update({k: v for k, v in traced.get("metrics", {}).items()
                    if k in metrics})
    if metrics["tracking.steps_used"]:
        metrics["tracking.step_yield"] = (
            metrics["tracking.waypoints"] / metrics["tracking.steps_used"])
    if args.workload == "cli_reports":
        for child in cold:
            metrics[f"cli.{child.label}_s"] = child.wall_s
    if untraced and traced:
        cold_ms = 1000 * sum(c.wall_s for c in cold)
        metrics["cli.overhead_ms"] = cold_ms - untraced["elapsed_ms"]
        metrics["trace.overhead_ms"] = (traced["elapsed_ms"]
                                        - untraced["elapsed_ms"])
        verify_ms = sum(v for k, v in metrics.items()
                        if k.startswith(("verify.build.", "verify.check.")))
        metrics["trace.outside_verify_ms"] = traced["elapsed_ms"] - verify_ms
    return metrics


def environment(kernel: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "kernel": kernel}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-process benchmark of bringcover.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "bringcover" / "__init__.py").is_file():
        print(f"error: no bringcover package under {SRC}", file=sys.stderr)
        return 2

    gates = Gates()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        kernel = warm_up(Path(tmp), gates)
        if args.trace:
            values = per_layer(args, Path(tmp), gates)
            units = dict(tracer.PER_LAYER)
        else:
            values = end_to_end(args, Path(tmp), gates)
            units = dict(END_TO_END)

    print("# environment " + json.dumps(environment(kernel), sort_keys=True))
    for problem in gates.problems:
        print(f"# FAILED {problem}")
    fail_ratio = len(gates.problems) / gates.attempted
    print(f"# {args.workload} seed={args.seed} trace={args.trace}"
          + (f" wall_s per iteration={values['walls']}"
             if "walls" in values else ""))
    values["fail_ratio"] = fail_ratio
    shown = [*units.items(), *(RAW if not args.trace else []),
             ("fail_ratio", "ratio")]
    for name, unit in shown:
        print(f"#   {name:<52} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not gates.problems,
        "attempted": gates.attempted,
        "failed": len(gates.problems),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
