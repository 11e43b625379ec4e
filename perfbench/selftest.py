"""Quick self-test of the benchmark (about two minutes on 2 vCPUs).

Usage: python3 perfbench/selftest.py

Runs every workload once at reduced size (--quick: 256 steps per circle,
census at n=5), untraced and traced, and checks that:

* the last output line has exactly the keys correct, attempted, failed and
  metrics, with every gate passing;
* the metrics are exactly those BENCHMARK.json names for the mode, each
  with its unit;
* each workload's trace shows the layers it is meant to exercise, and
  reads 0 for a layer it never calls;
* a deliberately wrong expected value trips that workload's gate;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads
from workloads import HERE, ROOT

QUICK = ["--seed", "0", "--seconds", "1", "--quick"]

# workload -> (metric prefixes that must be non-zero in its trace,
#              metric prefixes that must be zero)
LAYERS = {
    "verify_all": (("verify.", "cells.", "perms.", "dessins.", "cover.",
                    "tracking.", "quintic.", "monodromy."),
                   tuple(f"cli.{job}_s" for job in tracer.CLI_JOBS)),
    "monodromy_fine": (("tracking.", "quintic.", "monodromy.",
                        "verify.check.monodromy."),
                       ("cells.", "cover.", "dessins.automorphism_group",
                        "verify.build.complex5", "verify.check.cells.")),
    "census_n6": (("cells.enumerate_cells", "cells.canonical_class",
                   "cells.refinements", "cells.orbit_keys"),
                  ("tracking.", "perms.", "dessins.", "verify.")),
    "cli_reports": (("cli.", "cells.enumerate_cells", "tracking.",
                     "verify.build."), ()),
}

# workload -> a change to EXPECTED that makes its correct output wrong
WRONG = {
    "verify_all": lambda e: e["verify_all"].update({"pass": 28}),
    "monodromy_fine": lambda e: e.update(perms_sha256="0" * 16),
    "census_n6": lambda e: e["census"][5].update(refinements=6),
    "cli_reports": lambda e: e["cli_keys"]["cells"].append("missing"),
}

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), *QUICK],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    return last_json(proc.stdout)


def check_result(workload, trace, result, spec) -> None:
    tag = f"{workload} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag} prints exactly the four result keys")
    check(result.get("correct") is True and result.get("failed") == 0
          and result.get("attempted", 0) >= 1,
          f"{tag} passes every gate ({result.get('failed')} of "
          f"{result.get('attempted')} failed)")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    check(got == want, f"{tag} prints every BENCHMARK.json metric with its "
          f"unit (missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))})")
    numbers = all(isinstance(v.get("value"), (int, float))
                  for v in result.get("metrics", {}).values())
    check(numbers, f"{tag} metric values are numbers")


def check_layers(workload, result) -> None:
    values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    busy, idle = LAYERS[workload]
    zero = sorted(k for k, v in values.items() if k.startswith(busy) and not v)
    check(not zero, f"{workload} trace exercises its layers (zero: {zero})")
    touched = sorted(k for k, v in values.items() if k.startswith(idle) and v)
    check(not touched, f"{workload} trace leaves other layers alone "
          f"(non-zero: {touched})")


def check_wrong_expectation(workload) -> None:
    saved = copy.deepcopy(workloads.EXPECTED)
    WRONG[workload](workloads.EXPECTED)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", workload, "--trace", "0", *QUICK])
    finally:
        workloads.EXPECTED.clear()
        workloads.EXPECTED.update(saved)
    result = last_json(out.getvalue())
    check(result.get("correct") is False and result.get("failed", 0) >= 1,
          f"{workload} gate trips on a wrong expected value")


def check_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "verify_all", "--trace", "0", *QUICK],
            cwd=bare, capture_output=True, text=True, timeout=180)
    printed = proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout
    check(proc.returncode != 0 and not printed,
          "without the program it exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the benchmark's workloads")
    for workload in workloads.WORKLOADS:
        check_result(workload, 0, run_cli(workload, 0), spec)
        traced = run_cli(workload, 1)
        check_result(workload, 1, traced, spec)
        check_layers(workload, traced)
        check_wrong_expectation(workload)
    check_without_program()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
