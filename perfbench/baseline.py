"""Run the benchmark in two sweeps of ten seeds and summarize the spread.

Usage: python3 perfbench/baseline.py --out PATH

Each sweep runs every workload once per seed for BENCHMARK.json's
run_seconds, interleaving the workloads so that each one's runs span the
whole sweep.  The first sweep takes the seeds in SEEDS, the second the ten
after them; the second starts when the first has ended, as a later
comparison of the same code would.  PATH receives every run's metric
table; per sweep, workload and metric (the gated ones, the raw times and
fail_ratio), the median, the quartiles from statistics.quantiles(values,
n=4) and their distance as a share of the median; and, per gated metric
and workload, how far the second sweep's median lies from the first's as a
share of the first, beside the metric's bound.  A PR that claims a gain
compares such a summary of the parent with one of the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS

SEEDS = range(301, 311)


def table(stdout: str) -> dict:
    """name -> (value, unit) from the metric table a run prints."""
    rows = (line[1:].split() for line in stdout.splitlines()
            if line.startswith("#   "))
    return {name: (float(value), unit) for name, value, unit in rows}


def summarize(runs: dict) -> dict:
    """workload -> list of tables  ->  workload -> metric -> statistics."""
    out = {}
    for workload, tables in runs.items():
        out[workload] = {}
        for name, (_, unit) in tables[0].items():
            values = [t[name][0] for t in tables]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[workload][name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
    return out


def sweep(seeds, seconds: int) -> tuple:
    """(environment, workload -> list of tables) over the seeds."""
    runs = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            environment = json.loads(lines[0].removeprefix("# environment "))
            if not json.loads(lines[-1])["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed a gate:\n"
                                 + proc.stdout)
            runs[workload].append(table(proc.stdout))
    return environment, runs


def drift(first: dict, second: dict, bounds: dict) -> dict:
    """workload -> gated metric -> change of the median between sweeps."""
    return {
        workload: {
            name: {"change": (second[workload][name]["median"]
                              - first[workload][name]["median"])
                   / first[workload][name]["median"],
                   "bound": bound}
            for name, bound in bounds.items()}
        for workload in first}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sweeps = []
    for seeds in (SEEDS, [seed + len(SEEDS) for seed in SEEDS]):
        environment, runs = sweep(seeds, seconds)
        sweeps.append({"seeds": list(seeds), "summary": summarize(runs),
                       "runs": runs})
    summary = {
        "environment": environment, "seconds": seconds, "sweeps": sweeps,
        "drift": drift(sweeps[0]["summary"], sweeps[1]["summary"], bounds),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
