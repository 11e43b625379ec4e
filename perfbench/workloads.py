"""The four workloads: which processes each one runs, and the gate that
checks each process's output.

A workload iteration is a list of jobs run one after another (a closed
loop with one client).  A job is one bringcover entry point with its
arguments; the benchmark runs it either as a cold child process or, in the
traced run, as an in-process call of the same entry point.  Every job
writes its output under a scratch directory and has a gate that reads it
back and returns ``(problem, result)``: ``problem`` is None when the output
is correct, ``result`` is the output with timing fields removed, so that
two runs of the same job can be compared.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# --steps for the reduced-size runs of the self-test; 32 steps per circle
# already certify the same permutations as the defaults
QUICK_STEPS = 256
FINE_STEPS = 4096
CHILD_TIMEOUT_S = 150

EXPECTED = {
    # status counts of the verify-all report rows
    "verify_all": {"pass": 27, "info": 2, "fail": 0},
    "monodromy": {"pass": 6, "info": 1, "fail": 0},
    "cycle_types": [[5], [4, 1], [2, 1, 1, 1]],
    # sha256 of json.dumps([pi0, pi1, pi_inf]) for every tracked triple
    "perms_sha256": "19f74876a31017b6",
    # n -> class counts for k = 0.., Euler characteristic, refinements of
    # each top cell
    "census": {
        6: {"counts": [60, 270, 315, 105], "chi": 0, "refinements": 9},
        5: {"counts": [12, 30, 15], "chi": -3, "refinements": 5},
    },
    # subcommand -> extra keys its --json payload adds to the report
    "cli_keys": {
        "cells": ["enumerations"],
        "cover": ["base", "cover", "dessin"],
        "dessins": ["dessins"],
        "monodromy": ["monodromy"],
    },
}

EXPORT_TARGETS = ("D", "I4", "union", "J", "sheet")

# imports every bringcover module and prints the tracking kernel's name
KERNEL_QUERY = ("import bringcover.cli, bringcover.tracking as t; "
                "print(getattr(t, 'kernel_name', lambda: 'pure-python')())")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", BRINGCOVER_PURE="1")
    # children read and write bytecode caches as an installed package does,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass(frozen=True)
class Job:
    label: str
    entry: str          # "bringcover.cli", "cli_probe" or "census"
    args: tuple
    gate: Callable      # () -> (problem or None, result)

    def argv(self) -> list:
        if self.entry == "bringcover.cli":
            return [sys.executable, "-m", "bringcover.cli", *self.args]
        return [sys.executable, str(HERE / f"{self.entry}.py"), *self.args]


@dataclass(frozen=True)
class Child:
    """Resources of one finished child process, from its own rusage."""

    label: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int


def spawn(label: str, argv: list, log: Path) -> Child:
    """Run argv to completion and account for it alone via wait4.

    The cumulative RUSAGE_CHILDREN is not used: its ru_maxrss is a running
    maximum over every earlier child and would hide a drop in memory.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(label, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, proc.returncode)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strip_timings(obj):
    """The object without timing fields (keys ending in _ms, or builds)."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items()
                if not k.endswith("_ms") and k != "builds"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def _load_json(path: Path):
    try:
        return None, json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{path.name}: {type(exc).__name__}: {exc}", None


def _report_problem(report: dict, want: dict):
    rows = report.get("checks", [])
    got = {s: sum(1 for r in rows if r.get("status") == s) for s in want}
    if report.get("status") != "pass":
        return f"report status {report.get('status')!r}"
    if got != want or len(rows) != sum(want.values()):
        return f"report rows {got} of {len(rows)}, expected {want}"
    return None


def _gate_report(path: Path, want_key: str):
    problem, report = _load_json(path)
    if problem is None:
        problem = _report_problem(report, EXPECTED[want_key])
    return problem, strip_timings(report)


def _gate_monodromy(path: Path, perms_path: Path):
    problem, report = _gate_report(path, "monodromy")
    perm_problem, triples = _load_json(perms_path)
    problem = problem or perm_problem
    if problem is None:
        types = next((r["observed"] for r in report["checks"]
                      if r["name"] == "monodromy.cycle_types"), None)
        digests = sorted({digest(t[1:]) for t in triples})
        if types != EXPECTED["cycle_types"]:
            problem = f"cycle types {types}"
        elif digests != [EXPECTED["perms_sha256"]]:
            problem = f"permutation digests {digests}"
    return problem, {"report": report, "triples": triples}


def _gate_census(path: Path, n: int):
    problem, got = _load_json(path)
    if problem is None:
        want = EXPECTED["census"][n]
        if got["counts"] != want["counts"] or got["chi"] != want["chi"]:
            problem = f"census counts {got['counts']} chi {got['chi']}"
        elif set(got["refinements"]) != {want["refinements"]} or \
                len(got["refinements"]) != want["counts"][0]:
            problem = f"refinements per top cell {sorted(set(got['refinements']))}"
    return problem, got


def _gate_cli_json(path: Path, subcommand: str):
    problem, payload = _load_json(path)
    if problem is None:
        missing = [k for k in EXPECTED["cli_keys"][subcommand]
                   if k not in payload]
        if missing:
            problem = f"{subcommand} --json lacks {missing}"
    return problem, strip_timings(payload)


def _gate_dot(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return f"{path.name}: {exc}", None
    if not text.strip():
        return f"{path.name} is empty", None
    return None, text


def jobs(workload: str, tmp: Path, seed: int, quick: bool = False) -> list:
    """The jobs of one iteration of the workload, writing under tmp."""
    steps = ["--steps", str(QUICK_STEPS)] if quick else []
    common = ["--seed", str(seed), *steps]
    if workload == "verify_all":
        out = tmp / "verify_all.json"
        return [Job("verify_all", "bringcover.cli",
                    ("verify-all", "--json", str(out), *common),
                    lambda: _gate_report(out, "verify_all"))]
    if workload == "monodromy_fine":
        out, perms = tmp / "monodromy_fine.json", tmp / "perms.json"
        fine = steps or ["--steps", str(FINE_STEPS)]
        return [Job("monodromy_fine", "cli_probe",
                    (str(perms), "verify-all", "--only", "monodromy",
                     "--json", str(out), "--seed", str(seed), *fine),
                    lambda: _gate_monodromy(out, perms))]
    if workload == "census_n6":
        n = 5 if quick else 6
        out = tmp / "census.json"
        return [Job("census_n6", "census",
                    ("--n", str(n), "--seed", str(seed), "--out", str(out)),
                    lambda: _gate_census(out, n))]
    if workload == "cli_reports":
        out = []
        for sub in EXPECTED["cli_keys"]:
            path = tmp / f"{sub}.json"
            out.append(Job(sub, "bringcover.cli",
                           (sub, "--json", str(path), *common),
                           lambda p=path, s=sub: _gate_cli_json(p, s)))
        for target in EXPORT_TARGETS:
            path = tmp / f"{target}.dot"
            out.append(Job(f"export_{target}", "bringcover.cli",
                           ("export", "--target", target, "--path",
                            str(path), *common),
                           lambda p=path: _gate_dot(p)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify_all", "monodromy_fine", "census_n6", "cli_reports")
