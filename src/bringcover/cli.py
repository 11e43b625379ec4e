"""Command-line entry point.

Subcommands::

    bringcover cells       cell census of the moduli complexes
    bringcover cover       base surface and its orientation double cover
    bringcover dessins     the built dessins, their passports and symmetries
    bringcover monodromy   numerically tracked Belyi monodromy
    bringcover verify-all  the full verification suite
    bringcover export      DOT export of a named dessin

Every subcommand builds its objects once, in one :class:`verify.Context`:
the report subcommands run their checks on it and take their ``--json``
extras from the same objects, and ``export`` builds only its target.

Exit codes: 0 all gated checks pass, 1 some check failed (or, for
``export``, the tracked monodromy its target needs could not be built), 2
usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__, cells, cover, verify
from .tracking import TrackingConfig, TrackingError, loop_entry, loop_spec

_TRACKING_FLAGS = ("steps", "seed", "base_t", "radius0", "radius1",
                   "radius_inf", "tol_residual", "tol_match_ratio",
                   "tol_lambda")

# export target -> Context property
EXPORT_TARGETS = {"D": "dessin_d", "I4": "i4", "union": "union",
                  "J": "dessin_j", "sheet": "sheet"}


def _add_tracking_flags(p):
    p.add_argument("--steps", type=int, default=None,
                   help="waypoints per loop circle "
                        f"(default {TrackingConfig.steps})")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the sampled identity checks")
    p.add_argument("--base-t", type=float, default=None,
                   help="real base point between 0 and 1 (default 0.5)")
    p.add_argument("--radius0", type=float, default=None)
    p.add_argument("--radius1", type=float, default=None)
    p.add_argument("--radius-inf", type=float, default=None)
    p.add_argument("--tol-residual", type=float, default=None)
    p.add_argument("--tol-match-ratio", type=float, default=None)
    p.add_argument("--tol-lambda", type=float, default=None)


def _config_from(args) -> TrackingConfig:
    overrides = {k: getattr(args, k) for k in _TRACKING_FLAGS
                 if getattr(args, k) is not None}
    try:
        cfg = replace(TrackingConfig(), **overrides)
        for puncture in (0, 1, "inf"):
            loop_entry(loop_spec(cfg, puncture))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return cfg


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _print_report(report) -> None:
    for check in report["checks"]:
        print(f"[{check['status']:>4}] {check['name']}")
    n_pass = sum(1 for c in report["checks"] if c["status"] == "pass")
    n_fail = sum(1 for c in report["checks"] if c["status"] == "fail")
    n_info = sum(1 for c in report["checks"] if c["status"] == "info")
    print(f"{report['status'].upper()}: {n_pass} passed, {n_fail} failed, "
          f"{n_info} informational")


def _cells_payload(ctx) -> dict:
    return {"enumerations": {
        f"n={n},k={k}": [
            {"text": c.to_text(), "dimension": c.dimension,
             "orbit_size": c.orbit_size}
            for c in cells.enumerate_cells(n, k)
        ]
        for n, k in ((4, 0), (4, 1), (5, 0), (5, 1), (5, 2), (6, 0))
    }}


def _cover_payload(ctx) -> dict:
    base = ctx.surface
    return {
        "base": {
            "faces": base.n_faces, "edges": base.n_edges,
            "vertices": base.n_vertices,
            "euler_characteristic": cover.euler_characteristic(base),
            "orientable": cover.is_orientable(base),
        },
        "cover": ctx.cover.summary(),
        "dessin": ctx.dessin_d.to_text(),
    }


def _dessins_payload(ctx) -> dict:
    named = {"icosahedron": ctx.icosahedron, "I4": ctx.i4,
             "union": ctx.union, "J": ctx.dessin_j, "D": ctx.dessin_d}
    return {"dessins": {name: d.to_text() for name, d in named.items()}}


def _monodromy_payload(ctx) -> dict:
    try:
        return {"monodromy": ctx.triple.report()}
    except Exception as exc:
        return {"monodromy": {"error": f"{type(exc).__name__}: {exc}"}}


# report subcommand -> (help, hook adding its --json extras); each module
# subcommand runs that module's checks, verify-all runs all of them or --only
REPORTS = {
    "cells": ("cell census of the moduli complexes", _cells_payload),
    "cover": ("base surface and orientation double cover", _cover_payload),
    "dessins": ("built dessins, passports, symmetries", _dessins_payload),
    "monodromy": ("numerically tracked Belyi monodromy", _monodromy_payload),
    "verify-all": ("run every check", None),
}


def _cmd_report(args) -> int:
    payload_hook = REPORTS[args.command][1]
    ctx = verify.Context(_config_from(args))
    only = args.only if payload_hook is None else args.command
    report = verify.run_checks(ctx, only=only)
    if payload_hook is None:
        print(f"bringcover {__version__}")
    _print_report(report)
    if args.json:
        payload = report if payload_hook is None \
            else {**report, **payload_hook(ctx)}
        _write(args.json, json.dumps(payload, indent=2, sort_keys=True)
               + "\n")
    return 0 if report["status"] == "pass" else 1


def _cmd_export(args) -> int:
    ctx = verify.Context(_config_from(args))
    try:
        dessin = getattr(ctx, EXPORT_TARGETS[args.target])
    except (TrackingError, ArithmeticError) as exc:
        # the sheet dessin needs the tracked monodromy, which can fail
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write(args.path, dessin.to_dot())
    print(f"wrote {args.target} to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bringcover",
        description="verification suite for the genus-4 moduli-cover dessin "
                    "and its Bring-curve Belyi pair")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, payload_hook) in REPORTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", metavar="PATH", default=None)
        if payload_hook is None:
            p.add_argument("--only", choices=verify.MODULES, default=None,
                           help="restrict to one module's checks")
        _add_tracking_flags(p)

    p = sub.add_parser("export", help="write a dessin as DOT")
    p.add_argument("--target", required=True, choices=tuple(EXPORT_TARGETS))
    p.add_argument("--path", required=True)
    _add_tracking_flags(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "export":
        return _cmd_export(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
