"""Command-line entry point.

Subcommands::

    bringcover cells       cell census of the moduli complexes
    bringcover cover       base surface and its orientation double cover
    bringcover dessins     the built dessins, their passports and symmetries
    bringcover monodromy   numerically tracked Belyi monodromy
    bringcover verify-all  the full verification suite
    bringcover export      DOT export of a named dessin

Every subcommand builds its objects once, in one :class:`context.Context`:
the report subcommands run their checks on it and take their ``--json``
extras from the same objects, and ``export`` builds only its target.  A
layer is imported where a command first needs it, so an export of D, I4,
the union or J loads neither the check registry nor ``dataclasses``.

Each command's flags are declared once, in :data:`COMMANDS`.  A canonical
command line, ``COMMAND --flag VALUE ...``, is parsed from that table
directly; argparse is imported only for any other line (help,
``--version``, a usage error), and gives the same namespace, help text
and messages.

Exit codes: 0 all gated checks pass, 1 some check failed (or, for
``export``, the tracked monodromy its target needs could not be built), 2
usage or I/O error.

:func:`run` is the process entry (``python -m bringcover.cli`` and the
``bringcover`` script): it flushes the standard streams after
:func:`main` returns and ends the process with ``os._exit``, skipping
interpreter teardown.  :func:`main` returns the exit code and leaves the
interpreter's state alone, so it can be called in process.
"""

from __future__ import annotations

import os
import sys
import types

from . import __version__
from .context import Context
from .tracking import DEFAULT_STEPS, MAX_STEPS, TrackingConfig, TrackingError

# TrackingConfig field -> add_argument keywords of its flag, --base-t for
# base_t
_TRACKING_FLAGS = {
    "steps": {"type": int,
              "help": f"waypoints per loop circle (default {DEFAULT_STEPS}), "
                      f"at most {MAX_STEPS}"},
    "seed": {"type": int,
             "help": "seed of the samples at which the printed expression's "
                     "deviation is evaluated (the identities are exact)"},
    "base_t": {"type": float,
               "help": "real base point between 0 and 1 (default 0.5)"},
    "radius0": {"type": float},
    "radius1": {"type": float},
    "radius_inf": {"type": float},
    "tol_residual": {"type": float},
    "tol_match_ratio": {"type": float},
    "tol_lambda": {"type": float,
                   "help": "a finite number > 0, echoed in the report; it "
                           "gates no loop, each closed by conjugation"},
}

# the modules --only accepts, verify.MODULES written out so that building
# the parser does not load the check registry
ONLY_MODULES = ("cells", "cover", "dessins", "monodromy", "perms")

# export target -> Context property
EXPORT_TARGETS = {"D": "dessin_d", "I4": "i4", "union": "union",
                  "J": "dessin_j", "sheet": "sheet"}

_JSON_FLAG = {"json": {"metavar": "PATH"}}
_REPORT_FLAGS = {**_JSON_FLAG, **_TRACKING_FLAGS}

# subcommand -> (help, {dest: add_argument keywords of its flag}), flags in
# help order; a flag is its dest written as an option (see _option).  Both
# parsers read every flag from here.
COMMANDS = {
    "cells": ("cell census of the moduli complexes", _REPORT_FLAGS),
    "cover": ("base surface and orientation double cover", _REPORT_FLAGS),
    "dessins": ("built dessins, passports, symmetries", _REPORT_FLAGS),
    "monodromy": ("numerically tracked Belyi monodromy", _REPORT_FLAGS),
    "verify-all": ("run every check", {
        **_JSON_FLAG,
        "only": {"choices": ONLY_MODULES,
                 "help": "restrict to one module's checks"},
        **_TRACKING_FLAGS}),
    "export": ("write a dessin as DOT", {
        "target": {"required": True, "choices": tuple(EXPORT_TARGETS)},
        "path": {"required": True},
        **_TRACKING_FLAGS}),
}


def _option(dest: str) -> str:
    """The long option of a flag's dest, as argparse derives the dest."""
    return "--" + dest.replace("_", "-")


def _config_from(args) -> TrackingConfig:
    overrides = {k: getattr(args, k) for k in _TRACKING_FLAGS
                 if getattr(args, k) is not None}
    try:
        # the doubling row tracks twice the steps, up to 2 * MAX_STEPS
        if overrides.get("steps", 0) > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}, "
                             f"got {overrides['steps']}")
        return TrackingConfig(**overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


class _StdoutError(Exception):
    """An OSError out of a print to stdout or its flush."""


def _say(text: str, end: str = "\n") -> None:
    try:
        print(text, end=end)
    except OSError as exc:
        raise _StdoutError(exc) from None


def _print_report(report) -> None:
    for check in report["checks"]:
        _say(f"[{check['status']:>4}] {check['name']}")
    n_pass = sum(1 for c in report["checks"] if c["status"] == "pass")
    n_fail = sum(1 for c in report["checks"] if c["status"] == "fail")
    n_info = sum(1 for c in report["checks"] if c["status"] == "info")
    _say(f"{report['status'].upper()}: {n_pass} passed, {n_fail} failed, "
         f"{n_info} informational")


def _cells_payload(ctx) -> dict:
    from . import cells
    return {"enumerations": {
        f"n={n},k={k}": [
            {"text": c.to_text(), "dimension": c.dimension,
             "orbit_size": c.orbit_size}
            for c in cells.enumerate_cells(n, k)
        ]
        for n, k in ((4, 0), (4, 1), (5, 0), (5, 1), (5, 2), (6, 0))
    }}


def _cover_payload(ctx) -> dict:
    from . import cover
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


# module subcommand -> hook adding its --json extras; each runs that
# module's checks, and verify-all runs all of them or --only
PAYLOADS = {"cells": _cells_payload, "cover": _cover_payload,
            "dessins": _dessins_payload, "monodromy": _monodromy_payload}


def _cmd_report(args) -> int:
    from . import verify
    payload_hook = PAYLOADS.get(args.command)
    ctx = Context(_config_from(args))
    only = args.only if payload_hook is None else args.command
    report = verify.run_checks(ctx, only=only)
    if payload_hook is None:
        _say(f"bringcover {__version__}")
    _print_report(report)
    if args.json:
        import json  # only a --json run pays for it
        payload = report if payload_hook is None \
            else {**report, **payload_hook(ctx)}
        _write(args.json, json.dumps(payload, indent=2, sort_keys=True)
               + "\n")
    return 0 if report["status"] == "pass" else 1


def _cmd_export(args) -> int:
    ctx = Context(_config_from(args))
    try:
        dessin = getattr(ctx, EXPORT_TARGETS[args.target])
    except (TrackingError, ArithmeticError) as exc:
        # the sheet dessin needs the tracked monodromy, which can fail
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write(args.path, dessin.to_dot())
    _say(f"wrote {args.target} to {args.path}")
    return 0


def build_parser():
    """The argparse parser of every command line, with its help and its
    usage errors (exit code 2)."""
    import argparse  # loaded only for help, --version and usage errors
    # no abbreviations: a prefix such as --js would name a file to write
    parser = argparse.ArgumentParser(
        prog="bringcover", allow_abbrev=False,
        description="verification suite for the genus-4 moduli-cover dessin "
                    "and its Bring-curve Belyi pair")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for dest, keywords in flags.items():
            p.add_argument(_option(dest), default=None, **keywords)
    return parser


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, with the help or version text
    it prints written by :func:`_say`: argparse's own write drops an
    OSError, which would leave a full or closed stdout unreported."""
    import contextlib
    import io
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return build_parser().parse_args(argv)
    finally:
        if out.getvalue():
            _say(out.getvalue(), end="")


def _parse_canonical(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, for a
    canonical command line; None for any other.

    Canonical is ``COMMAND --flag VALUE ...``: each flag a long option of
    COMMAND given once in full, no value starting with ``-``, each value
    converting to its flag's type and among its choices, and every
    required flag given.  Help, ``--version``, abbreviations,
    ``--flag=value``, repeats, negative numbers and usage errors are left
    to argparse."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    flags = COMMANDS[argv[0]][1]
    dests = {_option(dest): dest for dest in flags}
    values = dict.fromkeys(flags)
    given = set()
    for option, text in zip(argv[1::2], argv[2::2]):
        dest = dests.get(option)
        if dest is None or dest in given or text.startswith("-"):
            return None
        given.add(dest)
        keywords = flags[dest]
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if any(kw.get("required") and dest not in given
           for dest, kw in flags.items()):
        return None
    return types.SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_canonical(argv)
    if args is None:
        args = _parse_args(argv)
    if args.command == "export":
        return _cmd_export(args)
    return _cmd_report(args)


def run(argv=None):
    """Run :func:`main` as a whole process and end it with main's code.

    Every object the run made lives until the process ends, so interpreter
    teardown would only walk and free them: once the standard streams are
    flushed, ``os._exit`` ends the process at once, also after the
    SystemExit of help, ``--version`` or a usage error.  An OSError in a
    print to stdout or in its flush (its reader gone, its disk full) is an
    I/O error: one ``error:`` line, exit code 2.  If the stderr flush
    fails, SystemExit hands the process to the interpreter's teardown,
    which reports it.  Any other exception out of main propagates as it
    is."""
    try:
        try:
            code = main(argv)
        except SystemExit as exc:   # help, --version or a usage error
            code = exc.code
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise _StdoutError(exc) from None
    except _StdoutError as exc:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        code = 2
    try:
        sys.stderr.flush()
    except Exception:   # the interpreter reports it at teardown
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
