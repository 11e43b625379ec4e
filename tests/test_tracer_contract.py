"""The names that the traced benchmark (perfbench/tracer.py) patches.

The tracer wraps functions and Context builds by name; a rename in the
package would otherwise show only when the traced benchmark runs.  The
tracer is read as source, not imported or changed.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from bringcover import certify, cli, tracking, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _literal(name):
    """The literal value assigned to a module-level name in the tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {TRACER.name}")


def _context_get_keys():
    # the builds live where Context is defined, which verify re-exports
    tree = ast.parse(Path(inspect.getsourcefile(verify.Context)).read_text())
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_get"
            and isinstance(node.args[0], ast.Constant)}


@pytest.mark.parametrize("module, fn_names", sorted(_literal("SPANS").items()))
def test_spans_exist(module, fn_names):
    mod = importlib.import_module(f"bringcover.{module}")
    missing = [n for n in fn_names if not callable(getattr(mod, n, None))]
    assert missing == []


def test_builds_are_context_keys():
    keys = _context_get_keys()
    assert "cover" in keys  # the scan found the Context builds
    assert set(_literal("BUILDS")) <= keys


def test_patched_context_is_the_one_every_command_builds():
    # the tracer patches verify.Context._get; the CLI builds its own
    # Context without loading verify, so both must name one class
    assert cli.Context is verify.Context


def test_checks_are_the_registry():
    assert sorted(_literal("CHECKS")) == sorted(c.name for c in verify.CHECKS)


def test_patched_signatures():
    assert list(inspect.signature(tracking.track_loop).parameters) == \
        ["spec", "cfg"]
    assert list(inspect.signature(verify.Context._get).parameters) == \
        ["self", "key", "build"]
    assert callable(tracking.contour)
    assert callable(verify.monodromy_triple)
    assert dataclasses.is_dataclass(verify.CheckDef)


def test_certificate_counts_contours_but_tracks_no_loop(monkeypatch):
    # the tracer rebinds contour and track_loop at every bringcover
    # binding: the certificate's three loops add to tracking.waypoints,
    # and to no p0/p1/pinf span of track_loop
    calls = Counter()

    def rebind(original):
        def counting(*args):
            calls[original.__name__] += 1
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name == "bringcover" or name.startswith("bringcover."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)

    rebind(tracking.contour)
    rebind(tracking.track_loop)
    certify.certify()
    assert (calls["contour"], calls["track_loop"]) == (3, 0)
