import dataclasses
import json
import subprocess
import sys

import pytest

from bringcover import cells, cover, monodromy, perms, verify
from bringcover.cli import main
from bringcover.tracking import TrackingConfig


def _record_calls(monkeypatch, *fns) -> list:
    """Rebind each of fns in every bringcover module that binds it to a
    wrapper that records the function and arguments of each call; returns
    the record."""
    calls = []

    def recorder(fn):
        def recording(*args, **kwargs):
            calls.append((fn.__name__, *args))
            return fn(*args, **kwargs)
        return recording

    modules = [m for name, m in list(sys.modules.items())
               if name == "bringcover" or name.startswith("bringcover.")]
    for fn in fns:
        recording = recorder(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recording)
    return calls


def test_verify_all_default_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify-all", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert len(report["checks"]) >= 12
    printed = capsys.readouterr().out
    assert "PASS" in printed


def test_report_schema():
    report = verify.run_checks(TrackingConfig(), only="cells")
    assert set(report) == {"version", "config", "checks", "status"}
    assert report["status"] in ("pass", "fail")
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for check in report["checks"]:
        assert set(check) == {"name", "status", "observed", "expected",
                              "anchor"}
        assert check["status"] in ("pass", "fail", "info")
        assert check["anchor"]
    gated = [c for c in report["checks"] if c["status"] != "info"]
    assert (report["status"] == "pass") == \
        all(c["status"] == "pass" for c in gated)
    json.dumps(report)  # must be serializable as-is


def test_report_echoes_full_config():
    cfg = TrackingConfig(steps=256, max_depth=30, budget_factor=1.1, seed=7)
    report = verify.run_checks(cfg, only="cells")
    assert report["config"] == dataclasses.asdict(cfg)


def test_only_filter():
    report = verify.run_checks(TrackingConfig(), only="cells")
    assert all(c["name"].startswith("cells.") for c in report["checks"])
    assert report["checks"]
    with pytest.raises(ValueError):
        verify.run_checks(TrackingConfig(), only="nonsense")


def test_cells_json_export(tmp_path, capsys):
    out = tmp_path / "cells.json"
    assert main(["cells", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    enums = payload["enumerations"]
    assert len(enums["n=5,k=0"]) == 12
    assert len(enums["n=5,k=1"]) == 30
    assert len(enums["n=5,k=2"]) == 15
    entry = enums["n=5,k=1"][0]
    assert set(entry) == {"text", "dimension", "orbit_size"}
    assert entry["text"].startswith("n=5; labels=(")
    capsys.readouterr()


def test_cover_json_export(tmp_path, capsys):
    out = tmp_path / "cover.json"
    assert main(["cover", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["base"]["euler_characteristic"] == -3
    assert payload["base"]["orientable"] is False
    assert payload["cover"] == {
        "faces": 24, "edges": 60, "vertices": 30,
        "components": 1, "orientable": True, "genus": 4,
    }
    from bringcover.dessins import Dessin

    assert Dessin.from_text(payload["dessin"]) == verify.Context().dessin_d
    capsys.readouterr()


def test_cover_json_builds_complex5_once(tmp_path, monkeypatch, capsys):
    calls = _record_calls(monkeypatch, cells.build_complex5)
    assert main(["cover", "--json", str(tmp_path / "cover.json")]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_export_i4_builds_only_i4(tmp_path, monkeypatch, capsys):
    calls = _record_calls(monkeypatch, cells.build_complex5,
                          cover.cover_to_dessin)
    assert main(["export", "--target", "I4",
                 "--path", str(tmp_path / "I4.dot")]) == 0
    assert calls == []
    capsys.readouterr()


def test_monodromy_json_tracks_each_triple_once(tmp_path, monkeypatch,
                                                capsys):
    calls = _record_calls(monkeypatch, monodromy.monodromy_triple)
    out = tmp_path / "monodromy.json"
    assert main(["monodromy", "--steps", "256", "--json", str(out)]) == 0
    # the base triple and the doubling check's triple, nothing more
    assert [cfg.steps for _, cfg in calls] == [256, 512]
    assert json.loads(out.read_text())["monodromy"]["group_order"] == 120
    capsys.readouterr()


def test_monodromy_json_closes_the_group_once(tmp_path, monkeypatch, capsys):
    calls = _record_calls(monkeypatch, perms.closure)
    out = tmp_path / "monodromy.json"
    assert main(["monodromy", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())["monodromy"]
    gens = [perms.parse_cycle_string(rep[k], 5) for k in ("pi0", "pi1")]
    # the group check, the report's group_order and the sheet dessin all
    # read one closure of the triple's generators
    assert [args[1] for args in calls].count(gens) == 1
    capsys.readouterr()


def test_dessins_json_export(tmp_path, capsys):
    out = tmp_path / "dessins.json"
    assert main(["dessins", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    from bringcover.dessins import Dessin

    named = {name: Dessin.from_text(text)
             for name, text in payload["dessins"].items()}
    assert set(named) == {"icosahedron", "I4", "union", "J", "D"}
    assert named["I4"].n_darts == 60
    assert named["union"].n_darts == named["J"].n_darts \
        == named["D"].n_darts == 120
    capsys.readouterr()


def test_monodromy_json_export(tmp_path, capsys):
    out = tmp_path / "monodromy.json"
    assert main(["monodromy", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    rep = payload["monodromy"]
    assert rep["cycle_types"] == [[5], [4, 1], [2, 1, 1, 1]]
    assert rep["group_order"] == 120
    assert rep["pi0"].startswith("(")
    for loop in rep["loops"].values():
        assert "lambda" in loop and "max_residual" in loop
    capsys.readouterr()


def test_verify_all_at_the_old_default_passes(tmp_path, capsys):
    # the resolution the certificate replaced still passes every check, and
    # the certificate keeps its own resolution
    out = tmp_path / "report.json"
    assert main(["verify-all", "--steps", "1024", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["steps"] == 1024
    quality = next(c for c in report["checks"]
                   if c["name"] == "monodromy.quality")
    assert quality["observed"]["certified_steps"] == TrackingConfig.steps
    assert quality["observed"]["tracked_equals_certified"] is True
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--tol-match-ratio", "8"],
                                   ["--only", "monodromy",
                                    "--radius-inf", "1000"]])
def test_stricter_tracking_flags_pass_at_the_default(flags, capsys):
    # both halve the infinity loop at the default resolution, within the
    # budget's floor of 64 halvings
    assert main(["verify-all", *flags]) == 0
    capsys.readouterr()


def test_steps_help_gives_the_default(capsys):
    for command in ("verify-all", "monodromy", "export"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"waypoints per loop circle (default {TrackingConfig().steps})" \
            in text


def test_monodromy_too_coarse_exits_1(capsys):
    assert main(["monodromy", "--steps", "4"]) == 1
    printed = capsys.readouterr().out
    assert "fail" in printed


@pytest.mark.parametrize("target,nodes,edges", [
    ("I4", 42, 60),
    ("D", 90, 120),
    ("union", 54, 120),
    ("J", 90, 120),
    ("sheet", 54, 120),
])
def test_export_counts(tmp_path, capsys, target, nodes, edges):
    out = tmp_path / f"{target}.dot"
    assert main(["export", "--target", target, "--path", str(out)]) == 0
    text = out.read_text()
    assert sum(1 for ln in text.splitlines() if "shape=circle" in ln) == nodes
    assert sum(1 for ln in text.splitlines() if " -- " in ln) == edges
    capsys.readouterr()


def test_export_deterministic(tmp_path, capsys):
    a = tmp_path / "a.dot"
    b = tmp_path / "b.dot"
    assert main(["export", "--target", "I4", "--path", str(a)]) == 0
    assert main(["export", "--target", "I4", "--path", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_export_bad_path_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--target", "I4",
              "--path", str(tmp_path / "no" / "dir" / "x.dot")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_export_tracking_failure_exits_1(tmp_path, capsys):
    # the flags are valid, but 4 steps per circle are too coarse to track
    out = tmp_path / "sheet.dot"
    assert main(["export", "--target", "sheet", "--steps", "4",
                 "--path", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: TrackingError: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_usage_error_exits_2(capsys):
    for argv in (["verify-all", "--only", "nonsense"],
                 ["export", "--target", "Z", "--path", "x"],
                 ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_nan_match_ratio_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["monodromy", "--tol-match-ratio", "nan"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "tol_match_ratio" in err


@pytest.mark.parametrize("argv", [
    ["--steps", "3"],            # too few steps for a circle
    ["--radius-inf", "0.9"],     # the infinity circle misses t = 1
    ["--radius0", "0.6"],        # the loop around 0 swallows the base point
    ["--base-t", "1.5"],         # the tail around 0 would cross t = 1
    ["--radius-inf", "nan"],     # compares false with every bound
    ["--tol-lambda", "nan"],     # would switch the branch-drift check off
])
def test_bad_tracking_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["monodromy", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "bringcover.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_export_deterministic_across_processes(tmp_path):
    paths = [tmp_path / "a.dot", tmp_path / "b.dot"]
    for path in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "bringcover.cli", "export",
             "--target", "D", "--path", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_all_same_under_optimize(tmp_path):
    # no result may rest on an assert, which -O strips
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(reports)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "bringcover.cli", "verify-all",
             "--json", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_all_imports_no_numpy():
    # the package has no runtime dependency: a cold run of every check
    # must not pull numpy in, nor the mpmath the certificate's tests use
    code = ("import sys\n"
            "from bringcover import verify\n"
            "verify.run_checks()\n"
            "print([m for m in ('numpy', 'mpmath', 'sympy')"
            " if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
