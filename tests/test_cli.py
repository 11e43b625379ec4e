import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bringcover import cells, cli, cover, monodromy, perms, tracking, verify
from bringcover.cli import _TRACKING_FLAGS, build_parser, main
from bringcover.tracking import DEFAULT_STEPS, MAX_STEPS, TrackingConfig

from oracles import dessin_from_text, parse_cycle_string


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
    # the two tracking limits are constants, echoed beside the fields
    cfg = TrackingConfig(steps=256, seed=7)
    report = verify.run_checks(cfg, only="cells")
    assert report["config"] == {**cfg._asdict(),
                                "max_depth": tracking.MAX_DEPTH,
                                "budget_factor": tracking.BUDGET_FACTOR}
    assert len(report["config"]) == 12


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
    assert dessin_from_text(payload["dessin"]) == verify.Context().dessin_d
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


def test_a_failed_triple_is_tracked_once(tmp_path, monkeypatch, capsys):
    calls = _record_calls(monkeypatch, monodromy.monodromy_triple)
    out = tmp_path / "monodromy.json"
    assert main(["monodromy", "--tol-match-ratio", "10000",
                 "--json", str(out)]) == 1
    # four checks and the payload read one failed base triple; the
    # doubling check tracks its own
    assert [cfg.steps for _, cfg in calls] == [DEFAULT_STEPS,
                                               2 * DEFAULT_STEPS]
    error = json.loads(out.read_text())["monodromy"]["error"]
    assert error.startswith("TrackingError: ")
    capsys.readouterr()


def test_probe_binding_records_every_triple(monkeypatch, capsys):
    # perfbench's probe rebinds verify.monodromy_triple alone and gates
    # the permutations of every triple it records
    tracked = verify.monodromy_triple
    steps = []

    def recording(cfg=None):
        steps.append(cfg.steps)
        return tracked(cfg)

    monkeypatch.setattr(verify, "monodromy_triple", recording)
    assert main(["verify-all", "--only", "monodromy"]) == 0
    assert steps == [DEFAULT_STEPS, 2 * DEFAULT_STEPS]
    capsys.readouterr()


def test_only_choices_are_the_registry_modules():
    assert cli.ONLY_MODULES == verify.MODULES


def test_monodromy_json_closes_the_group_once(tmp_path, monkeypatch, capsys):
    calls = _record_calls(monkeypatch, perms.closure)
    out = tmp_path / "monodromy.json"
    assert main(["monodromy", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())["monodromy"]
    gens = [parse_cycle_string(rep[k], 5) for k in ("pi0", "pi1")]
    # the group check, the report's group_order and the sheet dessin all
    # read one closure of the triple's generators
    assert [args[1] for args in calls].count(gens) == 1
    capsys.readouterr()


def test_dessins_json_export(tmp_path, capsys):
    out = tmp_path / "dessins.json"
    assert main(["dessins", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    named = {name: dessin_from_text(text)
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
    assert quality["observed"]["certified_steps"] == DEFAULT_STEPS
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


@pytest.mark.parametrize("command", [
    ["verify-all"], ["monodromy"], ["cells"],
    ["export", "--target", "D", "--path", os.devnull],
])
def test_steps_above_the_bound_exit_2(capsys, command):
    # one more than MAX_STEPS exits before any contour is built; a billion
    # steps would have asked for tens of gigabytes of waypoints
    with pytest.raises(SystemExit) as exc:
        main([*command, "--steps", str(MAX_STEPS + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: steps must be at most {MAX_STEPS}, " \
        f"got {MAX_STEPS + 1}\n"
    with pytest.raises(SystemExit):
        main([command[0], "--help"])
    assert f"at most {MAX_STEPS}" in " ".join(capsys.readouterr().out.split())


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


BAD_TRACKING_FLAGS = [
    ["--steps", "3"],            # too few steps for a circle
    ["--radius-inf", "0.9"],     # the infinity circle misses t = 1
    ["--radius0", "0.6"],        # the loop around 0 swallows the base point
    ["--base-t", "1.5"],         # the tail around 0 would cross t = 1
    ["--radius-inf", "nan"],     # compares false with every bound
    ["--tol-lambda", "nan"],     # would switch the branch-drift check off
    ["--radius-inf", "1.001"],   # the circle holds t = 1, its 32-gon not
    # the 1024-gon holds t = 1, but the certificate walks the 32-gon
    ["--radius-inf", "1.001", "--steps", "1024"],
]


@pytest.mark.parametrize("argv", BAD_TRACKING_FLAGS)
def test_bad_tracking_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["monodromy", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["verify-all"], ["monodromy"],
    ["export", "--target", "D", "--path", os.devnull],
])
def test_huge_radius_inf_exits_2(capsys, command):
    # its square overflows a float: a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main([*command, "--radius-inf", "1e200"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["verify-all"], ["monodromy"]])
@pytest.mark.parametrize("radius", ["1e9", "1e30", "1e150"])
def test_radius_inf_inside_the_double_root_floor_exits_2(capsys, command,
                                                         radius):
    # the infinity loop would close on the identity, not on (0 2)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--radius-inf", radius])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "double root" in captured.err
    assert captured.err.count("\n") == 1


def test_radius_inf_1e8_passes(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert main(["monodromy", "--radius-inf", "1e8", "--json",
                 str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["status"] == "pass"
    assert report["config"]["radius_inf"] == 1e8
    capsys.readouterr()


def _config_values(argv):
    """The TrackingConfig keywords the CLI reads from ``argv``."""
    args = build_parser().parse_args(["monodromy", *argv])
    return {k: getattr(args, k) for k in _TRACKING_FLAGS
            if getattr(args, k) is not None}


@pytest.mark.parametrize("values", [
    *map(_config_values, BAD_TRACKING_FLAGS),
    {"steps": 32.0},             # else a TypeError, mid-track
])
def test_bad_tracking_values_fail_the_config(values):
    # the config, not the CLI, holds the rule: one that exists can be tracked
    with pytest.raises(ValueError):
        TrackingConfig(**values)


def test_main_leaves_the_collector_alone(tmp_path):
    # main runs in process for tests, perfbench's tracer and its probe: it
    # leaves the collector, like the rest of the process, as it found it
    before = gc.get_freeze_count()
    assert main(["export", "--target", "I4",
                 "--path", str(tmp_path / "i4.dot")]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("flags, code", [
    (["--target", "I4"], 0),
    (["--target", "sheet", "--steps", "4"], 1),   # main returns 1
    (["--target", "I4", "--radius-inf", "1.001"], 2),  # SystemExit in main
    (["--target", "I4", "--steps", "many"], 2),   # argparse's own exit
])
def test_process_entry_exits_with_the_code_of_main(tmp_path, flags, code):
    path = tmp_path / "out.dot"
    proc = subprocess.run(
        [sys.executable, "-m", "bringcover.cli", "export", "--path",
         str(path), *flags],
        capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert path.exists() == (code == 0)


def test_report_without_json_loads_neither_json_nor_typing():
    # -S: no site hook may preload either module and hide the cost
    code = ("import sys\n"
            "from bringcover import cli\n"
            "assert cli.main(['verify-all']) == 0\n"
            "print([m for m in ('json', 'typing') if m in sys.modules])\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_COMMON_LAYERS = ["cli", "context", "dessins", "perms", "quintic",
                  "tracking"]


@pytest.mark.parametrize("target, extra, dataclasses", [
    ("I4", [], False),
    ("union", [], False),
    ("J", [], False),
    ("D", ["cells", "cover"], False),
    # the triple is tracked through monodromy's binding unless the check
    # registry is already loaded, so the sheet loads monodromy alone
    ("sheet", ["monodromy"], False),
])
def test_export_loads_only_the_layers_it_builds(tmp_path, target, extra,
                                                dataclasses):
    # -S: no site hook may preload a module and hide the cost
    code = ("import sys\n"
            "from bringcover import cli\n"
            f"assert cli.main(['export', '--target', {target!r},"
            f" '--path', {str(tmp_path / 'out.dot')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('bringcover.')))\n"
            "print('dataclasses' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    layers = sorted(f"bringcover.{m}" for m in _COMMON_LAYERS + extra)
    assert proc.stdout.splitlines()[-2:] == [str(layers), str(dataclasses)]


def test_console_script_is_the_process_entry():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert 'bringcover = "bringcover.cli:run"' in text


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


def test_cold_import_loads_only_the_layers_used():
    # every command is a cold process: `import bringcover` must load no
    # layer, and a cells-only process (the census) must load cells alone,
    # with value types that need no dataclasses
    code = ("import sys\n"
            "def layers():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('bringcover.'))\n"
            "import bringcover\n"
            "print(layers())\n"
            "from bringcover import cells\n"
            "print(layers(), 'dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['bringcover.cells'] False"]


# -- the canonical parser and the process entry -----------------------------

def _namespace(args) -> dict:
    # repr tells 1 from 1.0 and '1', and one nan equals another
    return {dest: repr(value) for dest, value in vars(args).items()}


def _argparse_namespace(argv) -> dict:
    return _namespace(build_parser().parse_args(argv))


def _load_workloads():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _perfbench_lines(tmp_path) -> list:
    workloads = _load_workloads()
    lines = []
    for workload in workloads.WORKLOADS:
        for quick in (False, True):
            for job in workloads.jobs(workload, tmp_path, 7, quick):
                if job.entry == "bringcover.cli":
                    lines.append(list(job.args))
                elif job.entry == "cli_probe":      # PERMS_OUT CLI_ARG...
                    lines.append(list(job.args[1:]))
    return lines


README_LINES = [
    ["verify-all"],
    ["verify-all", "--json", "report.json", "--only", "monodromy",
     "--steps", "64"],
    *(["export", "--target", target, "--path", "out.dot"]
      for target in cli.EXPORT_TARGETS),
    *([command, "--json", "out.json"]
      for command in ("cells", "cover", "dessins", "monodromy")),
    ["monodromy", "--tol-match-ratio", "8"],
    ["monodromy", "--radius-inf", "1000"],
    ["monodromy", "--radius-inf", "1e9"],
    ["monodromy", "--radius-inf", "1.001", "--steps", "1024"],
    ["monodromy", "--tol-residual", "0.02"],
    ["monodromy", "--steps", "4"],
]


def test_readme_and_benchmark_lines_parse_without_argparse(tmp_path):
    lines = README_LINES + _perfbench_lines(tmp_path)
    assert any(line[0] == "export" for line in lines)
    for argv in lines:
        fast = cli._parse_canonical(argv)
        assert fast is not None, argv
        assert _namespace(fast) == _argparse_namespace(argv)


def _valid_value(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    kind = keywords.get("type")
    if kind is int:
        return st.integers(min_value=0, max_value=10**6).map(str)
    if kind is float:
        return st.one_of(st.floats(min_value=0).map(repr),
                         st.sampled_from(["nan", "inf", "1e3", "1E-3",
                                          " 5", "5 ", "+2", "1_0"]))
    return st.text(max_size=8).filter(lambda text: not text.startswith("-"))


@st.composite
def _canonical_lines(draw):
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    flags = cli.COMMANDS[command][1]
    order = draw(st.permutations(list(flags)))
    required = [d for d in order if flags[d].get("required")]
    optional = [d for d in order if not flags[d].get("required")]
    chosen = set(required + optional[:draw(st.integers(0, len(optional)))])
    argv = [command]
    for dest in order:
        if dest in chosen:
            argv += [cli._option(dest), draw(_valid_value(flags[dest]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_canonical_lines())
def test_canonical_lines_parse_as_argparse_parses_them(argv):
    fast = cli._parse_canonical(argv)
    assert fast is not None
    assert _namespace(fast) == _argparse_namespace(argv)


ODD_TOKENS = [" 5", "1e3", "nan", "0x10", "", "-", "-0.5", "-3", "1.5",
              "Z", "cells", "perms", "I4", "--js", "--json=x", "--ste",
              "--base_t", "--only", "--target", "--path", "-h", "--help",
              "--version", "--", "stray", "verify-all"]


@st.composite
def _mangled_lines(draw):
    argv = draw(_canonical_lines())
    tokens = st.sampled_from(ODD_TOKENS) | st.text(max_size=4)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["insert", "replace", "value", "repeat",
                                     "drop"]))
        at = draw(st.integers(0, len(argv)))
        if edit == "value" and len(argv) > 2:   # a value, not its flag
            argv[2 * draw(st.integers(1, (len(argv) - 1) // 2))] = draw(tokens)
        elif edit == "insert":
            argv.insert(at, draw(tokens))
        elif edit == "replace" and at < len(argv):
            argv[at] = draw(tokens)
        elif edit == "repeat" and len(argv) > 2:
            pair = draw(st.integers(0, (len(argv) - 3) // 2))
            argv += argv[1 + 2 * pair:3 + 2 * pair]
        elif edit == "drop" and at < len(argv):
            del argv[at]
    return argv


@settings(max_examples=300, deadline=None)
@given(_mangled_lines())
def test_any_line_the_fast_parser_takes_parses_the_same(argv):
    fast = cli._parse_canonical(argv)
    if fast is not None:
        assert _namespace(fast) == _argparse_namespace(argv)


@pytest.mark.parametrize("argv", [
    ["monodromy", "--steps", "32", "--steps", "64"],    # a repeat
    ["monodromy", "--ste", "32"],                       # an abbreviation
    ["monodromy", "--steps=32"],
    ["monodromy", "--base-t", "-0.5"],                  # a negative number
    ["export", "--target", "I4", "--path", "-"],
    ["export", "--target", "I4"],                       # --path missing
    ["verify-all", "--only", "nonsense"],
    ["verify-all", "--json"],
    ["verify-all", "stray", "x"],
    ["cells", "--only", "cells"],                       # not a cells flag
    ["monodromy", "--steps", "1e3"],
    ["--version"], ["-h"], ["verify-all", "--help", "x"], [],
])
def test_other_lines_are_left_to_argparse(argv):
    assert cli._parse_canonical(argv) is None


# -S: no site hook may preload a module and hide the cost
@pytest.mark.parametrize("argv", [
    ["export", "--target", "I4", "--path", os.devnull, "--seed", "3"],
    ["verify-all"],
])
def test_canonical_line_loads_no_argparse(argv):
    code = ("import sys\n"
            "from bringcover import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print([m for m in ('argparse', 'gettext', 'locale')"
            " if m in sys.modules])\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_VERIFY_ALL_USAGE = """\
usage: bringcover verify-all [-h] [--json PATH]
                             [--only {cells,cover,dessins,monodromy,perms}]
                             [--steps STEPS] [--seed SEED] [--base-t BASE_T]
                             [--radius0 RADIUS0] [--radius1 RADIUS1]
                             [--radius-inf RADIUS_INF]
                             [--tol-residual TOL_RESIDUAL]
                             [--tol-match-ratio TOL_MATCH_RATIO]
                             [--tol-lambda TOL_LAMBDA]
"""
_EXPORT_USAGE = """\
usage: bringcover export [-h] --target {D,I4,union,J,sheet} --path PATH
                         [--steps STEPS] [--seed SEED] [--base-t BASE_T]
                         [--radius0 RADIUS0] [--radius1 RADIUS1]
                         [--radius-inf RADIUS_INF]
                         [--tol-residual TOL_RESIDUAL]
                         [--tol-match-ratio TOL_MATCH_RATIO]
                         [--tol-lambda TOL_LAMBDA]
"""
# (exit code, stdout, stderr) of each line, as the argparse-only parser
# printed them at 80 columns (Python 3.11's argparse)
ARGPARSE_OUTPUTS = {
    "--help": (0, """\
usage: bringcover [-h] [--version]
                  {cells,cover,dessins,monodromy,verify-all,export} ...

verification suite for the genus-4 moduli-cover dessin and its Bring-curve
Belyi pair

positional arguments:
  {cells,cover,dessins,monodromy,verify-all,export}
    cells               cell census of the moduli complexes
    cover               base surface and orientation double cover
    dessins             built dessins, passports, symmetries
    monodromy           numerically tracked Belyi monodromy
    verify-all          run every check
    export              write a dessin as DOT

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", ""),
    "--version": (0, "0.1.0\n", ""),
    "verify-all --only nonsense": (2, "", _VERIFY_ALL_USAGE + (
        "bringcover verify-all: error: argument --only: invalid choice: "
        "'nonsense' (choose from 'cells', 'cover', 'dessins', 'monodromy', "
        "'perms')\n")),
    "export --target Z": (2, "", _EXPORT_USAGE + (
        "bringcover export: error: argument --target: invalid choice: 'Z' "
        "(choose from 'D', 'I4', 'union', 'J', 'sheet')\n")),
}


@pytest.mark.parametrize("line", list(ARGPARSE_OUTPUTS))
def test_help_version_and_usage_errors_print_as_before(line):
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "bringcover.cli", *line.split()],
        capture_output=True, text=True,
        env={**os.environ, "COLUMNS": "80",
             "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == ARGPARSE_OUTPUTS[line]


def _buffered_env() -> dict:
    # a block-buffered stdout, which only the entry's flush writes out
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_piped_verify_all_prints_every_row():
    proc = subprocess.run(
        [sys.executable, "-m", "bringcover.cli", "verify-all"],
        capture_output=True, text=True, env=_buffered_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"bringcover {cli.__version__}"
    assert len(lines) == 31
    assert all(line.startswith("[") for line in lines[1:30])
    assert lines[30] == "PASS: 27 passed, 0 failed, 2 informational"


def _run_into_closed_pipe(argv, buffered):
    """(exit code, stderr) of the CLI with stdout a pipe whose reader is
    gone."""
    env = _buffered_env() if buffered else {**os.environ,
                                            "PYTHONUNBUFFERED": "1"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bringcover.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


_BROKEN_PIPE = (2, "error: cannot write to stdout: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_an_io_error(buffered):
    # a buffered stdout fails at the entry's flush, an unbuffered one in the
    # first print, out of main: either way one error line and exit code 2,
    # with no traceback and no "Exception ignored" report at teardown
    assert _run_into_closed_pipe(
        ["export", "--target", "I4", "--path", os.devnull], buffered) \
        == _BROKEN_PIPE


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["export", "--help"]],
                         ids=["help", "version", "export-help"])
def test_help_into_a_closed_stdout_pipe_is_an_io_error(argv, buffered):
    # argparse's own write drops the OSError; its SystemExit must not
    # skip the entry's flush either
    assert _run_into_closed_pipe(argv, buffered) == _BROKEN_PIPE


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["export", "--target", "I4", "--path", os.devnull], ["verify-all"],
    ["--help"], ["--version"], ["export", "--help"]],
    ids=["export", "verify-all", "help", "version", "export-help"])
def test_full_stdout_is_an_io_error(argv, buffered):
    # every write to /dev/full fails with ENOSPC, in a print or the flush
    env = _buffered_env() if buffered else {**os.environ,
                                            "PYTHONUNBUFFERED": "1"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bringcover.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert (proc.returncode, proc.stderr) == \
        (2, "error: cannot write to stdout: "
            "[Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv", [
    ["cells", "--js", "x"],
    ["export", "--target", "I4", "--pa", "x"],
])
def test_abbreviated_flags_are_usage_errors(argv, tmp_path, monkeypatch,
                                            capsys):
    # argparse would take --js for --json and --pa for --path and write x
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
