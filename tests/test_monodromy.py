"""The forked tracking of fine-resolution monodromy triples: the same
results and errors as the serial path, and no child left behind."""

import os
import subprocess
import sys

import pytest

from bringcover import monodromy, tracking
from bringcover.monodromy import FORK_STEPS, monodromy_triple
from bringcover.tracking import (
    DEFAULT_STEPS,
    TrackingConfig,
    TrackingError,
    loop_spec,
    track_loop,
)

LOOPS = (0, 1, "inf")
# every loop breaks its ratio test at once, each near its own t
ALL_FAIL = dict(tol_match_ratio=1e4)
# only the infinity loop does
INF_FAILS = dict(tol_match_ratio=300.0)


def _direct(cfg):
    return {p: track_loop(loop_spec(cfg, p), cfg) for p in LOOPS}


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _error(cfg):
    with pytest.raises(Exception) as info:
        monodromy_triple(cfg)
    _assert_no_child()
    return type(info.value), str(info.value)


def _serial_error(cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(monodromy, "FORK_STEPS", float("inf"))
        return _error(cfg)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the forks monodromy makes, counted through os.fork."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


# verify-all tracks at the default steps and their doubling
@pytest.mark.parametrize("steps, n_forks", [
    (FORK_STEPS, 2), (DEFAULT_STEPS, 0), (2 * DEFAULT_STEPS, 0)])
def test_forks_per_triple(forks, steps, n_forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monodromy_triple(TrackingConfig(steps=steps))
    assert len(forks) == n_forks


def test_one_cpu_does_not_fork(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monodromy_triple(TrackingConfig(steps=FORK_STEPS))
    assert forks == []


@pytest.mark.skipif(not monodromy._forks(TrackingConfig(steps=FORK_STEPS)),
                    reason="tracks serially on this machine")
@pytest.mark.parametrize("base_t", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("branch", range(4))
def test_forked_triple_equals_direct_tracks(branch, base_t):
    cfg = TrackingConfig(steps=FORK_STEPS, branch=branch, base_t=base_t)
    t = monodromy_triple(cfg)
    assert t.loops == _direct(cfg)
    assert list(t.loops) == list(LOOPS)
    _assert_no_child()


def test_forked_triple_equals_direct_tracks_at_the_benchmark_steps():
    cfg = TrackingConfig(steps=4096, branch=3, base_t=0.3)
    assert monodromy_triple(cfg).loops == _direct(cfg)
    _assert_no_child()


@pytest.mark.parametrize("overrides", [ALL_FAIL, INF_FAILS])
def test_forked_errors_are_the_serial_errors(overrides, monkeypatch):
    # no halving: the forked children inherit the patched limit
    monkeypatch.setattr(tracking, "MAX_DEPTH", 0)
    cfg = TrackingConfig(steps=FORK_STEPS, **overrides)
    got = _error(cfg)
    assert got[0] is TrackingError and "near t=" in got[1]
    assert got == _serial_error(cfg, monkeypatch)


@pytest.mark.parametrize("failing", [{1}, {1, "inf"}, {0, "inf"}])
def test_the_first_failing_loop_raises(failing, monkeypatch):
    def failing_track(spec, cfg):
        if spec.puncture in failing:
            raise TrackingError(f"loop {spec.puncture} failed")
        return track_loop(spec, cfg)

    monkeypatch.setattr(monodromy, "track_loop", failing_track)
    cfg = TrackingConfig(steps=FORK_STEPS)
    first = next(p for p in LOOPS if p in failing)
    assert _error(cfg) == (TrackingError, f"loop {first} failed")
    assert _serial_error(cfg, monkeypatch) == _error(cfg)


def test_loops_a_child_did_not_send_are_tracked_here(monkeypatch):
    parent = os.getpid()

    def child_fails(spec, cfg):
        if os.getpid() != parent:
            raise TrackingError("child failed")
        return track_loop(spec, cfg)

    monkeypatch.setattr(monodromy, "track_loop", child_fails)
    cfg = TrackingConfig(steps=FORK_STEPS)
    assert monodromy_triple(cfg).loops == _direct(cfg)
    _assert_no_child()


def test_a_failed_fork_tracks_the_loop_here(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process can be started")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = TrackingConfig(steps=FORK_STEPS)
    assert monodromy_triple(cfg).loops == _direct(cfg)


@pytest.mark.parametrize("failing_call", [1, 2])
def test_a_failed_pipe_tracks_the_loop_here(failing_call, monkeypatch):
    calls = []
    pipe = os.pipe

    def pipe_fails_once():
        calls.append(None)
        if len(calls) == failing_call:
            raise OSError(24, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", pipe_fails_once)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = TrackingConfig(steps=FORK_STEPS)
    assert monodromy_triple(cfg).loops == _direct(cfg)
    assert len(calls) == 2
    _assert_no_child()


# the first line, unflushed in a buffered stdout, sits in the buffer every
# child inherits
@pytest.mark.parametrize("entry", [
    ["-m", "bringcover.cli"],
    ["-c", "import sys; print('first line'); from bringcover import cli; "
           "cli.run(sys.argv[1:])"],
])
def test_cold_forking_run_prints_each_line_once(entry):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, *entry, "monodromy", "--steps", str(2 * FORK_STEPS)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("PASS: 6 passed")
    assert len(set(lines)) == len(lines)


# a run that passes, fails its checks, or rejects its config
@pytest.mark.parametrize("flags, code", [
    ([], 0),
    (["--tol-match-ratio", "1e4"], 1),
    (["--radius-inf", "1.001"], 2),
])
def test_cold_runs_leave_no_child(flags, code):
    # the entry ends a run that returns by os._exit, where no finally runs,
    # so the probe also runs in a wrapper over os._exit; the forked children
    # call it too, and only this process probes
    script = ("import os, sys\n"
              "from bringcover import cli\n"
              "def probe():\n"
              "    try:\n"
              "        os.waitpid(-1, os.WNOHANG)\n"
              "    except ChildProcessError:\n"
              "        print('no child', flush=True)\n"
              "entry, exit_now = os.getpid(), os._exit\n"
              "def probing_exit(code):\n"
              "    if os.getpid() == entry:\n"
              "        probe()\n"
              "    exit_now(code)\n"
              "os._exit = probing_exit\n"
              "try:\n"
              "    cli.run(sys.argv[1:])\n"
              "finally:\n"
              "    probe()\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "monodromy",
         "--steps", str(FORK_STEPS), *flags],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "no child"
