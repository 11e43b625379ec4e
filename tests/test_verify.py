"""The check registry: each check's declaration decides its verdict."""

import dataclasses
import sys

import pytest

from bringcover import dessins, perms, quintic, tracking, verify

EQUALITY_CHECKS = [c for c in verify.CHECKS if c.verdict is None]


def test_verify_all_rows_and_modules():
    # the same counts the benchmark gates on, so a change to the registry
    # shows here first
    report = verify.run_checks()
    statuses = [c["status"] for c in report["checks"]]
    assert (statuses.count("pass"), statuses.count("info"),
            statuses.count("fail")) == (27, 2, 0)
    assert verify.MODULES == ("cells", "cover", "dessins", "monodromy",
                              "perms")
    assert {c.module for c in verify.CHECKS} == set(verify.MODULES)
    assert all(c.name.startswith(c.module + ".") for c in verify.CHECKS)


def test_verify_all_solves_one_quintic(monkeypatch):
    # the identities are exact and every loop starts from one cached base
    # solve: the triple, its doubling and the certificate share it
    roots5, calls = quintic.roots5, []

    def counting(*args, **kwargs):
        calls.append(args)
        return roots5(*args, **kwargs)

    monkeypatch.setattr(quintic, "roots5", counting)
    monkeypatch.setattr(tracking, "roots5", counting)
    tracking._base.cache_clear()
    assert verify.run_checks()["status"] == "pass"
    assert len(calls) == 1


def test_check_names_are_unique():
    names = [c.name for c in verify.CHECKS]
    assert len(names) == len(set(names)) == 29


def test_verdict_checks():
    verdicts = {c.name for c in verify.CHECKS if c.verdict is not None}
    assert verdicts == {"dessins.main_isomorphism",
                        "dessins.main_isomorphism_mirror_flag",
                        "monodromy.identities", "monodromy.quality",
                        "monodromy.printed_expression_weight"}
    assert len(EQUALITY_CHECKS) == 24


@pytest.mark.parametrize("check", EQUALITY_CHECKS, ids=lambda c: c.name)
def test_equality_check_fails_on_other_value(monkeypatch, check):
    sentinel = object()
    monkeypatch.setattr(verify, "CHECKS", [
        dataclasses.replace(check, fn=lambda ctx: sentinel)])
    (row,) = verify.run_checks(only=check.module)["checks"]
    assert row["name"] == check.name
    assert row["status"] == "fail"
    assert row["observed"] is sentinel
    assert row["expected"] == check.expected


def test_raising_check_fails_with_its_error(monkeypatch):
    def broken(ctx):
        raise ArithmeticError("boom")

    check = verify.CHECKS[0]
    monkeypatch.setattr(verify, "CHECKS", [
        dataclasses.replace(check, fn=broken)])
    (row,) = verify.run_checks(only=check.module)["checks"]
    assert (row["status"], row["observed"], row["expected"]) == \
        ("fail", "ArithmeticError: boom", "no error")


@pytest.fixture(scope="module")
def full_report():
    return verify.run_checks()


@pytest.mark.parametrize("module", verify.MODULES)
def test_only_subset_matches_full_run(full_report, module):
    # a result must not depend on which --only subset runs: the rows of a
    # fresh subset run equal that module's rows of the full run
    rows = [r for r in full_report["checks"]
            if r["name"].startswith(module + ".")]
    assert rows
    subset = verify.run_checks(verify.Context(), only=module)
    assert subset["checks"] == rows


def test_a_failed_build_is_built_once():
    # every later reader sees the first build's exception, unbuilt again
    ctx = verify.Context()
    calls = []

    def failing():
        calls.append(None)
        raise ArithmeticError("no triple")

    raised = []
    for _ in range(3):
        with pytest.raises(ArithmeticError, match="no triple") as info:
            ctx._get("triple", failing)
        raised.append(info.value)
    assert len(calls) == 1
    assert raised[0] is raised[1] is raised[2]


def test_dessins_rows_take_no_whole_group_path(monkeypatch):
    # the group rows prove their groups from a presentation pair, so no
    # row may fall back to the whole group, its free action or the
    # witness search, at any binding of them in the package
    def refuse(*args, **kwargs):
        raise AssertionError("whole-group path taken")

    patched = set()
    for original in (dessins.automorphism_group, dessins.acts_freely,
                     perms.identify_closure):
        for name, module in list(sys.modules.items()):
            if name == "bringcover" or name.startswith("bringcover."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
                        patched.add(f"{name}.{attr}")
    assert "bringcover.verify.identify_closure" in patched
    report = verify.run_checks(only="dessins")
    assert {r["name"]: r["status"] for r in report["checks"]
            if r["status"] not in ("pass", "info")} == {}
    assert len(report["checks"]) == 12
