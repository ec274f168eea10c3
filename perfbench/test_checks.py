"""Tests of the benchmark itself: every workload passes its checks at a tiny
size, and each check fails on a log with one planted fault, so none of them
passes vacuously."""

from __future__ import annotations

import dataclasses
import json

import pytest

import run

run._import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from flipreset import config, harness  # noqa: E402


def tiny(name, tmp_path):
    return workloads.WORKLOADS[name](run.ROOT, tmp_path, 3, workloads.TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_at_tiny_size(name, tmp_path):
    trace = name == "policy-grid"
    out = run.measure(tiny(name, tmp_path), seconds=0.0, trace=trace)
    result = out["result"]
    assert out["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = declared["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["learner.softmax_forward_per_step"] == 3
        assert metrics["stream.unique_batch_ratio"] == pytest.approx(1 / 5)


@pytest.fixture(scope="module")
def collapse(tmp_path_factory):
    """A tiny collapse-abr workload and one abr log with several resets."""
    work = tiny("collapse-abr", tmp_path_factory.mktemp("collapse"))
    cfg = config.load_config(work.config_path)
    log = harness.run_experiment(cfg, work.seed, policy=cfg.policies["abr"], policy_name="abr")
    assert len(checks.reset_steps(log)) >= 3
    return work, log


def with_rows(log, changes: dict[int, dict]):
    rows = [dataclasses.replace(r, **changes.get(i, {})) for i, r in enumerate(log.rows)]
    return dataclasses.replace(log, rows=rows)


def shifted_reset(log):
    i = next(i for i, r in enumerate(log.rows) if r.reset)
    return with_rows(log, {i: {"reset": 0, "lam": None}, i + 1: {"reset": 1, "lam": log.rows[i].lam}})


def perturbed_ema(log):
    i = len(log.rows) // 2
    return with_rows(log, {i: {"lf_ema": log.rows[i].lf_ema + 1e-6}})


def test_log_checks_pass_on_the_program_output(collapse):
    work, log = collapse
    spec = work.spec("abr")
    assert checks.check_log(log, spec, **work.shape) == []
    assert work.replay(log, "abr", work.sizes.replay_steps) == []


@pytest.mark.parametrize("fault", [shifted_reset, perturbed_ema])
def test_log_and_scan_checks_catch_fault(collapse, fault):
    work, log = collapse
    bad = fault(log)
    spec = work.spec("abr")
    assert checks.check_scan(bad, spec)
    assert checks.check_log(bad, spec, **work.shape)


def test_replay_catches_shifted_reset(collapse):
    work, log = collapse
    assert work.replay(shifted_reset(log), "abr", work.sizes.replay_steps)


def test_export_checks_catch_changed_value(collapse, tmp_path):
    work, log = collapse
    path = harness.export_log(log, tmp_path / "log.csv")
    text = path.read_text(encoding="utf-8")
    assert checks.check_csv(text, log) == []
    assert checks.check_csv(text, perturbed_ema(log))
    assert checks.check_same_rows(perturbed_ema(log), log, "read-back")


def test_grid_check_catches_wrong_reset_count(tmp_path):
    work = tiny("policy-grid", tmp_path)
    cfg = config.load_config(work.config_path)
    logs = []
    with workloads.captured_runs(logs):
        summary = harness.compare_policies(cfg)
    by_cell = {(log.policy_name, log.seed): log for log in logs}
    specs = {name: work.spec(name) for name in cfg.policies}
    assert all(p == [] for p in checks.check_grid(summary, by_cell, specs, **work.shape).values())

    seed = summary.seeds[0]
    summary.cells["fixed_interval"][seed]["reset_count"] += 1
    problems = checks.check_grid(summary, by_cell, specs, **work.shape)
    assert problems[("fixed_interval", seed)]
    assert sum(bool(p) for p in problems.values()) == 1
