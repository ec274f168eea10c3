"""Golden logs: committed runs must reproduce their exported logs bit for bit.

The digests in tests/data/golden_logs.json are SHA-256 hashes of the
pretrained source weights (the raw bytes of ``theta_source``), of the
JSON-lines export (exact floats) and of the CSV export (9-digit floats).
Regenerate them with scripts/make_golden.py only for a change that is
meant to move the dynamics or a file format, and say so in CHANGES.md.
"""

import functools
import hashlib
import json

import pytest

from flipreset.config import load_config
from flipreset.harness import build_model, export_log, import_log_jsonl, run_experiment
from flipreset.policy import BalancedReset

from conftest import CONFIG_DIR, DATA_DIR

GOLDEN = json.loads((DATA_DIR / "golden_logs.json").read_text(encoding="utf-8"))


@functools.cache
def golden_run(name):
    """A golden entry's source model and the log of its run, made once for
    every test that reads them."""
    entry = GOLDEN[name]
    config = load_config(CONFIG_DIR.parent / entry["config"])
    policy = entry["policy"]
    model, _ = build_model(config, entry["seed"])
    log = run_experiment(config, entry["seed"], policy=config.policies[policy], policy_name=policy, model=model)
    return model, log


def assert_exports_match(log, entry, tmp_path):
    for fmt in ("jsonl", "csv"):
        path = export_log(log, tmp_path / f"run.{fmt}")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == entry[f"{fmt}_sha256"], fmt


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_log_is_bitwise_identical(name, tmp_path):
    entry = GOLDEN[name]
    model, log = golden_run(name)
    assert hashlib.sha256(model.theta_source.tobytes()).hexdigest() == entry["theta_source_sha256"]
    assert_exports_match(log, entry, tmp_path)


def test_forced_full_restore_reproduces_hard_reset(tmp_path):
    # abr with force_lambda 1.0 fires on the same trigger and restores fully,
    # so its logs are hard_reset's, bit for bit
    entry = GOLDEN["rpl_hard_reset"]
    config = load_config(CONFIG_DIR.parent / entry["config"])
    forced = BalancedReset(config.policies["hard_reset"].trigger, force_lambda=1.0)
    log = run_experiment(config, entry["seed"], policy=forced, policy_name="hard_reset")
    assert_exports_match(log, entry, tmp_path)


@pytest.mark.parametrize("name", ["quick", "collapse", "rpl_hard_reset", "k8", "k10_odd"])
def test_logged_slope_rule_marks_every_reset(name, tmp_path):
    # the log contract: an adaptive policy resets at a row exactly when the
    # row is past warm-up and its slope exceeds its threshold
    entry = GOLDEN[name]
    policy = load_config(CONFIG_DIR.parent / entry["config"]).policies[entry["policy"]]
    log = import_log_jsonl(export_log(golden_run(name)[1], tmp_path / f"{name}.jsonl"))
    last_reset = 0
    for row in log.rows:
        if row.slope is None:
            assert row.reset == 0, row.t
        else:
            past_warmup = row.t - last_reset > policy.trigger.warmup_steps
            assert row.reset == int(past_warmup and row.slope > row.threshold), row.t
        if row.reset:
            last_reset = row.t
    assert log.reset_count() > 0
