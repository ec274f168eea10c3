"""Golden logs: committed runs must reproduce their exported logs bit for bit.

The digests in tests/data/golden_logs.json are SHA-256 hashes of the
pretrained source weights (the raw bytes of ``theta_source``), of the
JSON-lines export (exact floats) and of the CSV export (9-digit floats).
Regenerate them with scripts/make_reference.py only for a change that is
meant to move the dynamics or a file format, and say so in CHANGES.md.
"""

import hashlib
import json

import pytest

from flipreset.config import load_config
from flipreset.harness import build_model, export_log, run_experiment

from conftest import CONFIG_DIR, DATA_DIR

GOLDEN = json.loads((DATA_DIR / "golden_logs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_log_is_bitwise_identical(name, tmp_path):
    entry = GOLDEN[name]
    config = load_config(CONFIG_DIR.parent / entry["config"])
    policy = entry["policy"]
    model, _ = build_model(config, entry["seed"])
    assert hashlib.sha256(model.theta_source.tobytes()).hexdigest() == entry["theta_source_sha256"]
    log = run_experiment(config, entry["seed"], policy=config.policies[policy], policy_name=policy, model=model)
    for fmt in ("jsonl", "csv"):
        path = export_log(log, tmp_path / f"{name}.{fmt}")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == entry[f"{fmt}_sha256"], fmt
