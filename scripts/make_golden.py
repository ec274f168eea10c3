#!/usr/bin/env python3
"""Regenerate tests/data/golden_logs.json.

Records the SHA-256 of the pretrained source weights and of the JSON-lines
and CSV exports of the runs in GOLDEN_RUNS, which tests/test_golden.py
requires to stay bitwise identical. Rerun only after a change that is meant
to move the dynamics or a file format.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from make_reference import ROOT, write_json

from flipreset.config import load_config
from flipreset.harness import build_model, export_log, run_experiment

# (config, policy, seed) whose exported logs are pinned bit for bit: the
# JSON-lines export writes floats exactly, the CSV export pins its own
# 9-digit formatting
GOLDEN_RUNS = {
    "quick": ("configs/quick.json", "abr", 0),
    "quick_no_reset": ("configs/quick.json", "no_reset", 0),
    "collapse": ("configs/collapse.json", "abr", 0),
    "bad_timing": ("configs/bad_timing.json", "bad_timing", 0),
    "rpl_hard_reset": ("configs/rpl_ramp.json", "hard_reset", 0),
    "rpl_fixed_interval": ("configs/rpl_ramp.json", "fixed_interval", 0),
    # K >= 8 runs the softmax row-major; K = 8 with an even batch draws its
    # labels from raw PCG64 words, K = 10 with an odd one from Generator.integers
    "k8": ("configs/k8.json", "abr", 0),
    "k10_odd": ("configs/k10_odd.json", "abr", 0),
}
GOLDEN_FORMATS = ("jsonl", "csv")


def golden_logs() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config_path, policy, seed) in GOLDEN_RUNS.items():
            config = load_config(ROOT / config_path)
            model, _ = build_model(config, seed)
            log = run_experiment(config, seed, policy=config.policies[policy], policy_name=policy, model=model)
            out[name] = {
                "config": config_path,
                "policy": policy,
                "seed": seed,
                "theta_source_sha256": hashlib.sha256(model.theta_source.tobytes()).hexdigest(),
            }
            for fmt in GOLDEN_FORMATS:
                path = export_log(log, Path(tmp) / f"{name}.{fmt}")
                out[name][f"{fmt}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"golden {name}: {policy} seed {seed}, {len(log.rows)} rows, "
                  f"sha256 jsonl {out[name]['jsonl_sha256']} csv {out[name]['csv_sha256']}")
    return out


def main() -> int:
    write_json(ROOT / "tests" / "data" / "golden_logs.json", golden_logs())
    return 0


if __name__ == "__main__":
    sys.exit(main())
