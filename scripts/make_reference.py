#!/usr/bin/env python3
"""Regenerate tests/data/reference_summary.json.

Runs the committed experiment configs end to end and records the per-seed
outcomes that the acceptance thresholds were pinned from. Rerun after any
change that intentionally moves the dynamics, then re-check the margins in
tests/test_acceptance.py against the fresh numbers; scripts/make_golden.py
regenerates the golden log digests.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the checkout's own sources, ahead of any installed copy
sys.path.insert(0, str(ROOT / "src"))

from flipreset.config import load_config
from flipreset.harness import run_experiment


def frozen_variant(config):
    learner = dataclasses.replace(config.learner, learning_rate=0.0, momentum=0.0)
    return dataclasses.replace(config, learner=learner)


def write_json(target: Path, data: dict) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {target}")


def main() -> int:
    collapse = load_config(ROOT / "configs" / "collapse.json")
    bad = load_config(ROOT / "configs" / "bad_timing.json")

    out: dict = {"collapse": {}, "bad_timing": {}}
    for seed in collapse.seeds:
        frozen = run_experiment(frozen_variant(collapse), seed, policy_name="frozen")
        no_reset = run_experiment(collapse, seed, policy=collapse.policies["no_reset"], policy_name="no_reset")
        abr = run_experiment(collapse, seed, policy=collapse.policies["abr"], policy_name="abr")
        out["collapse"][str(seed)] = {
            "frozen": frozen.summary(),
            "no_reset": no_reset.summary(),
            "abr": abr.summary(),
        }
        print(f"collapse seed {seed}: frozen={frozen.final_window_accuracy():.4f} "
              f"no_reset={no_reset.final_window_accuracy():.4f} abr={abr.final_window_accuracy():.4f} "
              f"(final-window)")

    for seed in bad.seeds:
        no_reset = run_experiment(bad, seed, policy=bad.policies["no_reset"], policy_name="no_reset")
        timing = run_experiment(bad, seed, policy=bad.policies["bad_timing"], policy_name="bad_timing")
        out["bad_timing"][str(seed)] = {"no_reset": no_reset.summary(), "bad_timing": timing.summary()}
        print(f"bad_timing seed {seed}: no_reset={no_reset.mean_accuracy():.4f} "
              f"bad_timing={timing.mean_accuracy():.4f} (mean)")

    collapse_seeds = [out["collapse"][str(s)] for s in collapse.seeds]
    out["derived"] = {
        "collapse_seeds_below_frozen_final": sum(
            c["no_reset"]["final_accuracy"] < c["frozen"]["final_accuracy"] for c in collapse_seeds
        ),
        "abr_mean_margin_min": min(
            c["abr"]["mean_accuracy"] - c["no_reset"]["mean_accuracy"] for c in collapse_seeds
        ),
        "abr_final_margin_aggregate": sum(
            c["abr"]["final_accuracy"] - c["no_reset"]["final_accuracy"] for c in collapse_seeds
        ) / len(collapse_seeds),
        "bad_timing_mean_aggregate": sum(
            out["bad_timing"][str(s)]["bad_timing"]["mean_accuracy"] for s in bad.seeds
        ) / len(bad.seeds),
        "no_reset_mean_aggregate_bad_stream": sum(
            out["bad_timing"][str(s)]["no_reset"]["mean_accuracy"] for s in bad.seeds
        ) / len(bad.seeds),
    }

    print()
    write_json(ROOT / "tests" / "data" / "reference_summary.json", out)
    for key, value in out["derived"].items():
        print(f"  {key}: {value:.4f}" if isinstance(value, float) else f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
