"""The benchmark's three workloads.

A workload owns its generated configs and does whole rounds of identical
operations (a run or grid cell, an export, an import); :mod:`run` repeats
rounds until the run length is reached. Each round times only calls into
the program, then checks their outputs with :mod:`checks`. The first round
also runs the expensive checks: the independent replay and, for the grid,
the separate runs of the adaptive cells.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from checks import (
    MIN_REPLAY_RESETS,
    PolicySpec,
    check_csv,
    check_grid,
    check_log,
    check_replay,
    check_same_rows,
    fingerprint,
    replay_prefix,
)
from flipreset import cli, config, harness, stream
from flipreset.learner import DivergenceError

clock = time.perf_counter

# Fixed inputs of the calibration kernel; they never depend on --seed.
_CAL_RNG = np.random.default_rng(20260218)
_CAL_X = _CAL_RNG.normal(size=(64, 17))
_CAL_W = _CAL_RNG.normal(size=(17, 4))
CAL_ITERATIONS = 450
CAL_EVERY_STEPS = 500  # batches between calibration passes inside a run
# Times are scaled to a host on which one pass takes CAL_REF_S, about its
# time on the reference machine, using the passes within CAL_WINDOW_S of
# each operation.
CAL_REF_S = 0.010
CAL_WINDOW_S = 3.0

BATCH_SIZE = 64
BETA = 2e-6
WARMUP = 10
# Severity ranges of the program's own random schedules, reused for the
# domains the benchmark generates.
SEVERITY = {
    "gaussian_noise": (0.5, 2.5),
    "feature_rotation": (0.4, 1.5),
    "feature_scale": (0.5, 3.0),
    "mean_shift": (1.0, 4.0),
}
# Source pretraining of configs/collapse.json, shared by the generated configs.
COLLAPSE_PRETRAIN = {"samples_per_class": 500, "epochs": 150, "learning_rate": 0.5, "holdout_fraction": 0.2}


@dataclass(frozen=True)
class Sizes:
    """Work per round. ``collapse_domains=None`` keeps collapse.json's 100 domains."""

    collapse_domains: int | None
    replay_steps: int
    grid_seeds: int
    grid_domains: int
    grid_batches_per_domain: int
    grid_ramp: int
    short_seeds: int
    short_domains: int
    short_batches_per_domain: int


FULL = Sizes(None, 2000, 2, 8, 150, 60, 8, 3, 100)
TINY = Sizes(2, 200, 1, 2, 100, 40, 2, 2, 60)


def calibrate() -> float:
    """Seconds one pass of a fixed kernel takes: small softmax passes in a
    Python loop, the instruction mix of the program's step. It measures how
    fast the host is at that moment; see :class:`Calibration`."""
    t0 = clock()
    total = 0.0
    for _ in range(CAL_ITERATIONS):
        z = _CAL_X @ _CAL_W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        total += float(p.argmax(axis=1).mean())
    return clock() - t0


class Calibration:
    """The calibration passes of one benchmark run: one after every timed
    operation, and inside untraced runs one before every
    ``CAL_EVERY_STEPS``-th batch, so that a long run is calibrated while it
    runs. Timers take the passes made inside an operation out of its time."""

    def __init__(self) -> None:
        self.passes: list[tuple[float, float]] = []  # (start, seconds)
        self.inside_s = 0.0

    def take(self) -> float:
        t0 = clock()
        took = calibrate()
        self.passes.append((t0, took))
        return took

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of an operation that began at ``start``, scaled to a
        host on which a pass takes ``CAL_REF_S``: divided by the median of
        the passes made within ``CAL_WINDOW_S`` of it, or of all passes."""
        near = [s for t, s in self.passes if start - CAL_WINDOW_S <= t <= start + seconds + CAL_WINDOW_S]
        return seconds * CAL_REF_S / statistics.median(near or [s for _, s in self.passes])

    def elapsed(self, t0: float, inside0: float) -> float:
        """Seconds since ``clock() == t0`` less the passes made since then."""
        return clock() - t0 - (self.inside_s - inside0)

    @contextmanager
    def inside_runs(self):
        original = harness.sample_batch

        def sample_and_calibrate(schedule, t, *args, **kwargs):
            if t % CAL_EVERY_STEPS == 0:
                self.inside_s += self.take()
            return original(schedule, t, *args, **kwargs)

        harness.sample_batch = sample_and_calibrate
        try:
            yield
        finally:
            harness.sample_batch = original


@dataclass
class Round:
    """Timings, as (start, seconds), and operation counts of one round."""

    run_s: list[tuple[float, float]] = field(default_factory=list)
    run_steps: list[int] = field(default_factory=list)
    export_s: list[tuple[float, float]] = field(default_factory=list)
    import_s: list[tuple[float, float]] = field(default_factory=list)
    rows_exported: int = 0
    rows_imported: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: dict | None = None
    log_bytes: int = 0

    def op(self, problems: list[str], what: str) -> None:
        """Count one operation; it failed if any of its checks did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    @property
    def timed_s(self) -> float:
        return sum(s for _, s in self.run_s + self.export_s + self.import_s)


@contextmanager
def captured_runs(sink: list):
    """Keep every log ``run_experiment`` returns to the CLI or the grid."""
    original = harness.run_experiment

    def run_and_keep(*args, **kwargs):
        log = original(*args, **kwargs)
        sink.append(log)
        return log

    harness.run_experiment = cli.run_experiment = run_and_keep
    try:
        yield sink
    finally:
        harness.run_experiment = cli.run_experiment = original


def deep_size(obj) -> int:
    """Bytes held by an object graph, each object counted once."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item)
            todo.extend(item.values())
        elif hasattr(item, "__dict__"):
            todo.append(vars(item))
    return total


class Workload:
    """Shared set-up, export and replay steps; subclasses define rounds."""

    name = ""
    # times each round writes and reads back its exported log; more samples
    # where a round exports only one log
    export_repeats = 1

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: Sizes) -> None:
        self.root, self.workdir, self.seed, self.sizes = root, workdir, seed, sizes
        self.config_path = workdir / f"{self.name}.json"
        self.raw_config = self.make_config()
        self.config_path.write_text(json.dumps(self.raw_config, indent=1), encoding="utf-8")
        self.seeds = list(self.raw_config["seeds"])
        self.csv_digests: dict[str, str] = {}
        self.cal = Calibration()
        self.replayed_resets = 0

    def make_config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> list[str]:
        """Load the config, pretrain one seed's model and build its schedule."""
        cfg = config.load_config(self.config_path)
        _, holdout = harness.build_model(cfg, self.seeds[0])
        harness.build_schedule(cfg, self.seeds[0])
        k = cfg.stream.n_classes
        return [] if holdout > 1.0 / k else [f"holdout accuracy {holdout} not above 1/{k}"]

    def round(self, first: bool) -> Round:
        raise NotImplementedError

    def spec(self, policy_name: str) -> PolicySpec:
        p = self.raw_config["policies"][policy_name]
        return PolicySpec(
            kind=p["kind"],
            beta=p.get("beta", BETA),
            warmup_steps=p.get("warmup_steps", WARMUP),
            time_unit_scale=float(self.raw_config["batch_size"]),
            period=p.get("period", 0),
            times=tuple(p.get("times", ())),
        )

    @property
    def shape(self) -> dict:
        s = self.raw_config["stream"]
        n_domains = len(s["domains"]) if "domains" in s else s["num_domains"]
        return {
            "horizon": n_domains * s["batches_per_domain"],
            "batches_per_domain": s["batches_per_domain"],
            "batch_size": self.raw_config["batch_size"],
        }

    def export_and_import(self, log, stem: str, rnd: Round) -> None:
        """Export and import one log ``export_repeats`` times."""
        for _ in range(self.export_repeats):
            self.export_and_import_once(log, stem, rnd)

    def export_and_import_once(self, log, stem: str, rnd: Round) -> None:
        """Write one log as CSV and JSON-lines, read the JSON-lines back, check both."""
        csv_path, jsonl_path = self.workdir / f"{stem}.csv", self.workdir / f"{stem}.jsonl"
        t0 = clock()
        harness.export_log(log, csv_path)
        harness.export_log(log, jsonl_path)
        t1 = clock()
        back = harness.import_log_jsonl(jsonl_path)
        t2 = clock()
        rnd.export_s.append((t0, t1 - t0))
        rnd.import_s.append((t1, t2 - t1))
        self.cal.take()
        rnd.rows_exported += len(log.rows)
        rnd.rows_imported += len(back.rows)

        text = csv_path.read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        problems = check_csv(text.decode("utf-8"), log)
        if self.csv_digests.setdefault(stem, digest) != digest:
            problems.append("CSV differs from the first round's for the same seed")
        rnd.op(problems, f"export {stem}")
        problems = check_same_rows(back, log, "JSON-lines read-back")
        if (back.policy_name, back.seed, back.aborted_at) != (log.policy_name, log.seed, log.aborted_at):
            problems.append("JSON-lines header differs from the log")
        rnd.op(problems, f"import {stem}")

    def replay(self, log, policy_name: str, steps: int) -> list[str]:
        """Check a log's first ``steps`` rows against the independent replay."""
        cfg = config.load_config(self.config_path)
        model, _ = harness.build_model(cfg, log.seed)
        schedule = harness.build_schedule(cfg, log.seed)
        source = stream.SourceDistribution(
            cfg.stream.n_classes, cfg.stream.n_features, cfg.stream.class_separation
        )

        def batch_at(t):
            batch = stream.sample_batch(schedule, t, source, cfg.batch_size)
            return batch.features, batch.labels

        learner_cfg = self.raw_config["learner"]
        result = replay_prefix(
            model.theta_source,
            batch_at,
            steps,
            self.spec(policy_name),
            n_classes=cfg.stream.n_classes,
            learning_rate=learner_cfg["learning_rate"],
            momentum=learner_cfg["momentum"],
            loss=learner_cfg["loss"],
            q=learner_cfg.get("q", 0.8),
        )
        self.replayed_resets += len(result["reset_steps"])
        return check_replay(log, result)

    def replay_coverage(self) -> list[str]:
        """A quiet seed may not reset; the workload's replays together must."""
        if self.replayed_resets < MIN_REPLAY_RESETS:
            return [f"replays covered {self.replayed_resets} resets, need {MIN_REPLAY_RESETS}"]
        return []


class CollapseAbr(Workload):
    """configs/collapse.json under the abr policy, one seed, full horizon."""

    name = "collapse-abr"
    export_repeats = 4

    def make_config(self) -> dict:
        cfg = json.loads((self.root / "configs" / "collapse.json").read_text(encoding="utf-8"))
        if self.sizes.collapse_domains is not None:
            cfg["stream"]["num_domains"] = self.sizes.collapse_domains
        cfg["seeds"] = [self.seed]
        return cfg

    def round(self, first: bool) -> Round:
        rnd = Round()
        cfg = config.load_config(self.config_path)
        t0, inside0 = clock(), self.cal.inside_s
        try:
            log = harness.run_experiment(cfg, self.seed, policy=cfg.policies["abr"], policy_name="abr")
        except DivergenceError as exc:
            rnd.op([f"diverged at step {exc.step}"], "run")
            return rnd
        rnd.run_s.append((t0, self.cal.elapsed(t0, inside0)))
        rnd.run_steps.append(len(log.rows))
        self.cal.take()
        problems = check_log(log, self.spec("abr"), **self.shape)
        if first:
            problems += self.replay(log, "abr", min(self.sizes.replay_steps, len(log.rows)))
        rnd.op(problems, "run")
        self.export_and_import(log, f"abr-{self.seed}", rnd)
        rnd.fingerprint = fingerprint(log)
        rnd.log_bytes = deep_size(log)
        return rnd


class PolicyGrid(Workload):
    """One compare_policies call over all five policy kinds on a generated
    ramped, rpl-loss stream; every cell of a seed replays the same batches."""

    name = "policy-grid"
    export_repeats = 8

    def make_config(self) -> dict:
        s, rng = self.sizes, random.Random(f"{self.name}:{self.seed}")
        kinds = list(SEVERITY)
        domains, previous = [], None
        for _ in range(s.grid_domains):
            # neighbours differ in kind, so each ramp overlays two corruptions
            kind = rng.choice([k for k in kinds if k != previous])
            domains.append({"kind": kind, "severity": round(rng.uniform(*SEVERITY[kind]), 4)})
            previous = kind
        horizon = s.grid_domains * s.grid_batches_per_domain
        times = sorted(rng.sample(range(WARMUP + 1, horizon + 1), 4))
        return {
            "batch_size": BATCH_SIZE,
            "seeds": [self.seed * s.grid_seeds + i for i in range(s.grid_seeds)],
            "normalize_flip": True,
            "stream": {
                "batches_per_domain": s.grid_batches_per_domain,
                "transition": {"kind": "linear", "ramp_batches": s.grid_ramp},
                "n_classes": 4,
                "n_features": 16,
                "class_separation": 2.5,
                "domains": domains,
            },
            "learner": {
                "loss": "rpl",
                "q": 0.8,
                "learning_rate": 0.1,
                "momentum": 0.9,
                "pretrain": COLLAPSE_PRETRAIN,
            },
            "policy": {"kind": "abr", "beta": BETA, "warmup_steps": WARMUP},
            "policies": {
                "no_reset": {"kind": "no_reset"},
                "fixed_interval": {"kind": "fixed_interval", "period": rng.randint(horizon // 8, horizon // 3)},
                "random_timing": {"kind": "random_timing", "times": times},
                "hard_reset": {"kind": "hard_reset", "beta": BETA, "warmup_steps": WARMUP},
                "abr": {"kind": "abr", "beta": BETA, "warmup_steps": WARMUP},
            },
        }

    def round(self, first: bool) -> Round:
        rnd = Round()
        cfg = config.load_config(self.config_path)
        logs: list = []
        with captured_runs(logs):
            t0, inside0 = clock(), self.cal.inside_s
            summary = harness.compare_policies(cfg)
            rnd.run_s.append((t0, self.cal.elapsed(t0, inside0)))
        self.cal.take()
        by_cell = {(log.policy_name, log.seed): log for log in logs}
        rnd.run_steps.append(sum(len(log.rows) for log in logs))
        specs = {name: self.spec(name) for name in self.raw_config["policies"]}
        cell_problems = check_grid(summary, by_cell, specs, **self.shape)
        for (name, seed), problems in cell_problems.items():
            if first and name in ("abr", "hard_reset") and (name, seed) in by_cell:
                problems = problems + self.separate_run(cfg, by_cell[(name, seed)])
            rnd.op(problems, f"cell {name} seed {seed}")
        exported = by_cell.get(("abr", self.seeds[0]))
        if exported is not None:
            self.export_and_import(exported, f"grid-abr-{self.seeds[0]}", rnd)
            rnd.fingerprint = fingerprint(exported)
            rnd.log_bytes = deep_size(exported)
        return rnd

    def separate_run(self, cfg, cell_log) -> list[str]:
        """A run_experiment of the same cell, outside the timed call, equals
        the grid's and passes the replay."""
        name = cell_log.policy_name
        log = harness.run_experiment(cfg, cell_log.seed, policy=cfg.policies[name], policy_name=name)
        return check_same_rows(cell_log, log, "grid cell vs separate run") + self.replay(
            log, name, len(log.rows)
        )


class ShortRuns(Workload):
    """Many seeds of a short stream, each through the in-process CLI,
    exported as CSV and JSON-lines and read back."""

    name = "short-runs"

    def make_config(self) -> dict:
        s = self.sizes
        return {
            "batch_size": BATCH_SIZE,
            "seeds": [self.seed * s.short_seeds + i for i in range(s.short_seeds)],
            "normalize_flip": True,
            "stream": {
                "num_domains": s.short_domains,
                "batches_per_domain": s.short_batches_per_domain,
                "transition": "abrupt",
                "n_classes": 4,
                "n_features": 16,
                "class_separation": 2.5,
            },
            "learner": {
                "loss": "entropy",
                "learning_rate": 0.1,
                "momentum": 0.9,
                "pretrain": COLLAPSE_PRETRAIN,
            },
            "policy": {"kind": "abr", "beta": BETA, "warmup_steps": WARMUP},
            "policies": {"abr": {"kind": "abr", "beta": BETA, "warmup_steps": WARMUP}},
        }

    def round(self, first: bool) -> Round:
        rnd = Round()
        spec = self.spec("abr")
        for seed in self.seeds:
            logs: list = []
            argv = ["run", "--config", str(self.config_path), "--seed", str(seed), "--quiet"]
            with captured_runs(logs):
                t0, inside0 = clock(), self.cal.inside_s
                code = cli.main(argv)
                timing = (t0, self.cal.elapsed(t0, inside0))
            self.cal.take()
            if code != 0 or len(logs) != 1:
                rnd.op([f"CLI exited {code} with {len(logs)} logs"], f"run seed {seed}")
                continue
            log = logs[0]
            rnd.run_s.append(timing)
            rnd.run_steps.append(len(log.rows))
            problems = check_log(log, spec, **self.shape)
            if first:
                problems += self.replay(log, "abr", len(log.rows))
            rnd.op(problems, f"run seed {seed}")
            self.export_and_import(log, f"short-{seed}", rnd)
            if seed == self.seeds[0]:
                rnd.fingerprint = fingerprint(log)
                rnd.log_bytes = deep_size(log)
        return rnd


WORKLOADS = {w.name: w for w in (CollapseAbr, PolicyGrid, ShortRuns)}
