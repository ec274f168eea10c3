"""Experiment harness: wires stream, learner and reset policy into
long-horizon runs, logs per-step metrics, and compares policies across seeds.

Randomness is split into channels so the policy choice can never perturb the
data: batches derive from (seed, batch index) alone, the schedule from its
own channel, and learner init/pretraining from a third.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .flip_signal import FlipSignalState, observe_batch
from .learner import DivergenceError, ModelState, adapt_batch, pretrain_source
from .policy import ResetPolicy, policy_name as _policy_label, policy_step
from .stream import DomainSchedule, make_schedule, sample_batch

_LEARNER_CHANNEL = 2

__all__ = [
    "CSV_HEADER",
    "LOG_FORMATS",
    "LogRow",
    "ExperimentLog",
    "ComparisonSummary",
    "build_model",
    "build_schedule",
    "run_experiment",
    "compare_policies",
    "export_log",
    "import_log_jsonl",
]


@dataclass(frozen=True)
class LogRow:
    t: int
    domain: int
    accuracy: float
    lf_raw: float
    lf_ema: float
    lf_min: float
    slope: float | None
    threshold: float | None
    reset: int
    lam: float | None


# LogRow field -> its column name in both file formats, in file order
_COLUMNS = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(LogRow)}
CSV_HEADER = ",".join(_COLUMNS.values())
# the log file formats, named by the path suffix that selects each
LOG_FORMATS = (".csv", ".jsonl")
_row_values = attrgetter(*_COLUMNS)
# a CSV row is formatted by one template built from the field types, with
# the nullable fields passed through _opt first
_CSV_FORMATS = {"int": "%d", "float": "%.9g", "float | None": "%s"}
_CSV_ROW = ",".join(_CSV_FORMATS[f.type] for f in fields(LogRow)) + "\n"
_NULLABLE = tuple(i for i, f in enumerate(fields(LogRow)) if f.type.endswith(" | None"))
# a JSON-lines row is the text json.dumps gives a LogRow's dict, from one
# template; the float fields are put in as json writes them: None as null,
# and float.__repr__ also for numpy floats, whose repr reads np.float64(...)
_JSON_ROW = "{" + ", ".join(f'"{c}": %s' for c in _COLUMNS.values()) + "}\n"
_FLOATS = tuple(i for i, f in enumerate(fields(LogRow)) if f.type.startswith("float"))
_json_values = itemgetter(*_COLUMNS.values())


@dataclass
class ExperimentLog:
    """Per-step rows for one run, plus abort marker when a run diverged."""

    policy_name: str
    seed: int
    rows: list[LogRow] = field(default_factory=list)
    aborted_at: int | None = None

    def mean_accuracy(self) -> float:
        return float(np.mean([r.accuracy for r in self.rows]))

    def final_window_accuracy(self) -> float:
        """Mean accuracy over the last 10 % of the rows (at least one row)."""
        n = max(1, int(round(0.1 * len(self.rows))))
        return float(np.mean([r.accuracy for r in self.rows[-n:]]))

    def reset_count(self) -> int:
        return sum(r.reset for r in self.rows)

    def reset_steps(self) -> list[int]:
        return [r.t for r in self.rows if r.reset]

    def summary(self) -> dict:
        """The per-run record that comparisons and the reference data keep."""
        return {
            "mean_accuracy": self.mean_accuracy(),
            "final_accuracy": self.final_window_accuracy(),
            "reset_count": self.reset_count(),
        }


def build_schedule(config: ExperimentConfig, seed: int) -> DomainSchedule:
    """Per-seed schedule; an explicit domain list in the config overrides
    pseudo-random generation but keeps the seed for batch sampling."""
    sc = config.stream
    if sc.domains is not None:
        return DomainSchedule(
            domains=sc.domains,
            batches_per_domain=sc.batches_per_domain,
            transition=sc.transition,
            seed=seed,
        )
    return make_schedule(
        num_domains=sc.num_domains,
        batches_per_domain=sc.batches_per_domain,
        transition=sc.transition,
        seed=seed,
    )


def build_model(config: ExperimentConfig, seed: int) -> tuple[ModelState, float]:
    """Pretrain the source classifier for one seed, with the config's
    adaptation learning rate and momentum; returns (model, holdout accuracy)."""
    source = config.stream.source
    rng = np.random.default_rng([seed, _LEARNER_CHANNEL])
    pre = config.learner.pretrain
    features, labels = source.sample(pre.samples_per_class * source.n_classes, rng)
    model, holdout = pretrain_source(
        features,
        labels,
        n_classes=source.n_classes,
        epochs=pre.epochs,
        learning_rate=pre.learning_rate,
        rng=rng,
        holdout_fraction=pre.holdout_fraction,
    )
    learner = config.learner
    return replace(model, learning_rate=learner.learning_rate, momentum=learner.momentum), holdout


def run_experiment(
    config: ExperimentConfig,
    seed: int,
    policy: ResetPolicy | None = None,
    policy_name: str | None = None,
    *,
    model: ModelState | None = None,
) -> ExperimentLog:
    """One deterministic run: per batch, adapt, score the flip signal, let the
    policy act, and log one row.

    ``model``, the seed's source model from :func:`build_model`, saves the
    run its own pretraining: the run adapts a copy restarted at
    ``model.theta_source`` with zero velocity and leaves ``model`` unchanged.

    Raises :class:`DivergenceError` (carrying the partial log and the failing
    step) if the loss or parameters, or a batch of the stream, go non-finite.
    """
    policy = config.policy if policy is None else policy
    if policy_name is None:
        policy_name = _policy_label(policy)
    source = config.stream.source
    if model is None:
        model, _ = build_model(config, seed)
    model = replace(model, theta=model.theta_source)
    schedule = build_schedule(config, seed)
    loss = config.learner.adapt_loss
    state = FlipSignalState()

    log = ExperimentLog(policy_name=policy_name, seed=seed)
    for t in range(1, schedule.horizon + 1):
        try:
            # the stream's and the downstream guards (softmax, confidence
            # bounds, EMA) raise ValueError once the numerics blow up
            batch = sample_batch(schedule, t, source, config.batch_size)
            prev_pred, curr_pred = adapt_batch(model, batch.features, loss)
            if not np.isfinite(model.theta).all():
                raise ValueError(f"non-finite parameters at step {t}")
            accuracy = int(np.count_nonzero(curr_pred.classes == batch.labels)) / len(batch.labels)
            raw = observe_batch(prev_pred, curr_pred, normalize=config.normalize_flip)
            state.update_ema(raw)
        except ValueError as exc:
            log.aborted_at = t
            raise DivergenceError(str(exc), step=t, log=log) from exc
        state.update_min()
        # capture signal values before a reset clears them
        lf_ema, lf_min = state.lf_ema, state.lf_min
        decision = policy_step(policy, state, model)
        log.rows.append(
            LogRow(
                t=t,
                domain=batch.domain_index,
                accuracy=accuracy,
                lf_raw=raw,
                lf_ema=lf_ema,
                lf_min=lf_min,
                slope=decision.slope,
                threshold=decision.threshold,
                reset=int(decision.reinitialize),
                lam=decision.lam,
            )
        )
    return log


@dataclass
class ComparisonSummary:
    """Per-(policy, seed) stats plus aggregate mean +/- std across seeds."""

    seeds: tuple[int, ...]
    cells: dict[str, dict[int, dict]]  # policy -> seed -> stats

    def aggregate(self, policy: str, key: str) -> tuple[float, float]:
        values = [
            self.cells[policy][s][key]
            for s in self.seeds
            if not self.cells[policy][s].get("failed")
        ]
        if not values:
            return float("nan"), float("nan")
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return mean, std

    def table(self) -> str:
        """Policy rows with mean +/- std columns, accuracies in percent."""
        lines = [f"{'policy':<16} {'mean_acc':>16} {'final_acc':>16} {'resets':>8}"]
        for name in self.cells:
            failed = [s for s in self.seeds if self.cells[name][s].get("failed")]
            m, ms = self.aggregate(name, "mean_accuracy")
            f, fs = self.aggregate(name, "final_accuracy")
            r, _ = self.aggregate(name, "reset_count")
            row = (
                f"{name:<16} {100 * m:>8.2f} ± {100 * ms:<5.2f} "
                f"{100 * f:>8.2f} ± {100 * fs:<5.2f} {r:>8.1f}"
            )
            if failed:
                row += f"  [diverged: seeds {failed}]"
            lines.append(row)
        return "\n".join(lines)


def compare_policies(config: ExperimentConfig) -> ComparisonSummary:
    """Run every (policy, seed) cell of ``config.policies`` on bit-identical
    per-seed streams.

    Each seed's source model is pretrained once and every policy adapts a
    copy of it. A diverging cell is marked failed rather than sinking the
    comparison; a seed whose pretraining diverges fails all of its cells.
    """
    policies = config.policies
    if policies is None or len(policies) < 2:
        raise ValueError("compare_policies needs at least two policies")

    cells: dict[str, dict[int, dict]] = {name: {} for name in policies}
    for seed in config.seeds:
        try:
            model, _ = build_model(config, seed)
        except DivergenceError as exc:
            for name in policies:
                cells[name][seed] = {"failed": True, "aborted_at": exc.step}
            continue
        for name, policy in policies.items():
            try:
                log = run_experiment(config, seed, policy=policy, policy_name=name, model=model)
            except DivergenceError as exc:
                cells[name][seed] = {"failed": True, "aborted_at": exc.step}
                continue
            cells[name][seed] = log.summary()
    return ComparisonSummary(seeds=config.seeds, cells=cells)


def _opt(x: float | None) -> str:
    return "" if x is None else _CSV_FORMATS["float"] % x


def export_log(log: ExperimentLog, path: str | Path) -> Path:
    """Write a log in the format that the path's suffix names, one of
    :data:`LOG_FORMATS`."""
    path = Path(path)
    fmt = path.suffix.lower()
    if fmt not in LOG_FORMATS:
        raise ValueError(f"log path must end in {' or '.join(LOG_FORMATS)}, got {path.name!r}")
    path.parent.mkdir(parents=True, exist_ok=True)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == ".csv":
            fh.write(CSV_HEADER + "\n")
            for r in log.rows:
                values = list(_row_values(r))
                for i in _NULLABLE:
                    values[i] = _opt(values[i])
                fh.write(_CSV_ROW % tuple(values))
        else:
            meta = {"policy": log.policy_name, "seed": log.seed, "aborted_at": log.aborted_at}
            fh.write(json.dumps(meta) + "\n")
            for r in log.rows:
                values = list(_row_values(r))
                for i in _FLOATS:
                    v = values[i]
                    values[i] = (
                        "null" if v is None else float.__repr__(v) if isinstance(v, float) else json.dumps(v)
                    )
                line = _JSON_ROW % tuple(values)
                # only a non-finite float spells nan or inf: no column name does
                if "nan" in line or "inf" in line:
                    raise ValueError(f"non-finite value in the log row at t={r.t}")
                fh.write(line)
    return path


def import_log_jsonl(path: str | Path) -> ExperimentLog:
    """Inverse of the JSON-lines export; field-for-field round trip."""
    with open(path, encoding="utf-8") as fh:
        lines = (line for line in fh if line != "\n")  # newlines read as "\n", blank lines skipped
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty log file")
        meta = json.loads(first)
        log = ExperimentLog(
            policy_name=meta["policy"], seed=int(meta["seed"]), aborted_at=meta["aborted_at"]
        )
        decode = json.JSONDecoder().decode  # what json.loads calls for a str
        log.rows.extend(LogRow(*_json_values(decode(line))) for line in lines)
    return log
