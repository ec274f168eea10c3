"""Experiment harness: wires stream, learner and reset policy into
long-horizon runs, logs per-step metrics, and compares policies across seeds.

Randomness is split into channels so the policy choice can never perturb the
data: batches derive from (seed, batch index) alone, the schedule from its
own channel, and learner init/pretraining from a third.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from itertools import islice
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
    "LogColumns",
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
_INTS = tuple(i for i, f in enumerate(fields(LogRow)) if f.type == "int")
_NULLABLE = tuple(i for i, f in enumerate(fields(LogRow)) if f.type.endswith(" | None"))
_REQUIRED = tuple(i for i in range(len(_COLUMNS)) if i not in _NULLABLE)
_RESET = list(_COLUMNS).index("reset")
# rows are built, formatted and parsed this many at a time, so that no pass
# over a long log holds all of it as Python objects or text
_CHUNK = 1024


def _cells(float_format: str) -> list[str]:
    """Each field's cell in a file format's row template: an int as %d, a
    float in the format's own way, and a nullable float as text, formatted
    first so that NaN, for None, can read as the format's null."""
    return [
        "%s" if i in _NULLABLE else "%d" if f.type == "int" else float_format
        for i, f in enumerate(fields(LogRow))
    ]


# per file format: row template, float format and null
_CSV_TEXT = (",".join(_cells("%.9g")) + "\n", "%.9g", "")
# a JSON-lines row is the text json.dumps gives the row's dict: floats as
# float.__repr__ writes them and None as null
_JSON_TEXT = ("{" + ", ".join(map('"{}": {}'.format, _COLUMNS.values(), _cells("%r"))) + "}\n", "%r", "null")
_json_values = itemgetter(*_COLUMNS.values())


def _rows(block: np.ndarray) -> list[LogRow]:
    """The rows of a block of columns, as built-in values."""
    cols = block.tolist()
    for i in _INTS:
        cols[i] = map(int, cols[i])
    for i in _NULLABLE:
        cols[i] = [None if v != v else v for v in cols[i]]
    return list(map(LogRow, *cols))


def _text(block: np.ndarray, template: str, fmt: str, null: str) -> str:
    """The rows of a block of columns, written by a file format's row template."""
    cols = block.tolist()
    for i in _NULLABLE:
        cols[i] = [null if v != v else fmt % v for v in cols[i]]
    return "".join(map(template.__mod__, zip(*cols)))


class LogColumns(Sequence[LogRow]):
    """A log's rows held as one float64 column per :class:`LogRow` field.

    The store is sized up front, to a run's horizon. ``None`` is stored as
    NaN, which is unambiguous because every stored float is finite: a row
    given as a :class:`LogRow` is checked, and the run loop's own values are
    finite by its checks. It reads as a sequence of rows, each built on
    access and never kept, so a row costs 80 bytes however often it is read.
    """

    def __init__(self, capacity: int = 0) -> None:
        self._columns = np.empty((len(_COLUMNS), capacity))
        self._n = 0

    @classmethod
    def from_rows(cls, rows: Sequence[LogRow]) -> LogColumns:
        """A store holding ``rows``; raises ValueError, naming the row's ``t``,
        if a float in one is NaN or infinite, a field that cannot be empty is
        None, an int field holds a bool or a non-integer, or ``reset`` is
        neither 0 nor 1."""
        store = cls(len(rows))
        for row in rows:
            values = _row_values(row)
            if not all(v is None or math.isfinite(v) for v in values):
                raise ValueError(f"non-finite value in the log row at t={row.t}")
            if any(values[i] is None for i in _REQUIRED):
                raise ValueError(f"empty required field in the log row at t={row.t}")
            if not all(isinstance(values[i], (int, np.integer)) and type(values[i]) is not bool for i in _INTS):
                raise ValueError(f"non-integer value in an integer field of the log row at t={row.t}")
            if values[_RESET] not in (0, 1):
                raise ValueError(f"reset other than 0 or 1 in the log row at t={row.t}")
            store.append(values)
        return store

    @classmethod
    def _of(cls, columns: np.ndarray) -> LogColumns:
        store = cls()
        store._columns, store._n = columns, columns.shape[1]
        return store

    def append(self, values: tuple) -> None:
        """Add one row, given as its field values in :class:`LogRow` order;
        raises IndexError if the store is full."""
        self._columns[:, self._n] = values
        self._n += 1

    def column(self, name: str) -> np.ndarray:
        """A read-only view of one field's values, NaN where a row has None."""
        view = self._columns[list(_COLUMNS).index(name), : self._n]
        view.flags.writeable = False
        return view

    def blocks(self) -> Iterator[np.ndarray]:
        """The columns of consecutive rows, at most ``_CHUNK`` rows at a time."""
        for start in range(0, self._n, _CHUNK):
            yield self._columns[:, start : min(start + _CHUNK, self._n)]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _rows(self._columns[:, : self._n][:, index])
        i = operator.index(index)
        if not -self._n <= i < self._n:
            raise IndexError(f"log row index {i} out of range for {self._n} rows")
        i %= self._n
        return _rows(self._columns[:, i : i + 1])[0]

    def __iter__(self) -> Iterator[LogRow]:
        for block in self.blocks():
            yield from _rows(block)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"LogColumns({self._n} rows)"


@dataclass
class ExperimentLog:
    """Per-step rows for one run, plus abort marker when a run diverged.

    ``rows`` may be given as a list of :class:`LogRow`; it is held as a
    :class:`LogColumns` store.
    """

    policy_name: str
    seed: int
    rows: Sequence[LogRow] = field(default_factory=LogColumns)
    aborted_at: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.rows, LogColumns):
            self.rows = LogColumns.from_rows(self.rows)

    def mean_accuracy(self) -> float:
        return float(np.mean(self.rows.column("accuracy")))

    def final_window_accuracy(self) -> float:
        """Mean accuracy over the last 10 % of the rows (at least one row)."""
        n = max(1, int(round(0.1 * len(self.rows))))
        return float(np.mean(self.rows.column("accuracy")[-n:]))

    def reset_count(self) -> int:
        return int(self.rows.column("reset").sum())

    def reset_steps(self) -> list[int]:
        rows = self.rows
        return rows.column("t")[rows.column("reset") != 0].astype(int).tolist()

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

    Raises :class:`DivergenceError`, with the partial log and the failing
    step, only if a stream batch, the weights or the predictions go non-finite.
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

    horizon = config.stream.horizon
    log = ExperimentLog(policy_name=policy_name, seed=seed, rows=LogColumns(horizon))
    append = log.rows.append

    def diverged(t: int, what: str) -> DivergenceError:
        log.aborted_at = t
        return DivergenceError(f"non-finite {what}", step=t, log=log)

    for t in range(1, horizon + 1):
        batch = sample_batch(schedule, t, source, config.batch_size)
        if not np.isfinite(batch.features).all():
            raise diverged(t, "features")
        prev_pred, curr_pred = adapt_batch(model, batch.features, loss)
        if not np.isfinite(model.theta).all():
            raise diverged(t, "parameters")
        if not (np.isfinite(prev_pred.confidence).all() and np.isfinite(curr_pred.confidence).all()):
            raise diverged(t, "predictions")
        accuracy = int(np.count_nonzero(curr_pred.classes == batch.labels)) / len(batch.labels)
        raw = observe_batch(prev_pred, curr_pred, normalize=config.normalize_flip)
        state.update_ema(raw)
        state.update_min()
        # capture signal values before a reset clears them
        lf_ema, lf_min = state.lf_ema, state.lf_min
        decision = policy_step(policy, state, model)
        append((
            t, batch.domain_index, accuracy, raw, lf_ema, lf_min,
            decision.slope, decision.threshold, decision.reinitialize, decision.lam,
        ))
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
            form = _CSV_TEXT
        else:
            meta = {"policy": log.policy_name, "seed": log.seed, "aborted_at": log.aborted_at}
            fh.write(json.dumps(meta) + "\n")
            form = _JSON_TEXT
        fh.writelines(_text(block, *form) for block in log.rows.blocks())
    return path


def _non_finite(constant: str) -> float:
    raise ValueError(f"non-finite value {constant} in the log")


def import_log_jsonl(path: str | Path) -> ExperimentLog:
    """Inverse of the JSON-lines export; field-for-field round trip."""
    with open(path, encoding="utf-8") as fh:
        lines = (line for line in fh if line != "\n")  # newlines read as "\n", blank lines skipped
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty log file")
        meta = json.loads(first)
        decode = json.JSONDecoder(parse_constant=_non_finite).decode
        blocks = [np.empty((len(_COLUMNS), 0))]
        while chunk := list(islice(lines, _CHUNK)):
            # one decode per chunk of lines, transposed into columns, in
            # which numpy reads each null as NaN
            try:
                rows = decode("[" + ",".join(chunk) + "]")
            except json.JSONDecodeError:
                rows = []
            if len(rows) != len(chunk):
                # one line is one row: decoding the lines one at a time raises
                # at the first that is not exactly one JSON value
                rows = list(map(decode, chunk))
            cols = list(zip(*map(_json_values, rows)))
            # checked here, as the float columns would read true as 1.0 and a
            # t of 1.5 back as 1; a null is reported as an empty required field
            if any({*map(type, cols[i])} - {int, type(None)} for i in _INTS):
                raise ValueError(f"{path}: non-integer value in an integer field of the log")
            try:
                block = np.array(cols, dtype=float)
                # every integer below 2**53 in size is a float exactly; only a
                # chunk with a larger number has its integers compared one by one
                exact = not (np.abs(block) >= 2**53).any() or all(
                    float(v) == v for col in cols for v in col if type(v) is int
                )
            except OverflowError:  # an integer past the largest float
                exact = False
            if not exact:
                raise ValueError(f"{path}: integer that no float64 holds exactly in the log")
            blocks.append(block)
    columns = np.concatenate(blocks, axis=1)
    if np.isinf(columns).any():  # a number too large for a float
        raise ValueError(f"{path}: non-finite value in the log")
    if any(np.isnan(columns[i]).any() for i in _REQUIRED):
        raise ValueError(f"{path}: null in a required field of the log")
    if ((columns[_RESET] != 0) & (columns[_RESET] != 1)).any():
        raise ValueError(f"{path}: reset other than 0 or 1 in the log")
    return ExperimentLog(
        policy_name=meta["policy"],
        seed=int(meta["seed"]),
        rows=LogColumns._of(columns),
        aborted_at=meta["aborted_at"],
    )
