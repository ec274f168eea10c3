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
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from itertools import chain, islice
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, exact_in_float64, shown
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
_ACCURACY = list(_COLUMNS).index("accuracy")
_RESET = list(_COLUMNS).index("reset")
_LAM = list(_COLUMNS).index("lam")
_NUMBER_TYPES = [(int, np.integer) if i in _INTS else (int, float, np.integer, np.floating) for i in range(len(_COLUMNS))]
# rows are built, formatted and parsed this many at a time, so that no pass
# over a long log holds all of it as Python objects or text
_CHUNK = 1024


def _cells(float_format: str, null: str, key: str, start: str, end: str) -> list[tuple[str, str]]:
    """Each field's cell in a file format's row, as the template of a value
    (an int as %d, a float in the format's own way) and the text of NaN,
    which stands for None: the format's null. Each cell carries its key; the
    first also carries the row's start and the last its end."""
    cells = []
    for i, name in enumerate(_COLUMNS.values()):
        lead, tail = (start if i == 0 else "") + key.format(name), end if i == len(_COLUMNS) - 1 else ""
        cells.append((lead + ("%d" if i in _INTS else float_format) + tail, lead + null + tail))
    return cells


# per file format: each field's cell and the text between two cells
_CSV_TEXT = (_cells("%.9g", null="", key="", start="", end="\n"), ",")
# a JSON-lines row is the text json.dumps gives the row's dict: floats as
# float.__repr__ writes them and None as null
_JSON_TEXT = (_cells("%r", null="null", key='"{}": ', start="{", end="}\n"), ", ")
_json_values = itemgetter(*_COLUMNS.values())
# each key of a JSON-lines log's meta line, with the test its value passes
_META = {
    "policy": (lambda v: type(v) is str, "a string"),
    "seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "aborted_at": (lambda v: v is None or type(v) is int and v >= 1, "null or an integer >= 1"),
}


def _broken_rule(cols: list[Sequence], t: int) -> np.ndarray | str:
    """The float64 block of a log's columns whose first row is expected at
    ``t``, or the first rule of :func:`_block` they break."""
    numbers, nones = [], 0
    for i, col in enumerate(cols):
        kinds = set(map(type, col))
        if type(None) in kinds:
            if i not in _NULLABLE:
                return "empty required field"
            # numpy would read None as NaN too, but at three times the cost
            nones += col.count(None)
            col = [math.nan if v is None else v for v in col]
        if any(k is bool or not issubclass(k, _NUMBER_TYPES[i]) for k in kinds - {type(None)}):
            return "non-integer value in an integer field" if i in _INTS else "non-numeric value in a float field"
        numbers.append(col)
    try:
        block = np.array(numbers, dtype=float).reshape(len(_COLUMNS), -1)
    except OverflowError:  # an integer past the largest float
        return "integer that no float64 holds exactly"
    # every integer below 2**53 in size is a float exactly; only a block with a
    # larger number has its integers compared one by one
    if (np.abs(block) >= 2**53).any() and not exact_in_float64(chain.from_iterable(cols)):
        return "integer that no float64 holds exactly"
    if np.count_nonzero(~np.isfinite(block)) != nones:
        return "non-finite value"  # a NaN that is not a None, or an infinity
    if ((block[_RESET] != 0) & (block[_RESET] != 1)).any():
        return "reset other than 0 or 1"
    # a run logs the share of a batch it classified right
    accuracy = block[_ACCURACY]
    if ((accuracy < 0) | (accuracy > 1)).any():
        return "accuracy outside [0, 1]"
    # a run logs its restore ratio, in [0, 1], exactly on its reset rows
    lam = block[_LAM]
    if not np.where(block[_RESET] != 0, (lam >= 0) & (lam <= 1), np.isnan(lam)).all():
        return "lambda outside [0, 1] on a reset row or not empty on another"
    # a run logs its rows at t = 1, 2, ..., and a block starts at row t
    if (wrong := np.flatnonzero(block[0] != np.arange(t, t + block.shape[1]))).size:
        return f"t out of sequence (expected {t + wrong[0]})"
    return block


def _block(cols: list[Sequence], t: int) -> np.ndarray:
    """The float64 block of a log's columns, each :class:`LogRow` field's
    values in field order, NaN for None, its first row expected at ``t``.
    Raises ValueError naming the first row, by its ``t``, where an int field
    holds other than an int, a float field other than a number (a bool is
    neither), a required field None, a float is not finite, an integer is
    one that no float64 holds exactly, ``reset`` is neither 0 nor 1,
    ``accuracy`` is not in [0, 1], ``lam`` is not in [0, 1] on a reset row
    or not None on another, or ``t`` is not one past the row before."""
    block = _broken_rule(cols, t)
    if isinstance(block, str):
        # one row at a time, once the whole block is known to break a rule
        for j, row_t in enumerate(cols[0]):
            if isinstance(rule := _broken_rule([col[j : j + 1] for col in cols], t + j), str):
                raise ValueError(f"{rule} in the log row at t={shown(row_t)}")
    return block


def _rows(block: np.ndarray) -> list[LogRow]:
    """The rows of a block of columns, as built-in values."""
    cols = block.tolist()
    for i in _INTS:
        cols[i] = map(int, cols[i])
    for i in _NULLABLE:
        cols[i] = [None if v != v else v for v in cols[i]]
    return list(map(LogRow, *cols))


def _text(block: np.ndarray, cells: list[tuple[str, str]], sep: str) -> str:
    """The rows of a block of columns, written in a file format's cells. Each
    distinct value of a column is formatted once, told apart by its bits so
    that -0.0 is not 0.0, and its text gathered to every row that holds it."""
    cols = []
    for col, (cell, null) in zip(block, cells):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        texts = [null if v != v else cell % v for v in bits.view(np.float64).tolist()]
        cols.append(np.array(texts, dtype=object).take(inverse).tolist())
    return "".join(map(sep.join, zip(*cols)))


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
        """A store holding ``rows``, at t = 1, 2, ...; raises ValueError as :func:`_block` does."""
        return cls._of(_block(list(zip(*map(_row_values, rows))), 1))

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
        """A read-only view of one :class:`LogRow` field's values, NaN where a
        row has None; raises ValueError for any other name."""
        if name not in _COLUMNS:
            raise ValueError(f"no log field {name!r}; the fields are {', '.join(_COLUMNS)}")
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
        """Mean accuracy over the rows; NaN for a log of none."""
        return _mean(self.rows.column("accuracy"))

    def final_window_accuracy(self) -> float:
        """Mean accuracy over the last 10 % of the rows (at least one row);
        NaN for a log of none."""
        n = max(1, int(round(0.1 * len(self.rows))))
        return _mean(self.rows.column("accuracy")[-n:])

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


def _mean(values: np.ndarray) -> float:
    """``np.mean(values)``, and NaN without numpy's warning when ``values`` is empty."""
    return float(np.mean(values)) if len(values) else math.nan


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
    """Pretrain the source classifier for one seed; returns (model, holdout accuracy)."""
    return pretrain_source(
        config.stream.source, config.learner.pretrain, np.random.default_rng([seed, _LEARNER_CHANNEL])
    )


@np.errstate(over="ignore", invalid="ignore")  # DivergenceError alone reports a divergence
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
    Whatever the model, the run adapts with ``config.learner``'s learning
    rate and momentum.

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
    learner = config.learner
    loss, learning_rate, momentum = learner.loss, learner.learning_rate, learner.momentum
    state = FlipSignalState()

    horizon, batch_size, normalize = config.stream.horizon, config.batch_size, config.normalize_flip
    log = ExperimentLog(policy_name=policy_name, seed=seed, rows=LogColumns(horizon))
    append = log.rows.append

    def diverged(t: int, what: str) -> DivergenceError:
        log.aborted_at = t
        return DivergenceError(f"non-finite {what}", step=t, log=log)

    for t in range(1, horizon + 1):
        features, labels, domain = sample_batch(schedule, t, source, batch_size)
        try:
            prev_pred, curr_pred = adapt_batch(model, features, loss, learning_rate, momentum)
        except ValueError:
            # softmax_forward rejects non-finite features in the first
            # prediction, before the model changes, so only its rejection
            # needs the finiteness test
            if not _all_finite(features):
                raise diverged(t, "features") from None
            raise
        if not _all_finite(model.theta):
            raise diverged(t, "parameters")
        try:
            raw = observe_batch(prev_pred, curr_pred, normalize=normalize)
        except ValueError:
            # observe_batch rejects every confidence outside [0, 1], nan and
            # inf among them, so only its rejection needs the finiteness test
            if not (_all_finite(prev_pred.confidence) and _all_finite(curr_pred.confidence)):
                raise diverged(t, "predictions") from None
            raise
        accuracy = int(np.count_nonzero(curr_pred.classes == labels)) / len(labels)
        state.update_ema(raw)
        state.update_min()
        # capture signal values before a reset clears them
        lf_ema, lf_min = state.lf_ema, state.lf_min
        decision = policy_step(policy, state, model)
        append((
            t, domain, accuracy, raw, lf_ema, lf_min,
            decision.slope, decision.threshold, decision.reinitialize, decision.lam,
        ))
    return log


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, without the method's Python wrapper."""
    return np.logical_and.reduce(np.isfinite(a), axis=None)


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
    copy of it. A diverging cell is marked failed, with its run's ``aborted_at``,
    rather than sinking the comparison; a seed whose pretraining diverges
    fails all of its cells, each with the 0-based ``pretraining_epoch``.
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
                cells[name][seed] = {"failed": True, "pretraining_epoch": exc.epoch}
            continue
        for name, policy in policies.items():
            try:
                log = run_experiment(config, seed, policy=policy, policy_name=name, model=model)
            except DivergenceError as exc:
                cells[name][seed] = {"failed": True, "aborted_at": exc.step}
                continue
            cells[name][seed] = log.summary()
    return ComparisonSummary(seeds=config.seeds, cells=cells)


def _check_meta(path, meta: dict, n_rows: int | None = None) -> None:
    """Raise ValueError naming ``path`` and the key unless each value of a
    JSON-lines log's ``meta`` passes its test in ``_META`` and, once the
    log's ``n_rows`` are given, ``aborted_at`` is null or the step after the
    last row, where a diverged run stops its log."""
    for key, (valid, kind) in _META.items():
        if not valid(meta[key]):
            raise ValueError(f"{path}: the meta line's {key} must be {kind}, got {meta[key]!r}")
    aborted_at = meta["aborted_at"]
    if n_rows is not None and aborted_at is not None and aborted_at != n_rows + 1:
        raise ValueError(
            f"{path}: the meta line's aborted_at must be null or the row count plus one, "
            f"{n_rows + 1}, got {aborted_at}"
        )


def export_log(log: ExperimentLog, path: str | Path) -> Path:
    """Write a log in the format that the path's suffix names, one of
    :data:`LOG_FORMATS`.

    Raises ValueError for a JSON-lines path, before the file is opened, if
    the log's policy name, seed or ``aborted_at`` is one that
    :func:`import_log_jsonl` rejects.
    """
    path = Path(path)
    fmt = path.suffix.lower()
    if fmt not in LOG_FORMATS:
        raise ValueError(f"log path must end in {' or '.join(LOG_FORMATS)}, got {path.name!r}")
    meta = {"policy": log.policy_name, "seed": log.seed, "aborted_at": log.aborted_at}
    if fmt == ".jsonl":
        _check_meta(path, meta, len(log.rows))
    path.parent.mkdir(parents=True, exist_ok=True)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == ".csv":
            fh.write(CSV_HEADER + "\n")
            form = _CSV_TEXT
        else:
            fh.write(json.dumps(meta) + "\n")
            form = _JSON_TEXT
        fh.writelines(_text(block, *form) for block in log.rows.blocks())
    return path


def _object(path, where: str, line: str, keys: Collection[str], sep: str) -> dict:
    """The object on the file's line that ``where`` names; raises ValueError
    naming both unless it is one JSON object of exactly ``keys``, each once."""
    try:
        # an object that writes a key twice stays a list of pairs, which the
        # key test below fails; json alone would keep the last value
        obj = json.loads(line, object_pairs_hook=lambda pairs: dict(pairs) if len(dict(pairs)) == len(pairs) else pairs)
    except ValueError as exc:  # not JSON, or past Python's digit limit
        if isinstance(exc, json.JSONDecodeError):  # its own line and column count within the line
            exc = f"{exc.msg} at column {exc.pos + 1}"
        raise ValueError(f"{path}: {where} is not readable JSON: {exc}") from None
    if type(obj) is not dict or obj.keys() != set(keys):
        raise ValueError(f"{path}: {where} must be an object of exactly the keys {sep.join(keys)}")
    return obj


def import_log_jsonl(path: str | Path) -> ExperimentLog:
    """Inverse of the JSON-lines export; field-for-field round trip.

    Raises ValueError naming the file if the meta line is not an object of
    the keys and values that the export writes, if a row line, named by its
    number, is not one JSON object of exactly the log's keys, if either
    writes a key twice, if a row breaks a rule of :func:`_block`, or if
    ``aborted_at`` is not null and not the step after the last row, where a
    diverged run stops its log. Of the row lines, the first at fault in the
    file is named.
    """
    with open(path, encoding="utf-8") as fh:
        # newlines read as "\n"; blank lines are skipped, but counted in
        # ``read``, the number of lines read so far
        for read, first in enumerate(fh, 1):
            if first != "\n":
                break
        else:
            raise ValueError(f"{path}: empty log file")
        meta = _object(path, "the meta line", first, _META, ", ")
        _check_meta(path, meta)
        blocks, n_rows = [np.empty((len(_COLUMNS), 0))], 0
        while chunk := list(islice(fh, _CHUNK)):
            texts = [line for line in chunk if line != "\n"]
            # one decode per chunk of lines, transposed into columns: one row a
            # line, each an object holding every key of the log, so 20 quote
            # bytes or more, and 20 a row in all, so that no row writes another
            # key, a key twice or a string (no UTF-8 multibyte sequence holds '"')
            joined = "[" + ",".join(texts) + "]"
            try:
                rows = json.loads(joined)
                values = list(map(_json_values, rows))
                quotes = np.count_nonzero(np.frombuffer(joined.encode(), np.uint8) == ord('"'))
                fits = len(rows) == len(texts) and quotes == 2 * len(_COLUMNS) * len(rows)
                block = _broken_rule(list(zip(*values)), n_rows + 1) if fits else None
            except (ValueError, KeyError, TypeError):  # ValueError: not JSON, or past Python's digit limit
                block = None
            if not isinstance(block, np.ndarray):
                # the chunk has a fault: walk its lines in order, up to the
                # first that is not one JSON object of exactly the log's keys
                # or whose row breaks a rule of _block; lines that each pass
                # alone pass together, so the walk always raises
                lines = ((n, line) for n, line in enumerate(chunk, read + 1) if line != "\n")
                for t, (n, line) in enumerate(lines, n_rows + 1):
                    row = _object(path, f"line {n}", line, _COLUMNS.values(), ",")
                    try:
                        _block([[v] for v in _json_values(row)], t)
                    except ValueError as exc:
                        raise ValueError(f"{path}: {exc}") from None
            blocks.append(block)
            read += len(chunk)
            n_rows += block.shape[1]
    columns = LogColumns._of(np.concatenate(blocks, axis=1))
    _check_meta(path, meta, len(columns))
    return ExperimentLog(policy_name=meta["policy"], seed=meta["seed"], rows=columns, aborted_at=meta["aborted_at"])
