"""Correctness checks the benchmark applies to every workload's outputs.

Nothing here imports ``flipreset``. The replays re-derive the adapt-and-reset
loop from its published definition (linear softmax over ``theta = [W.ravel(),
b]``, momentum SGD, flip score, EMA with weight ``alpha`` on the past, running
minimum, slope trigger, shrink-restore blend) in plain numpy, so a fault in
the program cannot also hide in its own check. Logs are read by duck typing:
any object with ``rows`` of ``t, domain, accuracy, lf_raw, lf_ema, lf_min,
reset, lam`` works.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

ALPHA = 0.5  # EMA weight on the past, fixed by the method
LAMBDA_EPS = 1e-12  # below this both signal values count as zero in the lambda rule
ENTROPY_EPS = 1e-12  # log guard inside the entropy loss
# The prefix replay recomputes matrix products in its own order, so flip
# scores may differ from the program's in the last few bits.
LF_RAW_RTOL = 1e-6
CSV_RTOL = 1e-8  # the CSV export rounds to 9 significant digits
MIN_REPLAY_RESETS = 2  # the replays of one workload must exercise the reset path


@dataclass(frozen=True)
class PolicySpec:
    """What the checks need to know about the policy that produced a log."""

    kind: str  # no_reset | fixed_interval | random_timing | hard_reset | abr
    beta: float = 2e-6
    warmup_steps: int = 10
    time_unit_scale: float = 64.0
    period: int = 0
    times: tuple[int, ...] = ()

    @property
    def adaptive(self) -> bool:
        return self.kind in ("hard_reset", "abr")


def columns(log) -> dict[str, list]:
    rows = log.rows
    return {
        "t": [r.t for r in rows],
        "domain": [r.domain for r in rows],
        "accuracy": [r.accuracy for r in rows],
        "lf_raw": [r.lf_raw for r in rows],
        "lf_ema": [r.lf_ema for r in rows],
        "lf_min": [r.lf_min for r in rows],
        "reset": [r.reset for r in rows],
        "lam": [r.lam for r in rows],
    }


def reset_steps(log) -> list[int]:
    return [r.t for r in log.rows if r.reset]


def fingerprint(log) -> dict:
    """Dynamics fingerprint: a speed-up that changes the dynamics moves it."""
    steps = reset_steps(log)
    return {
        "resets": len(steps),
        "first_resets": steps[:5],
        "mean_accuracy": float(np.mean([r.accuracy for r in log.rows])),
    }


def _lambda(lf_ema: float, lf_min: float) -> float:
    cur, low = max(lf_ema, 0.0), max(lf_min, 0.0)
    if cur <= LAMBDA_EPS and low <= LAMBDA_EPS:
        return 0.5
    return cur / (cur + low)


class _Signal:
    """Smoothed flip trajectory, its minimum and the post-reset clock."""

    def __init__(self) -> None:
        self.ema = self.low = self.t_low = None
        self.since_reset = 0

    def update(self, t: int, raw: float) -> None:
        self.since_reset += 1
        self.ema = raw if self.ema is None else ALPHA * self.ema + (1.0 - ALPHA) * raw
        if self.low is None or self.ema < self.low:
            self.low, self.t_low = self.ema, t

    def decide(self, t: int, spec: PolicySpec) -> float | None:
        """Restore ratio if ``spec`` resets at step ``t``, else None."""
        if spec.kind == "fixed_interval":
            return 1.0 if t % spec.period == 0 else None
        if spec.kind == "random_timing":
            return 1.0 if t in spec.times else None
        if not spec.adaptive or self.since_reset <= spec.warmup_steps:
            return None
        dt = t - self.t_low
        if dt < 1 or not self.ema - self.low > spec.beta * math.sqrt(dt * spec.time_unit_scale):
            return None
        return 1.0 if spec.kind == "hard_reset" else _lambda(self.ema, self.low)

    def clear(self) -> None:
        self.__init__()


def scan_signal(lf_raw: list[float], spec: PolicySpec) -> dict[str, list]:
    """Cheap replay over a whole log: EMA, minimum, trigger and lambda from
    the logged raw flip scores alone."""
    sig = _Signal()
    out = {"lf_ema": [], "lf_min": [], "reset_steps": [], "lam": []}
    for t, raw in enumerate(lf_raw, start=1):
        sig.update(t, raw)
        out["lf_ema"].append(sig.ema)
        out["lf_min"].append(sig.low)
        lam = sig.decide(t, spec)
        if lam is not None:
            out["reset_steps"].append(t)
            out["lam"].append(lam)
            sig.clear()
    return out


def check_scan(log, spec: PolicySpec) -> list[str]:
    """The logged EMA, minimum, reset steps and lambdas follow from ``lf_raw``."""
    cols = columns(log)
    want = scan_signal(cols["lf_raw"], spec)
    problems = []
    for key in ("lf_ema", "lf_min"):
        bad = [t for t, a, b in zip(cols["t"], cols[key], want[key]) if a != b]
        if bad:
            problems.append(f"{key} differs from the scan at t={bad[:3]}")
    got_steps = [t for t, r in zip(cols["t"], cols["reset"]) if r]
    if got_steps != want["reset_steps"]:
        problems.append(f"reset steps differ from the scan: {_first_diff(got_steps, want['reset_steps'])}")
    else:
        got_lam = [lam for lam, r in zip(cols["lam"], cols["reset"]) if r]
        if got_lam != want["lam"]:
            problems.append("restore ratios differ from the scan")
    return problems


def _first_diff(a: list, b: list) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"#{i}: log {x} vs expected {y}"
    return f"log has {len(a)}, expected {len(b)}"


def _softmax(theta: np.ndarray, x: np.ndarray, n_classes: int) -> np.ndarray:
    n_features = x.shape[1]
    w = theta[: n_classes * n_features].reshape(n_classes, n_features)
    z = x @ w.T + theta[n_classes * n_features :]
    z = np.exp(z - z.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _gradient(theta: np.ndarray, x: np.ndarray, n_classes: int, loss: str, q: float) -> np.ndarray:
    """Gradient of the mean entropy, or of ``(1 - p^q) / q`` on argmax pseudo-labels."""
    p = _softmax(theta, x, n_classes)
    n = len(x)
    if loss == "entropy":
        dp = -(np.log(p + ENTROPY_EPS) + p / (p + ENTROPY_EPS))
        dz = p * (dp - (dp * p).sum(axis=1, keepdims=True))
    else:
        rows = np.arange(n)
        label = p.argmax(axis=1)
        pq = p[rows, label] ** q
        dz = p * pq[:, None]
        dz[rows, label] -= pq
    dz /= n
    return np.concatenate([(dz.T @ x).ravel(), dz.sum(axis=0)])


def replay_prefix(
    theta_source: np.ndarray,
    batch_at,
    steps: int,
    spec: PolicySpec,
    *,
    n_classes: int,
    learning_rate: float,
    momentum: float,
    loss: str = "entropy",
    q: float = 0.8,
) -> dict[str, list]:
    """Re-run the first ``steps`` batches from the source weights.

    ``batch_at(t)`` returns batch t's ``(features, labels)``. Returns the
    per-step raw flip score and accuracy, and the reset steps.
    """
    theta = np.array(theta_source, dtype=float)
    before = theta.copy()
    velocity = np.zeros_like(theta)
    sig = _Signal()
    out = {"lf_raw": [], "accuracy": [], "reset_steps": []}
    for t in range(1, steps + 1):
        x, y = batch_at(t)
        p_before, p_now = _softmax(before, x, n_classes), _softmax(theta, x, n_classes)
        c_before, c_now = p_before.argmax(axis=1), p_now.argmax(axis=1)
        rows = np.arange(len(x))
        conf_before, conf_now = p_before[rows, c_before], p_now[rows, c_now]
        flipped = c_before != c_now
        out["lf_raw"].append(float(np.sum(flipped * conf_now * (conf_now - conf_before))) / len(x))
        out["accuracy"].append(float(np.mean(c_now == y)))
        before = theta.copy()
        velocity = momentum * velocity + _gradient(theta, x, n_classes, loss, q)
        theta = theta - learning_rate * velocity
        sig.update(t, out["lf_raw"][-1])
        lam = sig.decide(t, spec)
        if lam is not None:
            out["reset_steps"].append(t)
            if lam == 1.0:
                theta = np.array(theta_source, dtype=float)
            elif lam != 0.0:
                theta = lam * theta_source + (1.0 - lam) * theta
            before = theta.copy()
            velocity = np.zeros_like(theta)
            sig.clear()
    return out


def check_replay(log, replay: dict[str, list]) -> list[str]:
    """The log's first ``len(replay)`` rows agree with an independent replay."""
    steps = len(replay["lf_raw"])
    rows = log.rows[:steps]
    problems = []
    if len(rows) < steps:
        return [f"log has {len(rows)} rows, replay covers {steps}"]
    got_steps = [r.t for r in rows if r.reset]
    if got_steps != replay["reset_steps"]:
        problems.append(f"reset steps differ from the replay: {_first_diff(got_steps, replay['reset_steps'])}")
    bad_raw = [
        r.t for r, want in zip(rows, replay["lf_raw"])
        if not math.isclose(r.lf_raw, want, rel_tol=LF_RAW_RTOL, abs_tol=1e-15)
    ]
    if bad_raw:
        problems.append(f"lf_raw differs from the replay at t={bad_raw[:3]}")
    bad_acc = [r.t for r, want in zip(rows, replay["accuracy"]) if r.accuracy != want]
    if bad_acc:
        problems.append(f"accuracy differs from the replay at t={bad_acc[:3]}")
    return problems


def check_log(log, spec: PolicySpec, *, horizon: int, batches_per_domain: int, batch_size: int) -> list[str]:
    """Shape and policy properties every log must have."""
    cols = columns(log)
    problems = []
    if cols["t"] != list(range(1, horizon + 1)):
        problems.append(f"steps are not 1..{horizon}")
    if any(d != (t - 1) // batches_per_domain for t, d in zip(cols["t"], cols["domain"])):
        problems.append("domain index does not follow (t-1) // batches_per_domain")
    if any(a * batch_size != round(a * batch_size) for a in cols["accuracy"]):
        problems.append(f"accuracy not a multiple of 1/{batch_size}")
    steps = [t for t, r in zip(cols["t"], cols["reset"]) if r]
    lams = [lam for lam, r in zip(cols["lam"], cols["reset"]) if r]
    if spec.kind == "no_reset" and steps:
        problems.append(f"no_reset reset at {steps[:3]}")
    if spec.kind == "fixed_interval" and len(steps) != horizon // spec.period:
        problems.append(f"fixed_interval reset {len(steps)} times, expected {horizon // spec.period}")
    if spec.kind == "random_timing" and tuple(steps) != tuple(t for t in spec.times if t <= horizon):
        problems.append(f"random_timing reset at {steps}, expected {list(spec.times)}")
    if spec.kind != "abr" and any(lam != 1.0 for lam in lams):
        problems.append(f"{spec.kind} restore ratio is not always 1")
    if spec.adaptive:
        gaps = [b - a for a, b in zip([0] + steps, steps)]
        if any(g <= spec.warmup_steps for g in gaps):
            problems.append(f"resets within {spec.warmup_steps} steps of each other")
    return problems + check_scan(log, spec)


def check_grid(summary, logs: dict, specs: dict[str, PolicySpec], **shape) -> dict[tuple, list[str]]:
    """Problems per grid cell ``(policy, seed)``: its log passes
    :func:`check_log` and agrees with its summary entry, and ``hard_reset``
    and ``abr`` fire first at the same step."""
    problems = {}
    for name, spec in specs.items():
        for seed in summary.seeds:
            cell = summary.cells[name][seed]
            log = logs.get((name, seed))
            if log is None or cell.get("failed"):
                problems[(name, seed)] = ["cell failed or no log"]
                continue
            found = check_log(log, spec, **shape)
            if cell["reset_count"] != len(reset_steps(log)):
                found.append(f"summary reset count {cell['reset_count']} != log's {len(reset_steps(log))}")
            if cell["mean_accuracy"] != float(np.mean([r.accuracy for r in log.rows])):
                found.append("summary mean accuracy != log's")
            problems[(name, seed)] = found
    for seed in summary.seeds:
        if ("hard_reset", seed) in logs and ("abr", seed) in logs:
            hard, abr = (reset_steps(logs[(n, seed)])[:1] for n in ("hard_reset", "abr"))
            if hard != abr:
                problems[("abr", seed)].append(f"first reset {abr} != hard_reset's {hard}")
    return problems


def check_same_rows(a, b, what: str) -> list[str]:
    if len(a.rows) != len(b.rows):
        return [f"{what}: {len(a.rows)} rows vs {len(b.rows)}"]
    bad = [x.t for x, y in zip(a.rows, b.rows) if x != y]
    return [f"{what}: rows differ at t={bad[:3]}"] if bad else []


def check_csv(text: str, log) -> list[str]:
    """The CSV export parses back to the log within 9 significant digits."""
    reader = csv.DictReader(io.StringIO(text))
    parsed = list(reader)
    if len(parsed) != len(log.rows):
        return [f"CSV has {len(parsed)} rows, log has {len(log.rows)}"]
    fields = ("t", "domain", "reset", "accuracy", "lf_raw", "lf_ema", "lf_min", "slope", "threshold", "lambda")
    for line, row in zip(parsed, log.rows):
        for column in fields:
            want, got = getattr(row, "lam" if column == "lambda" else column), line.get(column)
            if want is None:
                ok = got == ""
            else:
                ok = bool(got) and math.isclose(float(got), want, rel_tol=CSV_RTOL, abs_tol=0.0)
            if not ok:
                return [f"CSV column {column} at t={row.t}: {got!r} vs {want!r}"]
    return []
