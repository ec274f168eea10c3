"""Span tracing for the traced benchmark run.

The program is not edited. For the traced run, the public functions each
module's callers use are rebound, in the modules that call them, to wrappers
that record a span ``(name, start, end, parent)``; :func:`traced` restores
the originals on exit. Spans stay in memory and are folded into per-name
totals by :meth:`Tracer.fold`, once per traced round.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path

from flipreset import cli, config, harness, learner, policy
from flipreset.flip_signal import FlipSignalState

# (module or class whose attribute is looked up at call time, attribute, span name)
TARGETS = [
    (harness, "sample_batch", "stream.sample_batch"),
    (harness, "adapt_batch", "learner.adapt_batch"),
    (learner, "predict", "learner.predict"),
    (learner, "softmax_forward", "learner.softmax_forward"),
    (learner, "adapt_gradient", "learner.adapt_gradient"),
    (learner, "sgd_step", "learner.sgd_step"),
    (harness, "build_model", "harness.build_model"),
    (cli, "build_model", "harness.build_model"),
    (harness, "observe_batch", "flip_signal.observe_batch"),
    (FlipSignalState, "update_ema", "flip_signal.update_ema"),
    (FlipSignalState, "update_min", "flip_signal.update_min"),
    (harness, "policy_step", "policy.policy_step"),
    (policy, "blend_weights", "policy.blend_weights"),
    (harness, "run_experiment", "harness.run_experiment"),
    (cli, "run_experiment", "harness.run_experiment"),
    (harness, "export_log", "harness.export_log"),
    (cli, "export_log", "harness.export_log"),
    (harness, "import_log_jsonl", "harness.import_log_jsonl"),
    (config, "load_config", "config.load_config"),
    (cli, "load_config", "config.load_config"),
]


class Tracer:
    """Records nested spans on one thread and folds them into totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.batch_keys: set[tuple[int, int]] = set()
        # name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.softmax_in_steps = 0
        self.softmax_in_steps_s = 0.0
        self.distinct_batches = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if name == "harness.export_log":
            # one export name per format, taken from the target's suffix
            def span_name(args):
                return f"harness.export_log{Path(args[1]).suffix}"
        else:
            def span_name(args):
                return name

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name(args), start, end, parent)

        if name == "stream.sample_batch":
            keys = self.batch_keys

            @functools.wraps(fn)
            def keyed(schedule, t, *args, **kwargs):
                keys.add((schedule.seed, t))
                return traced_call(schedule, t, *args, **kwargs)

            return keyed
        return traced_call

    def fold(self) -> None:
        """Add the recorded spans to the totals and drop them.

        Batch keys count as distinct within one fold, so call it once per
        traced round: rounds repeat the same stream by design.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
            if name == "learner.softmax_forward" and self._under(i, "learner.adapt_batch"):
                self.softmax_in_steps += 1
                self.softmax_in_steps_s += end - start
        self.distinct_batches += len(self.batch_keys)
        self.batch_keys.clear()
        spans.clear()

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def mean_us(self, name: str) -> float:
        calls, inclusive, _ = self.totals.get(name, [0, 0.0, 0.0])
        return 1e6 * inclusive / calls if calls else 0.0

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]


@contextmanager
def traced(tracer: Tracer):
    """Rebind every target to a tracing wrapper; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(
    tracer: Tracer, *, rows_exported: int, rows_imported: int, log_mb: float, overhead_pct: float
) -> dict:
    """Per-layer metrics from the folded totals, as ``name -> (value, unit)``."""
    steps = tracer.calls("learner.adapt_batch")
    per_step = 1e6 / steps if steps else 0.0
    return {
        "stream.sample_batch_us": (tracer.mean_us("stream.sample_batch"), "us/call"),
        "stream.unique_batch_ratio": (
            tracer.distinct_batches / max(1, tracer.calls("stream.sample_batch")), "ratio"),
        "learner.adapt_batch_us": (tracer.mean_us("learner.adapt_batch"), "us/call"),
        "learner.softmax_forward_per_step": (tracer.softmax_in_steps / max(1, steps), "calls/step"),
        "learner.softmax_forward_us": (
            1e6 * tracer.softmax_in_steps_s / max(1, tracer.softmax_in_steps), "us/call"),
        "learner.gradient_us": (tracer.mean_us("learner.adapt_gradient"), "us/call"),
        "learner.sgd_step_us": (tracer.mean_us("learner.sgd_step"), "us/call"),
        "learner.pretrain_s": (tracer.mean_us("harness.build_model") / 1e6, "s/seed"),
        "flip_signal.observe_batch_us": (tracer.mean_us("flip_signal.observe_batch"), "us/call"),
        "flip_signal.update_us": (
            per_step * (tracer.inclusive_s("flip_signal.update_ema")
                        + tracer.inclusive_s("flip_signal.update_min")), "us/step"),
        "policy.policy_step_us": (tracer.mean_us("policy.policy_step"), "us/call"),
        "policy.blend_us": (tracer.mean_us("policy.blend_weights"), "us/reset"),
        "harness.loop_self_us": (per_step * tracer.self_s("harness.run_experiment"), "us/step"),
        "harness.log_mb": (log_mb, "MB"),
        "harness.export_csv_us_per_row": (
            1e6 * tracer.inclusive_s("harness.export_log.csv") / max(1, rows_exported), "us/row"),
        "harness.export_jsonl_us_per_row": (
            1e6 * tracer.inclusive_s("harness.export_log.jsonl") / max(1, rows_exported), "us/row"),
        "harness.import_jsonl_us_per_row": (
            1e6 * tracer.inclusive_s("harness.import_log_jsonl") / max(1, rows_imported), "us/row"),
        "config.load_config_ms": (tracer.mean_us("config.load_config") / 1e3, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
