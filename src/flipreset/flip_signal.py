"""Label-flip trajectory tracking.

A flip score compares two snapshots of the same classifier on one batch:
samples whose predicted class changed contribute the newer snapshot's
confidence times its confidence gain. Per-step scores are smoothed with
an exponential moving average, and the running minimum of the smoothed
trajectory serves as the reference point for upward-trend detection.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["FlipSignalState", "observe_batch"]


def observe_batch(prev, curr, normalize: bool = True) -> float:
    """Raw flip score of two snapshots' predictions on the same batch.

    ``prev`` and ``curr`` carry per-sample ``classes`` and ``confidence``
    arrays over identical samples in identical order. The score sums
    flipped samples' ``conf_curr * (conf_curr - conf_prev)``; when
    ``normalize`` is set the sum is divided by the batch size so the
    trajectory is comparable across batch sizes.
    """
    prev_classes = np.asarray(prev.classes)
    curr_classes = np.asarray(curr.classes)
    if prev_classes.shape != curr_classes.shape:
        raise ValueError(
            f"prediction sets cover different sample counts: "
            f"{prev_classes.shape[0]} vs {curr_classes.shape[0]}"
        )
    n = prev_classes.size
    if n == 0:
        raise ValueError("empty batch")
    conf_curr = np.asarray(curr.confidence, dtype=float)
    conf_prev = np.asarray(prev.confidence, dtype=float)
    for name, conf in (("conf_curr", conf_curr), ("conf_prev", conf_prev)):
        # nan fails both comparisons, so this also rejects non-finite values
        if not (conf.min() >= 0.0 and conf.max() <= 1.0):
            raise ValueError(f"{name} outside [0, 1]")
    raw = float(((prev_classes != curr_classes) * conf_curr * (conf_curr - conf_prev)).sum())
    return raw / n if normalize else raw


class FlipSignalState:
    """Running smoothed flip trajectory and its minimum.

    One instance tracks one adaptation run. ``t`` counts every observed
    batch and survives resets; the EMA, the minimum and
    ``steps_since_reset`` restart at each :meth:`reset_signal`. Strictly
    sequential: confine each instance to one thread.
    """

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        self.alpha = alpha
        self.t = 0
        self.lf_ema: float | None = None
        self.lf_min: float | None = None
        self.t_min: int | None = None
        self.steps_since_reset = 0

    def update_ema(self, raw: float) -> None:
        """Absorb one raw score: seed on first use, else blend with weight alpha on the past."""
        if not math.isfinite(raw):
            raise ValueError(f"non-finite raw flip score: {raw}")
        self.t += 1
        self.steps_since_reset += 1
        if self.lf_ema is None:
            self.lf_ema = raw
        else:
            self.lf_ema = self.alpha * self.lf_ema + (1.0 - self.alpha) * raw

    def update_min(self) -> None:
        """Track the lowest smoothed value; ties keep the earlier step index."""
        if self.lf_ema is None:
            raise ValueError("update_min before any observation")
        if self.lf_min is None or self.lf_ema < self.lf_min:
            self.lf_min = self.lf_ema
            self.t_min = self.t

    def reset_signal(self) -> None:
        """Clear the trajectory after a re-initialization; the global step counter is kept."""
        self.lf_ema = None
        self.lf_min = None
        self.t_min = None
        self.steps_since_reset = 0
