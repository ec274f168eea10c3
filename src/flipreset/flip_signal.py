"""Label-flip trajectory tracking.

A flip score compares two snapshots of the same classifier on one batch:
samples whose predicted class changed contribute the newer snapshot's
confidence times its confidence gain. Per-step scores are smoothed with
an exponential moving average, and the running minimum of the smoothed
trajectory serves as the reference point for upward-trend detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FlipObservation", "FlipSignalState", "observe_batch"]


@dataclass(frozen=True)
class FlipObservation:
    """Per-sample flip records for one batch.

    ``flipped[i]`` is true iff the two snapshots disagree on sample i's
    predicted class; ``conf_curr`` / ``conf_prev`` are each snapshot's
    probability of its own predicted class.
    """

    flipped: np.ndarray
    conf_curr: np.ndarray
    conf_prev: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.flipped)
        if n < 1:
            raise ValueError("empty batch")
        if len(self.conf_curr) != n or len(self.conf_prev) != n:
            raise ValueError("record arrays must have equal length")
        for name, conf in (("conf_curr", self.conf_curr), ("conf_prev", self.conf_prev)):
            # nan fails both comparisons, so this also rejects non-finite values
            if not (conf.min() >= 0.0 and conf.max() <= 1.0):
                raise ValueError(f"{name} outside [0, 1]")

    @property
    def batch_size(self) -> int:
        return len(self.flipped)


def observe_batch(prev, curr, normalize: bool = True) -> tuple[FlipObservation, float]:
    """Compare two snapshots' predictions on the same batch.

    ``prev`` and ``curr`` carry per-sample ``classes`` and ``confidence``
    arrays over identical samples in identical order. The raw score sums
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
    if prev_classes.size == 0:
        raise ValueError("empty batch")

    obs = FlipObservation(
        flipped=prev_classes != curr_classes,
        conf_curr=np.asarray(curr.confidence, dtype=float),
        conf_prev=np.asarray(prev.confidence, dtype=float),
    )
    raw = float((obs.flipped * obs.conf_curr * (obs.conf_curr - obs.conf_prev)).sum())
    if normalize:
        raw /= obs.batch_size
    return obs, raw


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
