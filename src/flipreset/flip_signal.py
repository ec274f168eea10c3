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
    trajectory is comparable across batch sizes. Raises ValueError, naming
    the argument at fault, unless all four arrays are 1-D of one nonzero
    length and both confidences lie in [0, 1].
    """
    prev_classes, curr_classes = np.asarray(prev.classes), np.asarray(curr.classes)
    conf_curr = np.asarray(curr.confidence, dtype=float)
    conf_prev = np.asarray(prev.confidence, dtype=float)
    shape = prev_classes.shape
    if not (len(shape) == 1 and curr_classes.shape == conf_curr.shape == conf_prev.shape == shape):
        raise _shape_fault(prev_classes, curr_classes, conf_curr, conf_prev)
    if not shape[0]:
        raise ValueError("empty batch")
    # one range test for both confidences, and a second only to name the one at fault
    if not _within_unit(np.minimum(conf_curr, conf_prev), np.maximum(conf_curr, conf_prev)):
        raise ValueError(f"{'conf_prev' if _within_unit(conf_curr, conf_curr) else 'conf_curr'} outside [0, 1]")
    # (flip * conf_curr) * gain, reassociated bit for bit: flip is 0 or 1
    # and both factors are finite
    score = conf_curr - conf_prev
    score *= conf_curr
    score *= prev_classes != curr_classes
    raw = float(np.add.reduce(score))
    return raw / shape[0] if normalize else raw


def _within_unit(low: np.ndarray, high: np.ndarray) -> bool:
    """Whether ``low`` has no entry below 0 and ``high`` none above 1; nan
    fails both comparisons, so a non-finite entry fails too."""
    return np.minimum.reduce(low) >= 0.0 and np.maximum.reduce(high) <= 1.0


def _shape_fault(prev_classes, curr_classes, conf_curr, conf_prev) -> ValueError:
    """The error naming the first of the four arrays whose shape is not the
    1-D shape of ``prev_classes``, or the classes if theirs is not 1-D."""
    if prev_classes.ndim != 1 or curr_classes.shape != prev_classes.shape:
        return ValueError(
            f"prediction sets cover different sample counts: classes must be 1-D of one length, "
            f"got shapes {prev_classes.shape} (prev) and {curr_classes.shape} (curr)"
        )
    name, conf = ("conf_curr", conf_curr) if conf_curr.shape != prev_classes.shape else ("conf_prev", conf_prev)
    return ValueError(f"{name} has shape {conf.shape}, but the classes have shape {prev_classes.shape}")


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
