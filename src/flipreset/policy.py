"""Reset policies: when to re-initialize an adapting model (the fire rule) and
how much source-model weight to restore when doing so (the restore rule).
Each policy kind is one row of the rule table ``_RULES``:

    no_reset         never                   --
    fixed_interval   every ``period`` steps  1.0
    random_timing    at preset ``times``     1.0
    hard_reset       adaptive trigger        1.0
    abr              adaptive trigger        ``force_lambda`` if set, else compute_lambda

The adaptive trigger fires when the smoothed flip trajectory rises off its
running minimum faster than a threshold that shrinks as 1/sqrt(elapsed time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flip_signal import FlipSignalState
from .learner import ModelState

LAMBDA_EPS = 1e-12

__all__ = [
    "TriggerConfig",
    "PolicyDecision",
    "NoReset",
    "FixedInterval",
    "RandomTiming",
    "HardReset",
    "BalancedReset",
    "ResetPolicy",
    "POLICY_KINDS",
    "policy_name",
    "slope",
    "trigger_check",
    "compute_lambda",
    "blend_weights",
    "policy_step",
]


@dataclass(frozen=True)
class TriggerConfig:
    """Slope-trigger parameters.

    ``beta`` is quoted per sample; ``time_unit_scale`` (samples per step,
    normally the batch size) converts the state's step clock into sample
    units before the threshold comparison.
    """

    beta: float = 2e-6
    warmup_steps: int = 10
    time_unit_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if not self.time_unit_scale > 0:
            raise ValueError("time_unit_scale must be > 0")
        # the threshold one step after the minimum, the largest one logged
        if not math.isfinite(self.beta * math.sqrt(self.time_unit_scale)):
            raise ValueError(f"beta {self.beta} overflows the threshold at {self.time_unit_scale} samples per step")


class PolicyDecision(NamedTuple):
    """Per-step verdict. ``lam`` is the restore ratio, present iff re-initializing."""

    lam: float | None = None
    slope: float | None = None
    threshold: float | None = None
    delta_lf: float | None = None
    delta_t: int | None = None

    @property
    def reinitialize(self) -> bool:
        return self.lam is not None


@dataclass(frozen=True)
class NoReset:
    """Adapt forever; never re-initialize."""


@dataclass(frozen=True)
class FixedInterval:
    """Full restore every ``period`` steps, regardless of the signal."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")


@dataclass(frozen=True)
class RandomTiming:
    """Full restore at a preset, strictly increasing list of step indices."""

    times: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.times and self.times[0] < 1:
            raise ValueError(f"times must be step indices >= 1, got {self.times[0]}")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class HardReset:
    """Adaptive trigger, but restore the source weights entirely."""

    trigger: TriggerConfig = TriggerConfig()


@dataclass(frozen=True)
class BalancedReset:
    """Adaptive trigger with shrink-restore blending.

    ``force_lambda`` overrides the adaptive restore ratio; with 1.0 this
    reproduces :class:`HardReset` (ablation knob).
    """

    trigger: TriggerConfig = TriggerConfig()
    force_lambda: float | None = None

    def __post_init__(self) -> None:
        if self.force_lambda is not None and not 0.0 <= self.force_lambda <= 1.0:
            raise ValueError("force_lambda outside [0, 1]")


ResetPolicy = NoReset | FixedInterval | RandomTiming | HardReset | BalancedReset


def policy_name(policy: ResetPolicy) -> str:
    """Canonical config-file name of a policy variant."""
    return _RULES[type(policy)][0]


def _rise(state: FlipSignalState) -> tuple[float, int] | None:
    """``(delta_lf, delta_t)`` from the trajectory minimum to the current
    value; None while undefined (unseeded state or zero elapsed steps)."""
    if state.lf_ema is None or state.lf_min is None or state.t_min is None:
        return None
    delta_t = state.t - state.t_min
    if delta_t < 1:
        return None
    return state.lf_ema - state.lf_min, delta_t


def slope(state: FlipSignalState) -> float | None:
    """Rise per step from the trajectory minimum to the current value.

    Returns None while undefined (unseeded state or zero elapsed steps);
    callers must treat that as "no trigger".
    """
    rise = _rise(state)
    return None if rise is None else rise[0] / rise[1]


def threshold_value(delta_t: int, cfg: TriggerConfig) -> float:
    """Per-step slope threshold ``delta_t`` steps after the minimum:
    beta * sqrt(scale) / sqrt(delta_t).

    Comparing the per-step slope against this value is, up to rounding, the
    bound beta / sqrt(delta_t * scale) on the per-sample slope.
    """
    return cfg.beta * math.sqrt(cfg.time_unit_scale) / math.sqrt(delta_t)


def _fires(state: FlipSignalState, rise: tuple[float, int] | None, cfg: TriggerConfig) -> bool:
    if rise is None or state.steps_since_reset <= cfg.warmup_steps:
        return False
    delta_lf, delta_t = rise
    return delta_lf > cfg.beta * math.sqrt(delta_t * cfg.time_unit_scale)


def trigger_check(state: FlipSignalState, cfg: TriggerConfig) -> bool:
    """True iff the smoothed trajectory rose fast enough since its minimum.

    Evaluates ``delta_lf > beta * sqrt(delta_t * scale)``: the logged
    ``slope > threshold`` rearranged to avoid the division, equal to it up
    to rounding; always false during the post-reset warm-up window.
    """
    return _fires(state, _rise(state), cfg)


def compute_lambda(state: FlipSignalState) -> float:
    """Restore ratio: current value over (current + minimum), both clamped at 0.

    Degenerate all-zero case falls back to a balanced 0.5.
    """
    lf_curr = max(float(state.lf_ema), 0.0)
    lf_min = max(float(state.lf_min), 0.0)
    if lf_curr <= LAMBDA_EPS and lf_min <= LAMBDA_EPS:
        return 0.5
    return lf_curr / (lf_curr + lf_min)


def blend_weights(
    theta_source: np.ndarray, theta_prev: np.ndarray, lam: float
) -> np.ndarray:
    """Convex blend ``lam*source + (1-lam)*prev``, element-wise.

    The endpoints return exact copies so a full restore is bitwise equal to
    the source weights.
    """
    if theta_source.shape != theta_prev.shape:
        raise ValueError(
            f"shape mismatch: {theta_source.shape} vs {theta_prev.shape}"
        )
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam outside [0, 1]: {lam}")
    if lam == 0.0:
        return theta_prev.copy()
    if lam == 1.0:
        return theta_source.copy()
    return lam * theta_source + (1.0 - lam) * theta_prev


def _adaptive_fires(policy: HardReset | BalancedReset, state: FlipSignalState, rise) -> bool:
    return _fires(state, rise, policy.trigger)


# per policy kind: config-file name, fire rule (policy, state, rise) -> bool,
# and restore rule (policy, state) -> restore ratio, read only when it fires
_RULES = {
    NoReset: ("no_reset", lambda p, st, rise: False, None),
    FixedInterval: ("fixed_interval", lambda p, st, rise: st.t >= 1 and st.t % p.period == 0, lambda p, st: 1.0),
    RandomTiming: ("random_timing", lambda p, st, rise: st.t in p.times, lambda p, st: 1.0),
    HardReset: ("hard_reset", _adaptive_fires, lambda p, st: 1.0),
    BalancedReset: (
        "abr", _adaptive_fires, lambda p, st: compute_lambda(st) if p.force_lambda is None else p.force_lambda
    ),
}
# config-file name of each policy variant
POLICY_KINDS: dict[str, type] = {kind: cls for cls, (kind, _, _) in _RULES.items()}


def policy_step(
    policy: ResetPolicy, state: FlipSignalState, model: ModelState
) -> PolicyDecision:
    """Evaluate a policy for the step just observed; apply the verdict.

    On a re-initialization the model's weights are blended toward the source,
    its previous-step snapshot and optimizer state start over, and the flip
    signal is cleared. Called once per adapted batch, after the signal update.
    """
    _, fires, restore = _RULES[type(policy)]
    rise = _rise(state)
    s = thr = delta_lf = delta_t = None
    if rise is not None:
        delta_lf, delta_t = rise
        s = delta_lf / delta_t
        if fires is _adaptive_fires:
            thr = threshold_value(delta_t, policy.trigger)

    lam = restore(policy, state) if fires(policy, state, rise) else None
    if lam is not None:
        model.replace_weights(blend_weights(model.theta_source, model.theta, lam))
        state.reset_signal()
    return PolicyDecision(lam, s, thr, delta_lf, delta_t)
