"""Synthetic long-horizon drifting streams.

Clean samples come from a fixed source distribution (class-conditional unit
Gaussians with separated means); each domain in a schedule overlays one
feature-space corruption. Batches are a pure function of (schedule seed,
batch index), so every policy replays a bit-identical stream and batches can
be generated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "CorruptionKind",
    "Domain",
    "Transition",
    "SourceDistribution",
    "DomainSchedule",
    "LabeledBatch",
    "make_schedule",
    "apply_corruption",
    "sample_batch",
]

# rng stream channels: schedule generation / per-batch sampling
_SCHEDULE_CHANNEL = 0
_BATCH_CHANNEL = 1


class CorruptionKind(str, Enum):
    GAUSSIAN_NOISE = "gaussian_noise"
    FEATURE_ROTATION = "feature_rotation"
    FEATURE_SCALE = "feature_scale"
    MEAN_SHIFT = "mean_shift"


# Severity is sigma for noise, radians for rotation, the additive factor for
# scaling (x * (1+severity)) and the shift magnitude for mean shift. Ranges
# chosen so frozen-source accuracy degrades without pinning at chance.
DEFAULT_SEVERITY_RANGES: dict[CorruptionKind, tuple[float, float]] = {
    CorruptionKind.GAUSSIAN_NOISE: (0.5, 2.5),
    CorruptionKind.FEATURE_ROTATION: (0.4, 1.5),
    CorruptionKind.FEATURE_SCALE: (0.5, 3.0),
    CorruptionKind.MEAN_SHIFT: (1.0, 4.0),
}


@dataclass(frozen=True)
class Domain:
    kind: CorruptionKind
    severity: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.severity) or self.severity < 0:
            raise ValueError(f"severity must be finite and >= 0, got {self.severity}")


@dataclass(frozen=True)
class Transition:
    """Domain handover: abrupt (one step) or a linear parameter ramp."""

    kind: str = "abrupt"
    ramp_batches: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("abrupt", "linear"):
            raise ValueError(f"transition kind must be abrupt|linear, got {self.kind!r}")
        if self.kind == "linear" and self.ramp_batches < 1:
            raise ValueError("linear transition needs ramp_batches >= 1")
        if self.kind == "abrupt" and self.ramp_batches:
            raise ValueError(f"abrupt transition takes no ramp_batches, got {self.ramp_batches}")


@dataclass(frozen=True)
class SourceDistribution:
    """Class-conditional unit Gaussians; class k's mean is separation * e_k."""

    n_classes: int = 4
    n_features: int = 16
    class_separation: float = 2.5

    def __post_init__(self) -> None:
        if self.n_classes < 2 or self.n_features < self.n_classes:
            raise ValueError("need >= 2 classes and n_features >= n_classes")

    @cached_property
    def means(self) -> np.ndarray:
        """Class means, one row per class; built once and read-only."""
        m = np.zeros((self.n_classes, self.n_features))
        m[np.arange(self.n_classes), np.arange(self.n_classes)] = self.class_separation
        m.setflags(write=False)
        return m

    @cached_property
    def shift_direction(self) -> np.ndarray:
        """Unit vector from class 0's mean toward class 1's, i.e. across a
        decision boundary; built once and read-only."""
        d = self.means[1] - self.means[0]
        d = d / np.linalg.norm(d)
        d.setflags(write=False)
        return d

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, self.n_classes, size=n)
        features = self.means[labels] + rng.standard_normal((n, self.n_features))
        return features, labels


@dataclass(frozen=True)
class DomainSchedule:
    domains: tuple[Domain, ...]
    batches_per_domain: int
    transition: Transition
    seed: int

    def __post_init__(self) -> None:
        if len(self.domains) < 1:
            raise ValueError("need at least one domain")
        if self.batches_per_domain < 1:
            raise ValueError("batches_per_domain must be >= 1")
        if self.transition.kind == "linear" and self.transition.ramp_batches >= self.batches_per_domain:
            raise ValueError("ramp_batches must be < batches_per_domain")

    @property
    def horizon(self) -> int:
        return len(self.domains) * self.batches_per_domain

    def domain_index_at(self, t: int) -> int:
        """Domain owning 1-based batch index t."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"batch index {t} outside 1..{self.horizon}")
        return (t - 1) // self.batches_per_domain

    def active_corruptions(self, t: int) -> list[tuple[CorruptionKind, float]]:
        """Corruptions in effect at batch t, with ramped severities.

        During a linear ramp into domain j the old corruption fades out while
        the new fades in; same-kind neighbors collapse to one severity ramp.
        """
        j = self.domain_index_at(t)
        local = (t - 1) % self.batches_per_domain
        ramp = self.transition.ramp_batches
        if self.transition.kind == "linear" and j > 0 and local < ramp:
            u = (local + 1) / ramp
            old, new = self.domains[j - 1], self.domains[j]
            if old.kind == new.kind:
                return [(old.kind, (1 - u) * old.severity + u * new.severity)]
            return [(old.kind, (1 - u) * old.severity), (new.kind, u * new.severity)]
        d = self.domains[j]
        return [(d.kind, d.severity)]


@dataclass(frozen=True)
class LabeledBatch:
    """Corrupted features plus ground-truth labels. Labels are for metrics
    only and must never reach the learner."""

    features: np.ndarray
    labels: np.ndarray
    domain_index: int

    def __post_init__(self) -> None:
        if len(self.features) != len(self.labels):
            raise ValueError("features/labels length mismatch")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite features")


def make_schedule(num_domains: int, batches_per_domain: int, transition: Transition, seed: int) -> DomainSchedule:
    """Draw a deterministic pseudo-random sequence of corruption domains,
    each severity uniform in its kind's :data:`DEFAULT_SEVERITY_RANGES`."""
    if num_domains < 1:
        raise ValueError("num_domains must be >= 1")
    rng = np.random.default_rng([seed, _SCHEDULE_CHANNEL])
    kinds = list(CorruptionKind)
    domains = []
    for _ in range(num_domains):
        kind = kinds[rng.integers(0, len(kinds))]
        lo, hi = DEFAULT_SEVERITY_RANGES[kind]
        domains.append(Domain(kind, float(rng.uniform(lo, hi))))
    return DomainSchedule(
        domains=tuple(domains),
        batches_per_domain=batches_per_domain,
        transition=transition,
        seed=seed,
    )


def apply_corruption(
    features: np.ndarray,
    kind: CorruptionKind,
    severity: float,
    rng: np.random.Generator,
    source: SourceDistribution,
) -> np.ndarray:
    """Transform features under one corruption; labels are untouched by design.

    Severity 0 is the exact identity for every kind.
    """
    if severity == 0.0:
        return features
    if kind is CorruptionKind.GAUSSIAN_NOISE:
        return features + severity * rng.standard_normal(features.shape)
    if kind is CorruptionKind.FEATURE_ROTATION:
        out = features.copy()
        c, s = math.cos(severity), math.sin(severity)
        # rotate feature pairs (0, 1), (2, 3), ...; an odd last feature stays put
        end = 2 * (features.shape[1] // 2)
        a, b = features[:, 0:end:2], features[:, 1:end:2]
        out[:, 0:end:2] = c * a - s * b
        out[:, 1:end:2] = s * a + c * b
        return out
    if kind is CorruptionKind.FEATURE_SCALE:
        return features * (1.0 + severity)
    if kind is CorruptionKind.MEAN_SHIFT:
        return features + severity * source.shift_direction
    raise TypeError(f"unknown corruption kind: {kind!r}")


def sample_batch(
    schedule: DomainSchedule,
    t: int,
    source: SourceDistribution,
    batch_size: int,
) -> LabeledBatch:
    """Batch t (1-based) of the stream, bit-for-bit determined by (seed, t)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    domain_index = schedule.domain_index_at(t)
    rng = np.random.default_rng([schedule.seed, _BATCH_CHANNEL, t])
    features, labels = source.sample(batch_size, rng)
    for kind, severity in schedule.active_corruptions(t):
        features = apply_corruption(features, kind, severity, rng, source)
    return LabeledBatch(features=features, labels=labels, domain_index=domain_index)
