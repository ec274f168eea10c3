"""Synthetic long-horizon drifting streams.

Clean samples come from a fixed source distribution (class-conditional unit
Gaussians with separated means); each domain in a schedule overlays one
feature-space corruption. Batches are a pure function of (schedule seed,
batch index), so every policy replays a bit-identical stream and batches can
be generated in parallel. Batch t draws from the generator that
``np.random.default_rng([seed, 1, t])`` would give, seeded from a table that
hashes every batch's seed of a schedule at once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "CorruptionKind",
    "Domain",
    "Transition",
    "SourceDistribution",
    "DomainSchedule",
    "MAX_HORIZON",
    "LabeledBatch",
    "make_schedule",
    "apply_corruption",
    "sample_batch",
]

# rng stream channels: schedule generation / per-batch sampling
_SCHEDULE_CHANNEL = 0
_BATCH_CHANNEL = 1

# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size and
# hash constants, all 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# a batch index is one 32-bit word of its batch's seed
MAX_HORIZON = _MASK32


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
        # at 0 the direction is 0/0, and below about 1e-162 its norm underflows to 0
        if not np.isfinite(self.shift_direction).all():
            raise ValueError(f"class_separation {self.class_separation!r} leaves no finite mean_shift direction")

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
        with np.errstate(all="ignore"):
            norm = np.linalg.norm(d)
            if np.isinf(norm):  # above about 9.5e153 the norm's squares overflow
                d = d / abs(self.class_separation)
                norm = np.linalg.norm(d)
            d = d / norm
        d.setflags(write=False)
        return d

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``n`` labels drawn by ``rng.integers(0, n_classes, size=n)``, and their features."""
        labels = rng.integers(0, self.n_classes, size=n)
        # the class means added into the fresh normals: addition commutes, bit for bit
        features = rng.standard_normal((n, self.n_features))
        features += self.means.take(labels, axis=0)
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be < 2**32 batches, got {self.horizon}")

    @property
    def horizon(self) -> int:
        return len(self.domains) * self.batches_per_domain

    @cached_property
    def seed_table(self) -> np.ndarray:
        """Read-only (horizon, 4) uint64 table whose row ``t - 1`` is
        ``np.random.SeedSequence([seed, 1, t]).generate_state(4, np.uint64)``,
        the state that seeds batch t's generator. Built on first use."""
        return _seed_table(self.seed, self.horizon)

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


class LabeledBatch(NamedTuple):
    """Corrupted features plus ground-truth labels. Labels are for metrics
    only and must never reach the learner."""

    features: np.ndarray
    labels: np.ndarray
    domain_index: int


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """Consecutive pairs of the 32-bit sequence ``init, init * mult, ...``."""
    c = init
    while True:
        nxt = c * mult & _MASK32
        yield c, nxt
        c = nxt


def _hash(words: np.ndarray, constants: Iterator[tuple[int, int]]) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, with the next hash constants."""
    xor, mult = next(constants)
    out = words ^ xor
    out *= mult  # uint32 arrays wrap silently, as the C arithmetic does
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    out ^= out >> 16
    return out


def _seed_table(seed: int, horizon: int) -> np.ndarray:
    """SeedSequence([seed, 1, t]).generate_state(4, np.uint64) for t = 1..horizon,
    one row per t, computed for every t at once in uint32 arithmetic.

    The entropy is the seed's 32-bit words, least significant first, then
    1 and t; a seed of three or more words mixes the words past the pool
    into it in extra rounds.
    """
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    entropy = [np.array([w], dtype=np.uint32) for w in (*words, _BATCH_CHANNEL)]
    entropy.append(np.arange(1, horizon + 1, dtype=np.uint32))
    a = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [_hash(entropy[i] if i < len(entropy) else zero, a) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], a))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, a))
    # each uint64 of the state is two uint32 words, the first one low
    table = np.empty((horizon, 4), dtype="<u8")
    state = table.view("<u4")
    b = _hash_constants(_INIT_B, _MULT_B)
    for i in range(state.shape[1]):
        state[:, i] = _hash(pool[i % _POOL_SIZE], b)
    table = table.astype(np.uint64, copy=False)  # no copy on a little-endian host
    table.setflags(write=False)
    return table


class _SeedRow(ISeedSequence):
    """A seed table row, as the seed sequence that PCG64 asks for its state."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"a seed row holds 4 uint64 words, not {n_words} of {dtype}")
        return self.state


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
        # scaled and added into the fresh draw: both operations commute, bit for bit
        noise = rng.standard_normal(features.shape)
        noise *= severity
        noise += features
        return noise
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
    # the generator default_rng([seed, _BATCH_CHANNEL, t]) gives, without hashing its seed again
    rng = Generator(PCG64(_SeedRow(schedule.seed_table[t - 1])))
    features, labels = source.sample(batch_size, rng)
    for kind, severity in schedule.active_corruptions(t):
        features = apply_corruption(features, kind, severity, rng, source)
    return LabeledBatch(features=features, labels=labels, domain_index=domain_index)
