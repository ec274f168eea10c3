"""Experiment configuration: JSON schema, parsing, validation.

See README for an annotated example. The dataclasses below are the schema:
their fields give the allowed keys, the defaults and the JSON type of every
value. Unknown keys are rejected so config typos fail loudly instead of
silently falling back to defaults, and no value is coerced to another type.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .learner import AdaptLoss, EntropyMin, RobustPseudoLabel, holdout_count
from .policy import POLICY_KINDS, NoReset, RandomTiming, ResetPolicy, TriggerConfig
from .stream import MAX_HORIZON, CorruptionKind, Domain, DomainSchedule, SourceDistribution, Transition

__all__ = [
    "ConfigError",
    "StreamConfig",
    "PretrainConfig",
    "LearnerConfig",
    "ExperimentConfig",
    "parse_policy",
    "load_config",
    "config_from_dict",
]


class ConfigError(ValueError):
    """Invalid or missing configuration."""


@dataclass(frozen=True)
class StreamConfig:
    num_domains: int = 100
    batches_per_domain: int = 200
    transition: Transition = Transition()
    n_classes: int = 4
    n_features: int = 16
    class_separation: float = 2.5
    domains: tuple[Domain, ...] | None = None  # explicit schedule, given instead of num_domains

    def __post_init__(self) -> None:
        # build the stream's domain objects now, so that a bad stream is a
        # config error and not a failure at the first batch
        self.source
        if self.num_domains < 1:
            raise ValueError("num_domains must be >= 1")
        probe = (Domain(CorruptionKind.MEAN_SHIFT, 0.0),) if self.domains is None else self.domains[:1]
        DomainSchedule(probe, self.batches_per_domain, self.transition, seed=0)
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"domains x batches_per_domain must be < 2**32 batches, got {self.horizon}")

    @property
    def horizon(self) -> int:
        """The stream's number of batches."""
        return (self.num_domains if self.domains is None else len(self.domains)) * self.batches_per_domain

    @cached_property
    def source(self) -> SourceDistribution:
        """The clean source distribution, shared by every run of this config."""
        return SourceDistribution(self.n_classes, self.n_features, self.class_separation)


@dataclass(frozen=True)
class PretrainConfig:
    samples_per_class: int = 500
    epochs: int = 150
    learning_rate: float = 0.5
    holdout_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.samples_per_class < 1:
            raise ValueError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in [0, 1), got {self.holdout_fraction}")


@dataclass(frozen=True)
class LearnerConfig:
    loss: str = "entropy"  # entropy | rpl
    q: float = 0.8
    learning_rate: float = 0.05
    momentum: float = 0.9
    pretrain: PretrainConfig = PretrainConfig()

    def __post_init__(self) -> None:
        if self.loss not in ("entropy", "rpl"):
            raise ConfigError(f"learner.loss must be entropy|rpl, got {self.loss!r}")
        self.adapt_loss  # a bad q is a config error too

    @cached_property
    def adapt_loss(self) -> AdaptLoss:
        """The adaptation loss this config names."""
        return RobustPseudoLabel(q=self.q) if self.loss == "rpl" else EntropyMin()


@dataclass(frozen=True)
class ExperimentConfig:
    stream: StreamConfig = StreamConfig()
    learner: LearnerConfig = LearnerConfig()
    policy: ResetPolicy = NoReset()
    policies: dict[str, ResetPolicy] | None = None
    batch_size: int = 64
    seeds: tuple[int, ...] = (0,)
    normalize_flip: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if len(self.seeds) < 1:
            raise ConfigError("need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        pre = self.learner.pretrain
        n = pre.samples_per_class * self.stream.n_classes
        if holdout_count(n, pre.holdout_fraction) >= n:
            raise ConfigError(f"learner.pretrain.holdout_fraction leaves none of {n} samples to train on")
        # a preset reset time past the stream's end would never fire
        named = {"policy": self.policy, **{f"policies.{k}": p for k, p in (self.policies or {}).items()}}
        for where, policy in named.items():
            if isinstance(policy, RandomTiming) and policy.times and policy.times[-1] > self.stream.horizon:
                raise ConfigError(
                    f"{where}.times must lie within the stream's {self.stream.horizon} steps, "
                    f"got {policy.times[-1]}"
                )


# the JSON type that a scalar field's annotation asks for, and its name in messages
_JSON_TYPES = {
    "int": (int, "an integer"),
    "float": (float, "a finite number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def _object(value, where: str) -> dict:
    if type(value) is not dict:
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if type(value) is not list:
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _typed(value, annotation: str, where: str):
    """``value`` if it has the JSON type that a field's ``annotation`` names;
    a ``tuple[T, ...]`` is a JSON list of T, and a JSON integer in a float
    field becomes that float."""
    if value is None and annotation.endswith(" | None"):
        return None
    annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple["):
        item = annotation.removeprefix("tuple[").removesuffix(", ...]")
        return tuple(_typed(x, item, f"{where}[{i}]") for i, x in enumerate(_list(value, where)))
    want, name = _JSON_TYPES[annotation]
    if want is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not want or (want is float and not math.isfinite(value)):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    return value


def _build(cls, d, where: str, **nested):
    """``cls`` built from the JSON object ``d``.

    The allowed keys, the defaults and the JSON type of each scalar come from
    the fields of ``cls``; ``nested`` maps every other field to the parser of
    its value. Scalars are checked before any parser runs, and a domain error
    from a parser or from ``cls`` becomes a ConfigError naming ``where``.
    """
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(_object(d, where)) - set(annotations)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = {k: _typed(v, annotations[k], f"{where}.{k}") for k, v in d.items() if k not in nested}
    try:
        for key, value in d.items():
            if key in nested:
                optional = value is None and annotations[key].endswith(" | None")
                kwargs[key] = None if optional else nested[key](value)
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_policy(d: dict, batch_size: int, where: str = "policy") -> ResetPolicy:
    """Build a policy from its config dict. An adaptive policy's trigger keys
    sit beside ``kind``, and beta's sample clock is one batch = ``batch_size``
    samples."""
    kind = _object(d, where).get("kind")
    if type(kind) is not str or kind not in POLICY_KINDS:
        raise ConfigError(f"{where}.kind must be one of {'|'.join(POLICY_KINDS)}, got {kind!r}")
    if "trigger" in d:
        raise ConfigError(f"unknown keys in {where}: ['trigger']")
    cls = POLICY_KINDS[kind]
    params = {k: v for k, v in d.items() if k != "kind"}
    if all(f.name != "trigger" for f in dataclasses.fields(cls)):
        return _build(cls, params, where)
    trigger = {key: params.pop(key) for key in ("beta", "warmup_steps") if key in params}
    params["trigger"] = {**trigger, "time_unit_scale": batch_size}
    return _build(cls, params, where, trigger=lambda t: _build(TriggerConfig, t, where))


def _parse_transition(value) -> Transition:
    if value == "abrupt":
        return Transition()
    return _build(Transition, value, "stream.transition")


def _parse_domains(value) -> tuple[Domain, ...]:
    return tuple(
        _build(Domain, x, f"stream.domains[{i}]", kind=CorruptionKind)
        for i, x in enumerate(_list(value, "stream.domains"))
    )


def _parse_stream(value) -> StreamConfig:
    stream = _build(StreamConfig, value, "stream", transition=_parse_transition, domains=_parse_domains)
    # checked once the domains have parsed, so a bad domain is named first
    if stream.domains is not None and "num_domains" in value:
        raise ConfigError("stream.num_domains and stream.domains cannot both be given")
    return stream


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object; raises ConfigError, naming
    the key, on any unknown key or bad value."""
    # a trigger's sample clock is one batch, so batch_size is checked first
    given = {k: v for k, v in _object(d, "config").items() if k == "batch_size"}
    batch_size = _build(ExperimentConfig, given, "config").batch_size
    return _build(
        ExperimentConfig,
        d,
        "config",
        stream=_parse_stream,
        learner=lambda s: _build(
            LearnerConfig, s, "learner", pretrain=lambda p: _build(PretrainConfig, p, "learner.pretrain")
        ),
        policy=lambda p: parse_policy(p, batch_size),
        policies=lambda ps: {
            name: parse_policy(p, batch_size, f"policies.{name}")
            for name, p in _object(ps, "policies").items()
        },
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
