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

import numpy as np

from .learner import LOSS_KINDS, AdaptLoss, EntropyMin, PretrainConfig
from .policy import POLICY_KINDS, NoReset, RandomTiming, ResetPolicy, TriggerConfig
from .stream import CorruptionKind, Domain, DomainSchedule, SourceDistribution, Transition

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


# the most float64 values (128 MiB) of any one array that a config sizes:
# the class means, a batch, the pretraining samples and the run log
MAX_ARRAY_VALUES = 2**24


def _check_array(names: str, *sizes: int) -> None:
    """Raise ConfigError, naming the keys ``names``, if an array of shape
    ``sizes``, their values, would hold more than MAX_ARRAY_VALUES values.
    A negative size counts as 0, so that its own range check names it."""
    if math.prod(max(size, 0) for size in sizes) > MAX_ARRAY_VALUES:
        got = " x ".join(map(shown, sizes))
        raise ConfigError(f"{names} must be at most {MAX_ARRAY_VALUES} float64 values, got {got}")


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
        _check_array("stream.n_classes x stream.n_features", self.n_classes, self.n_features)
        # build the stream's domain objects now, so that a bad stream is a
        # config error and not a failure at the first batch
        self.source
        if self.num_domains < 1:
            raise ValueError("num_domains must be >= 1")
        probe = (Domain(CorruptionKind.MEAN_SHIFT, 0.0),) if self.domains is None else self.domains[:1]
        DomainSchedule(probe, self.batches_per_domain, self.transition, seed=0)

    @property
    def horizon(self) -> int:
        """The stream's number of batches."""
        return (self.num_domains if self.domains is None else len(self.domains)) * self.batches_per_domain

    @cached_property
    def source(self) -> SourceDistribution:
        """The clean source distribution, shared by every run of this config."""
        return SourceDistribution(self.n_classes, self.n_features, self.class_separation)


@dataclass(frozen=True)
class LearnerConfig:
    loss: AdaptLoss = EntropyMin()  # "loss" names it, and its own keys, such as rpl's q, sit beside "loss"
    learning_rate: float = 0.05
    momentum: float = 0.9
    pretrain: PretrainConfig = PretrainConfig()


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
        pre, stream = self.learner.pretrain, self.stream
        _check_array("batch_size x stream.n_features", self.batch_size, stream.n_features)
        _check_array(
            "learner.pretrain.samples_per_class x stream.n_classes x stream.n_features",
            pre.samples_per_class, stream.n_classes, stream.n_features,
        )
        from .harness import LogRow  # here, not at the top: harness imports this module

        width = len(dataclasses.fields(LogRow))  # the run log's float64 values per batch
        if stream.horizon * width > MAX_ARRAY_VALUES:
            raise ConfigError(
                f"stream: domains x batches_per_domain must be at most {MAX_ARRAY_VALUES // width} "
                f"batches, a run log of {width} float64 values each, got {shown(stream.horizon)}"
            )
        try:
            pre.split(stream.n_classes)
        except ValueError as exc:
            raise ConfigError(f"learner.pretrain.{exc}") from None
        # a preset reset time past the stream's end would never fire
        named = {"policy": self.policy, **{f"policies.{k}": p for k, p in (self.policies or {}).items()}}
        for where, policy in named.items():
            if isinstance(policy, RandomTiming) and policy.times and policy.times[-1] > self.stream.horizon:
                raise ConfigError(
                    f"{where}.times must lie within the stream's {self.stream.horizon} steps, "
                    f"got {policy.times[-1]}"
                )
            scale = policy.trigger.time_unit_scale if hasattr(policy, "trigger") else self.batch_size
            if scale != self.batch_size:
                raise ConfigError(f"{where}.trigger.time_unit_scale must equal batch_size {self.batch_size}, got {scale}")


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


def exact_in_float64(values) -> bool:
    """Whether a float64 holds every integer among ``values`` exactly: none
    lies past the largest float, and none past 2**53 in size is rounded."""
    try:
        return all(float(v) == int(v) for v in values if isinstance(v, (int, np.integer)))
    except OverflowError:
        return False


def shown(value) -> str:
    """``value`` as a message quotes it, as ``str`` does, but an integer past
    Python's limit on the digits it prints as its number of digits."""
    try:
        return str(value)
    except ValueError:
        digits = int(value.bit_length() * math.log10(2)) + 1  # the count, or one more
        return f"an integer of {digits - (abs(value) < 10 ** (digits - 1))} digits"


def _typed(value, annotation: str, where: str):
    """``value`` if it has the JSON type that a field's ``annotation`` names;
    a ``tuple[T, ...]`` is a JSON list of T, and a JSON integer in a float
    field becomes that float if a float64 holds it exactly."""
    if value is None and annotation.endswith(" | None"):
        return None
    annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple["):
        item = annotation.removeprefix("tuple[").removesuffix(", ...]")
        return tuple(_typed(x, item, f"{where}[{i}]") for i, x in enumerate(_list(value, where)))
    want, name = _JSON_TYPES[annotation]
    if type(value) is int:
        try:
            str(value)
        except ValueError:  # no JSON file holds such an integer: load_config rejects it unread
            limit = sys.get_int_max_str_digits()
            raise ConfigError(f"{where} must have at most {limit} digits, got {shown(value)}") from None
    if want is float and type(value) is int:
        if not exact_in_float64((value,)):
            raise ConfigError(f"{where} must be a number that a float64 holds exactly, got {value}")
        value = float(value)
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


def _kind(kinds: dict[str, type], name, where: str) -> type:
    """The class that the config-file name ``name``, given at ``where``, names in ``kinds``."""
    if type(name) is not str or name not in kinds:
        raise ConfigError(f"{where} must be one of {'|'.join(kinds)}, got {name!r}")
    return kinds[name]


def parse_policy(d: dict, batch_size: int, where: str = "policy") -> ResetPolicy:
    """Build a policy from its config dict. An adaptive policy's trigger keys
    sit beside ``kind``, and beta's sample clock is one batch = ``batch_size``
    samples."""
    cls = _kind(POLICY_KINDS, _object(d, where).get("kind"), f"{where}.kind")
    if "trigger" in d:
        raise ConfigError(f"unknown keys in {where}: ['trigger']")
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


def _parse_learner(value) -> LearnerConfig:
    params = dict(_object(value, "learner"))
    cls = _kind(LOSS_KINDS, params["loss"], "learner.loss") if "loss" in params else type(LearnerConfig.loss)
    params["loss"] = {f.name: params.pop(f.name) for f in dataclasses.fields(cls) if f.name in params}
    return _build(LearnerConfig, params, "learner", loss=lambda p: _build(cls, p, "learner"),
                  pretrain=lambda p: _build(PretrainConfig, p, "learner.pretrain"))


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object; raises ConfigError, naming
    the key, on any unknown key or bad value."""
    # a trigger's sample clock is one batch, so batch_size is checked first,
    # with the stream and the learner whose settings size a run's arrays
    given = {k: v for k, v in _object(d, "config").items() if k in ("batch_size", "stream", "learner")}
    first = _build(ExperimentConfig, given, "config", stream=_parse_stream, learner=_parse_learner)
    return _build(
        ExperimentConfig,
        d,
        "config",
        stream=lambda _: first.stream,
        learner=lambda _: first.learner,
        policy=lambda p: parse_policy(p, first.batch_size),
        policies=lambda ps: {
            name: parse_policy(p, first.batch_size, f"policies.{name}")
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
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config file {path} is not readable JSON: {exc}") from exc
    return config_from_dict(data)
