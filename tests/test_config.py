"""Config parsing contract: a config is accepted with the meaning it states
or rejected with exit code 1 and a message naming the bad key."""

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from flipreset.cli import main
from flipreset.config import ConfigError, ExperimentConfig, config_from_dict
from flipreset.harness import run_experiment
from flipreset.learner import DivergenceError
from flipreset.policy import POLICY_KINDS
from flipreset.stream import CorruptionKind

SMALL = {
    "stream": {"num_domains": 2, "batches_per_domain": 10},
    "learner": {"loss": "entropy", "pretrain": {"samples_per_class": 50, "epochs": 20}},
    "policy": {"kind": "abr"},
    "batch_size": 16,
    "seeds": [0],
}

# (path of the key to set, its value, text the error must name)
MALFORMED = [
    (("normalize_flip",), "false", "normalize_flip"),
    (("batch_size",), True, "batch_size"),
    (("seeds",), "01", "seeds"),
    (("policy",), {"kind": "fixed_interval", "period": 2.7}, "period"),
    (("learner", "learning_rate"), "nan", "learning_rate"),
    (("learner", "learning_rate"), float("nan"), "learning_rate"),
    (("policies",), [1], "policies"),
    (("learner",), {"loss": "rpl", "q": 1.5}, "q"),
    (("stream", "n_classes"), 1, "n_classes"),
    (("stream", "n_features"), 3, "n_features"),
    # every class mean at the origin, and no mean_shift direction
    (("stream", "class_separation"), 0.0, "class_separation"),
    (("stream", "num_domains"), 0, "num_domains"),
    # 2 domains: 2**32 batches, one more index than a batch seed's 32-bit word holds
    (("stream", "batches_per_domain"), 2**31, "domains x batches_per_domain must be < 2**32"),
    (("policy",), {"kind": "hard_reset", "force_lambda": 0.5}, "force_lambda"),
    (("policy",), {"kind": "abr", "trigger": {"beta": 1e-6}}, "trigger"),
    (("policy",), {"kind": "reset_sometimes"}, "kind"),
    (("stream", "domains"), [{"kind": "fog", "severity": 1.0}], "fog"),
    (("stream", "transition"), {"kind": "abrupt", "ramp_batches": 30}, "ramp_batches"),
    (("learner", "pretrain", "holdout_fraction"), 1.0, "holdout_fraction"),
    (("learner", "pretrain", "holdout_fraction"), 1.5, "holdout_fraction"),
    (("learner", "pretrain", "holdout_fraction"), -0.5, "holdout_fraction"),
    (("learner", "pretrain", "samples_per_class"), 0, "samples_per_class"),
    (("learner", "pretrain", "epochs"), -1, "epochs"),
    # 4 classes x 1 sample, of which round(0.9 * 4) = 4 are held out
    (("learner", "pretrain"), {"samples_per_class": 1, "holdout_fraction": 0.9}, "holdout_fraction"),
    # removed keys: every schedule draws from the default severity ranges,
    # and a trigger's clock is always one batch
    (("stream", "severity_ranges"), {"gaussian_noise": [0.5, 2.5]}, "severity_ranges"),
    (("policy",), {"kind": "abr", "time_unit_scale": 64}, "time_unit_scale"),
    # SMALL's stream sets num_domains, so an explicit domain list as well is rejected
    (("stream", "domains"), [{"kind": "mean_shift", "severity": 1.0}], "stream.num_domains and stream.domains"),
    (("seeds",), [0, 0, 1], "seeds must be distinct"),
    (("policy",), {"kind": "random_timing", "times": [-5, 0, 3]}, "times"),
    # SMALL's stream is 20 batches long, so a later time would never fire
    (("policy",), {"kind": "random_timing", "times": [5, 1000000000]}, "policy.times must lie within the stream's 20"),
    (
        ("policies",),
        {"none": {"kind": "no_reset"}, "late": {"kind": "random_timing", "times": [5, 21]}},
        "policies.late.times",
    ),
    # finite, but beta * sqrt(batch_size), the threshold one step after the minimum, is not
    (("policy",), {"kind": "abr", "beta": 1e308}, "beta"),
    (("output",), "log.csv", "output"),
]


@pytest.mark.parametrize(("path", "value", "named"), MALFORMED, ids=[m[2] for m in MALFORMED])
def test_malformed_config_exits_one_naming_the_key(tmp_path, monkeypatch, capsys, path, value, named):
    monkeypatch.chdir(tmp_path)  # a config wrongly accepted writes nothing into the checkout
    raw = copy.deepcopy(SMALL)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))  # float("nan") is written as JSON NaN
    assert main(["run", "--config", str(config), "--quiet"]) == 1
    assert named in capsys.readouterr().err


def test_holdout_must_leave_a_training_sample():
    # 2 classes x 1 sample: round(0.75 * 2) = 2 held out, round(0.5 * 2) = 1
    stream = {"n_classes": 2, "n_features": 2}
    with pytest.raises(ConfigError, match="holdout_fraction"):
        config_from_dict({"stream": stream, "learner": {"pretrain": {"samples_per_class": 1, "holdout_fraction": 0.75}}})
    config_from_dict({"stream": stream, "learner": {"pretrain": {"samples_per_class": 1, "holdout_fraction": 0.5}}})


def test_random_timing_may_fire_at_the_last_step():
    config = config_from_dict({**SMALL, "policy": {"kind": "random_timing", "times": [5, 20]}})
    assert config.policy.times == (5, 20) and config.stream.horizon == 20


def test_json_integer_in_float_field_becomes_float():
    config = config_from_dict({"learner": {"learning_rate": 1}, "policy": {"kind": "abr"}, "batch_size": 32})
    assert type(config.learner.learning_rate) is float
    assert config.policy.trigger.time_unit_scale == 32.0


# JSON values of every type, with the schema's own words among the strings
WORDS = [*POLICY_KINDS, *(kind.value for kind in CorruptionKind), "abrupt", "linear", "entropy", "rpl"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def mostly(good):
    """``good`` seven times in eight, else any JSON value."""
    return st.integers(0, 7).flatmap(lambda i: good if i else JSON)


def obj(**keys):
    """JSON objects holding any subset of ``keys``; now and then any JSON value instead."""
    return mostly(st.fixed_dictionaries({}, optional={k: mostly(v) for k, v in keys.items()}))


COUNTS = st.integers(-1, 40)
# with values large and small enough to drive a run's numbers non-finite
NUMBERS = st.floats(-1.0, 5.0) | st.integers(-1, 5) | st.sampled_from([1e-300, 1e300, -1e300])
POLICY = obj(
    kind=st.sampled_from([*POLICY_KINDS, "other"]),
    period=COUNTS,
    times=st.lists(COUNTS, max_size=4),
    beta=NUMBERS,
    warmup_steps=COUNTS,
    force_lambda=st.none() | st.floats(-0.5, 1.5),
)
CONFIGS = obj(
    stream=obj(
        num_domains=COUNTS,
        batches_per_domain=COUNTS,
        transition=st.just("abrupt") | obj(kind=st.sampled_from(["abrupt", "linear"]), ramp_batches=COUNTS),
        # from 8 classes on, softmax_forward takes its row-major path
        n_classes=st.integers(0, 9),
        n_features=st.integers(0, 10),
        class_separation=NUMBERS,
        domains=st.lists(obj(kind=st.sampled_from(WORDS), severity=NUMBERS), max_size=3),
    ),
    learner=obj(
        loss=st.sampled_from(["entropy", "rpl", "other"]),
        q=NUMBERS,
        learning_rate=NUMBERS,
        momentum=NUMBERS,
        pretrain=obj(samples_per_class=COUNTS, epochs=COUNTS, learning_rate=NUMBERS, holdout_fraction=NUMBERS),
    ),
    policy=POLICY,
    policies=st.dictionaries(st.text(max_size=3), mostly(POLICY), max_size=3),
    batch_size=COUNTS,
    seeds=st.lists(COUNTS, max_size=3),
    normalize_flip=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(CONFIGS)
def test_any_json_object_is_a_config_or_a_config_error(d):
    try:
        config = config_from_dict(d)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


def cut_to_two_batches(d: dict) -> dict:
    """An accepted config ``d`` with its stream cut to one domain of two batches."""
    stream = dict(d.get("stream", {}))
    stream["batches_per_domain"] = 2
    if stream.get("domains") is None:
        stream["num_domains"] = 1
    else:
        stream["domains"] = stream["domains"][:1]
    return {**d, "stream": stream}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=600, deadline=None)
@given(CONFIGS)
# pretraining's first step takes the weights to inf at a finite loss
@example({"stream": {"class_separation": 1e300}, "learner": {"pretrain": {"learning_rate": 1e300, "epochs": 2}}})
def test_any_accepted_config_runs_or_diverges(d):
    try:
        config_from_dict(d)
        # a ramp or a reset time that the cut stream is too short for
        config = config_from_dict(cut_to_two_batches(d))
    except ConfigError:
        return
    try:
        log = run_experiment(config, config.seeds[0])
    except DivergenceError:
        return
    assert len(log.rows) == 2
