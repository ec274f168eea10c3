"""Config parsing contract: a config is accepted with the meaning it states
or rejected with exit code 1 and a message naming the bad key."""

import copy
import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from flipreset.cli import main
from flipreset.config import MAX_ARRAY_VALUES, ConfigError, ExperimentConfig, config_from_dict, load_config
from flipreset.harness import LogRow, run_experiment
from flipreset.learner import DivergenceError, EntropyMin, RobustPseudoLabel
from flipreset.policy import POLICY_KINDS
from flipreset.stream import CorruptionKind

from conftest import CONFIG_DIR

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
    # q belongs to rpl alone: beside entropy, or with no loss, it is an unknown key
    (("learner",), {"loss": "entropy", "q": 0.5}, "unknown keys in learner: ['q']"),
    (("learner",), {"q": 99}, "error: unknown keys in learner: ['q']"),
    (("stream", "n_classes"), 1, "n_classes"),
    (("stream", "n_features"), 3, "n_features"),
    # every class mean at the origin, and no mean_shift direction
    (("stream", "class_separation"), 0.0, "class_separation"),
    # the means' distance underflows to 0, so the direction is not finite either
    (("stream", "class_separation"), 1e-170, "class_separation 1e-170"),
    (("stream", "num_domains"), 0, "num_domains"),
    # 2 domains: 2**32 batches, past the run log's 2**24 float64 values
    (("stream", "batches_per_domain"), 2**31, "domains x batches_per_domain must be at most 1677721 batches"),
    (("policy",), {"kind": "hard_reset", "force_lambda": 0.5}, "force_lambda"),
    (("policy",), {"kind": "abr", "trigger": {"beta": 1e-6}}, "trigger"),
    (("policy",), {"kind": "reset_sometimes"}, "kind"),
    (("stream", "domains"), [{"kind": "fog", "severity": 1.0}], "fog"),
    # a domain's kind, named with its key and the choices, whatever its JSON type
    (
        ("stream", "domains"),
        [{"kind": "mean_shift", "severity": 1.0}, {"kind": "nope", "severity": 1.0}],
        "stream.domains[1].kind must be one of gaussian_noise|feature_rotation|feature_scale|mean_shift, got 'nope'",
    ),
    (
        ("stream", "domains"),
        [{"kind": 3, "severity": 1.0}],
        "stream.domains[0].kind must be one of gaussian_noise|feature_rotation|feature_scale|mean_shift, got 3",
    ),
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
    # 2**53 + 1, which a float64 would round to 2**53
    (("stream", "class_separation"), 2**53 + 1, "class_separation must be a number that a float64 holds exactly, got 9007199254740993"),
    # past the largest float64, and quoted as given rather than as inf
    (("learner", "learning_rate"), 10**400, f"learner.learning_rate must be a number that a float64 holds exactly, got {10**400}"),
    # arrays past 2**24 float64 values, among them shapes that numpy refuses
    (("batch_size",), 10**20, "batch_size x stream.n_features must be at most"),
    (("learner", "pretrain", "samples_per_class"), 10**20, "learner.pretrain.samples_per_class x stream.n_classes"),
    (
        ("stream", "n_features"),
        10**12,
        "stream.n_classes x stream.n_features must be at most 16777216 float64 values, got 4 x 1000000000000",
    ),
    (("batch_size",), 10**12, "batch_size x stream.n_features must be at most 16777216 float64 values, got 1000000000000 x 16"),
    (
        ("learner", "pretrain", "samples_per_class"),
        10**12,
        "learner.pretrain.samples_per_class x stream.n_classes x stream.n_features must be at most "
        "16777216 float64 values, got 1000000000000 x 4 x 16",
    ),
    (
        ("stream",),
        {"num_domains": 10, "batches_per_domain": 10**7},
        "domains x batches_per_domain must be at most 1677721 batches, a run log of 10 float64 values each, got 100000000",
    ),
    # negative sizes are named by their own range check, not the array cap
    (("stream",), {"n_classes": -5000, "n_features": -5000}, "stream: need >= 2 classes"),
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


def test_rpl_loss_takes_its_default_q():
    assert config_from_dict({"learner": {"loss": "rpl"}}).learner.loss == RobustPseudoLabel(q=0.8)
    assert config_from_dict({"learner": {"loss": "rpl", "q": 0.5}}).learner.loss == RobustPseudoLabel(q=0.5)


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIG_DIR.glob("*.json")))
def test_committed_config_loads_its_loss(name):
    expected = RobustPseudoLabel(q=0.8) if name == "rpl_ramp.json" else EntropyMin()
    assert load_config(CONFIG_DIR / name).learner.loss == expected


@pytest.mark.parametrize("key", ["class_separation", "num_domains"])
def test_integer_past_the_digit_limit_is_named(key):
    # no JSON file holds such an integer, but a dict given in Python may
    with pytest.raises(ConfigError, match=f"^stream.{key} must have at most 4300 digits, got an integer of 5001 digits$"):
        config_from_dict({"stream": {key: 10**5000}})


def test_horizon_cap_sizes_the_run_log():
    # the run log, one float64 a LogRow field a batch, fits the array cap
    cap = MAX_ARRAY_VALUES // len(dataclasses.fields(LogRow))
    assert config_from_dict({"stream": {"num_domains": 1, "batches_per_domain": cap}}).stream.horizon == cap
    with pytest.raises(ConfigError, match=f"^stream: domains x batches_per_domain must be at most {cap} batches"):
        config_from_dict({"stream": {"num_domains": 1, "batches_per_domain": cap + 1}})


def test_pretraining_cap_reads_the_configs_own_pretraining():
    # 100 x 2 x 20000 = 4e6 values fit the cap; the default 500 samples a class would not
    stream = {"n_classes": 2, "n_features": 20000}
    config = config_from_dict({"stream": stream, "learner": {"pretrain": {"samples_per_class": 100}}})
    assert config.learner.pretrain.samples_per_class == 100
    with pytest.raises(ConfigError, match="got 1000 x 2 x 20000$"):
        config_from_dict({"stream": stream, "learner": {"pretrain": {"samples_per_class": 1000}}})


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
    # the largest integer below which every integer is a float64 exactly
    assert config_from_dict({"stream": {"class_separation": 2**53}}).stream.class_separation == 2.0**53


def test_a_null_force_lambda_is_the_key_left_out():
    given = config_from_dict({"policy": {"kind": "abr", "force_lambda": None}}).policy
    assert given == config_from_dict({"policy": {"kind": "abr"}}).policy and given.force_lambda is None


def test_replacing_batch_size_rejects_the_parsed_trigger_clocks():
    # a parsed trigger counts the samples of a batch_size batch each step
    config = load_config(CONFIG_DIR / "collapse.json")
    with pytest.raises(ConfigError, match=r"^policies\.abr\.trigger\.time_unit_scale must equal batch_size 32, got 64\.0$"):
        dataclasses.replace(config, batch_size=32)


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


@settings(max_examples=600, deadline=None)
@given(CONFIGS)
# pretraining's first step takes the weights to inf at a finite loss
@example({"stream": {"class_separation": 1e300}, "learner": {"pretrain": {"learning_rate": 1e300, "epochs": 2}}})
# drawn configs that loaded and then failed to allocate: a batch of 367 GiB,
# and class means of 3.9 GiB and of 8.1 GiB
@example({"batch_size": 3083101719})
@example({"stream": {"n_features": 130311703}})
@example({"stream": {"n_features": 272918039}})
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
