"""run_experiment against the plain reference loop of tests/reference_loop.py:
the same log columns bit for bit, and the same divergence."""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings

from flipreset.config import ConfigError, config_from_dict
from flipreset.harness import LogRow, build_model, run_experiment
from flipreset.learner import DivergenceError

from conftest import CONFIG_DIR
from reference_loop import reference_run
from test_config import CONFIGS, cut_to_two_batches

COLUMNS = [field.name for field in dataclasses.fields(LogRow)]
# a committed config's stream is cut to whole domains of about this many batches
SHORT_HORIZON = 200


def outcome(run, *args, **kwargs):
    """A run's log, or the DivergenceError it raised, as comparable values."""
    try:
        log = run(*args, **kwargs)
        error = None
    except DivergenceError as exc:
        log, error = exc.log, (str(exc), exc.step, exc.epoch)
    if log is None:
        return None, error
    columns = {name: log.rows.column(name).view(np.int64).tolist() for name in COLUMNS}
    return (log.policy_name, log.seed, log.aborted_at, columns), error


def assert_same_run(*args, **kwargs):
    """The reference's outcome of a run, which run_experiment must give too."""
    expected = outcome(reference_run, *args, **kwargs)
    assert outcome(run_experiment, *args, **kwargs) == expected
    return expected


def cut(d: dict) -> dict:
    """A committed config's dict with its stream cut to about SHORT_HORIZON
    batches, and the reset times past the cut dropped."""
    stream = dict(d["stream"])
    keep = max(1, SHORT_HORIZON // stream["batches_per_domain"])
    if "domains" in stream:
        stream["domains"] = stream["domains"][:keep]
    else:
        stream["num_domains"] = keep
    horizon = keep * stream["batches_per_domain"]

    def cut_policy(p: dict) -> dict:
        return {**p, "times": [t for t in p["times"] if t <= horizon]} if "times" in p else p

    policies = {name: cut_policy(p) for name, p in d.get("policies", {}).items()}
    return {**d, "stream": stream, "policy": cut_policy(d["policy"]), "policies": policies}


@functools.cache
def committed(name: str):
    """A committed config, cut short, and its seed-0 source model."""
    config = config_from_dict(cut(json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))))
    return config, build_model(config, 0)[0]


def committed_cases():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        d = json.loads(path.read_text(encoding="utf-8"))
        yield path.name, None
        yield from ((path.name, policy) for policy in d.get("policies", {}))


@pytest.mark.parametrize(("name", "policy"), list(committed_cases()))
def test_committed_config_matches_the_reference(name, policy):
    config, model = committed(name)
    args = () if policy is None else (config.policies[policy], policy)
    (_, _, aborted_at, columns), error = assert_same_run(config, 0, *args, model=model)
    assert error is None and aborted_at is None
    assert len(columns["t"]) == config.stream.horizon


QUICK_PRETRAINING = {"pretrain": {"samples_per_class": 50, "epochs": 20}}


@pytest.mark.parametrize(
    ("d", "message", "step"),
    [
        # runaway momentum takes the weights past the largest float
        (
            {"stream": {"num_domains": 2, "batches_per_domain": 150},
             "learner": {"learning_rate": 1.0, "momentum": 25.0, **QUICK_PRETRAINING}},
            "non-finite parameters",
            223,
        ),
        # the second domain scales the features past the largest float
        (
            {"stream": {"domains": [{"kind": "feature_scale", "severity": 0.0}, {"kind": "feature_scale", "severity": 1e308}],
                        "batches_per_domain": 20},
             "learner": QUICK_PRETRAINING},
            "non-finite features",
            21,
        ),
    ],
    ids=["momentum", "feature_scale"],
)
def test_a_run_that_diverges_matches_the_reference(d, message, step):
    (_, _, aborted_at, columns), error = assert_same_run(config_from_dict(d), 0)
    assert error == (message, step, None)
    assert aborted_at == step and len(columns["t"]) == step - 1


def test_a_pretraining_that_diverges_matches_the_reference():
    d = {"stream": {"class_separation": 1e300}, "learner": {"pretrain": {"learning_rate": 1e300, "epochs": 2}}}
    assert assert_same_run(config_from_dict(d), 0) == (None, ("pretraining weights non-finite at epoch 0", None, 0))


@settings(max_examples=200, deadline=None)
@given(CONFIGS)
def test_a_drawn_config_matches_the_reference(d):
    try:
        config_from_dict(d)
        config = config_from_dict(cut_to_two_batches(d))
    except ConfigError:
        return
    assert_same_run(config, config.seeds[0])
