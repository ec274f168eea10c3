"""The plain reference loop: one run of an experiment, built only from the
library's public API, one call per stage of the step.

It is the oracle that ``run_experiment`` and any faster engine must match:
the same log, bit for bit, and the same divergence, named by the same cause
at the same step with the same partial log.
"""

from __future__ import annotations

import numpy as np

from flipreset.flip_signal import FlipSignalState, observe_batch
from flipreset.harness import ExperimentLog, LogRow, build_model, build_schedule
from flipreset.learner import DivergenceError, EntropyMin, ModelState, entropy_grad, predict, rpl_grad, sgd_step
from flipreset.policy import policy_name as policy_label, policy_step
from flipreset.stream import sample_batch


def gradient(loss, theta: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """The adaptation loss's gradient with respect to ``theta`` on ``batch``."""
    if isinstance(loss, EntropyMin):
        return entropy_grad(theta, batch)
    return rpl_grad(theta, batch, loss.q)


@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported as DivergenceError
def reference_run(config, seed, policy=None, policy_name=None, *, model=None) -> ExperimentLog:
    """What ``run_experiment(config, seed, policy, policy_name, model=model)``
    returns, or the DivergenceError it raises."""
    policy = config.policy if policy is None else policy
    policy_name = policy_label(policy) if policy_name is None else policy_name
    if model is None:
        model, _ = build_model(config, seed)
    # a given model restarts at its source weights with zero velocity
    model = ModelState(model.theta_source, model.theta_source)
    schedule = build_schedule(config, seed)
    learner = config.learner
    state = FlipSignalState()
    rows = []

    def diverged(t: int, what: str) -> DivergenceError:
        log = ExperimentLog(policy_name, seed, rows, aborted_at=t)
        return DivergenceError(f"non-finite {what}", step=t, log=log)

    for t in range(1, config.stream.horizon + 1):
        batch = sample_batch(schedule, t, config.stream.source, config.batch_size)
        if not np.isfinite(batch.features).all():
            raise diverged(t, "features")
        prev = predict(model.theta_prev_snapshot, batch.features)
        curr = predict(model.theta, batch.features)
        grad = gradient(learner.loss, model.theta, batch.features)
        model.theta_prev_snapshot = model.theta
        sgd_step(model, grad, learner.learning_rate, learner.momentum)
        if not np.isfinite(model.theta).all():
            raise diverged(t, "parameters")
        if not (np.isfinite(prev.confidence).all() and np.isfinite(curr.confidence).all()):
            raise diverged(t, "predictions")
        raw = observe_batch(prev, curr, normalize=config.normalize_flip)
        accuracy = np.count_nonzero(curr.classes == batch.labels) / len(batch.labels)
        state.update_ema(raw)
        state.update_min()
        lf_ema, lf_min = state.lf_ema, state.lf_min
        decision = policy_step(policy, state, model)
        rows.append(LogRow(
            t, batch.domain_index, accuracy, raw, lf_ema, lf_min,
            decision.slope, decision.threshold, int(decision.reinitialize), decision.lam,
        ))
    return ExperimentLog(policy_name, seed, rows)
