"""Slope trigger, restore-ratio and shrink-restore blending contracts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flipreset.flip_signal import FlipSignalState
from flipreset.learner import ModelState
from flipreset.policy import (
    BalancedReset,
    FixedInterval,
    HardReset,
    NoReset,
    PolicyDecision,
    RandomTiming,
    TriggerConfig,
    blend_weights,
    compute_lambda,
    policy_step,
    slope,
    trigger_check,
)

from conftest import make_state


def fires_slope_form(delta_lf, delta_t, beta, scale):
    """Direct slope-vs-threshold evaluation in sample time units."""
    if delta_t < 1:
        return False
    units = delta_t * scale
    return delta_lf / units > beta / math.sqrt(units)


def run_policy(policy, raws, model):
    """Drive a policy over a fixed raw score sequence; returns decisions."""
    state = FlipSignalState()
    decisions = []
    for raw in raws:
        state.update_ema(raw)
        state.update_min()
        decisions.append(policy_step(policy, state, model))
    return decisions


def tiny_model(rng, n_classes=3, n_features=4):
    return ModelState.initialize(n_classes, n_features, rng)


def ulps_off(x, k):
    """``x`` moved ``k`` representable floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


class TestSlope:
    def test_direct_evaluation(self):
        state = make_state(lf_ema=0.3, lf_min=0.1, t=200, t_min=100)
        assert slope(state) == pytest.approx(0.002, abs=1e-15)

    def test_zero_numerator(self):
        state = make_state(lf_ema=0.1, lf_min=0.1, t=50, t_min=10)
        assert slope(state) == 0.0

    def test_undefined_cases(self):
        assert slope(FlipSignalState()) is None
        assert slope(make_state(lf_ema=0.2, lf_min=0.2, t=5, t_min=5)) is None

    def test_monotone_ramp_matches_offline_recompute(self):
        state = FlipSignalState()
        history = []
        for k in range(100):
            state.update_ema(0.01 * k)
            state.update_min()
            history.append((state.t, state.lf_ema))
            s = slope(state)
            lf_min = min(e for _, e in history)
            t_min = next(t for t, e in history if e == lf_min)
            if state.t - t_min >= 1:
                assert s == pytest.approx((state.lf_ema - lf_min) / (state.t - t_min), abs=1e-15)
            else:
                assert s is None


class TestTriggerCheck:
    def test_fires_on_steep_rise(self):
        cfg = TriggerConfig(beta=2e-6, warmup_steps=0, time_unit_scale=1.0)
        state = make_state(lf_ema=0.3, lf_min=0.1, t=200, t_min=100, steps_since_reset=200)
        # slope 0.002 against threshold 2e-6/sqrt(100) = 2e-7
        assert trigger_check(state, cfg)

    def test_flat_trajectory_never_fires(self):
        cfg = TriggerConfig(beta=2e-6, warmup_steps=0)
        state = FlipSignalState()
        for _ in range(50):
            state.update_ema(0.05)
            state.update_min()
            assert not trigger_check(state, cfg)

    def test_suppressed_during_warmup(self):
        cfg = TriggerConfig(beta=1e-12, warmup_steps=10)
        state = make_state(lf_ema=10.0, lf_min=0.0, t=5, t_min=1, steps_since_reset=5)
        assert not trigger_check(state, cfg)
        state.steps_since_reset = 11
        assert trigger_check(state, cfg)

    def test_no_fire_when_delta_t_zero(self):
        cfg = TriggerConfig(beta=1e-12, warmup_steps=0)
        state = make_state(lf_ema=10.0, lf_min=10.0, t=30, t_min=30, steps_since_reset=30)
        assert not trigger_check(state, cfg)

    def test_matches_slope_form_on_random_states(self, rng):
        cfg_scale = [1.0, 64.0]
        for _ in range(500):
            scale = cfg_scale[int(rng.integers(0, 2))]
            beta = float(10 ** rng.uniform(-7, -2))
            cfg = TriggerConfig(beta=beta, warmup_steps=0, time_unit_scale=scale)
            t = int(rng.integers(2, 1000))
            t_min = int(rng.integers(1, t + 1))
            lf_min = float(rng.normal(0, 0.01))
            lf_ema = lf_min + float(rng.uniform(0, 0.01))
            state = make_state(lf_ema=lf_ema, lf_min=lf_min, t=t, t_min=t_min, steps_since_reset=t)
            assert trigger_check(state, cfg) == fires_slope_form(lf_ema - lf_min, t - t_min, beta, scale)

    def test_monotone_in_beta(self, rng):
        # pure scan over one fixed trajectory: larger beta fires on a subset of steps
        raws = np.abs(rng.normal(0, 0.02, 400)).cumsum() * 1e-3
        state = FlipSignalState()
        betas = (1e-6, 1e-5, 1e-4)
        fired = {b: [] for b in betas}
        for raw in raws:
            state.update_ema(float(raw))
            state.update_min()
            for b in betas:
                if trigger_check(state, TriggerConfig(beta=b, warmup_steps=0, time_unit_scale=64.0)):
                    fired[b].append(state.t)
        assert set(fired[1e-4]) <= set(fired[1e-5]) <= set(fired[1e-6])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TriggerConfig(beta=0.0)
        with pytest.raises(ValueError):
            TriggerConfig(warmup_steps=-1)
        with pytest.raises(ValueError):
            TriggerConfig(time_unit_scale=0.0)


class TestComputeLambda:
    def test_direct_evaluation(self):
        assert compute_lambda(make_state(lf_ema=0.3, lf_min=0.1)) == pytest.approx(0.75, abs=1e-15)

    def test_symmetry(self):
        assert compute_lambda(make_state(lf_ema=0.2, lf_min=0.2)) == 0.5

    def test_negative_min_clamps_to_one(self):
        assert compute_lambda(make_state(lf_ema=0.3, lf_min=-0.1)) == 1.0

    def test_degenerate_zero_case(self):
        assert compute_lambda(make_state(lf_ema=0.0, lf_min=0.0)) == 0.5
        assert compute_lambda(make_state(lf_ema=-0.5, lf_min=-0.9)) == 0.5

    def test_always_in_unit_interval(self, rng):
        for _ in range(1000):
            lf_min = float(rng.normal(0, 1))
            lf_ema = lf_min + float(rng.uniform(0, 2))
            lam = compute_lambda(make_state(lf_ema=lf_ema, lf_min=lf_min))
            assert 0.0 <= lam <= 1.0


class TestBlendWeights:
    def test_direct_evaluation(self):
        out = blend_weights(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.75)
        assert np.allclose(out, [0.75, 0.25], atol=1e-15)

    def test_endpoints_bitwise(self, rng):
        src = rng.normal(0, 1, 64)
        prev = rng.normal(0, 1, 64)
        assert blend_weights(src, prev, 1.0).tobytes() == src.tobytes()
        assert blend_weights(src, prev, 0.0).tobytes() == prev.tobytes()

    def test_endpoints_return_copies(self, rng):
        src = rng.normal(0, 1, 8)
        out = blend_weights(src, src.copy(), 1.0)
        out[0] = 99.0
        assert src[0] != 99.0

    def test_coordinates_between_endpoints(self, rng):
        src = rng.normal(0, 1, 1000)
        prev = rng.normal(0, 1, 1000)
        out = blend_weights(src, prev, 0.3)
        for i in range(1000):
            lo, hi = min(src[i], prev[i]), max(src[i], prev[i])
            assert lo - 1e-12 <= out[i] <= hi + 1e-12

    def test_errors(self, rng):
        with pytest.raises(ValueError, match="shape"):
            blend_weights(np.zeros(3), np.zeros(4), 0.5)
        with pytest.raises(ValueError, match="lam"):
            blend_weights(np.zeros(3), np.zeros(3), 1.5)


class TestPolicyDecision:
    def test_reinitialize_follows_lam(self):
        assert not PolicyDecision().reinitialize
        assert not PolicyDecision(slope=0.1, threshold=0.2).reinitialize
        assert PolicyDecision(lam=0.0).reinitialize
        assert PolicyDecision(lam=1.0).reinitialize

    def test_fields_defaults_and_immutability(self):
        decision = PolicyDecision(slope=0.1)
        assert PolicyDecision._fields == ("lam", "slope", "threshold")
        assert tuple(decision) == (None, 0.1, None)
        with pytest.raises(AttributeError):
            decision.lam = 1.0


class TestPolicyStep:
    def test_no_reset_always_continues(self, rng):
        model = tiny_model(rng)
        decisions = run_policy(NoReset(), rng.normal(0, 1, 100), model)
        assert not any(d.reinitialize for d in decisions)

    def test_fixed_interval_periodicity(self, rng):
        model = tiny_model(rng)
        decisions = run_policy(FixedInterval(period=50), rng.normal(0, 1, 200), model)
        fired = [t for t, d in enumerate(decisions, start=1) if d.reinitialize]
        assert fired == [50, 100, 150, 200]
        assert all(d.lam == 1.0 for d in decisions if d.reinitialize)

    def test_random_timing_fires_at_listed_steps(self, rng):
        model = tiny_model(rng)
        decisions = run_policy(RandomTiming(times=(3, 17, 40)), rng.normal(0, 1, 60), model)
        fired = [t for t, d in enumerate(decisions, start=1) if d.reinitialize]
        assert fired == [3, 17, 40]

    def test_random_timing_over_a_long_times_list(self, rng):
        # about a quarter of 3,000 steps, the first and the last among them
        listed = rng.random(3000) < 0.25
        listed[[0, -1]] = True
        times = tuple((np.flatnonzero(listed) + 1).tolist())
        decisions = run_policy(RandomTiming(times=times), rng.normal(0, 1, 3000), tiny_model(rng))
        fired = [t for t, d in enumerate(decisions, start=1) if d.reinitialize]
        assert fired == list(times)

    def test_reinitialize_side_effects(self, rng):
        model = tiny_model(rng)
        theta_before = model.theta.copy()
        model.velocity = rng.normal(0, 1, model.theta.size)
        state = FlipSignalState()
        for raw in [0.0] * 3 + [0.5]:
            state.update_ema(raw)
            state.update_min()
        decision = policy_step(HardReset(TriggerConfig(beta=1e-9, warmup_steps=0)), state, model)
        assert decision.reinitialize and decision.lam == 1.0
        assert model.theta.tobytes() == model.theta_source.tobytes()
        assert model.theta_prev_snapshot.tobytes() == model.theta.tobytes()
        assert not model.velocity.any()
        assert state.t == 4 and state.lf_ema is None

    def test_abr_uses_adaptive_lambda(self, rng):
        model = tiny_model(rng)
        policy = BalancedReset(TriggerConfig(beta=1e-9, warmup_steps=0))
        state = FlipSignalState()
        for raw in [0.1, 0.1, 0.3]:
            state.update_ema(raw)
            state.update_min()
        expected_lam = compute_lambda(state)
        decision = policy_step(policy, state, model)
        assert decision.reinitialize
        assert decision.lam == pytest.approx(expected_lam, abs=1e-15)

    def test_abr_and_hard_reset_fire_identically(self, rng):
        # replay one recorded trajectory through both policies
        raws = np.concatenate(
            [np.full(30, 0.01), np.linspace(0.01, 0.2, 20)] * 3
        )
        cfg = TriggerConfig(beta=1e-4, warmup_steps=5, time_unit_scale=64.0)
        fired = {}
        lams = {}
        for name, policy in [
            ("hard", HardReset(cfg)),
            ("abr", BalancedReset(cfg)),
        ]:
            model = tiny_model(np.random.default_rng(7))
            decisions = run_policy(policy, raws, model)
            fired[name] = [t for t, d in enumerate(decisions, 1) if d.reinitialize]
            lams[name] = [d.lam for d in decisions if d.reinitialize]
        assert fired["hard"] == fired["abr"]
        assert len(fired["hard"]) >= 2
        assert all(lam == 1.0 for lam in lams["hard"])
        assert any(lam != 1.0 for lam in lams["abr"])

    def test_no_retrigger_within_warmup(self, rng):
        policy = BalancedReset(TriggerConfig(beta=1e-9, warmup_steps=8))
        model = tiny_model(rng)
        decisions = run_policy(policy, np.abs(rng.normal(0, 1, 300)).cumsum(), model)
        fired = [t for t, d in enumerate(decisions, 1) if d.reinitialize]
        assert fired, "trigger never fired"
        assert all(b - a > 8 for a, b in zip(fired, fired[1:]))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FixedInterval(period=0)
        with pytest.raises(ValueError):
            RandomTiming(times=(5, 5))
        with pytest.raises(ValueError):
            RandomTiming(times=(0, 3))
        with pytest.raises(ValueError):
            BalancedReset(force_lambda=1.5)

    def test_decision_diagnostics_populated(self, rng):
        model = tiny_model(rng)
        state = FlipSignalState()
        for raw in [0.1, 0.2, 0.3]:
            state.update_ema(raw)
            state.update_min()
        decision = policy_step(BalancedReset(TriggerConfig(beta=1e3)), state, model)
        assert not decision.reinitialize
        assert decision.slope is not None and decision.threshold is not None
        assert decision.slope == (state.lf_ema - state.lf_min) / (state.t - state.t_min)
        # clock policies have no beta, hence no threshold
        decision = policy_step(NoReset(), state, model)
        assert decision.threshold is None and decision.slope is not None

    def test_resets_exactly_when_the_logged_slope_exceeds_the_threshold(self, rng):
        # delta_lf equal to beta * sqrt(dt * scale): the rearranged inequality
        # reads "no reset" while the logged floats read slope > threshold
        beta = 8.291283895033408e-06
        state = make_state(lf_ema=beta * math.sqrt(532 * 64), lf_min=0.0, t=533, t_min=1)
        policy = BalancedReset(TriggerConfig(beta=beta, warmup_steps=0, time_unit_scale=64.0))
        decision = policy_step(policy, state, tiny_model(rng))
        assert decision.reinitialize
        assert decision.slope > decision.threshold

    @settings(max_examples=300, deadline=None)
    @given(
        beta=st.floats(-8.0, -4.0).map(lambda e: 10.0**e),
        delta_t=st.integers(1, 1999),
        ulps=st.integers(-4, 4),
        warmup=st.integers(0, 3),
        steps_since_reset=st.integers(0, 6),
        policy_cls=st.sampled_from([HardReset, BalancedReset]),
    )
    @example(beta=8.291283895033408e-06, delta_t=532, ulps=0, warmup=0, steps_since_reset=533, policy_cls=HardReset)
    def test_near_the_bound_the_reset_follows_the_logged_rule(
        self, beta, delta_t, ulps, warmup, steps_since_reset, policy_cls
    ):
        cfg = TriggerConfig(beta=beta, warmup_steps=warmup, time_unit_scale=64.0)
        state = make_state(
            lf_ema=ulps_off(beta * math.sqrt(delta_t * 64.0), ulps),
            lf_min=0.0,
            t=delta_t + 1,
            t_min=1,
            steps_since_reset=steps_since_reset,
        )
        checked = trigger_check(state, cfg)
        decision = policy_step(policy_cls(cfg), state, tiny_model(np.random.default_rng(0)))
        logged = steps_since_reset > warmup and decision.slope > decision.threshold
        assert decision.reinitialize == logged == checked
