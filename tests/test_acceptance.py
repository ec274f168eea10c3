"""Acceptance gate.

One test per criterion; each prints a pass/fail line (visible with -s) and
enforces its stated tolerance and runtime budget. Dynamics thresholds (the
collapse seeds, the benefit margins, the bad-timing configuration) were
pinned from the reference oracle run committed at
tests/data/reference_summary.json and regenerable via scripts/make_reference.py.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from flipreset.cli import main as cli_main
from flipreset.config import load_config
from flipreset.flip_signal import FlipSignalState
from flipreset.harness import run_experiment
from flipreset.learner import (
    EntropyMin,
    ModelState,
    entropy_grad,
    entropy_loss,
    predict,
    rpl_grad,
    rpl_loss,
)
from flipreset.policy import (
    BalancedReset,
    HardReset,
    TriggerConfig,
    blend_weights,
    compute_lambda,
    policy_step,
    slope,
    trigger_check,
)

from conftest import CONFIG_DIR, make_state

# pinned from the reference oracle run (see module docstring)
ABR_FINAL_MARGIN = 0.08  # observed aggregate margin: 0.1736
TRIGGER_FIRST_FIRE = 505  # offline scan on the flat-500-then-ramp trajectory


def _report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


def frozen_variant(config):
    learner = dataclasses.replace(config.learner, learning_rate=0.0, momentum=0.0)
    return dataclasses.replace(config, learner=learner)


def test_criterion_1_formula_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    # ema / min / slope against recomputation from the stored raw history
    raws = rng.normal(0.0, 0.05, 1100)
    state = FlipSignalState(alpha=0.5)
    ema_hist: list[float] = []
    slope_checks = 0
    for t, raw in enumerate(raws, start=1):
        state.update_ema(float(raw))
        state.update_min()
        expected_ema = raws[0]
        for r in raws[1:t]:
            expected_ema = 0.5 * expected_ema + 0.5 * r
        # recomputing the whole prefix each step is O(n^2); cheap at n=1100
        ema_hist.append(state.lf_ema)
        assert abs(state.lf_ema - expected_ema) <= 1e-12
        assert state.lf_min == min(ema_hist)
        assert state.t_min == int(np.argmin(ema_hist)) + 1
        s = slope(state)
        if t > state.t_min:
            slope_checks += 1
            assert abs(s - (ema_hist[-1] - min(ema_hist)) / (t - state.t_min)) <= 1e-12
        else:
            assert s is None
    assert slope_checks >= 1000

    # trigger versus the direct slope-form inequality
    for _ in range(1000):
        scale = float(rng.choice([1.0, 64.0]))
        beta = float(10 ** rng.uniform(-7, -2))
        t = int(rng.integers(2, 2000))
        t_min = int(rng.integers(1, t + 1))
        lf_min = float(rng.normal(0, 0.01))
        lf_ema = lf_min + float(rng.uniform(0, 0.01))
        st = make_state(lf_ema=lf_ema, lf_min=lf_min, t=t, t_min=t_min, steps_since_reset=t)
        cfg = TriggerConfig(beta=beta, warmup_steps=0, time_unit_scale=scale)
        delta_t = t - t_min
        if delta_t < 1:
            fires = False
        else:
            units = delta_t * scale
            fires = (lf_ema - lf_min) / units > beta / math.sqrt(units)
        assert trigger_check(st, cfg) == fires

    # restore ratio versus the clamped formula
    for _ in range(1000):
        lf_min = float(rng.normal(0, 1))
        lf_ema = lf_min + float(rng.uniform(0, 2))
        lam = compute_lambda(make_state(lf_ema=lf_ema, lf_min=lf_min))
        p, m = max(lf_ema, 0.0), max(lf_min, 0.0)
        expected = 0.5 if (p <= 1e-12 and m <= 1e-12) else p / (p + m)
        assert abs(lam - expected) <= 1e-12
        assert 0.0 <= lam <= 1.0

    # blending versus a per-coordinate scalar loop; endpoints bitwise
    for i in range(1000):
        src = rng.normal(0, 1, 32)
        prev = rng.normal(0, 1, 32)
        lam = float(rng.uniform(0, 1))
        out = blend_weights(src, prev, lam)
        for j in range(32):
            assert abs(out[j] - (lam * src[j] + (1 - lam) * prev[j])) <= 1e-12
        if i < 100:
            assert blend_weights(src, prev, 1.0).tobytes() == src.tobytes()
            assert blend_weights(src, prev, 0.0).tobytes() == prev.tobytes()

    elapsed = time.perf_counter() - t0
    _report(1, "formula oracles", elapsed < 10.0, f"6 ops x >=1000 inputs in {elapsed:.1f}s (budget 10s)")


def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        theta = rng.normal(0, 1, k * (d + 1))
        batch = rng.normal(0, 1, (n, d))

        def fd(f):
            g = np.zeros_like(theta)
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += 1e-5
                down[i] -= 1e-5
                g[i] = (f(up) - f(down)) / 2e-5
            return g

        g = entropy_grad(theta, batch)
        g_fd = fd(lambda th: entropy_loss(th, batch))
        err = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-10)
        worst = max(worst, err)
        assert err < 1e-4

        pseudo = predict(theta, batch).classes
        g = rpl_grad(theta, batch, q=0.8)
        g_fd = fd(lambda th: rpl_loss(th, batch, pseudo, q=0.8))
        err = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-10)
        worst = max(worst, err)
        assert err < 1e-4

    elapsed = time.perf_counter() - t0
    _report(
        2,
        "gradient checks",
        elapsed < 30.0,
        f"100 instances x 2 losses, worst rel err {worst:.2e} (tol 1e-4) in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_collapse_reproduction():
    t0 = time.perf_counter()
    config = load_config(CONFIG_DIR / "collapse.json")
    frozen_cfg = frozen_variant(config)
    below = 0
    details = []
    for seed in config.seeds:
        frozen = run_experiment(frozen_cfg, seed, policy_name="frozen")
        no_reset = run_experiment(config, seed, policy=config.policies["no_reset"], policy_name="no_reset")
        below += no_reset.final_window_accuracy() < frozen.final_window_accuracy()
        details.append(
            f"seed {seed}: {no_reset.final_window_accuracy():.3f} vs frozen {frozen.final_window_accuracy():.3f}"
        )
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "collapse reproduction",
        below >= 4 and elapsed < 180.0,
        f"{below}/5 seeds below frozen source in the final window ({'; '.join(details)}) "
        f"in {elapsed:.0f}s (budget 180s)",
    )


def test_criterion_4_abr_benefit():
    t0 = time.perf_counter()
    config = load_config(CONFIG_DIR / "collapse.json")
    mean_wins = 0
    final_margins = []
    for seed in config.seeds:
        no_reset = run_experiment(config, seed, policy=config.policies["no_reset"], policy_name="no_reset")
        abr = run_experiment(config, seed, policy=config.policies["abr"], policy_name="abr")
        mean_wins += abr.mean_accuracy() > no_reset.mean_accuracy()
        final_margins.append(abr.final_window_accuracy() - no_reset.final_window_accuracy())
    aggregate_margin = float(np.mean(final_margins))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "adaptive reset benefit",
        mean_wins == len(config.seeds) and aggregate_margin >= ABR_FINAL_MARGIN and elapsed < 300.0,
        f"mean-accuracy wins {mean_wins}/{len(config.seeds)}, final-window margin "
        f"{aggregate_margin:.3f} (pinned >= {ABR_FINAL_MARGIN}) in {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_5_bad_timing():
    t0 = time.perf_counter()
    config = load_config(CONFIG_DIR / "bad_timing.json")
    no_reset_means = []
    bad_means = []
    for seed in config.seeds:
        no_reset = run_experiment(config, seed, policy=config.policies["no_reset"], policy_name="no_reset")
        bad = run_experiment(config, seed, policy=config.policies["bad_timing"], policy_name="bad_timing")
        no_reset_means.append(no_reset.mean_accuracy())
        bad_means.append(bad.mean_accuracy())
    nr, bd = float(np.mean(no_reset_means)), float(np.mean(bad_means))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "bad-timing reproduction",
        bd <= nr,
        f"ill-timed resets {bd:.3f} vs no_reset {nr:.3f} (must not exceed) in {elapsed:.0f}s",
    )


def _scan_first_fire(raws, beta, warmup, scale):
    """Offline trigger scan: EMA, running min and the slope inequality."""
    ema = None
    mn = None
    t_mn = None
    for t, raw in enumerate(raws, start=1):
        ema = raw if ema is None else 0.5 * ema + 0.5 * raw
        if mn is None or ema < mn:
            mn, t_mn = ema, t
        if t > warmup and t - t_mn >= 1:
            units = (t - t_mn) * scale
            if (ema - mn) / units > beta / math.sqrt(units):
                return t
    return None


def test_criterion_6_trigger_semantics():
    t0 = time.perf_counter()
    cfg = TriggerConfig(beta=2e-6, warmup_steps=10, time_unit_scale=64.0)
    flat = [0.01] * 500
    ramp = [0.01 + 1e-4 * k for k in range(1, 301)]

    # piecewise trajectory: step-by-step trigger equals the offline scan
    state = FlipSignalState(alpha=0.5)
    first_fire = None
    for t, raw in enumerate(flat + ramp, start=1):
        state.update_ema(raw)
        state.update_min()
        if first_fire is None and trigger_check(state, cfg):
            first_fire = t
    oracle = _scan_first_fire(flat + ramp, cfg.beta, cfg.warmup_steps, cfg.time_unit_scale)
    assert first_fire == oracle == TRIGGER_FIRST_FIRE

    # flat trajectories never fire
    state = FlipSignalState(alpha=0.5)
    for raw in flat:
        state.update_ema(raw)
        state.update_min()
        assert not trigger_check(state, cfg)

    # no firing inside any warm-up window, including after resets
    rng = np.random.default_rng(3)
    policy = BalancedReset(TriggerConfig(beta=1e-9, warmup_steps=10))
    model = ModelState.initialize(3, 4, rng)
    st = FlipSignalState()
    fired = []
    for t, raw in enumerate(np.abs(rng.normal(0, 1, 400)).cumsum(), start=1):
        st.update_ema(float(raw))
        st.update_min()
        if policy_step(policy, st, model).reinitialize:
            fired.append(t)
    assert fired and fired[0] > 10
    assert all(b - a > 10 for a, b in zip(fired, fired[1:]))

    elapsed = time.perf_counter() - t0
    _report(
        6,
        "trigger semantics",
        elapsed < 1.0,
        f"first fire at step {first_fire} matches offline scan; {len(fired)} warm-up-spaced resets; "
        f"{elapsed:.2f}s (budget 1s)",
    )


def test_criterion_7_run_determinism(tmp_path):
    config = str(CONFIG_DIR / "quick.json")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", config, "--out", str(out_a), "--quiet"]) == 0
    assert cli_main(["run", "--config", config, "--out", str(out_b), "--quiet"]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    _report(7, "run determinism", identical, f"two runs, {out_a.stat().st_size} bytes each, bitwise identical")


def test_criterion_8_policy_algebra():
    trigger = TriggerConfig(beta=1e-4, warmup_steps=5, time_unit_scale=64.0)
    raws = np.concatenate([np.concatenate([np.full(40, 0.01), np.linspace(0.01, 0.3, 25)])] * 4)

    def replay(policy):
        rng = np.random.default_rng(11)
        model = ModelState.initialize(3, 4, rng)
        state = FlipSignalState()
        fired, thetas = [], []
        for t, raw in enumerate(raws, start=1):
            model.theta = model.theta + 0.01  # identical synthetic drift per step
            state.update_ema(float(raw))
            state.update_min()
            decision = policy_step(policy, state, model)
            if decision.reinitialize:
                fired.append(t)
                thetas.append(model.theta.tobytes())
        return fired, thetas, model.theta.tobytes()

    hard_fired, hard_thetas, hard_end = replay(HardReset(trigger))
    abr_fired, abr_thetas, _ = replay(BalancedReset(trigger))
    forced_fired, forced_thetas, forced_end = replay(BalancedReset(trigger, force_lambda=1.0))

    same_steps = hard_fired == abr_fired == forced_fired and len(hard_fired) >= 2
    forced_matches = forced_thetas == hard_thetas and forced_end == hard_end
    adaptive_differs = abr_thetas != hard_thetas
    _report(
        8,
        "policy algebra",
        same_steps and forced_matches and adaptive_differs,
        f"fired at {hard_fired} for all variants; forced-lambda weights bitwise equal to hard reset",
    )
