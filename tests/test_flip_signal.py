"""Flip-score, EMA and running-minimum contracts."""

import re

import numpy as np
import pytest

from flipreset.flip_signal import FlipSignalState, observe_batch
from flipreset.learner import Prediction

from conftest import drive


def pred(classes, confidence):
    return Prediction(classes=np.asarray(classes), confidence=np.asarray(confidence, dtype=float))


def loop_raw(prev, curr, normalize=True):
    """Independent scalar re-computation of the batch flip score."""
    total = 0.0
    for pc, pcf, cc, ccf in zip(prev.classes, prev.confidence, curr.classes, curr.confidence):
        if pc != cc:
            total += ccf * (ccf - pcf)
    return total / len(prev.classes) if normalize else total


class TestObserveBatch:
    def test_two_sample_example(self):
        prev = pred([0, 1], [0.6, 0.9])
        curr = pred([1, 1], [0.8, 0.7])
        raw = observe_batch(prev, curr)
        assert isinstance(raw, float)
        assert raw == pytest.approx(0.08, abs=1e-15)

    def test_no_flips_gives_zero(self):
        prev = pred([2, 0, 1], [0.5, 0.6, 0.7])
        curr = pred([2, 0, 1], [0.9, 0.1, 0.3])
        raw = observe_batch(prev, curr)
        assert raw == 0.0

    def test_mixed_flips_with_confidence_drop_matches_loop_oracle(self):
        # sample 0 flips with a confidence decrease, sample 2 flips with a gain
        prev = pred([0, 1, 2], [0.7, 0.2, 0.5])
        curr = pred([1, 1, 3], [0.5, 0.9, 0.6])
        raw = observe_batch(prev, curr)
        assert raw == pytest.approx(loop_raw(prev, curr), abs=1e-12)
        assert raw == pytest.approx((0.5 * -0.2 + 0.6 * 0.1) / 3, abs=1e-12)

    def test_normalization_flag(self, rng):
        prev = pred(rng.integers(0, 4, 32), rng.uniform(0, 1, 32))
        curr = pred(rng.integers(0, 4, 32), rng.uniform(0, 1, 32))
        raw_norm = observe_batch(prev, curr)
        raw_bare = observe_batch(prev, curr, normalize=False)
        assert raw_bare == pytest.approx(32 * raw_norm, rel=1e-12)
        assert raw_bare == pytest.approx(loop_raw(prev, curr, normalize=False), abs=1e-12)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError, match="sample counts"):
            observe_batch(pred([0, 1], [0.5, 0.5]), pred([0], [0.5]))

    def test_classes_of_other_shapes_rejected_by_their_shapes(self):
        with pytest.raises(ValueError, match=re.escape("shapes (3,) (prev) and (1, 3) (curr)")):
            observe_batch(pred([0, 1, 1], [0.5] * 3), pred([[1, 1, 0]], [0.9] * 3))
        with pytest.raises(ValueError, match=re.escape("shapes (1, 3) (prev) and (1, 3) (curr)")):
            observe_batch(pred([[0, 1, 1]], [0.5] * 3), pred([[1, 1, 0]], [0.9] * 3))

    @pytest.mark.parametrize("field", ["conf_curr", "conf_prev"])
    @pytest.mark.parametrize("short", [[0.5], [[0.5, 0.5, 0.5]], []])
    def test_confidences_must_match_the_classes(self, field, short):
        # a one-element confidence would broadcast over the whole batch
        conf = {"conf_curr": [0.9, 0.9, 0.9], "conf_prev": [0.5, 0.5, 0.5]}
        conf[field] = short
        prev = Prediction(classes=[0, 1, 1], confidence=conf["conf_prev"])
        curr = Prediction(classes=[1, 1, 0], confidence=conf["conf_curr"])
        with pytest.raises(ValueError, match=rf"^{field} has shape"):
            observe_batch(prev, curr)

    def test_list_inputs_accepted(self):
        prev = Prediction(classes=[0, 1], confidence=[0.6, 0.9])
        curr = Prediction(classes=[1, 1], confidence=[0.8, 0.7])
        assert observe_batch(prev, curr) == observe_batch(pred([0, 1], [0.6, 0.9]), pred([1, 1], [0.8, 0.7]))

    @pytest.mark.parametrize("k", [4, 9])
    def test_score_has_the_bits_of_the_plain_expression(self, k):
        rng = np.random.default_rng(k)
        for _ in range(200):
            n = int(rng.integers(1, 100))
            prev = pred(rng.integers(0, k, n), rng.choice([0.0, -0.0, 0.25, 1.0, *rng.uniform(0, 1, 8)], n))
            curr = pred(rng.integers(0, k, n), rng.choice([0.0, -0.0, 0.25, 1.0, *rng.uniform(0, 1, 8)], n))
            flip = prev.classes != curr.classes
            expected = float((flip * curr.confidence * (curr.confidence - prev.confidence)).sum())
            assert np.float64(observe_batch(prev, curr, normalize=False)).tobytes() == np.float64(expected).tobytes()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            observe_batch(pred([], []), pred([], []))

    def test_confidence_bounds_enforced(self):
        with pytest.raises(ValueError, match="conf_curr"):
            observe_batch(pred([0], [0.5]), pred([1], [1.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["conf_curr", "conf_prev"])
    def test_non_finite_confidence_rejected(self, bad, field):
        conf = {"conf_curr": [0.5, 0.6], "conf_prev": [0.1, 0.2]}
        conf[field][1] = bad
        with pytest.raises(ValueError, match=field):
            observe_batch(pred([0, 1], conf["conf_prev"]), pred([1, 1], conf["conf_curr"]))

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 50))
            prev = pred(rng.integers(0, 4, n), rng.uniform(0, 1, n))
            curr = pred(rng.integers(0, 4, n), rng.uniform(0, 1, n))
            perm = rng.permutation(n)
            raw = observe_batch(prev, curr)
            raw_p = observe_batch(
                pred(prev.classes[perm], prev.confidence[perm]),
                pred(curr.classes[perm], curr.confidence[perm]),
            )
            assert raw_p == pytest.approx(raw, abs=1e-12)

    def test_raw_nonnegative_when_flips_gain_confidence(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            prev_conf = rng.uniform(0, 1, n)
            curr_conf = prev_conf + rng.uniform(0, 1, n) * (1 - prev_conf)
            prev = pred(rng.integers(0, 3, n), prev_conf)
            curr = pred(rng.integers(0, 3, n), curr_conf)
            raw = observe_batch(prev, curr)
            assert raw >= 0.0


class TestUpdateEma:
    def test_direct_evaluation(self):
        state = drive(FlipSignalState(alpha=0.5), [0.2])
        state.update_ema(0.4)
        assert state.lf_ema == pytest.approx(0.3, abs=1e-15)

    def test_fixed_point(self):
        state = drive(FlipSignalState(alpha=0.5), [0.37, 0.37, 0.37])
        assert state.lf_ema == 0.37

    def test_first_observation_seeds_directly(self):
        state = FlipSignalState(alpha=0.5)
        state.update_ema(0.9)
        assert state.lf_ema == 0.9
        assert state.t == 1

    def test_hundred_step_recurrence_oracle(self, rng):
        raws = rng.normal(0, 0.1, 100)
        state = drive(FlipSignalState(alpha=0.5), raws)
        expected = raws[0]
        for raw in raws[1:]:
            expected = 0.5 * expected + 0.5 * raw
        assert state.lf_ema == pytest.approx(expected, abs=1e-12)

    def test_non_finite_raw_rejected(self):
        state = FlipSignalState()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="non-finite"):
                state.update_ema(bad)

    def test_boundedness(self, rng):
        state = FlipSignalState(alpha=0.3)
        state.update_ema(rng.normal())
        for _ in range(200):
            old = state.lf_ema
            raw = float(rng.normal())
            state.update_ema(raw)
            assert min(old, raw) <= state.lf_ema <= max(old, raw)

    def test_alpha_validated(self):
        for alpha in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                FlipSignalState(alpha=alpha)


class TestUpdateMin:
    def test_strict_improvement(self):
        state = drive(FlipSignalState(), [0.1] * 6)
        state.update_ema(-0.1)  # ema drops below the running min
        state.update_min()
        assert state.t_min == 7
        assert state.lf_min == state.lf_ema

    def test_tie_keeps_earlier_index(self):
        state = drive(FlipSignalState(), [0.1, 0.1, 0.1])
        assert state.t_min == 1

    def test_fifty_step_scan_oracle(self, rng):
        raws = rng.normal(0, 1, 50)
        state = FlipSignalState()
        emas = []
        for raw in raws:
            state.update_ema(raw)
            state.update_min()
            emas.append(state.lf_ema)
            assert state.lf_min == min(emas)
            assert state.t_min == int(np.argmin(emas)) + 1
            assert state.t_min <= state.t

    def test_min_nonincreasing(self, rng):
        state = FlipSignalState()
        last = None
        for raw in rng.normal(0, 1, 100):
            state.update_ema(raw)
            state.update_min()
            if last is not None:
                assert state.lf_min <= last
            last = state.lf_min


class TestResetSignal:
    def test_reset_clears_but_keeps_global_step(self, rng):
        state = drive(FlipSignalState(), rng.normal(0, 1, 17))
        state.reset_signal()
        assert state.t == 17
        assert state.lf_ema is None and state.lf_min is None and state.t_min is None
        assert state.steps_since_reset == 0

    def test_post_reset_reseeds_from_raw(self, rng):
        state = drive(FlipSignalState(), rng.normal(0, 1, 5))
        state.reset_signal()
        state.update_ema(0.42)
        assert state.lf_ema == 0.42

    def test_min_restricted_to_post_reset_history(self, rng):
        state = drive(FlipSignalState(), rng.normal(-10, 0.1, 10))  # very low pre-reset values
        state.reset_signal()
        raws = rng.normal(0, 1, 20)
        emas = []
        for raw in raws:
            state.update_ema(raw)
            state.update_min()
            emas.append(state.lf_ema)
        assert state.lf_min == min(emas)
        assert state.t_min == 10 + int(np.argmin(emas)) + 1

    def test_warmup_window(self):
        state = FlipSignalState()
        counts = []
        for raw in [0.1] * 5:
            state.update_ema(raw)
            counts.append(state.steps_since_reset)
        assert counts == [1, 2, 3, 4, 5]
        state.reset_signal()
        assert state.steps_since_reset == 0
        state.update_ema(0.1)
        assert state.steps_since_reset == 1 and state.t == 6
