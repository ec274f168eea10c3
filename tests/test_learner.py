"""Classifier, adaptation losses and optimizer contracts."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flipreset.learner import (
    EPS,
    DivergenceError,
    EntropyMin,
    ModelState,
    PretrainConfig,
    RobustPseudoLabel,
    adapt_batch,
    entropy_grad,
    entropy_loss,
    predict,
    pretrain_source,
    rpl_grad,
    rpl_loss,
    sgd_step,
    softmax_forward,
)
from flipreset.learner import _flat_index, _row_offsets, _theta_grad
from flipreset.stream import SourceDistribution


def random_instance(rng, max_classes=4, max_features=5, max_batch=8):
    k = int(rng.integers(2, max_classes + 1))
    d = int(rng.integers(2, max_features + 1))
    n = int(rng.integers(1, max_batch + 1))
    theta = rng.normal(0, 1, k * (d + 1))
    batch = rng.normal(0, 1, (n, d))
    return theta, batch, k, d


def fd_grad(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        g[i] = (f(up) - f(down)) / (2 * h)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-10)


def exact_logits(logits):
    """(theta, batch) whose logits ``batch @ W.T + b`` are ``logits``, up to
    the sign of a zero: identity weights and a -0.0 bias."""
    k = logits.shape[1]
    return np.concatenate([np.eye(k).ravel(), np.full(k, -0.0)]), logits


def pinned_cases(k, rng):
    """(theta, batch) pairs with K = ``k`` classes and N in {1, 64, 257, 1600}:
    random weights, then logits set exactly to random values, rows with a
    tied maximum, all-equal rows, +-0.0 and +-700."""
    for n in (1, 64, 257, 1600):
        d = int(rng.integers(1, 17))
        yield rng.normal(0, 1, k * (d + 1)), rng.normal(0, 2, (n, d))
        logits = rng.normal(0, 3, (n, k))
        yield exact_logits(logits.copy())
        tied = logits.copy()
        tied[:, -1] = tied.max(axis=1)
        yield exact_logits(tied)
        yield exact_logits(np.repeat(rng.normal(0, 3, (n, 1)), k, axis=1))
        yield exact_logits(rng.choice([0.0, -0.0], (n, k)))
        yield exact_logits(rng.choice([700.0, -700.0], (n, k)))


def reference_softmax(theta, batch, row_sum=lambda p: p.sum(axis=1, keepdims=True)):
    """softmax_forward's arithmetic with numpy's own row max."""
    d = batch.shape[1]
    k = theta.size // (d + 1)
    z = batch @ theta[: k * d].reshape(k, d).T + theta[k * d :]
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    return p / row_sum(p)


def sequential_row_sum(p):
    total = p[:, :1].copy()
    for j in range(1, p.shape[1]):
        total += p[:, j : j + 1]
    return total


class TestSoftmaxForward:
    def test_zero_weights_give_uniform(self):
        for k in (2, 3, 7):
            p = softmax_forward(np.zeros(k * 4), np.zeros((2, 3)))
            assert p.shape == (2, k)
            assert np.allclose(p, 1.0 / k, atol=1e-15)

    def test_saturated_logits(self):
        # logits [10, -10] via bias-only weights
        theta = np.array([0.0, 0.0, 10.0, -10.0])  # d=1, K=2
        (p,) = softmax_forward(theta, np.array([[0.0]]))
        assert p[0] == pytest.approx(1.0, abs=1e-8)
        assert p[1] == pytest.approx(np.exp(-20) / (1 + np.exp(-20)), rel=1e-9)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_matches_naive_unshifted_oracle(self, rng):
        for _ in range(100):
            theta, batch, k, d = random_instance(rng)
            p = softmax_forward(theta, batch)
            w = theta[: k * d].reshape(k, d)
            b = theta[k * d :]
            z = batch @ w.T + b
            naive = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            assert np.allclose(p, naive, atol=1e-10)

    def test_normalization_invariant(self, rng):
        for _ in range(200):
            theta, batch, _, _ = random_instance(rng)
            p = softmax_forward(theta, batch)
            assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-9)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_forward(np.zeros(4), np.array([[np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            softmax_forward(np.array([np.inf, 0.0, 0.0, 0.0]), np.array([[1.0]]))

    @pytest.mark.parametrize("shape", [(), (4,), (2, 3, 4)])
    @pytest.mark.parametrize("function", [softmax_forward, predict, entropy_grad])
    def test_batch_that_is_not_2d_rejected(self, function, shape):
        theta = np.zeros(3 * (4 + 1))
        with pytest.raises(ValueError, match=rf"2-D.*{re.escape(str(shape))}"):
            function(theta, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_rejected(self, rng, bad):
        theta = rng.normal(0, 1, 3 * (4 + 1))
        batch = rng.normal(0, 1, (6, 4))
        batch[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            softmax_forward(theta, batch)
        # a zero weight column must not hide the bad feature
        theta[[1, 5, 9]] = 0.0
        with pytest.raises(ValueError, match="non-finite"):
            softmax_forward(theta, batch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 7, 13])  # weights, then bias
    def test_non_finite_theta_rejected(self, rng, bad, index):
        theta = rng.normal(0, 1, 3 * (4 + 1))
        theta[index] = bad
        for batch in (rng.normal(0, 1, (6, 4)), np.zeros((6, 4))):
            with pytest.raises(ValueError, match="non-finite"):
                softmax_forward(theta, batch)

    def test_overflowing_logits_return_without_raising(self):
        # finite inputs, logits beyond the float range: nan probabilities
        # for the divergence guards downstream, and no numpy warning
        theta = np.array([1e308, -1e308, 0.0, 0.0])  # d=1, K=2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = softmax_forward(theta, np.array([[10.0], [0.5]]))
        assert np.isnan(p[0]).all()
        assert np.isfinite(p[1]).all()


class TestPredict:
    def test_tie_breaks_to_lowest_index(self):
        pred = predict(np.zeros(2 * 3), np.zeros((1, 2)))  # uniform [0.5, 0.5]
        assert pred.classes[0] == 0
        assert pred.confidence[0] == pytest.approx(0.5, abs=1e-15)

    def test_known_distribution(self):
        # bias-only logits log([0.1, 0.7, 0.2]) produce those exact probabilities
        theta = np.concatenate([np.zeros(3), np.log([0.1, 0.7, 0.2])])
        pred = predict(theta, np.zeros((1, 1)))
        assert pred.classes[0] == 1
        assert pred.confidence[0] == pytest.approx(0.7, abs=1e-12)

    def test_matches_scan_oracle(self, rng):
        theta, batch, _, _ = random_instance(rng, max_batch=20)
        p = softmax_forward(theta, batch)
        pred = predict(theta, batch)
        for i, row in enumerate(p):
            best = 0
            for j in range(1, len(row)):
                if row[j] > row[best]:
                    best = j
            assert pred.classes[i] == best
            assert pred.confidence[i] == row[best]

    def test_gather_offsets_are_built_once_per_shape(self, rng):
        # predictions of one shape share read-only row offsets; each index is new
        offsets = _row_offsets(20, 3)
        assert _row_offsets(20, 3) is offsets and not offsets.flags.writeable
        assert offsets.tolist() == list(range(0, 60, 3))
        columns = rng.integers(0, 3, 20)
        index = _flat_index(columns, 3)
        assert index.flags.writeable and not np.shares_memory(index, offsets)
        assert index.tolist() == [3 * i + c for i, c in enumerate(columns)]
        assert offsets.tolist() == list(range(0, 60, 3))


class TestEntropyGrad:
    def test_saturated_predictions_have_vanishing_gradient(self):
        # huge bias separation -> one-hot predictions -> entropy minimum
        theta = np.concatenate([np.zeros(6), [100.0, -100.0, -100.0]])
        g = entropy_grad(theta, np.ones((4, 2)))
        assert np.linalg.norm(g) < 1e-6

    def test_finite_difference_agreement(self, rng):
        for _ in range(25):
            theta, batch, _, _ = random_instance(rng)
            g = entropy_grad(theta, batch)
            g_fd = fd_grad(lambda th: entropy_loss(th, batch), theta)
            assert rel_err(g, g_fd) < 1e-4

    def test_bias_gradient_sums_to_zero(self, rng):
        # softmax shift invariance: adding a constant to all biases changes nothing
        for _ in range(20):
            theta, batch, k, d = random_instance(rng)
            g = entropy_grad(theta, batch)
            assert abs(g[k * d :].sum()) < 1e-12


class TestRplGrad:
    def test_fully_confident_sample_has_zero_loss_and_gradient(self):
        theta = np.concatenate([np.zeros(4), [200.0, -200.0]])
        batch = np.ones((3, 2))
        pseudo = predict(theta, batch).classes
        assert rpl_loss(theta, batch, pseudo, q=0.8) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(rpl_grad(theta, batch, q=0.8)) < 1e-12

    def test_q_one_closed_form(self, rng):
        theta, batch, _, _ = random_instance(rng, max_batch=1)
        pred = predict(theta, batch)
        loss = rpl_loss(theta, batch, pred.classes, q=1.0)
        assert loss == pytest.approx(1.0 - pred.confidence[0], abs=1e-12)

    def test_finite_difference_agreement(self, rng):
        for _ in range(25):
            theta, batch, _, _ = random_instance(rng)
            pseudo = predict(theta, batch).classes  # hold labels fixed for the oracle
            g = rpl_grad(theta, batch, q=0.8)
            g_fd = fd_grad(lambda th: rpl_loss(th, batch, pseudo, q=0.8), theta)
            assert rel_err(g, g_fd) < 1e-4

    def test_q_validated(self, rng):
        theta, batch, _, _ = random_instance(rng)
        with pytest.raises(ValueError):
            rpl_grad(theta, batch, q=0.0)
        with pytest.raises(ValueError):
            RobustPseudoLabel(q=1.5)


class TestBitwisePins:
    """The learner's class-axis max and flat gathers against the plain
    numpy forms they replace, bit for bit."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_softmax_forward_matches_row_max_reference(self, k):
        for theta, batch in pinned_cases(k, np.random.default_rng(k)):
            assert softmax_forward(theta, batch).tobytes() == reference_softmax(theta, batch).tobytes()

    @pytest.mark.parametrize("k", range(8, 13))
    def test_sequential_row_sum_fails_the_pins_from_eight_classes(self, k):
        # why the row sum stays numpy's: from K = 8 on it no longer adds the
        # columns in order, so summing them column by column changes bits
        assert any(
            softmax_forward(theta, batch).tobytes()
            != reference_softmax(theta, batch, row_sum=sequential_row_sum).tobytes()
            for theta, batch in pinned_cases(k, np.random.default_rng(k))
        )

    @pytest.mark.parametrize("k", range(2, 13))
    def test_fortran_ordered_batch_gives_the_same_bytes(self, k):
        rng = np.random.default_rng(k)
        # 32 features: BLAS's kernel for the other layout rounds differently
        wide = (rng.normal(0, 1, k * 33), rng.normal(0, 2, (100, 32)))
        for theta, batch in [*pinned_cases(k, rng), wide]:
            assert softmax_forward(theta, np.asfortranarray(batch)).tobytes() == softmax_forward(theta, batch).tobytes()

    # both sides of _EINSUM_ROWS; the golden runs sum only at K 4, 8 and 10
    # over N 32, 63, 64, 800, 1,600 and 2,000
    @pytest.mark.parametrize("n", [0, 1, 64, 323, 1001, 1600, 2000])
    def test_theta_grad_bias_is_the_column_sum(self, n):
        rng = np.random.default_rng(n)
        for k in (2, 4, 9, 12):
            gz = rng.normal(0, 1, (n, k))
            gz[:, 1] = -0.0  # numpy's sum starts from +0.0, so this column sums to +0.0
            gz[::3, k - 1] = 0.0
            batch = rng.normal(0, 1, (n, 3))
            expected = gz / n
            grad = _theta_grad(gz, batch)
            assert grad[3 * k :].tobytes() == expected.sum(axis=0).tobytes(), k

    @pytest.mark.parametrize("k", [2, 4, 7, 12])
    def test_predict_confidence_is_the_fancy_gather(self, k):
        for theta, batch in pinned_cases(k, np.random.default_rng(k)):
            p = softmax_forward(theta, batch)
            pred = predict(theta, batch)
            assert pred.classes.tobytes() == p.argmax(axis=1).tobytes()
            assert pred.confidence.tobytes() == p[np.arange(len(p)), pred.classes].tobytes()

    @pytest.mark.parametrize("k", [2, 4, 7, 9, 12])
    def test_entropy_grad_matches_plain_reference(self, k):
        for theta, batch in pinned_cases(k, np.random.default_rng(k)):
            p = softmax_forward(theta, batch)
            v = -(np.log(p + EPS) + p / (p + EPS))
            gz = p * (v - (v * p).sum(axis=1, keepdims=True)) / len(p)
            expected = np.concatenate([(gz.T @ batch).ravel(), gz.sum(axis=0)])
            assert entropy_grad(theta, batch).tobytes() == expected.tobytes()

    # q 0.5 and 1.0 reach special cases of numpy's ** (square root, identity)
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("k", [2, 4, 7, 9, 12])
    def test_rpl_grad_matches_fancy_index_reference(self, k, q):
        for theta, batch in pinned_cases(k, np.random.default_rng(k)):
            p = softmax_forward(theta, batch)
            idx, pseudo = np.arange(len(p)), p.argmax(axis=1)
            coef = p[idx, pseudo] ** q
            gz = p * coef[:, None]
            gz[idx, pseudo] -= coef
            gz /= len(p)
            expected = np.concatenate([(gz.T @ batch).ravel(), gz.sum(axis=0)])
            assert rpl_grad(theta, batch, q=q).tobytes() == expected.tobytes()


class TestSgdStep:
    def test_plain_sgd(self, rng):
        model = ModelState.initialize(2, 3, rng)
        before = model.theta.copy()
        sgd_step(model, np.ones_like(model.theta), learning_rate=0.1, momentum=0.0)
        assert np.allclose(model.theta, before - 0.1, atol=1e-15)

    def test_zero_gradient_fixed_point(self, rng):
        model = ModelState.initialize(2, 3, rng)
        before = model.theta.copy()
        sgd_step(model, np.zeros_like(model.theta), learning_rate=0.05, momentum=0.9)
        assert model.theta.tobytes() == before.tobytes()

    def test_momentum_matches_unrolled_recurrence(self, rng):
        model = ModelState.initialize(2, 3, rng)
        grads = [rng.normal(0, 1, model.theta.size) for _ in range(10)]
        theta = model.theta.copy()
        velocity = np.zeros_like(theta)
        for g in grads:
            sgd_step(model, g, learning_rate=0.05, momentum=0.9)
            velocity = 0.9 * velocity + g
            theta = theta - 0.05 * velocity
        assert np.allclose(model.theta, theta, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        model = ModelState.initialize(2, 3, rng)
        with pytest.raises(ValueError):
            sgd_step(model, np.zeros(5), learning_rate=0.05, momentum=0.9)

    @pytest.mark.parametrize("k", [4, 9])
    def test_matches_the_plain_recurrence_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        model = ModelState.initialize(k, 16, rng)
        theta, velocity = model.theta.copy(), np.zeros_like(model.theta)
        for _ in range(20):
            gradient = rng.normal(0, 1, theta.size)
            kept = gradient.copy()
            sgd_step(model, gradient, learning_rate=0.05, momentum=0.9)
            assert gradient.tobytes() == kept.tobytes()
            velocity = 0.9 * velocity + gradient
            theta = theta - 0.05 * velocity
            assert model.velocity.tobytes() == velocity.tobytes()
            assert model.theta.tobytes() == theta.tobytes()


def pretrain(rng, separation=4.0, n_classes=2, n_features=2, **settings):
    """pretrain_source on a ``SourceDistribution`` of the given shape, with
    200 samples a class and 5 epochs unless ``settings`` gives others."""
    settings = PretrainConfig(**{"samples_per_class": 200, "epochs": 5, **settings})
    return pretrain_source(SourceDistribution(n_classes, n_features, separation), settings, rng)


class TestPretrainSource:
    def test_separable_gaussians_reach_95_percent(self, rng):
        _, holdout = pretrain(rng)
        assert holdout >= 0.95

    def test_zero_epochs_leave_theta_at_initialization(self):
        model, _ = pretrain(np.random.default_rng(9), epochs=0)
        # replay the rng consumption: same draws for the samples, the holdout split and init
        replay = np.random.default_rng(9)
        SourceDistribution(2, 2, 4.0).sample(400, replay)
        replay.permutation(400)
        expected = 0.01 * replay.standard_normal(2 * 3)
        assert model.theta.tobytes() == expected.tobytes()

    def test_shuffled_labels_sit_at_chance(self, rng):
        # classes a millionth apart: the features say nothing of the labels
        _, holdout = pretrain(
            rng, epochs=30, learning_rate=0.3, separation=1e-6, n_classes=4, n_features=6,
            samples_per_class=1000, holdout_fraction=0.25,
        )
        assert abs(holdout - 1.0 / 4) < 0.05

    def test_source_snapshot_frozen(self, rng):
        model, _ = pretrain(rng)
        assert not model.theta_source.flags.writeable
        assert model.theta_source.tobytes() == model.theta.tobytes()

    def test_matches_two_pass_reference_bitwise(self):
        # the reference takes the loss and the gradient from two softmax
        # passes; 404 samples leave 323 to train on, not a multiple of 8, and
        # 1,100 samples with 9 % held out leave 1,001
        cases = [(3, 4, 300, 0.2), (4, 16, 1600, 0.2), (4, 16, 404, 0.2), (9, 16, 900, 0.2), (10, 16, 1100, 0.09)]
        for k, d, n, holdout in cases:
            model, _ = pretrain(
                np.random.default_rng(5), epochs=20, separation=1.5, n_classes=k, n_features=d,
                samples_per_class=n // k, holdout_fraction=holdout,
            )

            replay = np.random.default_rng(5)
            labels = replay.integers(0, k, n)
            features = 1.5 * np.eye(k, d)[labels] + replay.standard_normal((n, d))
            order = replay.permutation(n)
            train = order[int(round(holdout * n)) :]
            x, y = features[train], labels[train]
            idx = np.arange(len(y))
            theta = 0.01 * replay.standard_normal(k * (d + 1))
            for _ in range(20):
                p = softmax_forward(theta, x)
                assert np.isfinite(-np.mean(np.log(p[idx, y] + 1e-12)))
                gz = softmax_forward(theta, x).copy()
                gz[idx, y] -= 1.0
                gz /= len(y)
                theta = theta - 0.5 * np.concatenate([(gz.T @ x).ravel(), gz.sum(axis=0)])
            assert model.theta.tobytes() == theta.tobytes(), (k, d, n)
            assert model.theta_source.tobytes() == theta.tobytes(), (k, d, n)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"epochs": -1}, "epochs must be >= 0"),
            ({"holdout_fraction": 1.0}, r"holdout_fraction must lie in \[0, 1\)"),
            ({"holdout_fraction": -0.5}, r"holdout_fraction must lie in \[0, 1\)"),
        ],
    )
    def test_out_of_range_arguments_rejected(self, change, match):
        with pytest.raises(ValueError, match=match):
            PretrainConfig(**change)

    def test_holdout_that_leaves_no_training_sample_rejected(self, rng):
        with pytest.raises(ValueError, match="holdout_fraction 0.9 leaves none of 2 samples to train on"):
            pretrain(rng, samples_per_class=1, holdout_fraction=0.9)
        assert PretrainConfig(samples_per_class=1, holdout_fraction=0.5).split(2) == (2, 1)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self, rng):
        # the first step's weights overflow the logits of the second
        with pytest.raises(DivergenceError, match="pretraining loss non-finite at epoch 1") as excinfo:
            pretrain(rng, epochs=3, learning_rate=1e30, separation=1e200)
        assert excinfo.value.step == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("epochs", [1, 3], ids=["last epoch", "epoch before another"])
    def test_weights_overflowing_in_a_step_raise(self, rng, epochs):
        # the loss is finite, but the first step takes the weights to inf,
        # which the holdout or the next epoch would feed to softmax_forward
        with pytest.raises(DivergenceError, match="pretraining weights non-finite at epoch 0") as excinfo:
            pretrain(rng, epochs=epochs, learning_rate=1e300, separation=1e300)
        assert excinfo.value.step == 0


class TestAdaptBatch:
    def test_zero_learning_rate_freezes_predictions(self, rng):
        model = ModelState.initialize(3, 4, rng)
        batch = rng.normal(0, 1, (16, 4))
        for _ in range(5):
            prev_pred, curr_pred = adapt_batch(model, batch, EntropyMin(), learning_rate=0.0, momentum=0.0)
            assert np.array_equal(prev_pred.classes, curr_pred.classes)
            assert np.array_equal(prev_pred.confidence, curr_pred.confidence)

    def test_theta_changes_iff_gradient_nonzero(self, rng):
        model = ModelState.initialize(3, 4, rng)
        batch = rng.normal(0, 1, (8, 4))
        g = entropy_grad(model.theta, batch)
        before = model.theta.copy()
        adapt_batch(model, batch, EntropyMin(), learning_rate=0.1, momentum=0.0)
        assert (np.linalg.norm(g) > 0) == (not np.array_equal(before, model.theta))

    def test_snapshot_discipline(self, rng):
        model = ModelState.initialize(3, 4, rng)
        end_of_step = model.theta.copy()
        for _ in range(10):
            batch = rng.normal(0, 1, (8, 4))
            adapt_batch(model, batch, RobustPseudoLabel(q=0.8), learning_rate=0.05, momentum=0.9)
            assert model.theta_prev_snapshot.tobytes() == end_of_step.tobytes()
            end_of_step = model.theta.copy()

    def test_snapshot_is_the_last_theta_left_unwritten(self, rng):
        # adapt_batch keeps the weights it adapted as the snapshot, without a
        # copy: sgd_step must give theta a new array and never write the old one
        model = ModelState.initialize(3, 4, rng)
        for loss in (EntropyMin(), RobustPseudoLabel(q=0.8)) * 3:
            theta, before = model.theta, model.theta.tobytes()
            adapt_batch(model, rng.normal(0, 1, (8, 4)), loss, learning_rate=0.05, momentum=0.9)
            assert model.theta_prev_snapshot is theta and theta.tobytes() == before
            assert model.theta.tobytes() != before
            assert not np.shares_memory(model.theta, theta)
            assert not np.shares_memory(model.theta, model.velocity)

    def test_source_immutable_across_cycles(self, rng):
        model = ModelState.initialize(3, 4, rng)
        source_bytes = model.theta_source.tobytes()
        for step in range(20):
            adapt_batch(model, rng.normal(0, 1, (8, 4)), EntropyMin(), learning_rate=0.05, momentum=0.9)
            if step % 7 == 0:
                model.replace_weights(0.5 * model.theta_source + 0.5 * model.theta)
            assert model.theta_source.tobytes() == source_bytes

    def test_thousand_step_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(77)
            model = ModelState.initialize(3, 4, rng)
            flips = []
            for _ in range(1000):
                batch = rng.normal(0, 1, (16, 4))
                prev_pred, curr_pred = adapt_batch(model, batch, EntropyMin(), learning_rate=0.05, momentum=0.9)
                flips.append(int(np.sum(prev_pred.classes != curr_pred.classes)))
            return flips, model.theta

        flips_a, theta_a = run()
        flips_b, theta_b = run()
        assert flips_a == flips_b
        assert theta_a.tobytes() == theta_b.tobytes()

    def test_replace_weights_resets_optimizer(self, rng):
        model = ModelState.initialize(3, 4, rng)
        adapt_batch(model, rng.normal(0, 1, (8, 4)), EntropyMin(), learning_rate=0.05, momentum=0.9)
        model.replace_weights(model.theta_source)
        assert not model.velocity.any()
        assert model.theta_prev_snapshot.tobytes() == model.theta.tobytes()


def assert_fresh_start(model):
    """A model as replace_weights leaves it: snapshot equal to theta, zero
    velocity, and a writable theta of its own."""
    assert model.theta_prev_snapshot.tobytes() == model.theta.tobytes()
    assert model.velocity.shape == model.theta.shape and not model.velocity.any()
    assert model.theta.flags.writeable
    assert not np.shares_memory(model.theta, model.theta_source)
    assert not np.shares_memory(model.theta, model.theta_prev_snapshot)


class TestModelStateStart:
    def test_initialize_starts_fresh(self, rng):
        model = ModelState.initialize(3, 4, rng)
        assert_fresh_start(model)
        assert model.theta.tobytes() == model.theta_source.tobytes()

    def test_replace_restarts_at_given_weights(self, rng):
        model = ModelState.initialize(3, 4, rng)
        for _ in range(3):
            adapt_batch(model, rng.normal(0, 1, (8, 4)), EntropyMin(), learning_rate=0.05, momentum=0.9)
        assert model.velocity.any()
        copy = replace(model, theta=model.theta_source)
        assert_fresh_start(copy)
        assert copy.theta.tobytes() == model.theta_source.tobytes()
        assert copy.theta_source is model.theta_source
        assert model.velocity.any()  # the original keeps its state

    def test_snapshot_and_velocity_are_not_arguments(self, rng):
        theta = rng.normal(0, 1, 3 * 5)
        with pytest.raises(TypeError):
            ModelState(theta, theta.copy(), theta_prev_snapshot=theta.copy())
        with pytest.raises(TypeError):
            ModelState(theta, theta.copy(), velocity=np.zeros_like(theta))
