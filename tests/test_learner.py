"""Classifier, adaptation losses and optimizer contracts."""

import warnings

import numpy as np
import pytest

from flipreset.learner import (
    DivergenceError,
    EntropyMin,
    ModelState,
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


class TestSoftmaxForward:
    def test_zero_weights_give_uniform(self):
        for k in (2, 3, 7):
            p = softmax_forward(np.zeros(k * 4), np.zeros(3))
            assert np.allclose(p, 1.0 / k, atol=1e-15)

    def test_saturated_logits(self):
        # logits [10, -10] via bias-only weights
        theta = np.array([0.0, 0.0, 10.0, -10.0])  # d=1, K=2
        p = softmax_forward(theta, np.array([0.0]))
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
            p = np.atleast_2d(softmax_forward(theta, batch))
            assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-9)

    def test_single_vector_shape(self, rng):
        theta, batch, k, _ = random_instance(rng)
        p = softmax_forward(theta, batch[0])
        assert p.shape == (k,)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_forward(np.zeros(4), np.array([np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            softmax_forward(np.array([np.inf, 0.0, 0.0, 0.0]), np.array([1.0]))

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
        p = np.atleast_2d(softmax_forward(theta, batch))
        pred = predict(theta, batch)
        for i, row in enumerate(p):
            best = 0
            for j in range(1, len(row)):
                if row[j] > row[best]:
                    best = j
            assert pred.classes[i] == best
            assert pred.confidence[i] == row[best]


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


class TestSgdStep:
    def test_plain_sgd(self, rng):
        model = ModelState.initialize(2, 3, rng, learning_rate=0.1, momentum=0.0)
        before = model.theta.copy()
        sgd_step(model, np.ones_like(model.theta))
        assert np.allclose(model.theta, before - 0.1, atol=1e-15)

    def test_zero_gradient_fixed_point(self, rng):
        model = ModelState.initialize(2, 3, rng)
        before = model.theta.copy()
        sgd_step(model, np.zeros_like(model.theta))
        assert model.theta.tobytes() == before.tobytes()

    def test_momentum_matches_unrolled_recurrence(self, rng):
        model = ModelState.initialize(2, 3, rng, learning_rate=0.05, momentum=0.9)
        grads = [rng.normal(0, 1, model.theta.size) for _ in range(10)]
        theta = model.theta.copy()
        velocity = np.zeros_like(theta)
        for g in grads:
            sgd_step(model, g)
            velocity = 0.9 * velocity + g
            theta = theta - 0.05 * velocity
        assert np.allclose(model.theta, theta, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        model = ModelState.initialize(2, 3, rng)
        with pytest.raises(ValueError):
            sgd_step(model, np.zeros(5))


def two_gaussians(rng, n=400, separation=2.0, sigma=0.5):
    labels = rng.integers(0, 2, n)
    means = np.array([[-separation, 0.0], [separation, 0.0]])
    return means[labels] + sigma * rng.standard_normal((n, 2)), labels


class TestPretrainSource:
    def test_separable_gaussians_reach_95_percent(self, rng):
        features, labels = two_gaussians(rng)
        _, holdout = pretrain_source(features, labels, n_classes=2, epochs=5, learning_rate=0.5, rng=rng)
        assert holdout >= 0.95

    def test_zero_epochs_leave_theta_at_initialization(self):
        rng = np.random.default_rng(9)
        features, labels = two_gaussians(rng)
        model, _ = pretrain_source(features, labels, n_classes=2, epochs=0, learning_rate=0.5, rng=rng)
        # replay the rng consumption: same draws for the holdout split and init
        replay = np.random.default_rng(9)
        two_gaussians(replay)
        replay.permutation(len(labels))
        expected = 0.01 * replay.standard_normal(2 * 3)
        assert model.theta.tobytes() == expected.tobytes()

    def test_shuffled_labels_sit_at_chance(self, rng):
        n, k = 4000, 4
        features = rng.normal(0, 1, (n, 6))
        features[:, 0] += rng.integers(0, k, n)  # structure unrelated to labels below
        labels = rng.integers(0, k, n)
        _, holdout = pretrain_source(
            features, labels, n_classes=k, epochs=30, learning_rate=0.3, rng=rng, holdout_fraction=0.25
        )
        assert abs(holdout - 1.0 / k) < 0.05

    def test_source_snapshot_frozen(self, rng):
        features, labels = two_gaussians(rng)
        model, _ = pretrain_source(features, labels, n_classes=2, epochs=5, learning_rate=0.5, rng=rng)
        assert not model.theta_source.flags.writeable
        assert model.theta_source.tobytes() == model.theta.tobytes()

    def test_matches_two_pass_reference_bitwise(self):
        # the reference takes the loss and the gradient from two softmax passes
        rng = np.random.default_rng(5)
        k, d, n = 3, 4, 300
        labels = rng.integers(0, k, n)
        features = rng.normal(0, 1, (n, d)) + 1.5 * np.eye(k, d)[labels]
        model, _ = pretrain_source(features, labels, n_classes=k, epochs=20, learning_rate=0.5, rng=rng)

        replay = np.random.default_rng(5)
        replay.integers(0, k, n)
        replay.normal(0, 1, (n, d))
        order = replay.permutation(n)
        train = order[int(round(0.2 * n)) :]
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
        assert model.theta.tobytes() == theta.tobytes()
        assert model.theta_source.tobytes() == theta.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self, rng):
        features, labels = two_gaussians(rng)
        features = features * 1e200  # overflow the logits after the first step
        with pytest.raises(DivergenceError) as excinfo:
            pretrain_source(features, labels, n_classes=2, epochs=3, learning_rate=1e30, rng=rng)
        assert excinfo.value.step == 1


class TestAdaptBatch:
    def test_zero_learning_rate_freezes_predictions(self, rng):
        model = ModelState.initialize(3, 4, rng, learning_rate=0.0, momentum=0.0)
        batch = rng.normal(0, 1, (16, 4))
        for _ in range(5):
            prev_pred, curr_pred = adapt_batch(model, batch, EntropyMin())
            assert np.array_equal(prev_pred.classes, curr_pred.classes)
            assert np.array_equal(prev_pred.confidence, curr_pred.confidence)

    def test_theta_changes_iff_gradient_nonzero(self, rng):
        model = ModelState.initialize(3, 4, rng, learning_rate=0.1, momentum=0.0)
        batch = rng.normal(0, 1, (8, 4))
        g = entropy_grad(model.theta, batch)
        before = model.theta.copy()
        adapt_batch(model, batch, EntropyMin())
        assert (np.linalg.norm(g) > 0) == (not np.array_equal(before, model.theta))

    def test_snapshot_discipline(self, rng):
        model = ModelState.initialize(3, 4, rng)
        end_of_step = model.theta.copy()
        for _ in range(10):
            batch = rng.normal(0, 1, (8, 4))
            adapt_batch(model, batch, RobustPseudoLabel())
            assert model.theta_prev_snapshot.tobytes() == end_of_step.tobytes()
            end_of_step = model.theta.copy()

    def test_source_immutable_across_cycles(self, rng):
        model = ModelState.initialize(3, 4, rng)
        source_bytes = model.theta_source.tobytes()
        for step in range(20):
            adapt_batch(model, rng.normal(0, 1, (8, 4)), EntropyMin())
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
                prev_pred, curr_pred = adapt_batch(model, batch, EntropyMin())
                flips.append(int(np.sum(prev_pred.classes != curr_pred.classes)))
            return flips, model.theta

        flips_a, theta_a = run()
        flips_b, theta_b = run()
        assert flips_a == flips_b
        assert theta_a.tobytes() == theta_b.tobytes()

    def test_replace_weights_resets_optimizer(self, rng):
        model = ModelState.initialize(3, 4, rng)
        adapt_batch(model, rng.normal(0, 1, (8, 4)), EntropyMin())
        model.replace_weights(model.theta_source)
        assert not model.velocity.any()
        assert model.theta_prev_snapshot.tobytes() == model.theta.tobytes()
