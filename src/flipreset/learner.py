"""Linear softmax classifier with source pretraining and two unsupervised
test-time adaptation losses: entropy minimization and robust pseudo-labeling.

Parameters live in a single flat vector ``theta`` holding the class-by-feature
weight matrix followed by the per-class bias, so reset policies can blend
whole models with one vector operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-12

__all__ = [
    "DivergenceError",
    "Prediction",
    "EntropyMin",
    "RobustPseudoLabel",
    "ModelState",
    "softmax_forward",
    "predict",
    "entropy_loss",
    "entropy_grad",
    "rpl_loss",
    "rpl_grad",
    "sgd_step",
    "pretrain_source",
    "adapt_batch",
]


class DivergenceError(RuntimeError):
    """Non-finite loss or parameters. Carries the step index and, when the
    failure happened mid-run, the partial log flushed so far."""

    def __init__(self, message: str, step: int | None = None, log=None):
        super().__init__(message)
        self.step = step
        self.log = log


@dataclass(frozen=True)
class Prediction:
    """One snapshot's argmax classes and their probabilities on a batch."""

    classes: np.ndarray
    confidence: np.ndarray


@dataclass(frozen=True)
class EntropyMin:
    """Adapt by minimizing mean Shannon entropy of the predictions."""


@dataclass(frozen=True)
class RobustPseudoLabel:
    """Adapt on self-assigned argmax labels with a generalized cross-entropy
    loss ``(1 - p^q) / q``; ``q -> 1`` recovers ``1 - p``."""

    q: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")


AdaptLoss = EntropyMin | RobustPseudoLabel


def _as_batch(x) -> np.ndarray:
    """``x`` as a 2-D float64 array; one that already is passes through."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64:
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


def _unpack(theta: np.ndarray, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    # theta = [W.ravel(), b]; K inferred from the vector length
    n_classes = theta.size // (n_features + 1)
    if n_classes * (n_features + 1) != theta.size:
        raise ValueError(
            f"theta of size {theta.size} does not factor as K*({n_features}+1)"
        )
    w = theta[: n_classes * n_features].reshape(n_classes, n_features)
    b = theta[n_classes * n_features :]
    return w, b


def softmax_forward(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a feature vector or a batch (max-shifted exp)."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    single = x.ndim == 1
    batch = _as_batch(x)
    w, b = _unpack(theta, batch.shape[1])
    # logit overflow yields nan probabilities, which downstream finiteness
    # guards report as divergence; no need for numpy to warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        z = batch @ w.T + b
        # a non-finite input makes every logit it reaches non-finite, so
        # finite logits clear the inputs without scanning them
        if not z.size or not np.isfinite(z).all():
            if not (np.isfinite(batch).all() and np.isfinite(theta).all()):
                raise ValueError("non-finite inputs to softmax_forward")
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
    return p[0] if single else p


def predict(theta: np.ndarray, batch: np.ndarray) -> Prediction:
    """Argmax class per sample, ties broken toward the lowest class index."""
    p = softmax_forward(theta, batch)
    if p.ndim == 1:
        p = p[None]
    classes = p.argmax(axis=1)
    return Prediction(classes=classes, confidence=p[np.arange(len(classes)), classes])


def entropy_loss(theta: np.ndarray, batch: np.ndarray) -> float:
    """Mean Shannon entropy of the predictions, log guarded by ``p + EPS``."""
    p = np.atleast_2d(softmax_forward(theta, batch))
    return float(-np.sum(p * np.log(p + EPS), axis=1).mean())


def entropy_grad(theta: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Gradient of :func:`entropy_loss` with respect to theta.

    Uses the analytic derivative of the guarded loss so finite differences
    of :func:`entropy_loss` agree to machine-level precision.
    """
    batch = _as_batch(batch)
    p = softmax_forward(theta, batch)
    # dH/dp then pull back through the softmax Jacobian
    p_eps = p + EPS
    v = -(np.log(p_eps) + p / p_eps)
    gz = p * (v - (v * p).sum(axis=1, keepdims=True))
    gz /= batch.shape[0]
    gw = gz.T @ batch
    return np.concatenate([gw.ravel(), gz.sum(axis=0)])


def rpl_loss(theta: np.ndarray, batch: np.ndarray, labels: np.ndarray, q: float) -> float:
    """Generalized cross-entropy ``mean((1 - p_label^q) / q)`` with labels held fixed."""
    p = np.atleast_2d(softmax_forward(theta, batch))
    p_label = p[np.arange(len(labels)), labels]
    return float(np.mean((1.0 - p_label**q) / q))


def rpl_grad(theta: np.ndarray, batch: np.ndarray, q: float = 0.8) -> np.ndarray:
    """Gradient of :func:`rpl_loss` on the model's own argmax pseudo-labels.

    The pseudo-labels are recomputed from theta, then treated as constants
    during differentiation.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    batch = _as_batch(batch)
    p = softmax_forward(theta, batch)
    n = batch.shape[0]
    idx = np.arange(n)
    pseudo = p.argmax(axis=1)
    coef = p[idx, pseudo] ** q
    gz = p * coef[:, None]
    gz[idx, pseudo] -= coef
    gz /= n
    gw = gz.T @ batch
    return np.concatenate([gw.ravel(), gz.sum(axis=0)])


def _cross_entropy_loss(theta: np.ndarray, batch: np.ndarray, labels: np.ndarray) -> float:
    p = np.atleast_2d(softmax_forward(theta, batch))
    return float(-np.mean(np.log(p[np.arange(len(labels)), labels] + EPS)))


def _cross_entropy_grad(theta: np.ndarray, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    batch = _as_batch(batch)
    p = softmax_forward(theta, batch)
    n = batch.shape[0]
    gz = p.copy()
    gz[np.arange(n), labels] -= 1.0
    gz /= n
    gw = gz.T @ batch
    return np.concatenate([gw.ravel(), gz.sum(axis=0)])


def _frozen_copy(theta: np.ndarray) -> np.ndarray:
    out = theta.copy()
    out.setflags(write=False)
    return out


@dataclass
class ModelState:
    """Adaptable classifier: current weights, the frozen source snapshot,
    the previous-step snapshot, and SGD-with-momentum optimizer state."""

    n_classes: int
    n_features: int
    theta: np.ndarray
    theta_source: np.ndarray
    theta_prev_snapshot: np.ndarray
    learning_rate: float = 0.05
    momentum: float = 0.9
    velocity: np.ndarray | None = None  # filled to zeros on construction

    def __post_init__(self) -> None:
        if self.velocity is None:
            self.velocity = np.zeros_like(self.theta)
        shapes = {self.theta.shape, self.theta_source.shape, self.theta_prev_snapshot.shape}
        if len(shapes) != 1:
            raise ValueError("theta, theta_source and theta_prev_snapshot must share a shape")

    @classmethod
    def initialize(
        cls,
        n_classes: int,
        n_features: int,
        rng: np.random.Generator,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        init_scale: float = 0.01,
    ) -> "ModelState":
        theta = init_scale * rng.standard_normal(n_classes * (n_features + 1))
        return cls(
            n_classes=n_classes,
            n_features=n_features,
            theta=theta,
            theta_source=_frozen_copy(theta),
            theta_prev_snapshot=theta.copy(),
            learning_rate=learning_rate,
            momentum=momentum,
        )

    def replace_weights(self, theta: np.ndarray) -> None:
        """Install re-initialized weights: the previous-step snapshot follows
        the new weights and the optimizer state starts over."""
        self.theta = np.array(theta, dtype=float)
        self.theta_prev_snapshot = self.theta.copy()
        self.velocity = np.zeros_like(self.theta)


def sgd_step(model: ModelState, gradient: np.ndarray) -> None:
    """velocity <- momentum*velocity + gradient; theta <- theta - lr*velocity."""
    if gradient.shape != model.theta.shape:
        raise ValueError("gradient shape does not match theta")
    model.velocity = model.momentum * model.velocity + gradient
    model.theta = model.theta - model.learning_rate * model.velocity


def pretrain_source(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    epochs: int,
    learning_rate: float,
    rng: np.random.Generator,
    holdout_fraction: float = 0.2,
    adapt_learning_rate: float = 0.05,
    adapt_momentum: float = 0.9,
) -> tuple[ModelState, float]:
    """Supervised full-batch cross-entropy training on labeled source data.

    The trained weights are copied into the frozen source snapshot. Returns
    the model and its holdout accuracy.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    n = len(labels)
    n_holdout = max(1, int(round(holdout_fraction * n))) if holdout_fraction > 0 else 0
    order = rng.permutation(n)
    train_idx, hold_idx = order[n_holdout:], order[:n_holdout]

    model = ModelState.initialize(
        n_classes,
        features.shape[1],
        rng,
        learning_rate=adapt_learning_rate,
        momentum=adapt_momentum,
    )
    x_train, y_train = features[train_idx], labels[train_idx]
    for epoch in range(epochs):
        loss = _cross_entropy_loss(model.theta, x_train, y_train)
        if not np.isfinite(loss):
            raise DivergenceError(f"pretraining loss non-finite at epoch {epoch}", step=epoch)
        model.theta = model.theta - learning_rate * _cross_entropy_grad(model.theta, x_train, y_train)

    model.theta_source = _frozen_copy(model.theta)
    model.theta_prev_snapshot = model.theta.copy()
    model.velocity = np.zeros_like(model.theta)

    if n_holdout == 0:
        return model, float("nan")
    holdout_pred = predict(model.theta, features[hold_idx])
    return model, float(np.mean(holdout_pred.classes == labels[hold_idx]))


def adapt_gradient(model: ModelState, batch: np.ndarray, loss: AdaptLoss) -> np.ndarray:
    if isinstance(loss, EntropyMin):
        return entropy_grad(model.theta, batch)
    if isinstance(loss, RobustPseudoLabel):
        return rpl_grad(model.theta, batch, loss.q)
    raise TypeError(f"unknown adaptation loss: {loss!r}")


def adapt_batch(
    model: ModelState, batch: np.ndarray, loss: AdaptLoss
) -> tuple[Prediction, Prediction]:
    """One online adaptation step.

    Emits the prediction pair (previous-step snapshot, current weights),
    both taken before the gradient step, then snapshots the current weights
    and applies one SGD step of the chosen loss.
    """
    prev_pred = predict(model.theta_prev_snapshot, batch)
    curr_pred = predict(model.theta, batch)
    model.theta_prev_snapshot = model.theta.copy()
    sgd_step(model, adapt_gradient(model, batch, loss))
    return prev_pred, curr_pred
