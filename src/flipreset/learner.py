"""Linear softmax classifier with source pretraining and two unsupervised
test-time adaptation losses: entropy minimization and robust pseudo-labeling.

Parameters live in a single flat vector ``theta`` holding the class-by-feature
weight matrix followed by the per-class bias, so reset policies can blend
whole models with one vector operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .stream import SourceDistribution

EPS = 1e-12

__all__ = [
    "DivergenceError",
    "Prediction",
    "EntropyMin",
    "RobustPseudoLabel",
    "LOSS_KINDS",
    "ModelState",
    "softmax_forward",
    "predict",
    "adapt_gradient",
    "entropy_loss",
    "entropy_grad",
    "rpl_loss",
    "rpl_grad",
    "sgd_step",
    "PretrainConfig",
    "pretrain_source",
    "adapt_batch",
]


class DivergenceError(RuntimeError):
    """Non-finite numbers in pretraining or in a run. :func:`pretrain_source`
    sets the 0-based ``epoch``; the run loop sets its batch ``step`` ``t``,
    equal to ``log.aborted_at``, and the partial ``log`` flushed so far."""

    def __init__(self, message: str, *, step: int | None = None, epoch: int | None = None, log=None):
        super().__init__(message)
        self.step = step
        self.epoch = epoch
        self.log = log


class Prediction(NamedTuple):
    """One snapshot's argmax classes and their probabilities on a batch."""

    classes: np.ndarray
    confidence: np.ndarray


@dataclass(frozen=True)
class EntropyMin:
    """Adapt by minimizing mean Shannon entropy of the predictions."""

    def logit_grad(self, p: np.ndarray) -> np.ndarray:
        """Per-sample logit gradient of :func:`entropy_loss` from probabilities ``p``, left as they are."""
        # dH/dp, v = -(log(p + EPS) + p / (p + EPS)), then pull back through
        # the softmax Jacobian, p * (v - sum(v * p)); built in place, bit for bit
        v = p + EPS
        work = p / v
        np.log(v, out=v)
        v += work
        np.negative(v, out=v)
        np.multiply(v, p, out=work)
        v -= np.add.reduce(work, axis=1, keepdims=True)
        v *= p
        return v


@dataclass(frozen=True)
class RobustPseudoLabel:
    """Adapt on self-assigned argmax labels with a generalized cross-entropy
    loss ``(1 - p^q) / q``; ``q -> 1`` recovers ``1 - p``."""

    q: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")

    def logit_grad(self, p: np.ndarray) -> np.ndarray:
        """Per-sample logit gradient of :func:`rpl_loss`, argmax labels held fixed, in place of C-contiguous ``p``."""
        at_pseudo = _flat_index(p.argmax(axis=1), p.shape[1])
        coef = p.take(at_pseudo)
        coef **= self.q
        p *= coef[:, None]
        p.ravel()[at_pseudo] -= coef
        return p


AdaptLoss = EntropyMin | RobustPseudoLabel
LOSS_KINDS: dict[str, type] = {"entropy": EntropyMin, "rpl": RobustPseudoLabel}  # by config-file name


_FLOAT64 = np.dtype(np.float64)


def _as_batch(x) -> np.ndarray:
    """``x`` as a C-contiguous 2-D float64 (samples, features) array; any
    other shape is rejected. Such an array is returned as it is."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 2 and x.flags.c_contiguous:
        return x
    batch = np.asarray(x, dtype=float)
    if batch.ndim != 2:
        raise ValueError(f"a batch must be 2-D (samples, features), got shape {batch.shape}")
    # another layout reaches BLAS through another kernel, whose sums can
    # round differently (a Fortran-ordered batch of 16 features does)
    return batch if batch.flags.c_contiguous else np.ascontiguousarray(batch)


# logit overflow gives nan probabilities, for the caller to report; numpy need
# not warn (as a decorator the errstate costs half what a with block does)
@np.errstate(over="ignore", invalid="ignore")
def softmax_forward(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample of a batch (max-shifted exp).

    Under 8 classes the work runs class-major, on (K, N) logits, and still
    gives the bits of the row-major arithmetic.
    """
    batch = _as_batch(x)
    if type(theta) is not np.ndarray or theta.dtype is not _FLOAT64:
        theta = np.asarray(theta, dtype=float)
    # theta = [W.ravel(), b]; K inferred from the vector length
    n_features, size = batch.shape[1], theta.size
    n_classes = size // (n_features + 1)
    split = n_classes * n_features
    if split + n_classes != size:
        raise ValueError(f"theta of size {size} does not factor as K*({n_features}+1)")
    w = theta[:split].reshape(n_classes, n_features)
    class_major = n_classes < 8
    # ndarray.dot makes the BLAS call that @ makes, without the ufunc machinery
    if class_major:
        # w @ batch.T has the bits of batch @ w.T for few classes only:
        # with 12, a batch of 257 rows already differs
        zt = w.dot(batch.T)
        zt += theta[split:, None]
    else:
        z = batch.dot(w.T)
        z += theta[split:]
        zt = z.T
    # a non-finite input makes every logit it reaches non-finite, so
    # finite logits clear the inputs without scanning them; and a sum is
    # finite only if its terms are (one that overflows just costs the scan)
    if not zt.size or not math.isfinite(np.add.reduce(zt, axis=None)):
        if not (np.isfinite(batch).all() and np.isfinite(theta).all()):
            raise ValueError("non-finite inputs to softmax_forward")
    zt -= np.maximum.reduce(zt)  # max is order-free
    np.exp(zt, out=zt)
    if class_major:
        # numpy's row sum adds fewer than 8 entries in order, as these
        # row adds do; the quotient goes straight into the (N, K) result
        p = np.empty(zt.shape[::-1])
        np.divide(zt, np.add.reduce(zt), out=p.T)
        return p
    # from 8 entries on numpy's row sum is pairwise
    p = z
    p /= np.add.reduce(p, axis=1, keepdims=True)
    return p


@lru_cache(maxsize=64)
def _row_offsets(n_rows: int, n_columns: int) -> np.ndarray:
    """Read-only positions of each row's first entry in the ``ravel()`` of a
    C-contiguous (n_rows, n_columns) array."""
    offsets = np.arange(0, n_rows * n_columns, n_columns)
    offsets.setflags(write=False)
    return offsets


def _flat_index(columns: np.ndarray, n_columns: int) -> np.ndarray:
    """Positions of entry ``columns[i]`` of each row ``i`` in the ``ravel()``
    of a C-contiguous array with ``n_columns`` columns."""
    return _row_offsets(len(columns), n_columns) + columns


def predict(theta: np.ndarray, batch: np.ndarray) -> Prediction:
    """Argmax class per sample, ties broken toward the lowest class index."""
    p = softmax_forward(theta, batch)
    classes = p.argmax(axis=1)
    return Prediction(classes, p.take(_flat_index(classes, p.shape[1])))


def entropy_loss(theta: np.ndarray, batch: np.ndarray) -> float:
    """Mean Shannon entropy of the predictions, log guarded by ``p + EPS``."""
    p = softmax_forward(theta, batch)
    return float(-np.sum(p * np.log(p + EPS), axis=1).mean())


# rows from which _theta_grad sums the bias gradient with einsum: a whole
# entropy gradient ran faster with einsum from 128 rows and slower up to 64
# (K 4 and 10), and whole collapse.json runs, at 64 rows a step, ran faster
# with add.reduce
_EINSUM_ROWS = 128


def _theta_grad(gz: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """theta's ``[W.ravel(), b]`` gradient of a batch-mean loss, from its
    per-sample logit gradients ``gz``, which are divided in place."""
    gz /= batch.shape[0]
    # the bias gradient is gz.sum(axis=0); einsum adds each column in row
    # order from +0.0 as the sum does, so the bits match, at a third of its
    # cost on pretraining's 1,600 rows
    bias = np.add.reduce(gz, axis=0) if len(gz) < _EINSUM_ROWS else np.einsum("ij->j", gz)
    return np.concatenate((gz.T.dot(batch).ravel(), bias))


def adapt_gradient(loss: AdaptLoss, theta: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """theta's gradient of an adaptation loss: one softmax pass, made into the loss's logit gradient."""
    batch = _as_batch(batch)
    return _theta_grad(loss.logit_grad(softmax_forward(theta, batch)), batch)


def entropy_grad(theta: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Gradient of :func:`entropy_loss` with respect to theta.

    Uses the analytic derivative of the guarded loss so finite differences
    of :func:`entropy_loss` agree to machine-level precision.
    """
    return adapt_gradient(EntropyMin(), theta, batch)


def rpl_loss(theta: np.ndarray, batch: np.ndarray, labels: np.ndarray, q: float) -> float:
    """Generalized cross-entropy ``mean((1 - p_label^q) / q)`` with labels held fixed."""
    p = softmax_forward(theta, batch)
    p_label = p[np.arange(len(labels)), labels]
    return float(np.mean((1.0 - p_label**q) / q))


def rpl_grad(theta: np.ndarray, batch: np.ndarray, q: float) -> np.ndarray:
    """Gradient of :func:`rpl_loss` on the model's own argmax pseudo-labels.

    The pseudo-labels are recomputed from theta, then treated as constants
    during differentiation.
    """
    return adapt_gradient(RobustPseudoLabel(q), theta, batch)


def _frozen_copy(theta: np.ndarray) -> np.ndarray:
    out = theta.copy()
    out.setflags(write=False)
    return out


@dataclass
class ModelState:
    """Adaptable classifier: current weights, the frozen source snapshot,
    the previous-step snapshot, and the SGD momentum velocity. A new model,
    ``dataclasses.replace``'s too, starts as :meth:`replace_weights` leaves it."""

    theta: np.ndarray
    theta_source: np.ndarray
    theta_prev_snapshot: np.ndarray = field(init=False)
    velocity: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.theta.shape != self.theta_source.shape:
            raise ValueError("theta and theta_source must share a shape")
        self.replace_weights(self.theta)

    @classmethod
    def initialize(cls, n_classes: int, n_features: int, rng: np.random.Generator) -> "ModelState":
        theta = 0.01 * rng.standard_normal(n_classes * (n_features + 1))
        return cls(theta, _frozen_copy(theta))

    def replace_weights(self, theta: np.ndarray) -> None:
        """Install re-initialized weights: the previous-step snapshot follows
        the new weights and the optimizer state starts over."""
        self.theta = np.array(theta, dtype=float)
        self.theta_prev_snapshot = self.theta.copy()
        self.velocity = np.zeros_like(self.theta)


def sgd_step(model: ModelState, gradient: np.ndarray, learning_rate: float, momentum: float) -> None:
    """velocity <- momentum*velocity + gradient; theta <- theta - learning_rate*velocity.

    The velocity, which the model owns, is updated in place; theta becomes a
    new array and ``gradient`` is left as it is.
    """
    if gradient.shape != model.theta.shape:
        raise ValueError("gradient shape does not match theta")
    velocity = model.velocity
    velocity *= momentum
    velocity += gradient
    step = learning_rate * velocity
    model.theta = np.subtract(model.theta, step, out=step)


@dataclass(frozen=True)
class PretrainConfig:
    """Source pretraining: full-batch cross-entropy on ``samples_per_class``
    samples a class, of which a ``holdout_fraction`` is held out and scored."""

    samples_per_class: int = 500
    epochs: int = 150
    learning_rate: float = 0.5
    holdout_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.samples_per_class < 1:
            raise ValueError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in [0, 1), got {self.holdout_fraction}")

    def split(self, n_classes: int) -> tuple[int, int]:
        """The number of samples drawn for ``n_classes`` classes and the number
        held out of them: none at ``holdout_fraction`` 0, else at least one.
        Raises ValueError if the holdout leaves none to train on."""
        n = self.samples_per_class * n_classes
        n_holdout = max(1, int(round(self.holdout_fraction * n))) if self.holdout_fraction > 0 else 0
        if n_holdout >= n:
            raise ValueError(f"holdout_fraction {self.holdout_fraction} leaves none of {n} samples to train on")
        return n, n_holdout


@np.errstate(over="ignore", invalid="ignore")  # DivergenceError alone reports a divergence
def pretrain_source(
    source: SourceDistribution, settings: PretrainConfig, rng: np.random.Generator
) -> tuple[ModelState, float]:
    """Supervised full-batch cross-entropy training on samples of ``source``.

    The trained weights are copied into the frozen source snapshot. Returns
    the model and its holdout accuracy, NaN when nothing is held out. Raises
    ValueError as :meth:`PretrainConfig.split` does, and
    :class:`DivergenceError`, naming the 0-based epoch, once the loss or the
    weights go non-finite.
    """
    n_classes = source.n_classes
    n, n_holdout = settings.split(n_classes)
    features, labels = source.sample(n, rng)
    order = rng.permutation(n)
    train_idx, hold_idx = order[n_holdout:], order[:n_holdout]

    model = ModelState.initialize(n_classes, source.n_features, rng)
    x_train, y_train = features[train_idx], labels[train_idx]
    one_hot = np.eye(n_classes)[y_train]  # p - one_hot is p[i, y_i] -= 1.0 bit for bit
    for epoch in range(settings.epochs):
        # one softmax pass serves the loss check and, edited in place into
        # dloss/dlogits, the cross-entropy gradient
        p = softmax_forward(model.theta, x_train)
        # the loss -mean(log(p[i, y_i] + EPS)) is finite exactly when every
        # label probability is; a sample's probabilities lie in [0, 1] or
        # are all nan, so that holds exactly when their one sum is finite
        if not math.isfinite(np.add.reduce(p, axis=None)):
            raise DivergenceError(f"pretraining loss non-finite at epoch {epoch}", epoch=epoch)
        p -= one_hot
        model.theta = model.theta - settings.learning_rate * _theta_grad(p, x_train)
        if not np.isfinite(model.theta).all():
            raise DivergenceError(f"pretraining weights non-finite at epoch {epoch}", epoch=epoch)

    model.theta_source = _frozen_copy(model.theta)
    model.replace_weights(model.theta)

    if n_holdout == 0:
        return model, float("nan")
    holdout_pred = predict(model.theta, features[hold_idx])
    return model, float(np.mean(holdout_pred.classes == labels[hold_idx]))


def adapt_batch(
    model: ModelState, batch: np.ndarray, loss: AdaptLoss, learning_rate: float, momentum: float
) -> tuple[Prediction, Prediction]:
    """One online adaptation step.

    Emits the prediction pair (previous-step snapshot, current weights),
    both taken before the gradient step, then snapshots the current weights
    and applies one SGD step of the chosen loss.
    """
    prev_pred = predict(model.theta_prev_snapshot, batch)
    curr_pred = predict(model.theta, batch)
    # sgd_step gives theta a new array and never writes into the old one
    model.theta_prev_snapshot = model.theta
    sgd_step(model, adapt_gradient(loss, model.theta, batch), learning_rate, momentum)
    return prev_pred, curr_pred
