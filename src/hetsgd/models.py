"""Small differentiable classifiers with analytic gradients.

Two model kinds are enough for the optimizer mechanics studied here:
multinomial logistic regression and a 2-layer ReLU MLP.  Parameters are kept
in one flat float64 vector (see :mod:`hetsgd.core`) so that every optimizer
and aggregation rule works on plain arrays.  One forward pass serves a
single model (evaluation) and a stack of G models (training);
:func:`stacked_loss_and_grad` is the one analytic gradient and
:func:`backward` its one-row call.  A central finite-difference gradient is
provided as an independent oracle for the analytic backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParamVector, RngStream, log_softmax

__all__ = [
    "ModelSpec",
    "Batch",
    "param_count",
    "init_params",
    "forward_logits",
    "forward_loss",
    "backward",
    "stacked_loss_and_grad",
    "finite_diff_grad",
    "relu_crossing_mask",
    "accuracy",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: ``logistic_regression`` or ``mlp2``."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in ("logistic_regression", "mlp2"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        if self.kind == "mlp2" and self.hidden_dim < 1:
            raise ValueError("mlp2 requires hidden_dim >= 1")


@dataclass
class Batch:
    """A mini-batch: feature rows, class labels, and global sample ids."""

    features: np.ndarray  # (B, input_dim) float64
    labels: np.ndarray  # (B,) int
    sample_ids: np.ndarray  # (B,) int, distinct within the batch

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        b = self.features.shape[0]
        if self.labels.shape[0] != b or self.sample_ids.shape[0] != b:
            raise ValueError("features, labels, sample_ids disagree on batch size")
        if len(np.unique(self.sample_ids)) != b:
            raise ValueError("sample_ids must be distinct within a batch")

    def __len__(self) -> int:
        return self.features.shape[0]


def param_count(spec: ModelSpec) -> int:
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic_regression":
        return d * c + c
    return d * h + h + h * c + c


def _unpack(spec: ModelSpec, params: np.ndarray):
    """Split flat params, one vector or a ``(G, n_params)`` stack, into layer views."""
    if params.shape[-1] != param_count(spec):
        raise ValueError(
            f"expected {param_count(spec)} params for {spec.kind}, got {params.shape[-1]}"
        )
    lead = params.shape[:-1]
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic_regression":
        w = params[..., : d * c].reshape(*lead, d, c)
        b = params[..., d * c :]
        return w, b
    i = 0
    w1 = params[..., i : i + d * h].reshape(*lead, d, h); i += d * h
    b1 = params[..., i : i + h]; i += h
    w2 = params[..., i : i + h * c].reshape(*lead, h, c); i += h * c
    b2 = params[..., i:]
    return w1, b1, w2, b2


def init_params(spec: ModelSpec, stream: RngStream) -> ParamVector:
    """Scaled-uniform weight init (±1/sqrt(fan_in)), zero biases."""
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic_regression":
        scale = 1.0 / np.sqrt(d)
        w = stream.uniform(-scale, scale, (d, c))
        return np.concatenate([w.ravel(), np.zeros(c)])
    s1 = 1.0 / np.sqrt(d)
    s2 = 1.0 / np.sqrt(h)
    w1 = stream.uniform(-s1, s1, (d, h))
    w2 = stream.uniform(-s2, s2, (h, c))
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """``(hidden, logits)`` of one model on ``(b, d)`` or of G models on ``(G, b, d)``.

    ``params`` is one vector or a ``(G, n_params)`` stack; biases add as
    ``b[..., None, :]``, so both run the same ops in the same order.  ``hidden``
    (post-ReLU) is None for logistic regression.
    """
    if spec.kind == "logistic_regression":
        w, b = _unpack(spec, params)
        logits = x @ w
        logits += b[..., None, :]
        return None, logits
    w1, b1, w2, b2 = _unpack(spec, params)
    hidden = x @ w1
    hidden += b1[..., None, :]
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ w2
    logits += b2[..., None, :]
    return hidden, logits


def forward_logits(spec: ModelSpec, params: ParamVector, features: np.ndarray) -> np.ndarray:
    return _forward(spec, params, np.asarray(features, dtype=np.float64))[1]


def forward_loss(spec: ModelSpec, params: ParamVector, batch: Batch):
    """Mean cross-entropy over the batch plus the per-sample losses."""
    logits = forward_logits(spec, params, batch.features)
    logp = log_softmax(logits)
    per_sample = -logp[np.arange(len(batch)), batch.labels]
    if not np.all(np.isfinite(per_sample)):
        raise ValueError("non-finite loss encountered")
    return float(per_sample.mean()), per_sample


def _xent_and_dlogits(logits: np.ndarray, labels: np.ndarray):
    """Per-sample cross-entropy and its gradient w.r.t. the logits of the mean loss."""
    logp = log_softmax(logits)
    picks = labels.ravel() + logp.shape[-1] * np.arange(labels.size)
    per_sample = -logp.ravel()[picks].reshape(labels.shape)
    dlogits = np.exp(logp)
    dlogits.ravel()[picks] -= 1.0
    dlogits /= labels.shape[-1]
    return per_sample, dlogits


def stacked_loss_and_grad(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                          labels: np.ndarray):
    """Per-sample losses and mean-loss gradients of G models on G batches at once.

    ``params`` is ``(G, n_params)``, ``x`` is ``(G, b, input_dim)`` and
    ``labels`` is ``(G, b)``; returns ``per_sample`` ``(G, b)`` and ``grad``
    ``(G, n_params)``.  Row g depends only on ``params[g]``, ``x[g]`` and
    ``labels[g]``, and every row runs the same BLAS calls and reductions in
    the same order, so a one-row call gives the same bits as row g of a
    stacked one.  Finiteness is left to the caller, which knows the row's
    worker and step.
    """
    hidden, logits = _forward(spec, params, x)
    per_sample, dlogits = _xent_and_dlogits(logits, labels)
    grad = np.empty_like(params)
    xt = x.transpose(0, 2, 1)
    if hidden is None:
        gw, gb = _unpack(spec, grad)
        np.matmul(xt, dlogits, out=gw)
        dlogits.sum(axis=1, out=gb)
        return per_sample, grad
    w2 = _unpack(spec, params)[2]
    gw1, gb1, gw2, gb2 = _unpack(spec, grad)
    np.matmul(hidden.transpose(0, 2, 1), dlogits, out=gw2)
    dlogits.sum(axis=1, out=gb2)
    dz1 = dlogits @ w2.transpose(0, 2, 1)
    dz1 *= hidden > 0.0
    np.matmul(xt, dz1, out=gw1)
    dz1.sum(axis=1, out=gb1)
    return per_sample, grad


def backward(spec: ModelSpec, params: ParamVector, batch: Batch) -> ParamVector:
    """Gradient of the mean batch loss w.r.t. the flat parameter vector.

    The one-row call of :func:`stacked_loss_and_grad`.
    """
    per_sample, grad = stacked_loss_and_grad(spec, params[None], batch.features[None],
                                             batch.labels[None])
    if not (np.isfinite(per_sample).all() and np.isfinite(grad).all()):
        raise ValueError("non-finite loss or gradient encountered")
    return grad[0]


def finite_diff_grad(spec: ModelSpec, params: ParamVector, batch: Batch, h: float) -> ParamVector:
    """Central-difference gradient oracle, one coordinate at a time."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    p = params.copy()
    grad = np.empty_like(p)
    for k in range(p.shape[0]):
        orig = p[k]
        p[k] = orig + h
        up, _ = forward_loss(spec, p, batch)
        p[k] = orig - h
        down, _ = forward_loss(spec, p, batch)
        p[k] = orig
        grad[k] = (up - down) / (2.0 * h)
    return grad


def relu_crossing_mask(spec: ModelSpec, params: ParamVector, batch: Batch, h: float) -> np.ndarray:
    """Coordinates whose ±h perturbation flips a hidden ReLU pre-activation.

    Central differences are unreliable at such coordinates; gradient checks
    exclude them.  Always all-False for logistic regression.
    """
    mask = np.zeros(params.shape[0], dtype=bool)
    if spec.kind != "mlp2":
        return mask
    w1, b1, _, _ = _unpack(spec, params)
    n_hidden_params = w1.size + b1.size

    def preact_sign(p):
        w1p, b1p, _, _ = _unpack(spec, p)
        return (batch.features @ w1p + b1p) > 0.0

    p = params.copy()
    for k in range(n_hidden_params):
        orig = p[k]
        p[k] = orig + h
        s_up = preact_sign(p)
        p[k] = orig - h
        s_down = preact_sign(p)
        p[k] = orig
        mask[k] = bool(np.any(s_up != s_down))
    return mask


def accuracy(spec: ModelSpec, params: ParamVector, batches) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Ties break toward the lowest class index (np.argmax convention).
    """
    correct = 0
    total = 0
    for batch in batches:
        logits = forward_logits(spec, params, batch.features)
        pred = np.argmax(logits, axis=1)
        correct += int((pred == batch.labels).sum())
        total += len(batch)
    if total == 0:
        raise ValueError("empty evaluation set")
    return correct / total
