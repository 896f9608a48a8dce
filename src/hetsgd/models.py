"""Small differentiable classifiers with analytic gradients.

Two model kinds are enough for the optimizer mechanics studied here:
multinomial logistic regression and a 2-layer ReLU MLP.  Parameters are kept
in one flat float64 vector (see :mod:`hetsgd.core`) so that every optimizer
and aggregation rule works on plain arrays.  One forward pass serves a
stack of G models, one model being a stack of one, and one class-major copy
adds its output bias (:func:`_class_major`): :func:`stacked_loss_and_grad`
is the one analytic gradient and :func:`backward` its one-row call (a caller
stepping one stack many times passes it :func:`stack_views`), and
:func:`stacked_hits` is the one evaluation.  A central finite-difference
gradient is provided as an independent oracle for the analytic backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParamVector, RngStream

__all__ = [
    "ModelSpec",
    "Batch",
    "param_count",
    "init_params",
    "forward_loss",
    "backward",
    "stack_views",
    "stacked_loss_and_grad",
    "finite_diff_grad",
    "relu_crossing_mask",
    "stacked_hits",
]


MODEL_KINDS = ("logistic_regression", "mlp2")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: ``logistic_regression`` or ``mlp2``."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
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
    """Split a ``(G, n_params)`` stack of flat params into layer views."""
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


def _forward(layers: tuple, x: np.ndarray):
    """``(hidden, z)`` of G models on ``(G, b, d)`` features.

    ``layers`` is :func:`_unpack` of a ``(G, n_params)`` stack; a lone model
    is a stack of one, so it runs the same ops in the same order as its row
    of a larger stack.  ``z`` is the output layer's product before its bias,
    which :func:`_class_major` adds; ``hidden`` (post-ReLU) is None for
    logistic regression.
    """
    if len(layers) == 2:
        return None, x @ layers[0]
    w1, b1, w2, _ = layers
    hidden = x @ w1
    hidden += b1[..., None, :]
    np.maximum(hidden, 0.0, out=hidden)
    return hidden, hidden @ w2


def _class_major(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The logits ``z + b`` of ``(G, n, c)`` output products ``z`` and ``(G, c)`` biases ``b``.

    Returned as one contiguous class-major ``(c, G, n)`` array: the bias is
    added while the products are copied, each sum the same IEEE add as in
    the row-major layout.
    """
    by_class = np.empty((z.shape[2], *z.shape[:2]))
    np.add(z.transpose(2, 0, 1), b.T[:, :, None], out=by_class)
    return by_class


def _class_sums(e: np.ndarray) -> np.ndarray:
    """The row sums ``np.add.reduce(e.T, axis=-1)`` of class-major ``(c, m)`` ``e``, bit for bit.

    From 8 classes on the reduction runs on a row-major copy.  Below 8,
    where that copy costs more than the sum, the class rows are added in
    turn, which gives the same bits.
    """
    if e.shape[0] < 8:
        return np.add.reduce(e, axis=0)
    return np.add.reduce(np.ascontiguousarray(e.T), axis=1)


def _log_softmax(by_class: np.ndarray) -> np.ndarray:
    """Log-softmax of each column of contiguous class-major ``(c, m)`` logits, in place.

    The row-wise ``z - max(z) - log(sum(exp(z - max(z))))`` of the ``(m, c)``
    logits, op for op, with each reduction one pass per class row instead of
    one loop per sample, so the bits are the same: the maximum is the
    row's (a maximum of 0.0 tied with -0.0 may take the other sign, which
    changes no result) and :func:`_class_sums` gives the row's sum.
    """
    by_class -= np.maximum.reduce(by_class, axis=0)
    by_class -= np.log(_class_sums(np.exp(by_class)))
    return by_class


def forward_loss(spec: ModelSpec, params: ParamVector, batch: Batch):
    """Mean cross-entropy over the batch plus the per-sample losses."""
    layers = _unpack(spec, params[None])
    z = _forward(layers, batch.features[None])[1]
    logp = _log_softmax(_class_major(z, layers[-1])[:, 0])
    per_sample = -logp[batch.labels, np.arange(len(batch))]
    if not np.all(np.isfinite(per_sample)):
        raise ValueError("non-finite loss encountered")
    return float(per_sample.mean()), per_sample


def stack_views(spec: ModelSpec, params: np.ndarray, b: int) -> tuple:
    """What :func:`stacked_loss_and_grad` derives from a ``(G, n_params)`` stack and batch size b.

    The layer views of ``params``, a fresh gradient buffer, its layer views
    and the label-pick base ``arange(G * b)``.  They stay valid while
    ``params`` is updated in place, so a caller stepping one stack many
    times builds them once; each call overwrites the whole buffer.
    """
    grad = np.empty_like(params)
    return _unpack(spec, params), grad, _unpack(spec, grad), np.arange(params.shape[0] * b)


def stacked_loss_and_grad(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                          labels: np.ndarray, views: tuple | None = None):
    """Per-sample losses and mean-loss gradients of G models on G batches at once.

    ``params`` is ``(G, n_params)``, ``x`` is ``(G, b, input_dim)`` and
    ``labels`` is ``(G, b)``; returns ``per_sample`` ``(G, b)`` and ``grad``
    ``(G, n_params)``.  ``views``, if given, is :func:`stack_views` of
    ``params`` and b, and ``grad`` is its buffer.  Row g depends only on
    ``params[g]``, ``x[g]`` and ``labels[g]``, and every row runs the same
    BLAS calls and reductions in the same order, so a one-row call gives
    the same bits as row g of a stacked one.  The softmax runs on the
    class-major logits of :func:`_class_major`, and the logits' gradient is
    copied back row-major for the matmuls.  Finiteness is left to the
    caller, which knows the row's worker and step.
    """
    layers, grad, grad_layers, base = views or stack_views(spec, params, x.shape[1])
    hidden, z = _forward(layers, x)
    g, b, c = z.shape
    m = g * b
    logp = _log_softmax(_class_major(z, layers[-1]).reshape(c, m))
    picks = labels.ravel() * m + base
    per_sample = -logp.ravel()[picks].reshape(g, b)
    dlogits = np.exp(logp, out=logp)
    dlogits.ravel()[picks] -= 1.0
    dlogits /= b
    dlogits = np.ascontiguousarray(dlogits.T).reshape(g, b, c)
    xt = x.transpose(0, 2, 1)
    if hidden is None:
        gw, gb = grad_layers
        np.matmul(xt, dlogits, out=gw)
        np.add.reduce(dlogits, axis=1, out=gb)
        return per_sample, grad
    gw1, gb1, gw2, gb2 = grad_layers
    np.matmul(hidden.transpose(0, 2, 1), dlogits, out=gw2)
    np.add.reduce(dlogits, axis=1, out=gb2)
    dz1 = dlogits @ layers[2].transpose(0, 2, 1)
    dz1 *= hidden > 0.0
    np.matmul(xt, dz1, out=gw1)
    np.add.reduce(dz1, axis=1, out=gb1)
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
    n_hidden_params = (spec.input_dim + 1) * spec.hidden_dim  # w1 and b1 lead the vector

    def preact_sign(p):
        # the ReLU output is positive exactly where its input is
        return _forward(_unpack(spec, p[None]), batch.features[None])[0] > 0.0

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


def _hits(by_class: np.ndarray, labels: np.ndarray) -> int:
    """How many columns of class-major ``(c, n)`` logits have their argmax at the column's label.

    Each sample's maximum is taken with one ``np.maximum`` pass per class,
    as in :func:`_log_softmax`; a hit is a sample whose label's logit
    equals its maximum.  If any sample has a tie or a NaN, the count falls
    back to ``np.argmax``, whose first-index rule decides it, so the count
    is always argmax's.
    """
    c, n = by_class.shape
    best = np.maximum.reduce(by_class, axis=0)  # propagates NaN
    at_best = by_class == best
    # without NaN every sample has a maximum; n of them in all means no ties
    if np.count_nonzero(at_best) == n and not np.isnan(best).any():
        at_best &= labels == np.arange(c)[:, None]
        return int(np.count_nonzero(at_best))
    return int(np.count_nonzero(np.argmax(by_class, axis=0) == labels))


def stacked_hits(spec: ModelSpec, params: np.ndarray, features: np.ndarray,
                 labels: np.ndarray) -> list:
    """How many samples each of G models classifies right, each on its own set.

    ``params`` is ``(G, n_params)``, ``features`` ``(G, n, input_dim)`` and
    ``labels`` ``(G, n)``; returns G counts.  One forward pass scores every
    model into one class-major copy of the logits, and model g's count,
    taken on its block of that copy, is its own alone.  A sample is right
    when its label is its argmax logit; ties break toward the lowest class
    index (np.argmax convention).  Overflowing logits are scored without a
    numpy warning, as in training.
    """
    layers = _unpack(spec, params)
    with np.errstate(over="ignore", invalid="ignore"):
        # the hidden layer is freed before the class-major copy is allocated
        z = _forward(layers, np.asarray(features, dtype=np.float64))[1]
        by_class = _class_major(z, layers[-1])
    return [_hits(by_class[:, g], y) for g, y in enumerate(labels)]
