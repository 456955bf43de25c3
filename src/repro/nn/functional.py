"""Functional neural-network operations built on :mod:`repro.nn.tensor`.

Losses follow the reduction conventions of the paper's experimental stack:
every loss returns a scalar tensor (mean over the batch) unless stated
otherwise, because the multi-task trainer back-propagates one scalar per task.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, register_multi_adjoint, unbroadcast, where

__all__ = [
    "linear",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "gelu",
    "softmax",
    "log_softmax",
    "mse_loss",
    "l1_loss",
    "huber_loss",
    "bce_with_logits",
    "cross_entropy",
    "nll_loss",
    "cosine_similarity",
]


# ----------------------------------------------------------------------
# Fused primitives: ``linear`` and the losses ``mse_loss``,
# ``bce_with_logits`` and ``cross_entropy`` each build ONE graph node with a
# closed-form gradient and a batched multi-root adjoint (registered at the
# bottom of this module).  Like every grad_fn, theirs never capture their
# own output Tensor: an out -> grad_fn -> out reference cycle would keep
# the whole upstream graph alive until the cyclic GC runs.
# ----------------------------------------------------------------------
def _linear_grads(g, x, weight, bias):
    """Parent gradients of ``linear`` for ``g`` of shape ``(R, *out.shape)``.

    The input gradient collapses the root axis into one ``(R·B, M) @ (M, N)``
    GEMM; the weight gradient is a batched ``(R, M, B) @ (B, N)`` matmul,
    which reads ``g`` in place instead of copying it into one wide GEMM.
    """
    num_roots = g.shape[0]
    out_features, in_features = weight.data.shape
    rows = np.ascontiguousarray(g).reshape(num_roots, -1, out_features)  # (R, B, M)
    grad_x = grad_w = grad_b = None
    if x.requires_grad:
        grad_x = (rows.reshape(-1, out_features) @ weight.data).reshape(
            (num_roots,) + x.data.shape
        )
    if weight.requires_grad:
        grad_w = np.matmul(rows.transpose(0, 2, 1), x.data.reshape(-1, in_features))
    if bias is not None and bias.requires_grad:
        grad_b = rows.sum(axis=1).reshape((num_roots,) + bias.data.shape)
    return grad_x, grad_w, grad_b


def linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weightᵀ + bias`` over the last axis, as one graph node.

    ``x`` may have any number of leading axes (``(B, D)``, ``(B, T, D)``);
    ``weight`` is ``(out, in)`` and ``bias`` is ``(out,)`` or ``None``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    data = x.data @ weight.data.T
    if bias is not None:
        bias = as_tensor(bias)
        data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(data, parents, "linear")
    if out.requires_grad:

        def grad_fn(g: np.ndarray) -> tuple:
            grads = _linear_grads(g[None], x, weight, bias)
            return tuple(None if grad is None else grad[0] for grad in grads)

        out._grad_fn = grad_fn
    return out


def _adj_linear(node, g):
    x, weight, *bias = node._prev
    return _linear_grads(g, x, weight, bias[0] if bias else None)


def _target_array(target, shape: tuple[int, ...]) -> np.ndarray:
    """``target`` as a float64 array of the prediction's ``shape``.

    A target with as many elements is reshaped (so ``(B,)`` and ``(B, 1)``
    pair either way); otherwise it must broadcast to ``shape``.
    """
    data = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    if data.shape == shape:
        return data
    if data.size == int(np.prod(shape)):
        return data.reshape(shape)
    return np.broadcast_to(data, shape)


def _loss_node(prediction: Tensor, target, value, op: str, grad, target_grad=None) -> Tensor:
    """The scalar loss node over ``prediction`` (and a ``target`` needing grad).

    ``grad()`` and ``target_grad()`` return the loss's gradient with respect
    to the prediction and the target, as arrays of the prediction's shape;
    they run only when the node records a graph.  The parent gradients are
    kept in ``_ctx`` for the batched adjoint.
    """
    if target_grad is not None and isinstance(target, Tensor) and target.requires_grad:
        parents = (prediction, target)
    else:
        parents = (prediction,)
    out = prediction._make_child(value, parents, op)
    if out.requires_grad:
        ctx = (grad(),)
        if len(parents) == 2:
            ctx += (_to_shape(target_grad(), target.data.shape),)
        out._ctx = ctx
        out._grad_fn = lambda g: tuple(g * parent_grad for parent_grad in ctx)
    return out


def _to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Map a prediction-shaped target gradient back to the target's shape."""
    if grad.size == int(np.prod(shape)):
        return grad.reshape(shape)
    return unbroadcast(grad, shape)


def _adj_loss(node, g):
    return tuple(
        g.reshape((g.shape[0],) + (1,) * parent_grad.ndim) * parent_grad
        for parent_grad in node._ctx
    )


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Elementwise leaky ReLU."""
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error over the prediction's elements (one graph node).

    The gradient is ``2·(prediction − target)/n``.
    """
    prediction = as_tensor(prediction)
    diff = prediction.data - _target_array(target, prediction.data.shape)
    count = diff.size
    value = (diff * diff).sum() * (1.0 / count)
    return _loss_node(
        prediction,
        target,
        value,
        "mse_loss",
        grad=lambda: diff * (2.0 / count),
        target_grad=lambda: diff * (-2.0 / count),
    )


def l1_loss(prediction: Tensor, target) -> Tensor:
    """Mean absolute error over all elements."""
    target = as_tensor(target)
    return (prediction - target).abs().mean()


def huber_loss(prediction: Tensor, target, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``delta``, linear outside."""
    target = as_tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear = delta * abs_diff - 0.5 * delta * delta
    return where(abs_diff.data <= delta, quadratic, linear).mean()


def bce_with_logits(logits: Tensor, target) -> Tensor:
    """Numerically stable binary cross entropy on raw logits (one graph node).

    The loss is ``max(x, 0) − x·y + log(1 + exp(−|x|))``, averaged over the
    elements; the gradient is ``(σ(x) − y)/n``, finite for any logit.  At
    ``x = 0`` that is the true derivative ``0.5 − y``.
    """
    logits = as_tensor(logits)
    x = logits.data
    y = _target_array(target, x.shape)
    count = x.size
    decay = np.exp(-np.abs(x))
    value = (np.maximum(x, 0.0) - x * y + np.log1p(decay)).sum() * (1.0 / count)

    def grad():
        probs = np.where(x >= 0.0, 1.0, decay) / (1.0 + decay)
        return (probs - y) * (1.0 / count)

    return _loss_node(
        logits, target, value, "bce_with_logits", grad, target_grad=lambda: x * (-1.0 / count)
    )


def cross_entropy(logits: Tensor, target_indices, axis: int = -1) -> Tensor:
    """Cross entropy between raw ``logits`` and integer class labels.

    One graph node with gradient ``(softmax − onehot)/n``.  ``target_indices``
    is an integer array; for dense prediction tasks the logits may carry
    extra leading axes, e.g. ``(batch, H, W, classes)`` paired with labels
    of shape ``(batch, H, W)``.
    """
    logits = as_tensor(logits)
    x = logits.data
    if axis not in (-1, x.ndim - 1):
        raise ValueError("cross_entropy expects the class axis to be last")
    flat = x.reshape(-1, x.shape[-1])
    labels = np.asarray(target_indices).reshape(-1).astype(np.int64)
    if labels.shape[0] != flat.shape[0]:
        raise ValueError(f"{labels.shape[0]} labels for {flat.shape[0]} rows of logits")
    rows = np.arange(flat.shape[0])
    shifted = flat - flat.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    picked = shifted[rows, labels] - np.log(sums[:, 0])
    scale = 1.0 / flat.shape[0]
    value = -(picked.sum() * scale)

    def grad():
        probs = exps / sums
        probs[rows, labels] -= 1.0
        probs *= scale
        return probs.reshape(x.shape)

    return _loss_node(logits, target_indices, value, "cross_entropy", grad)


def nll_loss(log_probs: Tensor, target_indices) -> Tensor:
    """Negative log likelihood over pre-computed log probabilities."""
    target_indices = np.asarray(target_indices).reshape(-1).astype(np.int64)
    flat = log_probs.reshape(-1, log_probs.shape[-1])
    picked = flat[np.arange(flat.shape[0]), target_indices]
    return -picked.mean()


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along the last axis."""
    dot = (a * b).sum(axis=-1)
    norm_a = ((a * a).sum(axis=-1) + eps).sqrt()
    norm_b = ((b * b).sum(axis=-1) + eps).sqrt()
    return dot / (norm_a * norm_b)


register_multi_adjoint("linear", _adj_linear)
for _op in ("mse_loss", "bce_with_logits", "cross_entropy"):
    register_multi_adjoint(_op, _adj_loss)
