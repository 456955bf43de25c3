"""Composed-graph formulations of the fused ``repro.nn.functional`` ops.

These build the result from elementary :class:`~repro.nn.Tensor` ops, one
graph node per op, exactly as ``Linear`` and the losses did before they
became single fused nodes.  Autograd derives their gradients, so they are
the reference the fused closed-form gradients are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor, as_tensor
from repro.nn.functional import log_softmax


def linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weightᵀ + bias`` as transpose, matmul and add nodes."""
    out = as_tensor(x) @ weight.T
    if bias is not None:
        out = out + bias
    return out


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error as sub, mul, sum and scale nodes."""
    diff = prediction - as_tensor(target)
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, target) -> Tensor:
    """``max(x, 0) − x·y + log(1 + exp(−|x|))`` averaged, node by node.

    At ``x = 0`` its autograd gradient is ``1 − y`` (clip passes the full
    gradient at its boundary, abs passes none), not the true ``0.5 − y``.
    """
    target = as_tensor(target)
    positive = logits.clip(0.0, np.inf)
    softplus = (1.0 + (-logits.abs()).exp()).log()
    return (positive - logits * target + softplus).mean()


def cross_entropy(logits: Tensor, target_indices) -> Tensor:
    """Mean negative log-softmax of the labelled class, node by node."""
    log_probs = log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, log_probs.shape[-1])
    labels = np.asarray(target_indices).reshape(-1).astype(np.int64)
    return -flat[np.arange(flat.shape[0]), labels].mean()
