"""The numpy floor: HPS forward and per-task backward written by hand.

This is the same work the trainer's forward and multi-root backward do
for a hard-parameter-sharing MLP with ReLU trunk layers, K linear heads
and a binary cross-entropy loss per task: the per-task gradients of the
shared trunk parameters, stacked as a ``(K, d)`` matrix, plus each head's
gradient. Written as a few batched numpy calls, it has no autograd
bookkeeping, so its time is a lower bound for the engine's on the same
shapes; the ratio between the two is the framework overhead.
"""

from __future__ import annotations

import numpy as np

from spans import clock


class HPSFloor:
    """Plain-numpy HPS with ``hidden`` ReLU trunk layers and K heads."""

    def __init__(self, in_features: int, hidden, num_tasks: int, batch: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        widths = [in_features, *hidden]
        self.weights = [
            rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
            for fan_in, fan_out in zip(widths[:-1], widths[1:])
        ]
        self.biases = [np.zeros(width) for width in hidden]
        self.heads = rng.normal(scale=1.0 / np.sqrt(hidden[-1]), size=(hidden[-1], num_tasks))
        self.head_bias = np.zeros(num_tasks)
        self.x = rng.normal(size=(batch, in_features))
        self.y = (rng.random((batch, num_tasks)) < 0.5).astype(np.float64)
        dim_shared = sum(w.size + b.size for w, b in zip(self.weights, self.biases))
        self.grads = np.empty((num_tasks, dim_shared))

    def step(self) -> float:
        """One forward + backward; returns the summed task losses."""
        activations = [self.x]
        for weight, bias in zip(self.weights, self.biases):
            activations.append(np.maximum(activations[-1] @ weight + bias, 0.0))
        features = activations[-1]
        logits = features @ self.heads + self.head_bias  # (B, K)
        loss = (
            np.maximum(logits, 0.0) - logits * self.y + np.log1p(np.exp(-np.abs(logits)))
        ).mean(axis=0)
        batch = logits.shape[0]
        dlogits = (1.0 / (1.0 + np.exp(-logits)) - self.y) / batch  # (B, K)
        self.head_grad = features.T @ dlogits
        self.head_bias_grad = dlogits.sum(axis=0)
        # Per-task adjoint of the features: (K, B, H).
        upstream = dlogits.T[:, :, None] * self.heads.T[:, None, :]
        offset = self.grads.shape[1]
        for layer in range(len(self.weights) - 1, -1, -1):
            upstream = upstream * (activations[layer + 1] > 0.0)
            weight = self.weights[layer]
            bias_end = offset
            offset -= self.biases[layer].size
            self.grads[:, offset:bias_end] = upstream.sum(axis=1)
            weight_end = offset
            offset -= weight.size
            self.grads[:, offset:weight_end] = np.matmul(
                activations[layer].T[None], upstream
            ).reshape(len(upstream), -1)
            if layer:
                upstream = upstream @ weight.T
        return float(loss.sum())


def floor_ms(in_features: int, hidden, num_tasks: int, batch: int, budget_s: float) -> float:
    """Median milliseconds of :meth:`HPSFloor.step`, repeated for ``budget_s``."""
    floor = HPSFloor(in_features, hidden, num_tasks, batch, seed=0)
    floor.step()
    times = []
    deadline = clock() + budget_s
    while clock() < deadline or len(times) < 5:
        start = clock()
        floor.step()
        times.append(clock() - start)
    return float(np.median(times)) * 1e3
