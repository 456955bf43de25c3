"""Autograd graphs are freed by reference counting alone.

A ``grad_fn`` that captures its own output Tensor makes an
``out -> grad_fn -> out`` cycle: the graph, and every activation upstream
of it, then lives until the cyclic garbage collector runs.  Each case here
builds a graph, backpropagates (through ``Tensor.backward`` and through
``backward_multi``), drops it with the collector disabled, and asserts a
collection finds nothing left over.
"""

import gc

import numpy as np
import pytest

from repro.nn import (
    MLP,
    AvgPool2d,
    BatchNorm1d,
    Conv2d,
    Dropout,
    Embedding,
    GELU,
    GlobalAvgPool2d,
    GraphConv,
    GraphReadout,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadSelfAttention,
    Tensor,
    TransformerBlock,
    UpsampleNearest,
    backward_multi,
    concat,
    pad2d,
    stack,
    where,
)
from repro.nn import functional as F


def _unreachable_after(build) -> int:
    """Objects a full collection finds after ``build()`` returns."""
    gc.collect()
    gc.disable()
    try:
        build()
        return gc.collect()
    finally:
        gc.enable()


def _leaves(shape=(3, 4), seed=0):
    gen = np.random.default_rng(seed)
    x = Tensor(gen.uniform(0.5, 2.0, size=shape), requires_grad=True)
    y = Tensor(gen.uniform(0.5, 2.0, size=shape), requires_grad=True)
    return x, y


#: every differentiable Tensor op (and free function), as (x, y) -> Tensor
TENSOR_OPS = {
    "add": lambda x, y: x + y,
    "radd": lambda x, y: 2.0 + x,
    "sub": lambda x, y: x - y,
    "rsub": lambda x, y: 2.0 - x,
    "mul": lambda x, y: x * y,
    "rmul": lambda x, y: 2.0 * x,
    "truediv": lambda x, y: x / y,
    "rtruediv": lambda x, y: 2.0 / x,
    "neg": lambda x, y: -x,
    "pow": lambda x, y: x**3,
    "matmul": lambda x, y: x @ y.T,
    "rmatmul": lambda x, y: np.ones((2, 3)) @ x,
    "exp": lambda x, y: x.exp(),
    "log": lambda x, y: x.log(),
    "sqrt": lambda x, y: x.sqrt(),
    "tanh": lambda x, y: x.tanh(),
    "sigmoid": lambda x, y: x.sigmoid(),
    "relu": lambda x, y: (x - 1.0).relu(),
    "leaky_relu": lambda x, y: (x - 1.0).leaky_relu(0.1),
    "abs": lambda x, y: (x - 1.0).abs(),
    "clip": lambda x, y: x.clip(0.8, 1.5),
    "sum": lambda x, y: x.sum(axis=1),
    "mean": lambda x, y: x.mean(axis=0),
    "max": lambda x, y: x.max(axis=1),
    "min": lambda x, y: x.min(),
    "reshape": lambda x, y: x.reshape(4, 3),
    "flatten": lambda x, y: x.flatten(),
    "transpose": lambda x, y: x.transpose(),
    "T": lambda x, y: x.T,
    "getitem": lambda x, y: x[1:, ::2],
    "concat": lambda x, y: concat([x, y], axis=1),
    "stack": lambda x, y: stack([x, y], axis=0),
    "where": lambda x, y: where(x.data > 1.0, x, y),
    "pad2d": lambda x, y: pad2d(x.reshape(1, 1, 3, 4), 1),
}

_LABELS = np.array([0, 3, 1])

#: every public function of repro.nn.functional, as (x, y) -> Tensor
FUNCTIONAL = {
    "linear": lambda x, y: F.linear(x, y, y[:, 0]),
    "relu": lambda x, y: F.relu(x - 1.0),
    "leaky_relu": lambda x, y: F.leaky_relu(x - 1.0),
    "sigmoid": lambda x, y: F.sigmoid(x),
    "tanh": lambda x, y: F.tanh(x),
    "gelu": lambda x, y: F.gelu(x),
    "softmax": lambda x, y: F.softmax(x) * y,
    "log_softmax": lambda x, y: F.log_softmax(x) * y,
    "mse_loss": lambda x, y: F.mse_loss(x, y),
    "l1_loss": lambda x, y: F.l1_loss(x, y),
    "huber_loss": lambda x, y: F.huber_loss(x, y * 2.0),
    "bce_with_logits": lambda x, y: F.bce_with_logits(x - 1.0, y.data > 1.0),
    "cross_entropy": lambda x, y: F.cross_entropy(x, _LABELS),
    "nll_loss": lambda x, y: F.nll_loss(F.log_softmax(x), _LABELS),
    "cosine_similarity": lambda x, y: F.cosine_similarity(x, y),
}


def test_functional_table_covers_the_public_api():
    assert set(FUNCTIONAL) == set(F.__all__)


def _backward_cases():
    for name, op in {**TENSOR_OPS, **FUNCTIONAL}.items():
        yield pytest.param(op, id=name)


@pytest.mark.parametrize("op", _backward_cases())
def test_backward_leaves_no_cycles(op):
    def build():
        x, y = _leaves()
        op(x, y).sum().backward()

    assert _unreachable_after(build) == 0


@pytest.mark.parametrize("op", _backward_cases())
def test_backward_multi_leaves_no_cycles(op):
    def build():
        x, y = _leaves()
        out = op(x, y)
        backward_multi([out.sum(), (out * 2.0).sum()], per_root=[x])

    assert _unreachable_after(build) == 0


def _module_cases():
    gen = np.random.default_rng(0)
    image = gen.normal(size=(2, 2, 4, 4))
    tokens = gen.normal(size=(2, 3, 4))
    adjacency = np.full((2, 3, 3), 1.0 / 3.0)
    cases = {
        "Linear": (lambda: Linear(4, 3, gen), gen.normal(size=(5, 4))),
        "Linear-3d": (lambda: Linear(4, 3, gen, bias=False), tokens),
        "MLP": (lambda: MLP(4, [6], 2, gen), gen.normal(size=(5, 4))),
        "LayerNorm": (lambda: LayerNorm(4), gen.normal(size=(5, 4))),
        "BatchNorm1d": (lambda: BatchNorm1d(4), gen.normal(size=(5, 4))),
        "Dropout": (lambda: Dropout(0.5, gen), gen.normal(size=(5, 4))),
        "GELU": (lambda: GELU(), gen.normal(size=(5, 4))),
        "MultiHeadSelfAttention": (lambda: MultiHeadSelfAttention(4, 2, gen), tokens),
        "TransformerBlock": (lambda: TransformerBlock(4, 2, gen), tokens),
        "Conv2d": (lambda: Conv2d(2, 3, 3, gen, padding=1), image),
        "MaxPool2d": (lambda: MaxPool2d(2), image),
        "AvgPool2d": (lambda: AvgPool2d(2), image),
        "GlobalAvgPool2d": (lambda: GlobalAvgPool2d(), image),
        "UpsampleNearest": (lambda: UpsampleNearest(2), image),
    }
    for name, (factory, data) in cases.items():
        yield pytest.param(factory, lambda m, x: m(x), data, id=name)
    yield pytest.param(
        lambda: GraphConv(4, 3, gen), lambda m, x: m(x, adjacency), tokens, id="GraphConv"
    )
    yield pytest.param(
        lambda: GraphReadout(), lambda m, x: m(x, np.ones((2, 3))), tokens, id="GraphReadout"
    )


@pytest.mark.parametrize("factory,call,data", _module_cases())
def test_module_graph_leaves_no_cycles(factory, call, data):
    module = factory()

    def build():
        x = Tensor(data, requires_grad=True)
        out = call(module, x)
        backward_multi([out.sum(), (out * out).sum()], per_root=[x])
        out.sum().backward()

    assert _unreachable_after(build) == 0


def test_embedding_graph_leaves_no_cycles():
    module = Embedding(5, 3, np.random.default_rng(0))

    def build():
        module(np.array([[0, 4], [2, 2]])).sum().backward()

    assert _unreachable_after(build) == 0
