"""The fused primitives against their composed-graph oracles.

``linear``, ``mse_loss``, ``bce_with_logits`` and ``cross_entropy`` each
build one graph node with a closed-form gradient.  The oracles in
``tests/oracles/composed.py`` build the same value from elementary ops and
let autograd derive the gradient; both must agree to 1e-12, through
``Tensor.backward`` and through the batched ``backward_multi`` adjoints.
"""

import warnings

import numpy as np
import pytest

from repro.nn import Linear, Tensor, backward_multi
from repro.nn import functional as F

from ..conftest import assert_gradcheck
from ..oracles import composed

TOL = dict(atol=1e-12, rtol=0)


def _binary(rng, shape):
    return (rng.random(shape) > 0.5).astype(np.float64)


def _loss_cases(rng):
    """(name, fused fn, oracle fn, prediction array, target) per loss."""
    labels = rng.integers(0, 5, size=(6,))
    dense_labels = rng.integers(0, 3, size=(2, 3, 3))
    return [
        ("mse", F.mse_loss, composed.mse_loss, rng.normal(size=(6, 3)), rng.normal(size=(6, 3))),
        ("bce", F.bce_with_logits, composed.bce_with_logits, rng.normal(size=(8,)) * 3,
         _binary(rng, (8,))),
        ("ce", F.cross_entropy, composed.cross_entropy, rng.normal(size=(6, 5)), labels),
        ("ce-dense", F.cross_entropy, composed.cross_entropy, rng.normal(size=(2, 3, 3, 3)),
         dense_labels),
    ]


def _value_and_grad(fn, prediction, target):
    x = Tensor(prediction.copy(), requires_grad=True)
    loss = fn(x, target)
    loss.backward()
    return loss.item(), x.grad


class TestAgainstComposedOracles:
    @pytest.mark.parametrize("index", range(4))
    def test_loss_value_and_gradient(self, rng, index):
        name, fused, oracle, prediction, target = _loss_cases(rng)[index]
        value, grad = _value_and_grad(fused, prediction, target)
        ref_value, ref_grad = _value_and_grad(oracle, prediction, target)
        np.testing.assert_allclose(value, ref_value, **TOL)
        np.testing.assert_allclose(grad, ref_grad, **TOL)

    @pytest.mark.parametrize("fused,oracle", [
        (F.mse_loss, composed.mse_loss),
        (F.bce_with_logits, composed.bce_with_logits),
    ])
    def test_target_gradient(self, rng, fused, oracle):
        prediction = rng.normal(size=(5,))
        target = rng.random(5)
        grads = []
        for fn in (fused, oracle):
            y = Tensor(target.copy(), requires_grad=True)
            fn(Tensor(prediction), y).backward()
            grads.append(y.grad)
        np.testing.assert_allclose(grads[0], grads[1], **TOL)

    @pytest.mark.parametrize("shape", [(5, 4), (3, 2, 4), (4,)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_value_and_gradients(self, rng, shape, bias):
        data = rng.normal(size=shape)
        w_data, b_data = rng.normal(size=(3, 4)), rng.normal(size=(3,))
        seed = rng.normal(size=shape[:-1] + (3,))
        results = []
        for fn in (F.linear, composed.linear):
            x = Tensor(data.copy(), requires_grad=True)
            w = Tensor(w_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True) if bias else None
            out = fn(x, w, b)
            out.backward(seed)
            results.append((out.data, x.grad, w.grad, None if b is None else b.grad))
        for got, want in zip(*results):
            if want is None:
                assert got is None
            else:
                np.testing.assert_allclose(got, want, **TOL)


class TestFiniteDifferences:
    def test_linear(self, rng):
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3,)))
        assert_gradcheck(lambda x: (F.linear(x, w, b) ** 2).sum(), rng.normal(size=(2, 4)))

    def test_linear_weight_and_bias(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(3,)))
        w = rng.normal(size=(3, 4))
        assert_gradcheck(lambda w: (F.linear(x, w, b) ** 2).sum(), w)
        assert_gradcheck(lambda b: (F.linear(x, Tensor(w), b) ** 2).sum(), b.data)

    @pytest.mark.parametrize("index", range(4))
    def test_losses(self, rng, index):
        _, fused, _, prediction, target = _loss_cases(rng)[index]
        assert_gradcheck(lambda x: fused(x, target), prediction)


class TestMultiRootAdjoints:
    """``backward_multi`` through fused nodes equals per-root ``backward``."""

    @staticmethod
    def _graph(data, rng_seed, num_roots):
        gen = np.random.default_rng(rng_seed)
        x = Tensor(data["x"].copy(), requires_grad=True)
        trunk = Linear(4, 6, gen)
        head = Linear(6, 1, gen, bias=False)
        hidden = trunk(x).relu()
        logits = head(hidden).reshape(-1)
        scores = F.linear(hidden, Tensor(data["w"]), Tensor(data["b"]))
        losses = [
            F.bce_with_logits(logits, data["y"]),
            F.mse_loss(hidden, data["t"]),
            F.cross_entropy(scores, data["labels"]),
        ]
        # Root r weights every loss differently, so each fused node carries
        # one gradient row per root and runs its batched adjoint.
        roots = [
            sum((losses[i] * float(1 + (r + i) % 3) for i in range(3)), Tensor(0.0))
            for r in range(num_roots)
        ]
        params = [x, trunk.weight, trunk.bias, head.weight]
        return roots, params

    @pytest.mark.parametrize("num_roots", [1, 2, 8])
    def test_matches_per_root_backward(self, rng, num_roots):
        data = {
            "x": rng.normal(size=(5, 4)),
            "w": rng.normal(size=(3, 6)),
            "b": rng.normal(size=(3,)),
            "y": _binary(rng, (5,)),
            "t": rng.normal(size=(5, 6)),
            "labels": rng.integers(0, 3, size=(5,)),
        }
        reference = []
        for r in range(num_roots):
            roots, params = self._graph(data, 11, num_roots)
            roots[r].backward()
            reference.append([p.grad.copy() for p in params])
        roots, params = self._graph(data, 11, num_roots)
        slots = backward_multi(roots, per_root=params)
        for r in range(num_roots):
            for i in range(len(params)):
                np.testing.assert_allclose(slots[i][r], reference[r][i], **TOL)

    def test_batched_adjoints_run(self, rng, monkeypatch):
        # The fused ops must take their registered batched adjoint when
        # several roots reach them, not the per-root grad_fn fallback.
        from repro.nn.tensor import _MULTI_ADJOINTS

        seen = set()
        for op in ("linear", "mse_loss", "bce_with_logits", "cross_entropy"):
            adjoint = _MULTI_ADJOINTS[op]

            def spy(node, g, _op=op, _adjoint=adjoint):
                seen.add(_op)
                return _adjoint(node, g)

            monkeypatch.setitem(_MULTI_ADJOINTS, op, spy)
        data = {
            "x": rng.normal(size=(5, 4)),
            "w": rng.normal(size=(3, 6)),
            "b": rng.normal(size=(3,)),
            "y": _binary(rng, (5,)),
            "t": rng.normal(size=(5, 6)),
            "labels": rng.integers(0, 3, size=(5,)),
        }
        roots, _ = self._graph(data, 11, 2)
        backward_multi(roots)
        assert seen == {"linear", "mse_loss", "bce_with_logits", "cross_entropy"}


class TestGraphShape:
    def test_linear_builds_one_node(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(rng.normal(size=(2, 4)), requires_grad=True))
        assert out._op == "linear"
        assert len(out._prev) == 3
        assert all(parent._grad_fn is None for parent in out._prev)

    @pytest.mark.parametrize("fn,op", [
        (F.mse_loss, "mse_loss"),
        (F.bce_with_logits, "bce_with_logits"),
    ])
    def test_loss_builds_one_node(self, rng, fn, op):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        loss = fn(x, np.ones(4))
        assert loss._op == op
        assert loss._prev == (x,)

    def test_cross_entropy_builds_one_node(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = F.cross_entropy(x, np.array([0, 1, 2, 0]))
        assert loss._op == "cross_entropy"
        assert loss._prev == (x,)


class TestLinearLayer:
    def test_three_dimensional_input(self, rng):
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        out = layer(x)
        assert out.shape == (2, 5, 3)
        np.testing.assert_allclose(
            out.data, x.data @ layer.weight.data.T + layer.bias.data, **TOL
        )
        out.sum().backward()
        assert x.grad.shape == (2, 5, 4)
        np.testing.assert_allclose(layer.bias.grad, np.full(3, 10.0), **TOL)

    def test_without_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        out = layer(x)
        assert len(out._prev) == 2
        out.sum().backward()
        np.testing.assert_allclose(layer.weight.grad, np.tile(x.data.sum(axis=0), (3, 1)), **TOL)

    def test_accepts_plain_arrays(self, rng):
        layer = Linear(4, 3, rng)
        data = rng.integers(0, 5, size=(2, 4))
        out = layer(data)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out.data, data @ layer.weight.data.T + layer.bias.data, **TOL)


class TestBCEEdgeCases:
    def test_extreme_logits_finite_and_warning_free(self):
        x = Tensor(np.array([800.0, -800.0, 800.0, -800.0]), requires_grad=True)
        y = np.array([1.0, 0.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise", under="ignore"):
                loss = F.bce_with_logits(x, y)
                loss.backward()
        assert loss.item() == pytest.approx((0.0 + 0.0 + 800.0 + 800.0) / 4)
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 0.25, -0.25], **TOL)

    def test_true_derivative_at_zero(self):
        # d/dx [max(x,0) − xy + log(1+e^{−|x|})] at 0 is σ(0) − y = 0.5 − y.
        # The composed graph gave 1 − y there: clip passes the full
        # gradient at its boundary and abs passes none.
        y = np.array([0.0, 1.0])
        x = Tensor(np.zeros(2), requires_grad=True)
        F.bce_with_logits(x, y).backward()
        np.testing.assert_allclose(x.grad, (0.5 - y) / 2, **TOL)
        ref = Tensor(np.zeros(2), requires_grad=True)
        composed.bce_with_logits(ref, y).backward()
        np.testing.assert_allclose(ref.grad, (1.0 - y) / 2, **TOL)

    @pytest.mark.parametrize("target_shape", [(6,), (6, 1)])
    @pytest.mark.parametrize("logit_shape", [(6,), (6, 1)])
    def test_column_and_flat_targets(self, rng, logit_shape, target_shape):
        logits = rng.normal(size=6)
        y = _binary(rng, 6)
        expected, expected_grad = _value_and_grad(F.bce_with_logits, logits, y)
        value, grad = _value_and_grad(
            F.bce_with_logits, logits.reshape(logit_shape), y.reshape(target_shape)
        )
        assert value == pytest.approx(expected, rel=1e-14)
        np.testing.assert_allclose(grad.reshape(-1), expected_grad, **TOL)

    def test_mse_column_target(self, rng):
        prediction, target = rng.normal(size=6), rng.normal(size=6)
        flat = F.mse_loss(Tensor(prediction), target).item()
        column = F.mse_loss(Tensor(prediction), target.reshape(6, 1)).item()
        assert column == flat


class TestCrossEntropy:
    def test_dense_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.normal(size=(2, 3, 3, 4))
        labels = rng.integers(0, 4, size=(2, 3, 3))
        x = Tensor(logits.copy(), requires_grad=True)
        F.cross_entropy(x, labels).backward()
        probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        onehot = np.eye(4)[labels]
        np.testing.assert_allclose(x.grad, (probs - onehot) / 18, atol=1e-15, rtol=0)

    def test_label_count_must_match_rows(self, rng):
        with pytest.raises(ValueError, match="labels"):
            F.cross_entropy(Tensor(rng.normal(size=(4, 3))), np.zeros(5, dtype=int))

    def test_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0], [0.0, -1000.0]]), requires_grad=True)
        loss = F.cross_entropy(x, np.array([0, 1]))
        loss.backward()
        assert loss.item() == pytest.approx(500.0)
        assert np.isfinite(x.grad).all()
