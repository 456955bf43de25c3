"""Tests for the multi-task trainer: gradient collection, modes, equivalences."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import HardParameterSharing, LinearHead, MLPEncoder
from repro.balancers import EqualWeighting
from repro.core import MoCoGrad, create_balancer
from repro.data import MULTI_INPUT, SINGLE_INPUT, ArrayDataset, TaskSpec
from repro.nn import Tensor
from repro.nn.functional import bce_with_logits, mse_loss
from repro.nn.utils import parameter_vector
from repro.training import MTLTrainer


def make_problem(rng, num_tasks=2, n=40, conflict=True):
    """Small single-input regression problem with controllable conflict."""
    x = rng.normal(size=(n, 6))
    w = rng.normal(size=(num_tasks, 6))
    if conflict and num_tasks >= 2:
        w[1] = -w[0] + 0.1 * rng.normal(size=6)
    targets = {f"t{k}": x @ w[k] + 0.05 * rng.normal(size=n) for k in range(num_tasks)}
    dataset = ArrayDataset(x, targets)
    tasks = [
        TaskSpec(
            f"t{k}",
            mse_loss,
            {"rmse": lambda o, t: float(np.sqrt(np.mean((o - t) ** 2)))},
            {"rmse": False},
        )
        for k in range(num_tasks)
    ]
    return dataset, tasks


def make_model(rng, tasks):
    encoder = MLPEncoder(6, [12, 8], rng)
    heads = {task.name: LinearHead(8, 1, rng) for task in tasks}
    return HardParameterSharing(encoder, heads)


class TestConstruction:
    def test_task_mismatch_rejected(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks[:1])
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting())

    def test_invalid_mode(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting(), mode="dual")

    def test_feature_mode_requires_single_input(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting(), mode=MULTI_INPUT, grad_space="features")

    def test_invalid_grad_space(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError, match="grad_space"):
            MTLTrainer(model, tasks, EqualWeighting(), grad_space="params")

    def test_invalid_optimizer(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting(), optimizer="lbfgs")


class TestGradientCollection:
    def test_task_gradients_match_manual_backward(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        x, targets = dataset.batch(np.arange(8))
        grads = trainer.task_gradients(x, targets)
        # Manual: backward each task loss separately on a fresh copy.
        from repro.nn.utils import grad_vector

        for k, task in enumerate(tasks):
            model.zero_grad()
            loss = task.loss_fn(model.forward(Tensor(x), task.name), targets[task.name])
            loss.backward()
            np.testing.assert_allclose(
                grads[k], grad_vector(model.shared_parameters()), atol=1e-12
            )

    def test_equal_balancer_matches_total_loss_backward(self, rng):
        """Σ per-task gradients == gradient of the summed loss."""
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        x, targets = dataset.batch(np.arange(10))
        grads = trainer.task_gradients(x, targets)
        model.zero_grad()
        outputs = model.forward_all(Tensor(x))
        total = None
        for task in tasks:
            loss = task.loss_fn(outputs[task.name], targets[task.name])
            total = loss if total is None else total + loss
        total.backward()
        from repro.nn.utils import grad_vector

        np.testing.assert_allclose(
            grads.sum(axis=0), grad_vector(model.shared_parameters()), atol=1e-10
        )


class TestFeatureModeEquivalence:
    def test_feature_and_param_modes_agree_for_equal_weighting(self, rng):
        """With the trivial balancer, balancing feature gradients then one
        shared backward is mathematically identical to summing parameter
        gradients (chain rule) — the paper's §VI-C speedup is exact."""
        dataset, tasks = make_problem(rng)
        seeds = np.random.default_rng(3)
        model_a = make_model(np.random.default_rng(7), tasks)
        model_b = make_model(np.random.default_rng(7), tasks)
        trainer_a = MTLTrainer(model_a, tasks, EqualWeighting(), grad_space="parameters", lr=1e-2, seed=1)
        trainer_b = MTLTrainer(model_b, tasks, EqualWeighting(), grad_space="features", lr=1e-2, seed=1)
        x, targets = dataset.batch(np.arange(16))
        for _ in range(3):
            trainer_a.train_step_single(x, targets)
            trainer_b.train_step_single(x, targets)
        np.testing.assert_allclose(
            parameter_vector(model_a.parameters()),
            parameter_vector(model_b.parameters()),
            atol=1e-10,
        )

    def test_feature_mode_losses_match(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), grad_space="features", seed=0)
        x, targets = dataset.batch(np.arange(8))
        losses = trainer.train_step_single(x, targets)
        assert losses.shape == (2,)
        assert np.all(losses > 0)


class TestTraining:
    def test_loss_decreases_single_input(self, rng):
        dataset, tasks = make_problem(rng, conflict=False)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), lr=1e-2, seed=0)
        history = trainer.fit(dataset, epochs=10, batch_size=16)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0] / 2

    def test_loss_decreases_multi_input(self, rng):
        x1 = rng.normal(size=(40, 6))
        x2 = rng.normal(size=(40, 6))
        w = rng.normal(size=6)
        tasks = [
            TaskSpec("t0", mse_loss, {}, {}),
            TaskSpec("t1", mse_loss, {}, {}),
        ]
        data = {
            "t0": ArrayDataset(x1, x1 @ w),
            "t1": ArrayDataset(x2, x2 @ -w),
        }
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), mode=MULTI_INPUT, lr=1e-2, seed=0)
        history = trainer.fit(data, epochs=10, batch_size=16)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0]

    def test_mocograd_trains(self, rng):
        dataset, tasks = make_problem(rng, conflict=True)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, MoCoGrad(seed=0), lr=1e-2, seed=0)
        history = trainer.fit(dataset, epochs=8, batch_size=16)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0]

    def test_max_steps_per_epoch_respected(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        trainer.fit(dataset, epochs=1, batch_size=4, max_steps_per_epoch=2)
        assert trainer.step_count == 2

    def test_task_specific_gradients_applied(self, rng):
        """Head parameters must move during training."""
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        before = parameter_vector(model.task_specific_parameters("t0"))
        trainer = MTLTrainer(model, tasks, EqualWeighting(), lr=1e-2, seed=0)
        trainer.fit(dataset, epochs=1, batch_size=16)
        after = parameter_vector(model.task_specific_parameters("t0"))
        assert not np.allclose(before, after)

    def test_determinism_same_seed(self, rng):
        dataset, tasks = make_problem(rng)
        finals = []
        for _ in range(2):
            model = make_model(np.random.default_rng(11), tasks)
            trainer = MTLTrainer(model, tasks, MoCoGrad(seed=5), lr=1e-2, seed=5)
            trainer.fit(dataset, epochs=2, batch_size=8)
            finals.append(parameter_vector(model.parameters()))
        np.testing.assert_allclose(finals[0], finals[1])

    def test_timing_recorded(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        assert trainer.mean_step_seconds == 0.0
        trainer.fit(dataset, epochs=1, batch_size=16)
        assert trainer.mean_step_seconds > 0.0

    def test_balancer_sees_correct_loss_values(self, rng):
        dataset, tasks = make_problem(rng)

        captured = []

        class Spy(EqualWeighting):
            def balance(self, grads, losses):
                captured.append(losses.copy())
                return super().balance(grads, losses)

        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, Spy(), seed=0)
        x, targets = dataset.batch(np.arange(8))
        reported = trainer.train_step_single(x, targets)
        np.testing.assert_allclose(captured[0], reported)


class TestStepGlue:
    """Per-step trainer work that does not depend on the batch."""

    def _trainer(self, rng, loss_fn=mse_loss):
        dataset, tasks = make_problem(rng)
        tasks = [replace(task, loss_fn=loss_fn) for task in tasks]
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, create_balancer("mocograd", seed=0), seed=0)
        inputs, targets = dataset.batch(np.arange(16))
        return trainer, inputs, targets

    def test_step_does_not_rewalk_the_module_tree(self, rng, monkeypatch):
        trainer, inputs, targets = self._trainer(rng)
        trainer.train_step_single(inputs, targets)
        calls = {"modules": 0, "shared_parameters": 0}
        model = trainer.model
        for name in calls:
            original = getattr(model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        trainer.train_step_single(inputs, targets)
        trainer.task_gradients(inputs, targets)
        assert calls == {"modules": 0, "shared_parameters": 0}

    def test_step_restores_training_mode(self, rng):
        trainer, inputs, targets = self._trainer(rng)
        trainer.model.eval()
        trainer.train_step_single(inputs, targets)
        assert all(module.training for module in trainer.model.modules())

    def test_step_leaves_no_reference_cycles(self, rng):
        import gc

        trainer, inputs, targets = self._trainer(rng, loss_fn=bce_with_logits)
        targets = {name: (values > 0).astype(np.float64) for name, values in targets.items()}
        trainer.train_step_single(inputs, targets)
        gc.collect()
        gc.disable()
        try:
            trainer.train_step_single(inputs, targets)
            assert gc.collect() == 0
        finally:
            gc.enable()
