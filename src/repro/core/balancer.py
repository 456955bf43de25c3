"""Gradient balancer abstraction and registry.

A *balancer* is the pluggable optimization-side component of multi-task
learning: given the per-task gradients of the shared parameters at one
optimization step (a ``(K, d)`` matrix) and the per-task loss values, it
produces the single update direction the optimizer applies.  MoCoGrad and
every baseline in the paper (DWA, MGDA, PCGrad, GradDrop, GradVac, CAGrad,
IMTL, RLW, Nash-MTL) fit this interface; loss-weighting methods are expressed
as weighted gradient sums, which is mathematically identical to weighting the
losses before one backward pass.

Balancers may be stateful (momentum, loss history, EMA similarities); call
:meth:`GradientBalancer.reset` when starting a new training run.

Pairwise kernels: :meth:`GradientBalancer._check_inputs` builds one
:class:`~repro.core.gradstats.GradStats` per step — a lazy cache of the
K×K Gram matrix, per-task norms, pairwise cosines, and the conflict
mask — exposed as :attr:`GradientBalancer.gradstats`.  The base class's
conflict telemetry and every conflict-aware balancer read this shared
cache instead of recomputing inner products.  ``pairwise_mode`` selects
between the ``"vectorized"`` kernels (default) and the original
``"loop"`` reference implementations in MoCoGrad / PCGrad / GradVac;
the two produce matching trajectories and identical telemetry counters
(see ``tests/balancers/test_pairwise_modes.py``).
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from ..obs import NULL_TELEMETRY, Telemetry
from .conflict import _balancer_hot_path
from .gradstats import GradStats

__all__ = ["GradientBalancer", "register_balancer", "create_balancer", "available_balancers"]

PAIRWISE_MODES = ("vectorized", "loop")


def _wrap_hot_path(balance: Callable) -> Callable:
    """Mark the dynamic extent of ``balance()`` for the deprecation guard.

    Per-pair use of :func:`repro.core.conflict.cosine_similarity` /
    :func:`gradient_conflict_degree` inside this extent triggers a
    one-shot :class:`DeprecationWarning` pointing at ``self.gradstats``.
    """

    @functools.wraps(balance)
    def wrapped(self, grads, losses):
        with _balancer_hot_path():
            return balance(self, grads, losses)

    wrapped.__wrapped_hot_path__ = True
    return wrapped


class GradientBalancer:
    """Base class for gradient manipulation / weighting strategies."""

    #: registry name; subclasses set this
    name: str = "base"

    #: Small-K kernel dispatch: under ``pairwise_mode="vectorized"`` the
    #: loop kernel still runs when K < this threshold, where the
    #: vectorized kernels' fixed overhead (mask construction, coefficient
    #: matrices, the final GEMM) exceeds the cost of a handful of pairs.
    #: Both kernels produce matching trajectories, so this is purely a
    #: performance choice; tests set it to 0 to force the vectorized
    #: kernel at every K.
    vectorize_min_tasks: int = 4

    def __init__(self, seed: int | None = None, pairwise_mode: str = "vectorized") -> None:
        if pairwise_mode not in PAIRWISE_MODES:
            raise ValueError(
                f"pairwise_mode must be one of {PAIRWISE_MODES}; got {pairwise_mode!r}"
            )
        self._seed = seed
        self.rng = np.random.default_rng(seed)
        self.num_tasks: int | None = None
        #: ``"vectorized"`` (GradStats-backed kernels) or ``"loop"`` (the
        #: original per-pair reference loops, kept as the equivalence
        #: oracle).  Balancers without a pairwise loop ignore this.
        self.pairwise_mode = pairwise_mode
        #: telemetry hook; :class:`~repro.training.trainer.MTLTrainer`
        #: replaces the inert default with its own instance, so every
        #: balancer gets per-step conflict counters for free.
        self.telemetry: Telemetry = NULL_TELEMETRY
        self._stats: GradStats | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        balance = cls.__dict__.get("balance")
        if balance is not None and not getattr(balance, "__wrapped_hot_path__", False):
            cls.balance = _wrap_hot_path(balance)

    # ------------------------------------------------------------------
    @property
    def gradstats(self) -> GradStats | None:
        """Per-step pairwise-geometry cache over the current gradients.

        Built by :meth:`_check_inputs` at the top of every
        :meth:`balance` call; ``None`` before the first call.  All
        products (Gram, norms, cosines, conflict mask) are lazy — reading
        none of them costs nothing.
        """
        return self._stats

    def _use_vectorized(self, num_tasks: int) -> bool:
        """Whether the vectorized pairwise kernel should run for this K."""
        return self.pairwise_mode == "vectorized" and num_tasks >= self.vectorize_min_tasks

    # ------------------------------------------------------------------
    def reset(self, num_tasks: int) -> None:
        """Prepare internal state for a fresh training run of ``num_tasks``."""
        self.num_tasks = num_tasks
        self.rng = np.random.default_rng(self._seed)

    def balance(self, grads: np.ndarray, losses: np.ndarray) -> np.ndarray:
        """Combine per-task gradients into one update direction.

        Parameters
        ----------
        grads:
            ``(K, d)`` matrix of per-task gradients over shared parameters.
        losses:
            ``(K,)`` vector of current task loss values (some balancers,
            e.g. DWA, use these; others ignore them).

        Returns
        -------
        The combined gradient vector of shape ``(d,)``.
        """
        raise NotImplementedError

    def resolve_accumulated(
        self, grads_sum: np.ndarray, losses_sum: np.ndarray, window: int
    ) -> np.ndarray:
        """Resolve conflicts once on a ``window``-step gradient accumulation.

        The GCond-style accumulate-then-resolve entry point: the trainer
        sums per-task gradient matrices (and loss vectors) over ``window``
        micro-steps, then calls this once.  The default normalizes both to
        their window means and delegates to :meth:`balance`, so any
        stateful balancer (MoCoGrad momentum, DWA loss history, GradVac
        EMA) advances exactly once per resolve rather than once per
        micro-step.  ``window == 1`` is the per-step path itself — the
        inputs are forwarded untouched, keeping the trajectory bit-identical
        to calling :meth:`balance` directly.
        """
        if window < 1:
            raise ValueError(f"accumulation window must be ≥ 1; got {window}")
        if window == 1:
            return self.balance(grads_sum, losses_sum)
        scale = 1.0 / float(window)
        return self.balance(
            np.asarray(grads_sum, dtype=np.float64) * scale,
            np.asarray(losses_sum, dtype=np.float64) * scale,
        )

    # ------------------------------------------------------------------
    def _check_inputs(self, grads: np.ndarray, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grads = np.asarray(grads, dtype=np.float64)
        losses = np.asarray(losses, dtype=np.float64)
        if grads.ndim != 2:
            raise ValueError(f"grads must be (K, d); got shape {grads.shape}")
        if losses.shape != (grads.shape[0],):
            raise ValueError(
                f"losses shape {losses.shape} does not match {grads.shape[0]} tasks"
            )
        if self.num_tasks is None:
            self.reset(grads.shape[0])
        elif self.num_tasks != grads.shape[0]:
            raise ValueError(
                f"balancer was reset for {self.num_tasks} tasks but received {grads.shape[0]}"
            )
        self._stats = GradStats(grads)
        self._record_conflict_telemetry(self._stats)
        return grads, losses

    def dynamics(self) -> dict:
        """Balancer-internal state for the flight recorder (per step).

        Called by :class:`~repro.training.trainer.MTLTrainer` right after
        :meth:`balance` when dynamics recording is on.  The base class has
        no internal dynamics; stateful balancers override this to expose
        theirs (MoCoGrad reports λ and per-task momentum norms).  Values
        must be JSON-ready floats or lists of floats.
        """
        return {}

    def _record_conflict_telemetry(self, stats: GradStats | np.ndarray) -> None:
        """Count conflicting gradient pairs (GCD > 1 ⇔ negative cosine).

        Runs on every :meth:`balance` call of every balancer — the base
        class owns it so each baseline reports the same conflict counters
        the paper's Section III diagnostics are built on.  Skipped when
        telemetry is disabled: the shared :class:`GradStats` is lazy, so
        a disabled-telemetry step with a geometry-free balancer never
        runs the Gram GEMM at all.
        """
        if isinstance(stats, np.ndarray):  # pre-GradStats callers
            stats = GradStats(stats)
        telemetry = self.telemetry
        if not telemetry.enabled or stats.num_tasks < 2:
            return
        pairs, conflicts = stats.conflict_counts()
        telemetry.counter("balancer_pairs_total", method=self.name).inc(pairs)
        telemetry.counter("balancer_conflicts_total", method=self.name).inc(conflicts)
        telemetry.gauge("balancer_conflict_fraction", method=self.name).set(
            conflicts / pairs
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, Callable[..., GradientBalancer]] = {}


def register_balancer(name: str):
    """Class decorator adding a balancer to the global registry."""

    def decorator(cls):
        if name in _REGISTRY:
            raise ValueError(f"balancer {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def _registry() -> dict[str, Callable[..., GradientBalancer]]:
    """The registry with every built-in balancer in it.

    The baselines register themselves when :mod:`repro.balancers` is
    imported, which nothing else guarantees has happened yet.
    """
    from .. import balancers  # noqa: F401

    return _REGISTRY


def create_balancer(name: str, **kwargs) -> GradientBalancer:
    """Instantiate a registered balancer by name (e.g. ``"mocograd"``)."""
    registry = _registry()
    try:
        factory = registry[name]
    except KeyError:
        raise KeyError(f"unknown balancer {name!r}; available: {sorted(registry)}") from None
    return factory(**kwargs)


def available_balancers() -> list[str]:
    """Names of all registered balancers, sorted."""
    return sorted(_registry())
