"""repro — reproduction of MoCoGrad (Chai et al., ICDE 2024).

"Towards Task-Conflicts Momentum-Calibrated Approach for Multi-task
Learning": a momentum-calibrated gradient-manipulation method (MoCoGrad)
for mitigating task conflicts in multi-task learning, plus the TCI/GCD
conflict diagnostics, convergence theory, ten baselines, five MTL
architectures and six benchmark reproductions.

Quick start::

    import numpy as np
    from repro import MoCoGrad, MTLTrainer
    from repro.data import make_aliexpress

    bench = make_aliexpress("ES")
    model = bench.build_model("hps", np.random.default_rng(0))
    trainer = MTLTrainer(model, bench.tasks, MoCoGrad(seed=0),
                         mode=bench.mode, lr=1e-3, seed=0)
    trainer.fit(bench.train, epochs=10, batch_size=128)
    print(trainer.evaluate(bench.test))
"""

import importlib

#: Subpackages, imported the first time they are accessed as attributes.
_SUBPACKAGES = frozenset(
    {
        "analysis",
        "arch",
        "balancers",
        "core",
        "data",
        "experiments",
        "metrics",
        "nn",
        "obs",
        "parallel",
        "serve",
        "training",
    }
)

#: Re-exported name → subpackage it comes from.
_EXPORTS = {
    "GradientBalancer": "core",
    "GradStats": "core",
    "MoCoGrad": "core",
    "available_balancers": "core",
    "create_balancer": "core",
    "gradient_conflict_degree": "core",
    "pairwise_gcd": "core",
    "task_conflict_intensity": "core",
    "MTLTrainer": "training",
    "train_stl": "training",
    "train_stl_all": "training",
}

__version__ = "1.0.0"

__all__ = [
    "nn",
    "core",
    "balancers",
    "arch",
    "data",
    "metrics",
    "training",
    "analysis",
    "experiments",
    "obs",
    "serve",
    "MoCoGrad",
    "GradStats",
    "GradientBalancer",
    "create_balancer",
    "available_balancers",
    "gradient_conflict_degree",
    "pairwise_gcd",
    "task_conflict_intensity",
    "MTLTrainer",
    "train_stl",
    "train_stl_all",
    "__version__",
]


def __getattr__(name: str):
    """Import a subpackage or re-exported name on first access (PEP 562).

    ``import repro`` loads nothing beyond this file; a process pays only
    for the subpackages it touches.
    """
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
