"""Self-test of the benchmark: a tiny run of every workload, both modes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` with ``--trace 0`` and
``--trace 1`` and checks that the last line has exactly the result keys,
that every metric BENCHMARK.json names is reported with its unit and a
finite value, and that every correctness check passed. The traced run's
span file must load through ``repro.obs.Profiler.from_events``. It also
checks that the numpy floor computes the engine's per-task gradients, and
that the benchmark refuses to run in a directory that holds only
BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from floor import HPSFloor  # noqa: E402
from repro.arch import HardParameterSharing, LinearHead, MLPEncoder  # noqa: E402
from repro.core import create_balancer  # noqa: E402
from repro.data import TaskSpec  # noqa: E402
from repro.nn.functional import bce_with_logits  # noqa: E402
from repro.obs import Profiler, load_events  # noqa: E402
from repro.training import MTLTrainer  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"checks failed: {detail['checks']}")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        problems.append(f"metric names {list(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} unit {got.get('unit')!r}")
        value = got.get("value")
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{metric['name']} value {value!r}")
        elif not trace and value <= 0.0:
            problems.append(f"{metric['name']} is {value}, end-to-end metrics are never 0")
    if trace:
        profiler = Profiler.from_events(load_events(str(ROOT / detail["trace_file"])))
        root = "step" if workload.startswith("train") else "forward"
        if root not in profiler.self_times():
            problems.append(f"trace has no {root!r} spans")
        if not profiler.chrome_trace()["traceEvents"]:
            problems.append("empty Chrome trace")
    return problems


def check_floor() -> list[str]:
    """The floor's (K, d) gradients equal the trainer's per-task gradients."""
    in_features, hidden, num_tasks, batch = 6, (5, 4), 3, 7
    rng = np.random.default_rng(0)
    model = HardParameterSharing(
        MLPEncoder(in_features, list(hidden), rng),
        {f"t{k}": LinearHead(hidden[-1], 1, rng) for k in range(num_tasks)},
    )
    tasks = [TaskSpec(f"t{k}", bce_with_logits) for k in range(num_tasks)]
    trainer = MTLTrainer(model, tasks, create_balancer("equal"))
    floor = HPSFloor(in_features, hidden, num_tasks, batch, seed=1)
    linears = [next(iter(stage)) for stage in model.encoder.stages]
    floor.weights = [layer.weight.data.T.copy() for layer in linears]
    floor.biases = [layer.bias.data.copy() for layer in linears]
    heads = [model.heads[f"t{k}"].linear for k in range(num_tasks)]
    floor.heads = np.stack([head.weight.data[0] for head in heads], axis=1)
    floor.head_bias = np.array([head.bias.data[0] for head in heads])
    floor.step()
    expected = trainer.task_gradients(floor.x, {f"t{k}": floor.y[:, k] for k in range(num_tasks)})
    # The engine stores each weight as (out, in), the floor as (in, out).
    got, offset = [], 0
    for weight, bias in zip(floor.weights, floor.biases):
        got.append(floor.grads[:, offset : offset + weight.size].reshape(-1, *weight.shape))
        got[-1] = got[-1].transpose(0, 2, 1).reshape(num_tasks, -1)
        offset += weight.size
        got.append(floor.grads[:, offset : offset + bias.size])
        offset += bias.size
    error = float(np.max(np.abs(np.concatenate(got, axis=1) - expected)))
    return [] if error <= 1e-12 else [f"floor gradients differ from the engine's by {error:.3g}"]


def check_refuses_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, Path(scratch) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("train-wide", 0, cwd=Path(scratch))
    if proc.returncode == 0 or proc.stdout.strip():
        return ["ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    for name, check_fn in (("numpy floor", check_floor), ("refuses without sources", check_refuses_without_sources)):
        problems = check_fn()
        failures += bool(problems)
        print(f"{name}: {'ok' if not problems else problems[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
