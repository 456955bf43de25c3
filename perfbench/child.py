"""One measurement of one workload, in a fresh process started by run.py.

Roles:

- ``setup``: build everything and stop when the first timed step or
  request is due; print ``{"ready_at": <perf_counter>}``. run.py starts a
  few of these to take the median set-up time.
- ``full``: set up, measure for ``--seconds``, run the correctness checks
  and print the result as the last line of standard output.

``--trace 1`` alternates traced and untraced blocks of steps (or of
requests) and reports per-layer metrics instead of end-to-end ones. BLAS
thread pinning comes from the environment run.py passes down.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

import repro.training.trainer as trainer_module
from repro.core import create_balancer
from repro.data import COUNTRIES, make_aliexpress, make_synthetic_mtl, make_synthetic_stream
from repro.nn import inference_mode
from repro.serve import Server
from repro.training import MTLTrainer

from floor import floor_ms
from spans import Hooks, SpanLog, clock

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Per-layer metrics, in BENCHMARK.json order. A layer a workload never
#: calls reports 0.
LAYER_METRICS = (
    "nn.forward_ms",
    "nn.backward_ms",
    "nn.numpy_floor_ms",
    "nn.overhead_ratio",
    "core.balance_ms",
    "nn.optim_step_ms",
    "training.self_ms",
    "training.attribution_gap_pct",
    "data.wait_ms",
    "data.shard_ms",
    "data.prefetch_hit_frac",
    "serve.batch_rows",
    "serve.batch_rows_p99",
    "serve.forward_ms",
    "serve.queue_ms",
    "serve.batches_per_s",
    "serve.gen_late_ms",
    "process.gc_ms",
    "process.gc_gen2",
    "process.cpu_util",
    "obs.trace_overhead_pct",
)


class SetupDone(Exception):
    """Raised at the first timed step of a ``setup`` role run."""


class Stop(Exception):
    """Raised at a step entry to end ``MTLTrainer.fit`` early."""


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainShape:
    num_tasks: int
    hidden: tuple[int, ...]
    batch: int
    rows: int  # training rows; the dataset is fixed and looped over
    cosine: float  # pairwise cosine of the generator's task directions
    stream: bool = False
    chunk: int = 1024
    final_step: int = 128  # final_loss is the held-out loss after this step
    warmup: int = 5
    block: int = 16  # traced/untraced alternation, in steps


IN_FEATURES = 64
TRAIN = {
    "train-wide": TrainShape(4, (256, 256), 256, 16384, -0.3),
    "train-stream": TrainShape(
        8, (32, 32), 64, 8192, -0.12, stream=True, final_step=512, warmup=20, block=64
    ),
}
TINY_TRAIN = {
    name: replace(shape, hidden=(16, 16), batch=32, rows=1024, chunk=256, final_step=12, warmup=2, block=4)
    for name, shape in TRAIN.items()
}

#: Offered request rates (req/s). Absolute, never calibrated per host.
SERVE_RATES = {"serve-light": 1000.0, "serve-heavy": 6000.0}
SERVE_RECORDS = 8192  # AliExpress-like click log the served model trains on
SERVE_TRAIN_STEPS = 200
SERVE_BLOCK_S = 0.5  # traced/untraced alternation, in seconds of schedule
SERVE_CHECKED = 64  # served outputs compared with the sequential oracle
TOLERANCE = 1e-12
WINDOWS, MIN_WINDOW = 6, 200  # see windowed_percentile

WORKLOADS = (*TRAIN, *SERVE_RATES)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def windowed_percentile(samples, q: float) -> float:
    """Median over consecutive windows of each window's ``q``-th percentile.

    The samples, in time order, are cut into up to ``WINDOWS`` equal
    windows of at least ``MIN_WINDOW`` samples, enough for ten beyond the
    95th percentile in each. A burst of host noise that spoils one window
    then barely moves the result.
    """
    count = max(1, min(WINDOWS, len(samples) // MIN_WINDOW))
    return float(np.median([percentile(w, q) for w in np.array_split(np.asarray(samples), count)]))


def tails(samples_ms) -> dict:
    """Tail percentiles for the detail line, with their sample support."""
    samples_ms = np.asarray(samples_ms)
    return {
        "samples": len(samples_ms),
        "p95_ms": windowed_percentile(samples_ms, 95),
        "p99_ms": percentile(samples_ms, 99),
        "beyond_p99": int(np.count_nonzero(samples_ms > percentile(samples_ms, 99))),
    }


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


class GCWatch:
    """Time spent in garbage collection, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = clock()
        else:
            self.seconds += clock() - self._start
            self.gen2 += info["generation"] == 2

    def __enter__(self) -> "GCWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def heldout_loss(model, bench) -> float:
    """Sum of the task losses on the evaluation split (no gradients)."""
    inputs, targets = bench.val.inputs, bench.val.targets
    with inference_mode():
        outputs = model.forward_all(inputs)
        return float(
            sum(task.loss_fn(outputs[task.name], targets[task.name]).item() for task in bench.tasks)
        )


def make_trainer(bench, seed: int, tasks=None, model=None) -> MTLTrainer:
    """MoCoGrad over the benchmark's model, with the trainer's defaults."""
    return MTLTrainer(
        model if model is not None else bench.build_model(),
        tasks if tasks is not None else bench.tasks,
        create_balancer("mocograd", seed=seed),
        seed=seed,
    )


def step_hooks(trainer: MTLTrainer, on_entry, on_exit=None) -> Hooks:
    """Hooks around the trainer's public step method, as ``fit`` calls it."""
    step = trainer.train_step_single

    def entered_step(*args, **kwargs):
        on_entry()
        result = step(*args, **kwargs)
        if on_exit is not None:
            on_exit()
        return result

    hooks = Hooks()
    hooks.add(trainer, "train_step_single", entered_step)
    return hooks


def train_steps(trainer: MTLTrainer, data, batch: int, steps: int) -> None:
    """``trainer.fit`` over the fixed dataset for exactly ``steps`` steps."""
    taken = [0]

    def count():
        if taken[0] == steps:
            raise Stop
        taken[0] += 1

    try:
        with step_hooks(trainer, count):
            trainer.fit(data, epochs=10**6, batch_size=batch)
    except Stop:
        pass


def fingerprint() -> dict:
    """Host and build identity; compare absolute numbers only within one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    else:
        sha = "none"
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha1": digest.hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
def build_training(shape: TrainShape, seed: int):
    """The synthetic K-task classification benchmark for one workload."""
    common = dict(
        num_tasks=shape.num_tasks,
        in_features=IN_FEATURES,
        hidden=shape.hidden,
        pairwise_cosine=shape.cosine,
        task_type="classification",
        seed=seed,
    )
    if shape.stream:
        return make_synthetic_stream(
            num_samples=shape.rows,
            chunk_size=shape.chunk,
            val_records=4096,
            test_records=1,
            **common,
        )
    # The eager generator keeps 80% of the rows for training.
    return make_synthetic_mtl(num_samples=shape.rows * 5 // 4, **common)


class StepClock:
    """Times optimizer steps from outside the trainer.

    ``enter`` runs at the start of every step. After ``warmup`` steps the
    run is ready; step entry times are then recorded for ``seconds``, and
    :class:`Stop` is raised once timing is over and the trainer has taken
    ``final_step`` steps, when the parameters are snapshotted for
    ``final_loss``. In a traced run, blocks of ``block`` timed steps
    alternate between traced and untraced.
    """

    def __init__(self, shape: TrainShape, seconds: float, role: str, trainer, log) -> None:
        self.shape = shape
        self.seconds = seconds
        self.role = role
        self.trainer = trainer
        self.log = log
        self.steps = 0
        self.timed: list[int] = []
        self.entry_at: dict[int, float] = {}
        self.exit_at: dict[int, float] = {}
        self.traced: set[int] = set()
        self.ready_at: float | None = None
        self.stop_at: float | None = None
        self.cpu_at_ready = self.cpu_at_stop = 0.0
        self.final_state: dict | None = None

    def enter(self) -> None:
        now = clock()
        step = self.steps
        if step == self.shape.final_step:
            self.final_state = self.trainer.model.state_dict()
        if step == self.shape.warmup:
            self.ready_at = now
            if self.role == "setup":
                raise SetupDone
            self.cpu_at_ready = cpu_seconds()
        if self.ready_at is not None and self.stop_at is None:
            if now - self.ready_at < self.seconds:
                traced = len(self.timed) // self.shape.block % 2 == 0
                self.timed.append(step)
                if traced:
                    self.traced.add(step)
                if self.log is not None:
                    self.log.active = traced
            else:
                self.stop_at = now
                self.cpu_at_stop = cpu_seconds()
                if self.log is not None:
                    self.log.active = False
        if self.stop_at is not None and step >= self.shape.final_step:
            raise Stop
        self.entry_at[step] = now
        if self.log is not None:
            self.log.unit = step
        self.steps += 1

    def exit(self) -> None:
        self.exit_at[self.steps - 1] = clock()

    def intervals(self, steps=None) -> list[float]:
        """Seconds from each timed step's entry to the next step's entry."""
        marks = [self.entry_at[s] for s in self.timed] + [self.stop_at]
        return [
            b - a
            for s, a, b in zip(self.timed, marks[:-1], marks[1:])
            if steps is None or s in steps
        ]


def run_training(args, shape: TrainShape) -> dict:
    seed = args.seed
    trace = bool(args.trace) and args.role == "full"
    bench = build_training(shape, seed)
    log = SpanLog() if trace else None
    tasks = bench.tasks
    if trace:
        # The loss functions belong to the trainer's forward phase.
        tasks = [replace(task, loss_fn=log.wrap("forward", task.loss_fn)) for task in tasks]
    trainer = make_trainer(bench, seed, tasks=tasks)
    timer = StepClock(shape, args.seconds, args.role, trainer, log)
    hooks = step_hooks(trainer, timer.enter, timer.exit if trace else None)
    if trace:
        hooks.add(trainer.model, "forward_all", log.wrap("forward", trainer.model.forward_all))
        hooks.add(
            trainer_module, "backward_multi", log.wrap("backward", trainer_module.backward_multi)
        )
        hooks.add(trainer.balancer, "balance", log.wrap("balance", trainer.balancer.balance))
        hooks.add(trainer.optimizer, "step", log.wrap("optim_step", trainer.optimizer.step))
        if shape.stream:
            hooks.add(bench.train, "load_shard", log.wrap("load_shard", bench.train.load_shard))
    gc_watch = GCWatch()
    try:
        with hooks, gc_watch:
            trainer.fit(bench.train, epochs=10**6, batch_size=shape.batch)
    except (Stop, SetupDone):
        pass
    if args.role == "setup":
        return {"ready_at": timer.ready_at}
    rss = peak_rss_mb()

    # --- correctness ---------------------------------------------------
    losses = np.array(trainer.history.step_losses)
    failed = int(np.count_nonzero(~np.isfinite(losses).all(axis=1)))
    final_model = bench.build_model()
    final_model.load_state_dict(timer.final_state)
    final_loss = heldout_loss(final_model, bench)
    repeat = make_trainer(bench, seed)
    train_steps(repeat, bench.train, shape.batch, shape.final_step)
    checks = {
        "final_loss_finite": math.isfinite(final_loss),
        "final_loss_repeats_bitwise": heldout_loss(repeat.model, bench) == final_loss
        and np.array_equal(np.array(repeat.history.step_losses), losses[: shape.final_step]),
    }

    intervals_ms = np.array(timer.intervals()) * 1e3
    timed_wall = timer.stop_at - timer.ready_at
    result = {
        "checks": checks,
        "attempted": len(intervals_ms),
        "failed": failed,
        "ready_at": timer.ready_at,
        "detail": {"step_tail": tails(intervals_ms)},
    }
    if not trace:
        result["metrics"] = {
            "peak_rss_mb": rss,
            "samples_per_s": shape.batch * len(intervals_ms) / timed_wall,
            "p50_ms": windowed_percentile(intervals_ms, 50),
            "final_loss": final_loss,
        }
        return result

    # --- per-layer metrics ------------------------------------------------
    # A traced step's wall time runs from the previous step's exit to its
    # own; the part before its entry is the wait for its batch.
    traced = {s for s in timer.traced if s in timer.exit_at and s - 1 in timer.exit_at}
    for s in traced:
        log.record("step", timer.exit_at[s - 1], timer.exit_at[s], unit=s)
        log.record("data_wait", timer.exit_at[s - 1], timer.entry_at[s], unit=s)
    totals = log.totals(traced)

    def per_step_ms(name: str) -> float:
        return 1e3 * totals.get(name, 0.0) / len(traced)

    parts = {
        "nn.forward_ms": per_step_ms("forward"),
        "nn.backward_ms": per_step_ms("backward"),
        "core.balance_ms": per_step_ms("balance"),
        "nn.optim_step_ms": per_step_ms("optim_step"),
        "data.wait_ms": per_step_ms("data_wait"),
    }
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(parts)
    metrics["training.self_ms"] = per_step_ms("step") - sum(parts.values())
    # The parts sum to the step spans by construction; check them against
    # the untouched clock, the mean interval between the same steps' entries.
    entry_ms = 1e3 * float(np.mean(timer.intervals(traced)))
    metrics["training.attribution_gap_pct"] = 100.0 * abs(per_step_ms("step") / entry_ms - 1.0)
    if shape.stream:
        metrics["data.shard_ms"] = 1e3 * float(np.mean(log.durations("load_shard")))
        hits = trainer.telemetry.counter("stream_prefetch_hits_total").value
        stalls = trainer.telemetry.counter("stream_prefetch_stalls_total").value
        metrics["data.prefetch_hit_frac"] = hits / max(hits + stalls, 1.0)
    metrics["nn.numpy_floor_ms"] = floor_ms(
        IN_FEATURES, shape.hidden, shape.num_tasks, shape.batch, budget_s=0.5
    )
    metrics["nn.overhead_ratio"] = (
        metrics["nn.forward_ms"] + metrics["nn.backward_ms"]
    ) / metrics["nn.numpy_floor_ms"]
    metrics["process.gc_ms"] = 1e3 * gc_watch.seconds / timed_wall
    metrics["process.gc_gen2"] = float(gc_watch.gen2)
    metrics["process.cpu_util"] = (timer.cpu_at_stop - timer.cpu_at_ready) / timed_wall
    untraced = set(timer.timed) - timer.traced
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        np.median(timer.intervals(timer.traced)) / np.median(timer.intervals(untraced)) - 1.0
    )
    result["metrics"] = metrics
    result["spans"] = (log, "step", "step")
    return result


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def run_serving(args, rate: float) -> dict:
    """Open-loop Poisson load on a MoCoGrad-trained AliExpress HPS model.

    The served model trains for a fixed number of steps on one fixed
    click log; the seed draws its initialisation, its batch order and the
    request stream. A seeded log would make the held-out loss vary with
    the log rather than with the program.
    """
    seed = args.seed
    trace = bool(args.trace) and args.role == "full"
    records, steps = (1024, 8) if args.tiny else (SERVE_RECORDS, SERVE_TRAIN_STEPS)
    bench = make_aliexpress("ES", num_records=records, seed=0)

    def trained_model():
        trainer = make_trainer(bench, seed, model=bench.build_model("hps", np.random.default_rng(seed)))
        train_steps(trainer, bench.train, 256, steps)
        return trainer.model

    model = trained_model()
    pool = np.ascontiguousarray(bench.test.inputs)
    server = Server({country: model for country in COUNTRIES})
    try:
        for i in range(64):
            server.predict(pool[i % len(pool)], COUNTRIES[i % len(COUNTRIES)])
        rng = np.random.default_rng([seed, 1])
        schedule = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * args.seconds * 1.5) + 64))
        schedule = schedule[: int(np.searchsorted(schedule, args.seconds))]
        picks = rng.integers(0, len(pool), size=len(schedule))
        keep = np.zeros(len(schedule), dtype=bool)
        keep[rng.choice(len(schedule), size=min(SERVE_CHECKED, len(schedule)), replace=False)] = True
        ready_at = clock()
        if args.role == "setup":
            return {"ready_at": ready_at}
        result = open_loop(server, model, pool[picks], schedule, keep, ready_at, trace)
        served_error = 0.0
        for i, outputs in result.pop("kept").items():
            expected = server.predict_sequential(pool[picks[i]], COUNTRIES[i % len(COUNTRIES)])
            for task, value in expected.items():
                served_error = max(served_error, float(np.max(np.abs(outputs[task] - value))))
    finally:
        server.close()
    final_loss = heldout_loss(model, bench)
    result["checks"] = {
        "served_matches_sequential": served_error <= TOLERANCE,
        "final_loss_finite": math.isfinite(final_loss),
        "final_loss_repeats_bitwise": heldout_loss(trained_model(), bench) == final_loss,
    }
    result["ready_at"] = ready_at
    if not trace:
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()
        result["metrics"]["final_loss"] = final_loss
    return result


def open_loop(server, model, rows, schedule, keep, start, trace) -> dict:
    """Send ``rows[i]`` at ``start + schedule[i]`` from this thread.

    Requests go round-robin over the four country scenario keys, which
    share one model and so one micro-batcher. Latency runs from each
    request's scheduled send time to its result and is written by a
    done-callback into a preallocated array; nothing per request outlives
    the request except the outputs of the ``keep`` sample.
    """
    n = len(schedule)
    latency = np.full(n, np.nan)
    queued = np.full(n, np.nan)
    late = np.empty(n)
    finished = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    kept: dict[int, dict] = {}
    log = SpanLog() if trace else None
    batch_rows: list[int] = []
    forward_start = [0.0]
    generator = threading.get_ident()

    def done(i: int, future) -> None:
        now = clock()
        due = start + schedule[i]
        if future.exception() is not None:
            failed[i] = True
        else:
            latency[i] = now - due
            if keep[i]:
                kept[i] = future.result()
            # Callbacks run on the batcher thread right after its batch's
            # forward, unless the future was already done when registered.
            if log is not None and log.active and threading.get_ident() != generator:
                queued[i] = forward_start[0] - due
        finished[i] = True

    hooks = Hooks()
    if trace:
        forward = model.forward_all

        def traced_forward(inputs):
            if not log.active:
                return forward(inputs)
            begin = forward_start[0] = clock()
            outputs = forward(inputs)
            log.record("forward", begin, clock(), unit=len(batch_rows))
            batch_rows.append(len(inputs))
            return outputs

        hooks.add(model, "forward_all", traced_forward)
    traced_block = np.floor(schedule / SERVE_BLOCK_S).astype(np.int64) % 2 == 0
    gc_watch = GCWatch()
    with hooks, gc_watch:
        cpu_start = cpu_seconds()
        for i in range(n):
            due = start + schedule[i]
            now = clock()
            if due > now:
                time.sleep(due - now)
                now = clock()
            late[i] = now - due
            if log is not None:
                log.active = bool(traced_block[i])
            future = server.submit(rows[i], COUNTRIES[i % len(COUNTRIES)])
            future.add_done_callback(partial(done, i))
        deadline = clock() + 30.0
        while not finished.all() and clock() < deadline:
            time.sleep(0.002)
        end = start + float(np.nanmax(schedule + latency)) if finished.any() else clock()
        cpu_used = cpu_seconds() - cpu_start
    wall = end - start
    ok = finished & ~failed
    latency_ms = latency[ok] * 1e3
    result = {
        "attempted": n,
        "failed": int(n - np.count_nonzero(ok)),
        "kept": kept,
        "detail": {"latency_tail": tails(latency_ms), "gen_late_p99_ms": percentile(late, 99) * 1e3},
    }
    if not trace:
        result["metrics"] = {
            "samples_per_s": np.count_nonzero(ok) / wall,
            "p50_ms": windowed_percentile(latency_ms, 50),
        }
        return result
    forward_s = log.durations("forward")
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(
        {
            "nn.forward_ms": 1e3 * float(np.mean(forward_s)),
            "serve.batch_rows": float(np.mean(batch_rows)),
            "serve.batch_rows_p99": percentile(batch_rows, 99),
            "serve.forward_ms": 1e3 * sum(forward_s) / sum(batch_rows),
            "serve.queue_ms": 1e3 * float(np.nanmean(queued)),
            "serve.batches_per_s": len(batch_rows) / (wall * float(np.mean(traced_block))),
            "serve.gen_late_ms": percentile(late, 99) * 1e3,
            "process.gc_ms": 1e3 * gc_watch.seconds / wall,
            "process.gc_gen2": float(gc_watch.gen2),
            "process.cpu_util": cpu_used / wall,
            "obs.trace_overhead_pct": 100.0
            * (np.median(latency[ok & traced_block]) / np.median(latency[ok & ~traced_block]) - 1.0),
        }
    )
    result["metrics"] = metrics
    result["spans"] = (log, None, "batch")
    return result


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "full"), default="full")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.workload in TRAIN:
        result = run_training(args, (TINY_TRAIN if args.tiny else TRAIN)[args.workload])
    else:
        result = run_serving(args, SERVE_RATES[args.workload])
    if args.role == "full":
        spans = result.pop("spans", None)
        if spans is not None:
            log, parent, unit_label = spans
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.jsonl"
            log.write(path, parent, unit_label)
            result["trace_file"] = str(path.relative_to(ROOT))
        result["fingerprint"] = fingerprint()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
