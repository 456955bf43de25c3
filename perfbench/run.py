"""End-to-end benchmark of the repro training and serving stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 15 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. A line
before it carries the host fingerprint, the correctness checks and the
sample counts.

Every measurement runs in a fresh child process (perfbench/child.py).
With ``--trace 0``, a few extra children only set up, and ``setup_s`` is
the median over all of them of the time from process start to the first
timed step or request.
"""

import os

# Pin BLAS to one thread before anything imports numpy, here and in every
# process started from here, which inherits the environment. Unpinned,
# each process starts its own BLAS threads and they oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes that only set up, on top of the measuring one.
SETUP_ONLY_RUNS = 3
#: Whole-run budget; the child is killed past it.
RUN_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def run_child(args, role: str, deadline: float) -> tuple[float, dict]:
    """Start child.py; returns (its start time, its parsed last line)."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    started = time.perf_counter()
    # A process group of its own, so a timeout kills all the child started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{role} child exceeded the run budget") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} child failed ({proc.returncode}):\n{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{role} child printed no result:\n{err[-4000:]}")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (perfbench/selftest.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                started, child = run_child(args, "setup", deadline)
                setups.append(child["ready_at"] - started)
        started, result = run_child(args, "full", deadline)
    except BenchmarkError as error:
        print(error, file=sys.stderr)
        return 1
    measured = dict(result["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        setups.append(result["ready_at"] - started)
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"workload reported no {missing}", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "checks": result["checks"],
        "fingerprint": result["fingerprint"],
        **result["detail"],
    }
    if setups:
        detail["setup_samples_s"] = setups
    if "trace_file" in result:
        detail["trace_file"] = result["trace_file"]
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": all(result["checks"].values()),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
