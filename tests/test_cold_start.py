"""Cold-start regressions: what a fresh process loads, and that it still works.

Each test runs in a fresh interpreter, because this test process has long
since imported everything. The checks are on the set of loaded modules, not
on a time: scipy and networkx are imported only inside the functions that
call them, the package root resolves its attributes on first access, and the
balancer registry fills itself on first lookup.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Modules a training or serving process must not load.
HEAVY = ("scipy", "networkx", "repro.analysis", "repro.experiments")

BUILTIN_BALANCERS = [
    "cagrad",
    "dwa",
    "equal",
    "graddrop",
    "gradnorm",
    "gradvac",
    "imtl",
    "mgda",
    "mocograd",
    "nashmtl",
    "pcgrad",
    "rlw",
    "uncertainty",
]


def balanced(name: str) -> np.ndarray:
    """One balance of a seeded (4, 64) gradient matrix by the named balancer."""
    from repro.core import create_balancer

    rng = np.random.default_rng(7)
    grads = rng.standard_normal((4, 64))
    losses = rng.uniform(0.5, 1.5, size=4)
    return create_balancer(name, seed=0).balance(grads, losses)


def qm9_digest() -> str:
    """SHA-256 over every array of a small QM9 build."""
    from repro.data import PROPERTIES, make_qm9

    bench = make_qm9(
        properties=PROPERTIES[:2],
        molecules_per_task=8,
        val_molecules=4,
        test_molecules=4,
        seed=3,
    )
    digest = hashlib.sha256()
    for split in (bench.train, bench.val, bench.test):
        for name in sorted(split):
            dataset = split[name]
            for array in (*dataset.inputs, dataset.targets):
                digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, str(REPO_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=False,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_registry_fills_on_first_lookup():
    """``create_balancer`` must see every built-in without ``import repro.balancers``."""
    out = run_fresh(
        "import json\n"
        "from repro.core import available_balancers, create_balancer\n"
        "built = create_balancer('cagrad')\n"
        "print(json.dumps({'built': type(built).__name__, "
        "'names': available_balancers()}))\n"
    )
    assert out["built"] == "CAGrad"
    assert out["names"] == BUILTIN_BALANCERS


def test_core_packages_load_no_heavy_modules_and_results_match():
    import networkx  # noqa: F401 - the reference side runs with both loaded
    import scipy.optimize  # noqa: F401

    out = run_fresh(
        "import json, sys\n"
        "import repro, repro.nn, repro.core, repro.data, repro.training, repro.serve\n"
        "import repro.__main__\n"
        f"heavy = [m for m in {HEAVY!r} if m in sys.modules]\n"
        "from tests.test_cold_start import balanced, qm9_digest\n"
        "out = {'heavy': heavy, 'qm9': qm9_digest()}\n"
        "for name in ('cagrad', 'nashmtl'):\n"
        "    out[name] = balanced(name).tobytes().hex()\n"
        "star = {}\n"
        "exec('from repro import *', star)\n"
        "out['missing'] = [n for n in repro.__all__ if n not in star]\n"
        "out['undir'] = [n for n in repro.__all__ if n not in dir(repro)]\n"
        "print(json.dumps(out))\n"
    )
    assert out["heavy"] == []
    for name in ("cagrad", "nashmtl"):
        assert bytes.fromhex(out[name]) == balanced(name).tobytes(), name
    assert out["qm9"] == qm9_digest()
    assert out["missing"] == []
    assert out["undir"] == []


def test_root_attributes_resolve_to_subpackage_objects():
    from repro.core import MoCoGrad
    from repro.training import MTLTrainer

    assert repro.MoCoGrad is MoCoGrad
    assert repro.MTLTrainer is MTLTrainer
    assert repro.analysis is sys.modules["repro.analysis"]
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError, match="no_such_attribute"):
        repro.no_such_attribute  # noqa: B018
