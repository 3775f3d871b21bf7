"""Importing the package loads no scipy; the first flow integration does."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys

import numpy as np

from equimorse import dact, equiperturb, exactalg, hamflow, lochom, regdist, spindex
from equimorse.lochom import CyclicAction, FunctionSpec


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


out = {"imported": scipy_modules()}
# the diagonal line and two points swapped by the reflection across it
y = regdist.ClosedSetSpec.points([[1.0, -1.0], [-1.0, 1.0]])
e = regdist.ClosedSetSpec.subspace(2, [[1.0, 1.0]])
swap = CyclicAction(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
res = regdist.regularized_distance(y, e, action=swap, queries=[[0.3, -0.1], [0.5, 0.2]],
                                   max_depth=6)
out["regdist_finite"] = bool(np.isfinite(res.values).all())
out["regdist"] = scipy_modules()
bowl = FunctionSpec.make(2, [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))])
_, cert = equiperturb.perturb_invariant_morse(bowl, CyclicAction(-np.eye(2), 2),
                                              epsilon=0.05, seed=0)
out["perturb_passed"] = bool(cert["passed"])
out["perturb"] = scipy_modules()
hamflow.integrate_flow(hamflow.HamiltonianGerm.rotation(0.25), 0.0, 1.0, [0.1, 0.0])
out["flow"] = scipy_modules()
print(json.dumps(out))
"""


def test_scipy_loads_only_when_a_flow_is_integrated():
    done = subprocess.run([sys.executable, "-c", _PROBE], cwd=SRC, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["imported"] == []
    assert out["regdist_finite"] and out["regdist"] == []
    assert out["perturb_passed"] and out["perturb"] == []
    assert "scipy.integrate" in out["flow"]
