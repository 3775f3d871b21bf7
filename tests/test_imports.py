"""Importing the package loads no scipy, and neither does integrating a flow;
no module of the package takes a derivative by finite differences; and every
function that the benchmark tracer patches is defined where it patches it."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_PROBE = """
import json, math, sys

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
antipodal = CyclicAction(-np.eye(2), 2)
bowl = FunctionSpec.make(2, [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))])
_, cert = equiperturb.perturb_invariant_morse(bowl, antipodal, epsilon=0.05, seed=0)
out["perturb_passed"] = bool(cert["passed"])
out["perturb"] = scipy_modules()
hamflow.integrate_flow(hamflow.HamiltonianGerm.rotation(0.25), 0.0, 1.0, [0.1, 0.0])
out["flow"] = scipy_modules()
# the detuned 4:1 germ: its DiscreteAction solves the variational equation at 0
beta, b = 0.26, 0.1
resonant = hamflow.HamiltonianGerm.make(1, [
    (math.pi * beta, (2, 0)), (math.pi * beta, (0, 2)),
    (-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4)),
    (b, (4, 0), "cos", 1), (-6 * b, (2, 2), "cos", 1), (b, (0, 4), "cos", 1)])
dact.DiscreteAction(resonant, 4, 2)
out["variational"] = scipy_modules()
quartic = hamflow.HamiltonianGerm.make(1, [(-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4))])
hom = lochom.local_homology(lochom.discrete_action_function(dact.DiscreteAction(quartic, 1, 1)),
                            radius=0.25, h=0.0625)
out["localhom_plain"] = {str(k): v for k, v in hom.plain.items()}
out["localhom"] = scipy_modules()
# the squeezed ring is even, so the antipodal map acts on it; its two saddles
# shoot four separatrices through the antigradient flow
ring, _ = equiperturb.squeezed_ring_model(0.5, 0.1)
report = equiperturb.verify_morse_smale_2d(ring, antipodal, radius=1.2)
out["separatrices"] = len(report["separatrices"])
out["morse_smale"] = scipy_modules()
print(json.dumps(out))
"""


def test_no_flow_loads_scipy():
    done = subprocess.run([sys.executable, "-c", _PROBE], cwd=SRC, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["imported"] == []
    assert out["regdist_finite"] and out["regdist"] == []
    assert out["perturb_passed"] and out["perturb"] == []
    assert out["flow"] == []
    assert out["variational"] == []
    assert out["localhom_plain"] == {"2": 1} and out["localhom"] == []
    assert out["separatrices"] == 4 and out["morse_smale"] == []


# the words and names of a difference stencil: the package's derivatives are
# all exact, and the tests keep the differences that check them
_STENCIL_WORDS = re.compile(r"finite[- ]differenc|central[- ]differenc|stencil|\bfd_", re.I)


def stencil_findings(package):
    """Lines of the modules in package that name a difference stencil, and
    difference quotients (f(a) - f(b)) / c of two calls of one function."""
    found = []
    for path in sorted(Path(package).glob("*.py")):
        text = path.read_text()
        for i, line in enumerate(text.splitlines(), 1):
            if _STENCIL_WORDS.search(line):
                found.append(f"{path.name}:{i}: {line.strip()}")
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                continue
            diff = node.left
            if (isinstance(diff, ast.BinOp) and isinstance(diff.op, ast.Sub)
                    and isinstance(diff.left, ast.Call) and isinstance(diff.right, ast.Call)
                    and ast.dump(diff.left.func) == ast.dump(diff.right.func)):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_module_takes_finite_differences():
    assert stencil_findings(SRC / "equimorse") == []


def test_the_stencil_guard_sees_a_difference_quotient(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def slope(f, x, h):\n    return (f(x + h) - f(x - h)) / (2.0 * h)\n\n\n"
        "def fd_jets(values, X, h):\n    pass\n")
    assert sorted(f.split(":")[1] for f in stencil_findings(tmp_path)) == ["2", "5"]


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_name_is_defined_where_the_tracer_patches_it():
    # perfbench/tracer.py patches owner.__dict__[attr]: a method it names
    # must be defined in the body of its class, not inherited from a base
    for name, (module, path) in _tracer_targets().items():
        owner = importlib.import_module(f"equimorse.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{name}: {path} is not defined on {owner}"
