"""Importing the package loads no scipy, and neither does integrating a flow;
no module of the package takes a derivative by finite differences or reads
the process environment, only config spells the quintic cutoff ramp, no
constructor or public function truncates an integer argument with int(), and
every int field that a dataclass's __post_init__ reads goes through
config._integer; every function that the benchmark tracer patches is defined
where it patches it;
every name that the benchmark imports from the package exists; every relative
import inside the package names a definition of the module it imports from;
equiperturb imports nothing from regdist; and every console script that
pyproject.toml declares imports."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# the package's settings are its arguments and config.TOLERANCES: no module
# reads one from the process environment
_ENVIRONMENT_READS = {"environ", "getenv"}


def environment_findings(package):
    """Lines of the modules in package that read os.environ or os.getenv,
    as attributes of os or imported from it."""
    found = []
    for path in sorted(Path(package).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in _ENVIRONMENT_READS]
    return found


def test_no_module_reads_the_environment():
    assert environment_findings(SRC / "equimorse") == []


def test_the_environment_guard_sees_a_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\nfrom os import getenv\n\n\n"
        "def scale(name):\n    return float(os.environ.get(name, os.getenv(name, 1.0)))\n")
    assert sorted(f.split(":")[1] for f in environment_findings(tmp_path)) == ["2", "6", "6"]


# the C^2 cutoff ramp q(s) = s^3 (10 - 15 s + 6 s^2) has one definition,
# config.smooth_step, which the bumps and wells of regdist and equiperturb read
_QUINTIC = re.compile(r"10\.0\s*-\s*15\.0")


def quintic_findings(package):
    """Lines of the modules in package, other than config.py, that spell the
    quintic ramp."""
    found = []
    for path in sorted(Path(package).glob("*.py")):
        if path.name == "config.py":
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if _QUINTIC.search(line):
                found.append(f"{path.name}:{i}: {line.strip()}")
    return found


def test_only_config_spells_the_quintic_ramp():
    assert quintic_findings(SRC / "equimorse") == []


def test_the_quintic_guard_sees_a_copy(tmp_path):
    ramp = "def ramp(u):\n    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)\n"
    (tmp_path / "mod.py").write_text("\n\n" + ramp)
    (tmp_path / "config.py").write_text(ramp)
    assert [f.split(":")[:2] for f in quintic_findings(tmp_path)] == [["mod.py", "4"]]


# the package reads its integer arguments through config._integer, which
# refuses a bool or a float with a fraction where int() would truncate it
def _self_attribute(node):
    return (node.attr if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" else None)


def dataclass_int_findings(tree):
    """The int fields of the dataclasses of a module tree that their
    __post_init__ reads but never passes, as self.<field>, to _integer."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef)
                and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)):
            continue
        ints = {s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)
                and isinstance(s.target, ast.Name) and ast.unparse(s.annotation) == "int"}
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                continue
            read = {}
            for node in ast.walk(fn):
                if _self_attribute(node) in ints:
                    read[node.attr] = min(read.get(node.attr, node.lineno), node.lineno)
            checked = {_self_attribute(call.args[0]) for call in ast.walk(fn)
                       if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                       and call.func.id == "_integer" and call.args}
            found += [(line, f"{cls.name}.{name}") for name, line in read.items()
                      if name not in checked]
    return found


def bare_int_findings(package):
    """Calls int(p) in the modules of package where p is a parameter of the
    enclosing __init__ or public function, and the int fields of dataclasses
    that __post_init__ reads around _integer."""
    found = []
    for path in sorted(Path(package).glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}: {field}" for line, field in dataclass_int_findings(tree)]
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    fn.name != "__init__" and fn.name.startswith("_")):
                continue
            a = fn.args
            params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if p is not None}
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "int"
                        and any(isinstance(x, ast.Name) and x.id in params for x in node.args)):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_constructor_or_public_function_truncates_an_integer_argument():
    assert bare_int_findings(SRC / "equimorse") == []


def test_the_integer_guard_sees_a_truncation(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Action:\n    def __init__(self, matrix, k):\n        self.k = int(k)\n\n"
        "    def _power(self, j):\n        return int(j)\n\n\n"
        "def periods(t, *, count=1):\n    return [int(t)] * int(count) + [int(len(t))]\n")
    assert sorted(f.split(":", 1)[1] for f in bare_int_findings(tmp_path)) == [
        "10: int(count)", "10: int(t)", "3: int(k)"]


def test_the_integer_guard_sees_a_truncating_field(tmp_path):
    # k truncates, N passes through the reader, and a dataclass with no
    # __post_init__ or a field that is not an int is not read at all
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Action:\n"
        "    k: int\n    N: int\n    name: str\n\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'k', int(self.k))\n"
        "        object.__setattr__(self, 'N', _integer(self.N, 'N'))\n"
        "        if self.k < 1 or self.N < 1 or not self.name:\n            raise ValueError\n\n\n"
        "@dataclass\nclass Record:\n    count: int\n")
    assert [f.split(":", 1)[1] for f in bare_int_findings(tmp_path)] == ["11: Action.k"]


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


def package_imports(directory):
    """(file:line, module, name) of each `from equimorse... import name` in
    the modules of directory, at any depth of their syntax trees."""
    found = []
    for path in sorted(Path(directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "equimorse"):
                found += [(f"{path.name}:{node.lineno}", node.module, alias.name)
                          for alias in node.names]
    return found


def unresolved(imports):
    """The imports whose name is neither an attribute nor a submodule of its module."""
    missing = []
    for where, module, name in imports:
        if hasattr(importlib.import_module(module), name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{where}: {module}.{name}")
    return missing


def test_every_benchmark_import_resolves():
    # the benchmark imports the package inside its workload and oracle
    # functions, so a deleted or renamed name fails only when that code runs
    imports = package_imports(ROOT / "perfbench")
    assert {"equimorse.dact", "equimorse.spindex"} <= {module for _, module, _ in imports}
    assert unresolved(imports) == []


def test_the_import_guard_sees_a_missing_name(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def run():\n    from equimorse.spindex import cz_index, classify_iteration\n")
    assert unresolved(package_imports(tmp_path)) == ["mod.py:2: equimorse.spindex.classify_iteration"]


def defined_names(tree):
    """Names that a module binds itself at its top level, through def, class
    or assignment, also inside top-level if, try and with blocks; names it
    only imports are not among them."""
    names = set()
    body = list(tree.body)
    while body:
        node = body.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            body += node.body + getattr(node, "orelse", []) + getattr(node, "finalbody", [])
            body += [stmt for h in getattr(node, "handlers", []) for stmt in h.body]
    return names


def relative_import_findings(package):
    """Each `from .m import name` in the modules of package where m does not
    define name itself: a name that m only re-exports, or one that it lacks.
    `from . import name` must name a module of the package."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(package).glob("*.py"))}
    defined = {name: defined_names(tree) for name, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None:
                    ok = alias.name in trees
                else:
                    ok = alias.name in defined.get(node.module, set())
                if not ok:
                    found.append(f"{module}.py:{node.lineno}: .{node.module or ''} {alias.name}")
    return found


def test_every_relative_import_names_a_definition_of_its_module():
    # a private alias read through a second module hides where a name lives
    assert relative_import_findings(SRC / "equimorse") == []


def test_the_relative_import_guard_sees_a_re_export(tmp_path):
    (tmp_path / "base.py").write_text("def norm(x):\n    return x\n\n\nSCALE = 2.0\n")
    (tmp_path / "mid.py").write_text("from .base import norm as _norm, SCALE\n")
    (tmp_path / "top.py").write_text(
        "from . import base, gone\nfrom .mid import _norm\nfrom .base import norm, SIZE\n")
    assert relative_import_findings(tmp_path) == [
        "top.py:1: . gone", "top.py:2: .mid _norm", "top.py:3: .base SIZE"]


def module_imports(path, name):
    """Lines of the module at path that import the package module name, in
    any of the forms from .name, from . import name or import equimorse.name."""
    found = []
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        if any(m.split(".")[-1] == name for m in modules):
            found.append(node.lineno)
    return found


def test_the_perturbation_imports_nothing_from_regdist():
    # near a fixed point of a linear action every stratum is a subspace, so
    # the normal well is a polynomial in squared distances; the regularized
    # distance stays the construction for general closed sets
    assert module_imports(SRC / "equimorse" / "equiperturb.py", "regdist") == []


def test_the_regdist_import_guard_sees_every_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy\nfrom .regdist import _outer\nfrom . import regdist\n"
        "import equimorse.regdist\nfrom .config import tol\n")
    assert module_imports(tmp_path / "mod.py", "regdist") == [2, 3, 4]


def test_every_declared_script_imports():
    # an installed console script imports its module and calls the named
    # attribute, so a target that does not import ships a broken command
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {target} is not callable"


def test_dact_keeps_the_integrate_flow_binding_that_the_selftest_checks():
    # dact integrates its seeds through flow_chain and calls integrate_flow
    # no more; perfbench/selftest.py asserts that the tracer patches this
    # binding, so its removal must fail here first
    from equimorse import dact, hamflow

    assert dact.integrate_flow is hamflow.integrate_flow
