"""Per-layer tracing of the equimorse package, applied from outside.

`Tracer` replaces chosen functions and methods of the package with timing
wrappers while it is active and puts the originals back when it exits.  A
function is patched under every module-level name that is bound to it, so a
caller that imported it by name (``from .hamflow import integrate_flow``) is
traced too.  Nothing under ``src/`` is edited.

For every traced function the tracer records calls, self time (its wall
time minus the time of traced calls it made) and calls that raised.  It
also counts, for a few scope functions, how many traced calls ran while the
scope was active, which gives ratios such as flows per graph solve.
"""
from __future__ import annotations

import time
from collections import Counter

# metric prefix -> (module, attribute path inside the module)
TARGETS = {
    "hamflow.germ_grad": ("hamflow", "HamiltonianGerm.grad"),
    "hamflow.germ_hess": ("hamflow", "HamiltonianGerm.hess"),
    "hamflow.integrate_flow": ("hamflow", "integrate_flow"),
    "hamflow.solve_graph": ("hamflow", "GeneratingFunction.solve_graph"),
    "hamflow.eval_S": ("hamflow", "eval_S"),
    "hamflow.zero_jacobian_path": ("hamflow", "zero_jacobian_path"),
    "dact.gradient": ("dact", "gradient"),
    "dact.hessian_at": ("dact", "hessian_at"),
    "dact.seed_from_point": ("dact", "seed_from_point"),
    "dact.find_periodic_points": ("dact", "find_periodic_points"),
    "spindex.cz_index": ("spindex", "cz_index"),
    "exactalg.sparse_rank": ("exactalg", "sparse_rank"),
    "lochom.local_homology": ("lochom", "local_homology"),
    "lochom.gromoll_meyer_pair": ("lochom", "gromoll_meyer_pair"),
    "lochom.relative_homology": ("lochom", "relative_homology"),
    "lochom.f_value": ("lochom", "CallableFunction.value"),
    "lochom.f_grad": ("lochom", "CallableFunction.grad"),
    "lochom.f_hess": ("lochom", "CallableFunction.hess"),
    "lochom.poly_grad": ("lochom", "FunctionSpec.grad"),
    "lochom.poly_hess": ("lochom", "FunctionSpec.hess"),
    "regdist.whitney_decompose": ("regdist", "whitney_decompose"),
    "regdist.star_cubes": ("regdist", "WhitneyDecomposition.star_cubes"),
    "regdist.raw_value": ("regdist", "RegularizedDistance.raw_value"),
    "regdist.regularized_distance": ("regdist", "regularized_distance"),
    "equiperturb.perturb_invariant_morse": ("equiperturb", "perturb_invariant_morse"),
}

# functions whose active periods count the traced calls made inside them
SCOPES = ("hamflow.integrate_flow", "hamflow.solve_graph",
          "dact.find_periodic_points", "lochom.gromoll_meyer_pair")

MODULES = ("hamflow", "dact", "spindex", "exactalg", "lochom", "regdist", "equiperturb")


def _modules():
    import importlib

    return {name: importlib.import_module(f"equimorse.{name}") for name in MODULES}


class Tracer:
    """Context manager that traces the functions in TARGETS while active."""

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = Counter()
        self.within = Counter()  # (scope, name) -> calls made while scope was active
        self._stack = []  # [name, child seconds] per active traced call
        self._active_scopes = []
        self._restore = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stack, scopes = self._stack, self._active_scopes
        calls, errors, self_s, within = self.calls, self.errors, self.self_s, self.within
        is_scope = name in SCOPES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            for scope in scopes:
                within[scope, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            if is_scope:
                scopes.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                if is_scope:
                    scopes.pop()
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        traced._perfbench_traced = True
        return traced

    def __enter__(self):
        mods = _modules()
        for name, (mod_name, path) in TARGETS.items():
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # every module-level binding of the function, e.g. names that
            # dact and lochom imported from hamflow and exactalg
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, attr, wrapped):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def report(self) -> dict:
        """calls, self_s and errors of every target, zero where it never ran."""
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.errors"] = self.errors[name]
        return out


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def derived(tr: Tracer) -> dict:
    """Work ratios measured at the layer boundaries."""
    w = tr.within
    return {
        "hamflow.rhs_per_flow": _ratio(w["hamflow.integrate_flow", "hamflow.germ_grad"],
                                      tr.calls["hamflow.integrate_flow"]),
        "hamflow.flows_per_graph_solve": _ratio(
            w["hamflow.solve_graph", "hamflow.integrate_flow"],
            tr.calls["hamflow.solve_graph"]),
        "dact.graph_solves_per_newton_step": _ratio(
            w["dact.find_periodic_points", "hamflow.solve_graph"],
            w["dact.find_periodic_points", "dact.gradient"]),
        "lochom.grid_values": w["lochom.gromoll_meyer_pair", "lochom.f_value"],
    }


def originals_restored() -> bool:
    """True when no traced wrapper is left anywhere in the package."""
    for mod in _modules().values():
        for value in vars(mod).values():
            if getattr(value, "_perfbench_traced", False):
                return False
            if isinstance(value, type) and any(
                    getattr(attr, "_perfbench_traced", False) for attr in vars(value).values()):
                return False
    return True
