"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; the self-test keeps the two in step.
`MOVES` records, for each per-layer metric, the end-to-end metric and the
workloads on which a change to that layer should show, so a change that
claims a gain on one layer knows where to look and where to expect nothing.
"""
from __future__ import annotations

from tracer import TARGETS

END_TO_END = {
    # median wall time of one solve, tracing off
    "solve_s": "s",
    # median over fresh interpreters of: import the package, build solve 0's inputs
    "setup_s": "s",
    # peak resident memory of the measuring process
    "peak_rss_mib": "MiB",
}

DERIVED = {
    "hamflow.rhs_per_flow": "ratio",
    "hamflow.flows_per_graph_solve": "ratio",
    "dact.graph_solves_per_newton_step": "ratio",
    "dact.periodic.useful_ratio": "ratio",
    "lochom.grid_values": "count",
    "regdist.cubes": "count",
    "regdist.raw_values_per_query": "ratio",
    "equiperturb.census_points": "count",
    "equiperturb.census_euler": "count",
    "equiperturb.attempt": "count",
    # median traced solve, and traced minus untraced median on the same inputs
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}

_KIND_UNITS = {"calls": "count", "self_s": "s", "errors": "count"}

PER_LAYER = {f"{name}.{kind}": unit for name in TARGETS for kind, unit in _KIND_UNITS.items()}
PER_LAYER.update(DERIVED)

RO, DL, IP, RQ = "resonant_orbits", "dact_localhom", "invariant_perturb", "regdist_queries"

# layer metric prefix -> (end-to-end metric it should move, workloads, in order of effect)
MOVES = {
    "hamflow.germ_grad": ("solve_s", (RO, DL)),
    "hamflow.germ_hess": ("solve_s", (RO, DL)),
    "hamflow.rhs_per_flow": ("solve_s", (RO, DL)),
    # batching flows must also keep peak_rss_mib on dact_localhom within its bound
    "hamflow.integrate_flow": ("solve_s", (DL, RO)),
    "hamflow.solve_graph": ("solve_s", (RO,)),
    "hamflow.flows_per_graph_solve": ("solve_s", (RO,)),
    "dact.graph_solves_per_newton_step": ("solve_s", (RO,)),
    "hamflow.eval_S": ("solve_s", (DL,)),
    "dact.gradient": ("solve_s", (DL, RO)),
    "lochom.grid_values": ("solve_s", (DL,)),
    "lochom.f_value": ("solve_s", (DL,)),
    "dact.hessian_at": ("solve_s", (RO,)),
    "dact.seed_from_point": ("solve_s", (RO,)),
    "dact.find_periodic_points": ("solve_s", (RO,)),
    "dact.periodic.useful_ratio": ("solve_s", (RO,)),
    "spindex.cz_index": ("solve_s", (RO,)),
    "hamflow.zero_jacobian_path": ("setup_s", (RO, DL)),
    "lochom.local_homology": ("solve_s", (DL,)),
    "lochom.gromoll_meyer_pair": ("solve_s", (DL,)),
    "lochom.relative_homology": ("solve_s", (DL,)),
    "exactalg.sparse_rank": ("solve_s", (DL,)),
    "lochom.f_grad": ("solve_s", (IP,)),
    "lochom.f_hess": ("solve_s", (IP,)),
    "lochom.poly_grad": ("solve_s", (IP,)),
    "lochom.poly_hess": ("solve_s", (IP,)),
    "equiperturb.perturb_invariant_morse": ("solve_s", (IP,)),
    "equiperturb.census_points": ("solve_s", (IP,)),
    "equiperturb.census_euler": ("solve_s", (IP,)),
    "equiperturb.attempt": ("solve_s", (IP,)),
    "regdist.whitney_decompose": ("solve_s", (RQ,)),
    "regdist.cubes": ("solve_s", (RQ,)),
    "regdist.star_cubes": ("solve_s", (RQ,)),
    "regdist.raw_value": ("solve_s", (RQ,)),
    "regdist.raw_values_per_query": ("solve_s", (RQ,)),
    "regdist.regularized_distance": ("solve_s", (RQ,)),
    "trace.solve_s": ("solve_s", (RO, DL, IP, RQ)),
    "trace.overhead_s": ("solve_s", (RO, DL, IP, RQ)),
}
