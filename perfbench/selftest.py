"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run: the seed-0
solves below take about two minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from metrics import END_TO_END, MOVES, PER_LAYER  # noqa: E402
from tracer import Tracer, originals_restored  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for name in PER_LAYER:
        prefix = name.rsplit(".", 1)[0] if name.endswith(("calls", "self_s", "errors")) else name
        metric, workloads = MOVES[prefix]
        assert metric in END_TO_END and set(workloads) <= set(WORKLOADS)


def test_wrappers_cover_names_bound_by_importers_and_are_removed():
    from equimorse import dact, exactalg, hamflow, lochom

    before = (hamflow.integrate_flow, dact.integrate_flow, lochom.sparse_rank)
    with Tracer():
        assert dact.integrate_flow is hamflow.integrate_flow
        assert dact.integrate_flow is not before[0]
        assert lochom.sparse_rank is exactalg.sparse_rank is not before[2]
        assert not originals_restored()
    assert (hamflow.integrate_flow, dact.integrate_flow, lochom.sparse_rank) == before
    assert originals_restored()


def test_traced_counts_repeat_exactly_at_one_seed():
    w = WORKLOADS["resonant_orbits"]
    reports = []
    for _ in range(2):
        _, metrics, _ = run.measure_traced(w, seed=3, seconds=0)
        reports.append({k: v for k, v in metrics.items()
                        if not (k.endswith("_s") or k.startswith("trace."))})
    assert reports[0] == reports[1]
    assert reports[0]["hamflow.integrate_flow.calls"] > 0
    assert reports[0]["spindex.cz_index.calls"] == 4
    assert originals_restored()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_check_at_seed_0(name):
    w = WORKLOADS[name]
    inp = w.make(0, 0)
    w.check(inp, w.solve(inp))


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "regdist_queries",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
