"""Smoke test of the benchmark: a tiny configuration of each workload, end to end.

Run from the repository root (about two minutes):

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the package's own test collection.  Each tiny
workload runs in both modes and must print every metric BENCHMARK.json names,
with its unit, and fail no operation.  The reference values below were
measured on the tiny configurations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
from bubblescreen.config import ExperimentConfig  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# workload -> (config overrides, reference values)
TINY = {
    "stages-eps64": (
        {"run": {"T": 4.0}},
        {"compare": {"sup_err": 0.008718126440614316, "l2_err": 0.010223500015568496,
                     "u_scale": 0.040458711438170356},
         "foldy_vs_screen": 0.17728115138479436,
         "regimes_sup_wsc": [0.04917683787878467, 6.575365238920904e-06,
                             0.2855602123596474]}),
    "disk-sweep": (
        {"run": {"T": 4.0}},
        {"sweep_l2": [0.010223500015568496, 0.007681892692124709, 0.0048758359762594294],
         "sweep_slope": 0.534083844045679}),
    # At T = 2 the field is still small and the difference varies by seed:
    # 0.0075 to 0.0563 over seeds 0-19.
    "sphere-cluster": ({"run": {"T": 2.0}}, {"foldy_vs_screen_max": 0.06}),
}


def tiny_workload(name: str, tmp_path: Path) -> run.Workload:
    """The workload on a smaller config, merged by the package's own loader."""
    full = run.WORKLOADS[name]
    overrides, refs = TINY[name]
    config = ExperimentConfig.load(run.ROOT / full.config, overrides)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config.data))
    return run.Workload(name, str(path), full.stages, {**full.refs, **refs})


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_prints_every_metric(name, tmp_path):
    workload = tiny_workload(name, tmp_path)
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        lines = []
        result = run.run_benchmark(workload, seed=1, seconds=0, trace=trace,
                                   emit=lines.append)
        units = {m["name"]: m["unit"] for m in declared}
        printed = {ln.split()[1]: ln.split()[-1] for ln in lines if ln.startswith("metric ")}
        assert printed == units
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
        assert {"nproc", "python", "numpy", "blas", "blas_version", "blas_threads",
                "git_commit", "seed"} <= env.keys()
        assert result["attempted"] == len(workload.stages) * (2 if trace else 1)
        assert result["failed"] == 0, [ln for ln in lines if " FAIL " in ln]
        assert result["correct"]


def test_a_wrong_answer_fails_its_check():
    y = np.linspace(0.0, 1.0, 50)
    tables = {"effective_traces.csv": {"y": y}, "resolvent_diag.csv": {"bound_ok": np.ones(3)}}
    refs = run.WORKLOADS["stages-eps64"].refs

    def checks(cq_y):
        tables["cq_traces.csv"] = {"y": cq_y}
        return [ok for ok, _ in run._stage_checks("cq", lambda stage, csv: tables[csv], refs)]

    assert all(checks(y * (1 + 1e-6)))
    assert not all(checks(y * 1.01))


def test_a_foldy_field_off_by_a_few_percent_fails_on_the_sphere():
    w = np.sin(np.linspace(0.0, 6.0, 200))
    refs = run.WORKLOADS["sphere-cluster"].refs

    def passes(u):
        tables = {"foldy_field.csv": {"u_sc": u}, "effective_field.csv": {"w_sc": w}}
        return all(ok for ok, _ in run._stage_checks("foldy", lambda stage, csv: tables[csv],
                                                      refs))

    assert passes(w * 1.018)
    assert not passes(w * 1.03)
