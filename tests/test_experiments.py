import json

import pytest

from bubblescreen import ExperimentConfig
from bubblescreen.experiments import run_foldy, run_validate

SMALL = {"run": {"T": 2.5, "n_out": 51}}


def test_foldy_csvs_reproducible_and_manifest_keys(tmp_path):
    config = ExperimentConfig.from_dict(SMALL)
    for name in ("a", "b"):
        assert run_foldy(config, outdir=tmp_path / name) == 0
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    csvs = [entry["path"] for entry in manifest["outputs"]]
    assert csvs == ["foldy_traces.csv", "foldy_field.csv"]
    for csv in csvs:
        assert ((tmp_path / "a" / csv).read_bytes()
                == (tmp_path / "b" / csv).read_bytes())
    assert set(manifest["timings_s"]) == {"scene", "solve"}
    march = manifest["march"]["foldy"]
    assert set(march) == {"n", "pairs", "steps", "h", "h_over_tau_min"}
    assert march["pairs"] == march["n"] * (march["n"] - 1)
    assert march["steps"] * march["h"] == pytest.approx(2.5, rel=1e-14)
    assert 0.0 < march["h_over_tau_min"] <= 0.5


def test_validate_records_scene_timing(tmp_path):
    assert run_validate(ExperimentConfig.from_dict(SMALL), outdir=tmp_path) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert set(manifest["timings_s"]) == {"scene"}
