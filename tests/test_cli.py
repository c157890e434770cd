import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from bubblescreen import experiments, stepping
from bubblescreen.cli import run_cli

SRC = Path(__file__).resolve().parent.parent / "src"


def _config(tmp_path, raw):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_validate_exits_zero(tmp_path):
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    assert run_cli(["validate", "--config", path, "--outdir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "run_manifest.json").exists()


def test_horizon_below_rounding_validates(tmp_path):
    # T / h_max = 8e-13 once fitted a grid of zero steps: ZeroDivisionError, exit 1
    path = _config(tmp_path, {"run": {"T": 4.0e-14}})
    assert run_cli(["validate", "--config", path, "--outdir", str(tmp_path / "out")]) == 0


def test_horizon_below_rounding_marches_one_step(tmp_path):
    # the history once held lag_max + 2 leading rows however few steps the
    # grid had: at h = 4e-14 that asked for 32.5 PiB and exited 1
    path = _config(tmp_path, {"run": {"T": 4.0e-14}})
    out = tmp_path / "out"
    assert run_cli(["foldy", "--config", path, "--outdir", str(out)]) == 0
    march = json.loads((out / "run_manifest.json").read_text())["march"]["foldy"]
    assert march["steps"] == 1 and march["lag_max"] > 10**12


def test_horizon_far_below_the_delays_casts_no_invalid_offset(tmp_path):
    # at h = 1e-20 the half-row shifts -2 tau/h reach -1e19, past int64:
    # the cast warned "invalid value encountered in cast" into the manifest
    path = _config(tmp_path, {"run": {"T": 1.0e-20}})
    out = tmp_path / "out"
    assert run_cli(["foldy", "--config", path, "--outdir", str(out)]) == 0
    assert json.loads((out / "run_manifest.json").read_text())["warnings"] == []


def test_out_of_memory_exits_three_without_partial_outputs(tmp_path, monkeypatch, capsys):
    def exhausted(config, session):
        session.write_text("partial.txt", "half\n")
        raise MemoryError("Unable to allocate 1.93 GiB for an array")

    monkeypatch.setitem(experiments.STAGES, "validate", exhausted)
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    out = tmp_path / "out"
    assert run_cli(["validate", "--config", path, "--outdir", str(out)]) == 3
    assert capsys.readouterr().err == ("solver error: out of memory: Unable to "
                                       "allocate 1.93 GiB for an array\n")
    assert list(out.iterdir()) == []


def test_unusable_outdir_exits_two(tmp_path, capsys):
    # the output directory would lie under a regular file
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(["validate", "--config", path, "--outdir", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("output error:")
    assert list(tmp_path.rglob("run_manifest.json")) == []


@pytest.mark.parametrize("raw", [
    {"run": {"epss": 0.01}},
    {"k": {"constant": "abc"}},
    {"run": {"T": "abc"}},
    {"run": {"eps": 0.0625}},   # d = 1/4: patch count outside M ~ d^-2
    {"k": {"constant": 2}},     # three bubbles per patch do not fit at d = 1/8
    ["--eps", "abc"],
    ["--eps-list", "1/64,abc"],
    ["--eps", "1/0"],
    ["--eps", "1/64,1/2"],      # --eps takes one value
    ["--eps", "nan"],
    {"run": {"eps": 1e-9}},     # about 1e9 patches: refused before partitioning
    {"run": {"step_safety": 0.4}},  # removed key: the step no longer depends on tau_min
    {"run": {"T": float("nan")}},
    {"run": {"h_max": float("nan")}},
    {"run": {"n_out": 1}},      # one output sample has no spacing
    {"materials": {"rho_c": float("nan")}},
    {"bubble_shape": {"radius": float("nan")}},
    {"source": {"position": [0.0, float("nan"), 1.5]}},
    {"pulse": {"t_rise": float("nan")}},    # all-zero traces, not an error, before
    {"materials": {"kappa_b_bar": float("inf")}},
    {"surface": {"area": float("nan")}},
    {"run": {"n_out": 12.5}},   # an integer key: not truncated to 12
    {"seed": 3.7},
    {"run": {"n_out": 100000000}},  # more output times than a march may take steps
])
def test_config_errors_exit_two(tmp_path, raw, capsys):
    # a dict is the config file; a list is flags given with the default config
    config, flags = (raw, []) if isinstance(raw, dict) else ({}, raw)
    path = _config(tmp_path, config)
    assert run_cli(["foldy", "--config", path, "--outdir", str(tmp_path / "out"),
                    *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert all(flag in err for flag in flags[1:])


@pytest.mark.parametrize("stage, raw", [
    ("regimes", {"regimes": {"cells": []}}),            # max() of no factors
    ("counting", {"counting": {"d_list": []}}),         # rows[0] of no rows
    ("regimes", {"regimes": {"transmitted_points": []}}),
    ("foldy", {"source": {"position": [0.0, 0.0]}}),
    ("validate", {"seed": -1}),                         # the config refuses a negative seed
    ("foldy", {"run": {"observation_points": [[0.0, 0.0, -0.5], [0.25, 0.15]]}}),
    ("regimes", {"regimes": {"window_fraction": -2.0}}),    # an empty window, exit 0
    ("regimes", {"regimes": {"window_fraction": 1.5}}),
    ("regimes", {"regimes": {"cells": [{"coupling_factor": 2.0}, {"omega_factor": 1.0}]}}),
    ("validate", {"k": {"name": "linear_axis", "axis": 3}}),
    ("validate", {"output": {"dir": 5}}),
    ("regimes", {"regimes": {"cells": [{"omega_factor": 0.0}, {"omega_factor": 1.0}]}}),
    ("regimes", {"regimes": {"cells": [{"omega_factor": -1.0}, {"omega_factor": 1.0}]}}),
    ("regimes", {"regimes": {"cells": [{"omega_factor": 1.0},     # after a cell marched
                                       {"omega_factor": 100.0, "coupling_factor": 0.0}]}}),
    ("validate", {"k": {"constant": 1.0e300}}),     # floor(K) cast to negative counts
    ("validate", {"k": {"name": "linear_axis", "scale": 1.0e300}}),
])
def test_config_values_that_crashed_exit_two(tmp_path, monkeypatch, stage, raw, capsys):
    # each of these ended in a traceback (exit 1) or ran on a meaningless
    # value; the outputs would go to output.dir under the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BUBBLESCREEN_OUT_ROOT", raising=False)
    assert run_cli([stage, "--config", _config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert list(tmp_path.rglob("run_manifest.json")) == []


def test_out_root_prefixes_relative_outdirs_only(tmp_path, monkeypatch):
    root, cwd = tmp_path / "root", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("BUBBLESCREEN_OUT_ROOT", str(root))
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    assert run_cli(["validate", "--config", path, "--outdir", "rel"]) == 0
    assert run_cli(["validate", "--config", path, "--outdir", str(tmp_path / "abs")]) == 0
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("run_manifest.json")) == [
        "abs/run_manifest.json", "root/rel/run_manifest.json"]


def test_malformed_config_exits_two(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("run: {T: [1.0, 2.0\n")
    assert run_cli(["validate", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot parse config")


def test_missing_config_exits_two(tmp_path):
    missing = str(tmp_path / "absent.yaml")
    assert run_cli(["validate", "--config", missing, "--outdir", str(tmp_path)]) == 2


def test_config_directory_is_a_config_error(tmp_path, capsys):
    # reading a directory raises an OSError, which is not an output error
    assert run_cli(["validate", "--config", str(tmp_path), "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_solvability_violation_exits_three(tmp_path, capsys):
    # omega_m_sq / c_bar = 1/a, so a large reference ball breaks the resonance
    # condition of the default disk
    path = _config(tmp_path, {"bubble_shape": {"radius": 8.0}, "run": {"T": 1.0}})
    assert run_cli(["foldy", "--config", path, "--outdir", str(tmp_path / "out")]) == 3
    assert "resonance condition violated" in capsys.readouterr().err


def test_warnings_listed_in_the_manifest(tmp_path):
    # with condition_violation: warn the violation above is a warning: the
    # stage exits 0, shows it on stderr and lists it in the manifest
    path = _config(tmp_path, {"bubble_shape": {"radius": 8.0},
                              "run": {"T": 1.0, "condition_violation": "warn"}})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "bubblescreen.cli", "foldy", "--config", path,
         "--outdir", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert "resonance condition violated" in proc.stderr
    listed = json.loads((out / "run_manifest.json").read_text())["warnings"]
    assert len(listed) == 1
    assert listed[0].startswith("resonance condition violated")


@pytest.mark.parametrize("stage, run", [
    ("validate", {"T": float("nan")}),
    ("foldy", {"T": 1.0e308}),                      # T / h_max overflows
    ("validate", {"T": 1.0e9, "h_max": 1.0e-9}),    # 1e18 steps: refused, never marched
])
def test_run_horizon_checked_before_any_stage(tmp_path, stage, run, capsys):
    path = _config(tmp_path, {"run": run})
    assert run_cli([stage, "--config", path, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage", ["foldy", "effective", "compare", "regimes"])
def test_over_budget_march_exits_2_before_its_network(tmp_path, stage, monkeypatch, capsys):
    # the estimate at eps 1/64 (n = 48) is about 0.6 MB: a 100 kB budget
    # refuses it before any n x n matrix is built
    def no_network(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(stepping, "memory_budget", lambda: 100_000)
    monkeypatch.setattr(stepping.RetardedNetwork, "__init__", no_network)
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    out = tmp_path / "out"
    assert run_cli([stage, "--config", path, "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: a march of n = 48 oscillators over 50 steps needs "
                        r"about [0-9.e-]+ GiB \((\d+) bytes\), above the memory budget "
                        r"of [0-9.e-]+ GiB \(100000 bytes\): raise eps or the limit\n", err)
    assert not (out / "run_manifest.json").exists()


def test_over_budget_cq_exits_2_before_its_network(tmp_path, monkeypatch, capsys):
    # cq's dense solves at eps 1/64 (n = 48, L = 102 transform points) need
    # 80 n^2 + 40 L n = 380,160 bytes: a 100 kB budget refuses them before
    # the network's n x n matrices exist
    def no_network(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(stepping, "memory_budget", lambda: 100_000)
    monkeypatch.setattr(stepping.RetardedNetwork, "__init__", no_network)
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    out = tmp_path / "out"
    assert run_cli(["cq", "--config", path, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: a CQ solve of n = 48 oscillators over 50 steps needs about "
        f"{380_160 / 2**30:.3g} GiB (380160 bytes), above the memory budget of "
        f"{100_000 / 2**30:.3g} GiB (100000 bytes): raise eps or the limit\n")
    assert not (out / "run_manifest.json").exists()


def test_cq_manifest_records_its_memory_check(tmp_path, monkeypatch):
    # an estimate equal to the budget passes, and both land in the manifest
    monkeypatch.setattr(stepping, "memory_budget", lambda: 380_160)
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    out = tmp_path / "out"
    assert run_cli(["cq", "--config", path, "--outdir", str(out)]) == 0
    assert json.loads((out / "run_manifest.json").read_text())["march"] == {
        "cq": {"memory_estimate_bytes": 380_160, "memory_budget_bytes": 380_160}}


def test_foldy_over_the_address_space_limit_exits_2(tmp_path):
    # eps 2^-14 puts 16,099 bubbles on the disk, whose march needs about
    # 14 GiB; under a 2.4 GiB RLIMIT_AS, set on this child only, the stage
    # once asked for the 1.93 GiB coupling matrix and exited 3.  The budget
    # is the limit less the address space the stage maps already (about
    # 0.1 GiB after its imports)
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_560_000_000, resource.RLIM_INFINITY))

    proc = subprocess.run(
        [sys.executable, "-m", "bubblescreen.cli", "foldy", "--config",
         str(SRC.parent / "configs" / "default.yaml"), "--eps", "1/16384",
         "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    assert "n = 16099 oscillators" in proc.stderr
    budget = int(re.search(r"memory budget of [0-9.]+ GiB \((-?[0-9]+) bytes\)",
                           proc.stderr).group(1))
    assert 0 < 2_560_000_000 - budget < 2**30
