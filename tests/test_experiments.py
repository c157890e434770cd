import json
import random
from pathlib import Path

import numpy as np
import pytest

from bubblescreen import ExperimentConfig, experiments, geometry, stepping
from bubblescreen.errors import ConfigError, UsageError
from bubblescreen.experiments import (CSV_BLOCK_ROWS, STAGES, OutputSession,
                                      _long_columns, build_scene, compare_at,
                                      run_stage)

from oracles import csv_rows_text

SMALL = {"run": {"T": 2.5, "n_out": 51}}
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"

_SWEEP_EPS = ["eps_0.015625", "eps_0.0078125", "eps_0.00390625"]
# stage -> (outputs in the order written, timing labels, march entries)
STAGE_PROMISES = {
    "validate": (["validation_report.txt", "validation_report.csv", "cluster.csv"],
                 {"scene"}, set()),
    "foldy": (["foldy_traces.csv", "foldy_field.csv"], {"scene", "solve"}, {"foldy"}),
    "effective": (["effective_traces.csv", "effective_field.csv", "rule.csv"],
                  {"scene", "solve"}, {"effective"}),
    "cq": (["cq_traces.csv", "resolvent_diag.csv"], {"scene", "solve"}, {"cq"}),
    "compare": (["compare_fields.csv", "compare_errors.csv"],
                {"scene", "foldy", "effective"}, {"foldy", "effective"}),
    "sweep": (["sweep.csv", "sweep_fit.csv"],
              {"scene", "foldy", "effective", *_SWEEP_EPS}, set(_SWEEP_EPS)),
    "regimes": (["regimes.csv"], {"scene", "solve"}, set()),
    "counting": (["counting.csv"], {"solve"}, set()),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_stage_csvs_reproducible_and_manifest_keys(tmp_path, stage):
    outputs, timings, marches = STAGE_PROMISES[stage]
    config = ExperimentConfig.from_dict(SMALL)
    for name in ("a", "b"):
        run_stage(stage, config, tmp_path / name)
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    assert manifest["command"] == stage
    assert [entry["path"] for entry in manifest["outputs"]] == outputs
    for name in outputs:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    assert set(manifest["timings_s"]) == timings
    assert set(manifest["march"]) == marches
    assert manifest["warnings"] == []
    if stage != "foldy":
        return
    march = manifest["march"]["foldy"]
    assert set(march) == {"n", "pairs", "steps", "h", "tau_min", "h_over_tau_min",
                          "lag_max", "near_pairs", "near_contraction", "near_sweeps",
                          "memory_estimate_bytes", "memory_budget_bytes"}
    # the memory check's estimate, above the network's and the plan's 98 B
    # per n x n entry, within the budget it passed
    assert (98 * march["n"] ** 2 < march["memory_estimate_bytes"]
            <= march["memory_budget_bytes"])
    assert march["pairs"] == march["n"] * (march["n"] - 1)
    assert march["steps"] * march["h"] == pytest.approx(2.5, rel=1e-14)
    # the step is h_max; at eps 1/64 every delay exceeds 2h: no near pairs
    assert march["h"] == 0.05
    assert march["near_pairs"] == march["near_sweeps"] == 0
    assert march["h_over_tau_min"] == march["h"] / march["tau_min"]
    assert march["lag_max"] >= 1


# compare on the default config, recorded once Foldy was marched in U on
# u_in with its field read from the accelerations (numpy 2.4); a change of
# the march's summation order moves these by about 1e-15, a change of the
# method by far more (that one moved them by up to 1.1e-5)
COMPARE_PINS = {
    1.0 / 64.0: {"sup_err": 0.0095503672064996, "l2_err": 0.023859203799138497,
                 "u_scale": 0.06160974666674349},
    1.0 / 256.0: {"sup_err": 0.004708750240101256, "l2_err": 0.011821374957020092,
                  "u_scale": 0.06570283833655963},
}


@pytest.mark.parametrize("eps", sorted(COMPARE_PINS))
def test_compare_errors_pinned_to_rounding(eps, tmp_path):
    config = ExperimentConfig.load(CONFIG)
    row = compare_at(config, eps, OutputSession(config, "compare", tmp_path))[0]
    for key, want in COMPARE_PINS[eps].items():
        assert row[key] == pytest.approx(want, rel=1e-12, abs=0.0), key


SPHERE_CONFIG = CONFIG.parent.parent / "perfbench" / "configs" / "sphere_cluster.yaml"
# compare on the sphere config (two jittered bubbles per patch), recorded
# with Foldy marched in U and the jitter drawn from random.Random(seed)
# (numpy 2.4): guards the sphere partition and placement
SPHERE_PINS = {
    1.0 / 128.0: {"m_bubbles": 256, "m_nodes": 128, "sup_err": 0.0017418815186970027,
                  "l2_err": 0.002531693133138883, "u_scale": 0.1015872079733886},
    1.0 / 256.0: {"m_bubbles": 512, "m_nodes": 256, "sup_err": 0.0012738622151469703,
                  "l2_err": 0.0018016564810692066, "u_scale": 0.10102649207794367},
}


@pytest.mark.parametrize("eps", sorted(SPHERE_PINS))
def test_sphere_compare_errors_pinned_to_rounding(eps, tmp_path):
    config = ExperimentConfig.load(SPHERE_CONFIG)
    row = compare_at(config, eps, OutputSession(config, "compare", tmp_path))[0]
    for key, want in SPHERE_PINS[eps].items():
        assert row[key] == pytest.approx(want, rel=1e-12, abs=0.0), key


def test_sphere_screen_does_not_depend_on_placement(tmp_path):
    # the seed moves every jittered bubble, and the screen reads no bubble:
    # its rule, traces and field are byte-identical across seeds
    outputs = ["effective_traces.csv", "effective_field.csv", "rule.csv"]
    for seed in (1, 2):
        config = ExperimentConfig.load(SPHERE_CONFIG, {"seed": seed})
        run_stage("effective", config, tmp_path / str(seed))
    centers = [build_scene(ExperimentConfig.load(SPHERE_CONFIG, {"seed": seed})).cluster.centers
               for seed in (1, 2)]
    assert not np.array_equal(*centers)
    for name in outputs:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


# distance passes per stage: one per validation and two per network marched,
# its check pass and its plan pass; cq's screen has its check pass and one
# block of all rows for the matrix network that both CQ solvers read
DISTANCE_PASSES = {"validate": 1, "foldy": 3, "effective": 2, "cq": 2, "compare": 5}


@pytest.fixture
def distance_passes(monkeypatch):
    """The point counts of every pass of ``distance_rows``, as made: a pass
    is one call from row 0 on, or several that follow each other, and each
    pass must reach the last row before the next starts."""
    passes, reached = [], [0]
    kernel = geometry.distance_rows

    def counted(points, lo, hi):
        n = len(points)
        if lo == 0:
            assert not passes or reached[0] == passes[-1]
            passes.append(n)
        else:
            assert lo == reached[0] and passes[-1] == n
        reached[0] = min(hi, n)
        return kernel(points, lo, hi)

    monkeypatch.setattr(geometry, "distance_rows", counted)
    monkeypatch.setattr(stepping, "distance_rows", counted)
    yield passes
    assert not passes or reached[0] == passes[-1]


@pytest.mark.parametrize("stage", [*DISTANCE_PASSES, "counting"])
def test_one_distance_pass_per_validation_and_network(stage, tmp_path, distance_passes):
    config = ExperimentConfig.from_dict(SMALL)
    run_stage(stage, config, tmp_path)
    want = DISTANCE_PASSES.get(stage, len(config.data["counting"]["d_list"]))
    assert len(distance_passes) == want


def test_placement_measures_nothing(distance_passes):
    build_scene(ExperimentConfig.from_dict(SMALL))
    assert distance_passes == []


@pytest.mark.parametrize("raw", [
    {"source": {"position": [0.0, 0.0, 0.3]}},
    {"run": {"observation_points": [[0.0, 0.0, 0.1]]}},
], ids=["source-stand-off", "probe-distance"])
def test_stand_offs_refused_before_partitioning(monkeypatch, raw):
    # both checks need only the surface and d: a bad config builds no patch
    def no_partition(*args):
        raise AssertionError("partitioned before the stand-off checks")

    monkeypatch.setattr(experiments, "partition", no_partition)
    with pytest.raises(ConfigError):
        build_scene(ExperimentConfig.from_dict(raw))


class _Compared(Exception):
    pass


@pytest.mark.parametrize("eps_list, ratios", [
    ([1 / 64, 1 / 100, 1 / 160], None),
    ([1 / 64, 1 / 90, 1 / 160], "1.41, 1.78"),
], ids=["ratios-1.56-1.6", "ratio-1.41"])
def test_sweep_refuses_eps_closer_than_a_ratio_of_one_and_a_half(monkeypatch, tmp_path,
                                                                 eps_list, ratios):
    # the sweep's rule is that each eps is at least 1.5 times the next, not
    # that the list is dyadic: 1/64, 1/100, 1/160 reaches the first compare,
    # and a refusal states the rule and the ratios
    def compared(*args):
        raise _Compared

    monkeypatch.setattr(experiments, "compare_at", compared)
    config = ExperimentConfig.from_dict({"sweep": {"eps_list": eps_list}})
    if ratios is None:
        with pytest.raises(_Compared):
            run_stage("sweep", config, tmp_path)
    else:
        with pytest.raises(UsageError, match=f"each eps of the sweep must be at least 1.5 "
                                             f"times the next, got ratios {ratios}$"):
            run_stage("sweep", config, tmp_path)


def test_cq_probes_are_pythons_seeded_random_sequence(monkeypatch, tmp_path):
    # s_k from draws 2k, 2k + 1, then each probe's rhs from the draws after
    # the 32 of s, node by node, real part first; random.Random(seed) gives
    # the same sequence on every Python version
    probes = []

    def probed(network, weights, s_values, rhs_values):
        probes.extend([s_values, rhs_values])
        raise _Compared

    monkeypatch.setattr(experiments, "resolvent_sweep", probed)
    config = ExperimentConfig.from_dict({**SMALL, "seed": 3})
    with pytest.raises(_Compared):
        run_stage("cq", config, tmp_path)
    s_values, rhs = probes
    m = build_scene(config).rule.m
    draw = random.Random(3).random
    u = [draw() for _ in range(32 + 32 * m)]
    assert s_values == [complex(0.5 + 3.5 * u[2 * k], 8.0 * u[2 * k + 1] - 4.0)
                        for k in range(16)]
    assert rhs.shape == (16, m)
    assert rhs[0, 0] == complex(2.0 * u[32] - 1.0, 2.0 * u[33] - 1.0)
    assert rhs[15, m - 1] == complex(2.0 * u[-2] - 1.0, 2.0 * u[-1] - 1.0)


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch):
    # a rerun into the same directory that fails deletes its own outputs;
    # the earlier run's manifest, which lists them, must go too
    config = ExperimentConfig.from_dict(SMALL)
    run_stage("validate", config, tmp_path)
    assert (tmp_path / "run_manifest.json").exists()

    def fails_after_writing(config, session):
        session.write_csv("cluster.csv", ["x"], [[1.0]])
        raise RuntimeError("stage failed")

    monkeypatch.setitem(STAGES, "validate", fails_after_writing)
    with pytest.raises(RuntimeError, match="stage failed"):
        run_stage("validate", config, tmp_path)
    assert not (tmp_path / "cluster.csv").exists()
    assert not (tmp_path / "run_manifest.json").exists()


def test_validate_records_scene_timing(tmp_path):
    run_stage("validate", ExperimentConfig.from_dict(SMALL), tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert set(manifest["timings_s"]) == {"scene"}


FLOATS = [0.0, -0.0, 5e-324, 1e300, -1e300, float("nan"), float("inf"),
          float("-inf"), 0.1, 1.0 / 3.0, 2.5e-12, -7.0, 1e16, 123456789.125]


def _mixed_columns(rows: int) -> tuple[list[str], list]:
    """Columns of every kind the stages write, ``rows`` long."""
    idx = range(rows)
    columns = {
        "py_bool": [i % 3 == 0 for i in idx],
        "np_bool": [np.bool_(i % 2) for i in idx],
        "py_int": [i * 7 - 3 for i in idx],
        "np_int32": [np.int32(-i) for i in idx],
        "np_int64": np.arange(rows, dtype=np.int64) * 1_000_003,
        "py_float": [FLOATS[i % len(FLOATS)] for i in idx],
        "np_float": np.array([FLOATS[(i + 5) % len(FLOATS)] for i in idx]),
        "np_float32": np.linspace(-1.0, 1.0, rows, dtype=np.float32),
        "text": [f"{i / 7.0!r}" for i in idx],
    }
    return list(columns), list(columns.values())


@pytest.mark.parametrize("rows", [1, 17, CSV_BLOCK_ROWS + 3])
def test_columns_written_as_the_row_formatter_did(tmp_path, rows):
    header, columns = _mixed_columns(rows)
    with OutputSession(ExperimentConfig.from_dict({}), "t", tmp_path) as session:
        path = session.write_csv("mixed.csv", header, columns)
        # one-row files written from scalars, as sweep_fit.csv is
        fit = session.write_csv("fit.csv", ["slope", "lsq_residual"],
                                [[np.float64(0.5065)], [1e-300]])
    assert path.read_text() == csv_rows_text(header, zip(*columns))
    assert fit.read_text() == csv_rows_text(["slope", "lsq_residual"],
                                            [(np.float64(0.5065), 1e-300)])
    assert session.outputs == [{"path": "mixed.csv", "rows": rows},
                               {"path": "fit.csv", "rows": 1}]


def test_long_layout_matches_row_loops(tmp_path):
    rng = np.random.default_rng(2)
    times = np.arange(401) * (8.0 / 401)          # 1203 trace rows: two blocks
    trace = rng.normal(size=(len(times), 3))      # (times, nodes), as a Trace
    field = rng.normal(size=(2, len(times)))      # (probes, times)
    columns = _long_columns(times, trace.T)
    # each time is converted to text once, its string shared by every node
    assert columns[0][0] is columns[0][len(times)] is columns[0][2 * len(times)]
    with OutputSession(ExperimentConfig.from_dict({}), "t", tmp_path) as session:
        traces = session.write_csv("traces.csv", ["time", "node_id", "y"], columns)
        fields = session.write_csv("field.csv", ["time", "probe_id", "u"],
                                   _long_columns(times, field))
    assert traces.read_text() == csv_rows_text(
        ["time", "node_id", "y"],
        ((t, n, trace[i, n]) for n in range(3) for i, t in enumerate(times)))
    assert fields.read_text() == csv_rows_text(
        ["time", "probe_id", "u"],
        ((t, p, field[p, i]) for p in range(2) for i, t in enumerate(times)))


def test_ragged_columns_rejected_before_writing(tmp_path):
    with OutputSession(ExperimentConfig.from_dict({}), "t", tmp_path) as session:
        with pytest.raises(UsageError, match="differ in length"):
            session.write_csv("ragged.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(UsageError, match="1-D column"):
            session.write_csv("short.csv", ["a", "b"], [[1.0, 2.0]])
        assert session.outputs == []
    assert not (tmp_path / "ragged.csv").exists()
    assert not (tmp_path / "short.csv").exists()


def test_failure_while_writing_deletes_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    seen = []

    class Unprintable:
        def __str__(self):
            seen.append(path.exists())
            raise RuntimeError("cannot format")

    # the first block is written before the bad cell of the second is formatted
    column = ["ok"] * CSV_BLOCK_ROWS + [Unprintable()]
    with pytest.raises(RuntimeError, match="cannot format"):
        with OutputSession(ExperimentConfig.from_dict({}), "t", tmp_path) as session:
            session.write_csv("bad.csv", ["text"], [column])
    assert seen == [True]
    assert not path.exists()
    assert not (tmp_path / "run_manifest.json").exists()


def test_failure_while_writing_text_deletes_the_file(tmp_path, monkeypatch):
    def partial_write(path, text, *args, **kwargs):
        with open(path, "w") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", partial_write)
    config = ExperimentConfig.from_dict({"run": {"T": 2.5, "n_out": 51}})
    with pytest.raises(OSError, match="disk full"):
        run_stage("validate", config, tmp_path)
    assert not (tmp_path / "validation_report.txt").exists()
    assert not (tmp_path / "run_manifest.json").exists()
