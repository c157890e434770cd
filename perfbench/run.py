"""Benchmark of the bubblescreen CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stages-eps64 --seed 1 --seconds 10 --trace 0

Each stage runs as a fresh ``python -m bubblescreen.cli STAGE --config ...
--outdir ... --seed SEED`` process, one at a time: a closed loop with a single
client, in which every process pays its own import and cache-filling cost.
Processes are timed from outside, and their peak RSS is read from ``wait4``.

``--trace 0`` repeats the workload's stages until ``--seconds`` have passed
(at least once) and reports the end-to-end metrics as medians over passes.
``setup_s`` is the median over SETUP_REPS fresh processes that import the
package, load the config and build the scene of every eps the workload uses,
with no solve.

``--trace 1`` runs one untraced pass and then one pass under
``perfbench/traced_stage.py``, which wraps the package's layers in spans.  The
per-layer metrics come from those spans; counts are summed over the
workload's calls, and ``trace.overhead_ratio`` is the traced wall time over
the untraced one.

The CSVs every pass writes are checked against the workload's reference
values and hashed; the digests must agree between passes, and between the
untraced and traced passes.  A stage that exits non-zero, fails a check or
changes a digest counts as one failed operation.  Stage outputs go to a
temporary directory under ``perfbench/.work``, which is removed at exit.

Every line before the last describes the run: ``env``, ``setup``, ``stage``,
``check`` and ``csv`` lines, per-stage medians (``stage_time``), scene and
march counters (``scene``, ``march``), metrics only some workloads have
(``layer``) and the metrics themselves (``metric``).  The last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR / ".work"

SETUP_REPS = 3
STAGE_TIMEOUT_S = 150.0
# The same on both commits of a comparison, and at most nproc.
BLAS_THREADS = "1"
# Admits the 1e-6-level shifts a numerical change may announce; a broken
# solver moves these outputs by far more.
RTOL = 1e-3
# Foldy against the screen field on sphere-cluster ranged from 0.01702 to
# 0.01822 over seeds 0-19; the limit sits just above, so a Foldy march that is
# off by a few percent fails.
SPHERE_FOLDY_VS_SCREEN = 0.02


@dataclass
class Workload:
    name: str
    config: str                 # relative to the repository root, or absolute
    stages: tuple[str, ...]
    refs: dict = field(default_factory=dict)


# Reference values were measured when this benchmark was written.  The disk
# scenes do not depend on the seed; the sphere scene does, so it is checked by
# limits instead: CQ against the time-domain solver (4.5e-4 on the disk and
# 1.1e-3 on the sphere when written) and Foldy against the screen field
# (SPHERE_FOLDY_VS_SCREEN).
WORKLOADS = {w.name: w for w in (
    # Small problems: the geometric constant is most of every stage and the
    # march under 10%, so set-up work and any fixed cost of a march plan show.
    Workload("stages-eps64", "configs/default.yaml",
             ("validate", "foldy", "effective", "cq", "compare", "regimes", "counting"),
             refs={"compare": {"sup_err": 0.009550458514846684,
                               "l2_err": 0.023859387608978034,
                               "u_scale": 0.06161033063783622},
                   "regimes_sup_wsc": [0.07070210278688083, 8.387842885016769e-06,
                                       0.3243002480422974],
                   "cq_vs_td": 2e-3, "foldy_vs_screen": 0.13508026124251038,
                   "counting_growth": 1.5}),
    # eps = 1/64, 1/128, 1/256: the delayed sum dominates, and every node sits
    # on the shifted disk lattice.
    Workload("disk-sweep", "configs/default.yaml", ("sweep",),
             refs={"sweep_l2": [0.023859387608978034, 0.01818864895933776,
                                0.01182140069558337],
                   "sweep_slope": 0.5065780132298616}),
    # Jittered off-lattice centres on a sphere; the Foldy network is twice the
    # screen, and it is the one workload where CSV writing is visible.
    Workload("sphere-cluster", "perfbench/configs/sphere_cluster.yaml",
             ("foldy", "effective", "cq"),
             refs={"cq_vs_td": 5e-3, "foldy_vs_screen_max": SPHERE_FOLDY_VS_SCREEN}),
)}

# Per-layer metrics of the traced run, printed on every workload.
SPAN_TIMES = ("config.load", "materials.geometric_constant",
              "materials.validate_conditions", "geometry.partition",
              "geometry.place_bubbles", "experiments.build_scene",
              "experiments.write_csv", "foldy.network_build",
              "foldy.field", "effective.build_rule", "effective.grid",
              "effective.network_build", "effective.field", "stepping.march")
SELF_TIMES = ("cli.run", "experiments.build_scene", "foldy.field",
              "effective.field", "stepping.march")

_ENV_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
    for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None and threads is None:
            threads = fn()
print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class StageRun:
    stage: str
    seconds: float
    rss_mb: float
    code: int


@dataclass
class PassResult:
    runs: list[StageRun]
    checks: dict[str, list[tuple[bool, str]]]
    digests: dict[str, str]
    csv_sizes: dict[str, tuple[int, int]]

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.runs)

    @property
    def failed_stages(self) -> list[str]:
        return [stage for stage, checks in self.checks.items()
                if not all(ok for ok, _ in checks)]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def stage_env() -> dict:
    """Environment of every child process: the checkout's sources, fixed BLAS threads."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("BUBBLESCREEN_OUT_ROOT", None)
    return env


def timed_process(label: str, argv: list[str], env: dict, log_path: Path) -> StageRun:
    """Run one process to completion; wall seconds, peak RSS and exit code."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(label, elapsed, usage.ru_maxrss / 1024.0, proc.returncode)


def environment(workload: Workload, seed: int, env: dict) -> dict:
    info = {"workload": workload.name, "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_threads_env": BLAS_THREADS}
    probe = subprocess.run([sys.executable, "-c", _ENV_PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True, check=True)
    info.update(json.loads(probe.stdout))
    info["git_commit"] = None   # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    return info


# ---------------------------------------------------------------------------
# Output checks and digests
# ---------------------------------------------------------------------------
def _table(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: rows[:, i] for i, name in enumerate(header)}


def _rel_sup(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _stage_checks(stage: str, out, refs: dict) -> list[tuple[bool, str]]:
    """(passed, description) of each check of one stage's outputs.

    ``out(stage, csv_name)`` reads a CSV written in the same pass.
    """
    checks = []

    def near(what, got, want):
        got = np.ravel(got).tolist()
        checks.append((bool(np.allclose(got, want, rtol=RTOL, atol=0.0)),
                       f"{what} {got} vs reference {want}"))

    def at_most(what, got, limit):
        checks.append((bool(got <= limit), f"{what} {got:.4g} (limit {limit:.4g})"))

    def all_one(what, flags):
        checks.append((bool((flags == 1).all()), f"{what} {flags.tolist()} all 1"))

    if stage == "validate":
        t = out("validate", "validation_report.csv")
        all_one("validation pass_inversion", t["pass_inversion"])
        all_one("validation pass_resonance", t["pass_resonance"])
    elif stage == "foldy":
        what = "foldy vs screen field rel sup diff"
        diff = _rel_sup(out("foldy", "foldy_field.csv")["u_sc"],
                        out("effective", "effective_field.csv")["w_sc"])
        if "foldy_vs_screen" in refs:
            near(what, diff, [refs["foldy_vs_screen"]])
        else:
            at_most(what, diff, refs["foldy_vs_screen_max"])
    elif stage == "cq":
        at_most("CQ vs time-domain y rel sup diff",
                _rel_sup(out("cq", "cq_traces.csv")["y"],
                         out("effective", "effective_traces.csv")["y"]),
                refs["cq_vs_td"])
        all_one("resolvent bound_ok", out("cq", "resolvent_diag.csv")["bound_ok"])
    elif stage == "compare":
        t = out("compare", "compare_errors.csv")
        for key, want in refs["compare"].items():
            near(f"compare {key}", t[key], [want])
    elif stage == "regimes":
        near("regimes sup_wsc", out("regimes", "regimes.csv")["sup_wsc"],
             refs["regimes_sup_wsc"])
    elif stage == "counting":
        t = out("counting", "counting.csv")
        for k in np.unique(t["k"]):
            ratio = t["ratio"][t["k"] == k]
            at_most(f"counting ratio growth over d at k={k:g}", ratio[-1] / ratio[0],
                    refs["counting_growth"])
    elif stage == "sweep":
        near("sweep l2_err", out("sweep", "sweep.csv")["l2_err"], refs["sweep_l2"])
        near("sweep slope", out("sweep", "sweep_fit.csv")["slope"], [refs["sweep_slope"]])
    return checks


def check_pass(pass_dir: Path, workload: Workload) -> dict[str, list[tuple[bool, str]]]:
    def out(stage, name):
        return _table(pass_dir / stage / name)

    checks = {}
    for stage in workload.stages:
        try:
            checks[stage] = _stage_checks(stage, out, workload.refs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks[stage] = [(False, f"unreadable output: {exc!r}")]
    return checks


def run_pass(workload: Workload, seed: int, pass_dir: Path, env: dict,
             traced: bool = False) -> PassResult:
    pass_dir.mkdir(parents=True)
    runs = []
    for stage in workload.stages:
        launcher = (["-m", "bubblescreen.cli"] if not traced else
                    [str(BENCH_DIR / "traced_stage.py"), str(pass_dir / f"{stage}.spans.json")])
        argv = [sys.executable, *launcher, stage, "--config", workload.config,
                "--outdir", str(pass_dir / stage), "--seed", str(seed)]
        runs.append(timed_process(stage, argv, env, pass_dir / f"{stage}.log"))
    checks = check_pass(pass_dir, workload)
    for run in runs:
        if run.code != 0:
            log = (pass_dir / f"{run.stage}.log").read_text(errors="replace")
            checks[run.stage].insert(0, (False, f"exit code {run.code}: {log[-400:]!r}"))
    digests, sizes = {}, {}
    for path in sorted(pass_dir.glob("*/*.csv")):
        data = path.read_bytes()
        key = f"{path.parent.name}/{path.name}"
        digests[key] = hashlib.sha256(data).hexdigest()
        sizes[key] = (data.count(b"\n") - 1, len(data))
    return PassResult(runs, checks, digests, sizes)


def compare_digests(first: PassResult, other: PassResult) -> None:
    """Record a failure on every stage of ``other`` whose CSVs changed."""
    for key in sorted(set(first.digests) | set(other.digests)):
        if first.digests.get(key) != other.digests.get(key):
            other.checks[key.split("/")[0]].append((False, f"digest of {key} changed"))


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------
def layer_metrics(span_sets: list[list]) -> tuple[dict, dict]:
    """(metrics printed on every workload, workload-specific metrics)."""
    total = defaultdict(float)      # outermost spans of each layer
    self_time = defaultdict(float)
    calls = defaultdict(int)
    nested = defaultdict(float)     # (layer, enclosing layer) -> time
    nested_calls = defaultdict(int)
    extras = defaultdict(list)
    march_by_eps = defaultdict(float)
    for spans in span_sets:
        child = [0.0] * len(spans)
        for layer, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        eps = None
        for i, (layer, t0, t1, parent, extra) in enumerate(spans):
            dur = t1 - t0
            enclosing = set()
            p = parent
            while p >= 0:
                enclosing.add(spans[p][0])
                p = spans[p][3]
            if layer not in enclosing:
                total[layer] += dur
                calls[layer] += 1
            self_time[layer] += dur - child[i]
            for outer in enclosing:
                nested[layer, outer] += dur
                nested_calls[layer, outer] += 1
            if extra is not None:
                extras[layer].append(extra)
                if layer == "experiments.build_scene":
                    eps = extra["eps"]
            if layer == "stepping.march":
                march_by_eps[eps] += dur

    marches = extras["stepping.march"]
    steps = sum(m["steps"] for m in marches)
    pairs = sum(m["n"] * (m["n"] - 1) for m in marches)
    # Each RK4 step evaluates the delayed sum at its four stages and once more
    # at the new node, after one evaluation at t = 0.
    rk_calls = sum(5 * m["steps"] + 1 for m in marches)
    pair_evals = sum(m["n"] * (m["n"] - 1) * (5 * m["steps"] + 1) for m in marches)
    march_s = total["stepping.march"]
    csv_rows = sum(e["rows"] for e in extras["experiments.write_csv"])
    csv_mb = sum(e["bytes"] for e in extras["experiments.write_csv"]) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    common = {"cli.import_s": (total["cli.import"], "s"),
              "cli.run_s": (total["cli.run"], "s"),
              # the forcing inside each RK stage, not incident fields or CQ sources
              "sources.pulse_eval_s": (nested["sources.pulse_eval", "stepping.rk_stage"], "s")}
    for layer in SPAN_TIMES:
        common[f"{layer}_s"] = (total[layer], "s")
    for layer in SELF_TIMES:
        common[f"{layer}_self_s"] = (self_time[layer], "s")
    common.update({
        "geometry.patches": (sum(e["patches"] for e in extras["geometry.partition"]), "count"),
        "geometry.bubbles": (sum(e["bubbles"] for e in extras["geometry.place_bubbles"]), "count"),
        "experiments.csv_rows": (csv_rows, "count"),
        "experiments.csv_mb": (csv_mb, "MB"),
        "experiments.csv_mb_per_s": (ratio(csv_mb, total["experiments.write_csv"]), "MB/s"),
        "stepping.march_step_ms": (ratio(1e3 * march_s, steps), "ms"),
        "stepping.rk_stage_us": (ratio(1e6 * total["stepping.rk_stage"],
                                       calls["stepping.rk_stage"]), "us"),
        "stepping.rk_stage_self_us": (ratio(1e6 * self_time["stepping.rk_stage"],
                                            calls["stepping.rk_stage"]), "us"),
        "stepping.interp_share": (ratio(nested["stepping.interp", "stepping.march"],
                                        march_s), "ratio"),
        "stepping.steps": (steps, "count"),
        "stepping.pairs": (pairs, "count"),
        "stepping.rk_stage_calls": (rk_calls, "count"),
        "stepping.pair_evals_per_s": (ratio(pair_evals, march_s), "1/s"),
        "stepping.h_over_tau_min": (max((m["h"] / m["min_delay"] for m in marches),
                                        default=0.0), "ratio"),
        # (Y, Y', Y'', slope) history arrays of the largest march, from sizes
        "stepping.history_mb_computed": (max((4 * 8 * (m["steps"] + 1) * m["n"] / 1e6
                                              for m in marches), default=0.0), "MB"),
    })

    specific = {}
    if calls["laplace_cq.cq_solve"]:
        key = ("laplace_cq.laplace_solve", "laplace_cq.cq_solve")
        solves = extras["laplace_cq.laplace_solve"]
        specific.update({
            "laplace_cq.cq_solve_s": (total["laplace_cq.cq_solve"], "s"),
            "laplace_cq.solve_per_freq_ms": (ratio(1e3 * nested[key], nested_calls[key]), "ms"),
            "laplace_cq.frequencies": (nested_calls[key], "count"),
            "laplace_cq.resolvent_sweep_s": (total["laplace_cq.resolvent_sweep"], "s"),
            "laplace_cq.max_residual": (max(e["residual"] for e in solves), "ratio"),
            "laplace_cq.min_bound_margin": (min(e["margin"] for e in solves), "norm"),
        })
    points = sorted((e, t) for e, t in march_by_eps.items() if e is not None)
    if len(points) >= 2:
        x = np.log([e for e, _ in points])
        y = np.log([t for _, t in points])
        coef, res = np.polyfit(x, y, 1, full=True)[:2]
        specific["stepping.cost_exponent"] = (float(coef[0]), "ratio")
        specific["stepping.cost_exponent_residual"] = (float(res[0]) if len(res) else 0.0,
                                                       "ratio")
    specific["stepping.rk_stage_calls_measured"] = (calls["stepping.rk_stage"], "count")
    return common, specific


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def _emit_pass(emit, label: str, result: PassResult) -> None:
    for run in result.runs:
        emit(f"stage {label} {run.stage} {run.seconds:.4f} s rss {run.rss_mb:.1f} MiB "
             f"exit {run.code}")
    for stage, checks in result.checks.items():
        for ok, text in checks:
            emit(f"check {label} {stage} {'ok' if ok else 'FAIL'} {text}")


def _emit_metrics(emit, prefix: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        emit(f"{prefix} {name} {value!r} {unit}")


def _emit_csvs(emit, result: PassResult) -> None:
    for key, digest in result.digests.items():
        rows, size = result.csv_sizes[key]
        emit(f"csv {key} rows {rows} bytes {size} sha256 {digest}")


def _emit_counters(emit, stage: str, spans: list) -> None:
    """Scene and march counters read from public objects, beside march times."""
    for layer, t0, t1, _, extra in spans:
        if layer == "experiments.build_scene" and extra is not None:
            emit(f"scene {stage} eps {extra['eps']!r} bubbles {extra['bubbles']} "
                 f"nodes {extra['nodes']}")
        elif layer == "stepping.march" and extra is not None:
            n, steps = extra["n"], extra["steps"]
            emit(f"march {stage} n {n} pairs {n * (n - 1)} steps {steps} h {extra['h']!r} "
                 f"min_delay {extra['min_delay']!r} rk_stage_calls {5 * steps + 1} "
                 f"{t1 - t0:.4f} s")


def _untraced(workload, seed, seconds, work, env, emit):
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.config,
             str(seed), ",".join(workload.stages)]
    setups = []
    for i in range(SETUP_REPS):
        run = timed_process("setup", probe, env, work / f"setup{i}.log")
        if run.code != 0:
            log = (work / f"setup{i}.log").read_text(errors="replace")
            raise BenchError(f"set-up probe failed with exit code {run.code}: {log[-400:]}")
        setups.append(run.seconds)
        emit(f"setup {i} {run.seconds:.4f} s rss {run.rss_mb:.1f} MiB")

    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = run_pass(workload, seed, work / f"pass{len(passes)}", env)
        if passes:
            compare_digests(passes[0], result)
        _emit_pass(emit, f"pass{len(passes)}", result)
        passes.append(result)

    _emit_csvs(emit, passes[0])
    stage_s = {f"{stage}_s": (statistics.median(r.seconds for p in passes for r in p.runs
                                                if r.stage == stage), "s")
               for stage in workload.stages}
    _emit_metrics(emit, "stage_time", stage_s)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p.runs) for p in passes),
                        "MiB"),
    }
    return passes, metrics


def _traced(workload, seed, work, env, emit):
    base = run_pass(workload, seed, work / "untraced", env)
    _emit_pass(emit, "untraced", base)
    traced = run_pass(workload, seed, work / "traced", env, traced=True)
    compare_digests(base, traced)
    _emit_pass(emit, "traced", traced)
    _emit_csvs(emit, base)

    span_sets = []
    for stage in workload.stages:
        path = work / "traced" / f"{stage}.spans.json"
        if path.exists():
            data = json.loads(path.read_text())
            span_sets.append(data["spans"])
            _emit_counters(emit, stage, data["spans"])
            if data["missing"]:
                emit(f"missing_targets {stage} {' '.join(data['missing'])}")
    common, specific = layer_metrics(span_sets)
    common["trace.overhead_ratio"] = (traced.wall / base.wall, "ratio")
    _emit_metrics(emit, "layer", specific)
    return [base, traced], common


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  emit=print) -> dict:
    """Run one workload and return the result object printed as the last line."""
    if not (ROOT / "src" / "bubblescreen" / "cli.py").is_file():
        raise BenchError(f"no bubblescreen sources under {ROOT / 'src'}")
    if not (ROOT / workload.config).is_file():
        raise BenchError(f"config {workload.config} not found")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = stage_env()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        emit("env " + json.dumps(environment(workload, seed, env), sort_keys=True))
        if trace:
            passes, metrics = _traced(workload, seed, work, env, emit)
        else:
            passes, metrics = _untraced(workload, seed, seconds, work, env, emit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    _emit_metrics(emit, "metric", metrics)
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(len(p.failed_stages) for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running stage is stopped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), emit=lambda line: print(line, flush=True))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
