"""Experiment stages: scene assembly, solver runs, sweeps, and CSV artifacts.

Every stage writes CSVs with a header row plus a JSON run manifest (config
hash, seed, versions, output list).  Runtimes are recorded in the manifest
only, keeping the CSVs bitwise reproducible for a fixed config and seed.
Partial outputs are deleted if a stage fails.

CSVs are written column-wise: a stage hands ``OutputSession.write_csv`` one
array per column, and each column is converted to text once per block of
rows (floats by ``repr``, so every value round-trips exactly).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .effective import (EffectiveField, EffectiveSystem, QuadratureRule,
                        build_rule, effective_grid)
from .errors import ConfigError, UsageError
from .foldy import assemble, scattered_series
from .geometry import (BubbleCluster, Patchwork, build_surface,
                       counting_scaling_check, partition, place_bubbles)
from .laplace_cq import CQScheme, cq_solve, resolvent_sweep
from .materials import (PhysicalParams, RawMaterials, ShapeDescriptor,
                        derive_params, validate_conditions)
from .sources import PointSource, SourcePulse
from .stepping import TimeGrid

OUTPUT_ROOT_ENV = "BUBBLESCREEN_OUT_ROOT"


# ---------------------------------------------------------------------------
# Output session: CSV writing, manifest, cleanup on failure
# ---------------------------------------------------------------------------
# Rows converted to text at a time.  Every cell becomes a str object of about
# 70 bytes, so larger blocks raise a stage's peak memory, not its speed.
CSV_BLOCK_ROWS = 1024


def _column_text(col: np.ndarray) -> list[str]:
    """Cells of one column: repr for floats, 0/1 for bools, str otherwise."""
    if col.dtype == np.bool_:
        return [("0", "1")[v] for v in col.tolist()]
    if col.dtype.kind == "f":
        return list(map(repr, col.tolist()))
    return list(map(str, col.tolist()))


def _long_columns(times: np.ndarray, *fields: np.ndarray) -> list[np.ndarray]:
    """Columns (time, id, *fields) of (ids, times) arrays, id-major: every
    time of id 0, then of id 1, ...  The times are converted to text once
    and the strings repeated for every id."""
    n = fields[0].shape[0]
    time_text = np.array(_column_text(np.asarray(times)), dtype=object)
    return [np.tile(time_text, n), np.repeat(np.arange(n), len(times)),
            *(np.ravel(f) for f in fields)]


def _dict_columns(rows: list[dict], keys) -> list[list]:
    return [[r[k] for r in rows] for k in keys]


class OutputSession:
    """Collects output files for one stage; deletes partials on failure."""

    def __init__(self, config: ExperimentConfig, command: str,
                 outdir: str | os.PathLike | None = None):
        root = os.environ.get(OUTPUT_ROOT_ENV, "")
        base = Path(outdir) if outdir is not None else Path(config.output_dir)
        if root and not base.is_absolute():
            base = Path(root) / base
        self.dir = base
        self.config = config
        self.command = command
        self.outputs: list[dict] = []
        self.timings: dict[str, float] = {}
        self.march: dict[str, dict] = {}

    def __enter__(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for entry in self.outputs:
                try:
                    (self.dir / entry["path"]).unlink(missing_ok=True)
                except OSError:
                    pass
            return False
        self._write_manifest()
        return False

    def write_csv(self, name: str, header: list[str], columns) -> Path:
        """Write one CSV from a header and one 1-D sequence per column.

        The file is listed in ``outputs`` before it is opened, so a failure
        while writing deletes it on ``__exit__``.
        """
        cols = [np.asarray(c) for c in columns]
        if len(cols) != len(header) or any(c.ndim != 1 for c in cols):
            raise UsageError(f"{name}: needs one 1-D column per header field "
                             f"({len(header)}), got {len(cols)}")
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise UsageError(f"{name}: columns differ in length: {sorted(lengths)}")
        count = lengths.pop() if lengths else 0
        path = self.dir / name
        entry = {"path": name, "rows": None}
        self.outputs.append(entry)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, count, CSV_BLOCK_ROWS):
                cells = [_column_text(c[lo:lo + CSV_BLOCK_ROWS]) for c in cols]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        entry["rows"] = count
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.dir / name
        path.write_text(text)
        self.outputs.append({"path": name, "rows": text.count("\n")})
        return path

    def _write_manifest(self) -> None:
        manifest = {
            "command": self.command,
            "config_hash": self.config.config_hash(),
            "seed": self.config.seed,
            "versions": {
                "bubblescreen": __version__,
                "numpy": np.__version__,
            },
            "outputs": self.outputs,
            "timings_s": {k: round(v, 3) for k, v in self.timings.items()},
            "march": self.march,
        }
        (self.dir / "run_manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


# ---------------------------------------------------------------------------
# Scene assembly
# ---------------------------------------------------------------------------
@dataclass
class Scene:
    config: ExperimentConfig
    eps: float
    d: float
    surface: object
    patchwork: Patchwork
    cluster: BubbleCluster
    params: PhysicalParams
    source: PointSource
    rule: QuadratureRule


def build_scene(config: ExperimentConfig, eps: float | None = None) -> Scene:
    eps = config.eps if eps is None else float(eps)
    d = float(np.sqrt(eps))  # enforced regime d = sqrt(eps)
    mats = config.data["materials"]
    raw = RawMaterials(
        rho_c=float(mats["rho_c"]), kappa_c=float(mats["kappa_c"]),
        rho_b_bar=float(mats["rho_b_bar"]), kappa_b_bar=float(mats["kappa_b_bar"]),
        eps=eps, lambda1_mag=float(mats["lambda1_mag"]),
    )
    shape = ShapeDescriptor(radius=float(config.data["bubble_shape"]["radius"]))
    params = derive_params(raw, shape)

    surface = build_surface(config.surface_kind, config.surface_area)
    patchwork = partition(surface, d)
    cluster = place_bubbles(patchwork, config.k_function(), eps, seed=config.seed)
    rule = build_rule(patchwork, cluster)

    pconf = config.data["pulse"]
    omega0 = pconf["omega0"]
    omega0 = 1.0 / params.omega_m if omega0 is None else float(omega0)
    pulse = SourcePulse(omega0=omega0, t_rise=float(pconf["t_rise"]),
                        amplitude=float(pconf["amplitude"]))
    source = PointSource(np.asarray(config.data["source"]["position"], float),
                         pulse, rho_c=raw.rho_c, c0=params.c0)

    src_dist = float(surface.surface_distance(source.x0[None, :])[0])
    if src_dist < 5.0 * d:
        raise ConfigError(f"source stand-off {src_dist:.3g} below 5*d = {5*d:.3g}")
    obs = config.observation_points
    obs_dist = surface.surface_distance(obs)
    if np.any(obs_dist < 2.0 * d):
        raise ConfigError("observation points closer than 2*d to the surface")
    return Scene(config=config, eps=eps, d=d, surface=surface, patchwork=patchwork,
                 cluster=cluster, params=params, source=source, rule=rule)


def output_lattice(config: ExperimentConfig) -> np.ndarray:
    n_out = int(config.data["run"]["n_out"])
    return np.linspace(0.0, config.horizon, n_out)


def _run_opts(config: ExperimentConfig) -> dict:
    run = config.data["run"]
    return {"h_max": float(run["h_max"]),
            "strict": run["condition_violation"] == "error"}


# ---------------------------------------------------------------------------
# Field comparison
# ---------------------------------------------------------------------------
def compare_fields(u_samples: np.ndarray, w_samples: np.ndarray, dt: float) -> dict:
    """sup and discrete-L2 norms of the difference on a shared lattice."""
    u = np.asarray(u_samples, float)
    w = np.asarray(w_samples, float)
    if u.shape != w.shape:
        raise UsageError(f"sampling lattices differ: {u.shape} vs {w.shape}")
    diff = u - w
    return {
        "sup": float(np.max(np.abs(diff))) if diff.size else 0.0,
        "l2": float(np.sqrt((diff**2).sum() * dt)),
    }


def _solve_foldy_scene(scene: Scene, t_out: np.ndarray):
    """Bubble traces, probe fields and the march counters of the Foldy model."""
    opts = _run_opts(scene.config)
    system = assemble(scene.cluster, scene.params, scene.source, strict=opts["strict"])
    grid = TimeGrid.fit(scene.config.horizon, opts["h_max"])
    traces = system.solve(grid)
    fields = scattered_series(traces, scene.cluster, scene.params,
                              scene.config.observation_points, t_out)
    return traces, fields, system.march_counters(grid)


def _solve_effective_scene(scene: Scene, t_out: np.ndarray,
                           params: PhysicalParams | None = None):
    opts = _run_opts(scene.config)
    params = params or scene.params
    grid = effective_grid(scene.rule, params, scene.config.horizon, opts["h_max"])
    system = EffectiveSystem(scene.rule, params, scene.source)
    trace = system.solve(grid)
    field = EffectiveField(scene.rule, trace, params, scene.source)
    wsc = np.stack([field.scattered(p, t_out)
                    for p in scene.config.observation_points])
    return trace, wsc, system.march_counters(grid)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
def run_validate(config: ExperimentConfig, outdir=None) -> int:
    with OutputSession(config, "validate", outdir) as session:
        t0 = time.perf_counter()
        scene = build_scene(config)
        session.timings["scene"] = time.perf_counter() - t0
        report = validate_conditions(scene.params, scene.cluster)
        session.write_text("validation_report.txt", report.to_text())
        row = asdict(report)
        session.write_csv("validation_report.csv", list(row), _dict_columns([row], row))
        cl = scene.cluster
        session.write_csv("cluster.csv",
                          ["patch_id", "bubble_id", "x", "y", "z", "count"],
                          [cl.patch_ids, np.arange(cl.n), *cl.centers.T,
                           cl.counts[cl.patch_ids]])
    return 0


def run_foldy(config: ExperimentConfig, outdir=None) -> int:
    with OutputSession(config, "foldy", outdir) as session:
        t0 = time.perf_counter()
        scene = build_scene(config)
        t1 = time.perf_counter()
        t_out = output_lattice(config)
        traces, fields, session.march["foldy"] = _solve_foldy_scene(scene, t_out)
        session.timings["scene"] = t1 - t0
        session.timings["solve"] = time.perf_counter() - t1
        session.write_csv("foldy_traces.csv",
                          ["time", "bubble_id", "y", "y_rate", "y_acc"],
                          _long_columns(traces.times, traces.value.T, traces.rate.T,
                                        traces.acc.T))
        session.write_csv("foldy_field.csv", ["time", "probe_id", "u_sc"],
                          _long_columns(t_out, fields))
    return 0


def run_effective(config: ExperimentConfig, outdir=None) -> int:
    with OutputSession(config, "effective", outdir) as session:
        t0 = time.perf_counter()
        scene = build_scene(config)
        t1 = time.perf_counter()
        t_out = output_lattice(config)
        trace, wsc, session.march["effective"] = _solve_effective_scene(scene, t_out)
        session.timings["scene"] = t1 - t0
        session.timings["solve"] = time.perf_counter() - t1
        session.write_csv("effective_traces.csv",
                          ["time", "node_id", "u", "u_rate", "y"],
                          _long_columns(trace.times, trace.value.T, trace.rate.T,
                                        trace.acc.T))
        session.write_csv("effective_field.csv", ["time", "probe_id", "w_sc"],
                          _long_columns(t_out, wsc))
        rule = scene.rule
        session.write_csv("rule.csv",
                          ["node_id", "x", "y", "z", "weight", "density", "self_term"],
                          [np.arange(rule.m), *rule.nodes.T, rule.weights,
                           rule.density, rule.self_terms])
    return 0


def run_cq(config: ExperimentConfig, outdir=None) -> int:
    with OutputSession(config, "cq", outdir) as session:
        t0 = time.perf_counter()
        scene = build_scene(config)
        t1 = time.perf_counter()
        opts = _run_opts(config)
        grid = effective_grid(scene.rule, scene.params, config.horizon, opts["h_max"])
        scheme = CQScheme.for_grid(grid)
        y = cq_solve(scene.rule, scene.params, scheme, scene.source)
        session.timings["scene"] = t1 - t0
        session.timings["solve"] = time.perf_counter() - t1
        session.write_csv("cq_traces.csv", ["time", "node_id", "y"],
                          _long_columns(grid.times, y.T))

        rng = np.random.default_rng(config.seed)
        s_vals = rng.uniform(0.5, 4.0, 16) + 1j * rng.uniform(-4.0, 4.0, 16)
        rhs = [rng.normal(size=scene.rule.m) + 1j * rng.normal(size=scene.rule.m)
               for _ in s_vals]
        diag = resolvent_sweep(scene.rule, scene.params, s_vals, rhs)
        session.write_csv("resolvent_diag.csv", list(diag[0]),
                          _dict_columns(diag, diag[0]))
    return 0


_ERROR_KEYS = ["eps", "d", "m_bubbles", "m_nodes", "sup_err", "l2_err", "u_scale"]


def run_compare(config: ExperimentConfig, eps: float | None = None,
                session: OutputSession | None = None) -> dict:
    """Foldy vs effective comparison at one eps; returns the error summary."""
    scene = build_scene(config, eps)
    t_out = output_lattice(config)
    t0 = time.perf_counter()
    _, u_sc, foldy_march = _solve_foldy_scene(scene, t_out)
    t_foldy = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, w_sc, effective_march = _solve_effective_scene(scene, t_out)
    t_eff = time.perf_counter() - t0
    dt = t_out[1] - t_out[0]
    errs = compare_fields(u_sc, w_sc, dt)
    result = {
        "eps": scene.eps, "d": scene.d, "m_bubbles": scene.cluster.n,
        "m_nodes": scene.rule.m, "sup_err": errs["sup"], "l2_err": errs["l2"],
        "u_scale": float(np.max(np.abs(u_sc))),
        "_runtime_foldy": t_foldy, "_runtime_effective": t_eff,
        "_u": u_sc, "_w": w_sc, "_t_out": t_out,
        "_march": {"foldy": foldy_march, "effective": effective_march},
    }
    if session is not None:
        session.write_csv("compare_fields.csv", ["time", "probe_id", "u_sc", "w_sc"],
                          _long_columns(t_out, u_sc, w_sc))
        session.write_csv("compare_errors.csv", _ERROR_KEYS,
                          _dict_columns([result], _ERROR_KEYS))
        session.timings["foldy"] = t_foldy
        session.timings["effective"] = t_eff
        session.march.update(result["_march"])
    return result


def run_compare_cmd(config: ExperimentConfig, outdir=None) -> dict:
    with OutputSession(config, "compare", outdir) as session:
        return run_compare(config, session=session)


@dataclass
class ComparisonResult:
    rows: list[dict]
    slope: float
    slope_residual: float


def convergence_sweep(config: ExperimentConfig,
                      session: OutputSession | None = None) -> ComparisonResult:
    """Per-eps foldy/effective comparison plus fitted log-log slope."""
    eps_list = config.eps_list
    if len(eps_list) < 3:
        raise UsageError("convergence sweep needs at least 3 eps values")
    ratios = [a / b for a, b in zip(eps_list[:-1], eps_list[1:])]
    if any(r < 1.5 for r in ratios):
        raise UsageError("eps values must decrease dyadically")
    rows, marches = [], {}
    for eps in eps_list:
        res = run_compare(config, eps=eps)
        rows.append({k: v for k, v in res.items() if not k.startswith("_")}
                    | {"runtime_s": res["_runtime_foldy"] + res["_runtime_effective"]})
        marches[f"eps_{res['eps']}"] = res["_march"]
    errs = np.array([r["l2_err"] for r in rows])
    eps_arr = np.array([r["eps"] for r in rows])
    coef, lsq_res = np.polyfit(np.log(eps_arr), np.log(errs), 1, full=True)[0:2]
    slope = float(coef[0])
    residual = float(lsq_res[0]) if np.size(lsq_res) else 0.0
    result = ComparisonResult(rows=rows, slope=slope, slope_residual=residual)
    if session is not None:
        session.write_csv("sweep.csv", _ERROR_KEYS, _dict_columns(rows, _ERROR_KEYS))
        session.write_csv("sweep_fit.csv", ["slope", "lsq_residual"],
                          [[slope], [residual]])
        for r in rows:
            session.timings[f"eps_{r['eps']}"] = r["runtime_s"]
        session.march.update(marches)
    return result


def run_sweep(config: ExperimentConfig, outdir=None) -> ComparisonResult:
    with OutputSession(config, "sweep", outdir) as session:
        return convergence_sweep(config, session=session)


def regime_sweep(config: ExperimentConfig,
                 session: OutputSession | None = None) -> list[dict]:
    """Scan resonance/coupling scalings; tabulate W_sc size and transmission."""
    cells = config.data["regimes"]["cells"]
    factors = [float(c["omega_factor"]) for c in cells]
    if max(factors) / min(factors) < 100.0:
        raise UsageError("regime factors must span at least 2 decades")
    scene = build_scene(config)
    t_out = output_lattice(config)
    dt = t_out[1] - t_out[0]
    trans_pts = np.asarray(config.data["regimes"]["transmitted_points"], float)
    frac = float(config.data["regimes"]["window_fraction"])
    window = t_out >= (1.0 - frac) * config.horizon
    rows = []
    for cell in cells:
        fom = float(cell["omega_factor"])
        fcp = float(cell.get("coupling_factor", 1.0))
        params = scene.params.with_scaled_resonance(fom).with_scaled_coupling(fcp)
        trace, wsc, _ = _solve_effective_scene(scene, t_out, params=params)
        field = EffectiveField(scene.rule, trace, params, scene.source)
        w_total = np.stack([field.total(p, t_out) for p in trans_pts])
        proxy = float(np.sqrt((w_total[:, window] ** 2).sum() * dt))
        rows.append({
            "omega_factor": fom, "coupling_factor": fcp,
            "sup_wsc": float(np.max(np.abs(wsc))),
            "transmitted_proxy": proxy,
        })
    if session is not None:
        session.write_csv("regimes.csv", list(rows[0]), _dict_columns(rows, rows[0]))
    return rows


def run_regimes(config: ExperimentConfig, outdir=None) -> list[dict]:
    with OutputSession(config, "regimes", outdir) as session:
        return regime_sweep(config, session=session)


def run_counting(config: ExperimentConfig, outdir=None) -> list[dict]:
    with OutputSession(config, "counting", outdir) as session:
        surface = build_surface(config.surface_kind, config.surface_area)
        counting = config.data["counting"]
        rows = counting_scaling_check(surface, counting["d_list"],
                                      [float(k) for k in counting["k_exponents"]],
                                      seed=config.seed)
        session.write_csv("counting.csv", list(rows[0]), _dict_columns(rows, rows[0]))
        return rows
