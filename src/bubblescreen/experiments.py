"""Experiment stages: scene assembly, solver runs, sweeps, and CSV artifacts.

A stage is ``run_<stage>(config, session) -> None``, listed in ``STAGES``
under its command name.  ``run_stage`` is the only code that opens an
``OutputSession``: it hands the stage the session, and when the stage returns
it writes the JSON run manifest (config hash, seed, versions, output list,
timings, march counters and the warnings raised).  If the stage fails, it
deletes the stage's partial outputs and writes no manifest.

A stage times its blocks with ``session.timed(label)``: ``scene`` for building
the scene, ``solve`` for its solves, except that compare and sweep time each
model under ``foldy`` and ``effective`` and sweep each eps under
``eps_<eps>``.  Runtimes are recorded in the manifest only, keeping the CSVs
bitwise reproducible for a fixed config and seed on the same BLAS build, CPU
kernel and BLAS thread count: the march's row dots, slope stencils and
history products, the sphere partition's norms and cq's dense solves are
BLAS or LAPACK calls, whose rounding may change with any of the three (a
DYNAMIC_ARCH OpenBLAS picks its kernel by CPU when it loads).  Every seeded
draw, the bubbles' jitter (``place_bubbles``) and cq's probes (``run_cq``),
is the ``random()`` sequence of ``random.Random(seed)``, which Python keeps
the same across versions; numpy makes no such promise for its generators
(NEP 19), so a numpy upgrade moves no draw behind a CSV.

CSVs are written column-wise: a stage hands ``OutputSession.write_csv`` one
array per column, and each column is converted to text once per block of
rows (floats by ``repr``, so every value round-trips exactly).
"""

from __future__ import annotations

import json
import os
import random
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .effective import (EffectiveField, EffectiveSystem, QuadratureRule,
                        build_rule, effective_grid)
from .errors import ConfigError, UsageError
from .foldy import assemble, scattered_series
from .geometry import (BubbleCluster, build_surface, counting_scaling_check,
                       partition, place_bubbles)
from .laplace_cq import cq_memory, cq_solve, resolvent_sweep
from .materials import (PhysicalParams, RawMaterials, ShapeDescriptor,
                        derive_params, validate_conditions)
from .sources import PointSource, SourcePulse
from .stepping import DelayNetwork, TimeGrid, march_memory

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


def _write_traces(session: OutputSession, name: str, id_name: str, trace) -> None:
    """A march's trace as ``time, <id_name>, u, u_rate, y``: the unknown U,
    its rate and its acceleration, the amplitude Y = U''."""
    session.write_csv(name, ["time", id_name, "u", "u_rate", "y"],
                      _long_columns(trace.times, trace.value.T, trace.rate.T, trace.acc.T))


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
        self.warnings: list[str] = []

    def __enter__(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        # an earlier run's manifest would list outputs a failure here deletes
        (self.dir / "run_manifest.json").unlink(missing_ok=True)
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

    @contextmanager
    def timed(self, label: str):
        """Add the time the ``with`` block takes to ``timings[label]``."""
        t0 = time.perf_counter()
        yield
        self.timings[label] = self.timings.get(label, 0.0) + time.perf_counter() - t0

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
        """Write one text file, listed in ``outputs`` before it is written,
        as ``write_csv`` does."""
        path = self.dir / name
        self.outputs.append({"path": name, "rows": text.count("\n")})
        path.write_text(text)
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
            "warnings": self.warnings,
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
    cluster: BubbleCluster
    params: PhysicalParams
    source: PointSource
    rule: QuadratureRule


def build_scene(config: ExperimentConfig, eps: float | None = None) -> Scene:
    eps = config.eps if eps is None else float(eps)
    d = float(np.sqrt(eps))  # enforced regime d = sqrt(eps)
    raw = RawMaterials(eps=eps, **config.data["materials"])
    shape = ShapeDescriptor(radius=config.data["bubble_shape"]["radius"])
    params = derive_params(raw, shape)

    pconf = config.data["pulse"]
    omega0 = pconf["omega0"]
    omega0 = 1.0 / params.omega_m if omega0 is None else omega0
    pulse = SourcePulse(omega0=omega0, t_rise=pconf["t_rise"], amplitude=pconf["amplitude"])
    source = PointSource(np.asarray(config.data["source"]["position"], float),
                         pulse, rho_c=raw.rho_c, c0=params.c0)

    # the stand-offs need only the surface and d: refuse them before partitioning
    surface = build_surface(config.surface_kind, config.surface_area)
    src_dist = float(surface.surface_distance(source.x0[None, :])[0])
    if src_dist < 5.0 * d:
        raise ConfigError(f"source stand-off {src_dist:.3g} below 5*d = {5*d:.3g}")
    if np.any(surface.surface_distance(config.observation_points) < 2.0 * d):
        raise ConfigError("observation points closer than 2*d to the surface")

    patchwork = partition(surface, d)
    k_function = config.k_function()
    cluster = place_bubbles(patchwork, k_function, eps, seed=config.seed)
    rule = build_rule(patchwork, k_function)
    return Scene(config=config, eps=eps, d=d, cluster=cluster, params=params,
                 source=source, rule=rule)


def output_lattice(config: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, config.horizon, config.data["run"]["n_out"])


def _run_opts(config: ExperimentConfig) -> dict:
    run = config.data["run"]
    return {"h_max": run["h_max"],
            "strict": run["condition_violation"] == "error"}


def _solve_foldy_scene(scene: Scene, t_out: np.ndarray):
    """Bubble traces and probe fields of the Foldy model; the march's memory
    is checked before its network is built, and its counters hold the
    estimate and budget."""
    opts = _run_opts(scene.config)
    grid = TimeGrid.fit(scene.config.horizon, opts["h_max"])
    memory = march_memory(scene.cluster.centers, scene.params.c0, grid)
    system = assemble(scene.cluster, scene.params, scene.source, strict=opts["strict"])
    traces = system.solve(grid)
    traces.counters.update(memory)
    fields = scattered_series(traces, scene.cluster, scene.params,
                              scene.config.observation_points, t_out)
    return traces, fields


def _solve_effective_scene(scene: Scene, t_out: np.ndarray,
                           params: PhysicalParams | None = None):
    """The screen's field, whose ``trace`` is the marched one, and its
    scattered part at the probes; the march's memory is checked as
    ``_solve_foldy_scene`` does."""
    opts = _run_opts(scene.config)
    params = params or scene.params
    grid = effective_grid(scene.rule, params, scene.config.horizon, opts["h_max"])
    memory = march_memory(scene.rule.nodes, params.c0, grid)
    trace = EffectiveSystem(scene.rule, params, scene.source).solve(grid)
    trace.counters.update(memory)
    field = EffectiveField(scene.rule, trace, params, scene.source)
    return field, field.scattered(scene.config.observation_points, t_out)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
def run_validate(config: ExperimentConfig, session: OutputSession) -> None:
    with session.timed("scene"):
        scene = build_scene(config)
    report = validate_conditions(scene.params, scene.cluster)
    session.write_text("validation_report.txt", report.to_text())
    row = asdict(report)
    session.write_csv("validation_report.csv", list(row), _dict_columns([row], row))
    cl = scene.cluster
    session.write_csv("cluster.csv",
                      ["patch_id", "bubble_id", "x", "y", "z", "count"],
                      [cl.patch_ids, np.arange(cl.n), *cl.centers.T,
                       cl.counts[cl.patch_ids]])


def run_foldy(config: ExperimentConfig, session: OutputSession) -> None:
    with session.timed("scene"):
        scene = build_scene(config)
    t_out = output_lattice(config)
    with session.timed("solve"):
        traces, fields = _solve_foldy_scene(scene, t_out)
    session.march["foldy"] = traces.counters
    _write_traces(session, "foldy_traces.csv", "bubble_id", traces)
    session.write_csv("foldy_field.csv", ["time", "probe_id", "u_sc"],
                      _long_columns(t_out, fields))


def run_effective(config: ExperimentConfig, session: OutputSession) -> None:
    with session.timed("scene"):
        scene = build_scene(config)
    t_out = output_lattice(config)
    with session.timed("solve"):
        field, wsc = _solve_effective_scene(scene, t_out)
    session.march["effective"] = field.trace.counters
    _write_traces(session, "effective_traces.csv", "node_id", field.trace)
    session.write_csv("effective_field.csv", ["time", "probe_id", "w_sc"],
                      _long_columns(t_out, wsc))
    rule = scene.rule
    session.write_csv("rule.csv",
                      ["node_id", "x", "y", "z", "weight", "density", "self_term"],
                      [np.arange(rule.m), *rule.nodes.T, rule.weights,
                       rule.density, rule.self_terms])


# Seeded samples at which the cq stage probes the resolvent estimate.
CQ_PROBES = 16


def run_cq(config: ExperimentConfig, session: OutputSession) -> None:
    """The screen's CQ trace on the march's grid, and its resolvent estimate
    probed at ``CQ_PROBES`` seeded samples.

    The samples are the ``random()`` sequence of ``random.Random(seed)``,
    which Python keeps the same for a seed across versions: first each
    probe's s, uniform in [0.5, 4] + i[-4, 4] (real part, then imaginary),
    then each probe's rhs over the m nodes, its real and imaginary parts
    uniform in [-1, 1] (node by node, real part first).  So the stage loads
    no ``numpy.random``.  Its dense solves are checked by ``cq_memory``
    before the network is built, and the manifest's ``march`` block records
    the estimate and the budget under ``cq``.  Both solvers read one matrix
    ``DelayNetwork``, built once from the screen's couplings and delays, so
    no frequency computes the distances again.
    """
    with session.timed("scene"):
        scene = build_scene(config)
    draw = random.Random(config.seed).random
    s_vals = [complex(0.5 + 3.5 * draw(), 8.0 * draw() - 4.0) for _ in range(CQ_PROBES)]
    parts = np.array([draw() for _ in range(2 * CQ_PROBES * scene.rule.m)])
    rhs = (2.0 * parts - 1.0).view(complex).reshape(CQ_PROBES, scene.rule.m)
    with session.timed("solve"):
        grid = effective_grid(scene.rule, scene.params, config.horizon,
                              _run_opts(config)["h_max"])
        session.march["cq"] = cq_memory(scene.rule.m, grid)
        screen = EffectiveSystem(scene.rule, scene.params, scene.source)
        network = DelayNetwork(screen.masses, *screen.block(0, screen.n),
                               screen.forcing, screen.onset)
        y = cq_solve(network, scene.rule.weights, grid)
        diag = resolvent_sweep(network, scene.rule.weights, s_vals, rhs)
    session.write_csv("cq_traces.csv", ["time", "node_id", "y"],
                      _long_columns(grid.times, y.T))
    session.write_csv("resolvent_diag.csv", list(diag[0]), _dict_columns(diag, diag[0]))


_ERROR_KEYS = ["eps", "d", "m_bubbles", "m_nodes", "sup_err", "l2_err", "u_scale"]


def compare_at(config: ExperimentConfig, eps: float, session: OutputSession):
    """Foldy vs effective at one eps, timed into ``session``; writes nothing.

    Returns the error row (``_ERROR_KEYS``), both models' march counters and
    the two models' scattered fields at the probes on the output lattice.
    """
    with session.timed("scene"):
        scene = build_scene(config, eps)
    t_out = output_lattice(config)
    with session.timed("foldy"):
        traces, u_sc = _solve_foldy_scene(scene, t_out)
    # the screen march needs none of the Foldy trace: keep its counters only
    foldy_march = traces.counters
    del traces
    with session.timed("effective"):
        field, w_sc = _solve_effective_scene(scene, t_out)
    diff = u_sc - w_sc
    row = {"eps": scene.eps, "d": scene.d, "m_bubbles": scene.cluster.n,
           "m_nodes": scene.rule.m, "sup_err": float(np.max(np.abs(diff))),
           "l2_err": float(np.sqrt((diff**2).sum() * (t_out[1] - t_out[0]))),
           "u_scale": float(np.max(np.abs(u_sc)))}
    return row, {"foldy": foldy_march, "effective": field.trace.counters}, u_sc, w_sc


def run_compare(config: ExperimentConfig, session: OutputSession) -> None:
    row, march, u_sc, w_sc = compare_at(config, config.eps, session)
    session.march.update(march)
    session.write_csv("compare_fields.csv", ["time", "probe_id", "u_sc", "w_sc"],
                      _long_columns(output_lattice(config), u_sc, w_sc))
    session.write_csv("compare_errors.csv", _ERROR_KEYS,
                      _dict_columns([row], _ERROR_KEYS))


def run_sweep(config: ExperimentConfig, session: OutputSession) -> None:
    """Per-eps foldy/effective comparison plus fitted log-log slope."""
    eps_list = config.eps_list
    if len(eps_list) < 3:
        raise UsageError("convergence sweep needs at least 3 eps values")
    ratios = [a / b for a, b in zip(eps_list[:-1], eps_list[1:])]
    if any(r < 1.5 for r in ratios):
        raise UsageError("each eps of the sweep must be at least 1.5 times the next, got ratios "
                         + ", ".join(f"{r:.3g}" for r in ratios))
    rows = []
    for eps in eps_list:
        with session.timed(f"eps_{eps}"):
            row, session.march[f"eps_{eps}"], _, _ = compare_at(config, eps, session)
        rows.append(row)
    errs = np.array([r["l2_err"] for r in rows])
    coef, lsq_res = np.polyfit(np.log(eps_list), np.log(errs), 1, full=True)[0:2]
    residual = float(lsq_res[0]) if np.size(lsq_res) else 0.0
    session.write_csv("sweep.csv", _ERROR_KEYS, _dict_columns(rows, _ERROR_KEYS))
    session.write_csv("sweep_fit.csv", ["slope", "lsq_residual"],
                      [[float(coef[0])], [residual]])


def run_regimes(config: ExperimentConfig, session: OutputSession) -> None:
    """Scan resonance/coupling scalings; tabulate W_sc size and transmission."""
    cells = config.data["regimes"]["cells"]
    factors = [c["omega_factor"] for c in cells]
    if max(factors) / min(factors) < 100.0:
        raise UsageError("regime factors must span at least 2 decades")
    with session.timed("scene"):
        scene = build_scene(config)
    t_out = output_lattice(config)
    dt = t_out[1] - t_out[0]
    trans_pts = np.asarray(config.data["regimes"]["transmitted_points"], float)
    frac = config.data["regimes"]["window_fraction"]
    window = t_out >= (1.0 - frac) * config.horizon
    rows = []
    for cell in cells:
        fom, fcp = cell["omega_factor"], cell.get("coupling_factor", 1.0)
        params = scene.params.with_scaled_resonance(fom).with_scaled_coupling(fcp)
        with session.timed("solve"):
            field, wsc = _solve_effective_scene(scene, t_out, params=params)
            w_total = field.total(trans_pts, t_out)
        proxy = float(np.sqrt((w_total[:, window] ** 2).sum() * dt))
        rows.append({
            "omega_factor": fom, "coupling_factor": fcp,
            "sup_wsc": float(np.max(np.abs(wsc))),
            "transmitted_proxy": proxy,
        })
    session.write_csv("regimes.csv", list(rows[0]), _dict_columns(rows, rows[0]))


def run_counting(config: ExperimentConfig, session: OutputSession) -> None:
    surface = build_surface(config.surface_kind, config.surface_area)
    counting = config.data["counting"]
    with session.timed("solve"):
        rows = counting_scaling_check(surface, counting["d_list"], counting["k_exponents"],
                                      seed=config.seed)
    session.write_csv("counting.csv", list(rows[0]), _dict_columns(rows, rows[0]))


# command name -> stage, in the CLI's order
STAGES = {
    "validate": run_validate,
    "foldy": run_foldy,
    "effective": run_effective,
    "cq": run_cq,
    "compare": run_compare,
    "sweep": run_sweep,
    "regimes": run_regimes,
    "counting": run_counting,
}


def run_stage(command: str, config: ExperimentConfig, outdir=None) -> None:
    """Run stage ``command`` in its own output session.

    Every warning the stage raises is listed in the manifest and still shown
    as usual (on stderr, by default).
    """
    with OutputSession(config, command, outdir) as session, warnings.catch_warnings():
        show = warnings.showwarning

        def record(message, *args, **kwargs):
            session.warnings.append(str(message))
            show(message, *args, **kwargs)

        warnings.showwarning = record
        STAGES[command](config, session)
