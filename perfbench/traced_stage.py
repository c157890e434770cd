"""Run one bubblescreen CLI stage with the package's layers wrapped in spans.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/traced_stage.py SPANS_JSON STAGE --config ... --outdir ...

Each wrapped call records a span ``[layer, start, end, parent, extra]`` in
memory; ``extra`` holds counters read from the call's public arguments and
result after the span has ended.  The spans are written to SPANS_JSON when the
stage returns, and the process exits with the CLI's exit code.

Callers import many names directly (``from .foldy import assemble``), so a
module-level function is replaced in every ``bubblescreen`` module that holds
it; methods are replaced on their class.  A target the package no longer has
is reported on stderr and simply records no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

PACKAGE = "bubblescreen"
_clock = time.perf_counter


def _scene_extra(args, scene):
    return {"eps": scene.eps, "bubbles": scene.cluster.n, "nodes": scene.rule.m}


def _csv_extra(args, path):
    session = args[0]
    return {"rows": session.outputs[-1]["rows"], "bytes": Path(path).stat().st_size}


def _march_extra(args, trace):
    network, grid = args[0], args[1]
    return {"n": network.n, "steps": grid.steps, "h": grid.h,
            "min_delay": network.min_delay}


def _laplace_extra(args, sol):
    return {"residual": sol.residual, "margin": sol.bound - sol.sol_norm}


# layer -> ((module, attribute or Class.method), ...), counter reader
TARGETS = {
    "config.load": ((("config", "ExperimentConfig.load"),), None),
    "materials.geometric_constant": ((("materials", "geometric_constant"),), None),
    "materials.validate_conditions": ((("materials", "validate_conditions"),), None),
    "geometry.partition": ((("geometry", "partition"),),
                           lambda args, pw: {"patches": pw.m}),
    "geometry.place_bubbles": ((("geometry", "place_bubbles"),),
                               lambda args, cl: {"bubbles": cl.n}),
    "experiments.build_scene": ((("experiments", "build_scene"),), _scene_extra),
    "experiments.write_csv": ((("experiments", "OutputSession.write_csv"),), _csv_extra),
    "sources.pulse_eval": ((("sources", "pulse_eval"),), None),
    "foldy.network_build": ((("foldy", "DelaySystem.__init__"),), None),
    "foldy.field": ((("foldy", "scattered_series"),), None),
    "effective.build_rule": ((("effective", "build_rule"),), None),
    "effective.grid": ((("effective", "effective_grid"),), None),
    "effective.network_build": ((("effective", "EffectiveSystem.__init__"),), None),
    "effective.field": ((("effective", "EffectiveField.scattered"),
                         ("effective", "EffectiveField.total")), None),
    "stepping.march": ((("stepping", "DelayNetwork.solve"),), _march_extra),
    "stepping.rk_stage": ((("stepping", "DelayNetwork.accel_all"),), None),
    "stepping.interp": ((("stepping", "Trace.accel_at"), ("stepping", "Trace.value_at")),
                        None),
    "laplace_cq.cq_solve": ((("laplace_cq", "cq_solve"),), None),
    "laplace_cq.laplace_solve": ((("laplace_cq", "laplace_solve"),), _laplace_extra),
    "laplace_cq.resolvent_sweep": ((("laplace_cq", "resolvent_sweep"),), None),
}


class Tracer:
    """Spans of one process, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer, fn, counters=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, _clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
            if counters is not None:
                span[4] = counters(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that were not found."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        missing = []
        for layer, (targets, counters) in TARGETS.items():
            for modname, attr in targets:
                try:
                    mod = importlib.import_module(f"{PACKAGE}.{modname}")
                except ImportError:
                    mod = None
                owner, _, name = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                raw = vars(holder).get(name) if holder is not None else None
                if raw is None:
                    missing.append(f"{modname}.{attr}")
                elif owner:
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.wrap(layer, raw.__func__, counters))
                    else:
                        wrapped = self.wrap(layer, raw, counters)
                    setattr(holder, name, wrapped)
                else:
                    wrapped = self.wrap(layer, raw, counters)
                    for m in modules:
                        if getattr(m, name, None) is raw:
                            setattr(m, name, wrapped)
        return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = _clock()
    from bubblescreen import cli
    tracer.spans.append(["cli.import", t0, _clock(), -1, None])
    missing = tracer.install()
    if missing:
        print(f"traced_stage: not found, not traced: {', '.join(missing)}",
              file=sys.stderr)
    run_cli = tracer.wrap("cli.run", cli.run_cli)
    try:
        return run_cli(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans,
                                                "missing": missing}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
