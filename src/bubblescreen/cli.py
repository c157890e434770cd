"""Command-line interface: one subcommand per stage in ``experiments.STAGES``.

Subcommands: validate, foldy, effective, cq, compare, sweep, regimes,
counting.  Each loads the config, applies the flags as overrides of config
scalars and runs its stage through ``experiments.run_stage``.  Exit codes: 0
success, 2 config or usage error (a march whose memory estimate exceeds the
budget included) or an output directory that cannot be written, 3 solver
error, a stage that runs out of memory all the same included.  A failed
stage leaves none of its partial outputs behind.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, parse_override_list
from .errors import BubblescreenError, ConfigError
from .experiments import STAGES, run_stage


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblescreen",
        description="Time-domain bubble-cluster scattering and its effective "
                    "dispersive-screen model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--outdir", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--eps", type=str, default=None,
                       help="single-run eps (accepts fractions like 1/64)")
        p.add_argument("--eps-list", type=str, default=None,
                       help="comma list for sweeps, e.g. '1/64,1/128,1/256'")
        p.add_argument("--horizon", type=float, default=None, dest="T",
                       help="time horizon T")
        p.add_argument("--surface-kind", choices=("disk", "sphere"), default=None)
    return parser


def _overrides_from_args(args) -> dict:
    over: dict = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.eps is not None:
        eps = parse_override_list(args.eps)
        if len(eps) != 1:
            raise ConfigError(f"--eps takes one value, got {args.eps!r}")
        over.setdefault("run", {})["eps"] = eps[0]
    if args.T is not None:
        over.setdefault("run", {})["T"] = args.T
    if args.eps_list is not None:
        over.setdefault("sweep", {})["eps_list"] = parse_override_list(args.eps_list)
    if args.surface_kind is not None:
        over["surface"] = {"kind": args.surface_kind}
    return over


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = ExperimentConfig.load(args.config, _overrides_from_args(args))
        run_stage(args.command, config, args.outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BubblescreenError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"solver error: out of memory{detail}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
