"""Set-up work of one workload, with no solve: the benchmark times this process.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/setup_probe.py CONFIG SEED STAGE[,STAGE...]

Imports the package, loads the config and builds the scene for every eps the
stages use: the sweep's eps list for ``sweep``, the run eps for the others.
"""

import sys

# Importing any module runs the package __init__, which imports every module.
from bubblescreen.config import ExperimentConfig
from bubblescreen.experiments import build_scene


def main(config_path: str, seed: str, stages: str) -> None:
    config = ExperimentConfig.load(config_path, {"seed": int(seed)})
    stages = stages.split(",")
    eps_values = config.eps_list if "sweep" in stages else []
    if any(s != "sweep" for s in stages):
        eps_values.append(config.eps)
    for eps in dict.fromkeys(eps_values):
        build_scene(config, eps)


if __name__ == "__main__":
    main(*sys.argv[1:])
