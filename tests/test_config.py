import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from bubblescreen import ExperimentConfig
from bubblescreen.cli import _build_parser, _overrides_from_args
from bubblescreen.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", ["configs/default.yaml",
                                  "perfbench/configs/sphere_cluster.yaml"])
def test_committed_configs_load(path):
    ExperimentConfig.load(ROOT / path)


@pytest.mark.parametrize("path", ["configs/default.yaml",
                                  "perfbench/configs/sphere_cluster.yaml"])
def test_libyaml_loader_parses_like_the_python_one(path):
    text = (ROOT / path).read_text()
    fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert fast == yaml.load(text, Loader=yaml.SafeLoader)
    assert ExperimentConfig.load(ROOT / path).data == ExperimentConfig.from_dict(fast).data


def test_user_k_section_replaces_default():
    cfg = ExperimentConfig.from_dict({"k": {"name": "linear_axis", "scale": 4}})
    assert cfg.data["k"] == {"name": "linear_axis", "scale": 4}
    assert cfg.k_function().label == "linear_axis:4.0:0.5:2"
    assert ExperimentConfig.from_dict({}).k_function().label == "constant:0.0"


@pytest.mark.parametrize("raw", [
    {"run": {"epss": 0.01}},
    {"surface": {"areaa": 2.0}},
    {"sead": 3},
    {"k": {"constant": 1.0, "scale": 2.0}},
    {"k": {"name": "linear_axis", "slope": 2.0}},
    {"k": {"name": "quadratic"}},
    {"regimes": {"cells": [{"omega_factor": 1.0, "coupling_facter": 2.0}]}},
    {"pulse": 1.0},
    {"sweep": {"d_list": [0.125, 0.0625, 0.03125]}},   # d = sqrt(eps) always: not a key
])
def test_unknown_keys_rejected(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_optional_keys_accepted():
    cfg = ExperimentConfig.from_dict({
        "k": {"name": "linear_axis", "scale": 2.0, "offset": 0.25, "axis": 0},
    })
    assert cfg.k_function().label == "linear_axis:2.0:0.25:0"


@pytest.mark.parametrize("raw, key", [
    ({"k": {"constant": "abc"}}, "k.constant"),
    ({"run": {"T": "abc"}}, "run.T"),
    ({"run": {"n_out": "12.5"}}, "run.n_out"),
    ({"run": {"observation_points": [[0.0, 0.0, "x"]]}}, "run.observation_points[0][2]"),
    ({"sweep": {"eps_list": 0.01}}, "sweep.eps_list"),
    ({"regimes": {"cells": [{"omega_factor": None}]}}, "regimes.cells[0].omega_factor"),
    ({"materials": {"rho_c": True}}, "materials.rho_c"),
    ({"run": {"n_out": 12.5}}, "run.n_out"),
    ({"seed": 3.7}, "seed"),
    ({"k": {"name": "linear_axis", "scale": 2.0, "axis": 0.5}}, "k.axis"),
])
def test_value_types_rejected(raw, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        ExperimentConfig.from_dict(raw)


def test_numeric_strings_become_numbers():
    # YAML 1.1 reads 1e-3 (no dot) as a string
    cfg = ExperimentConfig.from_dict({"run": {"eps": "1e-3"}, "seed": "3",
                                      "counting": {"d_list": ["0.25", 0.125]}})
    assert cfg.data["run"]["eps"] == 1e-3
    assert cfg.data["seed"] == 3
    assert cfg.data["counting"]["d_list"] == [0.25, 0.125]
    assert cfg.data["pulse"]["omega0"] is None


def test_numbers_take_their_defaults_type(tmp_path):
    # T: 8, T: 8.0, T: "8", a YAML 8 and --horizon 8 are one run with one
    # hash, the default's; a float written for an integer key reads as one
    written = [{"run": {"T": 8}}, {"run": {"T": 8.0}}, {"run": {"T": "8"}}]
    hashes = {ExperimentConfig.from_dict(raw).config_hash() for raw in written}
    path = tmp_path / "run.yaml"
    path.write_text("run:\n  T: 8\n")
    hashes.add(ExperimentConfig.load(path).config_hash())
    path.write_text("seed: 7\n")
    args = _build_parser().parse_args(["foldy", "--config", str(path), "--horizon", "8"])
    hashes.add(ExperimentConfig.load(path, _overrides_from_args(args)).config_hash())
    assert hashes == {ExperimentConfig.from_dict({}).config_hash()}
    data = ExperimentConfig.from_dict({"run": {"n_out": 481.0, "T": 8}, "seed": 7.0}).data
    assert [type(v) for v in (data["run"]["n_out"], data["run"]["T"], data["seed"])] == [
        int, float, int]


_SCENE_MODULES = """
import sys
import bubblescreen.cli
from bubblescreen.config import ExperimentConfig
from bubblescreen.experiments import build_scene
build_scene(ExperimentConfig.load(sys.argv[1]))
print(" ".join(sorted({"numpy.random", "_hashlib"} & set(sys.modules))) or "none")
"""


def test_disk_scene_loads_neither_openssl_nor_numpy_random():
    # a scene with one bubble per patch draws no random number, and only a
    # manifest hashes the config: neither library is loaded to build it
    proc = subprocess.run(
        [sys.executable, "-c", _SCENE_MODULES, str(ROOT / "configs" / "default.yaml")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["none"]


# Runs one CLI stage and prints its exit code and which of OpenSSL's
# ``_hashlib`` and ``numpy.random`` it left loaded.
_STAGE_MODULES = """
import sys
from bubblescreen.cli import run_cli
code = run_cli(sys.argv[1:])
print(code, ",".join(name for name in ("_hashlib", "numpy.random") if name in sys.modules)
      or "none")
"""


def _stage_modules(stage, config, outdir):
    proc = subprocess.run(
        [sys.executable, "-c", _STAGE_MODULES, stage, "--config", str(ROOT / config),
         "--outdir", str(outdir)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("stage", ["validate", "foldy", "effective", "cq", "compare",
                                   "sweep", "regimes", "counting"])
def test_disk_stage_loads_neither_openssl_nor_numpy_random(stage, tmp_path):
    # no stage on the default disk places a jittered bubble: the manifest's
    # hash comes from the builtin SHA-256 and cq's probes from random.Random
    assert _stage_modules(stage, "configs/default.yaml", tmp_path) == ["0", "none"]


@pytest.mark.parametrize("stage", ["validate", "foldy", "effective", "cq", "compare",
                                   "regimes", "counting"])
def test_sphere_stage_loads_neither_openssl_nor_numpy_random(stage, tmp_path):
    # K = 1 on the sphere puts two bubbles in a patch, so placement draws,
    # from random.Random as cq's probes do: numpy.random, and the OpenSSL it
    # brings along (bit_generator -> secrets -> hmac), stay unloaded
    assert _stage_modules(stage, "perfbench/configs/sphere_cluster.yaml", tmp_path) == [
        "0", "none"]


@pytest.mark.parametrize("path, digest", [
    ("configs/default.yaml",
     "b074701dd7e82db6f4446e0c9122a071ed0478aad27ee161a37f90c86cf23d07"),
    ("perfbench/configs/sphere_cluster.yaml",
     "4a7252ffd593be9303ef0b7ebc40babfce122467e68ed17adf14c660a8f5fcc1"),
])
def test_config_hash_is_openssls_sha256(path, digest):
    # the builtin SHA-256 gives hashlib's (OpenSSL's) digest of the
    # canonical JSON, so no committed config changes its hash
    import hashlib
    config = ExperimentConfig.load(ROOT / path)
    assert config.config_hash() == digest
    assert digest == hashlib.sha256(config.canonical_json().encode()).hexdigest()


# CPython 3.12 folded _sha256 into _sha2: the hash must come from _sha2 then,
# not from hashlib, which loads OpenSSL.  Simulates that layout on any version.
_SHA2_LAYOUT = """
import sys, types
try:
    from _sha256 import sha256
except ImportError:
    from _sha2 import sha256
sha2 = types.ModuleType("_sha2")
sha2.sha256 = sha256
sys.modules.update({"_sha2": sha2, "_sha256": None})
from bubblescreen.config import ExperimentConfig
print(ExperimentConfig.load(sys.argv[1]).config_hash(), "_hashlib" in sys.modules)
"""


def test_config_hash_takes_the_builtin_sha2_without_openssl():
    proc = subprocess.run(
        [sys.executable, "-c", _SHA2_LAYOUT, str(ROOT / "configs" / "default.yaml")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "b074701dd7e82db6f4446e0c9122a071ed0478aad27ee161a37f90c86cf23d07", "False"]


def test_config_hash_is_pinned():
    # the digest of the canonical JSON of the default config, unchanged by
    # where hashlib is imported
    config = ExperimentConfig.load(ROOT / "configs" / "default.yaml")
    assert config.config_hash() == (
        "b074701dd7e82db6f4446e0c9122a071ed0478aad27ee161a37f90c86cf23d07")
