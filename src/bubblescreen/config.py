"""Experiment configuration: YAML file with nested sections plus CLI overrides.

``_DEFAULTS`` is the one schema: every key a config may set, each holding
its default value.  A config is merged into it section by section (a user's
``k`` section replaces the default whole) and the merge is checked in one
walk over the schema, ``_checked``:

* a mapping must be a mapping with no key the schema lacks;
* ``k`` takes one of the two shapes of ``_K_FORMS``, chosen by whether it
  sets ``constant``;
* a list must be a non-empty list, each entry checked against the default's
  first (so a ``regimes.cells`` entry against the first default cell);
* a string must be a string;
* a number must be a finite number, an integer where the default is one; a
  bool is not a number, and a number or numeric string becomes its default's
  type (``T: 8``, ``T: "8"`` and ``T: 8.0`` all read 8.0, ``seed: 7.0`` reads
  7), so a config hashes the same however its numbers are written.

``ExperimentConfig.validate`` then checks the ranges and shapes a type cannot
say (positive eps, xyz triples, a nonnegative seed, ...).  Every fault raises
``ConfigError`` naming the key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .geometry import KFunction
from .stepping import MAX_STEPS, TimeGrid

# libyaml's parser when PyYAML was built with it, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_DEFAULTS: dict = {
    "surface": {"kind": "disk", "area": 1.0},
    "k": {"constant": 0.0},
    "materials": {
        "rho_c": 1.0, "kappa_c": 1.0, "rho_b_bar": 1.0, "kappa_b_bar": 1.0,
        "lambda1_mag": 1.0 / 3.0,
    },
    "bubble_shape": {"radius": 1.0},
    "pulse": {"omega0": None, "t_rise": 1.5, "amplitude": 1.0},
    "source": {"position": [0.0, 0.0, 1.5]},
    "run": {
        "eps": 1.0 / 64.0,
        "T": 8.0,
        "h_max": 0.05,
        "n_out": 481,
        "observation_points": [[0.0, 0.0, -0.5], [0.25, 0.15, 0.6], [0.0, 0.0, 0.7]],
        "condition_violation": "error",
    },
    "sweep": {"eps_list": [1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0]},
    "regimes": {
        "cells": [
            {"omega_factor": 1.0, "coupling_factor": 1.0},
            {"omega_factor": 100.0, "coupling_factor": 1.0},
            {"omega_factor": 0.01, "coupling_factor": 100.0},
        ],
        "transmitted_points": [[0.0, 0.0, -0.5], [0.15, -0.1, -0.55]],
        "window_fraction": 0.33,
    },
    "counting": {"d_list": [0.125, 0.0625, 0.03125], "k_exponents": [1.0, 2.0, 3.0]},
    "output": {"dir": "out"},
    "seed": 7,
}


# The two shapes of the ``k`` section; a user's ``k`` replaces the default
# whole, and its ``constant`` key picks the first shape.
_K_FORMS = ({"constant": 0.0}, {"name": "", "scale": 0.0, "offset": 0.0, "axis": 0})


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict) and key != "k":
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _checked(shape, value, where: str = ""):
    """``value`` checked against ``shape`` (a part of ``_DEFAULTS``) by the
    rules of the module docstring, its numbers and numeric strings (YAML
    reads ``1e-3`` as one) converted to their default's type; a fault raises
    ``ConfigError`` naming the key."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {where} must be a mapping, got {value!r}")
        if where == "k":
            shape = _K_FORMS["constant" not in value]
        extra = sorted(map(str, set(value) - set(shape)))
        if extra:
            raise ConfigError(f"unknown config key(s) {', '.join(extra)} in "
                              f"{where or 'the config root'}")
        return {key: _checked(shape[key], val, f"{where}.{key}" if where else key)
                for key, val in value.items()}
    if isinstance(shape, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config value {where} must be a non-empty list, got {value!r}")
        return [_checked(shape[0], val, f"{where}[{i}]") for i, val in enumerate(value)]
    if isinstance(shape, str):
        if not isinstance(value, str):
            raise ConfigError(f"config value {where} must be a string, got {value!r}")
        return value
    if shape is None and value is None:
        return value
    kind = int if isinstance(shape, int) else float
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        number = kind(value)
        # a float that int() truncated is not an integer
        if not np.isfinite(number) or isinstance(value, float) and number != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"config value {where} must be {'an integer' if kind is int else 'a finite number'}, "
            f"got {value!r}") from None
    return number


@dataclass
class ExperimentConfig:
    """Resolved configuration; ``data`` stores the merged raw mapping."""

    data: dict = field(repr=False)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_dict(raw: dict | None = None, overrides: dict | None = None) -> "ExperimentConfig":
        data = _merge(_DEFAULTS, raw or {})
        if overrides:
            data = _merge(data, overrides)
        cfg = ExperimentConfig(data=data)
        cfg.validate()
        return cfg

    @staticmethod
    def load(path, overrides: dict | None = None) -> "ExperimentConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = yaml.load(p.read_text(), Loader=_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {p}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        return ExperimentConfig.from_dict(raw, overrides)

    # -- accessors ---------------------------------------------------------
    @property
    def surface_kind(self) -> str:
        return self.data["surface"]["kind"]

    @property
    def surface_area(self) -> float:
        return self.data["surface"]["area"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def eps(self) -> float:
        return self.data["run"]["eps"]

    @property
    def eps_list(self) -> list[float]:
        return list(self.data["sweep"]["eps_list"])

    @property
    def horizon(self) -> float:
        return self.data["run"]["T"]

    @property
    def observation_points(self) -> np.ndarray:
        return np.asarray(self.data["run"]["observation_points"], dtype=float)

    @property
    def output_dir(self) -> str:
        return self.data["output"]["dir"]

    def k_function(self) -> KFunction:
        spec = self.data["k"]
        if "constant" in spec:
            return KFunction.constant(spec["constant"])
        if spec.get("name") == "linear_axis":
            # only the keys the section sets: linear_axis holds the defaults
            return KFunction.linear_axis(**{k: v for k, v in spec.items() if k != "name"})
        raise ConfigError(f"unknown K specification {spec!r}")

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        self.data = data = _checked(_DEFAULTS, self.data)
        self.k_function()
        if data["surface"]["kind"] not in ("disk", "sphere"):
            raise ConfigError(f"unknown surface kind {data['surface']['kind']!r}")
        if data["run"]["condition_violation"] not in ("error", "warn"):
            raise ConfigError("run.condition_violation must be 'error' or 'warn'")
        if not 2 <= data["run"]["n_out"] <= MAX_STEPS + 1:
            raise ConfigError(f"run.n_out must lie in [2, {MAX_STEPS + 1}], "
                              f"got {data['run']['n_out']}")
        TimeGrid.fit(data["run"]["T"], data["run"]["h_max"])   # finite, positive, capped
        bad = [e for e in [self.eps, *self.eps_list] if not e > 0]   # nan too
        if bad:
            raise ConfigError(f"eps values must be positive, got {bad}")
        if data["seed"] < 0:
            raise ConfigError(f"seed must be nonnegative, got {data['seed']}")
        if not 0.0 < data["regimes"]["window_fraction"] <= 1.0:
            raise ConfigError("regimes.window_fraction must lie in (0, 1]")
        cells = data["regimes"]["cells"]
        if any("omega_factor" not in cell for cell in cells):
            raise ConfigError("every regimes.cells entry must set omega_factor")
        if not all(factor > 0 for cell in cells for factor in cell.values()):
            raise ConfigError("regimes.cells omega_factor and coupling_factor must be positive")
        for where, points in (("source.position", [data["source"]["position"]]),
                              ("run.observation_points", data["run"]["observation_points"]),
                              ("regimes.transmitted_points",
                               data["regimes"]["transmitted_points"])):
            if any(len(p) != 3 for p in points):
                raise ConfigError(f"config value {where} must hold xyz triples")

    # -- hashing -----------------------------------------------------------
    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        # every stage's manifest hashes its config, but hashlib loads OpenSSL
        # (2.5-3.4 MiB of RSS) for it: take the same digest from the
        # interpreter's builtin SHA-256, as CPython's random.py does for
        # SHA-512, in _sha2 from CPython 3.12 on and in _sha256 before, and
        # from hashlib only where a build lacks both
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256
        return sha256(self.canonical_json().encode()).hexdigest()


def parse_override_list(text: str) -> list[float]:
    """Parse CLI list values like '1/64,1/128' or '0.1,0.05'.

    A token that is neither a number nor a fraction of two numbers raises
    ``ConfigError`` naming it.
    """
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if "/" in tok:
                num, den = tok.split("/", 1)
                out.append(float(num) / float(den))
            else:
                out.append(float(tok))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad number {tok!r} in {text!r}") from None
    if not out:
        raise ConfigError(f"empty list value {text!r}")
    return out
