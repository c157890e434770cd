import pytest
import yaml

from bubblescreen.cli import run_cli


def _config(tmp_path, raw):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_validate_exits_zero(tmp_path):
    path = _config(tmp_path, {"run": {"T": 2.5, "n_out": 51}})
    assert run_cli(["validate", "--config", path, "--outdir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "run_manifest.json").exists()


@pytest.mark.parametrize("raw", [
    {"run": {"epss": 0.01}},
    {"k": {"constant": "abc"}},
    {"run": {"T": "abc"}},
    {"run": {"eps": 0.0625}},   # d = 1/4: patch count outside M ~ d^-2
    {"k": {"constant": 2}},     # three bubbles per patch do not fit at d = 1/8
])
def test_config_errors_exit_two(tmp_path, raw, capsys):
    path = _config(tmp_path, raw)
    assert run_cli(["foldy", "--config", path, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_config_exits_two(tmp_path):
    missing = str(tmp_path / "absent.yaml")
    assert run_cli(["validate", "--config", missing, "--outdir", str(tmp_path)]) == 2


def test_solvability_violation_exits_three(tmp_path, capsys):
    # omega_m_sq / c_bar = 1/a, so a large reference ball breaks the resonance
    # condition of the default disk
    path = _config(tmp_path, {"bubble_shape": {"radius": 8.0}, "run": {"T": 1.0}})
    assert run_cli(["foldy", "--config", path, "--outdir", str(tmp_path / "out")]) == 3
    assert "resonance condition violated" in capsys.readouterr().err
