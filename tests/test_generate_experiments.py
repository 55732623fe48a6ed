"""``scripts/generate_experiments.py --check`` gates EXPERIMENTS.md drift."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_experiments.py"


@pytest.fixture
def generator(tmp_path, monkeypatch):
    """The script with a stub sweep and its output file under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("generate_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "render", lambda scale: f"hmean 3.40 at {scale}\n")
    monkeypatch.setattr(module, "EXPERIMENTS", tmp_path / "EXPERIMENTS.md")
    return module


def test_check_passes_on_a_regenerated_file(generator):
    assert generator.main(["0.5"]) == 0
    assert generator.EXPERIMENTS.read_text() == "hmean 3.40 at 0.5\n"
    assert generator.main(["0.5", "--check"]) == 0


def test_check_fails_on_drift_and_writes_nothing(generator, capsys):
    generator.EXPERIMENTS.write_text("hmean 3.31 at 0.5\n")
    assert generator.main(["0.5", "--check"]) == 1
    out = capsys.readouterr().out
    assert "-hmean 3.31 at 0.5" in out and "+hmean 3.40 at 0.5" in out
    assert generator.EXPERIMENTS.read_text() == "hmean 3.31 at 0.5\n"
