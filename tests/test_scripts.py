"""The example scripts run as documented."""

import dataclasses
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_oracle_lands_within_the_resolution_bounds(capsys):
    assert _load("compare_oracle").main() == 0
    assert "within resolution bounds" in capsys.readouterr().out


def test_compare_oracle_fails_outside_the_resolution_bounds(monkeypatch, capsys):
    module = _load("compare_oracle")
    enumerate_grid = module.brute_force_nash

    def without_bounds(*args, **kwargs):
        report = enumerate_grid(*args, **kwargs)
        return dataclasses.replace(report, resolution_bound_1=0.0)

    monkeypatch.setattr(module, "brute_force_nash", without_bounds)
    assert module.main() == 1
    assert "OUTSIDE resolution bounds" in capsys.readouterr().out
