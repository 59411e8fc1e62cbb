"""The example scripts run as documented."""

import dataclasses
import importlib.util
import json
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


def test_artifact_digests_repeat_and_cover_every_artifact(tmp_path, capsys):
    config = {
        "steps": 2,
        "horizon": 0.5,
        "initial": [0.5],
        "drift": {"A": [[-0.3]], "D1": [[0.4]], "D2": [[0.2]]},
        "diffusion": [{"const": [0.25]}],
        "cost1": {"Q": [[1.0]], "N": [[1.0]]},
        "cost2": {"R": [[0.6]], "N": [[1.2]]},
        "box1": {"radius": 1.0},
        "box2": {"radius": 1.0},
        "oracle": {"grid1": {"points": 3}, "grid2": {"points": 3}},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    module = _load("artifact_digests")
    runs = []
    for _ in range(2):
        assert module.main([str(path)]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    assert runs[0] == runs[1]
    digests = runs[0][str(path)]
    assert {k: v for k, v in digests.items() if k.endswith(".exit")} == {
        "solve.exit": 0, "verify.exit": 0, "oracle.exit": 0, "check.exit": 0}
    assert sorted(k for k in digests if "/" in k) == [
        "check/stdout", "oracle/oracle.json", "solve/controls.csv", "solve/history.csv",
        "solve/report.json", "solve/trajectory.csv", "verify/certificate.json"]
    assert all(len(v) == 64 for k, v in digests.items() if "/" in k)


def test_convergence_study_reads_first_order_ratios(capsys):
    module = _load("convergence_study")
    module.backward_table()
    module.duality_table()
    # a table row ends in its ratio, 8 wide and blank on each table's first grid
    rows = [line for line in capsys.readouterr().out.splitlines() if line[:6].strip().isdigit()]
    ratios = [float(line[-8:]) for line in rows if line[-8:].strip()]
    assert len(ratios) == 4 + 3  # every grid after the first of each table
    assert all(1.9 <= r <= 2.1 for r in ratios), ratios


def test_design_size_counts_lines_and_settable_values(tmp_path, capsys):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(x, y=1, *, z=2, w):\n"
        "    return lambda v=3: v\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: list = field(repr=False)\n"
        "    d: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    e: int = 5\n"
    )
    (tmp_path / "b.py").write_text("x = 1\n")
    module = _load("design_size")
    assert module.main([str(tmp_path)]) == 0
    rows = {line[:20].strip(): line[20:] for line in capsys.readouterr().out.splitlines()}
    assert int(rows["a.py"]) == 11 and int(rows["b.py"]) == 1 and int(rows["total"]) == 12
    # y and z of the def (not the lambda's v), b, c and d of the dataclass
    # (not the plain class's e), c being a field() without a default
    assert rows["settable values"].split("(")[0].strip() == "5"
    assert "2 defaulted def parameters, 3 dataclass fields with '=', 1 of them" in (
        rows["settable values"])
    # the package itself: the module lines add up to the total
    assert module.main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    total = int(rows[-2][20:])
    assert sum(int(line[20:]) for line in rows[:-2]) == total
