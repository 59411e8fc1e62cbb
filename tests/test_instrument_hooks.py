"""The benchmark tracer's hooks still find what they patch.

`perfbench/instrument.py` rebinds package functions by name and looks up
`cli.solve_fbsde`, `cli.solve_adjoint` and `equilibrium._evaluate`; when one
of those moves, every traced benchmark run fails while the rest of this
suite passes.  This runs a traced `solve` on each backend and checks the
counts the tracer reports and that uninstalling puts every binding back.
"""

import importlib.util
import json
import sys
from pathlib import Path

import fbsdegames.cli
from fbsdegames import drivers

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def _load_instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in a package module or on a patched class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "fbsdegames" or name.startswith("fbsdegames.")):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (drivers.LatticeBackend, drivers.MonteCarloBackend, drivers.TimeGrid):
        out.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return out


def _traced_solve(tmp_path, backend: dict):
    """Run one `solve` of a small coupled game under the tracer and return
    its counts, after checking that uninstalling put every binding back."""
    config = {
        "name": "traced",
        "steps": 4,
        "backend": backend,
        "initial": [0.5],
        "terminal": {"constant": [0.2]},
        "drift": {"A": [[-0.3]], "B": [[0.2]], "D1": [[0.4]], "D2": [[0.2]]},
        "diffusion": [{"const": [0.25]}],
        "driver": {"A": [[0.2]], "B": [[-0.1]]},
        "cost1": {"Q": [[1.0]], "N": [[1.0]], "G": [[0.5]]},
        "cost2": {"R": [[0.6]], "N": [[1.2]], "H": [[0.3]]},
        "box1": {"radius": 2.0},
        "box2": {"radius": 2.0},
        "gradient": {"step": 0.5, "max_iterations": 20, "tolerance": 1e-6},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    before = _bindings()
    tracer = _load_instrument().Tracer()
    tracer.install()
    try:
        tracer.command = "solve"
        code = fbsdegames.cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    finally:
        tracer.uninstall()
    assert code == 0
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    return tracer.counts


def test_traced_solve_counts_layers_and_uninstall_restores(tmp_path):
    counts = _traced_solve(tmp_path, {"kind": "lattice"})
    assert counts["cli.resolve.calls"] == 0
    assert counts["fbsde.forward_pass.calls"] > 0
    assert counts["fbsde.backward_pass.calls"] > 0
    assert counts["fbsde.solve_fbsde.calls"] > 0
    # on the lattice both costate systems run as one paired solve inside
    # adjoint.solve_adjoints, which the tracer does not wrap; the backend
    # counters still see its forward sweeps, four lattice steps per pass
    # beyond the state's
    assert counts["drivers.step_forward.calls"] > 4 * counts["fbsde.forward_pass.calls"]


def test_traced_monte_carlo_solve_counts_costate_solves(tmp_path):
    # on Monte Carlo solve_adjoints runs each player's adjoint.solve_adjoint,
    # so the tracer's wrapper counts those calls and their passes
    counts = _traced_solve(tmp_path, {"kind": "montecarlo", "paths": 64})
    assert counts["cli.resolve.calls"] == 0
    assert counts["adjoint.solve_adjoint.calls"] > 0
    assert counts["adjoint.picard_passes"] > 0
