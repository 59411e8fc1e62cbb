"""Config options blocks: each block is the fields of one options dataclass.

The keys and defaults of every block are pinned here, so a key that is
added, removed, renamed or re-defaulted on its class shows up as a failure.
Each bound is checked twice: through the command line (exit 64 naming
`block.key`) and on the class itself (ValueError).
"""

import dataclasses
import json

import numpy as np
import pytest

from fbsdegames.cli import EXIT_CONFIG, CheckOptions, OracleOptions, main, parse_config
from fbsdegames.drivers import RegressionConfig
from fbsdegames.equilibrium import GradientConfig
from fbsdegames.fbsde import FbsdeConfig
from fbsdegames.hamiltonian import CertificateOptions

# the grids an oracle block gets without grid1/grid2: 5 points over box [-2, 2]
GRID = np.linspace(-2.0, 2.0, 5)[:, None]

CLASSES = {
    "fbsde": FbsdeConfig,
    "gradient": GradientConfig,
    "certificate": CertificateOptions,
    "backend.regression": RegressionConfig,
    "oracle": OracleOptions,
    "check": CheckOptions,
}

DEFAULTS = {
    "fbsde": {"max_picard": 50, "damping": 0.5, "tol": 1e-8},
    "gradient": {
        "step": 0.1, "max_iterations": 500, "tolerance": 1e-6,
        "mode": "simultaneous", "max_halvings": 20,
    },
    "certificate": {
        "radius": None, "grid_density": 33, "pointwise_tol": 1e-8,
        "convexity_samples": 400, "convexity_tol": 1e-9, "anchors": 4,
        "sample_radius": 3.0, "seed": 0,
    },
    "backend.regression": {"degree": 2, "include_y": False, "ridge": 1e-8},
    "oracle": {"grid1": GRID, "grid2": GRID, "budget": 10**6, "max_rounds": 50, "riccati": False},
    "check": {"samples": 120, "probe_radius": None, "corrupt": None},
}

GRIDS = ("grid1", "grid2")  # oracle fields read as grid blocks, not by type

# one out-of-range value per bounded field
OUT_OF_RANGE = [
    ("fbsde", "max_picard", 0),
    ("fbsde", "damping", 1.5),
    ("fbsde", "tol", 0.0),
    ("gradient", "step", -0.1),
    ("gradient", "max_iterations", 0),
    ("gradient", "tolerance", 0.0),
    ("gradient", "mode", "newton"),
    ("gradient", "max_halvings", -1),
    ("certificate", "radius", 0.0),
    ("certificate", "grid_density", 2),
    ("certificate", "pointwise_tol", -1e-8),
    ("certificate", "convexity_samples", 0),
    ("certificate", "convexity_tol", 0.0),
    ("certificate", "anchors", 0),
    ("certificate", "sample_radius", -1.0),
    ("certificate", "seed", -1),
    ("backend.regression", "degree", 5),
    ("backend.regression", "ridge", -1.0),
    ("oracle", "budget", 0),
    ("oracle", "max_rounds", 0),
    ("check", "samples", 0),
    ("check", "probe_radius", -1.0),
    ("check", "corrupt", "b_w"),
]


def config_with(block: str, value) -> dict:
    """A small valid Monte Carlo config with `value` as the given block."""
    cfg = {
        "steps": 2,
        "backend": {"kind": "montecarlo", "paths": 8},
        "drift": {"D1": [[1.0]], "D2": [[1.0]]},
        "cost1": {"N": [[1.0]]},
        "cost2": {"N": [[1.0]]},
        "box1": {"radius": 2.0},
        "box2": {"radius": 2.0},
    }
    if block == "backend.regression":
        cfg["backend"]["regression"] = value
    else:
        cfg[block] = value
    return cfg


def parsed_block(block: str, value):
    cfg = parse_config(config_with(block, value))
    return cfg.regression if block == "backend.regression" else getattr(cfg, block)


def plain(value):
    """Arrays as nested lists, so that values compare with ==."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def field_values(options) -> dict:
    return {f.name: plain(getattr(options, f.name)) for f in dataclasses.fields(options)}


def run_solve(tmp_path, cfg: dict) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])


def build(cls, **values):
    """`cls` with the given fields; the oracle's grids are required."""
    if cls is OracleOptions:
        values = {"grid1": GRID, "grid2": GRID, **values}
    return cls(**values)


@pytest.mark.parametrize("block", CLASSES)
def test_block_keys_are_the_class_fields(block):
    assert [f.name for f in dataclasses.fields(CLASSES[block])] == list(DEFAULTS[block])


@pytest.mark.parametrize("block", CLASSES)
def test_every_field_is_a_key_and_no_other_key_is(tmp_path, capsys, block):
    every = {key: ({"points": 5} if key in GRIDS else value)
             for key, value in DEFAULTS[block].items()}
    assert field_values(parsed_block(block, every)) == field_values(parsed_block(block, {}))
    assert run_solve(tmp_path, config_with(block, {**every, "bogus": 1})) == EXIT_CONFIG
    assert f"config error at '{block}.bogus': unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("block", CLASSES)
def test_empty_block_parses_to_the_class_defaults(block):
    class_defaults = field_values(build(CLASSES[block]))
    assert field_values(parsed_block(block, {})) == class_defaults
    assert class_defaults == {key: plain(value) for key, value in DEFAULTS[block].items()}


@pytest.mark.parametrize(
    "block, key, value", OUT_OF_RANGE, ids=[f"{b}.{k}" for b, k, _ in OUT_OF_RANGE])
def test_out_of_range_value_exits_64_and_is_rejected_by_the_class(
    tmp_path, capsys, block, key, value
):
    assert run_solve(tmp_path, config_with(block, {key: value})) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error at '{block}.{key}': ")
    with pytest.raises(ValueError):
        build(CLASSES[block], **{key: value})


def test_every_bounded_field_has_an_out_of_range_case():
    # a field is bounded when the class rejects some value of its type
    cases = {(block, key) for block, key, _ in OUT_OF_RANGE}
    unbounded = {("backend.regression", "include_y"), ("oracle", "riccati")}
    unbounded |= {("oracle", grid) for grid in GRIDS}
    every = {(block, f.name) for block, cls in CLASSES.items() for f in dataclasses.fields(cls)}
    assert cases == every - unbounded


@pytest.mark.parametrize("block", CLASSES)
def test_null_block_keeps_its_exit(tmp_path, capsys, block):
    if block == "oracle":
        # "oracle": null is an absent block, which only the oracle command needs
        assert parsed_block(block, None) is None
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_with(block, None)))
        assert main(["oracle", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "needs an 'oracle' config block" in capsys.readouterr().err
    else:
        assert run_solve(tmp_path, config_with(block, None)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error at '{block}': expected an object, got NoneType")


@pytest.mark.parametrize("block", CLASSES)
def test_null_is_a_value_only_of_optional_fields(tmp_path, capsys, block):
    for f in dataclasses.fields(CLASSES[block]):
        if f.type.endswith("| None"):
            assert getattr(parsed_block(block, {f.name: None}), f.name) is None
        elif f.name not in GRIDS:  # a null grid is the default grid
            assert run_solve(tmp_path, config_with(block, {f.name: None})) == EXIT_CONFIG
            assert f"config error at '{block}.{f.name}': expected" in capsys.readouterr().err
