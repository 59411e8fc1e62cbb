"""Command-line runner: solve / verify / oracle / check on JSON configs.

Config layout (all matrices are nested lists of numbers; unknown keys are
rejected; an omitted key or block takes its default):

    {
      "name": "demo",                       optional label
      "seed": 0,                            u64, Monte Carlo substream key
      "horizon": 1.0, "steps": 64,
      "dims": {"n":1, "m":1, "d":1, "k1":1, "k2":1},
      "backend": {"kind":"lattice"} |
                 {"kind":"montecarlo", "paths":4096, "regression":{..}},
      "initial": [1.0],
      "terminal": {"constant":[0.0], "linear":[[0.0]]},      linear optional
      "drift"|"driver": {"A":..,"B":..,"C":..,"D1":..,"D2":..,"const":..},
      "diffusion": [affine, ...],           one block per Brownian column
      "cost1"|"cost2": {"Q":..,"R":..,"S":0.0,"N":..,"M":..,"G":..,"H":..},
      "box1"|"box2": {"radius":2.0} | {"lower":[..],"upper":[..]} | "unbounded",
      "fbsde": {..}, "gradient": {..}, "certificate": {..},
      "oracle": {"grid1":{"points":5}|{"values":[[..]]}, "grid2":.., ..},
      "check": {..}
    }

The affine and cost blocks are the fields of `AffineMap` and
`QuadraticCost`; each key is read at the shape of its field in the zero
instance (`AffineMap.zeros`, `QuadraticCost.zeros`), and an omitted key or
a null block stays zero.  Each options block is the fields of one
dataclass, read by the field's type, with that class's defaults and bounds:

    fbsde                 fbsde.FbsdeConfig
    gradient              equilibrium.GradientConfig
    certificate           hamiltonian.CertificateOptions
    backend.regression    drivers.RegressionConfig
    oracle                OracleOptions (below); grid1/grid2 default to
                          5 points per axis over the player's box
    check                 CheckOptions (below)

A value outside its class's bounds exits 64 naming `block.key`.  The
`fbsde` block sets every Picard solve, the oracle's cost evaluations
included: `tol` bounds the fixed-point residual at which a solve stops
(the sup over time of the scenario-mean squared difference between a
pass's output and its input), `damping` is the mixing theta in (0, 1] of
its Anderson step, and `max_picard` caps its passes.  `check` compares
every partial of the problem's maps with central differences; a partial
in an empty control (k1 or k2 = 0) is shape-checked only.

Outputs are deterministic byte-for-byte for a fixed config and seed: wall
time goes to stdout only, never into a file.  CSV floats carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import signal
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
# solve_adjoint is no longer called here; the name stays bound because
# perfbench/instrument.py patches cli.solve_adjoint when it installs
from .adjoint import AdjointTrajectory, solve_adjoint, solve_adjoints  # noqa: F401
from .drivers import (
    GENERATOR_NAME,
    Backend,
    LatticeBackend,
    MonteCarloBackend,
    RegressionConfig,
    TimeGrid,
    sample_ensemble,
)
from .equilibrium import (
    BudgetExceededError,
    EquilibriumReport,
    GradientConfig,
    NonConvergenceError,
    NonFiniteCostError,
    brute_force_nash,
    solve_nash,
)
from .fbsde import (
    ControlProcess,
    FbsdeConfig,
    NonFiniteStateError,
    PicardDivergenceError,
    solve_fbsde,
)
from .hamiltonian import (
    CertificateOptions,
    build_certificate,
    vi_residual,
)
from .lq import AffineMap, LQGameSpec, QuadraticCost, lq_to_problem
from .problem import ControlBox, Dims, GameProblem, validate_problem
from .riccati import predicted_cost, solve_riccati

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 64
EXIT_BUDGET = 65


class ConfigError(ValueError):
    """Config rejected; `where` is the dotted field path."""

    def __init__(self, where: str, message: str):
        super().__init__(f"config error at '{where}': {message}")
        self.where = where


class WriteError(Exception):
    """An artifact or the --out directory could not be written."""

    def __init__(self, path, reason: str):
        super().__init__(f"cannot write {path}: {reason}")


@contextlib.contextmanager
def _writing(path):
    """Raises an OSError of the block as a WriteError naming `path`."""
    try:
        yield
    except OSError as exc:
        raise WriteError(path, exc.strerror or str(exc)) from None


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(where, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, where: str, allowed: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}" if where else key, "unknown key")


def _as_int(value, where: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(where, f"must be <= {maximum}, got {value}")
    return value


def _as_float(value, where: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    if positive and not out > 0.0:
        raise ConfigError(where, f"must be positive, got {out}")
    return out


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(where, f"expected true/false, got {value!r}")
    return value


def _as_str(value, where: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(where, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(where, f"expected one of {list(choices)}, got {value!r}")
    return value


def _numbers_only(value, depth: int) -> bool:
    """Every leaf of the nested lists is an int or a float (a bool is
    neither), no leaf more than `depth` lists deep."""
    if type(value) is list:
        return depth > 0 and all(_numbers_only(v, depth - 1) for v in value)
    return type(value) in (int, float)


def _as_array(value, shape: tuple[int | None, ...], where: str) -> np.ndarray:
    """A finite float array of the given shape; a None entry matches any length."""
    expected = ", ".join("*" if w is None else str(w) for w in shape)
    if not _numbers_only(value, len(shape)):
        raise ConfigError(where, f"expected a numeric array of shape [{expected}]")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged lists, an integer beyond float
        raise ConfigError(where, f"expected a numeric array of shape [{expected}]") from None
    if arr.ndim != len(shape) or any(w is not None and a != w for a, w in zip(arr.shape, shape)):
        raise ConfigError(where, f"expected shape [{expected}], got {list(arr.shape)}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ConfigError(where, "entries must be finite")
    return arr


_READERS = {"int": _as_int, "float": _as_float, "bool": _as_bool, "str": _as_str}


def _read_options(cls, obj, where: str, **readers):
    """Options dataclass `cls` from config block `obj`, one key per field.

    A key is read by its field's type (`T | None` also takes null) and an
    omitted key keeps the class default.  `readers` read the named fields
    instead, as read(value or None, path).  The class is built with each
    given key alone first, so a value outside its bounds is reported at
    its own path.
    """
    obj = _require_mapping(obj, where)
    fields = dataclasses.fields(cls)
    _reject_unknown(obj, where, {f.name for f in fields})
    given = {name: read(obj.get(name), f"{where}.{name}") for name, read in readers.items()}
    values = dict(given)
    for f in fields:
        if f.name not in obj or f.name in readers:
            continue
        path = f"{where}.{f.name}"
        kind, _, nullable = f.type.partition(" | ")
        value = obj[f.name]
        if value is not None or not nullable:
            value = _READERS[kind](value, path)
        try:
            cls(**given, **{f.name: value})
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
        values[f.name] = value
    return cls(**values)


def _read_arrays(zero, obj, where: str):
    """`zero` with the keys of block `obj` replaced, one key per field.

    Each key is read at its field's shape in `zero`, a float field as a
    number; a null block is `zero` itself.
    """
    if obj is None:
        return zero
    obj = _require_mapping(obj, where)
    values = {f.name: getattr(zero, f.name) for f in dataclasses.fields(zero)}
    _reject_unknown(obj, where, values.keys())
    for key, base in values.items():
        if key in obj:
            path = f"{where}.{key}"
            values[key] = (_as_float(obj[key], path) if isinstance(base, float)
                           else _as_array(obj[key], base.shape, path))
    return type(zero)(**values)


# ---------------------------------------------------------------------------
# config model
# ---------------------------------------------------------------------------


@dataclass
class OracleOptions:
    """Grid oracle: each player's candidate controls, one per row, the
    enumeration budget in cost evaluations, the best-response round cap,
    and whether to add the Riccati solution of player 1's problem."""

    grid1: np.ndarray
    grid2: np.ndarray
    budget: int = 10**6
    max_rounds: int = 50
    riccati: bool = False

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass
class CheckOptions:
    """Derivative self-test: random points per map and the probe radius of
    an unbounded coordinate."""

    samples: int = 120
    probe_radius: float | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.probe_radius is not None and not self.probe_radius > 0.0:
            raise ValueError(f"probe_radius must be None or positive, got {self.probe_radius}")


@dataclass
class RunConfig:
    seed: int
    steps: int
    backend_kind: str
    paths: int
    regression: RegressionConfig
    spec: LQGameSpec
    problem: GameProblem
    fbsde: FbsdeConfig
    gradient: GradientConfig
    certificate: CertificateOptions
    check: CheckOptions
    echo: dict

    @functools.cached_property
    def oracle(self) -> OracleOptions | None:
        """The oracle block of `echo`, its points grids built on first read,
        so that only the oracle builds them.  The best responses run on the
        lattice, whose steps before the last hold steps(steps + 1)/2 nodes."""
        block = self.echo.get("oracle")
        if block is None:
            return None
        budget = block.get("budget", OracleOptions.budget)
        return _parse_oracle(block, self.spec, budget, self.steps * (self.steps + 1) // 2)


def _parse_box(obj, k: int, where: str) -> ControlBox:
    if obj is None or obj == "unbounded":
        return ControlBox.unbounded(k)
    obj = _require_mapping(obj, where)
    if "radius" in obj:
        _reject_unknown(obj, where, {"radius"})
        return ControlBox.symmetric(k, _as_float(obj["radius"], f"{where}.radius", positive=True))
    _reject_unknown(obj, where, {"lower", "upper"})
    if "lower" not in obj or "upper" not in obj:
        raise ConfigError(where, "expected both 'lower' and 'upper' (or 'radius')")
    lower = _as_array(obj["lower"], (k,), f"{where}.lower")
    upper = _as_array(obj["upper"], (k,), f"{where}.upper")
    if np.any(lower > upper):
        raise ConfigError(where, "lower bound exceeds upper bound")
    return ControlBox(lower, upper)


def _parse_grid(obj, where: str, box: ControlBox, budget: int, nodes: int) -> np.ndarray:
    """The candidate rows of grid block `obj`, one per row.

    A points grid of G rows is built only if the G**nodes candidates of a
    best response on a tree of `nodes` nodes fit `budget`.  Otherwise the
    oracle refuses it by its row count alone, so only its shape is kept, at
    most budget + 1 rows, in no memory.  Budget 0 builds no points grid and
    only validates the block.
    """
    k = box.dim
    obj = _require_mapping({"points": 5} if obj is None else obj, where)
    if "values" in obj:
        _reject_unknown(obj, where, {"values"})
        grid = _as_array(obj["values"], (None, k), f"{where}.values")
    else:
        _reject_unknown(obj, where, {"points", "lower", "upper"})
        points = _as_int(obj.get("points", 5), f"{where}.points", minimum=2)
        if "lower" in obj or "upper" in obj:
            if "lower" not in obj or "upper" not in obj:
                raise ConfigError(where, "give both 'lower' and 'upper' or neither")
            box = ControlBox(_as_array(obj["lower"], (k,), f"{where}.lower"),
                             _as_array(obj["upper"], (k,), f"{where}.upper"))
        elif not box.bounded:
            raise ConfigError(where, "unbounded box: grid needs explicit 'lower'/'upper'")
        rows = points**k
        # G >= 2, so G**nodes passes the budget once nodes reach its bit length
        if k and (nodes >= budget.bit_length() or rows**nodes > budget):
            return np.broadcast_to(np.nan, (min(rows, budget + 1), k))
        grid = box.grid(points)
    # an inert player (k = 0) has one candidate, the empty control
    return grid if k else np.zeros((1, 0))


def _parse_oracle(obj, spec: LQGameSpec, budget: int, nodes: int) -> OracleOptions:
    """Oracle block `obj`, its grids read by `_parse_grid` at `budget` and `nodes`."""
    def grid(box: ControlBox):
        return lambda value, where: _parse_grid(value, where, box, budget, nodes)

    return _read_options(OracleOptions, obj, "oracle",
                         grid1=grid(spec.u1_box), grid2=grid(spec.u2_box))


# The most points of a player's control grid, which the certificate's
# pointwise probe builds whole: 2**22 rows of k columns.
_CERTIFICATE_POINTS = 1 << 22


_TOP_KEYS = {
    "name", "seed", "horizon", "steps", "dims", "backend", "initial", "terminal",
    "drift", "diffusion", "driver", "cost1", "cost2", "box1", "box2",
    "fbsde", "gradient", "certificate", "oracle", "check",
}


def parse_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    raw = _require_mapping(raw, "")
    _reject_unknown(raw, "", _TOP_KEYS)
    _as_str(raw.get("name", ""), "name")  # a label: only echoed in the metadata
    seed = _as_int(raw.get("seed", 0), "seed", minimum=0, maximum=2**64 - 1)
    if seed_override is not None:
        seed = _as_int(seed_override, "--seed", minimum=0, maximum=2**64 - 1)
    horizon = _as_float(raw.get("horizon", 1.0), "horizon", positive=True)
    steps = _as_int(raw.get("steps", 64), "steps", minimum=1)

    dobj = _require_mapping(raw.get("dims", {"n": 1, "m": 1, "d": 1, "k1": 1, "k2": 1}), "dims")
    _reject_unknown(dobj, "dims", {"n", "m", "d", "k1", "k2"})
    dims = Dims(
        n=_as_int(dobj.get("n", 1), "dims.n", minimum=1),
        m=_as_int(dobj.get("m", 1), "dims.m", minimum=1),
        d=_as_int(dobj.get("d", 1), "dims.d", minimum=1),
        k1=_as_int(dobj.get("k1", 1), "dims.k1", minimum=0),
        k2=_as_int(dobj.get("k2", 1), "dims.k2", minimum=0),
    )

    bobj = _require_mapping(raw.get("backend", {"kind": "lattice"}), "backend")
    kind = _as_str(bobj.get("kind"), "backend.kind", choices=("lattice", "montecarlo"))
    paths = 0
    regression = RegressionConfig()
    if kind == "lattice":
        _reject_unknown(bobj, "backend", {"kind"})
        if dims.d != 1:
            raise ConfigError("backend.kind", "the lattice backend supports d = 1 only")
    else:
        _reject_unknown(bobj, "backend", {"kind", "paths", "regression"})
        paths = _as_int(bobj.get("paths", 4096), "backend.paths", minimum=2)
        regression = _read_options(
            RegressionConfig, bobj.get("regression", {}), "backend.regression")

    initial = _as_array(raw.get("initial", [0.0] * dims.n), (dims.n,), "initial")
    tobj = _require_mapping(raw.get("terminal", {"constant": [0.0] * dims.m}), "terminal")
    _reject_unknown(tobj, "terminal", {"constant", "linear"})
    xi = _as_array(tobj.get("constant", [0.0] * dims.m), (dims.m,), "terminal.constant")
    xi_linear = None
    if tobj.get("linear") is not None:
        xi_linear = _as_array(tobj["linear"], (dims.m, dims.d), "terminal.linear")

    diffusion_raw = raw.get("diffusion")
    if diffusion_raw is None:
        diffusion_raw = [None] * dims.d
    elif not isinstance(diffusion_raw, list) or len(diffusion_raw) != dims.d:
        raise ConfigError("diffusion", f"expected a list of {dims.d} affine blocks")
    diffusion = tuple(
        _read_arrays(AffineMap.zeros(dims.n, dims), entry, f"diffusion[{i}]")
        for i, entry in enumerate(diffusion_raw)
    )

    box1 = _parse_box(raw.get("box1"), dims.k1, "box1")
    box2 = _parse_box(raw.get("box2"), dims.k2, "box2")
    spec = LQGameSpec(
        dims=dims,
        horizon=horizon,
        initial=initial,
        xi=xi,
        xi_linear=xi_linear,
        drift=_read_arrays(AffineMap.zeros(dims.n, dims), raw.get("drift"), "drift"),
        diffusion=diffusion,
        driver=_read_arrays(AffineMap.zeros(dims.m, dims), raw.get("driver"), "driver"),
        cost1=_read_arrays(QuadraticCost.zeros(dims, dims.k1, dims.k2), raw.get("cost1"), "cost1"),
        cost2=_read_arrays(QuadraticCost.zeros(dims, dims.k2, dims.k1), raw.get("cost2"), "cost2"),
        u1_box=box1,
        u2_box=box2,
    )

    oracle = raw.get("oracle")
    if oracle is not None:  # "oracle": null is an absent block
        _parse_oracle(oracle, spec, budget=0, nodes=1)  # checked here, built by `RunConfig.oracle`
    certificate = _read_options(CertificateOptions, raw.get("certificate", {}), "certificate")
    for player, k in ((1, dims.k1), (2, dims.k2)):
        points = certificate.grid_density**k
        if points > _CERTIFICATE_POINTS:
            raise ConfigError("certificate.grid_density", f"player {player}'s control grid has "
                              f"{points} points, more than {_CERTIFICATE_POINTS}")
    return RunConfig(
        seed=seed,
        steps=steps,
        backend_kind=kind,
        paths=paths,
        regression=regression,
        spec=spec,
        problem=lq_to_problem(spec),
        fbsde=_read_options(FbsdeConfig, raw.get("fbsde", {}), "fbsde"),
        gradient=_read_options(GradientConfig, raw.get("gradient", {}), "gradient"),
        certificate=certificate,
        check=_read_options(CheckOptions, raw.get("check", {}), "check"),
        echo=raw,
    )


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            str(path), f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # a too long integer, too deep nesting
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    return parse_config(raw, seed_override)


def build_backend(cfg: RunConfig) -> Backend:
    grid = TimeGrid(horizon=cfg.spec.horizon, steps=cfg.steps)
    if cfg.backend_kind == "lattice":
        return LatticeBackend(grid)
    ensemble = sample_ensemble(grid, cfg.paths, cfg.spec.dims.d, cfg.seed)
    return MonteCarloBackend(ensemble, cfg.regression)

# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _cells(width: int, blank: bool = False) -> str:
    """Row-template cells for `width` float columns, each led by its comma."""
    return ("," if blank else ",%.17g") * width


def _format_rows(template: str, block: np.ndarray) -> str:
    """One line per row of `block` through `template`, in one % operation.

    Floats print with 17 significant digits; adding 0.0 turns -0.0 into
    0.0, so equal values print identically.
    """
    block = block + 0.0
    return (template * len(block)) % tuple(block.ravel().tolist())


def _scenario_block(*columns: np.ndarray) -> np.ndarray:
    """(S, 1 + widths) float block: the scenario index, then each column group."""
    count = len(columns[0])
    return np.concatenate(
        [np.arange(count, dtype=float)[:, None]] + [c.reshape(count, -1) for c in columns], axis=1)


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """The header line, then each text block as it is produced."""
    with _writing(path), open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _write_json(path: Path, payload: dict) -> None:
    with _writing(path):
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def plain(value):
    """`value` as JSON data: a dataclass becomes a dict of its fields, less
    those declared `field(repr=False)` (per-row arrays and histories), a
    tuple or list becomes a list, and an array or NumPy scalar its `tolist()`."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value) if f.repr}
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _metadata(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "seed": cfg.seed,
        "generator": GENERATOR_NAME,
        "backend": cfg.backend_kind,
        "config": cfg.echo,
    }


def _matrix_header(prefix: str, rows: int, cols: int) -> list[str]:
    return [f"{prefix}_{i + 1}{j + 1}" for i in range(rows) for j in range(cols)]


def _vector_header(prefix: str, k: int) -> list[str]:
    return [f"{prefix}_{i + 1}" for i in range(k)]


def _trajectory_table(problem: GameProblem, traj, u: ControlProcess, adj1: AdjointTrajectory,
                      adj2: AdjointTrajectory):
    """trajectory.csv's header and `step_block(j)`, the lines of step j = 0..N."""
    dims = problem.dims
    N = traj.backend.grid.steps
    knots = traj.backend.grid.knots
    header = (
        ["step", "t", "scenario_id"]
        + _vector_header("x", dims.n)
        + _vector_header("y", dims.m)
        + _matrix_header("z", dims.m, dims.d)
        + _vector_header("u1", dims.k1)
        + _vector_header("u2", dims.k2)
        + _vector_header("k1", dims.m)
        + _vector_header("p1", dims.n)
        + _matrix_header("q1", dims.n, dims.d)
        + _vector_header("k2", dims.m)
        + _vector_header("p2", dims.n)
        + _matrix_header("q2", dims.n, dims.d)
    )
    dz, dq = dims.m * dims.d, dims.n * dims.d

    def step_block(j: int) -> str:
        # z, the controls and q end at step N - 1: their cells are blank at N
        end = j == N
        template = (
            f"{j},{knots[j] + 0.0:.17g},%d" + _cells(dims.n) + _cells(dims.m)
            + _cells(dz, end) + _cells(dims.k1, end) + _cells(dims.k2, end)
            + (_cells(dims.m) + _cells(dims.n) + _cells(dq, end)) * 2 + "\n"
        )
        if end:
            columns = (traj.x[j], traj.y[j], adj1.k[j], adj1.p[j], adj2.k[j], adj2.p[j])
        else:
            columns = (traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j],
                       adj1.k[j], adj1.p[j], adj1.q[j], adj2.k[j], adj2.p[j], adj2.q[j])
        return _format_rows(template, _scenario_block(*columns))

    return header, step_block


def write_trajectory(
    path: Path,
    problem: GameProblem,
    traj,
    u: ControlProcess,
    adj1: AdjointTrajectory,
    adj2: AdjointTrajectory,
    tail: _Tail | None,
) -> None:
    """Steps 0..N if `tail` is None, else the steps before `tail.start` and
    then the text of `tail`."""
    header, step_block = _trajectory_table(problem, traj, u, adj1, adj2)
    stop = traj.backend.grid.steps + 1 if tail is None else tail.start
    _write_csv(path, header, itertools.chain(map(step_block, range(stop)), tail or ()))


# The fewest float cells a solve formats before a second process formats
# the tail of its trajectory.csv: a fork costs more than it saves below it.
_SPLIT_CELLS = 1 << 17


def _tail_start(problem: GameProblem, backend: Backend) -> int:
    """The first step of trajectory.csv that a second process formats; N + 1
    for none.  The step balances the float cells each process formats,
    counting controls.csv's on this side.  There is no second process below
    `_SPLIT_CELLS` cells, without `os.fork`, or when this process may run on
    one CPU only."""
    dims, N = problem.dims, backend.grid.steps
    rows = np.array([backend.scenario_count(j) for j in range(N + 1)])
    last = 3 * (dims.n + dims.m)  # x, y and each player's k and p
    width = last + (dims.m + 2 * dims.n) * dims.d + dims.k1 + dims.k2
    cells = rows * np.r_[np.full(N, width), last]
    controls = (dims.k1 + dims.k2) * rows[:N].sum()
    if (controls + cells.sum() < _SPLIT_CELLS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        return N + 1
    before = np.cumsum(cells) - cells  # the cells of steps 0..h-1 for h = 0..N
    return int(np.argmin(np.abs(controls + 2 * before - cells.sum())))


@dataclass
class _Tail:
    """Steps `start`..N of the trajectory.csv at `path`, formatted by the
    forked child `pid` into the hidden file `part`."""

    path: Path
    start: int
    pid: int
    part: Path
    reaped: bool

    def __iter__(self):
        """Waits for the child, then yields its text 1 MiB at a time."""
        status = os.waitpid(self.pid, 0)[1]
        self.reaped = True
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            raise WriteError(self.path, f"the formatting process {how}")
        with open(self.part) as fh:
            yield from iter(lambda: fh.read(1 << 20), "")


@contextlib.contextmanager
def _trajectory_tail(path: Path, problem: GameProblem, traj, u: ControlProcess,
                     adj1: AdjointTrajectory, adj2: AdjointTrajectory):
    """A `_Tail` of the trajectory.csv at `path` from `_tail_start`, or None.

    The child formats the tail while this process writes the other
    artifacts.  On leaving, however, a child still running is killed and
    reaped and the part file is removed.  If no process can be forked, the
    tail is None and this process formats every step.
    """
    N = traj.backend.grid.steps
    start = _tail_start(problem, traj.backend)
    pid = None
    if start <= N:
        part = path.with_name(f".{path.name}.{os.getpid()}.part")
        with contextlib.suppress(OSError):
            pid = os.fork()
    if pid is None:
        yield None
        return
    if pid == 0:
        code = 1
        try:
            _, step_block = _trajectory_table(problem, traj, u, adj1, adj2)
            with open(part, "w") as fh:
                fh.writelines(map(step_block, range(start, N + 1)))
            code = 0
        finally:  # whatever happened, the child ends here and never returns to the caller
            os._exit(code)
    tail = _Tail(path, start, pid, part, reaped=False)
    try:
        yield tail
    finally:
        if not tail.reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        part.unlink(missing_ok=True)


def _controls_header(dims: Dims) -> list[str]:
    return ["step", "scenario_id"] + _vector_header("u1", dims.k1) + _vector_header("u2", dims.k2)


def write_controls(path: Path, problem: GameProblem, backend: Backend, u: ControlProcess) -> None:
    cells = _cells(problem.dims.k1 + problem.dims.k2) + "\n"
    _write_csv(path, _controls_header(problem.dims), (
        _format_rows(f"{j},%d" + cells, _scenario_block(u.u1[j], u.u2[j]))
        for j in range(backend.grid.steps)
    ))


def _controls_rows(source, width: int, rows: int) -> np.ndarray | None:
    """The lines of `source`, a list of lines or an open file, read by NumPy's
    C tokenizer as (step, scenario, values) records, or None unless they read
    as `rows` records.  Step and scenario are integer literals that fit
    int64, each value a float literal, either with surrounding whitespace; a
    line of another width reads as none, and so does an empty line, which
    the tokenizer skips."""
    record = np.dtype([("step", np.int64), ("scenario", np.int64), ("values", float, (width - 2,))])
    try:
        with warnings.catch_warnings():  # loadtxt warns if it finds no line
            warnings.simplefilter("ignore")
            table = np.loadtxt(source, dtype=record, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return table if len(table) == rows else None


def _controls_records(body: list[str], width: int) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The records of `body` before its first line that reads as none, and
    that line's index and the reason (None if there is none).  A body that
    does not read is bisected, keeping each first half that reads: about
    one more parse."""
    table = _controls_rows(body, width, len(body))
    if table is not None:
        return table, None
    parts, lo, hi = [_controls_rows([], width, 0)], 0, len(body)
    while hi - lo > 1:  # body[:lo] reads, body[lo:hi] does not
        mid = (lo + hi) // 2
        part = _controls_rows(body[lo:mid], width, mid - lo)
        if part is None:
            hi = mid
        else:
            parts.append(part)
            lo = mid
    return np.concatenate(parts), (lo, _controls_line(body[lo], width))


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_INT64 = range(-(1 << 63), 1 << 63)


def _controls_line(line: str, width: int) -> str:
    """Why `_controls_rows` reads no record from `line`.  A step or scenario
    beyond int64 is read as a Python int, which lies outside every grid."""
    if line.count(",") != width - 1:
        return "wrong column count"
    cells = line.split(",")
    if all(_INTEGER.fullmatch(c) for c in cells[:2]):
        try:
            step, scenario = int(cells[0]), int(cells[1])
            values = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)[0, 2:]
        except ValueError:  # a malformed value, or a literal longer than int() converts
            return "malformed numeric cell"
        if not np.isfinite(values).all():
            return "control values must be finite"
        if step not in _INT64 or scenario not in _INT64:
            return f"step/scenario ({step}, {scenario}) outside the grid"
    return "malformed numeric cell"


def _controls_lines(path: Path, header: list[str]) -> tuple[list[str], int]:
    """The lines after the header of `path`, the first non-blank line, and
    the file line number of the first of them.  Trailing whitespace is cut
    and lines end where `str.splitlines` ends them."""
    lines = path.read_text().rstrip().splitlines()
    top = next((i for i, line in enumerate(lines) if line.strip()), 0)  # the header's index
    if not lines or lines[top].lstrip().split(",") != header:
        raise ConfigError(str(path), "controls header does not match the configured dimensions")
    return lines[top + 1:], top + 2


def _plain_controls(path: Path, header: list[str]) -> tuple[np.ndarray, int] | None:
    """The records of `path` and the file line number of the first, read by
    one np.loadtxt over the open file after its header; None unless the file
    is ASCII with no control character but tab and newline (so that its
    lines are those of `_controls_lines`), its header matches and each of
    `_controls_lines`'s lines reads as a record."""
    text = path.read_bytes().rstrip()
    if not text.isascii():
        return None
    codes = np.frombuffer(text, np.uint8)
    controls = codes[codes < 32]
    newlines = np.count_nonzero(controls == 10)
    if newlines + np.count_nonzero(controls == 9) < len(controls):
        return None
    with open(path) as fh:
        top, line = 0, fh.readline()
        while line and not line.strip():
            top, line = top + 1, fh.readline()
        if line.rstrip("\n").lstrip().split(",") != header:
            return None
        table = _controls_rows(fh, len(header), newlines - top)
    return None if table is None else (table, top + 2)


def _controls_table(path: Path, table: np.ndarray, first: int, unread: tuple[int, str] | None,
                    counts: list[int]) -> np.ndarray:
    """The values of `table`, whose records are the lines from file line
    `first` on, in step-major order; `unread` is the index of a line that
    read as no record and why, after the records.  Raises ConfigError naming
    the first line whose values are not finite, whose (step, scenario) lies
    outside the grid or repeats an earlier line's (checked in that order),
    or that reads as no record; else naming the file if a (step, scenario)
    has no line."""
    steps, scenarios, values = table["step"], table["scenario"], table["values"]
    sizes = np.array(counts)
    total = int(sizes.sum())
    inside = (steps >= 0) & (steps < len(sizes))
    known = np.where(inside, steps, 0)
    inside &= (scenarios >= 0) & (scenarios < sizes[known])
    # a row outside the grid counts in the extra bin `total`
    rows = np.where(inside, (np.cumsum(sizes) - sizes)[known] + scenarios, total)
    tally = np.bincount(rows, minlength=total + 1)[:total]
    fault = ~inside
    if not np.isfinite(values).all():  # per row only then: it is the slow reduction
        fault |= ~np.isfinite(values).all(axis=1)
    if tally.max() > 1:  # some (step, scenario) repeats
        _, head, group = np.unique(rows, return_index=True, return_inverse=True)
        earlier = head[group]
        fault |= earlier < np.arange(len(rows))
    if fault.any():
        i = int(np.argmax(fault))
        where, pair = f"{path}:{first + i}", f"({steps[i]}, {scenarios[i]})"
        if not np.isfinite(values[i]).all():
            raise ConfigError(where, "control values must be finite")
        if not inside[i]:
            raise ConfigError(where, f"step/scenario {pair} outside the grid")
        raise ConfigError(where, f"step/scenario {pair} repeats line {first + earlier[i]}")
    if unread is not None:
        raise ConfigError(f"{path}:{first + unread[0]}", unread[1])
    if not (tally == 1).all():
        raise ConfigError(str(path), "controls file does not cover every (step, scenario)")
    ordered = np.empty_like(values)
    ordered[rows] = values
    return ordered


def read_controls(path: Path, problem: GameProblem, backend: Backend) -> ControlProcess:
    """controls.csv at `path`.  A plain file is read in one pass; any other,
    and every file that does not read whole, is split into lines first."""
    path, k1 = Path(path), problem.dims.k1
    header = _controls_header(problem.dims)
    try:
        plain = _plain_controls(path, header)
        if plain is None:
            body, first = _controls_lines(path, header)
            table, unread = _controls_records(body, len(header))
        else:
            (table, first), unread = plain, None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read controls: {exc}") from None
    counts = [backend.scenario_count(j) for j in range(backend.grid.steps)]
    ordered = _controls_table(path, table, first, unread, counts)
    return ControlProcess.from_rows(ordered[:, :k1], ordered[:, k1:],
                                    backend.offsets[: backend.grid.steps + 1])


def write_report(path: Path, cfg: RunConfig, report: EquilibriumReport) -> None:
    _write_json(path, {**plain(report), "metadata": _metadata(cfg),
                       "iterations": report.iterations, "verdict": report.certificate.verdict})


def write_history(path: Path, report: EquilibriumReport) -> None:
    header = ["iteration", "J1", "J2", "rho1", "rho2", "alpha", "evaluations", "extrapolated",
              "state_passes", "costate_passes"]
    block = np.array([dataclasses.astuple(rec) for rec in report.history],
                     dtype=float).reshape(-1, len(header))
    _write_csv(path, header, [_format_rows("%d" + _cells(5) + ",%d,%d,%d,%d\n", block)])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _out_dir(args) -> Path:
    """The --out directory, made just before the first artifact is written,
    so a rejected input or a failed solve leaves none."""
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    started = time.perf_counter()
    cfg = load_config(args.config, args.seed)
    backend = build_backend(cfg)
    report = solve_nash(
        cfg.problem, backend,
        fbsde_config=cfg.fbsde,
        grad_config=cfg.gradient,
        certificate_options=cfg.certificate,
    )
    u = report.controls
    out = _out_dir(args)
    path = out / "trajectory.csv"
    columns = (cfg.problem, report.trajectory, u, *report.adjoints)
    with _trajectory_tail(path, *columns) as tail:
        write_report(out / "report.json", cfg, report)
        write_history(out / "history.csv", report)
        write_controls(out / "controls.csv", cfg.problem, backend, u)
        write_trajectory(path, *columns, tail)
    elapsed = time.perf_counter() - started
    print(f"solve: converged={report.converged} verdict={report.certificate.verdict} "
          f"J1={report.j1:.6g} J2={report.j2:.6g} rho=({report.rho1:.3e}, {report.rho2:.3e})")
    print(f"wall time: {elapsed:.3f} s")
    if report.certificate.verdict == "refuted":
        return EXIT_REFUTED
    if report.converged:
        return EXIT_OK
    return EXIT_SOLVER_FAILURE


def cmd_verify(args) -> int:
    started = time.perf_counter()
    cfg = load_config(args.config, args.seed)
    backend = build_backend(cfg)
    u = read_controls(Path(args.controls), cfg.problem, backend)
    traj, fdiag = solve_fbsde(cfg.problem, u, backend, cfg.fbsde)
    (adj1, adj2), (d1, d2) = solve_adjoints(cfg.problem, traj, u, backend, cfg.fbsde)
    vi = vi_residual(cfg.problem, traj, adj1, adj2, u)
    certificate = build_certificate(cfg.problem, traj, (adj1, adj2), u, cfg.certificate)
    payload = {
        **plain(vi),
        "metadata": _metadata(cfg),
        "verdict": certificate.verdict,
        "certificate": plain(certificate),
        "solves": {"fbsde": plain(fdiag), "adjoint": plain((d1, d2))},
    }
    _write_json(_out_dir(args) / "certificate.json", payload)
    elapsed = time.perf_counter() - started
    print(f"verify: verdict={certificate.verdict} rho=({vi.rho1:.3e}, {vi.rho2:.3e})")
    print(f"wall time: {elapsed:.3f} s")
    return {
        "certified": EXIT_OK,
        "refuted": EXIT_REFUTED,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[certificate.verdict]


def _read_solve_report(path: str) -> tuple[float, float]:
    """(j1, j2) from a solve run's report.json; ConfigError if unusable."""
    try:
        solved = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(path, f"cannot read solve report: {exc}") from None
    solved = _require_mapping(solved, path)
    return (
        _as_float(solved.get("j1"), f"{path}: j1"),
        _as_float(solved.get("j2"), f"{path}: j2"),
    )


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    cfg = load_config(args.config, args.seed)
    if cfg.oracle is None:
        raise ConfigError("oracle", "the oracle command needs an 'oracle' config block")
    if cfg.backend_kind != "lattice":
        raise ConfigError("backend.kind", "the oracle command needs the lattice backend")
    solved = _read_solve_report(args.solve_report) if args.solve_report else None
    backend = build_backend(cfg)
    try:
        result = brute_force_nash(
            cfg.problem, backend,
            cfg.oracle.grid1, cfg.oracle.grid2,
            budget=cfg.oracle.budget,
            max_rounds=cfg.oracle.max_rounds,
            fbsde_config=cfg.fbsde,
        )
    except BudgetExceededError as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    riccati_payload = None
    if cfg.oracle.riccati:
        spec = cfg.spec
        solution = solve_riccati(
            A=spec.drift.A,
            B=spec.drift.D1,
            Q=spec.cost1.Q,
            R=spec.cost1.N,
            G=spec.cost1.G,
            horizon=spec.horizon,
            steps=cfg.steps,
        )
        sigma_const = np.stack([c.const for c in spec.diffusion], axis=1)
        riccati_payload = {
            "p0": solution.values[0].tolist(),
            "predicted_cost": predicted_cost(solution, spec.initial, sigma_const),
        }
    payload = {**plain(result), "metadata": _metadata(cfg), "riccati": riccati_payload}
    _write_json(_out_dir(args) / "oracle.json", payload)
    if solved is not None:
        gap1 = abs(solved[0] - result.j1)
        gap2 = abs(solved[1] - result.j2)
        print(f"cost gap player 1: {gap1:.6g} (bound {result.resolution_bound_1:.6g})")
        print(f"cost gap player 2: {gap2:.6g} (bound {result.resolution_bound_2:.6g})")
    elapsed = time.perf_counter() - started
    print(f"oracle: equilibrium={result.equilibrium} J1={result.j1:.6g} J2={result.j2:.6g} "
          f"evaluations={result.evaluations}")
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    cfg = load_config(args.config, args.seed)
    report = validate_problem(
        cfg.problem,
        samples=cfg.check.samples,
        seed=cfg.seed,
        probe_radius=cfg.check.probe_radius,
    )
    status = "PASS" if report.passed else "FAIL"
    print(f"derivative check: {status} "
          f"({len(report.checks)} partials, {cfg.check.samples} samples)")
    for check in report.checks:
        marker = "ok " if check.passed else "BAD"
        print(f"  [{marker}] {check.function}/{check.partial}: "
              f"max scaled error {check.max_error:.3e}")
    for warning in report.warnings:
        print(f"  warning: {warning}")
    elapsed = time.perf_counter() - started
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK if report.passed else EXIT_REFUTED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbsdegames",
        description="Open-loop Nash solver for coupled forward-backward stochastic games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("verify", cmd_verify),
        ("oracle", cmd_oracle),
        ("check", cmd_check),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        if name != "check":
            p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "verify":
            p.add_argument("--controls", required=True, help="controls.csv to verify")
        if name == "oracle":
            p.add_argument("--solve-report", default=None,
                           help="report.json from a solve run, for cost-gap printing")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        # the solvers check for non-finite values themselves and end in one
        # `solver failure` line; NumPy's floating-point warnings would print first
        with np.errstate(all="ignore"):
            code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout closed early (`| head`): send what is left to the null device
        # so the interpreter's last flush does not fail again
        try:
            stdout = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            stdout = None
        if stdout is None:  # an in-process caller's stdout has no descriptor
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return EXIT_SOLVER_FAILURE
    except (ConfigError, WriteError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (PicardDivergenceError, NonConvergenceError) as exc:
        history = exc.diagnostics.residual_history
        print(f"solver failure: {exc}", file=sys.stderr)
        print(f"residual history (last {min(len(history), 10)} of {len(history)}): "
              + " ".join(f"{r:.3e}" for r in history[-10:]), file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (NonFiniteStateError, NonFiniteCostError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
