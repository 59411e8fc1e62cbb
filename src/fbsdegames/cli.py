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
included.

Outputs are deterministic byte-for-byte for a fixed config and seed: wall
time goes to stdout only, never into a file.  CSV floats carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
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
    certificate_as_dict,
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


def _numbers_only(value) -> bool:
    """Every leaf of the nested lists is an int or a float (a bool is neither)."""
    if type(value) is list:
        return all(map(_numbers_only, value))
    return type(value) in (int, float)


def _as_array(value, shape: tuple[int | None, ...], where: str) -> np.ndarray:
    """A finite float array of the given shape; a None entry matches any length."""
    if not _numbers_only(value):
        raise ConfigError(where, "expected a numeric array")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged lists, an integer beyond float
        raise ConfigError(where, "expected a numeric array") from None
    if arr.ndim != len(shape) or any(w is not None and a != w for a, w in zip(arr.shape, shape)):
        expected = ", ".join("*" if w is None else str(w) for w in shape)
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


_CORRUPTIBLE = (
    {f"{fn}_{v}" for fn in ("b", "sigma", "f") for v in ("x", "y", "z", "u1", "u2")}
    | {f"l{i}_{v}" for i in (1, 2) for v in ("x", "y", "z", "u1", "u2")}
    | {"phi1_x", "phi2_x", "h1_y", "h2_y"}
)


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
    """Derivative self-test: random points per map, the probe radius of an
    unbounded coordinate, and a partial to corrupt so the check must fail."""

    samples: int = 120
    probe_radius: float | None = None
    corrupt: str | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.probe_radius is not None and not self.probe_radius > 0.0:
            raise ValueError(f"probe_radius must be None or positive, got {self.probe_radius}")
        if self.corrupt is not None and self.corrupt not in _CORRUPTIBLE:
            raise ValueError(f"unknown derivative name {self.corrupt!r}")


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
    oracle: OracleOptions | None
    check: CheckOptions
    echo: dict


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


def _parse_grid(obj, where: str, box: ControlBox) -> np.ndarray:
    k = box.dim
    if k == 0:
        return np.zeros((1, 0))
    if obj is None:
        obj = {"points": 5}
    obj = _require_mapping(obj, where)
    if "values" in obj:
        _reject_unknown(obj, where, {"values"})
        return _as_array(obj["values"], (None, k), f"{where}.values")
    _reject_unknown(obj, where, {"points", "lower", "upper"})
    points = _as_int(obj.get("points", 5), f"{where}.points", minimum=2)
    if "lower" in obj or "upper" in obj:
        if "lower" not in obj or "upper" not in obj:
            raise ConfigError(where, "give both 'lower' and 'upper' or neither")
        lower = _as_array(obj["lower"], (k,), f"{where}.lower")
        upper = _as_array(obj["upper"], (k,), f"{where}.upper")
    else:
        lower, upper = box.lower, box.upper
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ConfigError(where, "unbounded box: grid needs explicit 'lower'/'upper'")
    axes = [np.linspace(lower[c], upper[c], points) for c in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _corrupt_problem(problem: GameProblem, target: str) -> GameProblem:
    """Test hook: add a constant 0.05 to one partial so checks must fail."""

    def tilt(fn):
        def wrapped(*args, _fn=fn):
            return _fn(*args) + 0.05

        return wrapped

    co_fields = {f.name for f in dataclasses.fields(problem.coefficients)}
    cost_fields = {f.name for f in dataclasses.fields(problem.costs)}
    if target in co_fields:
        coefficients = dataclasses.replace(
            problem.coefficients, **{target: tilt(getattr(problem.coefficients, target))}
        )
        return dataclasses.replace(problem, coefficients=coefficients)
    if target in cost_fields:
        costs = dataclasses.replace(problem.costs, **{target: tilt(getattr(problem.costs, target))})
        return dataclasses.replace(problem, costs=costs)
    raise ConfigError("check.corrupt", f"unknown derivative name {target!r}")


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
        certificate=_read_options(CertificateOptions, raw.get("certificate", {}), "certificate"),
        # "oracle": null is an absent block
        oracle=None if raw.get("oracle") is None else _read_options(
            OracleOptions, raw["oracle"], "oracle",
            grid1=lambda obj, where: _parse_grid(obj, where, box1),
            grid2=lambda obj, where: _parse_grid(obj, where, box2),
        ),
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
    except ValueError as exc:  # an integer literal longer than int() will convert
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
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


def write_trajectory(
    path: Path,
    problem: GameProblem,
    traj,
    u: ControlProcess,
    adj1: AdjointTrajectory,
    adj2: AdjointTrajectory,
) -> None:
    dims = problem.dims
    backend = traj.backend
    N = backend.grid.steps
    knots = backend.grid.knots
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

    _write_csv(path, header, map(step_block, range(N + 1)))


def _controls_header(dims: Dims) -> list[str]:
    return ["step", "scenario_id"] + _vector_header("u1", dims.k1) + _vector_header("u2", dims.k2)


def write_controls(path: Path, problem: GameProblem, backend: Backend, u: ControlProcess) -> None:
    cells = _cells(problem.dims.k1 + problem.dims.k2) + "\n"
    _write_csv(path, _controls_header(problem.dims), (
        _format_rows(f"{j},%d" + cells, _scenario_block(u.u1[j], u.u2[j]))
        for j in range(backend.grid.steps)
    ))


def _controls_table(body: list[str], width: int, counts: list[int]) -> np.ndarray | None:
    """The values of every line in step-major order, or None if a line is bad.

    Checks all lines at once: column count, integer step and scenario,
    finite values, inside the grid, and each (step, scenario) exactly once.
    """
    if any(line.count(",") != width - 1 for line in body):
        return None
    # an object array of str casts cell by cell with int() and float()
    table = np.array(",".join(body).split(",") if body else [], dtype=object)
    table = table.reshape(len(body), width)
    try:
        steps = table[:, 0].astype(np.int64)
        scenarios = table[:, 1].astype(np.int64)
        values = table[:, 2:].astype(float)
    except (ValueError, OverflowError):
        return None
    if not ((steps >= 0) & (steps < len(counts))).all():
        return None
    sizes = np.array(counts)
    if not ((scenarios >= 0) & (scenarios < sizes[steps])).all():
        return None
    rows = np.cumsum(sizes)[steps] - sizes[steps] + scenarios
    if not (np.isfinite(values).all() and (np.bincount(rows, minlength=sizes.sum()) == 1).all()):
        return None
    ordered = np.empty_like(values)
    ordered[rows] = values
    return ordered


def _first_controls_error(
    path: Path, body: list[str], width: int, counts: list[int]
) -> ConfigError:
    """The error of the first offending line in file order, else the coverage error."""
    seen: dict[tuple[int, int], int] = {}
    for ln, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != width:
            return ConfigError(f"{path}:{ln}", "wrong column count")
        try:
            j = int(cells[0])
            s = int(cells[1])
            values = [float(c) for c in cells[2:]]
        except ValueError:
            return ConfigError(f"{path}:{ln}", "malformed numeric cell")
        if not all(math.isfinite(v) for v in values):
            return ConfigError(f"{path}:{ln}", "control values must be finite")
        if not 0 <= j < len(counts) or not 0 <= s < counts[j]:
            return ConfigError(f"{path}:{ln}", f"step/scenario ({j}, {s}) outside the grid")
        if (j, s) in seen:
            return ConfigError(
                f"{path}:{ln}", f"step/scenario ({j}, {s}) repeats line {seen[j, s]}")
        seen[j, s] = ln
    return ConfigError(str(path), "controls file does not cover every (step, scenario)")


def read_controls(path: Path, problem: GameProblem, backend: Backend) -> ControlProcess:
    k1 = problem.dims.k1
    header = _controls_header(problem.dims)
    try:
        lines = Path(path).read_text().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read controls: {exc}") from None
    if not lines or lines[0].split(",") != header:
        raise ConfigError(str(path), "controls header does not match the configured dimensions")
    counts = [backend.scenario_count(j) for j in range(backend.grid.steps)]
    ordered = _controls_table(lines[1:], len(header), counts)
    if ordered is None:
        raise _first_controls_error(path, lines[1:], len(header), counts)
    steps = np.split(ordered, np.cumsum(counts)[:-1])
    return ControlProcess(u1=tuple(v[:, :k1].copy() for v in steps),
                          u2=tuple(v[:, k1:].copy() for v in steps))


def _diag_dict(diag) -> dict:
    return {
        "iterations": diag.iterations,
        "final_residual": diag.final_residual,
        "converged": diag.converged,
        "ridge_fallbacks": diag.ridge_fallbacks,
        "warnings": list(diag.warnings),
    }


def write_report(path: Path, cfg: RunConfig, report: EquilibriumReport) -> None:
    payload = {
        "metadata": _metadata(cfg),
        "converged": report.converged,
        "iterations": report.iterations,
        "j1": report.j1,
        "j2": report.j2,
        "stderr1": report.stderr1,
        "stderr2": report.stderr2,
        "rho1": report.rho1,
        "rho2": report.rho2,
        "certificate": certificate_as_dict(report.certificate),
        "verdict": report.certificate.verdict,
        "fbsde": _diag_dict(report.fbsde_diagnostics),
        "adjoint": [_diag_dict(d) for d in report.adjoint_diagnostics],
        "warnings": list(report.warnings),
    }
    _write_json(path, payload)


def write_history(path: Path, report: EquilibriumReport) -> None:
    header = ["iteration", "J1", "J2", "rho1", "rho2", "alpha"]
    block = np.array(
        [(rec.iteration, rec.j1, rec.j2, rec.rho1, rec.rho2, rec.step_size)
         for rec in report.history],
        dtype=float,
    ).reshape(-1, len(header))
    _write_csv(path, header, [_format_rows("%d" + _cells(len(header) - 1) + "\n", block)])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _prepare(args) -> tuple[RunConfig, Backend, Path]:
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, build_backend(cfg), out


def cmd_solve(args) -> int:
    started = time.perf_counter()
    cfg, backend, out = _prepare(args)
    report = solve_nash(
        cfg.problem, backend,
        fbsde_config=cfg.fbsde,
        grad_config=cfg.gradient,
        certificate_options=cfg.certificate,
    )
    u = report.controls
    write_report(out / "report.json", cfg, report)
    write_history(out / "history.csv", report)
    write_trajectory(out / "trajectory.csv", cfg.problem, report.trajectory, u, *report.adjoints)
    write_controls(out / "controls.csv", cfg.problem, backend, u)
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
    cfg, backend, out = _prepare(args)
    u = read_controls(Path(args.controls), cfg.problem, backend)
    traj, fdiag = solve_fbsde(cfg.problem, u, backend, cfg.fbsde)
    (adj1, adj2), (d1, d2) = solve_adjoints(cfg.problem, traj, u, backend, cfg.fbsde)
    vi = vi_residual(cfg.problem, traj, adj1, adj2, u)
    certificate = build_certificate(cfg.problem, traj, (adj1, adj2), u, cfg.certificate)
    payload = {
        "metadata": _metadata(cfg),
        "rho1": vi.rho1,
        "rho2": vi.rho2,
        "inner_min_1": vi.inner_min_1,
        "inner_min_2": vi.inner_min_2,
        "convention": vi.convention,
        "verdict": certificate.verdict,
        "certificate": certificate_as_dict(certificate),
        "solves": {
            "fbsde": _diag_dict(fdiag),
            "adjoint": [_diag_dict(d1), _diag_dict(d2)],
        },
    }
    _write_json(out / "certificate.json", payload)
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(path, f"cannot read solve report: {exc}") from None
    solved = _require_mapping(solved, path)
    return (
        _as_float(solved.get("j1"), f"{path}: j1"),
        _as_float(solved.get("j2"), f"{path}: j2"),
    )


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    cfg, backend, out = _prepare(args)
    if cfg.oracle is None:
        raise ConfigError("oracle", "the oracle command needs an 'oracle' config block")
    solved = _read_solve_report(args.solve_report) if args.solve_report else None
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
    payload = {
        "metadata": _metadata(cfg),
        "equilibrium": result.equilibrium,
        "cycle_detected": result.cycle_detected,
        "rounds": result.rounds,
        "evaluations": result.evaluations,
        "j1": result.j1,
        "j2": result.j2,
        "resolution_bound_1": result.resolution_bound_1,
        "resolution_bound_2": result.resolution_bound_2,
        "assignment_1": list(result.assignment_1),
        "assignment_2": list(result.assignment_2),
        "u1": [a.tolist() for a in result.u1],
        "u2": [a.tolist() for a in result.u2],
        "riccati": riccati_payload,
    }
    _write_json(out / "oracle.json", payload)
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
    cfg, _, out = _prepare(args)
    problem = cfg.problem
    if cfg.check.corrupt is not None:
        problem = _corrupt_problem(problem, cfg.check.corrupt)
    report = validate_problem(
        problem,
        samples=cfg.check.samples,
        seed=cfg.seed,
        probe_radius=cfg.check.probe_radius,
    )
    status = "PASS" if report.passed else "FAIL"
    checks = [c for r in report.derivative_reports for c in r.checks]
    print(f"derivative check: {status} "
          f"({len(checks)} partials, {cfg.check.samples} samples)")
    for check in checks:
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
        return args.fn(args)
    except ConfigError as exc:
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
