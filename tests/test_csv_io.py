"""CSV artifacts: the block writers against a per-cell reference, and the
bulk controls reader against its accepted inputs and rejection messages."""

import dataclasses
import types

import numpy as np
import pytest

from fbsdegames import Dims, lq_to_problem, random_lq_spec, solve_adjoint, solve_fbsde
from fbsdegames.cli import (
    EXIT_CONFIG,
    ConfigError,
    main,
    read_controls,
    write_controls,
    write_history,
    write_trajectory,
)
from fbsdegames.equilibrium import IterationRecord
from fbsdegames.fbsde import ControlProcess

from conftest import coupled_lq_spec, lattice, montecarlo, random_controls, riccati_spec

# ---------------------------------------------------------------------------
# per-cell reference writers: the format the block writers must reproduce
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0
    return f"{v:.17g}"


def _csv(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


def _names(prefix, count):
    return [f"{prefix}_{i + 1}" for i in range(count)]


def _matrix_names(prefix, rows, cols):
    return [f"{prefix}_{i + 1}{j + 1}" for i in range(rows) for j in range(cols)]


def reference_trajectory(dims, traj, u, adj1, adj2) -> str:
    backend = traj.backend
    N = backend.grid.steps
    header = (
        ["step", "t", "scenario_id"] + _names("x", dims.n) + _names("y", dims.m)
        + _matrix_names("z", dims.m, dims.d) + _names("u1", dims.k1) + _names("u2", dims.k2)
        + _names("k1", dims.m) + _names("p1", dims.n) + _matrix_names("q1", dims.n, dims.d)
        + _names("k2", dims.m) + _names("p2", dims.n) + _matrix_names("q2", dims.n, dims.d)
    )
    rows = []
    for j in range(N + 1):
        live = j < N
        for s in range(backend.scenario_count(j)):
            row = [str(j), _fmt(backend.grid.knots[j]), str(s)]
            row += [_fmt(v) for v in traj.x[j][s]]
            row += [_fmt(v) for v in traj.y[j][s]]
            row += [_fmt(v) for v in traj.z[j][s].ravel()] if live else [""] * (dims.m * dims.d)
            row += [_fmt(v) for v in u.u1[j][s]] if live else [""] * dims.k1
            row += [_fmt(v) for v in u.u2[j][s]] if live else [""] * dims.k2
            for adj in (adj1, adj2):
                row += [_fmt(v) for v in adj.k[j][s]]
                row += [_fmt(v) for v in adj.p[j][s]]
                row += [_fmt(v) for v in adj.q[j][s].ravel()] if live else [""] * (dims.n * dims.d)
            rows.append(row)
    return _csv(header, rows)


def reference_controls(dims, backend, u) -> str:
    header = ["step", "scenario_id"] + _names("u1", dims.k1) + _names("u2", dims.k2)
    rows = [
        [str(j), str(s)] + [_fmt(v) for v in u.u1[j][s]] + [_fmt(v) for v in u.u2[j][s]]
        for j in range(backend.grid.steps)
        for s in range(backend.scenario_count(j))
    ]
    return _csv(header, rows)


def reference_history(history) -> str:
    rows = [[str(r.iteration), _fmt(r.j1), _fmt(r.j2), _fmt(r.rho1), _fmt(r.rho2),
             _fmt(r.step_size), str(r.evaluations), str(int(r.extrapolated)),
             str(r.state_passes), str(r.costate_passes)] for r in history]
    return _csv(["iteration", "J1", "J2", "rho1", "rho2", "alpha", "evaluations",
                 "extrapolated", "state_passes", "costate_passes"], rows)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

# -0.0, the smallest subnormal, a huge value, and values that need all 17 digits
SPECIAL = np.array([-0.0, 5e-324, 1e300, -1e300, 0.1 + 0.2, 1.0 / 3.0,
                    -2.2250738585072014e-308, 123456789.12345679, 9007199254740993.0,
                    1e-5, 1e16, float("nan"), float("inf")])


def _solved(spec, backend, seed=0):
    problem = lq_to_problem(spec)
    u = random_controls(problem, backend, seed)
    traj, _ = solve_fbsde(problem, u, backend)
    adj1, _ = solve_adjoint(problem, traj, u, 1, backend)
    adj2, _ = solve_adjoint(problem, traj, u, 2, backend)
    return problem, traj, u, adj1, adj2


def _seeded(arrays, rng):
    """The same arrays with every value drawn from SPECIAL."""
    return tuple(rng.choice(SPECIAL, size=a.shape) for a in arrays)


def _special_case():
    problem, traj, u, adj1, adj2 = _solved(random_lq_spec(5, Dims(2, 2, 1, 2, 1)), lattice(3))
    rng = np.random.default_rng(1)
    traj = dataclasses.replace(traj, x=_seeded(traj.x, rng), y=_seeded(traj.y, rng),
                               z=_seeded(traj.z, rng))
    u = ControlProcess(u1=_seeded(u.u1, rng), u2=_seeded(u.u2, rng))
    adj1, adj2 = (dataclasses.replace(a, k=_seeded(a.k, rng), p=_seeded(a.p, rng),
                                      q=_seeded(a.q, rng)) for a in (adj1, adj2))
    return problem, traj, u, adj1, adj2


CASES = {
    "lattice-coupled": lambda: _solved(coupled_lq_spec(), lattice(8)),
    "montecarlo-2d": lambda: _solved(random_lq_spec(3, Dims(2, 2, 2, 2, 2)),
                                     montecarlo(4, paths=64, d=2)),
    "inert-player-2": lambda: _solved(riccati_spec(), lattice(6)),
    "special-values": _special_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_writers_match_the_per_cell_reference(tmp_path, case):
    problem, traj, u, adj1, adj2 = CASES[case]()
    backend = traj.backend
    write_trajectory(tmp_path / "trajectory.csv", problem, traj, u, adj1, adj2)
    write_controls(tmp_path / "controls.csv", problem, backend, u)
    assert (tmp_path / "trajectory.csv").read_text() == reference_trajectory(
        problem.dims, traj, u, adj1, adj2)
    assert (tmp_path / "controls.csv").read_text() == reference_controls(problem.dims, backend, u)


def test_history_matches_the_per_cell_reference(tmp_path):
    rng = np.random.default_rng(2)
    history = [IterationRecord(i, *rng.choice(SPECIAL, 5), int(rng.integers(0, 40)),
                               bool(i % 3), *(int(n) for n in rng.integers(0, 4000, 2)))
               for i in range(12)]
    write_history(tmp_path / "history.csv", types.SimpleNamespace(history=history))
    assert (tmp_path / "history.csv").read_text() == reference_history(history)


def test_special_values_print_as_expected(tmp_path):
    problem, traj, u, adj1, adj2 = _special_case()
    write_trajectory(tmp_path / "trajectory.csv", problem, traj, u, adj1, adj2)
    cells = {c for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
             for c in line.split(",")[3:]}
    assert "-0" not in cells and "0" in cells and "" in cells
    assert {"4.9406564584124654e-324", "1.0000000000000001e+300", "0.30000000000000004",
            "123456789.12345679", "nan", "inf"} <= cells


@pytest.mark.parametrize("case", ["lattice-coupled", "montecarlo-2d", "inert-player-2"])
def test_controls_round_trip_bit_for_bit(tmp_path, case):
    problem, traj, u, _, _ = CASES[case]()
    backend = traj.backend
    write_controls(tmp_path / "controls.csv", problem, backend, u)
    back = read_controls(tmp_path / "controls.csv", problem, backend)
    for wrote, read in zip(u.u1 + u.u2, back.u1 + back.u2):
        assert read.dtype == np.float64 and read.flags.c_contiguous
        assert read.shape == wrote.shape and read.tobytes() == wrote.tobytes()


LONG_STEPS = 100  # a lattice of 5050 rows


def _long_controls(tmp_path):
    """controls.csv of a lattice with thousands of rows."""
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(LONG_STEPS)
    u = random_controls(problem, backend, seed=4)
    path = tmp_path / "controls.csv"
    write_controls(path, problem, backend, u)
    return problem, backend, u, path


def test_long_controls_round_trip_bit_for_bit(tmp_path):
    problem, backend, u, path = _long_controls(tmp_path)
    back = read_controls(path, problem, backend)
    for wrote, read in zip(u.u1 + u.u2, back.u1 + back.u2):
        assert read.shape == wrote.shape and read.tobytes() == wrote.tobytes()


def test_bad_cell_deep_in_a_long_file_names_its_line(tmp_path):
    problem, backend, _, path = _long_controls(tmp_path)
    line = 4596  # line 1 is the header
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    lines[line - 1] = ",".join(cells[:2] + ["0x1"] + cells[3:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        read_controls(path, problem, backend)
    assert str(err.value) == f"config error at '{path}:{line}': malformed numeric cell"


def test_blank_line_deep_in_a_long_file_names_its_line(tmp_path):
    problem, backend, _, path = _long_controls(tmp_path)
    line = 3811  # line 1 is the header
    lines = path.read_text().splitlines()
    lines[line - 1] = ""
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        read_controls(path, problem, backend)
    assert str(err.value) == f"config error at '{path}:{line}': wrong column count"


# the writer prints -0.0 as 0, so it comes back as 0.0
EXTREMES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.1, 1 / 3]


def test_extreme_values_round_trip_bit_for_bit(tmp_path):
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(STEPS)
    rows = np.array(EXTREMES)[:, None]
    u = ControlProcess.from_rows(rows, -rows, backend.offsets[: STEPS + 1])
    write_controls(tmp_path / "controls.csv", problem, backend, u)
    back = read_controls(tmp_path / "controls.csv", problem, backend)
    assert np.concatenate(back.u1).tobytes() == (rows + 0.0).tobytes()
    assert np.concatenate(back.u2).tobytes() == (-rows + 0.0).tobytes()


# ---------------------------------------------------------------------------
# reader: accepted spellings and rejections
# ---------------------------------------------------------------------------

STEPS = 3  # lattice: step j has j + 1 scenarios, so 6 rows on lines 2..7


HEADER = "step,scenario_id,u1_1,u2_1"


def _lines():
    return [HEADER] + [f"{j},{s},{0.25 * j},{-0.5 * s}" for j in range(STEPS) for s in range(j + 1)]


def test_reader_accepts_any_row_order_and_loose_spellings(tmp_path):
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(STEPS)
    rows = _lines()[:0:-1]
    rows[0] = "+2, 2 ,0.5, -1e1 "
    path = tmp_path / "controls.csv"
    path.write_text("\n" + "\n".join([HEADER] + rows) + "\n\n")
    u = read_controls(path, problem, backend)
    assert [a[:, 0].tolist() for a in u.u1] == [[0.0], [0.25, 0.25], [0.5, 0.5, 0.5]]
    assert [a[:, 0].tolist() for a in u.u2] == [[0.0], [0.0, -0.5], [0.0, -0.5, -10.0]]


# one outcome per spelling of a step cell and of a value cell (the reader is
# NumPy's tokenizer, which takes no digit underscores, unlike int() and float())
SPELLINGS = [
    ("+1", "step", None),
    (" 1 ", "step", None),
    ("1_0", "step", "malformed numeric cell"),
    ("1e400", "step", "malformed numeric cell"),
    ("+1", "value", None),
    (" 1 ", "value", None),
    ("1_0", "value", "malformed numeric cell"),
    ("1e400", "value", "control values must be finite"),
]


@pytest.mark.parametrize("cell, where, message", SPELLINGS,
                         ids=[f"{where}:{cell}" for cell, where, _ in SPELLINGS])
def test_reader_pins_one_outcome_per_spelling(tmp_path, cell, where, message):
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(STEPS)
    lines = _lines()
    lines[2] = f"{cell},0,0.25,0.0" if where == "step" else f"1,0,{cell},0.0"  # line 3
    path = tmp_path / "controls.csv"
    path.write_text("\n".join(lines) + "\n")
    if message is None:
        u = read_controls(path, problem, backend)
        assert u.u1[1][0, 0] == (0.25 if where == "step" else 1.0)
    else:
        with pytest.raises(ConfigError) as err:
            read_controls(path, problem, backend)
        assert str(err.value) == f"config error at '{path}:3': {message}"


ODD_CELLS = ["1_0", "1e400", "0x1", "\u0661", "1.0", "99999999999999999999", "-0", "\ufeff1",
             "1\x00", "nan", "", " ", "+-1", "1 1", "\xa01\t"]


@pytest.mark.parametrize("column", [0, 1, 2])
def test_a_line_the_table_rejects_is_named(tmp_path, column):
    # a fault in one line is named by that line wherever the bulk read
    # finds it, never by the coverage error of the whole file
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(STEPS)
    path = tmp_path / "controls.csv"
    for cell in ODD_CELLS:
        lines = _lines()
        cells = lines[4].split(",")  # (2, 0) on line 5
        cells[column] = cell
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        try:
            read_controls(path, problem, backend)
        except ConfigError as err:
            assert err.where.startswith(f"{path}:"), cell  # a line, not the file


def _edit(lines, line, text):
    """The file's lines with line number `line` (1-based) replaced by text."""
    lines = list(lines)
    lines[line - 1] = text
    return lines


# (case, file lines, line number named or None for the file, message)
REJECTIONS = [
    ("bad header", _edit(_lines(), 1, "step,scenario,u1_1,u2_1"), None,
     "controls header does not match the configured dimensions"),
    ("extra cell", _edit(_lines(), 4, "1,1,0.25,-0.5,0.0"), 4, "wrong column count"),
    ("missing cell", _edit(_lines(), 6, "2,1,0.5"), 6, "wrong column count"),
    ("blank line", _edit(_lines(), 3, ""), 3, "wrong column count"),
    ("word in a value", _edit(_lines(), 5, "2,0,abc,0.0"), 5, "malformed numeric cell"),
    ("float step", _edit(_lines(), 3, "1.0,0,0.25,0.0"), 3, "malformed numeric cell"),
    ("empty scenario", _edit(_lines(), 2, "0,,0.0,0.0"), 2, "malformed numeric cell"),
    ("nan", _edit(_lines(), 7, "2,2,0.5,nan"), 7, "control values must be finite"),
    ("inf", _edit(_lines(), 4, "1,1,-inf,0.0"), 4, "control values must be finite"),
    ("step past the grid", _edit(_lines(), 5, "3,0,0.0,0.0"), 5,
     "step/scenario (3, 0) outside the grid"),
    ("scenario past its step", _edit(_lines(), 3, "1,2,0.0,0.0"), 3,
     "step/scenario (1, 2) outside the grid"),
    ("negative step", _edit(_lines(), 2, "-1,0,0.0,0.0"), 2,
     "step/scenario (-1, 0) outside the grid"),
    ("step beyond int64", _edit(_lines(), 6, "99999999999999999999,0,0.0,0.0"), 6,
     "step/scenario (99999999999999999999, 0) outside the grid"),
    ("missing row", _lines()[:-1], None, "controls file does not cover every (step, scenario)"),
    ("repeated row", _lines() + ["1,0,0.25,0.0"], 8, "step/scenario (1, 0) repeats line 3"),
    ("repeat in place of a row", _edit(_lines(), 6, "0,0,0.0,0.0"), 6,
     "step/scenario (0, 0) repeats line 2"),
    ("first bad line wins", _edit(_edit(_lines(), 7, "2,2,nan,0.0"), 4, "1,9,0.0,0.0"), 4,
     "step/scenario (1, 9) outside the grid"),
    ("row outside the grid before a malformed line",
     _edit(_edit(_lines(), 6, "2,1,abc,0.0"), 3, "1,5,0.0,0.0"), 3,
     "step/scenario (1, 5) outside the grid"),
    ("malformed line before a repeat", _edit(_edit(_lines(), 6, "0,0,0.0,0.0"), 4, "1,1,abc,0.0"),
     4, "malformed numeric cell"),
    ("blank lines before the header", ["", ""] + _edit(_lines(), 3, "1,0,abc,0.0"), 5,
     "malformed numeric cell"),
    ("header only", _lines()[:1], None, "controls file does not cover every (step, scenario)"),
]


def test_reader_rejects_a_file_that_is_not_text(tmp_path):
    path = tmp_path / "controls.csv"
    path.write_bytes(b"\xff\xfe" + HEADER.encode())
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(STEPS)
    with pytest.raises(ConfigError, match="cannot read controls: 'utf-8' codec"):
        read_controls(path, problem, backend)


@pytest.mark.filterwarnings("error")  # the reader adds nothing to stderr
@pytest.mark.parametrize("lines, line, message", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
def test_reader_rejects_with_line_and_message(tmp_path, capsys, lines, line, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"steps": %d, "initial": [0.5], "box1": {"radius": 2.0}, "box2": {"radius": 2.0}}'
        % STEPS)
    controls = tmp_path / "controls.csv"
    controls.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"),
                 "--controls", str(controls)])
    assert code == EXIT_CONFIG
    where = str(controls) if line is None else f"{controls}:{line}"
    assert capsys.readouterr().err == f"config error at '{where}': {message}\n"
