"""Command-line surface: exit codes, file formats, reproducibility."""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbsdegames
from fbsdegames import cli, fbsde
from fbsdegames.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_SOLVER_FAILURE,
    build_backend,
    load_config,
    main,
    plain,
)
from fbsdegames.equilibrium import solve_nash


def base_config() -> dict:
    return {
        "name": "t",
        "seed": 3,
        "horizon": 1.0,
        "steps": 12,
        "dims": {"n": 1, "m": 1, "d": 1, "k1": 1, "k2": 1},
        "backend": {"kind": "lattice"},
        "initial": [0.5],
        "terminal": {"constant": [0.2]},
        "drift": {"A": [[-0.3]], "D1": [[0.4]], "D2": [[0.2]]},
        "diffusion": [{"const": [0.25]}],
        "driver": {"A": [[0.2]], "B": [[-0.1]]},
        "cost1": {"Q": [[1.0]], "N": [[1.0]], "G": [[0.5]]},
        "cost2": {"R": [[0.6]], "N": [[1.2]], "H": [[0.3]]},
        "box1": {"radius": 2.0},
        "box2": {"radius": 2.0},
        "fbsde": {"tol": 1e-12},
        "gradient": {"step": 0.5, "max_iterations": 300, "tolerance": 1e-7},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv) -> int:
    return main(list(argv))


def run_process(*argv, module=True, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """The command line (or, with module=False, bare interpreter arguments)
    in a child interpreter, so stderr shows any traceback; stdout is
    captured unless given."""
    src = str(Path(fbsdegames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *(["-m", "fbsdegames"] if module else []), *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
    )


COUPLED_GAME = Path(__file__).resolve().parents[1] / "configs" / "coupled_game.json"
SHIPPED_CONFIGS = [
    "configs/coupled_game.json",
    "configs/two_step_oracle.json",
    "configs/single_player_lqr.json",
    "perfbench/configs/coupled_mc.json",
]


def run_capped(commands) -> subprocess.CompletedProcess:
    """The command lines `commands` one after another in a child interpreter
    under a 1 GiB address-space cap; its stdout is the list of exit codes."""
    limit = 1 << 30
    code = (
        "import contextlib, io, resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from fbsdegames.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes)\n"
    )
    return run_process("-c", code, module=False)


def _zero_controls(tmp_path, steps: int) -> str:
    """A lattice controls.csv with every control zero."""
    path = tmp_path / "zero.csv"
    rows = [f"{j},{s},0.0,0.0" for j in range(steps) for s in range(j + 1)]
    path.write_text("\n".join(["step,scenario_id,u1_1,u2_1"] + rows) + "\n")
    return str(path)


class TestSolve:
    def test_writes_all_artifacts_and_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert run("solve", "--config", cfg, "--out", str(out)) == EXIT_OK
        for name in ("report.json", "trajectory.csv", "history.csv", "controls.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["verdict"] == "certified"
        assert report["metadata"]["generator"] == "philox4x64"
        assert report["metadata"]["seed"] == 3
        assert report["metadata"]["config"]["steps"] == 12

    def test_trajectory_header_order(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        run("solve", "--config", cfg, "--out", str(out))
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == (
            "step,t,scenario_id,x_1,y_1,z_11,u1_1,u2_1,"
            "k1_1,p1_1,q1_11,k2_1,p2_1,q2_11"
        )
        history_header = (out / "history.csv").read_text().splitlines()[0]
        assert history_header == ("iteration,J1,J2,rho1,rho2,alpha,evaluations,extrapolated,"
                                  "state_passes,costate_passes")

    def test_byte_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        outs = [tmp_path / f"run{i}" for i in range(2)]
        run("solve", "--config", cfg, "--out", str(outs[0]))
        run("solve", "--config", cfg, "--out", str(outs[1]))
        for name in ("report.json", "trajectory.csv", "history.csv", "controls.csv"):
            blobs = [(o / name).read_bytes() for o in outs]
            assert blobs[0] == blobs[1]

    def test_trajectory_is_the_certified_state(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert run("solve", "--config", cfg, "--out", str(out)) == EXIT_OK
        config = load_config(cfg)
        report = solve_nash(
            config.problem, build_backend(config),
            fbsde_config=config.fbsde,
            grad_config=config.gradient,
            certificate_options=config.certificate,
        )
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        traj, (adj1, adj2) = report.trajectory, report.adjoints
        for name, field in (("x_1", traj.x), ("y_1", traj.y), ("p1_1", adj1.p), ("k2_1", adj2.k)):
            col = header.index(name)
            for j, expected in enumerate(field):
                written = [float(row[col]) for row in rows if int(row[0]) == j]
                np.testing.assert_array_equal(written, expected[:, 0], err_msg=f"{name} step {j}")

    def test_concave_control_cost_exits_refuted(self, tmp_path):
        cfg = base_config()
        cfg["cost1"]["N"] = [[-1.0]]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert run("solve", "--config", path, "--out", str(out)) == EXIT_REFUTED
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "refuted"
        assert report["certificate"]["witness"]

    def test_montecarlo_seed_changes_results(self, tmp_path):
        cfg = base_config()
        cfg["backend"] = {"kind": "montecarlo", "paths": 256}
        cfg["gradient"]["max_iterations"] = 5
        cfg["gradient"]["tolerance"] = 1e-3
        path = write_config(tmp_path, cfg)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run("solve", "--config", path, "--out", str(a))
        run("solve", "--config", path, "--out", str(b))
        run("solve", "--config", path, "--out", str(c), "--seed", "99")
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "trajectory.csv").read_bytes() != (c / "trajectory.csv").read_bytes()

    def test_montecarlo_ridge_fallbacks_only_at_the_shared_start(self, tmp_path):
        # every path starts at x(0), so step 0's design has rank one and both
        # of its fits take the ridge fallback on every pass; the later steps
        # have full rank
        cfg = base_config()
        cfg["backend"] = {"kind": "montecarlo", "paths": 256}
        cfg["gradient"]["max_iterations"] = 5
        cfg["gradient"]["tolerance"] = 1e-3
        path = write_config(tmp_path, cfg)
        run("solve", "--config", path, "--out", str(tmp_path / "a"))
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        for diag in (report["fbsde"], *report["adjoint"]):
            assert diag["ridge_fallbacks"] == 2 * diag["iterations"] > 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda c: c.update(bogus=1), "bogus"),
            (lambda c: c.update(steps="many"), "steps"),
            (lambda c: c["dims"].update(n=0), "dims.n"),
            (lambda c: c["cost1"].update(Q=[[1, 2]]), "cost1.Q"),
            (lambda c: c["backend"].update(kind="quantum"), "backend.kind"),
            (lambda c: c.update(box1={"lower": [1.0], "upper": [-1.0]}), "box1"),
            (lambda c: c["gradient"].update(stall_limit=50), "gradient.stall_limit"),
            (lambda c: c.update(backend={"kind": "montecarlo", "regression": {"include_y": True}}),
             "backend.regression.include_y"),
        ],
    )
    def test_bad_fields_exit_64_and_name_the_path(self, tmp_path, capsys, mutate, needle):
        cfg = base_config()
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        assert run("solve", "--config", path, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("content, needle", [
        (b"{not json", "line 1"),
        (b"\xff\xfe{}", "cannot read config"),
        (b'{"steps": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
    ])
    def test_unreadable_config_exits_64(self, tmp_path, capsys, content, needle):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert run("solve", "--config", str(path), "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error at '{path}'") and needle in err

    @pytest.mark.parametrize("mutate, where", [
        (lambda c: c.update(certificate={"sample_radius": float("inf")}), "certificate.sample_radius"),
        (lambda c: c["fbsde"].update(tol=float("inf")), "fbsde.tol"),
        (lambda c: c["gradient"].update(step=float("nan")), "gradient.step"),
        (lambda c: c.update(horizon=float("inf")), "horizon"),
        (lambda c: c.update(horizon=10**400), "horizon"),
        (lambda c: c["cost1"].update(S=float("nan")), "cost1.S"),
        (lambda c: c.update(box1={"radius": float("inf")}), "box1.radius"),
    ])
    def test_non_finite_numbers_exit_64(self, tmp_path, capsys, mutate, where):
        # json reads Infinity and NaN, and an integer beyond the float range
        cfg = base_config()
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        assert run("solve", "--config", path, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error at '{where}': expected a finite number")

    @pytest.mark.parametrize("mutate, where, message", [
        (lambda c: c["drift"].update(A=[["-0.3"]]), "drift.A", "expected a numeric array"),
        (lambda c: c.update(initial=[True]), "initial", "expected a numeric array"),
        (lambda c: c["cost1"].update(Q=[[1, True]]), "cost1.Q", "expected a numeric array"),
        (lambda c: c.update(terminal={"constant": [False]}), "terminal.constant",
         "expected a numeric array"),
        (lambda c: c.update(diffusion=[{"const": ["0.25"]}]), "diffusion[0].const",
         "expected a numeric array"),
        (lambda c: c.update(box1={"lower": ["-1"], "upper": [1]}), "box1.lower",
         "expected a numeric array"),
        (lambda c: c.update(oracle={"grid1": {"values": [["1"]]}}), "oracle.grid1.values",
         "expected a numeric array"),
        (lambda c: c["cost1"].update(S="0.5"), "cost1.S", "expected a number"),
        (lambda c: c["cost1"].update(S=True), "cost1.S", "expected a number"),
    ])
    def test_strings_and_booleans_in_numbers_exit_64(self, tmp_path, capsys, mutate, where, message):
        cfg = base_config()
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        assert run("solve", "--config", path, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error at '{where}': {message}")

    @pytest.mark.parametrize("depth", [2, 500])
    def test_nesting_deeper_than_the_shape_exits_64(self, tmp_path, capsys, depth):
        # the leaf check stops at the shape's depth, before Python's recursion limit
        cfg = base_config()
        value = 0.5
        for _ in range(depth):
            value = [value]
        cfg["initial"] = value
        path = write_config(tmp_path, cfg)
        assert run("solve", "--config", path, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error at 'initial': expected a numeric array of shape [1]\n")

    @staticmethod
    def _coupled_game(steps: int, k1: int = 1) -> dict:
        """configs/coupled_game.json at `steps` steps, player 1 with k1
        controls that enter as its one control does, each alone in its cost."""
        path = Path(__file__).resolve().parents[1] / "configs" / "coupled_game.json"
        cfg = json.loads(path.read_text())
        cfg["steps"] = steps
        cfg["dims"]["k1"] = k1
        for key in ("drift", "driver"):
            cfg[key]["D1"] = [cfg[key]["D1"][0] * k1]
        cfg["cost1"]["N"] = np.eye(k1).tolist()
        return cfg

    @pytest.mark.parametrize("density, k1, points", [(10**8, 1, 10**8), (33, 5, 33**5)])
    def test_certificate_grid_beyond_its_cap_exits_64(self, tmp_path, density, k1, points):
        # the pointwise probe builds a player's grid whole: 33**5 = 39.1 M
        # points or 10**8 ran the search, then ended in a MemoryError
        # traceback under the cap; parse_config refuses them
        cfg = self._coupled_game(4, k1)
        cfg["certificate"] = {"grid_density": density}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        done = run_capped([["solve", "--config", path, "--out", str(out)]])
        assert "Traceback" not in done.stderr
        assert done.stdout.strip() == str([EXIT_CONFIG])
        assert done.stderr == (f"config error at 'certificate.grid_density': player 1's control "
                               f"grid has {points} points, more than 4194304\n")
        assert not out.exists()

    @pytest.mark.parametrize("density, k1, accepted", [
        (33, 4, True), (2048, 2, True), (2049, 2, False), (3, 13, True), (3, 14, False)])
    def test_certificate_grid_cap_is_2_to_the_22_points(self, density, k1, accepted):
        cfg = self._coupled_game(4, k1)
        cfg["certificate"] = {"grid_density": density}
        if accepted:
            assert cli.parse_config(cfg).certificate.grid_density == density
        else:
            with pytest.raises(cli.ConfigError, match=f"has {density**k1} points"):
                cli.parse_config(cfg)

    def test_integer_arrays_read_as_floats(self, tmp_path):
        cfg = base_config()
        cfg["cost1"] = {"Q": [[1]], "N": [[1]], "G": [[0.5]], "S": 0}
        spec = load_config(write_config(tmp_path, cfg)).spec
        assert spec.cost1.Q.dtype == float and spec.cost1.Q.tolist() == [[1.0]]
        assert type(spec.cost1.S) is float

    def test_largest_cost_entries_survive_symmetrizing(self, tmp_path):
        # a + a.T overflows for entries above half the float range
        cfg = base_config()
        cfg["cost1"]["G"] = [[1e308]]
        assert load_config(write_config(tmp_path, cfg)).spec.cost1.G.tolist() == [[1e308]]

    def test_missing_file_exits_64(self, tmp_path):
        assert run(
            "solve", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)
        ) == EXIT_CONFIG

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("kind", ["lattice", "montecarlo"])
    def test_seed_override_outside_u64_exits_64(self, tmp_path, capsys, seed, kind):
        cfg = base_config()
        cfg["backend"] = {"kind": kind} if kind == "lattice" else {"kind": kind, "paths": 8}
        path = write_config(tmp_path, cfg)
        code = run("solve", "--config", path, "--out", str(tmp_path / "o"), "--seed", seed)
        assert code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err


class TestVerify:
    def _solved(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert run("solve", "--config", cfg, "--out", str(out)) == EXIT_OK
        return cfg, out

    def test_round_trip_certifies(self, tmp_path):
        cfg, out = self._solved(tmp_path)
        vout = tmp_path / "verify"
        code = run(
            "verify", "--config", cfg, "--out", str(vout),
            "--controls", str(out / "controls.csv"),
        )
        assert code == EXIT_OK
        cert = json.loads((vout / "certificate.json").read_text())
        assert cert["verdict"] == "certified"
        assert cert["rho1"] < 1e-5

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_verify_reproduces_the_residuals_solve_reports(self, tmp_path, config):
        # verify solves its inner systems cold where solve warm-starts them;
        # both must be accurate enough that the residuals agree to within
        # the outer tolerance, or a recheck could flip a verdict
        path = str(Path(__file__).resolve().parents[1] / config)
        out, vout = tmp_path / "solve", tmp_path / "verify"
        assert run("solve", "--config", path, "--out", str(out)) == EXIT_OK
        code = run("verify", "--config", path, "--out", str(vout),
                   "--controls", str(out / "controls.csv"))
        report = json.loads((out / "report.json").read_text())
        cert = json.loads((vout / "certificate.json").read_text())
        assert code == EXIT_OK
        assert cert["verdict"] == report["verdict"]
        tolerance = load_config(path).gradient.tolerance
        for key in ("rho1", "rho2"):
            assert abs(cert[key] - report[key]) <= tolerance, key

    def test_shifted_controls_are_refuted_with_positive_rho(self, tmp_path):
        cfg, out = self._solved(tmp_path)
        lines = (out / "controls.csv").read_text().splitlines()
        header, rows = lines[0], lines[1:]
        cols = header.split(",")
        u1_idx = cols.index("u1_1")
        shifted = [header]
        for row in rows:
            cells = row.split(",")
            cells[u1_idx] = repr(float(cells[u1_idx]) + 0.5)
            shifted.append(",".join(cells))
        bad = tmp_path / "shifted.csv"
        bad.write_text("\n".join(shifted) + "\n")
        vout = tmp_path / "verify"
        code = run("verify", "--config", cfg, "--out", str(vout), "--controls", str(bad))
        assert code == EXIT_REFUTED
        cert = json.loads((vout / "certificate.json").read_text())
        assert cert["rho1"] > 0.1
        assert "player 1" in cert["certificate"]["witness"]

    def test_wrong_shape_controls_exit_64(self, tmp_path, capsys):
        cfg, out = self._solved(tmp_path)
        truncated = tmp_path / "short.csv"
        lines = (out / "controls.csv").read_text().splitlines()
        truncated.write_text("\n".join(lines[:-3]) + "\n")
        code = run(
            "verify", "--config", cfg, "--out", str(tmp_path / "v"),
            "--controls", str(truncated),
        )
        assert code == EXIT_CONFIG
        assert "cover" in capsys.readouterr().err

    def test_nonfinite_control_cell_exits_64(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        rows = ["step,scenario_id,u1_1,u2_1"]
        rows += [f"{j},{s},0.0,0.0" for j in range(cfg["steps"]) for s in range(j + 1)]
        rows[5] = rows[5].rsplit(",", 1)[0] + ",nan"
        controls = tmp_path / "controls.csv"
        controls.write_text("\n".join(rows) + "\n")
        done = run_process(
            "verify", "--config", path, "--out", str(tmp_path / "v"),
            "--controls", str(controls),
        )
        assert done.returncode == EXIT_CONFIG
        assert "Traceback" not in done.stderr
        assert "finite" in done.stderr

    @pytest.mark.parametrize("content", [None, "step,scenario_id,u1_1\n0,0,0.0\n"])
    def test_rejected_controls_make_no_out_dir(self, tmp_path, capsys, content):
        # a missing file, then one whose header lacks u2
        path = write_config(tmp_path, base_config())
        controls = tmp_path / "controls.csv"
        if content is not None:
            controls.write_text(content)
        vout = tmp_path / "v"
        code = run("verify", "--config", path, "--out", str(vout), "--controls", str(controls))
        assert code == EXIT_CONFIG
        assert "controls" in capsys.readouterr().err
        assert not vout.exists()

    def test_svd_failure_is_a_solver_failure(self, tmp_path):
        # finite controls near 1e300 make the Monte Carlo regressors overflow
        # to values the least-squares SVD cannot factor; a child interpreter,
        # where no test runner captures warnings, shows that stderr holds the
        # failure line alone
        config = Path(__file__).resolve().parents[1] / "configs" / "coupled_game.json"
        cfg = json.loads(config.read_text())
        cfg["backend"] = {"kind": "montecarlo", "paths": 256}
        cfg["steps"] = 4
        path = write_config(tmp_path, cfg)
        rows = ["step,scenario_id,u1_1,u2_1"]
        rows += [f"{j},{s},1e300,0.0" for j in range(4) for s in range(256)]
        controls = tmp_path / "controls.csv"
        controls.write_text("\n".join(rows) + "\n")
        done = run_process("verify", "--config", path, "--out", str(tmp_path / "v"),
                           "--controls", str(controls))
        assert done.returncode == EXIT_SOLVER_FAILURE
        assert done.stderr == "solver failure: SVD did not converge\n"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflow_prints_the_failure_line_first(self, tmp_path, command):
        # player 1's terminal costate G x(T) overflows; a child interpreter,
        # where no test runner captures warnings, shows all of stderr
        cfg = json.loads(COUPLED_GAME.read_text())
        cfg["cost1"]["G"] = [[1e308]]
        path = write_config(tmp_path, cfg)
        argv = [command, "--config", path, "--out", str(tmp_path / "o")]
        if command == "verify":
            argv += ["--controls", _zero_controls(tmp_path, cfg["steps"])]
        done = run_process(*argv)
        assert done.returncode == EXIT_SOLVER_FAILURE
        assert done.stderr.splitlines()[0].startswith("solver failure:")

    @pytest.mark.parametrize("player", [1, 2])
    def test_costate_overflow_names_the_player_and_its_step(self, tmp_path, capsys, player):
        cfg = json.loads(COUPLED_GAME.read_text())
        cfg[f"cost{player}"]["G"] = [[1e308]]
        path = write_config(tmp_path, cfg)
        code = run("verify", "--config", path, "--out", str(tmp_path / "v"),
                   "--controls", _zero_controls(tmp_path, cfg["steps"]))
        assert code == EXIT_SOLVER_FAILURE
        # p[N] = G x(T) is the first costate value the solve makes; its
        # first overflowing node is the scenario named
        run_cfg = load_config(path)
        backend = build_backend(run_cfg)
        zero = fbsdegames.ControlProcess.constant(backend, 0.0, 0.0)
        traj, _ = fbsdegames.solve_fbsde(run_cfg.problem, zero, backend, run_cfg.fbsde)
        with np.errstate(over="ignore"):
            node = int(np.argmax(~np.isfinite(1e308 * traj.x[-1][:, 0])))
        steps = cfg["steps"]
        assert capsys.readouterr().err == (
            f"solver failure: non-finite costate of player {player} at step {steps}, "
            f"scenario {node}\n")

    def test_unbounded_box_without_radius_is_inconclusive(self, tmp_path):
        cfg = base_config()
        cfg["box1"] = "unbounded"
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert run("solve", "--config", path, "--out", str(out)) == EXIT_OK
        code = run(
            "verify", "--config", path, "--out", str(tmp_path / "v"),
            "--controls", str(out / "controls.csv"),
        )
        assert code == EXIT_INCONCLUSIVE


class TestOracle:
    def _tiny_cfg(self):
        cfg = base_config()
        cfg["steps"] = 2
        cfg["oracle"] = {
            "grid1": {"points": 3, "lower": [-1.0], "upper": [1.0]},
            "grid2": {"points": 3, "lower": [-1.0], "upper": [1.0]},
            "budget": 100000,
        }
        return cfg

    def test_enumeration_writes_report(self, tmp_path):
        path = write_config(tmp_path, self._tiny_cfg())
        out = tmp_path / "oracle"
        assert run("oracle", "--config", path, "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["equilibrium"] is True
        assert payload["evaluations"] > 0
        assert len(payload["assignment_1"]) == 3  # nodes on a 2-step tree

    def test_monte_carlo_config_exits_64(self, tmp_path, capsys, monkeypatch):
        # the grid oracle enumerates lattice nodes; a Monte Carlo config is
        # refused before its ensemble is sampled
        def refuse(cfg):
            raise AssertionError("oracle built a backend")

        config = Path(__file__).resolve().parents[1] / "perfbench/configs/coupled_mc.json"
        cfg = json.loads(config.read_text())
        cfg["steps"] = 2
        cfg["backend"]["paths"] = 64
        cfg["oracle"] = self._tiny_cfg()["oracle"]
        path = write_config(tmp_path, cfg)
        monkeypatch.setattr(cli, "build_backend", refuse)
        assert run("oracle", "--config", path, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "backend.kind" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_diverging_solve_exits_1(self, tmp_path):
        config = Path(__file__).resolve().parents[1] / "configs" / "two_step_oracle.json"
        cfg = json.loads(config.read_text())
        cfg["horizon"] = 2.0
        cfg["drift"]["B"] = [[8.0]]
        cfg["driver"]["A"] = [[8.0]]
        path = write_config(tmp_path, cfg)
        done = run_process("oracle", "--config", path, "--out", str(tmp_path / "o"))
        assert done.returncode == EXIT_SOLVER_FAILURE
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("solver failure: Picard iteration diverged")
        failure, history = done.stderr.splitlines()
        count = int(failure.split("diverged after ")[1].split()[0])
        shown = min(count, 10)
        assert history.startswith(f"residual history (last {shown} of {count}): ")
        values = history.split(": ")[1].split()
        assert len(values) == shown and all(re.fullmatch(r"\d\.\d{3}e[+-]\d\d", v) for v in values)
        assert values[-1] == failure.split("(residual ")[1].rstrip(")")

    def test_config_fbsde_block_sets_the_oracle_solves(self, tmp_path, capsys):
        cfg = self._tiny_cfg()
        cfg["fbsde"] = {"max_picard": 1}
        path = write_config(tmp_path, cfg)
        assert run("oracle", "--config", path, "--out", str(tmp_path / "o")) == EXIT_SOLVER_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("solver failure: oracle cost evaluation did not converge")

    def test_nonconvergence_prints_last_ten_residuals(self, tmp_path):
        # the child raises NonConvergenceError with a fixed residual history,
        # so the printed lines can be checked exactly
        path = write_config(tmp_path, self._tiny_cfg())
        code = (
            "import sys, fbsdegames.cli as cli\n"
            "from fbsdegames.equilibrium import NonConvergenceError\n"
            "from fbsdegames.fbsde import SolveDiagnostics\n"
            "def stalled(*args, **kwargs):\n"
            "    history = tuple(2.0 ** -i for i in range(12))\n"
            "    diag = SolveDiagnostics(12, history[-1], False, history)\n"
            "    raise NonConvergenceError('oracle cost evaluation did not converge', diag)\n"
            "cli.brute_force_nash = stalled\n"
            f"sys.exit(cli.main(['oracle', '--config', {path!r}, '--out', {str(tmp_path / 'o')!r}]))\n"
        )
        done = run_process("-c", code, module=False)
        assert done.returncode == EXIT_SOLVER_FAILURE
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [
            "solver failure: oracle cost evaluation did not converge "
            "(residual 4.883e-04 after 12 iterations)",
            "residual history (last 10 of 12): 2.500e-01 1.250e-01 6.250e-02 3.125e-02 "
            "1.562e-02 7.812e-03 3.906e-03 1.953e-03 9.766e-04 4.883e-04",
        ]

    def test_nonfinite_grid_value_exits_64(self, tmp_path, capsys):
        cfg = self._tiny_cfg()
        cfg["oracle"]["grid1"] = {"values": [[float("nan")], [0.0]]}
        path = write_config(tmp_path, cfg)
        assert run("oracle", "--config", path, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "oracle.grid1.values" in err and "finite" in err

    @pytest.mark.parametrize("values, message", [
        ([[0.0, 1.0]], "expected shape [*, 1], got [1, 2]"),
        ([0.0, 1.0], "expected shape [*, 1], got [2]"),
        ([["a"]], "expected a numeric array"),
    ])
    def test_malformed_grid_values_exit_64(self, tmp_path, capsys, values, message):
        cfg = self._tiny_cfg()
        cfg["oracle"]["grid1"] = {"values": values}
        path = write_config(tmp_path, cfg)
        assert run("oracle", "--config", path, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "oracle.grid1.values" in err and message in err

    def test_nonfinite_cost_exits_1(self, tmp_path):
        # u = 1e308 makes the quadratic cost overflow (it also used to
        # overflow the resolution bound's squared grid spacing)
        config = Path(__file__).resolve().parents[1] / "configs" / "two_step_oracle.json"
        cfg = json.loads(config.read_text())
        cfg["oracle"]["grid1"] = {"values": [[1e308], [0.0]]}
        path = write_config(tmp_path, cfg)
        done = run_process("oracle", "--config", path, "--out", str(tmp_path / "o"))
        assert done.returncode == EXIT_SOLVER_FAILURE
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("solver failure: oracle cost is not finite")

    def test_infinite_first_residual_stops_the_solve(self, tmp_path, capsys, monkeypatch):
        # the profiles with a 1e308 node square updates beyond the float
        # range, so their residual is inf from the first pass on; the 10x
        # divergence check cannot fire on an infinite first residual, so
        # such a member stops after that pass instead of running to
        # max_picard (50 passes each before)
        config = Path(__file__).resolve().parents[1] / "configs" / "two_step_oracle.json"
        cfg = json.loads(config.read_text())
        cfg["oracle"]["grid1"] = {"values": [[1e308], [0.0]]}
        path = write_config(tmp_path, cfg)
        passes, warnings = [], set()
        original = fbsde.damped_picard

        def counting(*args):
            out = original(*args)
            passes.append(max(diag.iterations for diag in out[3]))
            warnings.update(w for diag in out[3] for w in diag.warnings)
            return out

        monkeypatch.setattr(fbsde, "damped_picard", counting)
        assert run("oracle", "--config", path, "--out", str(tmp_path / "o")) == EXIT_SOLVER_FAILURE
        assert capsys.readouterr().err.startswith("solver failure: oracle cost is not finite")
        assert passes == [4, 1]
        assert warnings == {"picard residual infinite at iteration 1"}

    def test_budget_one_exits_65(self, tmp_path):
        cfg = self._tiny_cfg()
        cfg["oracle"]["budget"] = 1
        path = write_config(tmp_path, cfg)
        assert run("oracle", "--config", path, "--out", str(tmp_path / "o")) == EXIT_BUDGET

    def test_huge_best_response_exits_65_in_bounded_memory(self, tmp_path):
        # 8 steps make 36 tree nodes, so 5**36 candidates per best response;
        # the address-space cap turns an enumeration that is built before the
        # budget check into a quick MemoryError instead of an exhausted machine
        config = Path(__file__).resolve().parents[1] / "configs" / "two_step_oracle.json"
        cfg = json.loads(config.read_text())
        cfg["steps"] = 8
        path = write_config(tmp_path, cfg)
        limit = 1 << 30
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from fbsdegames.cli import main\n"
            f"sys.exit(main(['oracle', '--config', {path!r}, '--out', {str(tmp_path / 'o')!r}]))\n"
        )
        done = run_process("-c", code, module=False)
        assert done.returncode == EXIT_BUDGET
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("oracle budget exceeded: enumeration budget of 1000000")

    @staticmethod
    def _four_commands_capped(tmp_path, oracle_block):
        """check, solve, verify and oracle on two_step_oracle.json with the
        given oracle keys, in a child interpreter under a 1 GiB address-space
        cap; (child process, --out root)."""
        config = Path(__file__).resolve().parents[1] / "configs" / "two_step_oracle.json"
        cfg = json.loads(config.read_text())
        cfg["oracle"].update(oracle_block)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        commands = [
            ["check", "--config", path],
            ["solve", "--config", path, "--out", str(out / "solve")],
            ["verify", "--config", path, "--out", str(out / "verify"),
             "--controls", str(out / "solve" / "controls.csv")],
            ["oracle", "--config", path, "--out", str(out / "oracle")],
        ]
        return run_capped(commands), out

    @pytest.mark.parametrize("grid", ["grid1", "grid2"])
    def test_grid_beyond_the_budget_is_never_built(self, tmp_path, grid):
        # 10**9 points cost 7.5 GiB, over the address-space cap; more points
        # than the budget can never be enumerated, so the oracle exits 65
        # with its budget message and the other commands run as without it
        done, out = self._four_commands_capped(tmp_path, {grid: {"points": 10**9}})
        assert "Traceback" not in done.stderr
        assert done.returncode == 0
        assert done.stdout.strip() == str([EXIT_OK, EXIT_OK, EXIT_OK, EXIT_BUDGET])
        assert done.stderr.startswith("oracle budget exceeded: enumeration budget of 1000000")
        assert not (out / "oracle").exists()

    def test_grid_within_the_budget_is_built_by_the_oracle_alone(self, tmp_path):
        # 10**9 points fit a budget of 10**9, but a best response on the
        # 3-node tree has 10**27 candidates: the oracle refuses the grid
        # without building it, and check, solve and verify never read it
        done, out = self._four_commands_capped(
            tmp_path, {"budget": 10**9, "grid1": {"points": 10**9}})
        assert "Traceback" not in done.stderr
        assert done.returncode == 0
        assert done.stdout.strip() == str([EXIT_OK, EXIT_OK, EXIT_OK, EXIT_BUDGET])
        assert done.stderr.startswith(
            "oracle budget exceeded: enumeration budget of 1000000000 ")
        assert not (out / "oracle").exists()

    def test_riccati_section_and_gap_printing(self, tmp_path, capsys):
        cfg = self._tiny_cfg()
        cfg["dims"] = {"n": 1, "m": 1, "d": 1, "k1": 1, "k2": 0}
        cfg["drift"] = {"A": [[0.3]], "D1": [[1.0]]}
        cfg["diffusion"] = [{"const": [0.2]}]
        cfg["driver"] = {}
        cfg["cost1"] = {"Q": [[1.0]], "N": [[1.0]], "G": [[2.0]]}
        cfg["cost2"] = {}
        cfg["box2"] = "unbounded"
        cfg["initial"] = [1.0]
        cfg["terminal"] = {"constant": [0.0]}
        cfg["oracle"]["grid2"] = None
        cfg["oracle"]["riccati"] = True
        path = write_config(tmp_path, cfg)
        out = tmp_path / "oracle"
        solve_out = tmp_path / "run"
        assert run("solve", "--config", path, "--out", str(solve_out)) == EXIT_OK
        code = run(
            "oracle", "--config", path, "--out", str(out),
            "--solve-report", str(solve_out / "report.json"),
        )
        assert code == EXIT_OK
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["riccati"] is not None
        assert payload["riccati"]["p0"][0][0] == pytest.approx(1.40777839, rel=1e-5)
        assert "cost gap player 1" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "report",
        [{"j2": 0.1}, {"j1": 0.1}, {"j1": "0.1", "j2": 0.1}, {"j1": 0.1, "j2": None}, [0.1, 0.2],
         b"\xff\xfe{}", {"j1": float("inf"), "j2": 0.1}, {"j1": 0.1, "j2": float("nan")},
         b"[" * 100_000, b'{"j1": ' + b"1" * 5000 + b', "j2": 0.1}'],
    )
    def test_malformed_solve_report_exits_64(self, tmp_path, capsys, monkeypatch, report):
        # the report is read before the backend is built or --out is made
        def refuse(cfg):
            raise AssertionError("oracle built a backend")

        path = write_config(tmp_path, self._tiny_cfg())
        solved = tmp_path / "report.json"
        solved.write_bytes(report if isinstance(report, bytes) else json.dumps(report).encode())
        monkeypatch.setattr(cli, "build_backend", refuse)
        out = tmp_path / "o"
        code = run("oracle", "--config", path, "--out", str(out), "--solve-report", str(solved))
        assert code == EXIT_CONFIG
        assert "report.json" in capsys.readouterr().err
        assert not out.exists()

    def test_inert_player_grid_block_is_validated(self, tmp_path, capsys):
        # k2 = 0: the block still has to be a valid grid block before the
        # player gets its one (empty) candidate
        config = Path(__file__).resolve().parents[1] / "configs" / "single_player_lqr.json"
        cfg = json.loads(config.read_text())
        grid1 = {"points": 3, "lower": [-1.0], "upper": [1.0]}
        cfg["oracle"] = {"grid1": grid1, "grid2": {"bogus": 1}}
        assert run("check", "--config", write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "oracle.grid2.bogus" in capsys.readouterr().err
        cfg["oracle"]["grid2"] = {"points": 3}
        assert load_config(write_config(tmp_path, cfg)).oracle.grid2.shape == (1, 0)

    def test_grid_bounds_may_run_downwards(self, tmp_path):
        cfg = self._tiny_cfg()
        cfg["oracle"]["grid1"] = {"points": 3, "lower": [1.0], "upper": [-1.0]}
        grid = load_config(write_config(tmp_path, cfg)).oracle.grid1
        np.testing.assert_array_equal(grid, [[1.0], [0.0], [-1.0]])


class TestCheck:
    def test_monte_carlo_config_builds_no_backend(self, tmp_path, capsys, monkeypatch):
        # check reads the problem only: sampling the ensemble would be wasted
        def refuse(cfg):
            raise AssertionError("check built a backend")

        monkeypatch.setattr(cli, "build_backend", refuse)
        monkeypatch.chdir(tmp_path)
        path = str(Path(__file__).resolve().parents[1] / "perfbench/configs/coupled_mc.json")
        assert run("check", "--config", path) == EXIT_OK
        assert "derivative check: PASS" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_clean_instance_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert run("check", "--config", path) == EXIT_OK
        assert "derivative check: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_shipped_config_passes(self, tmp_path, capsys, config):
        # single_player_lqr has k2 = 0: its u2 partials are shape-checked only
        path = str(Path(__file__).resolve().parents[1] / config)
        assert run("check", "--config", path) == EXIT_OK
        assert "derivative check: PASS" in capsys.readouterr().out

    def test_corrupted_partial_fails(self, tmp_path, capsys, monkeypatch):
        # the driver's y-partial off by 0.05 everywhere
        def load_tilted(path, seed_override=None):
            cfg = load_config(path, seed_override)
            co = cfg.problem.coefficients
            tilted = dataclasses.replace(co, f_y=lambda *args: co.f_y(*args) + 0.05)
            return dataclasses.replace(
                cfg, problem=dataclasses.replace(cfg.problem, coefficients=tilted))

        monkeypatch.setattr(cli, "load_config", load_tilted)
        path = write_config(tmp_path, base_config())
        assert run("check", "--config", path) == EXIT_REFUTED
        out = capsys.readouterr().out
        assert "derivative check: FAIL" in out
        assert "[BAD] f/f_y" in out

    def test_unknown_corrupt_target_is_config_error(self, tmp_path, capsys):
        # the check block has no corrupt key: any value is an unknown key
        cfg = base_config()
        cfg["check"] = {"corrupt": "b_w"}
        path = write_config(tmp_path, cfg)
        assert run("check", "--config", path) == EXIT_CONFIG
        assert "check.corrupt" in capsys.readouterr().err


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_closed_pipe_exits_1_without_traceback(self, tmp_path, command):
        # as `| head -1` does, but with the read end closed before the run, so
        # every run meets the broken pipe
        path = write_config(tmp_path, dict(base_config(), steps=2))
        out = ["--out", str(tmp_path / "run")] if command == "solve" else []
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_process(command, "--config", path, *out, stdout=write)
        finally:
            os.close(write)
        assert done.returncode == EXIT_SOLVER_FAILURE
        assert done.stderr == ""
        if command == "solve":  # the artifacts are written before the summary
            assert (tmp_path / "run" / "report.json").exists()

    def test_in_process_stdout_without_descriptor_still_raises(self, tmp_path, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(BrokenPipeError):
            run("check", "--config", write_config(tmp_path, base_config()))


@dataclasses.dataclass(frozen=True)
class _Inner:
    value: np.float64
    rows: np.ndarray = dataclasses.field(repr=False)


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    pair: tuple
    table: np.ndarray
    count: np.int64
    flag: np.bool_
    label: str
    missing: None
    history: tuple = dataclasses.field(repr=False, default=())


def test_plain_turns_results_into_json_data():
    outer = _Outer(
        inner=_Inner(np.float64(0.5), rows=np.ones(3)),
        pair=(np.arange(2), [_Inner(np.float64(-1.0), rows=np.zeros(1))]),
        table=np.eye(2),
        count=np.int64(7),
        flag=np.bool_(True),
        label="x",
        missing=None,
        history=(1.0, 2.0),
    )
    got = plain(outer)
    assert got == {
        "inner": {"value": 0.5},
        "pair": [[0, 1], [{"value": -1.0}]],
        "table": [[1.0, 0.0], [0.0, 1.0]],
        "count": 7,
        "flag": True,
        "label": "x",
        "missing": None,
    }
    assert [type(v) for v in (got["inner"]["value"], got["count"], got["flag"])] == [
        float, int, bool]
    json.dumps(got)


# The keys of each JSON artifact, pinned: a result field that is added,
# removed or renamed shows up here.
DIAGNOSTICS_KEYS = {"iterations", "final_residual", "converged", "ridge_fallbacks", "warnings"}
CONVEXITY_KEYS = {"label", "passed", "samples", "violation", "witness_a", "witness_b"}
POINTWISE_KEYS = {"passed", "violation", "step", "scenario", "best_alternative", "tol",
                  "grid_points"}
PLAYER_KEYS = {"pointwise", "hamiltonian_convexity", "terminal_convexity", "initial_convexity"}
CERTIFICATE_KEYS = {"verdict", "player1", "player2", "notes", "witness"}
REPORT_KEYS = {"metadata", "converged", "iterations", "j1", "j2", "stderr1", "stderr2", "rho1",
               "rho2", "certificate", "verdict", "fbsde", "adjoint", "warnings"}
VERIFY_KEYS = {"metadata", "rho1", "rho2", "inner_min_1", "inner_min_2", "convention",
               "verdict", "certificate", "solves"}
ORACLE_KEYS = {"metadata", "equilibrium", "cycle_detected", "rounds", "evaluations", "j1", "j2",
               "resolution_bound_1", "resolution_bound_2", "assignment_1", "assignment_2",
               "u1", "u2", "riccati"}


def _assert_certificate_keys(certificate):
    assert certificate.keys() == CERTIFICATE_KEYS
    for player in ("player1", "player2"):
        checks = certificate[player]
        assert checks.keys() == PLAYER_KEYS
        assert checks["pointwise"].keys() == POINTWISE_KEYS
        for rep in (*checks["hamiltonian_convexity"], checks["terminal_convexity"],
                    checks["initial_convexity"]):
            assert rep.keys() == CONVEXITY_KEYS


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_artifact_keys(tmp_path, config):
    path = Path(__file__).resolve().parents[1] / config
    out, vout, oout = tmp_path / "solve", tmp_path / "verify", tmp_path / "oracle"
    assert run("solve", "--config", str(path), "--out", str(out)) == EXIT_OK
    assert run("verify", "--config", str(path), "--out", str(vout),
               "--controls", str(out / "controls.csv")) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report.keys() == REPORT_KEYS
    _assert_certificate_keys(report["certificate"])
    for diag in (report["fbsde"], *report["adjoint"]):
        assert diag.keys() == DIAGNOSTICS_KEYS
    verified = json.loads((vout / "certificate.json").read_text())
    assert verified.keys() == VERIFY_KEYS
    _assert_certificate_keys(verified["certificate"])
    assert verified["solves"].keys() == {"fbsde", "adjoint"}
    for diag in (verified["solves"]["fbsde"], *verified["solves"]["adjoint"]):
        assert diag.keys() == DIAGNOSTICS_KEYS
    if json.loads(path.read_text()).get("oracle") is not None:
        assert run("oracle", "--config", str(path), "--out", str(oout)) == EXIT_OK
        assert json.loads((oout / "oracle.json").read_text()).keys() == ORACLE_KEYS
