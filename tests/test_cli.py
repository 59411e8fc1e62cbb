"""Command-line surface: exit codes, file formats, reproducibility."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbsdegames
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


def run_process(*argv, module=True) -> subprocess.CompletedProcess:
    """The command line (or, with module=False, bare interpreter arguments)
    in a child interpreter, so stderr shows any traceback."""
    src = str(Path(fbsdegames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *(["-m", "fbsdegames"] if module else []), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


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
        assert history_header == "iteration,J1,J2,rho1,rho2,alpha"

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

    def test_integer_arrays_read_as_floats(self, tmp_path):
        cfg = base_config()
        cfg["cost1"] = {"Q": [[1]], "N": [[1]], "G": [[0.5]], "S": 0}
        spec = load_config(write_config(tmp_path, cfg)).spec
        assert spec.cost1.Q.dtype == float and spec.cost1.Q.tolist() == [[1.0]]
        assert type(spec.cost1.S) is float

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

    def test_svd_failure_is_a_solver_failure(self, tmp_path, capsys):
        # finite controls near 1e300 make the Monte Carlo regressors overflow
        # to values the least-squares SVD cannot factor
        config = Path(__file__).resolve().parents[1] / "configs" / "coupled_game.json"
        cfg = json.loads(config.read_text())
        cfg["backend"] = {"kind": "montecarlo", "paths": 256}
        cfg["steps"] = 4
        path = write_config(tmp_path, cfg)
        rows = ["step,scenario_id,u1_1,u2_1"]
        rows += [f"{j},{s},1e300,0.0" for j in range(4) for s in range(256)]
        controls = tmp_path / "controls.csv"
        controls.write_text("\n".join(rows) + "\n")
        code = run("verify", "--config", path, "--out", str(tmp_path / "v"),
                   "--controls", str(controls))
        assert code == EXIT_SOLVER_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("solver failure: SVD did not converge")
        assert "Traceback" not in err

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
         b"\xff\xfe{}", {"j1": float("inf"), "j2": 0.1}, {"j1": 0.1, "j2": float("nan")}],
    )
    def test_malformed_solve_report_exits_64(self, tmp_path, capsys, report):
        path = write_config(tmp_path, self._tiny_cfg())
        solved = tmp_path / "report.json"
        solved.write_bytes(report if isinstance(report, bytes) else json.dumps(report).encode())
        code = run(
            "oracle", "--config", path, "--out", str(tmp_path / "o"),
            "--solve-report", str(solved),
        )
        assert code == EXIT_CONFIG
        assert "report.json" in capsys.readouterr().err


class TestCheck:
    def test_clean_instance_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert run("check", "--config", path, "--out", str(tmp_path / "c")) == EXIT_OK
        assert "derivative check: PASS" in capsys.readouterr().out

    def test_corrupted_partial_fails(self, tmp_path, capsys):
        cfg = base_config()
        cfg["check"] = {"corrupt": "f_y"}
        path = write_config(tmp_path, cfg)
        assert run("check", "--config", path, "--out", str(tmp_path / "c")) == EXIT_REFUTED
        out = capsys.readouterr().out
        assert "derivative check: FAIL" in out
        assert "f/f_y" in out

    def test_unknown_corrupt_target_is_config_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["check"] = {"corrupt": "b_w"}
        path = write_config(tmp_path, cfg)
        assert run("check", "--config", path, "--out", str(tmp_path / "c")) == EXIT_CONFIG
        assert "check.corrupt" in capsys.readouterr().err
