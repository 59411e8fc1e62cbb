#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fbsdegames command line.

    python3 perfbench/run.py --workload lattice_game --seed 0 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it builds nothing and imports the
package from the checkout's ``src/``.  One run is a closed loop in a single
process: one client issues one ``fbsdegames.cli.main`` call at a time and
repeats the workload's cycle (solve, verify, oracle) until ``--seconds`` is
used up.  Every call is checked (see ``Gate``); a failed check counts the
call as failed, it does not stop the run.

``--trace 0`` reports the end-to-end metrics of untraced cycles, with times
rescaled to a reference machine speed (see ``Speedometer``).  ``--trace
1`` alternates untraced and traced cycles, reports the per-layer metrics of
the traced ones and the tracing overhead, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metrics and the predictions they serve are described in ``README.md``.
"""

import os

# One BLAS thread, set before NumPy loads; the set-up probes inherit it.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXIT_ENVIRONMENT = 2  # the checkout lacks the program or its configs
EXIT_BENCHMARK = 3  # the benchmark itself misbehaved, e.g. a count drifted

ORACLE_CONFIG = "configs/two_step_oracle.json"


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    reference: tuple[float, float]  # J1, J2 that `solve` must reproduce
    # Monte Carlo: the seed goes in as --seed and J carries sampling error
    # (the report's stderr).  Otherwise the seed becomes certificate.seed.
    montecarlo: bool = False


WORKLOADS = {
    # Exact lattice expectations: the seed reaches only certificate.seed,
    # so J and every count are the same for every seed.
    "lattice_game": Workload(
        "configs/coupled_game.json", (0.26974280737695033, 0.2346857723838874)),
    # Reference: the same game on the lattice at the same 16 steps (exact
    # expectations under binomial increments, seed-free).  Over seeds 0-9 the
    # Monte Carlo J sat 1.4 reported standard errors above it on average and
    # at most 3.4 away.
    "mc_game": Workload(
        "perfbench/configs/coupled_mc.json", (0.27074380849225865, 0.23515946480203725),
        montecarlo=True),
    "oracle_grid": Workload(ORACLE_CONFIG, (0.18485285321914346, 0.17260610038104524)),
}

# brute_force_nash on configs/two_step_oracle.json: 5 x 5 grids on a 2-step tree.
ORACLE_REFERENCE = (0.19794619711188266, 0.19794619711188266)
ORACLE_EVALUATIONS = 373
ORACLE_INNER_TOL = 1e-12  # the FbsdeConfig brute_force_nash builds for itself

ARTIFACTS = {
    "solve": ("report.json", "history.csv", "trajectory.csv", "controls.csv"),
    "verify": ("certificate.json",),
    "oracle": ("oracle.json",),
}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("oracle_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("recheck_rho", "1"),
)

# name, unit, source: ("self"|"total", span) or ("count", key) or ("ratio", num, den)
PER_LAYER = (
    ("cli.load_config.s", "s", ("self", "cli.load_config")),
    ("cli.build_backend.s", "s", ("self", "cli.build_backend")),
    ("cli.read_controls.s", "s", ("self", "cli.read_controls")),
    ("cli.write.s", "s", ("self", "cli.write")),
    ("cli.bytes_written", "B", ("count", "cli.bytes_written")),
    ("cli.resolve.calls", "count", ("count", "cli.resolve.calls")),
    # The resolve span only groups calls into fbsde and adjoint, so its self
    # time is ~0 by construction; this one metric is the span's total time.
    ("cli.resolve.s", "s", ("total", "cli.resolve")),
    ("equilibrium.solve_nash.s", "s", ("self", "equilibrium.solve_nash")),
    ("equilibrium.outer_iterations", "count", ("count", "equilibrium.outer_iterations")),
    ("equilibrium.trial_evals", "count", ("count", "equilibrium.trial_evals")),
    ("equilibrium.accept_ratio", "ratio",
     ("ratio", "equilibrium.accepted_steps", "equilibrium.trial_evals")),
    ("equilibrium.eval_cost.calls", "count", ("count", "equilibrium.eval_cost.calls")),
    ("equilibrium.eval_cost.s", "s", ("self", "equilibrium.eval_cost")),
    ("equilibrium.brute_force_nash.s", "s", ("self", "equilibrium.brute_force_nash")),
    ("equilibrium.oracle_evaluations", "count", ("count", "equilibrium.oracle_evaluations")),
    ("fbsde.solve_fbsde.calls", "count", ("count", "fbsde.solve_fbsde.calls")),
    ("fbsde.solve_fbsde.s", "s", ("self", "fbsde.solve_fbsde")),
    ("fbsde.picard_passes", "count", ("count", "fbsde.picard_passes")),
    ("fbsde.forward_pass.calls", "count", ("count", "fbsde.forward_pass.calls")),
    ("fbsde.forward_pass.s", "s", ("self", "fbsde.forward_pass")),
    ("fbsde.backward_pass.calls", "count", ("count", "fbsde.backward_pass.calls")),
    ("fbsde.backward_pass.s", "s", ("self", "fbsde.backward_pass")),
    ("adjoint.solve_adjoint.calls", "count", ("count", "adjoint.solve_adjoint.calls")),
    ("adjoint.solve_adjoint.s", "s", ("self", "adjoint.solve_adjoint")),
    ("adjoint.picard_passes", "count", ("count", "adjoint.picard_passes")),
    ("adjoint.costate_combination.calls", "count", ("count", "adjoint.costate_combination.calls")),
    ("adjoint.costate_combination.s", "s", ("self", "adjoint.costate_combination")),
    ("hamiltonian.vi_residual.calls", "count", ("count", "hamiltonian.vi_residual.calls")),
    ("hamiltonian.vi_residual.s", "s", ("self", "hamiltonian.vi_residual")),
    ("hamiltonian.control_gradient.calls", "count", ("count", "hamiltonian.control_gradient.calls")),
    ("hamiltonian.control_gradient.s", "s", ("self", "hamiltonian.control_gradient")),
    ("hamiltonian.build_certificate.s", "s", ("self", "hamiltonian.build_certificate")),
    ("hamiltonian.check_pointwise_min.s", "s", ("self", "hamiltonian.check_pointwise_min")),
    ("hamiltonian.check_convexity.s", "s", ("self", "hamiltonian.check_convexity")),
    ("drivers.fit.calls", "count", ("count", "drivers.fit.calls")),
    ("drivers.fit.s", "s", ("self", "drivers.fit")),
    ("drivers.ridge_fallback_ratio", "ratio", ("ratio", "drivers.ridge_fallbacks", "drivers.fit.calls")),
    ("drivers.cond_exp.calls", "count", ("count", "drivers.cond_exp.calls")),
    ("drivers.step_forward.calls", "count", ("count", "drivers.step_forward.calls")),
    ("drivers.knots.calls", "count", ("count", "drivers.knots.calls")),
    ("drivers.sample_ensemble.s", "s", ("self", "drivers.sample_ensemble")),
    ("lq.value.calls", "count", ("count", "lq.value.calls")),
    ("lq.jacobian.calls", "count", ("count", "lq.jacobian.calls")),
)

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median


class EnvironmentProblem(RuntimeError):
    """The checkout cannot be benchmarked (no program, no configs)."""


class BenchmarkError(RuntimeError):
    """The benchmark misbehaved; no result may be printed."""


# ---------------------------------------------------------------------------
# one CLI call and its checks
# ---------------------------------------------------------------------------


def j_tolerance(inner_tol: float, reference: float, stderr: float) -> float:
    """Allowed |J - reference| for one player.

    The Picard solves stop once the mean-square update is below ``inner_tol``
    (1e-12 in every config here), i.e. an RMS update of sqrt(inner_tol).
    With damping 0.5 the distance to the fixed point is at most r/(1-r)
    times the update; a factor 10 covers contraction rates up to 0.9.  J is
    a quadratic functional with O(1) coefficients, so that error enters J
    scaled by about (1 + |J|).  The gradient tolerances (1e-7, 1e-9) move the
    controls, hence J, two orders less and are absorbed.  On Monte Carlo the
    sampling error dominates: over seeds 0-9 the estimates stayed within 3.4
    reported standard errors of the reference, so 8 leaves room.
    """
    return 10.0 * math.sqrt(inner_tol) * (1.0 + abs(reference)) + 8.0 * stderr


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Gate:
    """Correctness checks of every CLI call; each failed call is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_digests: dict[str, dict[str, str]] = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: " + "; ".join(problems))

    def same_as_first(self, step: str, out: Path, names) -> list[str]:
        """The determinism invariant: artifacts equal the first repeat's bytes."""
        digests = {name: file_digest(out / name) for name in names}
        first = self.first_digests.setdefault(step, digests)
        return [f"{name} differs from the first repeat"
                for name in names if digests[name] != first[name]]


def check_costs(payload: dict, reference, inner_tol: float, sampled: bool) -> list[str]:
    problems = []
    for i, ref in enumerate(reference, start=1):
        value = payload[f"j{i}"]
        stderr = payload[f"stderr{i}"] if sampled else 0.0
        tol = j_tolerance(inner_tol, ref, stderr)
        if not abs(value - ref) <= tol:
            problems.append(f"J{i} = {value!r} is {abs(value - ref):.3g} from {ref!r} (tolerance {tol:.3g})")
    return problems


class Speedometer:
    """Samples the machine's speed ten times a second while a run measures.

    A SIGALRM handler times a fixed ~1 ms kernel of small NumPy calls and
    interpreter work, the mix the solvers run.  On the shared 2-core box
    this benchmark was written on, the host's speed drifts between two
    levels about 1.5x apart, over seconds to minutes, and call times follow
    the kernel's time around the call (correlation 0.8 to 0.9).
    ``reference_seconds`` rescales a wall time to the speed at which the
    kernel takes ``REFERENCE`` seconds, the box's usual speed.  The handler
    adds about 1% to every timed call, the same on every commit.
    """

    INTERVAL = 0.1
    REFERENCE = 0.9e-3
    MARGIN = 0.5  # seconds of samples taken on each side of a call
    TRIM = 0.1  # share of the window's slowest and fastest samples dropped

    def __init__(self):
        import numpy as np

        self._x = np.linspace(0.0, 1.0, 65).reshape(65, 1)
        self._jac = np.ones((65, 1, 1))
        self._einsum = np.einsum
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum, frame):
        started = time.perf_counter()
        for _ in range(100):
            self._einsum("sov,so->sv", self._jac, self._x * 0.5 + 0.1).sum()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, measured from start to end, at the reference speed."""
        lo, hi = start - self.MARGIN, end + self.MARGIN
        window = sorted(k for t, k in self.samples if lo <= t <= hi)
        drop = int(len(window) * self.TRIM)
        kept = window[drop:len(window) - drop] or [k for _, k in self.samples]
        return seconds * self.REFERENCE / statistics.fmean(kept)


def call_cli(main, argv: list[str]) -> tuple[int | None, float, float, str]:
    """One in-process CLI call: exit code (None if it raised), start, end, output."""
    buf = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the program failed; the run goes on and counts it
        code = None
        traceback.print_exc(file=buf)
    return code, started, time.perf_counter(), buf.getvalue()


def exit_problem(code, output: str) -> list[str]:
    if code == 0:
        return []
    lines = output.strip().splitlines()
    return [f"exit code {code}" + (f": {lines[-1]}" if lines else "")]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def load_program():
    """Import fbsdegames from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fbsdegames" / "cli.py").is_file():
        raise EnvironmentProblem(f"no fbsdegames sources under {src}")
    for name in {w.config for w in WORKLOADS.values()} | {ORACLE_CONFIG}:
        if not (ROOT / name).is_file():
            raise EnvironmentProblem(f"missing config {name}")
    sys.path.insert(0, str(src))
    import fbsdegames.cli

    if not Path(fbsdegames.cli.__file__).resolve().is_relative_to(src):
        raise EnvironmentProblem(f"imported fbsdegames from {fbsdegames.cli.__file__}")
    return fbsdegames.cli


def write_config(source: Path, target: Path, certificate_seed: int | None) -> Path:
    raw = json.loads(source.read_text())
    if certificate_seed is not None:
        raw.setdefault("certificate", {})["seed"] = certificate_seed
    target.write_text(json.dumps(raw, indent=2) + "\n")
    return target


def setup_time(config: Path, seed: int | None) -> tuple[float, float, float]:
    """One set-up in a fresh interpreter (see setup_probe.py): seconds, start, end."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(config)]
    if seed is not None:
        argv.append(str(seed))
    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    ended = time.perf_counter()
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1]), started, ended


class Cycle:
    """solve -> verify on the workload config, then the grid oracle."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed_args = ["--seed", str(seed)] if workload.montecarlo else []
        cert_seed = None if workload.montecarlo else seed
        self.config = write_config(ROOT / workload.config, work / "workload.json", cert_seed)
        self.oracle_config = write_config(ROOT / ORACLE_CONFIG, work / "oracle.json", seed)
        self.own_oracle = workload.config == ORACLE_CONFIG
        if self.own_oracle:
            self.oracle_config = self.config
        self.work = work
        self.inner_tol = json.loads(self.config.read_text())["fbsde"]["tol"]
        self.tracer = None
        self.speed: Speedometer | None = None
        self.calls: list[tuple[str, float, float, float]] = []  # metric, seconds, start, end
        self.solve_report: Path | None = None
        self.solved = False

    def timing(self, name: str, seconds: float, start: float, end: float) -> None:
        self.calls.append((name, seconds, start, end))

    def wall(self, name: str) -> list[float]:
        return [seconds for metric, seconds, _, _ in self.calls if metric == name]

    def call(self, step: str, argv: list[str], metric: str | None = None) -> tuple[int | None, str]:
        tracer = self.tracer
        if tracer is None:
            code, start, end, output = call_cli(self.cli.main, argv)
        else:
            tracer.command = step
            tracer.request = f"{self.label}.{step}"
            sid = tracer.open_span(f"cli.{step}")
            try:
                code, start, end, output = call_cli(self.cli.main, argv)
            finally:
                tracer.close_span(sid)
        if metric is not None:
            self.timing(metric, end - start, start, end)
        return code, output

    def solve(self, gate: Gate, config: Path, out: Path, reference, step="solve", metric=None):
        code, output = self.call("solve", ["solve", "--config", str(config), "--out", str(out)]
                                 + (self.seed_args if config == self.config else []), metric)
        problems = exit_problem(code, output)
        if code == 0:
            report = json.loads((out / "report.json").read_text())
            if report["verdict"] != "certified" or not report["converged"]:
                problems.append(f"verdict {report['verdict']}, converged {report['converged']}")
            problems += check_costs(report, reference, self.inner_tol,
                                    self.workload.montecarlo and config == self.config)
            problems += gate.same_as_first(step, out, ARTIFACTS["solve"])
        gate.record(f"{self.label} {step}", problems)
        return code == 0

    def prime(self, gate: Gate) -> None:
        """A solve of the oracle config whose report the oracle step reads."""
        self.label = "prime"
        out = fresh_dir(self.work / "prime")
        self.solve_report = out / "report.json"
        if not self.own_oracle:
            self.solve(gate, self.oracle_config, out, WORKLOADS["oracle_grid"].reference,
                       step="prime")

    def run(self, gate: Gate, index: int, rho: list, with_solve=True) -> None:
        """One cycle; without the solve, verify and oracle recheck the last one."""
        self.label = f"cycle{index}"
        solve_out = self.work / "solve"
        if with_solve:
            self.solved = self.solve(gate, self.config, fresh_dir(solve_out),
                                     self.workload.reference, metric="solve_s")
        ok = self.solved
        verify_out = fresh_dir(self.work / "verify")
        if not ok:
            gate.record(f"{self.label} verify", ["not run: solve exited abnormally"])
        else:
            code, output = self.call("verify", [
                "verify", "--config", str(self.config), "--out", str(verify_out),
                "--controls", str(solve_out / "controls.csv")] + self.seed_args, "verify_s")
            problems = exit_problem(code, output)
            if code == 0:
                cert = json.loads((verify_out / "certificate.json").read_text())
                if cert["verdict"] != "certified":
                    problems.append(f"verdict {cert['verdict']}")
                rho.append(max(cert["rho1"], cert["rho2"]))
                problems += gate.same_as_first("verify", verify_out, ARTIFACTS["verify"])
            gate.record(f"{self.label} verify", problems)

        oracle_out = fresh_dir(self.work / "oracle")
        report = solve_out / "report.json" if self.own_oracle else self.solve_report
        if self.own_oracle and not ok:
            gate.record(f"{self.label} oracle", ["not run: solve exited abnormally"])
            return
        code, output = self.call("oracle", [
            "oracle", "--config", str(self.oracle_config), "--out", str(oracle_out),
            "--solve-report", str(report)], "oracle_s")
        problems = exit_problem(code, output)
        if code == 0:
            result = json.loads((oracle_out / "oracle.json").read_text())
            if result["equilibrium"] is not True:
                problems.append(f"equilibrium {result['equilibrium']}")
            if result["evaluations"] != ORACLE_EVALUATIONS:
                problems.append(f"{result['evaluations']} evaluations, expected {ORACLE_EVALUATIONS}")
            problems += check_costs({**result, "stderr1": 0.0, "stderr2": 0.0},
                                    ORACLE_REFERENCE, ORACLE_INNER_TOL, False)
            problems += gate.same_as_first("oracle", oracle_out, ARTIFACTS["oracle"])
        gate.record(f"{self.label} oracle", problems)


def layer_values(counts, self_s, total_s) -> dict[str, float]:
    values = {}
    for name, _, source in PER_LAYER:
        kind = source[0]
        if kind == "self":
            values[name] = self_s.get(source[1], 0.0)
        elif kind == "total":
            values[name] = total_s.get(source[1], 0.0)
        elif kind == "count":
            values[name] = counts.get(source[1], 0)
        else:
            den = counts.get(source[2], 0)
            values[name] = counts.get(source[1], 0) / den if den else 0.0
    return values


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    q = statistics.quantiles(ordered, n=4, method="inclusive") if len(ordered) > 1 else ordered * 3
    return {"n": len(ordered), "q1": q[0], "median": statistics.median(ordered),
            "q3": q[2], "max": ordered[-1]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    cli = load_program()
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    deadline = started + seconds
    work = fresh_dir(OUT / f"work-{workload_name}-{seed}-{os.getpid()}")
    stack = contextlib.ExitStack()
    try:
        cycle = Cycle(cli, workload, seed, work)
        gate = Gate()
        rho: list[float] = []
        probe_seed = seed if workload.montecarlo else None
        cycle.prime(gate)

        tracer = None
        if trace:
            sys.path.insert(0, str(BENCH))
            from instrument import Tracer

            tracer = Tracer()
        else:
            cycle.speed = stack.enter_context(Speedometer())
        # Untraced: full cycles while one fits, then verify + oracle alone.
        # Traced: cycles untraced, traced, traced, untraced, ... (no filling).
        min_cycles = 3 if trace else 2
        durations = {True: [], False: []}
        per_cycle = []  # traced cycles: (counts, self times, total times)
        index = 0
        while True:
            # set-up probes spread over the run, so they see the same machine as the calls
            if not trace and len(cycle.wall("setup_s")) < SETUP_PROBES:
                cycle.timing("setup_s", *setup_time(cycle.config, probe_seed))
            traced = trace and index % 3 != 0
            with_solve = True
            if index >= min_cycles:
                left = deadline - time.perf_counter()
                if trace:
                    if max(durations[traced][-2:]) > left:
                        break
                else:
                    recheck = sum(statistics.median(cycle.wall(name))
                                  for name in ("verify_s", "oracle_s") if cycle.wall(name))
                    if recheck + statistics.median(cycle.wall("solve_s")) > left:
                        if recheck > left:
                            break
                        with_solve = False
            if traced:
                first_span = len(tracer.spans)
                before = collections.Counter(tracer.counts)
                tracer.install()
                cycle.tracer = tracer
            t0 = time.perf_counter()
            try:
                cycle.run(gate, index, rho, with_solve)
            finally:
                if traced:
                    tracer.uninstall()
                    cycle.tracer = None
            durations[traced].append(time.perf_counter() - t0)
            if traced:
                counts = collections.Counter(tracer.counts)
                counts.subtract(before)
                per_cycle.append((counts, tracer.self_times(first_span),
                                  tracer.inclusive_times(first_span)))
            index += 1
        while not trace and len(cycle.wall("setup_s")) < SETUP_PROBES:
            cycle.timing("setup_s", *setup_time(cycle.config, probe_seed))
        stack.close()

        result = {
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
            "cycles": index, "wall_s": time.perf_counter() - started,
            "attempted": gate.attempted, "failed": gate.failed, "failures": gate.messages,
            "stamp": stamp(),
        }
        if trace:
            result.update(traced_metrics(tracer, per_cycle, durations, gate, workload_name, seed))
        else:
            samples = collections.defaultdict(list)
            for name, *timing in cycle.calls:
                samples["wall." + name].append(timing[0])
                samples[name].append(cycle.speed.reference_seconds(*timing))
            result.update(untraced_metrics(samples, rho))
            result.update(calls=cycle.calls, speed=cycle.speed.samples)
        return result
    finally:
        stack.close()
        shutil.rmtree(work, ignore_errors=True)


def untraced_metrics(samples, rho) -> dict:
    stats = {name: quartiles(values) for name, values in samples.items() if values}
    metrics = {name: stats[name]["median"] for name in ("setup_s", "solve_s", "verify_s", "oracle_s")
               if name in stats}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rho:
        metrics["recheck_rho"] = statistics.median(rho)
    return {"metrics": metrics, "units": {name: dict(END_TO_END)[name] for name in metrics},
            "samples": dict(samples), "timings": stats}


def traced_metrics(tracer, per_cycle, durations, gate, workload_name, seed) -> dict:
    rows = [layer_values(*entry) for entry in per_cycle]
    if gate.failed == 0:
        for name, unit, _ in PER_LAYER:
            if unit != "s" and any(row[name] != rows[0][name] for row in rows):
                raise BenchmarkError(
                    f"{name} drifted across traced cycles: {[row[name] for row in rows]}")
    metrics = {name: statistics.median(row[name] for row in rows) if unit == "s" else rows[0][name]
               for name, unit, _ in PER_LAYER}
    metrics["ops_failed"] = gate.failed / gate.attempted
    traced = statistics.median(durations[True])
    untraced = statistics.median(durations[False])
    metrics["trace.overhead"] = traced / untraced - 1.0
    spans_file = OUT / f"spans-{workload_name}-seed{seed}.jsonl.gz"
    with gzip.open(spans_file, "wt") as fh:
        for sid, parent, request, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                 "name": name, "start": start, "end": end}) + "\n")
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update({"ops_failed": "ratio", "trace.overhead": "ratio"})
    return {"metrics": metrics, "units": units, "per_cycle": rows,
            "spans": str(spans_file.relative_to(ROOT)),
            "cycle_s": {"traced": durations[True], "untraced": durations[False]}}


# ---------------------------------------------------------------------------
# stamp and output
# ---------------------------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout if it is a git work tree, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fbsdegames").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def print_result(result: dict) -> None:
    units = result["units"]
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"cycles={result['cycles']} wall={result['wall_s']:.1f}s")
    print("# stamp " + json.dumps(result["stamp"], sort_keys=True))
    for message in result["failures"]:
        print(f"# FAILED {message}")
    timings = result.get("timings", {})
    for name, value in result["metrics"].items():
        line = f"{name} {value!r} {units[name]}"
        if name in timings:
            t, w = timings[name], timings["wall." + name]
            line += (f"  (reference speed: median of n={t['n']}, q1 {t['q1']:.4f}, q3 {t['q3']:.4f},"
                     f" max {t['max']:.4f}; wall clock: median {w['median']:.4f}, max {w['max']:.4f};"
                     f" a tail with ten samples beyond it needs n >= 21)")
        print(line)
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except EnvironmentProblem as exc:
        print(f"cannot benchmark this checkout: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return EXIT_BENCHMARK
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
