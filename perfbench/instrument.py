"""Spans and counters around fbsdegames' public functions, for traced runs.

Nothing under ``src/`` is edited.  ``Tracer.install`` rebinds each wrapped
function in every ``fbsdegames`` module that imported it (and patches a few
backend methods and the LQ callbacks a parsed config carries);
``Tracer.uninstall`` puts every original back, so an untraced cycle runs the
unmodified program.

Spans are kept in memory as ``(span_id, parent_id, request, name, start,
end)`` tuples and written out by the caller at the end of the run; a layer's
self time is derived from them afterwards (``self_times``).  Counters count
calls and sum the iteration and ridge-fallback numbers the solvers return.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import os
import sys
import time

# (module, function, span name): each call gets a span and a ``<name>.calls`` count.
SPANNED = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "build_backend", "cli.build_backend"),
    ("cli", "read_controls", "cli.read_controls"),
    ("cli", "write_report", "cli.write"),
    ("cli", "write_history", "cli.write"),
    ("cli", "write_trajectory", "cli.write"),
    ("cli", "write_controls", "cli.write"),
    ("cli", "_write_json", "cli.write"),
    ("cli", "_write_csv", "cli.write"),
    ("equilibrium", "solve_nash", "equilibrium.solve_nash"),
    ("equilibrium", "eval_cost", "equilibrium.eval_cost"),
    ("equilibrium", "brute_force_nash", "equilibrium.brute_force_nash"),
    ("fbsde", "solve_fbsde", "fbsde.solve_fbsde"),
    ("fbsde", "forward_pass", "fbsde.forward_pass"),
    ("fbsde", "backward_pass", "fbsde.backward_pass"),
    ("adjoint", "solve_adjoint", "adjoint.solve_adjoint"),
    ("adjoint", "costate_combination", "adjoint.costate_combination"),
    ("hamiltonian", "vi_residual", "hamiltonian.vi_residual"),
    ("hamiltonian", "control_gradient", "hamiltonian.control_gradient"),
    ("hamiltonian", "build_certificate", "hamiltonian.build_certificate"),
    ("hamiltonian", "check_pointwise_min", "hamiltonian.check_pointwise_min"),
    ("hamiltonian", "check_convexity", "hamiltonian.check_convexity"),
    ("drivers", "sample_ensemble", "drivers.sample_ensemble"),
)

# CoefficientSet / CostSet fields by counter: values versus partials.
LQ_VALUES = {"b", "sigma", "f", "l1", "l2", "phi1", "phi2", "h1", "h2"}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "fbsdegames" or name.startswith("fbsdegames."))]


class Tracer:
    """Installs the wrappers, records spans and counts, restores the program."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.request: str | None = None
        self.command: str | None = None
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; ``after(args, result)`` may add counts from the call."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.request, name, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def open_span(self, name):
        """Start a span the caller closes with ``close_span``; returns its id."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, self.request, name, time.perf_counter(), None))
        self._stack.append(sid)
        return sid

    def close_span(self, sid):
        end = time.perf_counter()
        self._stack.pop()
        record = self.spans[sid]
        self.spans[sid] = record[:5] + (end,)

    # -- result hooks --------------------------------------------------------

    def _diagnostics(self, layer, diag):
        self.counts[f"{layer}.picard_passes"] += diag.iterations
        self.counts["drivers.ridge_fallbacks"] += diag.ridge_fallbacks

    def _solver(self, layer, fn):
        """Span around a Picard solver that also sums its returned diagnostics."""
        from fbsdegames.fbsde import PicardDivergenceError

        inner = self.timed(f"{layer}.{fn.__name__}", fn,
                           after=lambda args, result: self._diagnostics(layer, result[1]))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except PicardDivergenceError as exc:
                self._diagnostics(layer, exc.diagnostics)
                raise

        return wrapper

    def _after_solve_nash(self, args, report):
        self.counts["equilibrium.outer_iterations"] += report.iterations
        self.counts["equilibrium.accepted_steps"] += sum(
            1 for rec in report.history if rec.step_size > 0.0)

    def _after_oracle(self, args, result):
        self.counts["equilibrium.oracle_evaluations"] += result.evaluations

    def _after_write(self, args, result):
        self.counts["cli.bytes_written"] += os.path.getsize(args[0])

    def _count_trials(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(problem, u, backend, config, warm=None):
            if warm is not None:
                counts["equilibrium.trial_evals"] += 1
            return fn(problem, u, backend, config, warm=warm)

        return wrapper

    def _resolve(self, fn):
        """cmd_solve's state and adjoint solves after the search: a cli.resolve span."""
        inner = self.timed("cli.resolve", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.command == "solve":
                return inner(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _counting_problem(self, fn):
        """lq_to_problem whose coefficient and cost callables count their calls."""

        def count_fields(obj):
            changes = {}
            for field in dataclasses.fields(obj):
                kind = "value" if field.name in LQ_VALUES else "jacobian"
                changes[field.name] = self.counted(f"lq.{kind}.calls", getattr(obj, field.name))
            return dataclasses.replace(obj, **changes)

        @functools.wraps(fn)
        def wrapper(spec):
            problem = fn(spec)
            return dataclasses.replace(
                problem,
                coefficients=count_fields(problem.coefficients),
                costs=count_fields(problem.costs),
            )

        return wrapper

    # -- installing ----------------------------------------------------------

    def _rebind(self, module_name, attr, make):
        """Replace every binding of fbsdegames.<module>.<attr> by make(original)."""
        original = getattr(sys.modules[f"fbsdegames.{module_name}"], attr)
        wrapper = make(original)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch_attr(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import fbsdegames.cli  # noqa: F401  (loads every layer)
        from fbsdegames import drivers

        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {
            "equilibrium.solve_nash": self._after_solve_nash,
            "equilibrium.brute_force_nash": self._after_oracle,
        }
        for module_name, attr, name in SPANNED:
            if module_name in ("fbsde", "adjoint") and attr.startswith("solve_"):
                self._rebind(module_name, attr, functools.partial(self._solver, module_name))
            elif attr in ("_write_json", "_write_csv"):
                self._rebind(module_name, attr,
                             lambda fn, n=name: self.timed(n, fn, after=self._after_write))
            else:
                self._rebind(module_name, attr,
                             lambda fn, n=name: self.timed(n, fn, after=hooks.get(n)))
        self._rebind("equilibrium", "_evaluate", self._count_trials)
        cli = sys.modules["fbsdegames.cli"]
        for attr in ("solve_fbsde", "solve_adjoint"):
            self._patch_attr(cli, attr, self._resolve(getattr(cli, attr)))
        self._rebind("cli", "lq_to_problem", self._counting_problem)

        for cls in (drivers.LatticeBackend, drivers.MonteCarloBackend):
            for attr in ("cond_exp", "cond_exp_increment"):
                self._patch_attr(cls, attr, self.counted("drivers.cond_exp.calls", cls.__dict__[attr]))
            self._patch_attr(cls, "step_forward",
                             self.counted("drivers.step_forward.calls", cls.__dict__["step_forward"]))
        fit = drivers.MonteCarloBackend.__dict__["_fit"]
        self._patch_attr(drivers.MonteCarloBackend, "_fit", self.timed("drivers.fit", fit))
        knots = drivers.TimeGrid.__dict__["knots"]
        self._patch_attr(drivers.TimeGrid, "knots",
                         property(self.counted("drivers.knots.calls", knots.fget)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def self_times(self, first_span=0):
        """Self time per span name over spans[first_span:], in seconds."""
        spans = self.spans
        child = collections.defaultdict(float)
        for sid, parent, _, _, start, end in spans[first_span:]:
            if parent is not None:
                child[parent] += end - start
        out = collections.defaultdict(float)
        for sid, _, _, name, start, end in spans[first_span:]:
            out[name] += (end - start) - child[sid]
        return out

    def inclusive_times(self, first_span=0):
        """Summed span durations per name over spans[first_span:], in seconds."""
        out = collections.defaultdict(float)
        for _, _, _, name, start, end in self.spans[first_span:]:
            out[name] += end - start
        return out
