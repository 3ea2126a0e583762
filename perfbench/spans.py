"""Timers installed around the package's public functions, from outside it.

Two modes, both installed by rebinding module and class attributes of an
imported `diracdg`; the package source is never edited.

* `install_timers` (untraced run): three clocks only.  Set-up time is
  timed at `runner.build_space` and `runner.initial_state` (the profile
  solve happens inside the latter); stepping time is timed at the stepper
  that `runner.make_stepper` returns, with two clock reads per step.
* `install_tracer` (traced run): a span around every public function of
  the layers below, with self time (a span's time minus its child spans),
  call counts and computed sizes, aggregated in memory per name and per
  whether the call ran inside the stepper.

A function is replaced at every module that holds it, found by identity
over all loaded `diracdg` modules, so a `from .mesh import table_dot` in a
scheme module is covered as well as the defining module.  `check_calls`
then compares the per-step call counts with the counts the scheme and the
dimension imply, so a binding that escaped the wrapper fails loudly
instead of under-reporting its layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class StepTimer:
    """Per-run stepping clock: one duration per step actually taken."""

    def __init__(self):
        self.times = []

    def wrap(self, step):
        times = self.times

        def timed_step(u, t, tau):
            t0 = clock()
            out = step(u, t, tau)
            times.append(clock() - t0)
            return out

        return timed_step


def install_timers(runner):
    """Untraced run: time set-up and stepping only.  Returns (setup, steps)
    where setup is a one-element list of accumulated seconds."""
    setup = [0.0]
    steps = StepTimer()

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                setup[0] += clock() - t0

        return wrapper

    runner.build_space = timed(runner.build_space)
    runner.initial_state = timed(runner.initial_state)
    make_stepper = runner.make_stepper
    runner.make_stepper = lambda *a, **k: steps.wrap(make_stepper(*a, **k))
    return setup, steps


class Tracer:
    """In-memory span aggregation keyed by (in_step, name) and (in_step, group).

    `in_step` is true for the stepper span and every span inside it.  Group
    time counts only the outermost span of a group, so nested jets are not
    counted twice.
    """

    def __init__(self):
        self.stack = []
        self.depth_in_step = 0
        self.open = defaultdict(int)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, incl, self, extra
        self.groups = defaultdict(float)

    def call(self, fn, name, group, step, extra, args, kwargs):
        child = [0.0]
        self.stack.append(child)
        self.depth_in_step += step
        in_step = self.depth_in_step > 0
        outer = self.open[group] == 0
        self.open[group] += 1
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            self.open[group] -= 1
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += dur
            self.depth_in_step -= step
        rec = self.stats[(in_step, name)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child[0]
        if extra is not None:
            rec[3] += extra(args, out)
        if outer:
            self.groups[(in_step, group)] += dur
        return out

    def wrap(self, fn, name, group=None, extra=None, step=False):
        group = group or name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            return self.call(fn, span, group, step, extra, args, kwargs)

        return wrapper

    def rows(self):
        return {
            "stats": [[st, n, *rec] for (st, n), rec in self.stats.items()],
            "groups": [[st, g, t] for (st, g), t in self.groups.items()],
        }


def _table_dot_bytes(args, out):
    values, table = args
    return values.nbytes + table.nbytes + out.nbytes


def _points(args, out):
    return int(np.asarray(out).size // 4)


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _rebind(pkg_modules, orig, wrapper):
    """Replace `orig` by `wrapper` in every module that holds it."""
    bound = []
    for mod in pkg_modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                bound.append(mod.__name__.rsplit(".", 1)[-1])
    return bound


# (module, function name, span name, group, extra)
_FUNCTIONS = [
    ("mesh", "table_dot", "mesh.table_dot", None, _table_dot_bytes),
    ("semidiscrete", "interface_states", "semidiscrete.interface_states",
     "semidiscrete.flux", None),
    ("semidiscrete", "lf_flux", "semidiscrete.lf_flux", "semidiscrete.flux", None),
    ("semidiscrete", "edge_term_1d", "semidiscrete.edge_term_1d",
     "semidiscrete.edge_term", None),
    ("semidiscrete", "edge_term_2d", "semidiscrete.edge_term_2d",
     "semidiscrete.edge_term", None),
    ("semidiscrete", "rkdg_residual", "rkdg.rkdg_residual", None, None),
    ("integrators", "rk4_step", "rkdg.rk4_step", None, None),
    ("lwdg", "lwdg_step", "lwdg.lwdg_step", None, None),
    ("tsdg", "tsdg_step", "tsdg.tsdg_step", None, None),
    ("waves", "solve_standing_wave", "waves.solve_standing_wave", None, None),
    ("waves", "superposed_real", "waves.superposed_real", None, _points),
    ("diagnostics", "total_charge", "diagnostics.total_charge", "diagnostics", None),
    ("diagnostics", "total_energy", "diagnostics.total_energy", "diagnostics", None),
    ("diagnostics", "probe_charge_density", "diagnostics.probe_charge_density",
     "diagnostics", None),
    ("runner", "save_config", "runner.save_config", "runner.io", _file_bytes),
    ("runner", "write_history", "runner.write_history", "runner.io", _file_bytes),
    ("runner", "write_probe", "runner.write_probe", "runner.io", _file_bytes),
    ("runner", "write_snapshot", "runner.write_snapshot", "runner.io", _file_bytes),
]

_JETS = ("eval", "traces", "volume_jet", "trace_jets", "edge_jets", "edge_values")

# every module that imports these by name must be covered
REQUIRED_BINDINGS = {
    "time_jet": {"cascade", "lwdg", "tsdg"},
    "table_dot": {"mesh", "semidiscrete", "lwdg", "tsdg"},
}


def install_tracer(pkg, dim: int, q: int):
    """Traced run: wrap every layer.  Returns (tracer, step timer)."""
    mods = [m for n, m in sys.modules.items()
            if n == "diracdg" or n.startswith("diracdg.")]
    tr = Tracer()

    def jet_kind(args):
        # volume jets carry (q+1)^dim quadrature points per cell on the
        # trailing axis; 1D traces have no point axis, 2D edges q+1 points
        u = args[0]["u"]
        volume = u.ndim == 3 if dim == 1 else u.shape[-1] == (q + 1) ** 2
        return "cascade.time_jet." + ("volume" if volume else "edge")

    time_jet = ("cascade", "time_jet", jet_kind, "cascade.time_jet", None)
    for modname, fname, span, group, extra in _FUNCTIONS + [time_jet]:
        orig = getattr(getattr(pkg, modname), fname)
        bound = _rebind(mods, orig, tr.wrap(orig, span, group, extra))
        missing = REQUIRED_BINDINGS.get(fname, set()) - set(bound)
        if missing:
            raise RuntimeError(f"{fname} not rebound in {sorted(missing)}")

    for cls in (pkg.mesh.DGSpace1D, pkg.mesh.DGSpace2D):
        for meth in _JETS:
            if meth in vars(cls):
                setattr(cls, meth, tr.wrap(vars(cls)[meth], f"mesh.{meth}", "mesh.jets"))
        cls.project = tr.wrap(cls.project, "mesh.project")
    pkg.model.NLDModel.g_jet = tr.wrap(pkg.model.NLDModel.g_jet, "model.g_jet")
    pkg.waves.MMSSource.jet = tr.wrap(pkg.waves.MMSSource.jet, "waves.mms_jet")
    # one np.linalg.solve per Newton iteration of the profile solve
    np.linalg.solve = tr.wrap(np.linalg.solve, "numpy.linalg.solve")

    steps = StepTimer()
    runner = pkg.runner
    make_stepper = runner.make_stepper

    def traced_make_stepper(*a, **k):
        return steps.wrap(tr.wrap(make_stepper(*a, **k), "step", step=True))

    runner.make_stepper = traced_make_stepper
    return tr, steps


def expected_calls(scheme: str, dim: int) -> dict:
    """Per-step calls of table_dot and time_jet implied by the scheme code.

    k1/k3 are the jet keys at cascade depth 1/3 (u and first derivatives;
    all derivatives up to third order).  A 1D trace call covers both cell
    ends; a 2D edge call covers one side of one axis.
    """
    k1, k3 = dim + 1, (4 if dim == 1 else 10)
    vol = dim + 1                       # flux tables per axis + the zero-order table
    edge_terms = 0 if dim == 1 else 4   # two sides x two axes
    side_axes = 1 if dim == 1 else 4    # trace calls per jet key
    if scheme == "rkdg":
        per_residual = 1 + vol + side_axes + edge_terms
        return {"table_dot": 4 * per_residual, "time_jet": 0}
    if scheme == "lwdg":
        return {"table_dot": k3 + vol + side_axes * k3 + edge_terms,
                "time_jet": 1 + 2 * dim}
    sweep = k1 + vol + side_axes * k1 + edge_terms
    return {"table_dot": 2 * sweep + vol + edge_terms,
            "time_jet": 2 * (1 + 2 * dim)}


def check_calls(tracer: Tracer, steps: int, scheme: str, dim: int):
    """Raise if the per-step call counts differ from `expected_calls`."""
    seen = {
        "table_dot": tracer.stats[(True, "mesh.table_dot")][0],
        "time_jet": tracer.stats[(True, "cascade.time_jet.volume")][0]
        + tracer.stats[(True, "cascade.time_jet.edge")][0],
    }
    want = expected_calls(scheme, dim)
    for fn, n in want.items():
        if seen[fn] != n * steps:
            raise RuntimeError(
                f"{scheme} {dim}D: {seen[fn]} {fn} calls in {steps} steps, "
                f"expected {n} per step; a binding escaped the tracer"
            )
