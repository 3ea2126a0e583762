"""Experiment configuration, presets, and run orchestration.

A run is described by a flat, file-friendly `RunConfig`; `run_simulation`
builds the space, initial state and stepper from it, marches to the final
time and records the conserved-quantity history (and an optional pointwise
|psi|^2 probe).  `converge_study` repeats a run over a ladder of meshes
and measures errors against the exact solution the configuration implies
(single travelling/standing wave, or the manufactured field).

Config files are plain ``section.key = value`` lines; see `save_config` /
`load_config`.  Each value is read once, by `_typed`, as the type of its
field's default: a string verbatim, an integer (``2.0`` reads as 2), a
finite float, or a comma list of floats for ``run.snapshots``.  A word or
fraction where a number or integer belongs, a key no field uses, a file
that is not UTF-8, and a value or combination `_validate` rejects (a
probe off the grid, waves in the manufactured problem, ...) raise
`ConfigError`; the CLI reads its flags through the same path and exits 2
on it.  Config and history files (and, in `waves`, profile files) are read
as UTF-8 by `errors.read_text`, so one of the three that does not decode
raises `ConfigError` naming the kind of file and its path.  The bundled
presets are one table, `PRESETS`: each name maps to a description, a
desk-scale config and the fields that `full_scale=True` changes to restore
the published domain, resolution and final time.
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    probe_charge_density,
    relative_drift,
    total_charge,
    total_energy,
)
from .errors import ConfigError, read_text
from .heap import keep_freed_heap_mapped
from .integrators import cfl_dt, default_mu, evolve, rk4_step
from .lwdg import lwdg_step
from .mesh import DGSpace1D, DGSpace2D, Grid1D, Grid2D, convergence_orders
from .model import NLDModel, charge_density
from .semidiscrete import rkdg_residual
from .tsdg import tsdg_step
from .waves import MMSSource, mms_state, solve_standing_wave, superposed_real


@dataclass(frozen=True)
class WaveSpec:
    omega: float = 0.8
    v: float = 0.0
    x0: float = 0.0
    y0: float = 0.0
    S: int = 0


@dataclass(frozen=True)
class RunConfig:
    label: str = "run"
    dim: int = 1
    scheme: str = "rkdg"  # rkdg | lwdg | tsdg
    q: int = 2
    tfinal: float = 1.0
    mu: float = 0.0  # 0 -> default CFL number for (dim, q, scheme)
    history_every: int = 20
    xmin: float = -1.0
    xmax: float = 1.0
    nx: int = 64
    ymin: float = 0.0
    ymax: float = 0.0
    ny: int = 0
    m: float = 1.0
    lam: float = 0.5
    kappa: float = 1.0
    ic: str = "waves"  # waves | mms
    source: str = "none"  # none | mms
    waves: tuple = ()
    wave_R: float = 0.0  # 0 -> solver default
    wave_N: int = 256
    probe: tuple = ()  # () or (x,) / (x, y)
    snapshots: tuple = ()

    def model(self) -> NLDModel:
        return NLDModel(m=self.m, lam=self.lam, kappa=self.kappa)

    def effective_mu(self) -> float:
        return self.mu if self.mu > 0.0 else default_mu(self.dim, self.q, self.scheme)

    def exact_kind(self) -> str:
        """The exact field the problem implies; a sum of waves is none."""
        if self.ic == "mms":
            return "mms"
        return "waves" if len(self.waves) == 1 else "none"


# ---------------------------------------------------------------------------
# flat config files

_SCALAR_FIELDS = {
    "run.label": "label", "run.scheme": "scheme", "run.q": "q",
    "run.tfinal": "tfinal", "run.mu": "mu", "run.history_every": "history_every",
    "grid.dim": "dim", "grid.xmin": "xmin", "grid.xmax": "xmax", "grid.nx": "nx",
    "grid.ymin": "ymin", "grid.ymax": "ymax", "grid.ny": "ny",
    "model.m": "m", "model.lam": "lam", "model.kappa": "kappa",
    "ic.type": "ic", "ic.source": "source", "ic.wave_R": "wave_R",
    "ic.wave_N": "wave_N",
}
_WAVE_FIELDS = ("omega", "v", "x0", "y0", "S")
# each flat value is read as the type of its field's default
_TYPES = {key: type(getattr(RunConfig, attr)) for key, attr in _SCALAR_FIELDS.items()}
_TYPES.update({"probe.x": float, "probe.y": float, "run.snapshots": list})
_TYPES.update({f"ic.wave.{f}": type(getattr(WaveSpec, f)) for f in _WAVE_FIELDS})
_CHOICES = {
    "run.scheme": ("rkdg", "lwdg", "tsdg"), "grid.dim": (1, 2),
    "ic.type": ("waves", "mms"), "ic.source": ("none", "mms"),
}


def config_to_flat(cfg: RunConfig) -> dict:
    flat = {key: getattr(cfg, attr) for key, attr in _SCALAR_FIELDS.items()}
    for i, wv in enumerate(cfg.waves, start=1):
        for f in _WAVE_FIELDS:
            flat[f"ic.wave{i}.{f}"] = getattr(wv, f)
    if cfg.probe:
        flat["probe.x"] = cfg.probe[0]
        if len(cfg.probe) > 1:
            flat["probe.y"] = cfg.probe[1]
    if cfg.snapshots:
        flat["run.snapshots"] = ",".join(repr(s) for s in cfg.snapshots)
    return flat


def _typed(key: str, val):
    """A flat value read as the type of its field: a string verbatim, an
    integer (2 or "2.0", not 2.5, true or "two"), a finite float, or for
    run.snapshots a comma list of floats.  A key that names no field comes
    back as it is, for `config_from_flat` to reject."""
    kind = _TYPES.get(re.sub(r"^ic\.wave\d+\.", "ic.wave.", key))
    if kind is list:
        if not isinstance(val, (list, tuple)):
            val = str(val).split(",") if str(val).strip() else []
        return [_number(key, tok, float) for tok in val]
    if kind is int or kind is float:
        return _number(key, val, kind)
    return str(val) if kind is str else val


def _number(key: str, val, kind):
    try:
        num = math.nan if isinstance(val, bool) else float(val)
    except (TypeError, ValueError):
        num = math.nan
    if math.isfinite(num) and (kind is float or num.is_integer()):
        return kind(num)
    what = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{key} must be {what}, got {val!r}")


def config_from_flat(flat: dict) -> RunConfig:
    flat = {key: _typed(key, val) for key, val in flat.items()}
    kwargs = {attr: flat[key] for key, attr in _SCALAR_FIELDS.items() if key in flat}
    known = set(_SCALAR_FIELDS) | {"probe.x", "run.snapshots"}
    waves = []
    while f"ic.wave{len(waves) + 1}.omega" in flat:
        keys = {f: f"ic.wave{len(waves) + 1}.{f}" for f in _WAVE_FIELDS}
        waves.append(WaveSpec(**{f: flat[k] for f, k in keys.items() if k in flat}))
        known.update(keys.values())
    kwargs["waves"] = tuple(waves)
    if "probe.x" in flat:
        known.add("probe.y")
        kwargs["probe"] = tuple(flat[k] for k in ("probe.x", "probe.y") if k in flat)
    kwargs["snapshots"] = tuple(flat.get("run.snapshots", ()))
    unknown = sorted(set(flat) - known)
    if unknown:
        raise ConfigError(f"unknown or unused config keys: {', '.join(unknown)}")
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    for key, allowed in _CHOICES.items():
        val = getattr(cfg, _SCALAR_FIELDS[key])
        if val not in allowed:
            raise ConfigError(
                f"{key} must be one of {', '.join(map(str, allowed))}, got {val!r}"
            )
    box = ((cfg.xmin, cfg.xmax), (cfg.ymin, cfg.ymax))[: cfg.dim]
    names = Counter(f"{s:g}" for s in cfg.snapshots)
    clash = sorted(s for s in cfg.snapshots if names[f"{s:g}"] > 1)
    # a key the run cannot use keeps its default: a 1D run has no y axis, and
    # the manufactured problem solves no wave profile
    flat, default = config_to_flat(cfg), config_to_flat(RunConfig())
    no_y = [f"{k} = {v}" for k, v in flat.items() if cfg.dim == 1 and v and (
        k in ("grid.ny", "grid.ymin", "grid.ymax") or k.endswith(".y0"))]
    no_profile = [f"{k} = {flat[k]}" for k in ("ic.wave_R", "ic.wave_N")
                  if cfg.ic == "mms" and flat[k] != default[k]]
    for bad, msg in (
        (no_y, f"a 1D run has no y axis: {', '.join(no_y)} must be 0"),
        (no_profile, f"ic.type = mms solves no wave profile: {', '.join(no_profile)} "
                     f"must keep the defaults ic.wave_R = 0.0 and ic.wave_N = 256"),
        ("mms" in (cfg.ic, cfg.source) and cfg.dim != 2,
         "the manufactured problem is two-dimensional"),
        ("mms" in (cfg.ic, cfg.source)
         and not (float(cfg.kappa).is_integer() and cfg.kappa >= 0.0),
         f"the manufactured problem needs an integer model.kappa >= 0, got "
         f"{cfg.kappa}"),
        # until the model has a rule for g at rho < 0 (ROADMAP item 15)
        (cfg.ic == "waves" and not float(cfg.kappa).is_integer(),
         f"ic.type = waves needs an integer kappa, got kappa = {cfg.kappa} "
         f"(model.kappa): the projected wave has rho < 0 in its tails, where "
         f"rho**kappa has no real value"),
        (cfg.ic == "mms" and cfg.waves,
         "ic.type = mms takes no ic.waveN entries (--omega and --v set ic.wave1)"),
        ((cfg.ic == "mms") != (cfg.source == "mms"),
         f"ic.type = mms and ic.source = mms go together (the manufactured field "
         f"solves only its forced problem), got {cfg.ic} and {cfg.source}"),
        (any(wv.S < 0 for wv in cfg.waves), "each ic.waveN.S must be >= 0"),
        (cfg.wave_N < 2 or cfg.wave_R < 0.0,
         f"ic.wave_N = {cfg.wave_N} must be >= 2 and ic.wave_R = {cfg.wave_R} >= 0"),
        (not 0.0 <= cfg.mu < math.inf,
         f"run.mu must be >= 0 and finite (0 picks the default), got {cfg.mu}"),
        (not cfg.tfinal > 0.0, f"run.tfinal must be > 0, got {cfg.tfinal}"),
        (any(not 0.0 <= s <= cfg.tfinal for s in cfg.snapshots),
         f"run.snapshots = {list(cfg.snapshots)} must lie in [0, run.tfinal = "
         f"{cfg.tfinal}]"),
        (clash, f"run.snapshots times {clash} would share one snapshot file name"),
        (cfg.history_every < 1,
         f"run.history_every must be >= 1, got {cfg.history_every}"),
        (not cfg.xmin < cfg.xmax,
         f"grid.xmin = {cfg.xmin} must lie below grid.xmax = {cfg.xmax}"),
        (cfg.dim == 2 and cfg.ny < 1, f"a 2D grid needs grid.ny >= 1, got {cfg.ny}"),
        (cfg.dim == 2 and not cfg.ymin < cfg.ymax,
         f"grid.ymin = {cfg.ymin} must lie below grid.ymax = {cfg.ymax}"),
        (cfg.probe and not (len(cfg.probe) == cfg.dim and all(
            lo <= p <= hi for p, (lo, hi) in zip(cfg.probe, box))),
         f"probe.x/probe.y = {cfg.probe} must give a point of the grid {box}"),
    ):
        if bad:
            raise ConfigError(msg)


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def save_config(path, cfg: RunConfig):
    flat = config_to_flat(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# diracdg run configuration\n")
        for key in sorted(flat):
            fh.write(f"{key} = {_format_value(flat[key])}\n")


def parse_config_text(text: str) -> dict:
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        flat[key] = _typed(key, val)
    return flat


def read_config_file(path) -> dict:
    """The flat config of the file at `path`, which must be UTF-8 text."""
    return parse_config_text(read_text(path, "config file"))


def load_config(path) -> RunConfig:
    return config_from_flat(read_config_file(path))


# ---------------------------------------------------------------------------
# building blocks

_PROFILE_CACHE: dict = {}


def _get_profile(wv: WaveSpec, cfg: RunConfig):
    key = (
        round(wv.omega, 12), wv.S, cfg.dim, cfg.m, cfg.lam, cfg.kappa,
        cfg.wave_R, cfg.wave_N,
    )
    if key not in _PROFILE_CACHE:
        _PROFILE_CACHE[key] = solve_standing_wave(
            wv.omega, dim=cfg.dim, S=wv.S, model=cfg.model(),
            R=cfg.wave_R or None, N=cfg.wave_N,
        )
    return _PROFILE_CACHE[key]


def build_space(cfg: RunConfig):
    # not in _validate: converge configs hold nx = 0 until --cells fills it
    for key, n in (("grid.nx", cfg.nx), ("grid.ny", cfg.ny))[: cfg.dim]:
        if n < 1:
            raise ConfigError(f"{key} must be >= 1, got {n}")
    if cfg.dim == 1:
        return DGSpace1D(Grid1D(cfg.xmin, cfg.xmax, cfg.nx), cfg.q)
    return DGSpace2D(
        Grid2D(cfg.xmin, cfg.xmax, cfg.nx, cfg.ymin, cfg.ymax, cfg.ny), cfg.q
    )


def _field(cfg: RunConfig, t: float):
    """The problem's field at time t, as a function of the space's
    coordinates: the manufactured field for ic.type = mms, else the sum of
    the config's waves."""
    if cfg.ic == "mms":
        return lambda x, y: mms_state(x, y, t)
    if not cfg.waves:
        raise ConfigError("ic.type = waves needs a wave: no ic.wave1.omega given")
    specs = [
        {"profile": _get_profile(wv, cfg), "v": wv.v, "x0": wv.x0, "y0": wv.y0}
        for wv in cfg.waves
    ]
    return lambda *xy: superposed_real(specs, t, *xy)


def exact_state_fn(cfg: RunConfig, t: float):
    """Callable exact solution at time t, or None."""
    return None if cfg.exact_kind() == "none" else _field(cfg, t)


def initial_state(cfg: RunConfig, space):
    return space.project(_field(cfg, 0.0))


def make_stepper(cfg: RunConfig, space, model, source):
    if cfg.scheme == "rkdg":
        def L(u, t):
            return rkdg_residual(space, model, u, t, source)

        return lambda u, t, tau: rk4_step(u, t, tau, L)
    if cfg.scheme == "lwdg":
        return lambda u, t, tau: lwdg_step(space, model, u, t, tau, source)
    return lambda u, t, tau: tsdg_step(space, model, u, t, tau, source)


# ---------------------------------------------------------------------------
# run orchestration

@dataclass
class RunResult:
    cfg: RunConfig
    space: object
    model: NLDModel
    coeffs: np.ndarray
    t: float
    dt: float
    nsteps: int  # steps taken, a clipped final step included
    history: np.ndarray  # rows (t, Q, E, Qrel, Erel)
    probe: np.ndarray | None
    err_l2: float | None = None
    err_linf: float | None = None


def run_simulation(cfg: RunConfig, outdir=None) -> RunResult:
    _validate(cfg)
    keep_freed_heap_mapped()
    space = build_space(cfg)
    model = cfg.model()
    source = MMSSource(model) if cfg.ic == "mms" else None
    u0 = initial_state(cfg, space)
    step = make_stepper(cfg, space, model, source)
    dt = cfl_dt(space, cfg.effective_mu())

    q0 = total_charge(space, u0)
    e0 = total_energy(space, u0, model)
    history = []
    probe_rows = [] if cfg.probe else None
    pending_snaps = sorted(cfg.snapshots)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)  # before the t = 0 snapshot

    def record(t, u):
        q = total_charge(space, u)
        e = total_energy(space, u, model)
        history.append(
            (t, q, e, relative_drift(q, q0), relative_drift(e, e0))
        )

    nsteps = 0

    def observer(istep, t, u):
        nonlocal nsteps
        nsteps = istep
        if istep % cfg.history_every == 0:
            record(t, u)
        if probe_rows is not None:
            probe_rows.append((t, probe_charge_density(space, u, *cfg.probe)))
        while pending_snaps and t >= pending_snaps[0] - 1e-9 * dt:
            s = pending_snaps.pop(0)
            if outdir is not None:
                fn = os.path.join(outdir, f"snapshot_t{s:g}.txt")
                write_snapshot(fn, space, u, t)

    u, t = evolve(step, u0, 0.0, cfg.tfinal, dt, observer=observer,
                  stops=cfg.snapshots)
    if not history or history[-1][0] < t:
        record(t, u)
    hist = np.array(history)
    probe = np.array(probe_rows) if probe_rows is not None else None

    res = RunResult(cfg, space, model, u, t, dt, nsteps, hist, probe)
    exact = exact_state_fn(cfg, t)
    if exact is not None:
        res.err_l2, res.err_linf = space.error_norms(u, exact)

    if outdir is not None:
        save_config(os.path.join(outdir, "config.cfg"), cfg)
        write_history(os.path.join(outdir, "history.csv"), hist)
        write_snapshot(os.path.join(outdir, "snapshot_final.txt"), space, u, t)
        if probe is not None:
            write_probe(os.path.join(outdir, "probe.csv"), probe)
    return res


def converge_study(cfg: RunConfig, cells):
    """Errors/orders under mesh refinement, level by level; needs an exact solution."""
    if cfg.exact_kind() == "none":
        raise ConfigError("convergence study needs a computable exact solution")
    cells = [_typed("grid.nx", n) for n in cells]
    if len(cells) < 2:
        raise ConfigError(f"convergence study needs two or more mesh levels: {cells}")
    if len(set(cells)) < len(cells) or min(cells) < 1:
        raise ConfigError(f"mesh levels must be distinct and >= 1: {cells}")
    configs = [
        replace(cfg, nx=n, ny=n if cfg.dim == 2 else cfg.ny) for n in cells
    ]
    pairs = [_errors_of(c) for c in configs]
    l2 = [p[0] for p in pairs]
    linf = [p[1] for p in pairs]
    orders = list(convergence_orders(l2, cells))
    return {"cells": cells, "l2": l2, "linf": linf, "orders": orders}


def _errors_of(cfg: RunConfig):
    res = run_simulation(cfg)
    return res.err_l2, res.err_linf


# ---------------------------------------------------------------------------
# artifact writers

HISTORY_HEADER = "t,Q_h,E_h,Q_rela,E_rela"


def write_history(path, history):
    np.savetxt(path, np.reshape(history, (-1, 5)), delimiter=",",
               fmt=["%.12g", "%.16e", "%.16e", "%.6e", "%.6e"],
               header=HISTORY_HEADER, comments="")


def write_probe(path, probe):
    np.savetxt(path, np.reshape(probe, (-1, 2)), fmt=["%.12g", "%.16e"],
               delimiter=",", header="t,rhoQ", comments="")


def write_snapshot(path, space, coeffs, t):
    """Columnar dump of the field at cell centers, x-major: x [y] u1..u4 rhoQ."""
    pts = [c.ravel() for c in np.meshgrid(*space.centres, indexing="ij")]
    vals = space.point_values(coeffs, *pts)
    cols = " ".join([*space.names, "u1 u2 u3 u4 rhoQ"])
    np.savetxt(path, np.column_stack([*pts, vals.T, charge_density(vals)]),
               fmt="%.12e", header=f"t = {t!r}\ncolumns: {cols}")


def read_history(path):
    """The rows of a history file, which must be UTF-8 text; one without
    rows gives array([])."""
    lines = read_text(path, "history file").splitlines()
    header = lines[0].strip() if lines else ""
    if header != HISTORY_HEADER:
        raise ConfigError(f"unexpected history header: {header!r}")
    rows = [line for line in lines[1:] if line.strip()]
    return np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.array([])


# ---------------------------------------------------------------------------
# presets

def _square(half: float, n: int) -> dict:
    """The 2D grid of n x n cells on [-half, half]^2."""
    return dict(dim=2, xmin=-half, xmax=half, nx=n, ymin=-half, ymax=half, ny=n)


# name -> (description, desk-scale config, the fields --full-scale changes to
# restore the published domain, resolution and final time)
PRESETS = {
    "ex41-accuracy": (
        "1D travelling wave, error vs exact",
        RunConfig(dim=1, scheme="lwdg", q=2, xmin=-60.0, xmax=60.0, nx=200,
                  tfinal=50.0, history_every=200,
                  waves=(WaveSpec(omega=0.8, v=-0.2, x0=5.0),)),
        {}),
    "ex42-error-history": (
        "1D standing wave, long-time drift",
        RunConfig(dim=1, scheme="rkdg", q=3, xmin=-30.0, xmax=30.0, nx=500,
                  tfinal=50.0, history_every=50, waves=(WaveSpec(omega=0.8),)),
        dict(tfinal=3000.0)),
    "ex43-mms": (
        "2D forced Gaussian accuracy test",
        RunConfig(**_square(2.0, 20), scheme="lwdg", q=2, tfinal=0.2,
                  history_every=10, ic="mms", source="mms"),
        dict(nx=40, ny=40)),
    "ex44-quaternary": (
        "1D four-wave collision",
        RunConfig(dim=1, scheme="rkdg", q=2, xmin=-70.0, xmax=70.0, nx=1400,
                  tfinal=40.0, history_every=200, waves=(
                      WaveSpec(omega=0.6, v=0.2, x0=-15.0),
                      WaveSpec(omega=0.8, v=0.1, x0=-5.0),
                      WaveSpec(omega=0.8, v=-0.1, x0=5.0),
                      WaveSpec(omega=0.6, v=-0.2, x0=15.0))),
        dict(tfinal=80.0)),
    "ex45-standing": (
        "2D standing wave",
        RunConfig(**_square(15.0, 100), scheme="tsdg", q=2, tfinal=10.0, mu=0.7,
                  history_every=50, waves=(WaveSpec(omega=0.8),)),
        dict(nx=150, ny=150, tfinal=300.0)),
    "ex46-oscillation": (
        "2D two-wave bound oscillation",
        RunConfig(**_square(16.0, 80), scheme="tsdg", q=2, tfinal=100.0,
                  history_every=100, probe=(0.0, 0.0), waves=(
                      WaveSpec(omega=0.8, x0=-2.0),
                      WaveSpec(omega=0.8, x0=2.0))),
        dict(_square(25.5, 255), scheme="lwdg", tfinal=600.0)),
    "ex47-travelling": (
        "2D boosted wave transport",
        RunConfig(**_square(20.0, 100), scheme="lwdg", q=2, tfinal=10.0,
                  history_every=50, waves=(WaveSpec(omega=0.8, v=-0.1),)),
        dict(nx=200, ny=200, tfinal=200.0)),
    "ex48-breathing": (
        "2D quintic breathing wave",
        RunConfig(**_square(16.0, 80), scheme="lwdg", q=2, kappa=2.0,
                  tfinal=20.0, history_every=50, probe=(0.0, 0.0),
                  waves=(WaveSpec(omega=0.94),)),
        dict(tfinal=300.0)),
}


def preset_config(name: str, full_scale: bool = False) -> RunConfig:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r} (known: {known})")
    _, cfg, full = PRESETS[name]
    return replace(cfg, label=name, **(full if full_scale else {}))
