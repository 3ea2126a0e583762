"""Golden steps: one step of every scheme against stored results.

The fixture `data/golden_steps.npz` holds, for seeded random coefficients
on a small 1D and 2D mesh, one `rk4_step` of the semidiscrete scheme, the
bare `rkdg_residual`, one `lwdg_step` and one `tsdg_step`, for P1-P3,
kappa = 1, 2 and, in 2D, with and without the manufactured source.  It
pins the numbers of the schemes through refactors: a result must agree
with the stored one to 1e-13 of its largest entry, which leaves room for
a BLAS that sums in another order.

Regenerate (only when a change of the numbers is intended) with

    PYTHONPATH=src python tests/test_golden_steps.py

and print one sha256 over the `tobytes()` of all 72 results, stepped by the
code at hand from the fixture's inputs in `_cases()` order (equal hashes on
two trees mean bit-identical steps), with

    PYTHONPATH=src python tests/test_golden_steps.py --hash

A second line hashes the manufactured source itself: every key of
`MMSSource.jet(..., depth=3)` on the volume and edge points of the 2D
golden meshes, at t = 0.25 and 1.0, for kappa = 1 and 2.  At T0 = 0.25 the
source is about t^4 = 0.4 % of a forced step's state, so a rounding change
in the source can leave the first line as it was.

A third line hashes the wave profiles behind the set-up: p and w of every
distinct profile that a `PRESETS` config or perfbench's two wave workloads
(`soliton-1d`, `travelling-2d`) solve, with their configs' `wave_R` and
`wave_N`, in the order those configs first name them.  A change to the
profile solve can leave both step hashes as they were.

A fourth line hashes one step of rkdg (RK4), lwdg and tsdg on a 120^2 P2
mesh, unforced and forced, from one seeded state.  Those point sets go
through the cascade's blocks and the thread pool, which the small golden
meshes never reach.
"""

import hashlib
import importlib.util
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diracdg import cascade, pool, runner
from diracdg.heap import keep_freed_heap_mapped
from diracdg.integrators import rk4_step
from diracdg.lwdg import lwdg_step
from diracdg.mesh import DGSpace1D, DGSpace2D, Grid1D, Grid2D
from diracdg.model import NLDModel
from diracdg.runner import PRESETS, RunConfig, WaveSpec, make_stepper, preset_config
from diracdg.semidiscrete import rkdg_residual
from diracdg.tsdg import tsdg_step
from diracdg.waves import MMSSource

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_steps.npz")
RTOL = 1e-13
T0, TAU = 0.25, 0.01

SPACES = {
    "1d": lambda q: DGSpace1D(Grid1D(-2.0, 1.5, 7), q),
    "2d": lambda q: DGSpace2D(Grid2D(-1.5, 1.5, 3, -1.0, 1.2, 2), q),
}
SCHEMES = {
    "rk4": lambda sp, m, u, src: rk4_step(
        u, T0, TAU, lambda v, t: rkdg_residual(sp, m, v, t, src)
    ),
    "residual": lambda sp, m, u, src: rkdg_residual(sp, m, u, T0, src),
    "lwdg": lambda sp, m, u, src: lwdg_step(sp, m, u, T0, TAU, src),
    "tsdg": lambda sp, m, u, src: tsdg_step(sp, m, u, T0, TAU, source=src),
}


def _cases():
    for dim in SPACES:
        for q in (1, 2, 3):
            for kappa in (1, 2):
                for forced in (False, True) if dim == "2d" else (False,):
                    for scheme in SCHEMES:
                        src = "forced" if forced else "free"
                        yield f"{scheme}-{dim}-q{q}-k{kappa}-{src}"


def _input_key(case):
    _, dim, q, _, _ = case.split("-")
    return f"input-{dim}-{q}"


def _random_state(space, rng):
    """Random coefficients; each mode carries about 0.1 of the cell's L2 norm."""
    area = space.grid.dx * getattr(space.grid, "dy", 1.0)
    shape = space.zeros().shape
    return 0.1 * rng.standard_normal(shape) / np.sqrt(space.mass / area)


def _problem(case):
    scheme, dim, q, kappa, src = case.split("-")
    space = SPACES[dim](int(q[1:]))
    model = NLDModel(kappa=float(kappa[1:]))
    source = MMSSource(model) if src == "forced" else None
    return scheme, space, model, source


def run_case(case, coeffs):
    scheme, space, model, source = _problem(case)
    return SCHEMES[scheme](space, model, coeffs, source)


def write_fixture(path=FIXTURE, seed=20261018):
    rng = np.random.default_rng(seed)
    data = {}
    for dim, make in SPACES.items():
        for q in (1, 2, 3):
            data[f"input-{dim}-q{q}"] = _random_state(make(q), rng)
    for case in _cases():
        data[case] = run_case(case, data[_input_key(case)])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **data)


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as f:
        return dict(f)


def test_fixture_covers_every_case(golden):
    cases = list(_cases())
    assert len(cases) == 72
    assert set(golden) == set(cases) | {_input_key(c) for c in cases}


@pytest.mark.parametrize("case", list(_cases()))
def test_golden_step(golden, case):
    want = golden[case]
    got = run_case(case, golden[_input_key(case)])
    assert got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= RTOL * np.max(np.abs(want)), f"{case}: max diff {err:.3e}"


# the run.scheme whose stepper takes each golden step
RUN_SCHEME = {"rk4": "rkdg", "lwdg": "lwdg", "tsdg": "tsdg"}


@pytest.mark.parametrize("case", [c for c in _cases() if c.split("-")[0] in RUN_SCHEME])
def test_make_stepper_takes_the_golden_step(golden, case):
    """The stepper a run builds for its run.scheme is the golden step, bit for bit."""
    scheme, space, model, source = _problem(case)
    step = make_stepper(RunConfig(scheme=RUN_SCHEME[scheme]), space, model, source)
    coeffs = golden[_input_key(case)]
    assert step(coeffs, T0, TAU).tobytes() == run_case(case, coeffs).tobytes()


@pytest.mark.parametrize("case", [c for c in _cases() if "-2d-" in c])
def test_pooled_step_equals_serial(golden, monkeypatch, case):
    """The thread pool path, forced onto the small 2D mesh with blocks of a
    few points, gives the serial result bit for bit."""
    coeffs = golden[_input_key(case)]
    serial = run_case(case, coeffs)
    monkeypatch.setattr(pool, "MIN_ELEMENTS", 0)
    monkeypatch.setattr(cascade, "_BLOCK_POINTS", 4)
    pooled = run_case(case, coeffs)
    assert pooled.tobytes() == serial.tobytes(), case
    want = golden[case]
    assert np.max(np.abs(pooled - want)) <= RTOL * np.max(np.abs(want))


def test_pool_serves_concurrent_callers(golden, monkeypatch):
    """Six threads step at once through one pool made on first use, with a
    short switch interval: each gets the bits of its case stepped alone."""
    cases = [c for c in _cases() if "-2d-q2-" in c][:6]
    monkeypatch.setattr(pool, "MIN_ELEMENTS", 0)
    monkeypatch.setattr(cascade, "_BLOCK_POINTS", 4)
    alone = [run_case(c, golden[_input_key(c)]).tobytes() for c in cases]
    monkeypatch.setattr(pool, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(cases)) as callers:
            futures = [callers.submit(run_case, c, golden[_input_key(c)])
                       for c in cases]
            together = [f.result(timeout=60).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    made = pool._pool
    made.shutdown()
    assert together == alone
    assert made._max_workers <= 2


def results_hash():
    """sha256 over every case's result, in `_cases()` order, from the
    fixture's inputs."""
    with np.load(FIXTURE) as f:
        inputs = dict(f)
    h = hashlib.sha256()
    for case in _cases():
        h.update(run_case(case, inputs[_input_key(case)]).tobytes())
    return h.hexdigest()


def source_hash():
    """sha256 over every depth-3 source key on each 2D golden mesh's volume
    and edge points, at t = 0.25 and 1.0, for kappa = 1 and 2."""
    h = hashlib.sha256()
    for q in (1, 2, 3):
        space = SPACES["2d"](q)
        for kappa in (1.0, 2.0):
            src = MMSSource(NLDModel(kappa=kappa))
            for points in (space.points, *space.edge_points.values()):
                for t in (0.25, 1.0):
                    for key, val in src.jet(*points, t, depth=3).items():
                        h.update(key.encode())
                        h.update(val.tobytes())
    return h.hexdigest()


def _bench_wave_configs():
    """The RunConfigs of perfbench's two wave workloads (seed 1; the seed
    draws only the waves' placement and boost)."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name in ("soliton-1d", "travelling-2d"):
        fields = dict(bench.WORKLOADS[name](np.random.default_rng(1))["cfg"])
        fields["waves"] = tuple(WaveSpec(**w) for w in fields["waves"])
        fields["probe"] = tuple(fields["probe"])
        yield RunConfig(**fields)


def profile_hash():
    """sha256 over p and w of every distinct profile that the presets (desk
    and full scale) and perfbench's wave workloads solve, under the heap
    policy a run applies: its one BLAS thread rounds the dense solves of
    the Newton iteration as a run does, whatever the environment asks."""
    keep_freed_heap_mapped()
    cfgs = [preset_config(name, full) for name in PRESETS for full in (False, True)]
    profiles = {}  # id -> profile; the runner's cache gives one object per key
    for cfg in [*cfgs, *_bench_wave_configs()]:
        for wave in cfg.waves:
            prof = runner._get_profile(wave, cfg)
            profiles.setdefault(id(prof), prof)
    h = hashlib.sha256()
    for prof in profiles.values():
        h.update(prof.p.tobytes())
        h.update(prof.w.tobytes())
    return h.hexdigest()


def large_step_hash(seed=20261021):
    """sha256 over one rk4, lwdg and tsdg step, unforced then forced, on a
    120^2 P2 mesh of [-2, 2]^2 (kappa = 1) from one seeded random state."""
    space = DGSpace2D(Grid2D(-2.0, 2.0, 120, -2.0, 2.0, 120), 2)
    model = NLDModel()
    coeffs = _random_state(space, np.random.default_rng(seed))
    h = hashlib.sha256()
    for source in (None, MMSSource(model)):
        for scheme in ("rk4", "lwdg", "tsdg"):
            h.update(SCHEMES[scheme](space, model, coeffs, source).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--hash"]:
        print(results_hash())
        print(source_hash())
        print(profile_hash())
        print(large_step_hash())
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--hash]")
    else:
        write_fixture()
        print(f"wrote {FIXTURE}")
