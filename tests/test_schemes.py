"""One-step scheme checks: cross-agreement, temporal order, guard rails.

The two-stage update is also exercised in scalar-ODE form: with y'' = g
supplied exactly, y* = y + tau/2 (f + tau/4 g) and
y+ = y + tau (f + tau/6 g(y) + tau/3 g(y*)) reproduce the full scheme's
coefficient algebra (theta = 1/3) and expose its fourth order without any
spatial error in the way.
"""

import weakref

import numpy as np
import pytest

from diracdg import tsdg

from diracdg.diagnostics import total_charge
from diracdg.errors import ConfigError
from diracdg.integrators import cfl_dt, evolve, rk4_step
from diracdg.lwdg import lwdg_step
from diracdg.mesh import DGSpace1D, DGSpace2D, Grid1D, Grid2D
from diracdg.model import NLDModel
from diracdg.semidiscrete import rkdg_residual
from diracdg.tsdg import tsdg_step
from diracdg.waves import MMSSource, mms_state

MODEL = NLDModel()
OMEGA = 0.8
BETA = np.sqrt(1.0 - OMEGA**2)


def _exact_1d(x, t):
    s = BETA**2 / (MODEL.lam * (1.0 + OMEGA * np.cosh(2 * BETA * x)))
    P = (s - MODEL.lam * s * s) / OMEGA
    ph = np.sqrt((P + s) / 2)
    ch = np.sign(x) * np.sqrt(np.maximum(P - s, 0.0) / 2)
    c, sn = np.cos(OMEGA * t), np.sin(OMEGA * t)
    return np.stack([ph * c, ch * sn, -ph * sn, ch * c])


def _space_1d(nx=120, q=2):
    return DGSpace1D(Grid1D(-30.0, 30.0, nx), q)


# --------------------------------------------------------------------------
# one spatial operator, and one direction's traces alive at a time

def _shared_operator_cases():
    for q in (1, 2, 3):
        for kappa in (1.0, 2.0):
            yield "1d", q, kappa, False
            yield "2d", q, kappa, False
            yield "2d", q, kappa, True


@pytest.mark.parametrize("dim, q, kappa, forced", list(_shared_operator_cases()))
def test_tsdg_first_moment_is_rkdg_residual(dim, q, kappa, forced):
    """tsdg's moment I is the semidiscrete residual times the mass, bit for
    bit: both schemes apply one spatial operator."""
    rng = np.random.default_rng(q + 10 * int(kappa) + 100 * forced)
    if dim == "1d":
        sp = DGSpace1D(Grid1D(-2.0, 1.5, 7), q)
    else:
        sp = DGSpace2D(Grid2D(-1.5, 1.5, 3, -1.0, 1.2, 2), q)
    model = NLDModel(kappa=kappa)
    src = MMSSource(model) if forced else None
    c = 0.3 * rng.standard_normal(sp.zeros().shape)
    I = tsdg._sweep(sp, model, c, 0.25, src)[1]()
    assert (I / sp.mass).tobytes() == rkdg_residual(sp, model, c, 0.25, src).tobytes()


STEPS = {
    "rkdg": lambda sp, c, src: rk4_step(
        c, 0.25, 0.01, lambda u, t: rkdg_residual(sp, MODEL, u, t, src)),
    "lwdg": lambda sp, c, src: lwdg_step(sp, MODEL, c, 0.25, 0.01, src),
    "tsdg": lambda sp, c, src: tsdg_step(sp, MODEL, c, 0.25, 0.01, source=src),
}


@pytest.mark.parametrize("scheme, forced", [
    ("rkdg", False), ("lwdg", False), ("tsdg", False), ("lwdg", True)])
def test_x_traces_are_freed_before_y_traces_are_built(monkeypatch, scheme, forced):
    """When a step reads the y-direction traces, none of the arrays it read
    on the x-direction edges is alive any more."""
    sp = DGSpace2D(Grid2D(-1.5, 1.5, 5, -1.0, 1.2, 4), 2)
    c = 0.3 * np.random.default_rng(5).standard_normal(sp.zeros().shape)
    x_refs, alive_at_y = [], []

    def watch(name):
        read = getattr(sp, name)

        def traced(coeffs, axis, *args, **kw):
            if axis == "y":
                alive_at_y.append(sum(r() is not None for r in x_refs))
            out = read(coeffs, axis, *args, **kw)
            if axis == "x":
                arrays = [a for side in out
                          for a in (side.values() if isinstance(side, dict) else [side])]
                x_refs[:] = [weakref.ref(a) for a in arrays]
            return out

        monkeypatch.setattr(sp, name, traced)

    watch("edge_jets")
    STEPS[scheme](sp, c, MMSSource(MODEL) if forced else None)
    sweeps = {"rkdg": 4, "lwdg": 1, "tsdg": 2}[scheme]
    assert alive_at_y == [0] * sweeps


# --------------------------------------------------------------------------
# cross-scheme agreement on identical data

def _l2_of(space, coeffs):
    return np.sqrt(float(np.sum(coeffs * coeffs * space.mass)))


@pytest.mark.parametrize("q", [2, 3])
def test_one_step_cross_agreement_1d(q):
    """All three updates move the field the same way; the residual spread
    (different spatial handling of the sub-step states) stays a small
    fraction of the per-step motion."""
    sp = _space_1d(q=q)
    c0 = sp.project(lambda x: _exact_1d(x, 0.0))
    tau = cfl_dt(sp, 0.25)
    c_lw = lwdg_step(sp, MODEL, c0, 0.0, tau)
    c_ts = tsdg_step(sp, MODEL, c0, 0.0, tau)
    c_rk = rk4_step(c0, 0.0, tau, lambda u, t: rkdg_residual(sp, MODEL, u, t))
    motion = _l2_of(sp, c_rk - c0)
    assert motion > 1e-4  # the step actually moved the field
    assert _l2_of(sp, c_lw - c_rk) < 0.05 * motion
    assert _l2_of(sp, c_ts - c_rk) < 0.05 * motion


def test_one_step_cross_agreement_2d_forced():
    sp = DGSpace2D(Grid2D(-2.0, 2.0, 16, -2.0, 2.0, 16), 2)
    src = MMSSource(MODEL)
    t0 = 0.15
    c0 = sp.project(lambda x, y: mms_state(x, y, t0))
    tau = cfl_dt(sp, 0.5)
    c_lw = lwdg_step(sp, MODEL, c0, t0, tau, source=src)
    c_ts = tsdg_step(sp, MODEL, c0, t0, tau, source=src)
    c_rk = rk4_step(
        c0, t0, tau, lambda u, t: rkdg_residual(sp, MODEL, u, t, source=src)
    )
    motion = _l2_of(sp, c_rk - c0)
    assert motion > 1e-7
    assert _l2_of(sp, c_lw - c_rk) < 0.05 * motion
    assert _l2_of(sp, c_ts - c_rk) < 0.05 * motion


def test_short_evolution_tracks_exact_all_schemes():
    sp = _space_1d(nx=240, q=2)
    c0 = sp.project(lambda x: _exact_1d(x, 0.0))
    tau = cfl_dt(sp, 0.25)
    T = 1.0
    exact_T = lambda x: _exact_1d(x, T)

    def err(cT):
        return sp.error_norms(cT, exact_T)[0]

    e = {}
    c, _ = evolve(lambda u, t, s: lwdg_step(sp, MODEL, u, t, s), c0, 0, T, tau)
    e["lwdg"] = err(c)
    c, _ = evolve(lambda u, t, s: tsdg_step(sp, MODEL, u, t, s), c0, 0, T, tau)
    e["tsdg"] = err(c)
    L = lambda u, t: rkdg_residual(sp, MODEL, u, t)
    c, _ = evolve(lambda u, t, s: rk4_step(u, t, s, L), c0, 0, T, tau)
    e["rkdg"] = err(c)
    for name, v in e.items():
        assert v < 1e-4, (name, v)
    vals = sorted(e.values())
    assert vals[-1] < 3.0 * vals[0], e  # no scheme drifts off on its own


# --------------------------------------------------------------------------
# charge behaviour of single smooth steps

def test_single_step_charge_drift_tiny():
    sp = _space_1d(nx=160, q=3)
    c0 = sp.project(lambda x: _exact_1d(x, 0.0))
    q0 = total_charge(sp, c0)
    tau = cfl_dt(sp, 0.25)
    for step in (
        lambda: lwdg_step(sp, MODEL, c0, 0.0, tau),
        lambda: tsdg_step(sp, MODEL, c0, 0.0, tau),
        lambda: rk4_step(c0, 0.0, tau,
                         lambda u, t: rkdg_residual(sp, MODEL, u, t)),
    ):
        q1 = total_charge(sp, step())
        assert abs(q1 - q0) <= 1e-10 * q0
        assert q1 <= q0 + 1e-13 * q0  # dissipative, never grows


# --------------------------------------------------------------------------
# the two-stage scheme in scalar-ODE form is fourth order

def _tsdg_ode_step(y, t, tau, f, g):
    t2 = tau / 2.0
    ystar = y + t2 * (f(y, t) + 0.25 * tau * g(y, t))
    return y + tau * (
        f(y, t) + tau / 6.0 * g(y, t) + tau / 3.0 * g(ystar, t + t2)
    )


def test_two_stage_ode_analogue_is_fourth_order():
    # y' = f(y, t) with exact second derivative g = f_t + f_y f
    f = lambda y, t: np.sin(t) * y - y**3 + np.cos(2 * t)
    fy = lambda y, t: np.sin(t) - 3 * y * y
    ft = lambda y, t: np.cos(t) * y - 2 * np.sin(2 * t)
    g = lambda y, t: ft(y, t) + fy(y, t) * f(y, t)

    def solve(n):
        y, t = 0.4, 0.0
        tau = 1.0 / n
        for _ in range(n):
            y = _tsdg_ode_step(y, t, tau, f, g)
            t += tau
        return y

    ref = solve(4096)
    errs = [abs(solve(n) - ref) for n in (16, 32, 64)]
    order = float(np.log2([errs[0] / errs[1], errs[1] / errs[2]]).mean())
    assert order == pytest.approx(4.0, abs=0.15), (errs, order)


# --------------------------------------------------------------------------
# guard rails

def test_theta_one_rejected():
    sp = _space_1d(nx=20)
    c0 = np.zeros((4, 20, 3))
    with pytest.raises(ConfigError):
        tsdg_step(sp, MODEL, c0, 0.0, 0.01, theta=1.0)


def test_theta_default_is_one_third():
    sp = _space_1d(nx=40)
    c0 = sp.project(lambda x: _exact_1d(x, 0.0))
    a = tsdg_step(sp, MODEL, c0, 0.0, 0.02)
    b = tsdg_step(sp, MODEL, c0, 0.0, 0.02, theta=1.0 / 3.0)
    np.testing.assert_array_equal(a, b)


def test_other_theta_values_remain_consistent():
    # any admissible theta gives a consistent one-step update
    sp = _space_1d(nx=120)
    c0 = sp.project(lambda x: _exact_1d(x, 0.0))
    tau = cfl_dt(sp, 0.25)
    base = tsdg_step(sp, MODEL, c0, 0.0, tau)
    for theta in (0.25, 0.5):
        alt = tsdg_step(sp, MODEL, c0, 0.0, tau, theta=theta)
        assert np.abs(alt - base).max() < 1e-8
