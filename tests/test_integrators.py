"""Time integrators: order of accuracy, step-size rules, evolution loop."""

import numpy as np
import pytest

from diracdg.errors import BlowupError, ConfigError
from diracdg.integrators import (
    cfl_dt,
    default_mu,
    evolve,
    rk4_step,
    tvd_rk3_step,
)
from diracdg.mesh import DGSpace1D, DGSpace2D, Grid1D, Grid2D


# --------------------------------------------------------------------------
# stepping formulas

def test_rk4_combination_equals_classical_rk4():
    # nonautonomous linear system: both forms must agree to rounding
    A = np.array([[0.0, 1.0], [-4.0, -0.3]])

    def L(u, t):
        return A @ u + np.array([np.sin(3 * t), np.cos(2 * t)])

    u = np.array([1.0, -0.5])
    t, tau = 0.7, 0.031
    k1 = L(u, t)
    k2 = L(u + 0.5 * tau * k1, t + 0.5 * tau)
    k3 = L(u + 0.5 * tau * k2, t + 0.5 * tau)
    k4 = L(u + tau * k3, t + tau)
    classical = u + tau / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(rk4_step(u, t, tau, L), classical, atol=5e-16)


def _order_of(stepper):
    """Observed convergence order on a smooth nonautonomous scalar ODE."""

    def L(u, t):
        return np.array([np.sin(t) * u[0] - u[0] ** 3 + np.cos(2.0 * t)])

    def solve(n):
        u, t = np.array([0.4]), 0.0
        tau = 1.0 / n
        for _ in range(n):
            u = stepper(u, t, tau, L)
            t += tau
        return u[0]

    ref = solve(4096)
    errs = [abs(solve(n) - ref) for n in (16, 32, 64)]
    orders = np.log2([errs[0] / errs[1], errs[1] / errs[2]])
    return float(orders.mean())


def test_rk4_is_fourth_order():
    assert _order_of(rk4_step) == pytest.approx(4.0, abs=0.15)


def test_tvd_rk3_is_third_order():
    assert _order_of(tvd_rk3_step) == pytest.approx(3.0, abs=0.15)


# --------------------------------------------------------------------------
# step-size rules

def test_cfl_dt_1d():
    sp = DGSpace1D(Grid1D(0.0, 10.0, 50), 2)  # dx = 0.2
    assert cfl_dt(sp, 0.25) == pytest.approx(0.25 * 0.2 / 5.0)


def test_cfl_dt_2d_uses_min_spacing():
    sp = DGSpace2D(Grid2D(0.0, 10.0, 50, 0.0, 10.0, 25), 3)  # hx=0.2, hy=0.4
    assert cfl_dt(sp, 0.5) == pytest.approx(0.5 * 0.2 / 14.0)
    sp2 = DGSpace2D(Grid2D(0.0, 4.0, 20, 0.0, 4.0, 20), 3)  # h = 0.2
    assert cfl_dt(sp2, 0.5) == pytest.approx(1.0 / 140.0)


def test_default_mu_rules():
    assert default_mu(1, 2, "rkdg") == 0.25
    assert default_mu(1, 3, "lwdg") == 0.25
    assert default_mu(2, 2, "lwdg") == 0.5
    assert default_mu(2, 3, "lwdg") == 0.25  # tighter one-step P3 limit
    assert default_mu(2, 3, "rkdg") == 0.5
    assert default_mu(2, 3, "tsdg") == 0.5


# --------------------------------------------------------------------------
# evolution loop

def test_evolve_clips_final_step_and_reports_steps():
    taus = []

    def step(u, t, tau):
        taus.append(tau)
        return u + tau  # du/dt = 1

    u, t = evolve(step, np.zeros(1), 0.0, 1.0, dt=0.3)
    assert t == pytest.approx(1.0)
    assert u[0] == pytest.approx(1.0)
    assert len(taus) == 4
    assert taus[-1] == pytest.approx(0.1)


def test_evolve_observer_sees_initial_state():
    seen = []

    def obs(istep, t, u):
        seen.append((istep, t, float(u[0])))

    evolve(lambda u, t, tau: u + tau, np.array([2.0]), 0.0, 0.5, 0.25,
           observer=obs)
    assert seen[0] == (0, 0.0, 2.0)
    assert [s[0] for s in seen] == [0, 1, 2]
    assert seen[-1][1] == pytest.approx(0.5)


def test_evolve_raises_on_blowup():
    def step(u, t, tau):
        return u * 1e4  # past the 1e12 limit on the fourth step

    with pytest.raises(BlowupError) as exc:
        evolve(step, np.ones(2), 0.0, 10.0, 0.1)
    assert exc.value.t <= 1.0  # detected promptly, not at tfinal


def test_evolve_exact_landing_no_extra_step():
    # tfinal an exact multiple of dt: no zero-length trailing step
    count = []
    evolve(lambda u, t, tau: count.append(tau) or u, np.zeros(1),
           0.0, 1.0, 0.25)
    assert len(count) == 4
    assert min(count) > 0.2


@pytest.mark.parametrize(
    "dt,tfinal",
    [(0.0, 1.0), (-0.1, 1.0), (float("nan"), 1.0), (float("inf"), 1.0),
     (0.1, float("inf")), (1e-20, 1.0)],
)
def test_evolve_refuses_a_march_that_cannot_end(dt, tfinal):
    calls = []

    def step(u, t, tau):
        calls.append(tau)
        return u

    with pytest.raises(ConfigError):
        evolve(step, np.zeros(1), 1.0, 1.0 + tfinal, dt)
    assert not calls


def test_evolve_refuses_a_step_that_stalls_before_tfinal():
    """From t0 = 0 a step of 1e-20 advances t at first but stalls long
    before t = 1; the march is refused before its first step."""
    calls = []

    def step(u, t, tau):
        calls.append(tau)
        return u

    with pytest.raises(ConfigError, match="does not advance t = 1.0"):
        evolve(step, np.zeros(1), 0.0, 1.0, 1e-20)
    assert not calls
