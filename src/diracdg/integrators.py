"""Explicit time integrators and the outer evolution loop.

`rk4_step` uses the low-storage combination

    v = u + tau/2 L(u, t)
    p = u + tau/2 L(v, t + tau/2)
    r = u + tau   L(p, t + tau/2)
    u+ = 1/3 [ v + 2 p + r - u + tau/2 L(r, t + tau) ]

which is algebraically identical to classical RK4 (expand: u +
tau/6 (k1 + 2 k2 + 2 k3 + k4)) but avoids storing the four stage slopes.
rkdg steps with it; the Shu-Osher `tvd_rk3_step` is kept for library use only.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowupError, ConfigError

_BLOWUP_LIMIT = 1e12  # max |coefficient| beyond which a march has blown up
# planned steps beyond which a march is refused; the largest preset plan
# (ex42-error-history at full scale) is 700 000
_MAX_STEPS = 10**8


def rk4_step(u, t, tau, L):
    v = u + 0.5 * tau * L(u, t)
    p = u + 0.5 * tau * L(v, t + 0.5 * tau)
    r = u + tau * L(p, t + 0.5 * tau)
    return (v + 2.0 * p + r - u + 0.5 * tau * L(r, t + tau)) / 3.0


def tvd_rk3_step(u, t, tau, L):
    u1 = u + tau * L(u, t)
    u2 = 0.25 * (3.0 * u + u1 + tau * L(u1, t + tau))
    return (u + 2.0 * u2 + 2.0 * tau * L(u2, t + 0.5 * tau)) / 3.0


def cfl_dt(space, mu: float) -> float:
    """Stable step tau = mu min h / (dim (2q+1)), h the cell widths."""
    h = min(h for _, h, _ in space.grid.axes)
    return mu * h / (space.dim * (2 * space.q + 1))


def default_mu(dim: int, q: int, scheme: str) -> float:
    """CFL numbers used throughout: 0.25 in 1D; 0.5 in 2D except the
    degree-3 one-step scheme, at 0.25.  Its linear stability limit is 0.97
    (lambda = 0, from the step's von Neumann symbol); whether the nonlinear
    runs need 0.25 is unmeasured."""
    if dim == 1:
        return 0.25
    if scheme == "lwdg" and q == 3:
        return 0.25
    return 0.5


def evolve(step, u0, t0: float, tfinal: float, dt: float, observer=None, stops=()):
    """March `step(u, t, tau) -> u` from t0 to tfinal.

    A step is clipped to land exactly on each time in `stops` and on
    tfinal; a stop within 1e-9 dt of t counts as reached.  After every step
    the coefficients are checked for blow-up.  `observer(istep, t, u)` is
    called after each accepted step (and once with istep=0 at t0).
    A step or final time that cannot end the march, or a march of more
    than _MAX_STEPS planned steps, raises ConfigError.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"time step must be positive and finite, got {dt!r}")
    if not np.isfinite(tfinal):
        raise ConfigError(f"final time must be finite, got {tfinal!r}")
    for t in (t0, tfinal):
        if t + dt == t:
            raise ConfigError(f"time step {dt!r} does not advance t = {t!r}")
    planned = (tfinal - t0) / dt
    if planned > _MAX_STEPS:
        raise ConfigError(f"time step {dt!r} plans {planned:.3g} steps from "
                          f"t = {t0!r} to {tfinal!r}, over the bound of "
                          f"{_MAX_STEPS:.0e}")
    u, t = u0, t0
    if observer is not None:
        observer(0, t0, u0)
    istep = 0
    ends = sorted([*stops, tfinal])  # a stop past tfinal is never reached
    while t < tfinal - 1e-9 * dt:
        while ends[0] <= t + 1e-9 * dt:
            del ends[0]
        tau = min(dt, ends[0] - t)
        if t + tau == t:
            raise ConfigError(f"time step {tau!r} does not advance t = {t!r}")
        u = step(u, t, tau)
        t = ends[0] if tau == ends[0] - t else t + tau
        istep += 1
        m = float(np.max(np.abs(u)))
        if not np.isfinite(m) or m > _BLOWUP_LIMIT:
            raise BlowupError(t, f"max |coefficient| = {m:.3e}")
        if observer is not None:
            observer(istep, t, u)
    return u, t
