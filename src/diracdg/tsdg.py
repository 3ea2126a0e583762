"""Two-stage fourth-order DG update.

One time step performs exactly two spatial sweeps.  A sweep at the state z
and time s runs the first-order cascade and applies `semidiscrete.weak_form`
to two moments, both dissipating the jump of z itself:

    I    = weak_form(f = z,   g = M(z) + R(s),    advected traces = z)
    Ihat = weak_form(f = z_t, g = d_t M + R_t(s), advected traces = z_t).

I is rkdg's residual times the mass.  With I, Ihat from the sweep at (u, t)
the intermediate state is

    u*_l = u_l + tau / (3 (1 - theta) a_l) [ I_l + tau/4 Ihat_l ],

living at stage time t* = t + tau / (3 (1 - theta)); the sweep at (u*, t*)
supplies Itilde (its Ihat only) and the full step reads

    u_l(t + tau) = u_l + tau / a_l [ I_l + theta tau/2 Ihat_l
                                     + (1 - theta) tau/2 Itilde_l ].

theta = 1/3 (the default) reproduces the classical two-derivative
two-stage fourth-order construction; theta = 1 degenerates (the stage
time escapes to infinity) and is rejected.
"""

from __future__ import annotations

from .cascade import time_jet
from .errors import ConfigError
# unused here, but perfbench/spans.py lists this module in REQUIRED_BINDINGS
from .mesh import table_dot  # noqa: F401
from .semidiscrete import cascade_states, weak_form


def tsdg_step(space, model, coeffs, t, tau, theta: float = 1.0 / 3.0, source=None):
    if abs(1.0 - theta) < 1e-12:
        raise ConfigError("two-stage scheme undefined at theta = 1")
    t2 = tau / (3.0 * (1.0 - theta))
    Ihat, first = _sweep(space, model, coeffs, t, source)
    I = first()
    del first  # frees the first sweep's jets and states before the second
    ustar = coeffs + (t2 / space.mass) * (I + 0.25 * tau * Ihat)
    Itilde = _sweep(space, model, ustar, t + t2, source)[0]
    t3 = 0.5 * theta * tau
    t4 = 0.5 * tau - t3
    return coeffs + (tau / space.mass) * (I + t3 * Ihat + t4 * Itilde)


def _sweep(space, model, coeffs, t, source):
    """(Ihat, first): the moment Ihat and a function that forms I from the
    same volume jet, cascade and interface states of u."""
    vjet = space.volume_jet(coeffs, depth=1)
    svol = source.volume_jet(space, t, depth=1) if source is not None else None
    tj = time_jet(vjet, model, depth=1, source=svol)
    ut_states = cascade_states(space, coeffs, t, source, 1,
                               lambda jet, src: time_jet(jet, model, depth=1, source=src)["t"])
    u_states = {}

    def states(d):  # also keeps each direction's states of u, for I
        utm, utp, um, up = ut_states(d)
        u_states[d.name] = um, up, um, up
        return utm, utp, um, up

    mt = tj["Mt"] if svol is None else tj["Mt"] + svol["t"]
    ihat = weak_form(space, tj["t"], mt, states)

    def first():
        mv = tj["M"] if svol is None else tj["M"] + svol["val"]
        return weak_form(space, vjet["u"], mv, lambda d: u_states[d.name])

    return ihat, first
