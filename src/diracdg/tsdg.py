"""Two-stage fourth-order DG update.

One time step performs exactly two spatial sweeps.  A sweep at the state z
and time s runs the first-order cascade and applies `semidiscrete.weak_form`
to two moments, both dissipating the jump of z itself:

    I    = weak_form(f = z,   g = M(z) + R(s),    advected traces = z)
    Ihat = weak_form(f = z_t, g = d_t M + R_t(s), advected traces = z_t).

When forced, the source terms are evaluated and added per cascade block
(`cascade.time_jet`'s `source` and `then`), so M + R and M_t + R_t are the
only full-size forced arrays.

I is rkdg's residual times the mass.  With I, Ihat from the sweep at (u, t)
the intermediate state is

    u*_l = u_l + tau / (2 a_l) [ I_l + tau/4 Ihat_l ],

living at stage time t* = t + tau/2; the sweep at (u*, t*) supplies Itilde
(its Ihat only) and the full step reads

    u_l(t + tau) = u_l + tau / a_l [ I_l + tau/6 Ihat_l + tau/3 Itilde_l ].

The weights are fixed: the two-stage family with stage time tau/(3(1-theta))
and weights theta tau/2, (1-theta) tau/2 is fourth order only at theta = 1/3
(Chan and Tsai, Numer. Algorithms 2010; Li and Du, SIAM J. Sci. Comput. 2016).
"""

from __future__ import annotations

from .cascade import time_jet
# unused here, but perfbench/spans.py lists this module in REQUIRED_BINDINGS
from .mesh import table_dot  # noqa: F401
from .semidiscrete import cascade_states, weak_form


def tsdg_step(space, model, coeffs, t, tau, source=None):
    half = 0.5 * tau
    sixth = (1.0 / 6.0) * tau
    Ihat, first = _sweep(space, model, coeffs, t, source)
    I = first()
    del first  # frees the first sweep's jets and states before the second
    ustar = coeffs + (half / space.mass) * (I + 0.25 * tau * Ihat)
    Itilde = _sweep(space, model, ustar, t + half, source)[0]
    return coeffs + (tau / space.mass) * (I + sixth * Ihat + (half - sixth) * Itilde)


def _sweep(space, model, coeffs, t, source):
    """(Ihat, first): the moment Ihat and a function that forms I from the
    same volume jet, cascade and interface states of u."""
    vjet = space.volume_jet(coeffs, depth=1)
    if source is None:
        tj = time_jet(vjet, model, depth=1)
    else:
        tj = time_jet(vjet, model, depth=1, then=_add_source,
                      source=source.per_block(*space.points, t, depth=1))

    def ut(jet, src):  # u_t at edge points, without any M
        return time_jet(jet, model, depth=1, source=src, m_jet=False)["t"]

    ut_states = cascade_states(space, coeffs, t, source, 1, ut)
    u_states = {}

    def states(d):  # also keeps each direction's states of u, for I
        utm, utp, um, up = ut_states(d)
        u_states[d.name] = um, up, um, up
        return utm, utp, um, up

    ihat = weak_form(space, tj["t"], tj["Mt"], states)

    def first():
        return weak_form(space, vjet["u"], tj["M"], lambda d: u_states[d.name])

    return ihat, first


def _add_source(jet, tj, src):
    """M + R and M_t + R_t, added per cascade block into its M and M_t."""
    tj["M"] += src["val"]
    tj["Mt"] += src["t"]
    return tj
