"""Two-stage fourth-order DG update.

One time step performs exactly two spatial sweeps.  Each sweep assembles,
for the current state z and time s,

    I_l    = int_K [ F(z) . grad v_l + (M(z) + R(s)) v_l ]      - edges(F1)
    Ihat_l = int_K [ F(z_t) . grad v_l + (d_t M + R_t(s)) v_l ] - edges(F2)

with z_t from the first-order cascade and the interface fluxes

    F1 . n = 1/2 [ (F(z-) + F(z+)) . n - (z+ - z-) ]
    F2 . n = 1/2 [ (F(z_t-) + F(z_t+)) . n - (z+ - z-) ],

i.e. the dissipation always penalises the jump of the state itself.  With
I, Ihat from the sweep at (u, t) the intermediate state is

    u*_l = u_l + tau / (3 (1 - theta) a_l) [ I_l + tau/4 Ihat_l ],

living at stage time t* = t + tau / (3 (1 - theta)); the sweep at (u*, t*)
supplies Itilde (the Ihat-type moment only) and the full step reads

    u_l(t + tau) = u_l + tau / a_l [ I_l + theta tau/2 Ihat_l
                                     + (1 - theta) tau/2 Itilde_l ].

theta = 1/3 (the default) reproduces the classical two-derivative
two-stage fourth-order construction; theta = 1 degenerates (the stage
time escapes to infinity) and is rejected.

The sweep is written once over the directions `semidiscrete.axes(space)`.
"""

from __future__ import annotations

from .cascade import time_jet
from .errors import ConfigError
from .mesh import table_dot
from .semidiscrete import axes, edge_sources, interface_states, lf_flux


def tsdg_step(space, model, coeffs, t, tau, theta: float = 1.0 / 3.0, source=None):
    if abs(1.0 - theta) < 1e-12:
        raise ConfigError("two-stage scheme undefined at theta = 1")
    t2 = tau / (3.0 * (1.0 - theta))
    I, Ihat = _sweep(space, model, coeffs, t, source, want_first=True)
    ustar = coeffs + (t2 / space.mass) * (I + 0.25 * tau * Ihat)
    _, Itilde = _sweep(space, model, ustar, t + t2, source, want_first=False)
    t3 = 0.5 * theta * tau
    t4 = 0.5 * tau - t3
    return coeffs + (tau / space.mass) * (I + t3 * Ihat + t4 * Itilde)


def _sweep(space, model, coeffs, t, source, want_first):
    dirs = axes(space)
    vjet = space.volume_jet(coeffs, depth=1)
    svol = source.volume_jet(space, t, depth=1) if source is not None else None
    tj = time_jet(vjet, model, depth=1, source=svol)

    mt = tj["Mt"] if svol is None else tj["Mt"] + svol["t"]
    ihat = sum(table_dot(d.flux(tj["t"]), d.table) for d in dirs)
    ihat += table_dot(mt, space.volw[(0, 0)])
    jumps = []
    for d in dirs:
        lo, hi = space.edge_jets(coeffs, d.name, depth=1)
        slo, shi = edge_sources(source, space, t, d, depth=1)
        ut_lo = time_jet(lo, model, depth=1, source=slo)["t"]
        ut_hi = time_jet(hi, model, depth=1, source=shi)["t"]
        um, up = interface_states(lo["u"], hi["u"], d.axis)
        utm, utp = interface_states(ut_lo, ut_hi, d.axis)
        ihat = ihat - d.edge_term(lf_flux(d.flux, utm, utp, um, up))
        jumps.append((d, um, up))

    if not want_first:
        return None, ihat
    mv = tj["M"] if svol is None else tj["M"] + svol["val"]
    i_full = sum(table_dot(d.flux(vjet["u"]), d.table) for d in dirs)
    i_full += table_dot(mv, space.volw[(0, 0)])
    for d, um, up in jumps:
        i_full = i_full - d.edge_term(lf_flux(d.flux, um, up, um, up))
    return i_full, ihat
