"""One-step Lax-Wendroff-type DG update.

The solution is advanced by testing the truncated Taylor expansion in time
against the basis:  with w = u + tau/2 u_t + tau^2/6 u_tt + tau^3/24 u_ttt
(time derivatives from the pointwise cascade), the update of each modal
coefficient is

    u_l += tau / a_l [ int_K ( F(w) . grad v_l + (G + Rbar) v_l )
                       - sum_edges int_e  Fhat . n  v_l ],

where G carries the matching Taylor combination of M and its time
derivatives, Rbar the one of the source, and the interface flux advects
the Taylor state but dissipates the plain traces:

    Fhat . n = 1/2 [ (F(w-) + F(w+)) . n - (u+ - u-) ].

Since F is linear, F(w) is exactly the time-averaged flux of the expansion.
The full cascade depth is kept for every degree: the nonlinearity makes
u_ttt nonzero even where the third spatial derivatives vanish.

The step is written once over the directions `semidiscrete.axes(space)`.
"""

from __future__ import annotations

from .cascade import time_jet
from .mesh import table_dot
from .semidiscrete import axes, edge_sources, interface_states, lf_flux


def _taylor(tau, f, ft, ftt, fttt):
    """f + tau/2 f_t + tau^2/6 f_tt + tau^3/24 f_ttt."""
    return f + (tau / 2.0) * ft + (tau * tau / 6.0) * ftt + (tau**3 / 24.0) * fttt


def taylor_state(space_jet, model, tau: float, source=None):
    """(w, G) at the volume points: the Taylor state w and the matching
    combination G of M (+ of the source derivatives when forced)."""
    tj = time_jet(space_jet, model, depth=3, source=source)
    w = _taylor(tau, space_jet["u"], tj["t"], tj["tt"], tj["ttt"])
    G = _taylor(tau, tj["M"], tj["Mt"], tj["Mtt"], tj["Mttt"])
    if source is not None:
        G = _taylor(tau, G + source["val"], source["t"], source["tt"], source["ttt"])
    return w, G


def _taylor_w(jet, model, tau, source):
    """The Taylor state w at edge points, which need no M_ttt."""
    tj = time_jet(jet, model, depth=3, source=source, mttt=False)
    return _taylor(tau, jet["u"], tj["t"], tj["tt"], tj["ttt"])


def lwdg_step(space, model, coeffs, t, tau, source=None):
    dirs = axes(space)
    vjet = space.volume_jet(coeffs, depth=3)
    svol = source.volume_jet(space, t, depth=3) if source is not None else None
    w, G = taylor_state(vjet, model, tau, svol)
    vol = sum(table_dot(d.flux(w), d.table) for d in dirs)
    vol += table_dot(G, space.volw["u"])

    edge = 0.0
    for d in dirs:
        lo, hi = space.edge_jets(coeffs, d.name, depth=3)
        slo, shi = edge_sources(source, space, t, d, depth=3)
        wm, wp = interface_states(
            _taylor_w(lo, model, tau, slo), _taylor_w(hi, model, tau, shi), d.axis
        )
        um, up = interface_states(lo["u"], hi["u"], d.axis)
        edge += d.edge_term(lf_flux(d.flux, wm, wp, um, up))
    return coeffs + tau * (vol - edge) / space.mass
