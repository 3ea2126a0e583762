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
"""

from __future__ import annotations

from .cascade import taylor_state, time_jet
from .mesh import table_dot
from .model import apply_alpha, apply_beta
from .semidiscrete import edge_term_1d, edge_term_2d, interface_states, lf_flux


def _taylor_w(jet, model, tau, source):
    tj = time_jet(jet, model, depth=3, source=source, mttt=False)
    return (
        jet["u"]
        + (tau / 2.0) * tj["t"]
        + (tau * tau / 6.0) * tj["tt"]
        + (tau**3 / 24.0) * tj["ttt"]
    )


def _edge_source_split(sedge, axis: int):
    if sedge is None:
        return None, None
    if axis == 1:
        lo = {k: v[:, :-1] for k, v in sedge.items()}
        hi = {k: v[:, 1:] for k, v in sedge.items()}
    else:
        lo = {k: v[:, :, :-1] for k, v in sedge.items()}
        hi = {k: v[:, :, 1:] for k, v in sedge.items()}
    return lo, hi


def lwdg_step(space, model, coeffs, t, tau, source=None):
    if space.dim == 1:
        return _step_1d(space, model, coeffs, t, tau, source)
    return _step_2d(space, model, coeffs, t, tau, source)


def _step_1d(space, model, coeffs, t, tau, source):
    vjet = space.volume_jet(coeffs, depth=3)
    svol = source.volume_jet(space, t, depth=3) if source is not None else None
    w, G = taylor_state(vjet, model, tau, svol)
    vol = table_dot(apply_alpha(w), space.phiw[1])
    vol += table_dot(G, space.phiw[0])

    ljet, rjet = space.trace_jets(coeffs, depth=3)
    sedge = source.edge_jet(space, t, "x", depth=3) if source is not None else None
    slo, shi = _edge_source_split(sedge, axis=1)
    wlo = _taylor_w(ljet, model, tau, slo)
    whi = _taylor_w(rjet, model, tau, shi)
    wm, wp = interface_states(wlo, whi, axis=1)
    um, up = interface_states(ljet["u"], rjet["u"], axis=1)
    edge = edge_term_1d(space, lf_flux(apply_alpha, wm, wp, um, up))
    return coeffs + tau * (vol - edge) / space.mass


def _step_2d(space, model, coeffs, t, tau, source):
    vjet = space.volume_jet(coeffs, depth=3)
    svol = source.volume_jet(space, t, depth=3) if source is not None else None
    w, G = taylor_state(vjet, model, tau, svol)
    vol = table_dot(apply_alpha(w), space.volw[(1, 0)])
    vol += table_dot(apply_beta(w), space.volw[(0, 1)])
    vol += table_dot(G, space.volw[(0, 0)])

    lo, hi = space.edge_jets(coeffs, "x", depth=3)
    sedge = source.edge_jet(space, t, "x", depth=3) if source is not None else None
    slo, shi = _edge_source_split(sedge, axis=1)
    wm, wp = interface_states(
        _taylor_w(lo, model, tau, slo), _taylor_w(hi, model, tau, shi), axis=1
    )
    um, up = interface_states(lo["u"], hi["u"], axis=1)
    edge = edge_term_2d(space, lf_flux(apply_alpha, wm, wp, um, up), "x")

    lo, hi = space.edge_jets(coeffs, "y", depth=3)
    sedge = source.edge_jet(space, t, "y", depth=3) if source is not None else None
    slo, shi = _edge_source_split(sedge, axis=2)
    wm, wp = interface_states(
        _taylor_w(lo, model, tau, slo), _taylor_w(hi, model, tau, shi), axis=2
    )
    um, up = interface_states(lo["u"], hi["u"], axis=2)
    edge += edge_term_2d(space, lf_flux(apply_beta, wm, wp, um, up), "y")
    return coeffs + tau * (vol - edge) / space.mass
