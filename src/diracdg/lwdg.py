"""One-step Lax-Wendroff-type DG update.

The step discretises in time first (the Lax-Wendroff procedure of Qiu,
Dumbser and Shu, Comput. Methods Appl. Mech. Engrg. 2005).  With the
Taylor state

    w = u + tau/2 u_t + tau^2/6 u_tt + tau^3/24 u_ttt

(time derivatives from the pointwise cascade, which takes u_ttt from the
squared Dirac operator and so needs no mixed second-order key) and G, the
matching Taylor combination of M and of the source, it applies
`semidiscrete.weak_form` once, with the interface flux advecting w and
dissipating plain traces:

    u_l += tau / a_l  weak_form(f = w, g = G, advected traces = w).

Since F is linear, F(w) is exactly the time-averaged flux of the expansion.
The full cascade depth is kept for every degree: the nonlinearity makes
u_ttt nonzero even where the third spatial derivatives vanish.  The edge
states need w alone, so the cascade at the edge points forms no M.

The sums are formed per block of points, inside `cascade.time_jet` (its
`then`): the seven time derivatives u_t, u_tt, u_ttt, M, M_t, M_tt and
M_ttt of the volume points, and u_t, u_tt and u_ttt of the edge points,
never exist at full size; only w and G do.  Every term is pointwise, so
each step has the bits of summing the full-size derivatives.
"""

from __future__ import annotations

from .cascade import time_jet
# unused here, but perfbench/spans.py lists this module in REQUIRED_BINDINGS
from .mesh import table_dot  # noqa: F401
from .semidiscrete import cascade_states, weak_form


def _taylor(tau, f, ft, ftt, fttt):
    """f + tau/2 f_t + tau^2/6 f_tt + tau^3/24 f_ttt."""
    return f + (tau / 2.0) * ft + (tau * tau / 6.0) * ftt + (tau**3 / 24.0) * fttt


def _w(tau, jet, tj):
    """The Taylor state u + tau/2 u_t + tau^2/6 u_tt + tau^3/24 u_ttt."""
    return _taylor(tau, jet["u"], tj["t"], tj["tt"], tj["ttt"])


def taylor_state(space_jet, model, tau: float, source=None):
    """(w, G) at the volume points: the Taylor state w and the matching
    combination G of M (+ of the source derivatives when forced)."""

    def sums(jet, tj, src):
        G = _taylor(tau, tj["M"], tj["Mt"], tj["Mtt"], tj["Mttt"])
        if src is not None:
            G = _taylor(tau, G + src["val"], src["t"], src["tt"], src["ttt"])
        return {"w": _w(tau, jet, tj), "G": G}

    wG = time_jet(space_jet, model, depth=3, source=source, then=sums)
    return wG["w"], wG["G"]


def lwdg_step(space, model, coeffs, t, tau, source=None):
    svol = None if source is None else source.jet(*space.points, t, depth=3)
    w, G = taylor_state(space.volume_jet(coeffs, depth=3), model, tau, svol)

    def edge_w(jet, src):  # the Taylor state at edge points, without any M
        return time_jet(jet, model, depth=3, source=src, m_jet=False,
                        then=lambda j, tj, s: {"w": _w(tau, j, tj)})["w"]

    states = cascade_states(space, coeffs, t, source, 3, edge_w)
    return coeffs + tau * weak_form(space, w, G, states) / space.mass
