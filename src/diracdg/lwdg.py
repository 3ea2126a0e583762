"""One-step Lax-Wendroff-type DG update.

The step discretises in time first.  With the Taylor state

    w = u + tau/2 u_t + tau^2/6 u_tt + tau^3/24 u_ttt

(time derivatives from the pointwise cascade) and G, the matching Taylor
combination of M and of the source, it applies `semidiscrete.weak_form`
once, with the interface flux advecting w and dissipating plain traces:

    u_l += tau / a_l  weak_form(f = w, g = G, advected traces = w).

Since F is linear, F(w) is exactly the time-averaged flux of the expansion.
The full cascade depth is kept for every degree: the nonlinearity makes
u_ttt nonzero even where the third spatial derivatives vanish.
"""

from __future__ import annotations

from .cascade import time_jet
# unused here, but perfbench/spans.py lists this module in REQUIRED_BINDINGS
from .mesh import table_dot  # noqa: F401
from .semidiscrete import cascade_states, weak_form


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


def lwdg_step(space, model, coeffs, t, tau, source=None):
    svol = None if source is None else source.volume_jet(space, t, depth=3)
    w, G = taylor_state(space.volume_jet(coeffs, depth=3), model, tau, svol)

    def edge_w(jet, src):  # the Taylor state at edge points, without M_ttt
        tj = time_jet(jet, model, depth=3, source=src, mttt=False)
        return _taylor(tau, jet["u"], tj["t"], tj["tt"], tj["ttt"])

    states = cascade_states(space, coeffs, t, source, 3, edge_w)
    return coeffs + tau * weak_form(space, w, G, states) / space.mass
