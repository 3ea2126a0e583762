"""The DG weak form that rkdg, lwdg and tsdg share.

Each scheme discretises u_t + alpha u_x + beta u_y = M(u) + R in time its
own way and then applies one spatial operator.  For a volume field f, a
zero-order term g and interface states a (advected) and b (dissipated),
`weak_form` returns per cell K and basis function v_l

    int_K [ F(f) . grad v_l + g v_l ] - sum_edges int_e  Fhat . n  v_l,

with F(f) = (alpha f, beta f) and the local Lax-Friedrichs flux

    Fhat . n = 1/2 [ (F(a-) + F(a+)) . n - (b+ - b-) ]

(the unit spectral radius of alpha/beta).  b is always the plain trace of
u; a scheme only chooses (f, g, a):

    rkdg        f = a = u,     g = M(u) + R    (`rkdg_residual`: a_l du_l/dt)
    lwdg        f = a = w,     g = G           (the Taylor sums, `lwdg`)
    tsdg I      f = a = u,     g = M(u) + R    (rkdg's, times the mass)
    tsdg Ihat   f = a = u_t,   g = M_t + R_t

`cascade_states` builds the interface states of the two cascade schemes.
Exterior traces are zero on all boundaries (every derivative order), which
acts as a weakly absorbing wall far from the supported solution.

Because gamma is antisymmetric the discrete charge Q_h = sum a_l u_l^2 is
non-increasing for the exact-in-time flow: dQ/dt equals minus the summed
squared interface jumps.  `dqdt_semidiscrete` exposes that quantity.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import iadd

import numpy as np

from .mesh import table_dot
from .model import apply_alpha, apply_beta


def interface_states(lo, hi, axis: int):
    """Interior minus/plus states at the nx+1 interfaces along `axis`.

    lo/hi are the traces on each cell's low/high edge; exterior ghost
    states are zero.
    """
    shp = list(lo.shape)
    shp[axis] = 1
    z = np.zeros(shp)
    um = np.concatenate([z, hi], axis=axis)
    up = np.concatenate([lo, z], axis=axis)
    return um, up


def lf_flux(apply_f, flux_minus, flux_plus, diss_minus, diss_plus):
    """Lax-Friedrichs-type flux; the advected state and the jump state may
    differ (Taylor-evolved vs plain traces in the one-step schemes)."""
    return 0.5 * (
        apply_f(flux_minus) + apply_f(flux_plus) - (diss_plus - diss_minus)
    )


def _sides(v, axis: int):
    """(low, high)-edge views, cell by cell, of interface values along `axis`."""
    cut = (slice(None),) * axis
    return v[cut + (slice(None, -1),)], v[cut + (slice(1, None),)]


def edge_term_1d(space, fhat):
    """Per-cell boundary contribution sum_e Fhat.n v_l from interface fluxes."""
    lo_f, hi_f = _sides(fhat, 1)
    tab = space.edgew["x"]
    return hi_f[..., None] * tab[1] - lo_f[..., None] * tab[0]


def edge_term_2d(space, fhat, axis: str):
    lo_f, hi_f = _sides(fhat, 1 if axis == "x" else 2)
    tab = space.edgew[axis]
    return table_dot(hi_f, tab[1]) - table_dot(lo_f, tab[0])


Direction = namedtuple("Direction", "name axis flux table edge_term")


def axes(space):
    """Per direction: name, cell axis, flux, weighted volume table, edge term;
    the edge terms resolve `edge_term_1d`/`_2d` when called, so rebinds show."""
    if space.dim == 1:
        return (Direction("x", 1, apply_alpha, space.volw["x"],
                          lambda fhat: edge_term_1d(space, fhat)),)
    return (
        Direction("x", 1, apply_alpha, space.volw["x"],
                  lambda fhat: edge_term_2d(space, fhat, "x")),
        Direction("y", 2, apply_beta, space.volw["y"],
                  lambda fhat: edge_term_2d(space, fhat, "y")),
    )


def weak_form(space, f, g, states):
    """sum_d int F_d(f) . d_d v + int g v - sum_d int_edges Fhat_d . n v, with
    Fhat_d = lf_flux(d.flux, *states(d)).  `states` is called one direction
    at a time, so one direction's traces die before the next one's exist."""
    dirs = axes(space)
    # In-place sum, not sum(): over three 200^2 P2 steps the lwdg step, which
    # sets a 2D run's peak RSS, peaked at 273-278 MB against 282-287 with
    # sum() (rkdg alone peaks lower with sum(), 140 against 151 MB).
    vol = reduce(iadd, (table_dot(d.flux(f), d.table) for d in dirs))
    vol += table_dot(g, space.volw["u"])
    # the edges sum apart from vol, which keeps rkdg and lwdg bit for bit
    edge = 0.0
    for d in dirs:
        edge += d.edge_term(lf_flux(d.flux, *states(d)))
    return vol - edge


def cascade_states(space, coeffs, t, source, depth: int, advect):
    """`states` for `weak_form` in the cascade schemes: from each side's edge
    jet and source edge jets, the interface states of advect(jet, source
    jets), then those of plain u."""

    def states(d):
        lo, hi = space.edge_jets(coeffs, d.name, depth=depth)
        slo = shi = None
        if source is not None:
            slo, shi = {}, {}
            for key, v in source.edge_jet(space, t, d.name, depth=depth).items():
                slo[key], shi[key] = _sides(v, d.axis)
        am, ap = interface_states(advect(lo, slo), advect(hi, shi), d.axis)
        return (am, ap, *interface_states(lo["u"], hi["u"], d.axis))

    return states


def rkdg_residual(space, model, coeffs, t: float = 0.0, source=None):
    """du/dt coefficients of the semidiscrete scheme."""
    uv = space.eval(coeffs)
    mv = model.nonlinear_term(uv)
    if source is not None:
        mv = mv + source.values(space, t)

    def states(d):
        lo, hi = space.edge_jets(coeffs, d.name, depth=0)
        um, up = interface_states(lo["u"], hi["u"], d.axis)
        return um, up, um, up

    return weak_form(space, uv, mv, states) / space.mass


def dqdt_semidiscrete(space, model, coeffs, t: float = 0.0, source=None):
    """d/dt of the discrete charge along the semidiscrete flow.

    2 sum_K sum_l a_l u_l (du_l/dt); for the unforced system this is
    -(sum of squared interface jumps) and must never be positive.
    """
    L = rkdg_residual(space, model, coeffs, t, source)
    return 2.0 * float(np.sum(coeffs * L * space.mass))
