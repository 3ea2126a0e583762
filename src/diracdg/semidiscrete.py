"""Method-of-lines DG residual with local Lax-Friedrichs coupling.

The semidiscrete form of u_t + alpha u_x + beta u_y = M(u) + R reads, per
cell K and basis function v_l,

    a_l du_l/dt = int_K [ F(u) . grad v_l + (M(u) + R) v_l ]
                  - sum_edges int_e  Fhat . n  v_l,

with F(u) = (alpha u, beta u) and the flux Fhat at an interface

    Fhat . n = 1/2 [ (F(u-) + F(u+)) . n - (u+ - u-) ],

whose dissipation coefficient is the unit spectral radius of alpha/beta.
Exterior traces are zero on all boundaries (every derivative order), which
acts as a weakly absorbing wall far from the supported solution.

Because gamma is antisymmetric the discrete charge Q_h = sum a_l u_l^2 is
non-increasing for the exact-in-time flow: dQ/dt equals minus the summed
squared interface jumps.  `dqdt_semidiscrete` exposes that quantity.

This residual, `lwdg` and `tsdg` are each written once, as a loop over
`axes(space)`: x with alpha, and on a 2D space also y with beta.
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


def edge_sources(source, space, t, d, depth: int):
    """Each cell's (low, high)-edge source jets along `d`, or (None, None)."""
    if source is None:
        return None, None
    lo, hi = {}, {}
    for key, v in source.edge_jet(space, t, d.name, depth=depth).items():
        lo[key], hi[key] = _sides(v, d.axis)
    return lo, hi


def rkdg_residual(space, model, coeffs, t: float = 0.0, source=None):
    """du/dt coefficients of the semidiscrete scheme."""
    # In-place sum: sum() keeps one more full-mesh array alive, which raised
    # the peak RSS of a 200^2 P2 rkdg run from 165 to 175 MB.
    dirs = axes(space)
    uv = space.eval(coeffs)
    vol = reduce(iadd, (table_dot(d.flux(uv), d.table) for d in dirs))
    mv = model.nonlinear_term(uv)
    if source is not None:
        mv = mv + source.values(space, t)
    vol += table_dot(mv, space.volw["u"])

    edge = 0.0
    for d in dirs:
        lo, hi = space.edge_values(coeffs, d.name)
        um, up = interface_states(lo, hi, d.axis)
        edge += d.edge_term(lf_flux(d.flux, um, up, um, up))
    return (vol - edge) / space.mass


def dqdt_semidiscrete(space, model, coeffs, t: float = 0.0, source=None):
    """d/dt of the discrete charge along the semidiscrete flow.

    2 sum_K sum_l a_l u_l (du_l/dt); for the unforced system this is
    -(sum of squared interface jumps) and must never be positive.
    """
    L = rkdg_residual(space, model, coeffs, t, source)
    return 2.0 * float(np.sum(coeffs * L * space.mass))
