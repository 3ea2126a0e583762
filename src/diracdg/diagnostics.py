"""Conserved-quantity functionals and convergence bookkeeping."""

from __future__ import annotations

import numpy as np

from .mesh import convergence_orders
from .model import charge_density, energy_density


def total_charge(space, coeffs) -> float:
    """Q_h = sum over cells/components of a_l u_l^2 (orthogonal basis)."""
    return float(np.sum(coeffs * coeffs * space.mass))


def total_energy(space, coeffs, model) -> float:
    jet = space.volume_jet(coeffs, depth=1)
    return space.integrate(energy_density(jet["u"], jet["x"], model, jet.get("y")))


def relative_drift(value: float, reference: float) -> float:
    if reference == 0.0:
        return abs(value)
    return abs((value - reference) / reference)


def charge_deviation(space, coeffs, ref_coeffs) -> float:
    """max over volume quadrature points of | |psi|^2(t) - |psi|^2(ref) |."""
    now = charge_density(space.eval(coeffs))
    ref = charge_density(space.eval(ref_coeffs))
    return float(np.max(np.abs(now - ref)))


def probe_charge_density(space, coeffs, *point) -> float:
    """|psi|^2 of the broken polynomial at a single point (x or x, y)."""
    return float(charge_density(space.point_values(coeffs, *point))[0])


def order_table(cells, errors, label: str = "L2 error") -> str:
    """Plain-text refinement table: cells, error, observed order."""
    orders = [float("nan")] + list(convergence_orders(errors, cells))
    lines = [f"{'cells':>8}  {label:>12}  {'order':>6}"]
    for n, e, o in zip(cells, errors, orders):
        otxt = "  --- " if np.isnan(o) else f"{o:6.2f}"
        lines.append(f"{n:>8}  {e:12.4e}  {otxt}")
    return "\n".join(lines)


def count_local_maxima(values, min_prominence: float = 0.0) -> int:
    """Number of strict interior local maxima of a sampled time series."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return 0
    up = v[1:-1] > v[:-2]
    down = v[1:-1] > v[2:]
    idx = np.nonzero(up & down)[0] + 1
    if min_prominence > 0.0:
        base = np.min(v)
        idx = idx[v[idx] - base >= min_prominence]
    return int(idx.size)
