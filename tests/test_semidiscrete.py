"""Semidiscrete residual: charge dissipation identity and consistency."""

import numpy as np
import pytest

from diracdg.diagnostics import total_charge
from diracdg.mesh import DGSpace1D, DGSpace2D, Grid1D, Grid2D
from diracdg.model import DIRECTIONS, NLDModel
from diracdg.semidiscrete import (
    axes,
    dqdt_semidiscrete,
    edge_term_1d,
    edge_term_2d,
    interface_states,
    lf_flux,
    rkdg_residual,
)
from diracdg.waves import MMSSource, mms_state

RNG = np.random.default_rng(11)
MODEL = NLDModel()


def _random_coeffs(space):
    c = RNG.standard_normal((4,) + space.mass.shape[:0] + _cells(space))
    return c


def _cells(space):
    if space.dim == 1:
        return (space.grid.nx, space.nloc)
    return (space.grid.nx, space.grid.ny, space.nloc)


# --------------------------------------------------------------------------
# dQ/dt is never positive and equals minus the squared interface jumps

@pytest.mark.parametrize("q", [1, 2, 3])
def test_dqdt_nonpositive_1d(q):
    sp = DGSpace1D(Grid1D(-3.0, 3.0, 17), q)
    for _ in range(40):
        c = _random_coeffs(sp)
        d = dqdt_semidiscrete(sp, MODEL, c)
        assert d <= 1e-12 * max(1.0, total_charge(sp, c))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_dqdt_nonpositive_2d(q):
    sp = DGSpace2D(Grid2D(-2.0, 2.0, 7, -2.0, 2.0, 6), q)
    for _ in range(15):
        c = _random_coeffs(sp)
        d = dqdt_semidiscrete(sp, MODEL, c)
        assert d <= 1e-12 * max(1.0, total_charge(sp, c))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_dqdt_equals_minus_squared_jumps_1d(q):
    sp = DGSpace1D(Grid1D(-2.0, 2.0, 13), q)
    c = _random_coeffs(sp)
    lo, hi = (s["u"] for s in sp.edge_jets(c, "x", depth=0))
    um, up = interface_states(lo, hi, axis=1)
    expected = -float(np.sum((up - um) ** 2))
    assert dqdt_semidiscrete(sp, MODEL, c) == pytest.approx(
        expected, rel=1e-10, abs=1e-11
    )


@pytest.mark.parametrize("q", [1, 2, 3])
def test_dqdt_equals_minus_squared_jumps_2d(q):
    sp = DGSpace2D(Grid2D(-1.0, 1.5, 6, -2.0, 1.0, 5), q)
    c = 0.5 * _random_coeffs(sp)
    lo, hi = (s["u"] for s in sp.edge_jets(c, "x", depth=0))
    um, up = interface_states(lo, hi, axis=1)
    sx = np.sum((up - um) ** 2 * sp.axis_w[1])  # integrate jumps along each edge
    lo, hi = (s["u"] for s in sp.edge_jets(c, "y", depth=0))
    um, up = interface_states(lo, hi, axis=2)
    sy = np.sum((up - um) ** 2 * sp.axis_w[0])
    assert dqdt_semidiscrete(sp, MODEL, c) == pytest.approx(
        -float(sx + sy), rel=1e-10, abs=1e-11
    )


def test_nonlinearity_does_not_leak_charge():
    # same field, kappa swept: the dissipation rate depends only on jumps
    sp = DGSpace1D(Grid1D(-2.0, 2.0, 9), 2)
    c = _random_coeffs(sp)
    rates = [
        dqdt_semidiscrete(sp, NLDModel(kappa=k), c) for k in (1.0, 2.0, 3.0)
    ]
    assert max(rates) - min(rates) <= 1e-11 * max(1.0, abs(rates[0]))


# --------------------------------------------------------------------------
# consistency: the residual converges to the exact u_t

def test_residual_tracks_exact_ut_1d():
    """Recovered du/dt converges to the exact one at order q (the advected
    projection defect dominates; the evolved solution still gains q+1)."""
    om = 0.8
    m, lam = MODEL.m, MODEL.lam
    beta = np.sqrt(m * m - om * om)

    def phi_chi(x):
        s = beta**2 / (lam * (m + om * np.cosh(2 * beta * x)))
        P = (m * s - lam * s * s) / om
        return np.sqrt((P + s) / 2), np.sign(x) * np.sqrt(
            np.maximum(P - s, 0.0) / 2
        )

    def exact(x):
        ph, ch = phi_chi(x)
        z = np.zeros_like(x)
        return np.stack([ph, z, z, ch])

    def exact_ut(x):
        ph, ch = phi_chi(x)
        z = np.zeros_like(x)
        return om * np.stack([z, ch, -ph, z])

    errs = []
    for nx in (120, 240):  # domain wide enough that the wall jump is ~1e-16
        sp = DGSpace1D(Grid1D(-30.0, 30.0, nx), 2)
        L = rkdg_residual(sp, MODEL, sp.project(exact))
        dev = sp.eval(L) - exact_ut(*sp.points)
        errs.append(np.sqrt(float(np.sum(dev * dev * sp.w))))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.7, (errs, order)


def test_residual_tracks_exact_ut_2d_forced():
    src = MMSSource(MODEL)
    t = 0.2

    def exact_ut(x, y):
        E = np.exp(-5.0 * (x * x + y * y))
        z = np.zeros_like(E)
        return 4 * t**3 * np.stack([E, 2.0 * E, z, z])

    errs = []
    for n in (20, 40):
        sp = DGSpace2D(Grid2D(-2.0, 2.0, n, -2.0, 2.0, n), 2)
        c = sp.project(lambda x, y: mms_state(x, y, t))
        L = rkdg_residual(sp, MODEL, c, t=t, source=src)
        dev = sp.eval(L) - exact_ut(*sp.points)
        errs.append(np.sqrt(float(np.sum(dev * dev * sp.w))))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.7, (errs, order)

    # dropping the forcing leaves an O(1) defect
    sp = DGSpace2D(Grid2D(-2.0, 2.0, 20, -2.0, 2.0, 20), 2)
    c = sp.project(lambda x, y: mms_state(x, y, t))
    L0 = rkdg_residual(sp, MODEL, c, t=t, source=None)
    dev0 = sp.eval(L0) - exact_ut(*sp.points)
    assert np.sqrt(float(np.sum(dev0 * dev0 * sp.w))) > 100 * errs[1]


# --------------------------------------------------------------------------
# building blocks

def test_interface_states_ghost_zeros():
    lo = RNG.standard_normal((4, 5))
    hi = RNG.standard_normal((4, 5))
    um, up = interface_states(lo, hi, axis=1)
    assert um.shape == up.shape == (4, 6)
    np.testing.assert_array_equal(um[:, 0], 0.0)
    np.testing.assert_array_equal(up[:, -1], 0.0)
    np.testing.assert_array_equal(um[:, 1:], hi)
    np.testing.assert_array_equal(up[:, :-1], lo)


def test_lf_flux_formula():
    a = RNG.standard_normal((4, 7))
    b = RNG.standard_normal((4, 7))
    f = lf_flux(lambda u: 2.0 * u, a, b, a, b)
    np.testing.assert_allclose(f, 0.5 * (2 * a + 2 * b - (b - a)))
    # distinct advected and jump states are honoured
    j1 = RNG.standard_normal((4, 7))
    j2 = RNG.standard_normal((4, 7))
    f2 = lf_flux(lambda u: u, a, b, j1, j2)
    np.testing.assert_allclose(f2, 0.5 * (a + b - (j2 - j1)))


def _lf_flux_per_side(apply_f, flux_minus, flux_plus, diss_minus, diss_plus):
    """The flux as first written: the direction's matrix applied to each side."""
    return 0.5 * (
        apply_f(flux_minus) + apply_f(flux_plus) - (diss_plus - diss_minus)
    )


@pytest.mark.parametrize("name", sorted(DIRECTIONS))
@pytest.mark.parametrize("shape", [(4, 12), (4, 8, 6, 3)], ids=["1d", "2d"])
def test_lf_flux_applies_the_matrix_once_bit_for_bit(shape, name):
    # A_d is a signed permutation, so A_d (a- + a+) has the bits of
    # A_d a- + A_d a+; magnitudes over 16 decades, advected and dissipated
    # states apart (the cascade schemes) and alike (rkdg)
    apply_f = DIRECTIONS[name].apply
    for _ in range(5):
        am, ap, bm, bp = (RNG.standard_normal(shape)
                          * 10.0 ** RNG.uniform(-8.0, 8.0, shape) for _ in range(4))
        for states in ((am, ap, bm, bp), (am, ap, am, ap)):
            got = lf_flux(apply_f, *states)
            assert got.tobytes() == _lf_flux_per_side(apply_f, *states).tobytes()


@pytest.mark.parametrize("space", [DGSpace1D(Grid1D(-1.0, 1.0, 5), 2),
                                   DGSpace2D(Grid2D(-1.0, 1.0, 4, -1.0, 1.0, 3), 2)],
                         ids=["1d", "2d"])
def test_axes_lists_one_direction_per_name(space):
    dirs = axes(space)
    assert [d.name for d in dirs] == list(space.names)
    assert [d.axis for d in dirs] == list(range(1, space.dim + 1))
    for d in dirs:
        assert d.flux is DIRECTIONS[d.name].apply
        assert d.table is space.volw[d.name]
        lo, hi = space.edge_jets(_random_coeffs(space), d.name, depth=0)
        fhat = interface_states(lo["u"], hi["u"], d.axis)[0]
        want = (edge_term_1d(space, fhat) if space.dim == 1
                else edge_term_2d(space, fhat, d.name))
        assert np.array_equal(d.edge_term(fhat), want)
