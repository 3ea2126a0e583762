"""Time-derivative cascade checks against independent oracles.

Two oracles cover the cascade end to end:

* the forced Gaussian manufactured field -- its time dependence is a pure
  quartic, so every time derivative is known in closed form;
* the 1D standing wave in its closed form, whose spatial jet follows from
  the profile ODE and whose time jet is a rotation at frequency omega.
"""

import numpy as np
import pytest

from diracdg import cascade
from diracdg.cascade import time_jet
from diracdg.lwdg import taylor_state
from diracdg.mesh import DGSpace1D, DGSpace2D, Grid1D, Grid2D
from diracdg.model import NLDModel
from diracdg.semidiscrete import axes, cascade_states
from diracdg.waves import MMS_C1, MMS_C2, MMSSource, mms_space_jet, mms_state

RNG = np.random.default_rng(7)


# --------------------------------------------------------------------------
# third time derivative of g(rho(t)): chain rule vs the printed shortcut

def _g_along_path(model, rho_path, t):
    return model.g(rho_path(t))


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_gttt_chain_rule_fd_adjudication(kappa):
    """d^3/dt^3 g(rho(t)) must follow the full chain rule
    g''' rho_t^3 + 3 g'' rho_t rho_tt + g' rho_ttt; the variant without the
    (rho_t)^3 term and with cross coefficient 2 disagrees once g'' != 0."""
    model = NLDModel(kappa=kappa)
    rho_path = lambda t: 0.6 + 0.3 * np.sin(1.3 * t)
    t0 = 0.4
    r = rho_path(t0)
    rt = 0.3 * 1.3 * np.cos(1.3 * t0)
    rtt = -0.3 * 1.3**2 * np.sin(1.3 * t0)
    rttt = -0.3 * 1.3**3 * np.cos(1.3 * t0)
    _, g1, g2, g3 = model.g_jet(r, 3)

    chain = g3 * rt**3 + 3.0 * g2 * rt * rtt + g1 * rttt
    shortcut = 2.0 * g2 * rt * rtt + g1 * rttt  # drops g''' and one cross term

    h = 0.02
    samples = np.array(
        [_g_along_path(model, rho_path, t0 + k * h) for k in range(-3, 4)]
    )
    w3 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / (8 * h**3)
    fd = float(samples @ w3)

    assert chain == pytest.approx(fd, rel=2e-4)
    if kappa > 1.5:  # g'' != 0: the shortcut must fail the same oracle
        assert abs(shortcut - fd) > 100 * abs(chain - fd)


# --------------------------------------------------------------------------
# full cascade on the manufactured field

def _analytic_time_derivatives(x, y, t):
    E = np.exp(-5.0 * (x * x + y * y))
    z = np.zeros_like(E)
    mk = lambda f: np.stack([MMS_C1 * f, MMS_C2 * f, z, z])
    return {
        "t": mk(4 * t**3 * E),
        "tt": mk(12 * t**2 * E),
        "ttt": mk(24 * t * E),
    }


@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
def test_time_jet_reproduces_mms_derivatives(kappa):
    model = NLDModel(kappa=kappa)
    src = MMSSource(model)
    n = 300
    x = RNG.uniform(-1.5, 1.5, n)
    y = RNG.uniform(-1.5, 1.5, n)
    t = 0.73
    sj = mms_space_jet(x, y, t)
    tj = time_jet(sj, model, depth=3, source=src.jet(x, y, t, depth=3))
    ref = _analytic_time_derivatives(x, y, t)
    scale = np.abs(ref["t"]).max()
    for key in ("t", "tt", "ttt"):
        dev = np.abs(tj[key] - ref[key]).max()
        assert dev <= 1e-10 * max(1.0, scale), (key, dev)


def test_time_jet_against_sixth_order_fd():
    # same statement via finite differences of the analytic field in t
    model = NLDModel()
    src = MMSSource(model)
    x = RNG.uniform(-1.0, 1.0, 50)
    y = RNG.uniform(-1.0, 1.0, 50)
    t, h = 0.5, 0.05
    sj = mms_space_jet(x, y, t)
    tj = time_jet(sj, model, depth=3, source=src.jet(x, y, t, depth=3))
    us = np.array([mms_state(x, y, t + k * h) for k in range(-3, 4)])
    w1 = np.array([-1, 9, -45, 0, 45, -9, 1]) / (60.0 * h)
    w2 = np.array([2, -27, 270, -490, 270, -27, 2]) / (180.0 * h * h)
    w3 = np.array([1, -8, 13, 0, -13, 8, -1]) / (8.0 * h**3)
    for key, w in (("t", w1), ("tt", w2), ("ttt", w3)):
        fd = np.tensordot(w, us, axes=(0, 0))
        np.testing.assert_allclose(tj[key], fd, rtol=0, atol=1e-9)


@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
def test_m_derivatives_against_sixth_order_fd(kappa):
    """M_t, M_tt and M_ttt against finite differences in t of M(u(t)) on
    the manufactured field; kappa = 3 reaches a nonzero g'''."""
    model = NLDModel(kappa=kappa)
    x, y = (v.ravel() for v in np.meshgrid(*2 * [np.linspace(-0.4, 0.4, 9)]))
    t, h = 0.95, 0.01
    tj = time_jet(mms_space_jet(x, y, t), model, depth=3,
                  source=MMSSource(model).jet(x, y, t, depth=3))
    ms = np.array([model.nonlinear_term(mms_state(x, y, t + k * h))
                   for k in range(-3, 4)])
    w1 = np.array([-1, 9, -45, 0, 45, -9, 1]) / (60.0 * h)
    w2 = np.array([2, -27, 270, -490, 270, -27, 2]) / (180.0 * h * h)
    w3 = np.array([1, -8, 13, 0, -13, 8, -1]) / (8.0 * h**3)
    for key, w in (("Mt", w1), ("Mtt", w2), ("Mttt", w3)):
        fd = np.tensordot(w, ms, axes=(0, 0))
        assert np.abs(tj[key] - fd).max() <= 3e-4 * np.abs(fd).max(), key


def test_time_jet_depth1_is_a_prefix():
    model = NLDModel()
    x = RNG.uniform(-1, 1, 20)
    y = RNG.uniform(-1, 1, 20)
    sj = mms_space_jet(x, y, 0.3)
    src = MMSSource(model)
    shallow = time_jet(
        sj, model, depth=1, source=src.jet(x, y, 0.3, depth=1)
    )
    deep = time_jet(sj, model, depth=3, source=src.jet(x, y, 0.3, depth=3))
    np.testing.assert_allclose(shallow["t"], deep["t"], atol=1e-14)
    np.testing.assert_allclose(shallow["Mt"], deep["Mt"], atol=1e-14)
    assert "tt" not in shallow


# --------------------------------------------------------------------------
# 1D branch against the closed-form standing wave

def _closed_form_wave(model, omega, x):
    """phi, chi of the 1D standing wave in closed form (any kappa)."""
    m, lam, kappa = model.m, model.lam, model.kappa
    beta = np.sqrt(m * m - omega * omega)
    s = (beta**2 / (lam * (m + omega * np.cosh(2 * kappa * beta * x)))) ** (
        1.0 / kappa
    )
    P = (m * s - lam * s ** (kappa + 1)) / omega
    phi = np.sqrt((P + s) / 2.0)
    chi = np.sign(x) * np.sqrt(np.maximum(P - s, 0.0) / 2.0)
    return phi, chi


@pytest.mark.parametrize("kappa,omega", [(1.0, 0.8), (2.0, 0.9)])
def test_time_jet_1d_standing_wave(kappa, omega):
    """At t=0 the wave's time jet is u_t = omega (0, chi, -phi, 0),
    u_tt = -omega^2 u, u_ttt = -omega^2 u_t; the spatial jet is generated
    by differentiating the profile ODE through the closed form."""
    model = NLDModel(kappa=kappa)
    x = np.linspace(0.25, 4.0, 60)  # stay off the chi kink at x = 0
    phi, chi = _closed_form_wave(model, omega, x)

    s = phi * phi - chi * chi
    g0, g1, g2, _ = model.g_jet(s, 3)
    dphi = -(g0 + omega) * chi
    dchi = (omega - g0) * phi
    ds = 2.0 * (phi * dphi - chi * dchi)
    dg = g1 * ds
    d2phi = -dg * chi - (g0 + omega) * dchi
    d2chi = -dg * phi + (omega - g0) * dphi
    d2s = 2.0 * (dphi**2 + phi * d2phi - dchi**2 - chi * d2chi)
    d2g = g2 * ds * ds + g1 * d2s
    d3phi = -d2g * chi - 2.0 * dg * dchi - (g0 + omega) * d2chi
    d3chi = -d2g * phi - 2.0 * dg * dphi + (omega - g0) * d2phi

    z = np.zeros_like(x)
    pack = lambda a, b: np.stack([a, z, z, b])
    jet = {
        "u": pack(phi, chi),
        "x": pack(dphi, dchi),
        "xx": pack(d2phi, d2chi),
        "xxx": pack(d3phi, d3chi),
    }
    tj = time_jet(jet, model, depth=3)
    w = omega
    np.testing.assert_allclose(
        tj["t"], np.stack([z, w * chi, -w * phi, z]), atol=1e-11
    )
    np.testing.assert_allclose(tj["tt"], -w * w * jet["u"], atol=1e-10)
    np.testing.assert_allclose(tj["ttt"], -w * w * tj["t"], atol=1e-9)


# --------------------------------------------------------------------------
# Taylor combination

def test_taylor_state_combination():
    model = NLDModel()
    x = RNG.uniform(-1, 1, 30)
    y = RNG.uniform(-1, 1, 30)
    t, tau = 0.6, 0.01
    sj = mms_space_jet(x, y, t)
    src = MMSSource(model).jet(x, y, t, depth=3)
    w, G = taylor_state(sj, model, tau, src)
    tj = time_jet(sj, model, depth=3, source=src)
    w_ref = (
        sj["u"]
        + tau / 2 * tj["t"]
        + tau**2 / 6 * tj["tt"]
        + tau**3 / 24 * tj["ttt"]
    )
    np.testing.assert_allclose(w, w_ref, atol=1e-15)
    G_ref = (
        tj["M"] + src["val"]
        + tau / 2 * (tj["Mt"] + src["t"])
        + tau**2 / 6 * (tj["Mtt"] + src["tt"])
        + tau**3 / 24 * (tj["Mttt"] + src["ttt"])
    )
    np.testing.assert_allclose(G, G_ref, atol=1e-15)


# --------------------------------------------------------------------------
# blocking, scalar-zero skipping and the early return change no bit

def _point_sets(dim, depth, forced):
    """(jet, source) pairs on a small mesh: the volume points and both
    sides of one (1D) or each (2D) edge family, from random coefficients."""
    rng = np.random.default_rng(11)
    if dim == 1:
        space = DGSpace1D(Grid1D(-1.0, 1.0, 13), 3)
        coeffs = 0.6 * rng.standard_normal(space.zeros().shape)
        sets = [space.volume_jet(coeffs, depth), *space.edge_jets(coeffs, "x", depth)]
        if not forced:
            return [(j, None) for j in sets]
        keys = ("val", "t") if depth == 1 else ("val", "t", "x", "xx", "tx", "tt")
        return [
            (j, {k: 0.3 * rng.standard_normal(j["u"].shape) for k in keys})
            for j in sets
        ]
    space = DGSpace2D(Grid2D(-1.0, 1.0, 13, -0.5, 0.5, 7), 2)
    coeffs = 0.6 * rng.standard_normal(space.zeros().shape)
    src = MMSSource(NLDModel()) if forced else None
    pairs = [(space.volume_jet(coeffs, depth),
              src.volume_jet(space, 0.7, depth) if forced else None)]
    # each edge side's (jet, source) pair as the cascade schemes advect it
    states = cascade_states(space, coeffs, 0.7, src, depth,
                            lambda jet, s: pairs.append((jet, s)) or jet["u"])
    for d in axes(space):
        states(d)
    return pairs


def _assert_jets_equal(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_blocked_time_jet_is_bit_identical(monkeypatch, dim, depth, forced, kappa):
    model = NLDModel(kappa=kappa)
    for jet, src in _point_sets(dim, depth, forced):
        whole = cascade._time_jet_block(jet, model, depth, src, True)
        # about 3 cells per block: the 13 cells split 3+3+3+4
        monkeypatch.setattr(cascade, "_BLOCK_POINTS", 3 * jet["u"][0, 0].size)
        _assert_jets_equal(time_jet(jet, model, depth=depth, source=src), whole)
        monkeypatch.undo()
        _assert_jets_equal(time_jet(jet, model, depth=depth, source=src), whole)


@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_time_jet_without_mttt(monkeypatch, dim, forced, kappa):
    model = NLDModel(kappa=kappa)
    monkeypatch.setattr(cascade, "_BLOCK_POINTS", 40)
    for jet, src in _point_sets(dim, 3, forced):
        full = time_jet(jet, model, depth=3, source=src)
        short = time_jet(jet, model, depth=3, source=src, mttt=False)
        assert sorted(short) == sorted(set(full) - {"Mttt"})
        assert {"t", "tt", "ttt"} <= set(short)  # the edge Taylor state's keys
        _assert_jets_equal(short, {k: full[k] for k in short})


class _ArrayZeroModel(NLDModel):
    """g_jet with every scalar 0.0 replaced by an array of zeros, so that
    the cascade takes its general formulas."""

    def g_jet(self, rho_val, depth=1):
        return tuple(
            np.zeros_like(rho_val) if np.ndim(g) == 0 and g == 0.0 else g
            for g in super().g_jet(rho_val, depth)
        )


@pytest.mark.parametrize("kappa", [1.0, 2.0])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_scalar_zero_skip_equals_general_formula(dim, forced, kappa):
    skip, general = NLDModel(kappa=kappa), _ArrayZeroModel(kappa=kappa)
    assert skip.g_jet(np.ones(3), 3)[3] == 0.0  # g''' comes back a scalar zero
    for jet, src in _point_sets(dim, 3, forced):
        _assert_jets_equal(
            time_jet(jet, skip, depth=3, source=src),
            time_jet(jet, general, depth=3, source=src),
        )
