"""Mesh/space layer: quadrature table, modal basis, projections, traces."""

import mpmath
import numpy as np
import pytest

from diracdg import pool
from diracdg.errors import InsufficientLevels, Unsupported
from diracdg.mesh import (
    DGSpace1D,
    DGSpace2D,
    Grid1D,
    Grid2D,
    basis_table,
    convergence_orders,
    gauss_rule,
    mass_diag,
    table_dot,
    tensor_orders,
)


# --------------------------------------------------------------------------
# quadrature

@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauss_rule_against_leggauss(n):
    xi, wt = gauss_rule(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(xi, xr, atol=2e-16)
    np.testing.assert_allclose(wt, wr, atol=2e-16)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauss_rule_against_mpmath(n):
    """Second, independent oracle: refine the Legendre roots with mpmath."""
    mpmath.mp.dps = 40
    xi, wt = gauss_rule(n)
    for x, w in zip(xi, wt):
        root = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(x))
        dP = mpmath.diff(lambda t: mpmath.legendre(n, t), root)
        wref = 2 / ((1 - root**2) * dP**2)
        assert abs(x - float(root)) < 1e-16
        assert abs(w - float(wref)) < 1e-16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauss_rule_exactness(n):
    xi, wt = gauss_rule(n)
    for deg in range(2 * n):
        exact = (1 - (-1) ** (deg + 1)) / (deg + 1)  # int_-1^1 x^deg
        assert np.sum(wt * xi**deg) == pytest.approx(exact, abs=5e-15)


def test_gauss_rule_unsupported():
    with pytest.raises(Unsupported):
        gauss_rule(5)
    with pytest.raises(Unsupported):
        DGSpace1D(Grid1D(0, 1, 4), 4)


# --------------------------------------------------------------------------
# modal basis

def test_mass_diag_values():
    h = 0.37
    np.testing.assert_allclose(
        mass_diag(h, 3),
        [h, h**3 / 12, h**5 / 180, h**7 / 2800],
        rtol=1e-15,
    )


@pytest.mark.parametrize("q", [1, 2, 3])
def test_basis_orthogonality(q):
    # Gauss rule with q+1 points integrates products (degree <= 2q) exactly
    h = 0.8
    xi, wt = gauss_rule(q + 1)
    X = 0.5 * h * xi
    tab = basis_table(X, h, q, 0)  # (nq, q+1)
    gram = np.einsum("k,kl,km->lm", 0.5 * h * wt, tab, tab)
    np.testing.assert_allclose(gram, np.diag(mass_diag(h, q)), atol=1e-16)


def test_trace_constants():
    # X^2 - h^2/12 at +-h/2 equals h^2/6 on both ends;
    # X^3 - (3h^2/20) X at +-h/2 equals +-(h^3/8 - 3h^3/40) = +-h^3/20
    h = 0.5
    ends = np.array([-h / 2, h / 2])
    tab = basis_table(ends, h, 3, 0)
    np.testing.assert_allclose(tab[:, 2], [h * h / 6, h * h / 6], rtol=1e-15)
    np.testing.assert_allclose(tab[:, 3], [-(h**3) / 20, h**3 / 20], rtol=1e-15)


def test_basis_derivative_tables():
    h, q = 0.61, 3
    X = np.linspace(-h / 2, h / 2, 7)
    t0 = basis_table(X, h, q, 0)
    t1 = basis_table(X, h, q, 1)
    # analytic derivatives: d/dX [1, X, X^2-c, X^3-dX] = [0, 1, 2X, 3X^2-d]
    np.testing.assert_allclose(t1[:, 0], 0.0, atol=0)
    np.testing.assert_allclose(t1[:, 1], 1.0, atol=0)
    np.testing.assert_allclose(t1[:, 2], 2 * X, rtol=1e-15)
    np.testing.assert_allclose(t1[:, 3], 3 * X**2 - 0.15 * h * h, rtol=1e-14)
    assert t0.shape == (7, 4)


def test_tensor_orders_graded():
    orders = tensor_orders(3, 2)
    assert orders[:3] == [(0, 0), (1, 0), (0, 1)]
    assert len(orders) == 10
    degs = [a + b for a, b in orders]
    assert degs == sorted(degs)
    # one rule for any number of axes: a 1D cell is the one-axis case
    assert tensor_orders(3, 1) == [(0,), (1,), (2,), (3,)]


def test_table_dot_matches_einsum():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((4, 6, 5, 9))
    tab = rng.standard_normal((9, 7))
    np.testing.assert_allclose(
        table_dot(vals, tab), np.einsum("...k,kl->...l", vals, tab), atol=1e-13
    )


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_table_dot_row_halves_equal_one_matmul(monkeypatch, layout):
    """On the pool, an odd number of rows split in two halves of one result
    gives the bits of one matmul, for a transposed table as the spaces use
    and for values that are a strided view."""
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((3, 6, 5, 9))
    vals = vals[:, 1:] if layout == "strided" else vals[:, :5].copy()  # 75 rows
    tab = rng.standard_normal((7, 9)).T
    serial = table_dot(vals, tab)
    monkeypatch.setattr(pool, "MIN_ELEMENTS", 0)
    assert table_dot(vals, tab).tobytes() == serial.tobytes()


# --------------------------------------------------------------------------
# 1D space

@pytest.mark.parametrize("q", [1, 2, 3])
def test_projection_reproduces_polynomials(q):
    sp = DGSpace1D(Grid1D(-1.0, 2.0, 7), q)

    def f(x):
        base = sum((0.3 + 0.1 * d) * x**d for d in range(q + 1))
        return np.stack([base, 2 * base, -base, 0.5 * base])

    c = sp.project(f)
    np.testing.assert_allclose(sp.eval(c), f(*sp.points), rtol=1e-12, atol=1e-13)
    # derivative evaluation matches the analytic derivative
    if q >= 2:
        def fprime(x):
            base = sum(
                d * (0.3 + 0.1 * d) * x ** (d - 1) for d in range(1, q + 1)
            )
            return np.stack([base, 2 * base, -base, 0.5 * base])

        np.testing.assert_allclose(
            sp.eval(c, order=1), fprime(*sp.points), rtol=1e-11, atol=1e-11
        )


def test_traces_consistent_with_point_values():
    sp = DGSpace1D(Grid1D(0.0, 1.0, 5), 2)
    c = sp.project(lambda x: np.stack([np.sin(x), x, x**2, 0 * x]))
    lo, hi = sp.edge_values(c, "x")
    # evaluate just inside each cell's ends
    faces = np.linspace(0.0, 1.0, 6)
    left_pts = sp.point_values(c, faces[:-1] + 1e-12)
    np.testing.assert_allclose(lo, left_pts, atol=1e-9)


def test_integrate_constant():
    sp = DGSpace1D(Grid1D(-2.0, 3.0, 9), 3)
    ones = np.ones((4, 9, sp.nq))
    assert sp.integrate(ones[0]) == pytest.approx(5.0, rel=1e-14)


def test_projection_error_decays_off_quadrature():
    # the quadrature projection interpolates at the Gauss nodes, so the
    # error has to be probed at other points; it decays at q+1 there
    errs = []
    xs = np.linspace(-np.pi, np.pi, 2001)[1:-1]
    for nx in (8, 16, 32):
        sp = DGSpace1D(Grid1D(-np.pi, np.pi, nx), 2)
        f = lambda x: np.stack([np.sin(x), np.cos(x), 0 * x, 0 * x])
        dev = sp.point_values(sp.project(f), xs) - f(xs)
        errs.append(np.abs(dev).max())
    orders = convergence_orders(errs, (8, 16, 32))
    assert orders.min() > 2.8


def test_l2_error_vanishes_on_projection_samples():
    # same-points sampling makes the projected field exact at the nodes --
    # documents why error tables only mean something for evolved fields
    sp = DGSpace1D(Grid1D(-np.pi, np.pi, 8), 2)
    f = lambda x: np.stack([np.sin(x), np.cos(x), 0 * x, 0 * x])
    assert sp.error_norms(sp.project(f), f)[0] < 1e-14


# --------------------------------------------------------------------------
# 2D space

def test_2d_projection_exactness():
    sp = DGSpace2D(Grid2D(-1, 1, 4, -2, 0, 5), 2)

    def f(x, y):
        base = 1.0 + 0.5 * x - y + 0.25 * x * y + 0.1 * x * x - 0.2 * y * y
        z = np.broadcast_to(base, np.broadcast_shapes(x.shape, y.shape))
        return np.stack([z, 2 * z, 0 * z, -z])

    c = sp.project(f)
    vals = sp.eval(c)
    X = np.broadcast_to(sp.points[0], vals.shape[1:])
    Y = np.broadcast_to(sp.points[1], vals.shape[1:])
    np.testing.assert_allclose(vals, f(X, Y), rtol=1e-12, atol=1e-13)


def test_2d_derivative_eval():
    sp = DGSpace2D(Grid2D(0, 1, 3, 0, 1, 3), 3)

    def f(x, y):
        z = x**2 * y + 0 * y
        return np.stack([z, z, z, z])

    c = sp.project(f)
    dx = sp.eval(c, 1, 0)
    dxy = sp.eval(c, 1, 1)
    X = np.broadcast_to(sp.points[0], dx.shape[1:])
    Y = np.broadcast_to(sp.points[1], dx.shape[1:])
    np.testing.assert_allclose(dx[0], 2 * X * Y, atol=1e-12)
    np.testing.assert_allclose(dxy[0], 2 * X, atol=1e-12)


def test_2d_edge_values_continuity_of_smooth_projection():
    sp = DGSpace2D(Grid2D(-1, 1, 6, -1, 1, 6), 2)

    def f(x, y):
        z = (1 + x) * (1 - y) * 0.5 + 0 * x * y
        return np.stack([z, z, z, z])

    c = sp.project(f)  # bilinear: representable exactly
    lo, hi = sp.edge_values(c, "x")
    np.testing.assert_allclose(lo[:, 1:], hi[:, :-1], atol=1e-13)
    lo, hi = sp.edge_values(c, "y")
    np.testing.assert_allclose(lo[:, :, 1:], hi[:, :, :-1], atol=1e-13)


def test_2d_point_values_match_eval():
    rng = np.random.default_rng(11)
    sp = DGSpace2D(Grid2D(-1, 1, 5, -1, 1, 4), 2)
    c = rng.standard_normal((4, 5, 4, sp.nloc))
    # probe a quadrature point of cell (2, 1)
    k = 3
    x = sp.points[0][2, 0, k]
    y = sp.points[1][0, 1, k]
    pv = sp.point_values(c, x, y)
    ev = sp.eval(c)[:, 2, 1, k]
    np.testing.assert_allclose(pv[:, 0], ev, rtol=1e-12, atol=1e-14)


def test_2d_integrate():
    sp = DGSpace2D(Grid2D(0, 2, 4, 0, 3, 5), 1)
    assert sp.integrate(np.ones((4, 5, sp.nq))) == pytest.approx(6.0)


def test_convergence_orders_guard():
    with pytest.raises(InsufficientLevels):
        convergence_orders([1.0], [10])
    np.testing.assert_allclose(convergence_orders([4.0, 1.0], [10, 20]), [2.0])
    # the order is measured against the ratio of the levels, whatever it is
    np.testing.assert_allclose(convergence_orders([27.0, 1.0], [30, 90]), [3.0])
    np.testing.assert_allclose(convergence_orders([1.0, 8.0], [60, 30]), [3.0])
