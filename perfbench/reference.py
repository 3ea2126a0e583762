"""Reference solutions and error norms written apart from the package.

Every check of a run's output goes through this module: the closed-form
1D soliton for any power kappa with its Lorentz boost, the 2D manufactured
Gaussian, an independent certification and Chebyshev evaluation of a
collocated 2D profile, and an L2 norm that evaluates the DG solution from
its documented basis on its own Gauss rule.  Nothing here imports the
package, so a defect in the package's own exact-solution or quadrature
code cannot hide itself.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev, legendre

M, LAM = 1.0, 0.5  # the package defaults, used by every workload


def _basis_1d(X, h, q):
    """The package's documented orthogonal local basis, columns v0..vq."""
    one = np.ones_like(X)
    cols = [one, X, X * X - h * h / 12.0, X**3 - 0.15 * h * h * X]
    return np.stack(cols[: q + 1], axis=-1)


def _mass_1d(h):
    return np.array([h, h**3 / 12.0, h**5 / 180.0, h**7 / 2800.0])


def _orders_2d(q):
    return [(a, d - a) for d in range(q + 1) for a in range(d, -1, -1)]


def l2_error_1d(coeffs, xmin, xmax, q, exact):
    """L2 norm of u_h - exact on a (q+3)-point Gauss rule per cell."""
    nx = coeffs.shape[1]
    h = (xmax - xmin) / nx
    xi, wt = legendre.leggauss(q + 3)
    X = 0.5 * h * xi
    x = xmin + (np.arange(nx)[:, None] + 0.5) * h + X[None, :]
    uh = np.einsum("cjl,pl->cjp", coeffs, _basis_1d(X, h, q))
    diff = uh - exact(x)
    return float(np.sqrt(np.sum(diff**2 * (0.5 * h * wt))))


def _rule_2d(box, nx, ny, q):
    """Points, weights and basis table of a (q+2)^2 tensor Gauss rule."""
    xmin, xmax, ymin, ymax = box
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    xi, wt = legendre.leggauss(q + 2)
    X, Y = 0.5 * hx * xi, 0.5 * hy * xi
    a, b = np.array(_orders_2d(q)).T
    tx, ty = _basis_1d(X, hx, 3), _basis_1d(Y, hy, 3)
    tab = (tx[:, None, a] * ty[None, :, b]).reshape(-1, a.size)  # (npts, nloc)
    x = xmin + (np.arange(nx)[:, None, None, None] + 0.5) * hx + X[None, None, :, None]
    y = ymin + (np.arange(ny)[None, :, None, None] + 0.5) * hy + Y[None, None, None, :]
    w = np.outer(0.5 * hx * wt, 0.5 * hy * wt).ravel()
    return x, y, w, tab


def sample_2d(box, nx, ny, q, exact):
    """exact(x, y) -> (4, ...) on the points of the error rule."""
    x, y, _, _ = _rule_2d(box, nx, ny, q)
    return exact(x, y).reshape(4, nx, ny, -1)


def l2_error_2d(coeffs, box, q, exact_values):
    """L2 norm of u_h minus values sampled by `sample_2d` on the same mesh."""
    nx, ny = coeffs.shape[1:3]
    _, _, w, tab = _rule_2d(box, nx, ny, q)
    diff = coeffs @ tab.T - exact_values
    return float(np.sqrt(np.sum(diff**2 * w)))


def l2_distance_2d(c1, c2, box, q):
    """L2 norm of the difference of two DG fields (orthogonal basis)."""
    xmin, xmax, ymin, ymax = box
    nx, ny = c1.shape[1:3]
    mx, my = _mass_1d((xmax - xmin) / nx), _mass_1d((ymax - ymin) / ny)
    a, b = np.array(_orders_2d(q)).T
    return float(np.sqrt(np.sum((c1 - c2) ** 2 * (mx[a] * my[b]))))


def _boost(v):
    delta = 1.0 / np.sqrt(1.0 - v * v)
    return delta, np.sqrt((delta + 1.0) / 2.0), np.sqrt((delta - 1.0) / 2.0) * np.sign(v)


def _real(psi1, psi2):
    return np.stack([psi1.real, psi2.real, psi1.imag, psi2.imag])


def soliton_1d(omega, kappa, v, x0, t, x):
    """Boosted closed-form 1D soliton of g(s) = m - (kappa+1) lam s^kappa.

    With beta = sqrt(m^2 - omega^2):
        s   = [beta^2 / (lam (m + omega cosh(2 kappa beta x)))]^(1/kappa)
        P   = (m s - lam s^(kappa+1)) / omega
        phi = sqrt((P + s)/2),  chi = sign(x) sqrt((P - s)/2),
    and the standing wave (phi, i chi) e^{-i omega t} is boosted by v.
    """
    beta = np.sqrt(M * M - omega * omega)
    delta, a, b = _boost(v)
    xp = x - x0
    tt, xt = delta * (t - v * xp), delta * (xp - v * t)
    s = (beta**2 / (LAM * (M + omega * np.cosh(2.0 * kappa * beta * xt)))) ** (1.0 / kappa)
    P = (M * s - LAM * s ** (kappa + 1.0)) / omega
    phi = np.sqrt((P + s) / 2.0)
    chi = np.sign(xt) * np.sqrt(np.maximum(P - s, 0.0) / 2.0)
    car = np.exp(-1j * omega * tt)
    psi1, psi2 = phi * car, 1j * chi * car
    return _real(a * psi1 + b * psi2, b * psi1 + a * psi2)


def mms_field(x, y, t):
    """The manufactured field t^4 exp(-5 r^2) (1, 2, 0, 0)."""
    f = t**4 * np.exp(-5.0 * (x * x + y * y))
    z = np.zeros_like(f)
    return np.stack([f, 2.0 * f, z, z])


def _cheb_D(n):
    """Chebyshev-Gauss-Lobatto differentiation matrix (Trefethen, cheb.m)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    X = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (X + np.eye(n + 1))
    return D - np.diag(D.sum(axis=1)), x


class Profile2D:
    """A collocated S = 0 ground-state profile phi = p(r), chi = r w(r),
    given on r_j = R/2 (1 + cos(j pi / N)), certified and evaluated here."""

    def __init__(self, r, p, w, omega, kappa, R):
        self.r, self.p, self.w = r, p, w
        self.omega, self.kappa, self.R = omega, kappa, R
        n = r.size - 1
        # Chebyshev coefficients from node values (DCT-I)
        j = np.arange(n + 1)
        C = np.cos(np.pi * np.outer(j, j) / n) * (2.0 / n)
        C[:, 0] *= 0.5
        C[:, -1] *= 0.5
        C[0] *= 0.5
        C[-1] *= 0.5
        self._cp, self._cw = C @ p, C @ w

    def residual(self):
        """Max-norm residual of  2 w + r w' + (g - omega) p = 0,
        p' + (g + omega) r w = 0,  p(R) = w(R) = 0  on the nodes."""
        D, _ = _cheb_D(self.r.size - 1)
        Dr = (2.0 / self.R) * D
        r, p, w = self.r, self.p, self.w
        sh = p * p - r * r * w * w
        g = M - (self.kappa + 1.0) * LAM * sh**self.kappa
        F1 = 2.0 * w + r * (Dr @ w) + (g - self.omega) * p
        F2 = Dr @ p + (g + self.omega) * r * w
        F1[0], F2[0] = p[0], w[0]
        return float(max(np.abs(F1).max(), np.abs(F2).max()))

    def field(self, v, x0, y0, t, x, y):
        """Real-form field of the wave boosted by v along x."""
        delta, a, b = _boost(v)
        xp = x - x0
        tt, xt = delta * (t - v * xp), delta * (xp - v * t)
        yp = y - y0
        rr = np.hypot(xt, yp)
        inside = rr <= self.R
        xi = np.where(inside, 2.0 * rr / self.R - 1.0, 1.0)
        phi = np.where(inside, chebyshev.chebval(xi, self._cp), 0.0)
        chi = np.where(inside, rr * chebyshev.chebval(xi, self._cw), 0.0)
        car = np.exp(-1j * self.omega * tt)
        e1 = np.exp(1j * np.arctan2(yp, xt))
        psi1, psi2 = phi * car, 1j * chi * e1 * car
        return _real(a * psi1 + b * psi2, b * psi1 + a * psi2)
