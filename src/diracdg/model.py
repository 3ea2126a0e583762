"""Real-valued form of the nonlinear Dirac equation with scalar self-interaction.

The complex two-spinor system

    psi_t + sigma1 psi_x + sigma2 psi_y + i g(s) sigma3 psi = 0,
    s = psi^H sigma3 psi,     g(s) = m - (kappa + 1) * lam * s**kappa,

is rewritten for the real vector u = (Re psi1, Re psi2, Im psi1, Im psi2) as

    u_t = -alpha u_x - beta u_y + g(rho) gamma u,

where rho = u1^2 - u2^2 + u3^2 - u4^2 coincides with s, and alpha, beta,
gamma are the constant 4x4 matrices below.  alpha and beta are symmetric
with alpha^2 = beta^2 = I; gamma is antisymmetric with gamma^2 = -I, which
is what makes the nonlinear term charge-neutral (u . gamma u = 0 pointwise).

The default parameters m = 1, lam = 1/2, kappa = 1 give the cubic (Soler)
model with g(rho) = 1 - rho.  All solver modules work with the real form;
helpers at the bottom convert to/from complex spinors for diagnostics and
exact solutions.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

ALPHA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)

BETA = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)

GAMMA = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)

SIGMA3 = np.diag([1.0, -1.0, 1.0, -1.0])


def _row_pair(i, j):
    """Rows i and j (i != j) of a (4, ...) array as one strided slice."""
    stop = j + (1 if j > i else -1)
    return slice(i, stop if stop >= 0 else None, j - i)


def signed_rows(matrix):
    """A signed permutation matrix as two halves (rows of P u, rows of u,
    sign), each half two rows of one sign taken as a strided view.

    alpha, beta, gamma, sigma3 and their signed products all have an even
    number of rows of each sign, so two strided copies (or adds) apply
    them.  Permuting rows and flipping signs is exact, so the result has
    the bits of ``matrix @ u``."""
    perm = np.abs(matrix).argmax(axis=1)
    sign = matrix[np.arange(4), perm]
    rows = sorted(range(4), key=lambda i: -sign[i])  # the + rows first
    if sign[rows[0]] != sign[rows[1]] or sign[rows[2]] != sign[rows[3]]:
        raise ValueError(f"rows of odd sign count: {sign}")
    return tuple((_row_pair(a, b), _row_pair(perm[a], perm[b]), bool(sign[a] > 0))
                 for a, b in (rows[:2], rows[2:]))


def apply_rows(halves, u):
    """P u as a new array, P given by `signed_rows`."""
    out = np.empty_like(u)
    for rows, src, plus in halves:
        (np.positive if plus else np.negative)(u[src], out=out[rows])
    return out


def add_rows(out, halves, v):
    """out += P v in place, P given by `signed_rows`."""
    for rows, src, plus in halves:
        part = out[rows]
        (np.add if plus else np.subtract)(part, v[src], out=part)


_ALPHA_PERM = ALPHA.argmax(axis=1)  # alpha u as one gather of rows of u
if ALPHA.min() < 0.0:
    raise ValueError("alpha has a minus sign, so u[_ALPHA_PERM] is not alpha u")
_BETA_ROWS = signed_rows(BETA)
GAMMA_ROWS = signed_rows(GAMMA)


def apply_alpha(u):
    """alpha @ u along the leading component axis (u has shape (4, ...))."""
    return u[_ALPHA_PERM]


def apply_beta(u):
    return apply_rows(_BETA_ROWS, u)


def apply_gamma(u):
    return apply_rows(GAMMA_ROWS, u)


Flux = namedtuple("Flux", "matrix apply")

# The direction table: the matrix A_d of each space direction d in
# u_t + sum_d A_d u_d = g(rho) gamma u, and u -> A_d u without a matmul.
DIRECTIONS = {"x": Flux(ALPHA, apply_alpha), "y": Flux(BETA, apply_beta)}


def sigma3_pair(u, v):
    """Indefinite pairing <u, v> = u1 v1 - u2 v2 + u3 v3 - u4 v4.

    This is the real form of Re(psi^H sigma3 chi); rho(u) = sigma3_pair(u, u).
    """
    # By hand, not one einsum against sigma3 u as in the cascade: the einsum
    # form measured slower in whole rkdg steps, 1D and 2D.
    return u[0] * v[0] - u[1] * v[1] + u[2] * v[2] - u[3] * v[3]


def rho(u):
    return sigma3_pair(u, u)


def signed_power(base, exponent):
    """base**exponent that tolerates negative bases for integer exponents.

    The density rho changes sign freely during a simulation, so integer
    powers are taken by repeated multiplication.  A non-integer exponent
    with a negative base has no real branch and raises DomainError.
    Negative integer exponents clamp |base| at 1e-300 to avoid overflow.
    """
    base = np.asarray(base, dtype=float)
    k = float(exponent)
    if k.is_integer():
        k = int(k)
        if k >= 0:
            out = np.ones_like(base)
            for _ in range(k):
                out = out * base
            return out
        safe = np.where(np.abs(base) < 1e-300, np.copysign(1e-300, base), base)
        out = np.ones_like(base)
        for _ in range(-k):
            out = out / safe
        return out
    if np.any(base < 0.0):
        raise DomainError(
            f"rho**{exponent} has no real value for negative rho "
            "(non-integer exponent)"
        )
    return base**k


@dataclass(frozen=True)
class NLDModel:
    """Mass and self-interaction parameters; g(rho) = m - (kappa+1) lam rho^kappa."""

    m: float = 1.0
    lam: float = 0.5
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("m", "lam", "kappa"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ConfigError(f"model parameter {name} must be finite, got {val!r}")

    def g(self, rho_val):
        return self.g_jet(rho_val, 0)[0]

    def g_jet(self, rho_val, depth=1):
        """(g, g', g'', g''') w.r.t. rho, truncated to `depth` derivatives.

        Entries beyond `depth`, and derivatives whose leading coefficient
        vanishes (e.g. g'' for kappa = 1), are returned as the scalar 0.0 so
        callers can use them in expressions without branching.
        """
        k, lam = self.kappa, self.lam
        g0 = self.m - (k + 1.0) * lam * signed_power(rho_val, k)
        c1 = -(k + 1.0) * k * lam
        g1 = c1 * signed_power(rho_val, k - 1.0) if (depth >= 1 and c1 != 0.0) else 0.0
        c2 = c1 * (k - 1.0)
        g2 = c2 * signed_power(rho_val, k - 2.0) if (depth >= 2 and c2 != 0.0) else 0.0
        c3 = c2 * (k - 2.0)
        g3 = c3 * signed_power(rho_val, k - 3.0) if (depth >= 3 and c3 != 0.0) else 0.0
        return g0, g1, g2, g3

    def nonlinear_term(self, u):
        """M(u) = g(rho) gamma u, the zero-order term of the real system."""
        return self.g(rho(u)) * apply_gamma(u)


def complex_to_real(psi1, psi2):
    psi1 = np.asarray(psi1, dtype=complex)
    psi2 = np.asarray(psi2, dtype=complex)
    return np.stack([psi1.real, psi2.real, psi1.imag, psi2.imag])


def real_to_complex(u):
    return u[0] + 1j * u[2], u[1] + 1j * u[3]


def charge_density(u):
    """|psi1|^2 + |psi2|^2 = sum of squared real components."""
    return u[0] ** 2 + u[1] ** 2 + u[2] ** 2 + u[3] ** 2


def energy_density(u, ux, model, uy=None):
    """Conserved energy density in real variables.

    Equals Im(psi^H sigma1 psi_x) [+ Im(psi^H sigma2 psi_y)] + m s - lam
    s^(kappa+1) in complex variables; the quadratic terms below are that
    same expression spelled out for u = (Re psi1, Re psi2, Im psi1, Im psi2).
    """
    # Spelled out, not derived from the direction table: a derived form sums
    # in another order and would change the bits of the E column in history.
    den = u[0] * ux[3] - u[3] * ux[0] + u[1] * ux[2] - u[2] * ux[1]
    if uy is not None:
        den = den + u[1] * uy[0] - u[0] * uy[1] + u[3] * uy[2] - u[2] * uy[3]
    r = rho(u)
    return den + model.m * r - model.lam * signed_power(r, model.kappa + 1.0)
