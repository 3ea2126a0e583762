"""Solitary-wave profiles, Lorentz boosts, and a manufactured solution.

Standing waves are sought in the separated form

    psi = ( phi(r) e^{i S theta},  i chi(r) e^{i (S+1) theta} ) e^{-i omega t}

(in 1D the angular factors disappear, phi is even and chi odd), which
reduces the PDE to the radial system

    chi' + (S+1)/r chi + (g(sh) - omega) phi = 0
    phi' -  S   /r phi + (g(sh) + omega) chi = 0,     sh = phi^2 - chi^2.

Writing phi = r^S p and chi = r^{S+1} w removes every 1/r:

    c w + r w' + (g - omega) p = 0,      c = 1 (1D) or 2(S+1) (2D)
    p'         + (g + omega) r w = 0,

which is regular on the whole interval [0, R] and is collocated on
Chebyshev-Gauss-Lobatto nodes; at r = R two rows enforce the decay
conditions p = w = 0, and at r = 0 the second equation collapses to the
symmetry condition p'(0) = 0 by itself.

In 1D the system has a closed form for every kappa > 0 and lam > 0 (Lee,
Kuo and Gavrielides, Phys. Rev. D 12, 1975, for kappa = 1; Cooper, Khare,
Mihaila and Saxena, Phys. Rev. E 82, 036604, 2010, for any kappa): with
beta = sqrt(m^2 - omega^2) and D = m + omega cosh(2 kappa beta r),

    sh  = [beta^2 / (lam D)]^(1/kappa),
    phi = sqrt(sh (m + omega) / D) cosh(kappa beta r),
    chi = sqrt(sh (m - omega) / D) sinh(kappa beta r),

and a 1D profile is that form on the nodes, with D scaled by
2 exp(-2 kappa beta r) so that no factor overflows at any r.  Its stored
residual is the collocated system's at those values: differentiation
error on the interior rows, and on the two decay rows phi(R) and chi(R)/R,
the truncation at R.

In 2D the nonlinear system is solved by a damped Newton iteration, with
continuation in omega from a shallow anchor wave when a direct solve
stalls.  A step is halved (`_DAMPING`) until its max|delta| falls below
`_FULL_STEP` = 0.1, and taken whole from there on; an attempt whose max|p|
is not <= `_DIVERGED` = 1e3 (NaN included) ends at once as diverged, and
the overflow that leads there raises no numpy warning: the attempt's
`NoConvergence` is the one report.  Each iteration is one dense solve of
order 2 (N + 1), whose rounding depends on the BLAS thread count, so the
solve first applies the policy of `diracdg.heap` (one BLAS thread), as a
run does: a profile solved alone has the run's bits (so does a 1D
profile's residual, a product with the dense differentiation matrix).
At omega = 0.8 the cubic wave takes 7 of them and the quintic wave at
omega = 0.94 takes 89, through continuation.  A non-integer kappa is
refused: an iterate's density goes negative, where rho^kappa has no real
value.  Profiles decay like exp(-sqrt(m^2-omega^2) r).

The collocated p and w are a Chebyshev series in s = 2 r / R - 1.  Each
profile converts its node values to series coefficients once (a DCT-I),
and every field evaluation sums both series together with Clenshaw's
recurrence: O(N) per point with no division, in blocks of points that go
through `diracdg.pool` on a large point set.

The bottom of the module provides the forced manufactured solution of the
2D accuracy studies, psi = (c1, c2) phi with phi = t^4 exp(-5(x^2+y^2)),
together with the derivative jet of its source term that the one-step
schemes consume.  Its nonlinear part is closed form: the density is
(c1^2 - c2^2) phi^2, so for an integer kappa >= 0 the term g(rho) phi is
m phi + c_p phi^p with p = 2 kappa + 1, and phi^p = t^(4p) exp(-5p(x^2+y^2))
is again a power of t times a Gaussian, whose every derivative is a falling
factorial in t times Hermite-type polynomials in x and y.  `mms_state` and
`mms_space_jet` are that closed form; `MMSSource.jet`, the one entry to the
forcing, weighs one block of such factors per group of source keys.  All three
are pinned against a general d_x^a d_y^b d_t^c phi^p kept apart from this
module, the power-jet reference in tests/test_waves.py.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import pool
from .errors import ConfigError, DomainError, NoConvergence, read_text
from .heap import keep_freed_heap_mapped
from .mesh import _jet_keys
from .model import DIRECTIONS, GAMMA, NLDModel, complex_to_real


# ---------------------------------------------------------------------------
# Chebyshev collocation utilities

def cheb_nodes_matrix(n: int):
    """Gauss-Lobatto nodes xi_j = cos(j pi / n) (decreasing) and the
    dense differentiation matrix on them."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


def _cheb_coeffs(vals):
    """Chebyshev coefficients of the interpolants through the rows of
    `vals`, sampled on the Gauss-Lobatto nodes cos(j pi / N): a DCT-I,
    done as the real FFT of the even extension of each row."""
    n = vals.shape[-1] - 1
    ext = np.concatenate([vals, vals[..., -2:0:-1]], axis=-1)
    c = np.fft.rfft(ext, axis=-1).real / n
    c[..., 0] *= 0.5
    c[..., -1] *= 0.5
    return c


# points per block of the Clenshaw sum, which bounds its buffers and is the
# unit of work on the pool: with 8192-point blocks the pooled sum over a
# 200^2 P2 point set was no faster than the serial one (2-core host)
_CHUNK = 16384


def _clenshaw(coef, s):
    """Sum the Chebyshev series of every row of `coef` at s in [-1, 1] by
    Clenshaw's recurrence; returns shape (rows,) + s.shape.

    The points go in blocks of `_CHUNK`, each summed on its own buffers; the
    blocks go through `diracdg.pool` when the result is `pool.large` (a 200^2
    P2 point set, no 1D set).  Each point's recurrence is the same in every
    block layout, so the pooled sum equals the serial one bit for bit."""
    sf = np.asarray(s, dtype=float).ravel()
    rows, n1 = coef.shape
    out = np.empty((rows, sf.size))

    def block(lo):
        x = sf[lo : lo + _CHUNK]
        x2 = np.repeat(2.0 * x[None], rows, axis=0)  # (rows, block): no broadcast
        b1 = np.zeros_like(x2)
        b2 = np.zeros_like(x2)
        t = np.empty_like(x2)
        for k in range(n1 - 1, 0, -1):
            # b_k = c_k + 2 s b_{k+1} - b_{k+2}, in place on three buffers
            np.multiply(x2, b1, out=t)
            t -= b2
            t += coef[:, k, None]
            b1, b2, t = t, b1, b2
        out[:, lo : lo + _CHUNK] = coef[:, :1] + x * b1 - b2

    list((pool.map if pool.large(out) else map)(block, range(0, sf.size, _CHUNK)))
    return out.reshape((rows,) + np.shape(s))


# ---------------------------------------------------------------------------
# Newton solve of the collocated radial system

# Newton's damped step size, the largest max|delta| it takes as a full step,
# the max|p| past which an attempt has diverged, its stopping step size and
# its iteration limit
_DAMPING = 0.5
_FULL_STEP = 0.1
_DIVERGED = 1e3
_NEWTON_TOL = 1e-12
_MAX_ITER = 200


def _collocation(N: int, R: float, dim: int, S: int):
    """Nodes r on [0, R] (r[0] = R, r[-1] = 0), d/dr on them, and the
    coefficient c of the radial system."""
    D, xi = cheb_nodes_matrix(N)
    return 0.5 * R * (1.0 + xi), (2.0 / R) * D, 1.0 if dim == 1 else 2.0 * (S + 1)


def _radial_system(p, w, r, Dr, cc, omega, model, S, want_jacobian):
    n = r.size
    r2s = r ** (2 * S)
    sh = r2s * p * p - r2s * r * r * w * w
    g0, g1, _, _ = model.g_jet(sh, 1 if want_jacobian else 0)
    F1 = cc * w + r * (Dr @ w) + (g0 - omega) * p
    F2 = (Dr @ p) + (g0 + omega) * r * w
    F1[0] = p[0]
    F2[0] = w[0]
    F = np.concatenate([F1, F2])
    if not want_jacobian:
        return F, None
    dgdp = 2.0 * r2s * p * g1
    dgdw = -2.0 * r2s * r * r * w * g1
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = np.diag(g0 - omega + p * dgdp)
    J[:n, n:] = cc * np.eye(n) + r[:, None] * Dr + np.diag(p * dgdw)
    J[n:, :n] = Dr + np.diag(r * w * dgdp)
    J[n:, n:] = np.diag((g0 + omega) * r + r * w * dgdw)
    J[0, :] = 0.0
    J[0, 0] = 1.0
    J[n, :] = 0.0
    J[n, n] = 1.0
    return F, J


def _newton_profile(p, w, r, Dr, cc, omega, model, S):
    n = r.size
    for it in range(1, _MAX_ITER + 1):
        F, J = _radial_system(p, w, r, Dr, cc, omega, model, S, True)
        delta = np.linalg.solve(J, -F)
        # full steps once max|delta| < _FULL_STEP: the damping only tames the
        # far-from-solution updates of deep waves, and a step of 0.5 near a
        # root halves each iteration's gain (released only below 1e-3, the
        # 2D waves of the module docstring took 12 and 206 solves)
        step = 1.0 if np.max(np.abs(delta)) < _FULL_STEP else _DAMPING
        p = p + step * delta[:n]
        w = w + step * delta[n:]
        if not np.max(np.abs(p)) <= _DIVERGED:  # also stops a NaN iterate
            raise NoConvergence(it, float(np.max(np.abs(F))))
        if step * np.max(np.abs(delta)) <= _NEWTON_TOL:
            break
    else:
        raise NoConvergence(_MAX_ITER, float(np.max(np.abs(F))))
    F, _ = _radial_system(p, w, r, Dr, cc, omega, model, S, False)
    res = float(np.max(np.abs(F)))
    if res > 1e-10:
        raise NoConvergence(it, res)
    if np.max(np.abs(r**S * p)) <= 1e-6:
        raise NoConvergence(it, res, "the solve collapsed onto the trivial "
                                     "solution phi = 0")
    return p, w


@dataclass
class WaveProfile:
    """Collocated standing-wave profile phi = r^S p, chi = r^{S+1} w.

    p and w hold the values on the nodes r (r[0] = R, r[-1] = 0).  The
    Chebyshev coefficients of both are computed once, at construction, and
    `phi_chi` sums them by Clenshaw's recurrence.
    """

    dim: int
    S: int
    omega: float
    model: NLDModel
    R: float
    N: int
    r: np.ndarray
    p: np.ndarray
    w: np.ndarray
    residual: float
    _coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the nodes are r = R (1 + xi) / 2, so the series variable is
        # s = 2 r / R - 1 and r[0] = R sits at xi = 1
        self._coef = _cheb_coeffs(np.stack([self.p, self.w]))

    def phi_chi(self, rq):
        """(phi, chi) at radii rq from one pass over both series; zero
        outside [0, R]."""
        rq = np.asarray(rq, dtype=float)
        ok = (rq <= self.R) & (rq >= 0.0)
        rs = np.where(ok, rq, 0.0)
        p, w = _clenshaw(self._coef, 2.0 * rs / self.R - 1.0)
        return (np.where(ok, p * rs**self.S, 0.0),
                np.where(ok, w * rs ** (self.S + 1), 0.0))

    def phi(self, rq):
        return self.phi_chi(rq)[0]

    @property
    def decay_exponent(self) -> float:
        return float(np.sqrt(self.model.m**2 - self.omega**2))


# largest |Chebyshev coefficient| of p and w over the last tenth of the series,
# relative to the largest: every profile the presets solve stays below 1e-6
_TAIL_TOL = 1e-5


def _continuation_ladder(omega: float, anchor: float):
    step = -0.1 if omega < anchor else 0.1
    return list(np.arange(anchor, omega, step)) + [omega]


def _closed_form_1d(r, omega: float, model: NLDModel):
    """p = phi and w = chi / r of the 1D wave at r >= 0 (module docstring),
    through E = 2 q D with q = exp(-2 kappa beta r) in [0, 1]:
    cosh(kappa beta r) / sqrt(D) = (1 + q) / sqrt(2 E), and
    sinh(kappa beta r) / (r sqrt(D)) = -expm1(-2 kappa beta r) / (r sqrt(2 E)),
    whose limit at r = 0 is kappa beta / sqrt(D)."""
    m, kappa = model.m, model.kappa
    beta = np.sqrt(m**2 - omega**2)
    a = 2.0 * kappa * beta * r
    q = np.exp(-a)
    E = omega * (1.0 + q * q) + 2.0 * m * q
    sh = (2.0 * beta**2 * q / (model.lam * E)) ** (1.0 / kappa)
    sinh_r = np.divide(-np.expm1(-a), r, out=np.full_like(r, 2.0 * kappa * beta),
                       where=r > 0.0)
    return ((1.0 + q) * np.sqrt(sh * (m + omega) / (2.0 * E)),
            sinh_r * np.sqrt(sh * (m - omega) / (2.0 * E)))


def _newton_2d(r, Dr, cc, omega: float, model: NLDModel, S: int):
    """p and w of the 2D wave: Newton from a short list of seeds."""
    # the 2D ground state sits well above the 1D sech scale, and a too-small
    # seed makes Newton collapse onto the trivial solution, so a short list
    # of seed amplitudes is tried, first at omega itself and then with
    # continuation from the shallow anchor wave omega = 0.8; a huge R
    # overflows the seed and the first iterate, and the non-finite stop then
    # ends the attempt, which says so once, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for anchor, fac in itertools.product((omega, 0.8), (1.8, 1.3, 2.5)):
            b = np.sqrt(model.m**2 - anchor**2)
            p, w = fac * np.sqrt(model.m - anchor) / np.cosh(b * r), np.zeros_like(r)
            try:
                for om in _continuation_ladder(omega, anchor):
                    p, w = _newton_profile(p, w, r, Dr, cc, om, model, S)
                return p, w
            except NoConvergence as exc:
                failure = exc.with_traceback(None)  # frees the attempt's Jacobian
    raise failure


def solve_standing_wave(
    omega: float,
    dim: int = 1,
    S: int = 0,
    model: NLDModel | None = None,
    R: float | None = None,
    N: int = 256,
) -> WaveProfile:
    """The profile on N + 1 Chebyshev nodes of [0, R]: the closed form in 1D,
    Newton on the collocated system in 2D (module docstring)."""
    model = model or NLDModel()
    if not 0.0 < omega < model.m:
        raise ConfigError(f"no localised wave for omega={omega} (need 0 < omega < m)")
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}")
    if dim == 1 and S != 0:
        raise ConfigError("angular index S only applies in 2D")
    kappa = float(model.kappa)
    for bad, msg in ((S < 0, f"angular index S must be >= 0, got {S}"),
                     (N < 2, f"need N >= 2 collocation nodes, got {N}"),
                     (R is not None and not 0.0 < R < np.inf,
                      f"radius R must be > 0 and finite, got {R}"),
                     (dim == 1 and not model.lam > 0.0,
                      f"a localised 1D wave needs lam > 0, got lam = {model.lam}"),
                     (dim == 1 and not kappa > 0.0,
                      f"a localised 1D wave needs kappa > 0, got kappa = {kappa}"),
                     (dim == 2 and not kappa.is_integer(),
                      f"the 2D wave solve needs an integer kappa, got kappa = {kappa}: "
                      f"its iterates' density goes negative, where rho**kappa has "
                      f"no real value")):
        if bad:
            raise ConfigError(msg)
    R = float(R) if R is not None else (40.0 if dim == 1 else 30.0)
    keep_freed_heap_mapped()  # one BLAS thread: a run's rounding (module docstring)
    r, Dr, cc = _collocation(N, R, dim, S)
    if dim == 1:
        with np.errstate(over="ignore"):  # a tiny kappa: sh^(1/kappa) leaves the doubles
            p, w = _closed_form_1d(r, omega, model)
        if not 0.0 < p[-1] < np.inf:
            raise ConfigError(f"the 1D wave at lam = {model.lam}, kappa = {kappa} has "
                              f"phi(0) = {p[-1]}, not a positive finite double")
    else:
        p, w = _newton_2d(r, Dr, cc, omega, model, S)
    prof = WaveProfile(dim, S, float(omega), model, R, N, r, p, w, math.nan)
    # the collocated residual is small at any N; the series' tail shows
    # whether N nodes resolve the profile on [0, R]
    c = np.abs(prof._coef)
    tail = c[:, -((N + 10) // 10):].max() / c.max()  # last tenth of N+1 terms
    if tail > _TAIL_TOL:
        raise ConfigError(f"N = {N} nodes do not resolve the profile on "
                          f"[0, R = {R:g}]: Chebyshev tail {tail:.1e} > {_TAIL_TOL:g}")
    # r^2 is finite once R has passed the tail check
    F, _ = _radial_system(p, w, r, Dr, cc, omega, model, S, False)
    prof.residual = float(np.max(np.abs(F)))
    return prof


def wave_ode_residual(profile: WaveProfile) -> float:
    """Max-norm residual of the collocated radial system, recomputed."""
    _, Dr, cc = _collocation(profile.N, profile.R, profile.dim, profile.S)
    F, _ = _radial_system(
        profile.p, profile.w, profile.r, Dr, cc, profile.omega,
        profile.model, profile.S, False,
    )
    return float(np.max(np.abs(F)))


# ---------------------------------------------------------------------------
# Field evaluation: standing/travelling states and superpositions

def wave_state(profile: WaveProfile, t, x, y=None, v: float = 0.0,
               x0: float = 0.0, y0: float = 0.0):
    """Complex spinor (psi1, psi2) of the (boosted) wave at time t.

    v boosts along x; the profile is evaluated in the comoving frame
    (t~, x~) = (delta (t - v x'), delta (x' - v t)) with x' = x - x0, and
    the spinor components mix through

        B = [[a, s b], [s b, a]],  a = sqrt((delta+1)/2),
        b = sqrt((delta-1)/2),     s = sign(v),  delta = 1/sqrt(1-v^2).
    """
    if abs(v) >= 1.0:
        raise ConfigError(f"|boost velocity| must be < 1, got {v}")
    delta = 1.0 / np.sqrt(1.0 - v * v)
    xp = np.asarray(x, dtype=float) - x0
    tt = delta * (t - v * xp)
    xt = delta * (xp - v * t)
    if profile.dim == 1:
        if y is not None:
            raise ConfigError("1D profile evaluated with a y argument")
        ph, ch = profile.phi_chi(np.abs(xt))
        ch = np.sign(xt) * ch
        ang1 = np.exp(-1j * profile.omega * tt)
        psi1 = ph * ang1
        psi2 = 1j * ch * ang1
    else:
        yp = np.asarray(y, dtype=float) - y0
        rr = np.hypot(xt, yp)
        th = np.arctan2(yp, xt)
        S = profile.S
        car = np.exp(-1j * profile.omega * tt)
        ph, ch = profile.phi_chi(rr)
        psi1 = ph * np.exp(1j * S * th) * car
        psi2 = 1j * ch * np.exp(1j * (S + 1) * th) * car
    a = np.sqrt((delta + 1.0) / 2.0)
    b = np.sqrt((delta - 1.0) / 2.0) * np.sign(v)
    return a * psi1 + b * psi2, b * psi1 + a * psi2


def superposed_state(specs, t, x, y=None):
    """Sum of boosted waves; specs is a list of dicts with keys
    profile, v, x0 (and y0 in 2D)."""
    psi1 = 0.0
    psi2 = 0.0
    for sp in specs:
        p1, p2 = wave_state(
            sp["profile"], t, x, y,
            v=sp.get("v", 0.0), x0=sp.get("x0", 0.0), y0=sp.get("y0", 0.0),
        )
        psi1 = psi1 + p1
        psi2 = psi2 + p2
    return psi1, psi2


def superposed_real(specs, t, x, y=None):
    return complex_to_real(*superposed_state(specs, t, x, y))


_CHARGE_NODES = 4000  # trapezoid nodes of profile_charge
_DECAY_BAND = (0.5, 0.8, 200)  # decay_rate fits phi at 200 points of [0.5 R, 0.8 R]


def profile_charge(profile: WaveProfile) -> float:
    """Total charge of the unboosted wave (trapezoid on a fine radial grid)."""
    r = np.linspace(0.0, profile.R, _CHARGE_NODES)
    ph, ch = profile.phi_chi(r)
    dens = ph**2 + ch**2
    if profile.dim == 1:
        return 2.0 * float(np.trapezoid(dens, r))
    return 2.0 * np.pi * float(np.trapezoid(dens * r, r))


def decay_rate(profile: WaveProfile) -> float:
    """Fitted exponential rate of phi; the r^{-(d-1)/2} amplitude factor is
    removed so the fit matches sqrt(m^2 - omega^2) in every dimension."""
    lo, hi, n = _DECAY_BAND
    r = np.linspace(lo * profile.R, hi * profile.R, n)
    vals = np.abs(profile.phi(r)) * r ** ((profile.dim - 1) / 2.0)
    good = vals > 0.0
    slope = np.polyfit(r[good], np.log(vals[good]), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# Profile cache files

_PROFILE_KEYS = ("omega", "S", "kappa", "lam", "m", "R", "N", "dim", "residual")
_PROFILE_COLUMNS = "columns: r p w"


def save_profile(path, profile: WaveProfile):
    meta = {**vars(profile), **vars(profile.model)}
    # str of a float is its shortest round-trip repr, so a reload is exact
    hdr = ["nonlinear Dirac standing-wave profile",
           *(f"{key} = {meta[key]}" for key in _PROFILE_KEYS), _PROFILE_COLUMNS]
    # p and w themselves, not phi = r^S p and chi = r^{S+1} w: a reload is exact
    np.savetxt(path, np.column_stack([profile.r, profile.p, profile.w]),
               fmt="%.18e", header="\n".join(hdr))


def load_profile(path) -> WaveProfile:
    lines = read_text(path, "profile file").splitlines()
    header = [ln.lstrip()[1:].strip() for ln in lines if ln.lstrip().startswith("#")]
    if _PROFILE_COLUMNS not in header:
        raise ConfigError(f"profile file {path} is not in the '{_PROFILE_COLUMNS}' "
                          f"format; a file of r phi chi must be written again")
    pairs = [ln.split("=", 1) for ln in header if "=" in ln]
    meta = {key.strip(): val.strip() for key, val in pairs}
    for key in _PROFILE_KEYS:
        if key not in meta:
            raise ConfigError(f"profile file {path} has no {key!r} header line")
    r, p, w = np.loadtxt(lines, ndmin=2, unpack=True)
    model = NLDModel(m=float(meta["m"]), lam=float(meta["lam"]),
                     kappa=float(meta["kappa"]))
    return WaveProfile(
        int(meta["dim"]), int(meta["S"]), float(meta["omega"]), model,
        float(meta["R"]), int(meta["N"]), r, p, w, float(meta["residual"]),
    )


# ---------------------------------------------------------------------------
# Manufactured solution (2D): psi_p = c_p t^4 exp(-5(x^2+y^2)), c = (1, 2)

MMS_C1 = 1.0
MMS_C2 = 2.0
_MMS_SIG = MMS_C1**2 - MMS_C2**2  # the density is SIG * phi^2 (negative)

# d^k/dz^k exp(-s z^2) = h_k(z; s) exp(-s z^2)
_HERMITE = (
    lambda z, s: 1.0,
    lambda z, s: -2.0 * s * z,
    lambda z, s: 4.0 * s * s * z * z - 2.0 * s,
    lambda z, s: -8.0 * s**3 * z**3 + 12.0 * s * s * z,
)


def _mms_field(f):
    z = np.zeros_like(f)
    return np.stack([MMS_C1 * f, MMS_C2 * f, z, z])


def mms_state(x, y, t):
    """Exact real-form field (c1 phi, c2 phi, 0, 0)."""
    return _mms_field(t ** 4 * np.exp(-5.0 * (x * x + y * y)))


def mms_space_jet(x, y, t):
    """Exact spatial jet of the manufactured field (for cascade checks):
    d_x^a d_y^b phi = t^4 h_a(x; 5) h_b(y; 5) E."""
    E = np.exp(-5.0 * (x * x + y * y))
    return {k: _mms_field(t ** 4 * _HERMITE[k.count("x")](x, 5.0)
                          * _HERMITE[k.count("y")](y, 5.0) * E)
            for k in _jet_keys("xy", 3)}


# Each source key's factor group and order c in t, in the order the depths add
# them ("val", "t", then depth 3, whose one second space derivative is the
# Laplacian "lap" = R_xx + R_yy), and the (a, b) whose factors each group sums.
_MMS_KEYS = {"val": ("", 0), "t": ("", 1), "x": ("x", 0), "y": ("y", 0),
             "lap": ("lap", 0), "tx": ("x", 1), "ty": ("y", 1), "tt": ("", 2),
             "ttt": ("", 3)}
_GROUPS = {"": ((0, 0),), "x": ((1, 0),), "y": ((0, 1),), "lap": ((2, 0), (0, 2))}


def _keys(depth: int):
    """The source keys that `MMSSource.jet` returns at a depth, in order."""
    return list(_MMS_KEYS)[: depth + 1] if depth < 2 else list(_MMS_KEYS)


def _factor_block(x, y, p: int, group: str, base=None):
    """The (4, *points) block [S_ab, S^p_ab, S_(a+1)b, S_a(b+1)], each row
    summed over the group's (a, b) and built in place.  Group "" comes first:
    its rows E and E^p (by repeated multiplication) are the `base` that the
    other groups read."""
    block = np.empty((4, *np.broadcast_shapes(np.shape(x), np.shape(y))))
    if base is None:
        base = block
        np.exp(-5.0 * (x * x + y * y), out=block[0])
        np.copyto(block[1], block[0])
        for _ in range(p - 1):
            block[1] *= block[0]
    for i, (da, db) in enumerate(((0, 0), (0, 0), (1, 0), (0, 1))):
        if block is base and i < 2:
            continue
        s = 5.0 * (p if i == 1 else 1)
        h = reduce(np.add, [_HERMITE[a + da](x, s) * _HERMITE[b + db](y, s)
                            for a, b in _GROUPS[group]])
        np.multiply(h, base[1 if i == 1 else 0], out=block[i])
    return block


class MMSSource:
    """Derivative jet of the forcing that makes the Gaussian field exact.

    The field is u = C phi with C = (c1, c2, 0, 0), so the forcing is

        R = u_t + sum_d A_d u_d - g(rho) gamma u
          = C phi_t + (A_x C) phi_x + (A_y C) phi_y - (gamma C) (g phi),

    with A_d from `model.DIRECTIONS`, applied to every requested derivative
    of (phi, g phi).  The density is
    sig phi^2 with sig = c1^2 - c2^2, so for an integer kappa >= 0

        g(sig phi^2) phi = m phi + c_p phi^p,
        p = 2 kappa + 1,   c_p = -(kappa + 1) lam sig^kappa,

    and phi^p = t^(4p) exp(-5p (x^2+y^2)) is again a power of t times a
    Gaussian.  So each derivative factors into a weight in t and a factor
    in (x, y) alone,

        d_x^a d_y^b d_t^c phi^k = perm(4k, c) t^(4k-c) S^k_ab,
        S^k_ab = h_a(x; 5k) h_b(y; 5k) exp(-5k (x^2+y^2)),

    and the key (a, b, c) of R is a sum of S_ab, S^p_ab, S_(a+1)b and
    S_a(b+1) (S = S^1) with scalar weights made of those t factors and c1,
    c2, m and c_p: one product of a 4 x 4 weight matrix with those four
    factors, written straight into the key's (4, ...) array (with a matrix
    per point when t is an array of times per point).  R_xx and R_yy share
    their weights, so "lap" reads the factors of (2, 0) plus those of (0, 2).
    Each point set keeps one (4, *points) block per group of keys ("" for
    val and its t derivatives, "x", "y", "lap"), made when first used, for
    the latest three point sets (a step's volume and two edge sets): 16
    arrays of the points' shape at depth 3, 12.3 MB at 80^2 P2.  A point set
    is known by the identity of its x and y arrays, which the source holds,
    so they must not be changed in place while it is in use.

    `jet` is the one entry: each scheme passes it `*space.points` or
    `*space.edge_points[axis]`.  Its `cells` index picks part of the point
    set out of the cached factor blocks and weighs that part alone, with the
    bits of the whole evaluation (every key is pointwise).  `per_block`
    hands `cascade.time_jet` the source as a function of a block's cells,
    so a forced cascade call evaluates each block's keys as the block runs:
    no forced step holds the full-size keys, nine (4, *points) arrays at
    depth 3, 15.8 MiB on the volume points at 80^2 P2.  Its reference is
    the power jet in tests/test_waves.py, which forms each derivative of phi
    and phi^p whole.
    """

    def __init__(self, model: NLDModel):
        kappa = float(model.kappa)
        if not (kappa.is_integer() and kappa >= 0.0):
            raise DomainError(
                f"the manufactured source needs an integer kappa >= 0, got {kappa}")
        self.model = model
        self.p = 2 * int(kappa) + 1
        self.cp = -(kappa + 1.0) * model.lam * _MMS_SIG ** int(kappa)
        # R over (S_ab, S^p_ab, S_(a+1)b, S_a(b+1)) is the sum of these
        # matrices times d_t^(c+1) t^4, d_t^c t^4 and d_t^c t^(4p); column j
        # weighs factor j, and + 0.0 turns the -0.0 entries into 0.0
        C = np.array([MMS_C1, MMS_C2, 0.0, 0.0])
        Z, gC = np.zeros(4), GAMMA @ C
        self._weights = (
            np.column_stack([C, Z, Z, Z]),
            np.column_stack([-model.m * gC, Z,
                             *(DIRECTIONS[d].matrix @ C for d in "xy")]) + 0.0,
            np.column_stack([Z, -self.cp * gC, Z, Z]) + 0.0,
        )
        self._point_sets = []  # (x, y, {group: block}), the latest last

    def _factors(self, x, y, group: str):
        blocks = next((b for u, v, b in self._point_sets if u is x and v is y), None)
        if blocks is None:
            blocks = {"": _factor_block(x, y, self.p, "")}
            # the latest three: a step's volume points and each axis's edge points
            self._point_sets = self._point_sets[-2:] + [(x, y, blocks)]
        if group not in blocks:
            blocks[group] = _factor_block(x, y, self.p, group, blocks[""])
        return blocks[group]

    def jet(self, x, y, t, depth: int = 3, cells=()):
        """Source derivatives at the points (x, y): 'val' at depth 0, 't' from
        depth 1, and at depth 3 'x', 'y', 'lap', 'tx', 'ty', 'tt' (the keys
        `cascade.time_jet` reads) and 'ttt' (`lwdg.taylor_state`).  cells:
        an index into the points' axes (and t's, when t is per point); the
        keys come out at those points only."""
        if cells and np.ndim(t):
            t = np.broadcast_to(t, np.broadcast_shapes(np.shape(x), np.shape(y)))[cells]
        # d^c/dt^c of t^4 and of t^(4p), per point when t is an array
        w = [math.perm(4, c) * t ** (4 - c) for c in range(5)]
        wp = [math.perm(4 * self.p, c) * t ** (4 * self.p - c) for c in range(4)]
        out = {}
        for key in _keys(depth):
            group, c = _MMS_KEYS[key]
            rows = self._factors(x, y, group)[(slice(None), *cells)]
            W = sum(np.multiply.outer(M, s) for M, s in
                    zip(self._weights, (w[c + 1], w[c], wp[c])))
            r = out[key] = np.empty(rows.shape)
            if W.ndim == 2:
                np.matmul(W, rows.reshape(4, -1), out=r.reshape(4, -1))
            else:  # a weight matrix per point
                np.einsum("ij...,j...->i...", W, rows, out=r)
        return out

    def per_block(self, x, y, t, depth: int = 3, where=lambda cells: (cells,)):
        """The `source` of `cascade.time_jet` at the points (x, y): a function
        of a block's cells, a slice of the first cell axis, that returns
        jet(x, y, t, depth, cells=where(cells)); the default `where` reads
        the points of those cells.  The point set's factor blocks are built
        here, on the calling thread: pool threads reaching a cold source
        would race on the cache."""
        for key in _keys(depth):
            self._factors(x, y, _MMS_KEYS[key][0])
        return lambda cells: self.jet(x, y, t, depth, where(cells))
