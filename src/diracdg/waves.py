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
symmetry condition p'(0) = 0 by itself.  The nonlinear system is solved by
a damped Newton iteration (the damping releases to full steps near the
solution), with continuation in omega from a shallow anchor wave when a
direct solve stalls.  Profiles decay like exp(-sqrt(m^2-omega^2) r).

The collocated p and w are a Chebyshev series in s = 2 r / R - 1.  Each
profile converts its node values to series coefficients once (a DCT-I),
and every field evaluation sums both series together with Clenshaw's
recurrence: O(N) per point with no division.

The bottom of the module provides the forced manufactured solution of the
2D accuracy studies, psi = (c1, c2) phi with phi = t^4 exp(-5(x^2+y^2)),
together with the derivative jet of its source term that the one-step
schemes consume.  Its nonlinear part is closed form: the density is
(c1^2 - c2^2) phi^2, so for an integer kappa >= 0 the term g(rho) phi is
m phi + c_p phi^p with p = 2 kappa + 1, and phi^p = t^(4p) exp(-5p(x^2+y^2))
is again a power of t times a Gaussian, whose every derivative is a falling
factorial in t times Hermite-type polynomials in x and y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ConfigError, DomainError, NoConvergence
from .mesh import _jet_keys
from .model import NLDModel, complex_to_real


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


_CHUNK = 8192  # points per block of the Clenshaw sum, to bound its buffers


def _clenshaw(coef, s):
    """Sum the Chebyshev series of every row of `coef` at s in [-1, 1] by
    Clenshaw's recurrence; returns shape (rows,) + s.shape."""
    sf = np.asarray(s, dtype=float).ravel()
    rows, n1 = coef.shape
    out = np.empty((rows, sf.size))
    for lo in range(0, sf.size, _CHUNK):
        x = sf[lo : lo + _CHUNK]
        x2 = 2.0 * x
        b1 = np.zeros((rows, x.size))
        b2 = np.zeros_like(b1)
        t = np.empty_like(b1)
        for k in range(n1 - 1, 0, -1):
            # b_k = c_k + 2 s b_{k+1} - b_{k+2}, in place on three buffers
            np.multiply(x2, b1, out=t)
            t -= b2
            t += coef[:, k, None]
            b1, b2, t = t, b1, b2
        out[:, lo : lo + _CHUNK] = coef[:, :1] + x * b1 - b2
    return out.reshape((rows,) + np.shape(s))


# ---------------------------------------------------------------------------
# Newton solve of the collocated radial system

# Newton's damped step size, its stopping step size and its iteration limit
_DAMPING = 0.5
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
    g0, g1, _, _ = model.g_jet(sh, 1)
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
        # full steps once close: the damping is only there to tame the
        # far-from-solution updates of deep waves
        step = 1.0 if np.max(np.abs(delta)) < 1e-3 else _DAMPING
        p = p + step * delta[:n]
        w = w + step * delta[n:]
        if np.max(np.abs(p)) > 1e6:
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
    return p, w, res


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

    def chi(self, rq):
        return self.phi_chi(rq)[1]

    @property
    def decay_exponent(self) -> float:
        return float(np.sqrt(self.model.m**2 - self.omega**2))


# largest |Chebyshev coefficient| of p and w over the last tenth of the series,
# relative to the largest: every profile the presets solve stays below 1e-6
_TAIL_TOL = 1e-5


def _continuation_ladder(omega: float, anchor: float):
    step = -0.1 if omega < anchor else 0.1
    return list(np.arange(anchor, omega, step)) + [omega]


def solve_standing_wave(
    omega: float,
    dim: int = 1,
    S: int = 0,
    model: NLDModel | None = None,
    R: float | None = None,
    N: int = 256,
) -> WaveProfile:
    """Compute the profile via collocation; continuation handles deep waves."""
    model = model or NLDModel()
    if not 0.0 < omega < model.m:
        raise ConfigError(f"no localised wave for omega={omega} (need 0 < omega < m)")
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}")
    if dim == 1 and S != 0:
        raise ConfigError("angular index S only applies in 2D")
    for bad, msg in ((S < 0, f"angular index S must be >= 0, got {S}"),
                     (N < 2, f"need N >= 2 collocation nodes, got {N}"),
                     (R is not None and not 0.0 < R < np.inf,
                      f"radius R must be > 0 and finite, got {R}")):
        if bad:
            raise ConfigError(msg)
    R = float(R) if R is not None else (40.0 if dim == 1 else 30.0)
    r, Dr, cc = _collocation(N, R, dim, S)

    # the 2D ground state sits well above the 1D sech scale, and a too-small
    # seed makes Newton collapse onto the trivial solution, so a short list
    # of seed amplitudes is tried, first at omega itself and then with
    # continuation from the shallow anchor wave omega = 0.8
    factors = (1.0, 1.6) if dim == 1 else (1.8, 1.3, 2.5)
    for anchor, fac in itertools.product((omega, 0.8), factors):
        b = np.sqrt(model.m**2 - anchor**2)
        p, w = fac * np.sqrt(model.m - anchor) / np.cosh(b * r), np.zeros_like(r)
        try:
            for om in _continuation_ladder(omega, anchor):
                p, w, res = _newton_profile(p, w, r, Dr, cc, om, model, S)
            break
        except NoConvergence as exc:
            failure = exc.with_traceback(None)  # frees the attempt's Jacobian
    else:
        raise failure
    prof = WaveProfile(dim, S, float(omega), model, R, N, r, p, w, res)
    # the collocated residual vanishes at any N; the series' tail shows
    # whether N nodes resolve the profile on [0, R]
    c = np.abs(prof._coef)
    tail = c[:, -((N + 10) // 10):].max() / c.max()  # last tenth of N+1 terms
    if tail > _TAIL_TOL:
        raise ConfigError(f"N = {N} nodes do not resolve the profile on "
                          f"[0, R = {R:g}]: Chebyshev tail {tail:.1e} > {_TAIL_TOL:g}")
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


def profile_charge(profile: WaveProfile, n: int = 4000) -> float:
    """Total charge of the unboosted wave (trapezoid on a fine radial grid)."""
    r = np.linspace(0.0, profile.R, n)
    ph, ch = profile.phi_chi(r)
    dens = ph**2 + ch**2
    if profile.dim == 1:
        return 2.0 * float(np.trapezoid(dens, r))
    return 2.0 * np.pi * float(np.trapezoid(dens * r, r))


def decay_rate(profile: WaveProfile, lo: float = 0.5, hi: float = 0.8,
               n: int = 200) -> float:
    """Fitted exponential rate of phi; the r^{-(d-1)/2} amplitude factor is
    removed so the fit matches sqrt(m^2 - omega^2) in every dimension."""
    r = np.linspace(lo * profile.R, hi * profile.R, n)
    vals = np.abs(profile.phi(r)) * r ** ((profile.dim - 1) / 2.0)
    good = vals > 0.0
    slope = np.polyfit(r[good], np.log(vals[good]), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# Profile cache files

def save_profile(path, profile: WaveProfile):
    hdr = [
        "nonlinear Dirac standing-wave profile",
        f"omega = {profile.omega!r}",
        f"S = {profile.S}",
        f"kappa = {profile.model.kappa!r}",
        f"lam = {profile.model.lam!r}",
        f"m = {profile.model.m!r}",
        f"R = {profile.R!r}",
        f"N = {profile.N}",
        f"dim = {profile.dim}",
        f"residual = {profile.residual!r}",
        # the phi/chi columns are 0/0-degenerate at r = 0; keep the exact
        # prefactor values so a reload is bit-faithful
        f"p0 = {float(profile.p[-1])!r}",
        f"w0 = {float(profile.w[-1])!r}",
        "columns: r phi chi",
    ]
    phi = profile.r**profile.S * profile.p
    chi = profile.r ** (profile.S + 1) * profile.w
    with open(path, "w") as fh:
        for line in hdr:
            fh.write(f"# {line}\n")
        for ri, fi, ci in zip(profile.r, phi, chi):
            fh.write(f"{ri:.18e} {fi:.18e} {ci:.18e}\n")


_PROFILE_KEYS = ("omega", "S", "kappa", "lam", "m", "R", "N", "dim", "residual",
                 "p0", "w0")


def load_profile(path) -> WaveProfile:
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    key, val = line[1:].split("=", 1)
                    meta[key.strip()] = val.strip()
                continue
            rows.append([float(tok) for tok in line.split()])
    for key in _PROFILE_KEYS:
        if key not in meta:
            raise ConfigError(f"profile file {path} has no {key!r} header line")
    data = np.array(rows)
    r, phi, chi = data[:, 0], data[:, 1], data[:, 2]
    S = int(meta["S"])
    model = NLDModel(m=float(meta["m"]), lam=float(meta["lam"]),
                     kappa=float(meta["kappa"]))
    # r[-1] = 0: the stored columns are r^S p and r^{S+1} w, so the
    # prefactor values there are 0/0 and come from the header instead
    rr = np.where(r > 0.0, r, 1.0)
    p = np.where(r > 0.0, phi / rr**S, 0.0)
    w = np.where(r > 0.0, chi / rr ** (S + 1), 0.0)
    p[-1] = float(meta["p0"])
    w[-1] = float(meta["w0"])
    return WaveProfile(
        int(meta["dim"]), S, float(meta["omega"]), model, float(meta["R"]),
        int(meta["N"]), r, p, w, float(meta["residual"]),
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


def _power_jet(x, y, t, p: int, E=None):
    """(a, b, c) -> d_x^a d_y^b d_t^c phi^p for an integer p >= 1 and
    a, b <= 3, where phi^p = t^(4p) E^p and E = exp(-5(x^2+y^2)) (pass E to
    share it between powers).  E^p is taken by repeated multiplication, and
    each derivative is formed once, when first asked for."""
    if E is None:
        E = np.exp(-5.0 * (x * x + y * y))
    Ep = E
    for _ in range(p - 1):
        Ep = Ep * E
    n, s = 4 * p, 5.0 * p

    @cache
    def d(a: int, b: int, c: int):
        # d^c/dt^c t^n = n (n-1) ... (n-c+1) t^(n-c)
        return (math.perm(n, c) * t ** (n - c) * _HERMITE[a](x, s)
                * _HERMITE[b](y, s) * Ep)

    return d


def _mms_field(f):
    z = np.zeros_like(f)
    return np.stack([MMS_C1 * f, MMS_C2 * f, z, z])


def mms_state(x, y, t):
    """Exact real-form field (c1 phi, c2 phi, 0, 0)."""
    return _mms_field(_power_jet(x, y, t, 1)(0, 0, 0))


def mms_space_jet(x, y, t):
    """Exact spatial jet of the manufactured field (for cascade checks)."""
    phi = _power_jet(x, y, t, 1)
    return {k: _mms_field(phi(k.count("x"), k.count("y"), 0)) for k in _jet_keys("xy", 3)}


def _mms_assemble(ft, fx, fy, G):
    """Real-form forcing from one derivative of (phi, g phi); see MMSSource."""
    return np.stack([
        MMS_C1 * ft + MMS_C2 * fx,
        MMS_C2 * ft + MMS_C1 * fx,
        -MMS_C2 * fy + MMS_C1 * G,
        MMS_C1 * fy - MMS_C2 * G,
    ])


# the source keys in the order the depths add them: the value at depth 0,
# "t" at depth 1 and the rest at depth 3
_MMS_KEYS = ("val", "t", "x", "y", "xx", "xy", "yy", "tx", "ty", "tt", "ttt")


class MMSSource:
    """Derivative jet of the forcing that makes the Gaussian field exact.

    Complex components: r_p = A_p phi_t + B_p phi_x + C_p phi_y + D_p g phi
    with A = (c1, c2), B = (c2, c1), C = (-i c2, i c1), D = (i c1, -i c2);
    in real variables (phi and g phi are real) this is

        R = ( c1 f_t + c2 f_x,  c2 f_t + c1 f_x,
             -c2 f_y + c1 (g f), c1 f_y - c2 (g f) )

    applied to every requested derivative of (phi, g phi).  The density is
    sig phi^2 with sig = c1^2 - c2^2, so for an integer kappa >= 0

        g(sig phi^2) phi = m phi + c_p phi^p,
        p = 2 kappa + 1,   c_p = -(kappa + 1) lam sig^kappa,

    and phi^p = t^(4p) exp(-5p (x^2+y^2)) is again a power of t times a
    Gaussian, so each derivative d_x^a d_y^b d_t^c phi^p is the c-th
    derivative of t^(4p) times h_a(x; 5p) h_b(y; 5p) exp(-5p (x^2+y^2)).
    """

    def __init__(self, model: NLDModel):
        kappa = float(model.kappa)
        if not (kappa.is_integer() and kappa >= 0.0):
            raise DomainError(
                f"the manufactured source needs an integer kappa >= 0, got {kappa}")
        self.model = model
        self.p = 2 * int(kappa) + 1
        self.cp = -(kappa + 1.0) * model.lam * _MMS_SIG ** int(kappa)

    def jet(self, x, y, t, depth: int = 3):
        """Source derivatives at the points (x, y): depth 0 gives only
        'val', depth 1 adds 't', depth 3 every key `cascade.time_jet` and
        `lwdg.taylor_state` read."""
        E = np.exp(-5.0 * (x * x + y * y))
        phi, phip = _power_jet(x, y, t, 1, E), _power_jet(x, y, t, self.p, E)
        out = {}
        for key in _MMS_KEYS[: depth + 1] if depth < 2 else _MMS_KEYS:
            a, b, c = (key.count(axis) for axis in "xyt")  # none in "val"
            G = self.model.m * phi(a, b, c) + self.cp * phip(a, b, c)
            out[key] = _mms_assemble(phi(a, b, c + 1), phi(a + 1, b, c),
                                     phi(a, b + 1, c), G)
        return out

    def values(self, space, t):
        return self.jet(*space.points, t, depth=0)["val"]

    def volume_jet(self, space, t, depth: int = 3):
        return self.jet(*space.points, t, depth=depth)

    def edge_jet(self, space, t, axis: str, depth: int = 3):
        return self.jet(*space.edge_points[axis], t, depth=depth)
