"""Pointwise time-derivative cascade for the real-form system.

Time derivatives of u are traded for spatial derivatives through repeated
use of

    u_t = -alpha u_x - beta u_y + M(u) + R,      M(u) = g(rho) gamma u,

so that e.g. u_tt = -alpha u_tx - beta u_ty + d_t M + R_t, with the mixed
derivatives u_tx, u_ty obtained by differentiating the same identity in
space.  Derivatives of M follow from the product/chain rule through
rho = <u, u> (the sigma3 pairing):

    rho_a   = 2 <u, u_a>
    rho_ab  = 2 (<u_a, u_b> + <u, u_ab>)
    rho_ttt = 2 (3 <u_t, u_tt> + <u, u_ttt>)
    g_a     = g' rho_a
    g_ab    = g'' rho_a rho_b + g' rho_ab
    g_ttt   = g''' rho_t^3 + 3 g'' rho_t rho_tt + g' rho_ttt

All operations act on point values, so the same code serves volume
quadrature points and cell-edge traces of every space dimension; 1D inputs
simply omit the y-derivative keys.

Three rules keep the cascade cheap without changing a single bit of its
output:

* **Blocking.** One depth-3 call makes about a hundred temporaries the
  size of its input.  `time_jet` therefore splits the point set along the
  leading cell axis (axis 1 of every jet and source array) into equal
  blocks of about `_BLOCK_POINTS` points, runs the cascade on each block
  and writes the results into full-size arrays.  A block's temporaries
  (about 30 MB) are far larger than cache; what blocking saves is the
  full-mesh set of them, alive at once.  With the heap policy of
  `diracdg.heap` the 200^2 P2 lwdg step measured 392-399 ms blocked
  against 532-540 ms whole, at 369 MB peak RSS against 506 MB (2-core
  Xeon, one BLAS thread).  A point set under one and a half blocks (1D
  meshes, 2D meshes up to about 50^2 at P2) goes straight through without
  copies, and so does every depth-1 call: with about fifteen temporaries
  it gains little, and the forced 80^2 P2 tsdg step measured slower
  blocked.  Every operation is pointwise, so the blocked result equals
  the unblocked one exactly.
* **Scalar zeros.** `NLDModel.g_jet` returns derivatives that vanish
  identically as the scalar 0.0 (g'' and g''' for kappa = 1, g''' for
  kappa = 2).  A product with such a coefficient is left out rather than
  built as an array of zeros.
* **Early return.** With ``mttt=False`` the depth-3 cascade stops once
  u_ttt is known and omits rho_ttt, g_ttt and M_ttt; the edge Taylor state
  of the one-step scheme needs nothing more.  (M_tt cannot be dropped:
  u_ttt depends on it.)

The cascade is exact: fed the spatial jet of a solution of the (possibly
forced) system, it returns that solution's exact time derivatives.  That
property is what the finite-difference oracle in the tests checks.
"""

from __future__ import annotations

import numpy as np

from .model import apply_alpha, apply_beta, apply_gamma, sigma3_pair

# Points per cascade block.  On a 2-core Xeon the 200^2 P2 lwdg step timed
# alike for 8k-24k points, slower from 32k points up and, through
# per-block call overhead, below 8k.
_BLOCK_POINTS = 16384


def _adv(two_d, jx, jy):
    out = -apply_alpha(jx)
    if two_d:
        out -= apply_beta(jy)
    return out


def _zero(c):
    """True for a coefficient that g_jet returned as the scalar 0.0."""
    return np.ndim(c) == 0 and c == 0.0


def _g_ab(g1, g2, rho_a, rho_b, rho_ab):
    """g'' rho_a rho_b + g' rho_ab, without the first term when g'' == 0."""
    if _zero(g2):
        return g1 * rho_ab
    return g2 * rho_a * rho_b + g1 * rho_ab


def _g_ttt(g1, g2, g3, rho_t, rho_tt, rho_ttt):
    """g''' rho_t^3 + 3 g'' rho_t rho_tt + g' rho_ttt, scalar zeros left out
    (g'' == 0 implies g''' == 0 for the power-law g)."""
    if _zero(g3):
        if _zero(g2):
            return g1 * rho_ttt
        return 3.0 * g2 * rho_t * rho_tt + g1 * rho_ttt
    return g3 * rho_t**3 + 3.0 * g2 * rho_t * rho_tt + g1 * rho_ttt


def time_jet(space_jet, model, depth: int = 3, source=None, mttt: bool = True):
    """Time derivatives of u and M(u) from a spatial jet at a point set.

    space_jet: dict with keys 'u', 'x' ('y'), and for depth 3 also
        'xx' ('xy', 'yy'), 'xxx' ('xxy', 'xyy', 'yyy'); arrays (4, ...).
    source: dict of source derivatives with keys 'val', 'x' ('y'), 't',
        and for depth 3 'xx' ('xy', 'yy'), 'tx' ('ty'), 'tt'; arrays of the
        jet's shape, or None.
    depth: 1 returns {'t', 'M', 'Mt'}; 3 adds {'tt', 'ttt', 'Mtt', 'Mttt'}.
    mttt: at depth 3, False leaves out 'Mttt' (and the work behind it).
    """
    u = space_jet["u"]
    n = u.shape[1]
    # equal blocks near _BLOCK_POINTS; rounding keeps a set under 1.5 blocks
    # whole, where copying out the results would cost more than it saves
    nblocks = min(n, round(n * u[0, 0].size / _BLOCK_POINTS))
    if depth == 1 or nblocks <= 1:
        return _time_jet_block(space_jet, model, depth, source, mttt)

    out = {}
    for i in range(nblocks):
        cut = (slice(None), slice(i * n // nblocks, (i + 1) * n // nblocks))
        part = _time_jet_block(
            {k: v[cut] for k, v in space_jet.items()},
            model,
            depth,
            None if source is None else {k: v[cut] for k, v in source.items()},
            mttt,
        )
        for k, v in part.items():
            if k not in out:
                out[k] = np.empty(v.shape[:1] + (n,) + v.shape[2:], v.dtype)
            out[k][cut] = v
    return out


def _time_jet_block(space_jet, model, depth, source, mttt):
    two_d = "y" in space_jet
    u = space_jet["u"]
    ux = space_jet["x"]
    uy = space_jet.get("y")
    src = source or {}

    def s(key):
        return src.get(key)

    def plus(a, b):
        return a if b is None else a + b

    g0, g1, g2, g3 = model.g_jet(sigma3_pair(u, u), depth)
    gu = apply_gamma(u)
    M = g0 * gu

    ut = plus(_adv(two_d, ux, uy) + M, s("val"))
    gut = apply_gamma(ut)
    rho_t = 2.0 * sigma3_pair(u, ut)
    gt = g1 * rho_t
    Mt = gt * gu + g0 * gut
    out = {"t": ut, "M": M, "Mt": Mt}
    if depth == 1:
        return out

    uxx = space_jet["xx"]
    uxxx = space_jet["xxx"]
    rho_x = 2.0 * sigma3_pair(u, ux)
    gx = g1 * rho_x
    Mx = gx * gu + g0 * apply_gamma(ux)
    utx = plus(_adv(two_d, uxx, space_jet.get("xy")) + Mx, s("x"))
    if two_d:
        uxy, uyy = space_jet["xy"], space_jet["yy"]
        rho_y = 2.0 * sigma3_pair(u, uy)
        gy = g1 * rho_y
        My = gy * gu + g0 * apply_gamma(uy)
        uty = plus(_adv(two_d, uxy, uyy) + My, s("y"))
    else:
        uty = None
    utt = plus(_adv(two_d, utx, uty) + Mt, s("t"))

    # second spatial derivatives of u_t, for u_ttx (and u_tty)
    rho_xx = 2.0 * (sigma3_pair(ux, ux) + sigma3_pair(u, uxx))
    gxx = _g_ab(g1, g2, rho_x, rho_x, rho_xx)
    Mxx = gxx * gu + 2.0 * gx * apply_gamma(ux) + g0 * apply_gamma(uxx)
    utxx = plus(_adv(two_d, uxxx, space_jet.get("xxy")) + Mxx, s("xx"))
    if two_d:
        uxxy, uxyy, uyyy = space_jet["xxy"], space_jet["xyy"], space_jet["yyy"]
        rho_xy = 2.0 * (sigma3_pair(ux, uy) + sigma3_pair(u, uxy))
        gxy = _g_ab(g1, g2, rho_x, rho_y, rho_xy)
        Mxy = (
            gxy * gu
            + gx * apply_gamma(uy)
            + gy * apply_gamma(ux)
            + g0 * apply_gamma(uxy)
        )
        utxy = plus(_adv(two_d, uxxy, uxyy) + Mxy, s("xy"))
        rho_yy = 2.0 * (sigma3_pair(uy, uy) + sigma3_pair(u, uyy))
        gyy = _g_ab(g1, g2, rho_y, rho_y, rho_yy)
        Myy = gyy * gu + 2.0 * gy * apply_gamma(uy) + g0 * apply_gamma(uyy)
        utyy = plus(_adv(two_d, uxyy, uyyy) + Myy, s("yy"))
    else:
        utxy = utyy = None

    rho_tx = 2.0 * (sigma3_pair(ut, ux) + sigma3_pair(u, utx))
    gtx = _g_ab(g1, g2, rho_t, rho_x, rho_tx)
    Mtx = gtx * gu + gt * apply_gamma(ux) + gx * gut + g0 * apply_gamma(utx)
    uttx = plus(_adv(two_d, utxx, utxy) + Mtx, s("tx"))
    if two_d:
        rho_ty = 2.0 * (sigma3_pair(ut, uy) + sigma3_pair(u, uty))
        gty = _g_ab(g1, g2, rho_t, rho_y, rho_ty)
        Mty = gty * gu + gt * apply_gamma(uy) + gy * gut + g0 * apply_gamma(uty)
        utty = plus(_adv(two_d, utxy, utyy) + Mty, s("ty"))
    else:
        utty = None

    rho_tt = 2.0 * (sigma3_pair(ut, ut) + sigma3_pair(u, utt))
    gtt = _g_ab(g1, g2, rho_t, rho_t, rho_tt)
    gutt = apply_gamma(utt)
    Mtt = gtt * gu + 2.0 * gt * gut + g0 * gutt
    uttt = plus(_adv(two_d, uttx, utty) + Mtt, s("tt"))
    out.update({"tt": utt, "ttt": uttt, "Mtt": Mtt})
    if not mttt:
        return out

    rho_ttt = 2.0 * (3.0 * sigma3_pair(ut, utt) + sigma3_pair(u, uttt))
    gttt = _g_ttt(g1, g2, g3, rho_t, rho_tt, rho_ttt)
    out["Mttt"] = (
        gttt * gu + 3.0 * gtt * gut + 3.0 * gt * gutt + g0 * apply_gamma(uttt)
    )
    return out

