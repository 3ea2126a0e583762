"""Pointwise time-derivative cascade for the real-form system.

Every time derivative of u is traded for spatial ones through the equation
itself, differentiated along a canonical key k (letters sorted, so t comes
before x and x before y; "" is no derivative):

    u_tk = -alpha u_kx - beta u_ky + M_k + R_k,      M(u) = g(rho) gamma u.

One recurrence over the directions present in the jet ("x", or "x" and
"y") applies it for k = "", each direction, t, each direction pair, t plus
each direction, and tt, so that u_t, u_tt and u_ttt come out in turn (at
depth 1 only k = "" and M_t).  M_k follows from the product and chain
rules through rho = <u, u> (the sigma3 pairing); one first-order and one
second-order rule serve every key:

    rho_a  = 2 <u, u_a>,                    g_a  = g' rho_a
    rho_ab = 2 (<u_a, u_b> + <u, u_ab>),    g_ab = g'' rho_a rho_b + g' rho_ab
    M_a    = g_a gamma u + g gamma u_a
    M_ab   = g_ab gamma u + g_a gamma u_b + g_b gamma u_a + g gamma u_ab

Only M_ttt, which the one-step scheme's volume Taylor sum needs, is
written out:

    rho_ttt = 2 (3 <u_t, u_tt> + <u, u_ttt>)
    g_ttt   = g''' rho_t^3 + 3 g'' rho_t rho_tt + g' rho_ttt

All operations act on point values, so the same code serves volume
quadrature points and cell-edge traces of every space dimension.

Four rules keep the cascade cheap without changing a single bit of its
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
  copies, and so does every depth-1 call below the pool's size rule: with
  about fifteen temporaries it gains little, and the forced 80^2 P2 tsdg
  step measured slower blocked.  Every operation is pointwise, so the
  blocked result equals the unblocked one exactly.
* **Two threads for large point sets.**  A jet whose u holds at least
  `pool.MIN_ELEMENTS` elements (every 2D call of a 200^2 P2 step, none of
  an 80^2 one) hands its blocks, at depth 1 as well as depth 3, to the
  process-wide pool of `diracdg.pool`, and the calling thread copies each
  finished block into place.  numpy releases the interpreter lock inside
  the block's arithmetic, so the blocks run on both cores; with glibc's
  one arena (`diracdg.heap`) the peak RSS stays that of the serial run.
  The 200^2 P2 lwdg step measured 564 ms against 708 ms serial and the
  tsdg step 284 ms against 387 ms (medians of 10 alternating pairs).  At
  80^2 the pool cost more than it saved and at 120^2 it broke even, which
  is where the size rule sits.
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

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from . import pool
from .model import apply_alpha, apply_beta, apply_gamma, sigma3_pair

# Points per cascade block.  On a 2-core Xeon the 200^2 P2 lwdg step timed
# alike for 8k-24k points, slower from 32k points up and, through
# per-block call overhead, below 8k.
_BLOCK_POINTS = 16384


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
    pooled = pool.large(u)
    # equal blocks near _BLOCK_POINTS; rounding keeps a set under 1.5 blocks
    # whole, where copying out the results would cost more than it saves
    nblocks = min(n, round(n * u[0, 0].size / _BLOCK_POINTS))
    if nblocks <= 1 or (depth == 1 and not pooled):
        return _time_jet_block(space_jet, model, depth, source, mttt)

    def block(cut):
        return _time_jet_block(
            {k: v[cut] for k, v in space_jet.items()},
            model,
            depth,
            None if source is None else {k: v[cut] for k, v in source.items()},
            mttt,
        )

    cuts = [(slice(None), slice(i * n // nblocks, (i + 1) * n // nblocks))
            for i in range(nblocks)]
    out = {}
    for cut, part in zip(cuts, (pool.map if pooled else map)(block, cuts)):
        for k, v in part.items():
            if k not in out:
                out[k] = np.empty(v.shape[:1] + (n,) + v.shape[2:], v.dtype)
            out[k][cut] = v
    return out


@lru_cache(maxsize=None)
def _plan(dirs: str, depth: int):
    """The cascade's steps for the directions `dirs` ("x" or "xy").

    Step k forms M_k and, for len(k) < depth, u_tk; it carries the keys of
    u_ka, one per direction a, the key of u_tk and the source key of R_k.
    Steps run by length and, within a length, with fewer t's first, since
    u_tk needs u_ka and the step with one t fewer forms it.
    """
    keys = {"t"} | {
        "".join(c)
        for n in range(depth)
        for c in combinations_with_replacement("t" + dirs, n)
    }
    return tuple(
        (k, tuple("".join(sorted(k + a)) for a in dirs),
         "".join(sorted("t" + k)) if len(k) < depth else None, k or "val")
        for k in sorted(keys, key=lambda k: (len(k), k.count("t"), k))
    )


class _Gamma(dict):
    """gamma u_key on first use, kept for u, u_t and u_tt, which recur."""

    def __init__(self, U):
        self.U = U

    def __missing__(self, key):
        out = apply_gamma(self.U[key])
        if key in ("", "t", "tt"):
            self[key] = out
        return out


def _time_jet_block(space_jet, model, depth, source, mttt):
    u = space_jet["u"]
    U = {**space_jet, "": u}
    src = source or {}
    g0, g1, g2, g3 = model.g_jet(sigma3_pair(u, u), depth)
    G = _Gamma(U)
    gu = G[""]
    rho, g, M = {}, {}, {}
    for k, adv, tk, sk in _plan("".join(a for a in "xy" if a in space_jet), depth):
        if not k:
            M[k] = g0 * gu
        elif len(k) == 1:
            rho[k] = 2.0 * sigma3_pair(u, U[k])
            g[k] = g1 * rho[k]
            M[k] = g[k] * gu + g0 * G[k]
        else:
            a, b = k
            rho[k] = 2.0 * (sigma3_pair(U[a], U[b]) + sigma3_pair(u, U[k]))
            g[k] = _g_ab(g1, g2, rho[a], rho[b], rho[k])
            if a == b:
                M[k] = g[k] * gu + 2.0 * g[a] * G[a] + g0 * G[k]
            else:
                M[k] = g[k] * gu + g[a] * G[b] + g[b] * G[a] + g0 * G[k]
        if tk is not None:
            utk = -apply_alpha(U[adv[0]])
            if len(adv) == 2:
                utk -= apply_beta(U[adv[1]])
            utk += M[k]
            if sk in src:
                utk += src[sk]
            U[tk] = utk

    out = {"t": U["t"], "M": M[""], "Mt": M["t"]}
    if depth == 1:
        return out
    out.update({"tt": U["tt"], "ttt": U["ttt"], "Mtt": M["tt"]})
    if not mttt:
        return out

    rho_ttt = 2.0 * (3.0 * sigma3_pair(U["t"], U["tt"]) + sigma3_pair(u, U["ttt"]))
    gttt = _g_ttt(g1, g2, g3, rho["t"], rho["tt"], rho_ttt)
    out["Mttt"] = (
        gttt * gu + 3.0 * g["tt"] * G["t"] + 3.0 * g["t"] * G["tt"]
        + g0 * apply_gamma(U["ttt"])
    )
    return out
