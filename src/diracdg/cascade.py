"""Pointwise time-derivative cascade for the real-form system.

Every time derivative of u is traded for spatial ones through the equation
itself, differentiated along a canonical key k (letters sorted, so t comes
before x and x before y; "" is no derivative):

    u_tk = -sum_d A_d u_kd + M_k + R_k,      M(u) = g(rho) gamma u,

with A_d direction d's matrix (`model.DIRECTIONS`) and d running over the
directions present in the jet ("x", or "x" and "y").  One code path serves
both dimensions: every sum below runs over those directions.  The rule is
applied for k = "", each direction d and t, giving u_t, u_td and u_tt in
turn (at depth 1 only k = "" and M_t).  u_ttt comes from the squared Dirac
operator instead.  Applying the rule to u_tt and then to each u_ttd, the
mixed terms cancel, since A_x^2 = A_y^2 = I and A_x A_y = -A_y A_x,
which leaves, for any input jet, forced or not,

    u_ttt = -sum_e A_e (sum_d u_dde) + M_lap + R_lap
            - sum_d A_d (M_td + R_td) + M_tt + R_tt,

with M_lap = sum_d M_dd and R_lap = sum_d R_dd, one source key ("lap").  So
the mixed key xy (rho_xy, g_xy, M_xy) and u_txx, u_txy, u_tyy, u_ttx, u_tty
are never formed (in 1D, u_txx and u_ttx), and no source R_dd or R_xy.

M_k follows from the product and chain rules through rho = <u, u> (the
sigma3 pairing).  One first-order and one second-order rule serve every
key, and the Laplacian key is the second-order rule summed over d:

    rho_a   = 2 <u, u_a>,                    g_a = g' rho_a
    rho_ab  = 2 (<u_a, u_b> + <u, u_ab>),    g_ab = g'' rho_a rho_b + g' rho_ab
    rho_lap = 2 sum_d (<u_d, u_d> + <u, u_dd>)
    g_lap   = g'' sum_d rho_d^2 + g' rho_lap
    M_k     = gamma V_k,    V = g u,    V_a = g_a u + g u_a
    V_ab    = g_ab u + g_a u_b + g_b u_a + g u_ab
    V_lap   = g_lap u + 2 sum_d g_d u_d + g sum_d u_dd

Only M_ttt, which the one-step scheme's volume Taylor sum needs, is
written out:

    rho_ttt = 2 (3 <u_t, u_tt> + <u, u_ttt>)
    g_ttt   = g''' rho_t^3 + 3 g'' rho_t rho_tt + g' rho_ttt

A_d, gamma, sigma3 and their signed products are signed permutations, and
applying one is exact.  So each key's g-weighted sum V_k is formed once,
and gamma V_k, -A_d u and -A_d gamma V_td are added into the output as two
strided row views each (`model.signed_rows`), with no gathered copy.
Each sigma3 pairing is one `np.einsum` against sigma3 a, with the sign
folded in.  Every sum runs in the order of the per-key recurrence (u_ttt
from u_ttd, from u_tde; the tests keep it as the reference), so u_t, u_td,
u_tt, every output at depth 1 and every output in 1D have its bits; in 2D,
u_ttt and M_ttt differ from it by rounding.

All operations act on point values, so the same code serves volume
quadrature points and cell-edge traces of every space dimension.

Four rules keep the cascade cheap without changing a single bit of its
output:

* **Blocking.** One depth-3 call makes dozens of temporaries the size of
  its input.  `time_jet` therefore splits the point set along the leading
  cell axis (axis 1 of every jet and source array) into equal blocks of
  about `_BLOCK_POINTS` points, runs the cascade on each block and writes
  the results into full-size arrays.  A block's temporaries are far larger
  than cache; what blocking saves is the full-mesh set of them, alive at
  once.  With the heap policy of `diracdg.heap`, and the per-key
  recurrence that the cascade ran then, the 200^2 P2 lwdg step measured
  392-399 ms blocked against 532-540 ms whole, at 369 MB peak RSS against
  506 MB (2-core Xeon, one BLAS thread).  A point set under one and a half blocks (1D
  meshes, 2D meshes up to about 50^2 at P2) goes straight through without
  copies, and so does every depth-1 call below the pool's size rule: with
  a dozen or so temporaries it gains little, and the forced 80^2 P2 tsdg
  step measured slower blocked.  Every operation is pointwise, so the
  blocked result equals the unblocked one exactly.  A caller that only
  combines the outputs passes the combination as `then`, which runs on
  each block's output while the block is fresh, so only its results are
  copied to full size: lwdg's Taylor sums copy out 2 arrays per volume
  call in place of 7 and 1 per edge call in place of 3, and the 200^2 P2
  lwdg step measured 272 ms against 303 ms, at a tracemalloc peak of
  157 MiB against 220 MiB (11 alternating pairs, one BLAS thread).  The
  input side is blocked the same way: the source is a function of a
  block's cells, evaluated as the block runs, so a forced call never holds
  its source keys at full size (the nine depth-3 keys of an 80^2 P2 volume
  call are 15.8 MiB).
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
* **Early return.** With ``m_jet=False`` the cascade returns no M: at
  depth 1 it stops once u_t is known (no rho_t, g_t or V_t), at depth 3
  once u_ttt is known (no rho_ttt, g_ttt or V_ttt), and it never applies
  gamma to a V_k as a copy.  The edge states of both cascade schemes need
  nothing more.  (V_t, V_td, V_lap and V_tt cannot be dropped: u_tt and
  u_ttt depend on them.)

The cascade is exact: fed the spatial jet of a solution of the (possibly
forced) system, it returns that solution's exact time derivatives.  That
property is what the finite-difference oracle in the tests checks.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import pool
from .model import (DIRECTIONS, GAMMA, GAMMA_ROWS, SIGMA3, add_rows, apply_rows,
                    signed_rows)

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


def time_jet(space_jet, model, depth: int = 3, source=None, m_jet: bool = True,
             then=None):
    """Time derivatives of u and M(u) from a spatial jet at a point set.

    space_jet: dict with keys 'u', 'x' ('y'), and for depth 3 also
        'xx' ('xy', 'yy'), 'xxx' ('xxy', 'xyy', 'yyy'); arrays (4, ...).
    source: None, or source(cells), which returns the source derivatives
        of the block whose cells are `cells`, a slice of axis 1 (all of it,
        slice(None), on a set that goes through whole): a dict with 'val',
        and at depth 3 't', 'x' ('y'), 'lap' (R_xx + R_yy), 'tx' ('ty') and
        'tt', arrays of the block jet's shape.  Other keys are not read; a
        missing one is a KeyError.  It runs on the pool's threads with its
        block, so any cache it reads must be filled before the call
        (`MMSSource.per_block` does so).
    depth: 1 returns {'t', 'M', 'Mt'}; 3 adds {'tt', 'ttt', 'Mtt', 'Mttt'}.
    m_jet: False leaves out every M output ('M', 'Mt', and at depth 3
        'Mtt', 'Mttt') and the work that only they need.
    then: None, or then(jet, tj, src), called once per block (once on a
        set that goes through whole) with that block's space jet, cascade
        output and source (None when unforced).  It returns a dict of
        arrays whose axis 1 is the block's cells; `time_jet` returns those
        dicts joined along axis 1 in place of the cascade output.  It must
        act pointwise, so that the result does not depend on the blocks.
    """
    u = space_jet["u"]
    n = u.shape[1]
    pooled = pool.large(u)
    # equal blocks near _BLOCK_POINTS; rounding keeps a set under 1.5 blocks
    # whole, where copying out the results would cost more than it saves
    nblocks = min(n, round(n * u[0, 0].size / _BLOCK_POINTS))

    def run(jet, src):
        tj = _time_jet_block(jet, model, depth, src, m_jet)
        return tj if then is None else then(jet, tj, src)

    if nblocks <= 1 or (depth == 1 and not pooled):
        return run(space_jet, None if source is None else source(slice(None)))

    def block(cells):
        return run({k: v[:, cells] for k, v in space_jet.items()},
                   None if source is None else source(cells))

    blocks = [slice(i * n // nblocks, (i + 1) * n // nblocks) for i in range(nblocks)]
    out = {}
    for cells, part in zip(blocks, (pool.map if pooled else map)(block, blocks)):
        for k, v in part.items():
            if k not in out:
                out[k] = np.empty(v.shape[:1] + (n,) + v.shape[2:], v.dtype)
            out[k][:, cells] = v
    return out


# -A_d and -A_d gamma for each direction d, and sigma3, as strided row halves
_MINUS_A = {d: signed_rows(-f.matrix) for d, f in DIRECTIONS.items()}
_MINUS_A_GAMMA = {d: signed_rows(-f.matrix @ GAMMA) for d, f in DIRECTIONS.items()}
_SIGMA3 = signed_rows(SIGMA3)


def _pair(s, v):
    """<a, v> from s = sigma3 a: the sign is folded into s."""
    # One einsum, not `model.sigma3_pair`'s four row products: sigma3 u is
    # made once per key and reused, and by hand the lwdg step measured slower.
    return np.einsum("i...,i...->...", s, v)


def _minus_A(dirs, terms):
    """-sum_d A_d terms_d as a new array."""
    out = apply_rows(_MINUS_A[dirs[0]], terms[0])
    for d, v in zip(dirs[1:], terms[1:]):
        add_rows(out, _MINUS_A[d], v)
    return out


def _u_tk(U, k, dirs, Vk, source):
    """u_tk = -sum_d A_d u_kd + gamma V_k (+ R_k)."""
    out = _minus_A(dirs, [U["".join(sorted(k + d))] for d in dirs])
    add_rows(out, GAMMA_ROWS, Vk)
    if source is not None:
        out += source[k or "val"]
    return out


def _weighted(g_ab, u, terms, g0, u_ab):
    """V = g_ab u + sum c u_c over terms (c, u_c) + g0 u_ab, so M = gamma V."""
    V = g_ab * u
    for c, uc in terms:
        V += c * uc
    V += g0 * u_ab
    return V


def _time_jet_block(space_jet, model, depth, source, m_jet):
    u = space_jet["u"]
    U = dict(space_jet)
    dirs = [a for a in "xy" if a in space_jet]
    su = apply_rows(_SIGMA3, u)
    g0, g1, g2, g3 = model.g_jet(_pair(su, u), depth)
    V = {"": g0 * u}
    U["t"] = _u_tk(U, "", dirs, V[""], source)
    if depth == 1 and not m_jet:
        return {"t": U["t"]}

    rho, g = {}, {}
    for k in dirs + ["t"] if depth > 1 else ["t"]:
        rho[k] = 2.0 * _pair(su, U[k])
        g[k] = g1 * rho[k]
        V[k] = g[k] * u + g0 * U[k]
        if depth > 1:
            U["t" + k] = _u_tk(U, k, dirs, V[k], source)
    if depth == 1:
        return {"t": U["t"], "M": apply_rows(GAMMA_ROWS, V[""]),
                "Mt": apply_rows(GAMMA_ROWS, V["t"])}

    # second order: the Laplacian key, t plus each direction, and tt
    st = apply_rows(_SIGMA3, U["t"])
    lap_pairs = [_pair(apply_rows(_SIGMA3, U[d]), U[d]) + _pair(su, U[d + d])
                 for d in dirs]
    rho_lap = 2.0 * reduce(np.add, lap_pairs)
    if _zero(g2):
        g_lap = g1 * rho_lap
    else:
        g_lap = reduce(np.add, [g2 * rho[d] * rho[d] for d in dirs]) + g1 * rho_lap
    V_lap = _weighted(g_lap, u, [(2.0 * g[d], U[d]) for d in dirs], g0,
                      reduce(np.add, [U[d + d] for d in dirs]))
    for d in dirs:
        rho_td = 2.0 * (_pair(st, U[d]) + _pair(su, U["t" + d]))
        g_td = _g_ab(g1, g2, rho["t"], rho[d], rho_td)
        V["t" + d] = _weighted(g_td, u, [(g["t"], U[d]), (g[d], U["t"])], g0,
                               U["t" + d])
    rho["tt"] = 2.0 * (_pair(st, U["t"]) + _pair(su, U["tt"]))
    g["tt"] = _g_ab(g1, g2, rho["t"], rho["t"], rho["tt"])
    V["tt"] = _weighted(g["tt"], u, [(2.0 * g["t"], U["t"])], g0, U["tt"])

    # u_ttt from the squared Dirac operator (module docstring)
    uttt = _minus_A(dirs, [reduce(np.add, [U["".join(sorted(d + d + e))]
                                           for d in dirs]) for e in dirs])
    add_rows(uttt, GAMMA_ROWS, V_lap)
    if source is not None:
        uttt += source["lap"]
    for d in dirs:
        add_rows(uttt, _MINUS_A_GAMMA[d], V["t" + d])
        if source is not None:
            add_rows(uttt, _MINUS_A[d], source["t" + d])
    add_rows(uttt, GAMMA_ROWS, V["tt"])
    if source is not None:
        uttt += source["tt"]
    out = {"t": U["t"], "tt": U["tt"], "ttt": uttt}
    if not m_jet:
        return out

    rho_ttt = 2.0 * (3.0 * _pair(st, U["tt"]) + _pair(su, uttt))
    g_ttt = _g_ttt(g1, g2, g3, rho["t"], rho["tt"], rho_ttt)
    V["ttt"] = _weighted(g_ttt, u, [(3.0 * g["tt"], U["t"]), (3.0 * g["t"], U["tt"])],
                         g0, uttt)
    out.update({"M" + k: apply_rows(GAMMA_ROWS, V[k]) for k in ("", "t", "tt", "ttt")})
    return out
