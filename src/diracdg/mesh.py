"""Uniform Cartesian meshes and local orthogonal polynomial bases.

The local basis on a 1D cell with center x_j and width h is, in X = x - x_j,

    v0 = 1,  v1 = X,  v2 = X^2 - h^2/12,  v3 = X^3 - (3 h^2 / 20) X,

so the element mass matrix is diagonal: diag(h, h^3/12, h^5/180, h^7/2800).
A cell uses the tensor products v_a(X) v_b(Y) ... over the grid's axes with
total degree <= q, ordered by degree and then by the earlier axes' exponents
first: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), (3,0), (2,1), (1,2), (0,3)
in 2D.  A 1D cell is the same construction with one axis.

Every integral in the suite (projection, residuals, error norms) uses the
same (q+1)-point Gauss-Legendre rule per axis, from closed forms that round
to the same doubles on every platform.

One construction over `grid.axes` gives both spaces `mass`, the quadrature
`points` and `edge_points[axis]`, and basis tables keyed by jet key ("u",
"x", "xy", ...): `vol[key]` at the volume points, `edge[axis][key]` on each
cell's (low, high) edges normal to `axis`, and the weight-scaled `volw[key]`
(value and first derivatives) and `edgew[axis]` (values).  `DGSpace1D` and
`DGSpace2D` keep only `eval`, whose signature names the derivative orders,
and `edge_jets` (at depth 0, the plain traces), whose contractions differ:
both ends of a 1D cell come from one `table_dot`, a 2D edge side from one
`table_dot` each, and perfbench's traced run pins how many calls a step makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement, product
from operator import mul

import numpy as np

from . import pool
from .errors import InsufficientLevels, Unsupported


def _jet_keys(axes: str, depth: int):
    """Spatial-derivative keys of the pointwise jets up to order `depth`:
    "u" for the value, else the axes differentiated in, sorted."""
    return tuple("".join(c) or "u" for n in range(depth + 1)
                 for c in combinations_with_replacement(axes, n))


def gauss_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].  Each
    form was chosen because it rounds to the correctly rounded node or weight
    (equal forms such as 1/sqrt(3) or (18 + sqrt(30))/36 are one ulp off), by
    correctly rounded IEEE-754 operations alone: the same on every platform."""
    if n == 2:
        a = math.sqrt(1 / 3)
        return np.array([-a, a]), np.array([1.0, 1.0])
    if n == 3:
        a, w = math.sqrt(3 / 5), 5 / 9
        return np.array([-a, 0.0, a]), np.array([w, 8 / 9, w])
    if n == 4:
        s = math.sqrt(30.0)
        a, b = math.sqrt(525 - 70 * s) / 35, math.sqrt(525 + 70 * s) / 35
        wa, wb = 0.5 + s / 36, (18 - s) / 36
        return np.array([-b, -a, a, b]), np.array([wb, wa, wa, wb])
    raise Unsupported(f"no {n}-point quadrature rule (supported: 2, 3, 4)")


def mass_diag(h: float, q: int):
    return np.array([h, h**3 / 12.0, h**5 / 180.0, h**7 / 2800.0])[: q + 1]


def basis_table(X, h: float, q: int, order: int = 0):
    """d^order/dX^order of the local 1D basis at offsets X from the center.

    Returns an array of shape X.shape + (q+1,).  Orders above 3 vanish for
    this basis and are not needed anywhere.
    """
    X = np.asarray(X, dtype=float)
    one = np.ones_like(X)
    zero = np.zeros_like(X)
    if order == 0:
        cols = [one, X, X * X - h * h / 12.0, X**3 - 0.15 * h * h * X]
    elif order == 1:
        cols = [zero, one, 2.0 * X, 3.0 * X * X - 0.15 * h * h]
    elif order == 2:
        cols = [zero, zero, 2.0 * one, 6.0 * X]
    elif order == 3:
        cols = [zero, zero, zero, 6.0 * one]
    else:
        raise Unsupported(f"basis derivative order {order} not tabulated")
    return np.stack(cols[: q + 1], axis=-1)


def tensor_orders(q: int, naxes: int):
    """Exponent tuples of the tensor basis of total degree <= q over `naxes`
    axes, by degree and then with the earlier axes' exponents first."""
    return sorted((e for e in product(range(q + 1), repeat=naxes) if sum(e) <= q),
                  key=lambda e: (sum(e), [-a for a in e]))


@dataclass(frozen=True)
class Grid1D:
    xmin: float
    xmax: float
    nx: int

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.nx

    @property
    def axes(self):
        """(low end, cell width, cells) of each axis."""
        return ((self.xmin, self.dx, self.nx),)


@dataclass(frozen=True)
class Grid2D:
    xmin: float
    xmax: float
    nx: int
    ymin: float
    ymax: float
    ny: int

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.nx

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / self.ny

    @property
    def axes(self):
        return ((self.xmin, self.dx, self.nx), (self.ymin, self.dy, self.ny))


def table_dot(values, table):
    """Contract the trailing axis with a table through one BLAS matmul:
    (..., k) @ (k, l) -> (..., l).  All the hot basis contractions funnel
    through here; einsum would not hit BLAS for these shapes."""
    lead = values.shape[:-1]
    flat = values.reshape(-1, values.shape[-1])
    if not pool.large(values):
        return (flat @ table).reshape(lead + (table.shape[1],))
    # two row halves of one result.  Each half has thousands of rows, so
    # numpy hands it to the same gemm as the whole and every row rounds as
    # in one call (a one-row half would go through gemv, which sums apart).
    out = np.empty((flat.shape[0], table.shape[1]), np.result_type(flat, table))
    half = flat.shape[0] // 2
    halves = (slice(None, half), slice(half, None))
    list(pool.map(lambda s: np.matmul(flat[s], table, out=out[s]), halves))
    return out.reshape(lead + (table.shape[1],))


def _outer(factors):
    """Product of one (orders, nloc, points) factor per axis: outer over the
    orders and over the points, elementwise over the basis functions.  The
    result is C-contiguous, shaped (*orders, nloc, *points)."""
    n = len(factors)

    def spread(j, f):  # f's orders and its points, each at the j-th of n places
        k, nloc, p = f.shape
        left, right = (1,) * j, (1,) * (n - 1 - j)
        return f.reshape(left + (k,) + right + (nloc,) + left + (p,) + right)

    return reduce(mul, (spread(j, f) for j, f in enumerate(factors)))


def _points(cells, offsets):
    """Per axis, the coordinate of every point, shaped (*cells, points):
    each cell's coordinate on that axis plus the point offsets, the points
    in C order over the axes."""
    n = len(cells)
    grids = np.meshgrid(*offsets, indexing="ij")
    return tuple(c.reshape((1,) * j + (-1,) + (1,) * (n - j)) + g.ravel()
                 for j, (c, g) in enumerate(zip(cells, grids)))


class _TensorSpace:
    """Degree-q discontinuous space on the tensor basis over `grid.axes`.

    Coefficient arrays have shape (4, *cells, nloc); the component axis
    comes first so the constant matrices of the model apply along axis 0.
    Volume quadrature points are in C order over the axes: k = kx (q+1) + ky
    in 2D.
    """

    def __init__(self, grid, q: int):
        if q not in (1, 2, 3):
            raise Unsupported(f"polynomial degree q={q} (supported: 1, 2, 3)")
        self.grid, self.q = grid, q
        self.dim = len(grid.axes)
        self.names = "xy"[: self.dim]
        self.cells = tuple(n for _, _, n in grid.axes)
        self.orders = tensor_orders(q, self.dim)
        self.nloc = len(self.orders)
        self.nq = (q + 1) ** self.dim
        self.jet_keys = {d: _jet_keys(self.names, d) for d in (0, 1, 3)}
        self._exps = [np.array(e) for e in zip(*self.orders)]  # per axis
        xi, wt = gauss_rule(q + 1)
        hs = [h for _, h, _ in grid.axes]
        X = [0.5 * h * xi for h in hs]  # offsets from the cell centre
        self.axis_w = [0.5 * h * wt for h in hs]  # weights including the jacobian
        ends = [np.array([-0.5 * h, 0.5 * h]) for h in hs]

        def basis(pts):  # per axis, the basis and its derivatives: (4, nloc, points)
            return [np.stack([basis_table(p, h, 3, d)[:, e].T for d in range(4)])
                    for p, h, e in zip(pts, hs, self._exps)]

        at_pts, at_ends = basis(X), basis(ends)

        def tables(i=None):  # at the volume points, or on edges normal to axis i
            axes = sorted(range(self.dim), key=lambda j: j != i)  # sides outermost
            full = _outer([(at_ends if j == i else at_pts)[j] for j in axes])
            return {k: full[tuple(k.count(self.names[j]) for j in axes)]
                    .transpose(*range(1, self.dim + 1), 0) for k in self.jet_keys[3]}

        # vol[key]: (nq, nloc); edge[axis][key]: (2, *edge points, nloc),
        # side 0 on the low edge.  All are basis-major, so t.T and each
        # t[side].T are C-contiguous: a table's layout picks the BLAS kernel,
        # and so the rounding of its contractions.
        self.vol = {k: t.reshape(self.nq, self.nloc) for k, t in tables().items()}
        self.edge = {a: tables(i) for i, a in enumerate(self.names)}
        self.mass = np.prod([mass_diag(h, 3)[e] for h, e in zip(hs, self._exps)], 0)

        # weight-scaled tables for single-matmul projections of volume and
        # edge integrands, laid out like the tables they scale
        self.w = reduce(np.multiply.outer, self.axis_w).ravel()
        self.volw = {k: self.w[:, None] * self.vol[k] for k in self.jet_keys[1]}
        along = [self.axis_w[:i] + self.axis_w[i + 1:] for i in range(self.dim)]
        self.edgew = {a: reduce(np.multiply.outer, along[i], np.ones(()))[..., None]
                      * self.edge[a]["u"] for i, a in enumerate(self.names)}

        self.centres = [lo + (np.arange(n) + 0.5) * h for lo, h, n in grid.axes]
        faces = [lo + np.arange(n + 1) * h for lo, h, n in grid.axes]
        self.points = _points(self.centres, X)
        # the points on the edges normal to each axis, for source evaluation
        self.edge_points = {
            a: _points([faces[i] if j == i else c for j, c in enumerate(self.centres)],
                       [np.zeros(1) if j == i else x for j, x in enumerate(X)])
            for i, a in enumerate(self.names)}

    def zeros(self):
        return np.zeros((4, *self.cells, self.nloc))

    def project(self, fn):
        """L2 projection of fn(x [, y]) -> (4, ...) onto the DG space."""
        shape = (4, *self.cells, self.nq)
        vals = np.broadcast_to(np.asarray(fn(*self.points)), shape)
        return table_dot(vals, self.volw["u"]) / self.mass

    def volume_jet(self, coeffs, depth: int = 3):
        return {k: self.eval(coeffs, *map(k.count, self.names))
                for k in self.jet_keys[depth]}

    def point_values(self, coeffs, *coords):
        """Evaluate the broken polynomial at arbitrary points (one-sided on
        cell interfaces: the cell above the interface is used)."""
        cells, tab = [], np.ones(())
        for x, (lo, h, n), e in zip(coords, self.grid.axes, self._exps):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            j = np.clip(((x - lo) / h).astype(int), 0, n - 1)
            tab = tab * basis_table(x - (lo + (j + 0.5) * h), h, 3, 0)[:, e]
            cells.append(j)
        return np.einsum("cpl,pl->cp", coeffs[(slice(None), *cells)], tab)

    def integrate(self, values):
        """Sum of cell integrals of pointwise values at volume quad points."""
        return float(np.sum(values * self.w))

    def error_norms(self, coeffs, exact_fn):
        """(L2, max) norms of the error at the volume quadrature points,
        from one evaluation of exact_fn(x [, y])."""
        diff = self.eval(coeffs) - np.asarray(exact_fn(*self.points))
        return np.sqrt(self.integrate(diff**2)), float(np.max(np.abs(diff)))


class DGSpace1D(_TensorSpace):
    """Degree-q discontinuous space on a Grid1D: coefficients (4, nx, q+1)."""

    def eval(self, coeffs, order: int = 0):
        """Point values of the order-th x-derivative at volume quad points."""
        return table_dot(coeffs, self.vol["x" * order or "u"].T)

    def edge_jets(self, coeffs, axis: str, depth: int = 3):
        """Jets at each cell's (low, high) end (`axis` is "x"), each (4, nx)."""
        lo, hi = {}, {}
        for key in self.jet_keys[depth]:
            t = table_dot(coeffs, self.edge[axis][key].T)
            lo[key], hi[key] = t[..., 0], t[..., 1]
        return lo, hi


class DGSpace2D(_TensorSpace):
    """Degree-q discontinuous space on a Grid2D: coefficients (4, nx, ny,
    nloc) with nloc = (q+1)(q+2)/2."""

    def eval(self, coeffs, dx: int = 0, dy: int = 0):
        return table_dot(coeffs, self.vol["x" * dx + "y" * dy or "u"].T)

    def edge_jets(self, coeffs, axis: str, depth: int = 3):
        """Jets on each cell's (low, high) edges normal to `axis`."""
        lo, hi = {}, {}
        for key in self.jet_keys[depth]:
            t = self.edge[axis][key]
            lo[key] = table_dot(coeffs, t[0].T)
            hi[key] = table_dot(coeffs, t[1].T)
        return lo, hi


def convergence_orders(errors, cells):
    """Observed orders between successive levels, log(e_i / e_{i+1}) /
    log(n_{i+1} / n_i) for the errors e_i on n_i cells per axis."""
    if len(errors) < 2:
        raise InsufficientLevels("need at least two refinement levels")
    e = np.asarray(errors, dtype=float)
    n = np.asarray(cells, dtype=float)
    return np.log2(e[:-1] / e[1:]) / np.log2(n[1:] / n[:-1])
