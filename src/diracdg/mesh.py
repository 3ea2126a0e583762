"""Uniform Cartesian meshes and local orthogonal polynomial bases.

The local basis on a 1D cell with center x_j and width h is, in X = x - x_j,

    v0 = 1,  v1 = X,  v2 = X^2 - h^2/12,  v3 = X^3 - (3 h^2 / 20) X,

so the element mass matrix is diagonal: diag(h, h^3/12, h^5/180, h^7/2800).
2D cells use the tensor products v_a(X) v_b(Y) with total degree a + b <= q,
ordered (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), (3,0), (2,1), (1,2), (0,3).

Every integral in the suite (projection, residuals, error norms) uses the
same (q+1)-point Gauss-Legendre rule per axis; the nodes and weights are
hardcoded below to keep results bit-reproducible across platforms.

Both spaces give the schemes `mass`, `eval`/`volume_jet`, the weighted tables
`volw[(i, j)]` of the (i, j)-th derivative and `edge_values`/`edge_jets(coeffs,
axis)` on each cell's (low, high) edges normal to "x" (or "y" in 2D).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import InsufficientLevels, Unsupported

# Gauss-Legendre rules on [-1, 1], 32 significant digits.
_GL_TABLE = {
    2: (
        (
            "-0.57735026918962576450914878050196",
            "0.57735026918962576450914878050196",
        ),
        ("1.0", "1.0"),
    ),
    3: (
        (
            "-0.77459666924148337703585307995648",
            "0.0",
            "0.77459666924148337703585307995648",
        ),
        (
            "0.55555555555555555555555555555556",
            "0.88888888888888888888888888888889",
            "0.55555555555555555555555555555556",
        ),
    ),
    4: (
        (
            "-0.86113631159405257522394648889281",
            "-0.33998104358485626480266575910324",
            "0.33998104358485626480266575910324",
            "0.86113631159405257522394648889281",
        ),
        (
            "0.34785484513745385737306394922200",
            "0.65214515486254614262693605077800",
            "0.65214515486254614262693605077800",
            "0.34785484513745385737306394922200",
        ),
    ),
}


def _jet_keys(axes: str, depth: int):
    """Spatial-derivative keys of the pointwise jets up to order `depth`:
    "u" for the value, else the axes differentiated in, sorted."""
    return tuple("".join(c) or "u" for n in range(depth + 1)
                 for c in combinations_with_replacement(axes, n))


JET_KEYS_1D = {d: _jet_keys("x", d) for d in (1, 3)}
JET_KEYS_2D = {d: _jet_keys("xy", d) for d in (1, 3)}
# derivative orders of each key: one per axis in 2D, a plain int in 1D
_DERIV_1D = {k: k.count("x") for k in JET_KEYS_1D[3]}
_DERIV_2D = {k: (k.count("x"), k.count("y")) for k in JET_KEYS_2D[3]}


def gauss_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if n not in _GL_TABLE:
        raise Unsupported(f"no {n}-point quadrature rule (supported: 2, 3, 4)")
    nodes, weights = _GL_TABLE[n]
    return np.array([float(s) for s in nodes]), np.array([float(s) for s in weights])


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


def tensor_orders(q: int):
    """(a, b) exponent pairs of the 2D basis, graded-lexicographic."""
    return [(a, d - a) for d in range(q + 1) for a in range(d, -1, -1)]


def _check_degree(q: int):
    if q not in (1, 2, 3):
        raise Unsupported(f"polynomial degree q={q} (supported: 1, 2, 3)")


@dataclass(frozen=True)
class Grid1D:
    xmin: float
    xmax: float
    nx: int

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.nx

    def centers(self):
        return self.xmin + (np.arange(self.nx) + 0.5) * self.dx

    def interfaces(self):
        return self.xmin + np.arange(self.nx + 1) * self.dx


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

    def xcenters(self):
        return self.xmin + (np.arange(self.nx) + 0.5) * self.dx

    def ycenters(self):
        return self.ymin + (np.arange(self.ny) + 0.5) * self.dy

    def xinterfaces(self):
        return self.xmin + np.arange(self.nx + 1) * self.dx

    def yinterfaces(self):
        return self.ymin + np.arange(self.ny + 1) * self.dy


def table_dot(values, table):
    """Contract the trailing axis with a table through one BLAS matmul:
    (..., k) @ (k, l) -> (..., l).  All the hot basis contractions funnel
    through here; einsum would not hit BLAS for these shapes."""
    lead = values.shape[:-1]
    flat = values.reshape(-1, values.shape[-1]) @ table
    return flat.reshape(lead + (table.shape[1],))


class DGSpace1D:
    """Degree-q discontinuous space on a Grid1D.

    Coefficient arrays have shape (4, nx, q+1); the component axis comes
    first so the constant matrices of the model apply along axis 0.
    """

    dim = 1

    def __init__(self, grid: Grid1D, q: int):
        _check_degree(q)
        self.grid = grid
        self.q = q
        self.nloc = q + 1
        self.nq = q + 1
        h = grid.dx
        xi, wt = gauss_rule(self.nq)
        self.Xq = 0.5 * h * xi  # offsets from the cell center
        self.wq = 0.5 * h * wt  # weights including the jacobian
        # basis/derivative tables at volume quadrature points: (order, nq, nloc)
        self.phi = np.stack([basis_table(self.Xq, h, q, d) for d in range(4)])
        # traces at the two cell ends (side 0: -h/2, side 1: +h/2)
        ends = np.array([-0.5 * h, 0.5 * h])
        self.tr = np.stack([basis_table(ends, h, q, d) for d in range(4)])
        self.mass = mass_diag(h, q)
        self.xq = grid.centers()[:, None] + self.Xq[None, :]  # (nx, nq)
        # weight-scaled value and x-derivative tables, keyed like 2D volw
        self.volw = {(d, 0): self.wq[:, None] * self.phi[d] for d in (0, 1)}

    def zeros(self):
        return np.zeros((4, self.grid.nx, self.nloc))

    def project(self, fn):
        """L2 projection of fn(x) -> (4, ...) onto the DG space."""
        vals = np.asarray(fn(self.xq))
        return table_dot(vals, self.volw[(0, 0)]) / self.mass

    def eval(self, coeffs, order: int = 0):
        """Point values of the order-th x-derivative at volume quad points."""
        return table_dot(coeffs, self.phi[order].T)

    def volume_jet(self, coeffs, depth: int = 3):
        return {k: self.eval(coeffs, _DERIV_1D[k]) for k in JET_KEYS_1D[depth]}

    def edge_jets(self, coeffs, axis: str, depth: int = 3):
        """Jets at each cell's (low, high) end (`axis` is "x"), each (4, nx)."""
        lo, hi = {}, {}
        for key in JET_KEYS_1D[depth]:
            t = table_dot(coeffs, self.tr[_DERIV_1D[key]].T)
            lo[key], hi[key] = t[..., 0], t[..., 1]
        return lo, hi

    def edge_values(self, coeffs, axis: str):
        """Plain (low, high) end values of u, each (4, nx)."""
        t = table_dot(coeffs, self.tr[0].T)
        return t[..., 0], t[..., 1]

    def point_values(self, coeffs, x):
        """Evaluate the broken polynomial at arbitrary points (one-sided on
        cell interfaces: the cell to the right of the interface is used)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        g = self.grid
        j = np.clip(((x - g.xmin) / g.dx).astype(int), 0, g.nx - 1)
        X = x - (g.xmin + (j + 0.5) * g.dx)
        tab = basis_table(X, g.dx, self.q, 0)  # (npts, nloc)
        return np.einsum("cpl,pl->cp", coeffs[:, j, :], tab)

    def integrate(self, values):
        """Sum of cell integrals of pointwise values at volume quad points."""
        return float(np.sum(values * self.wq))

    def error_norms(self, coeffs, exact_fn):
        """(L2, max) norms of the error at the volume quadrature points,
        from one evaluation of exact_fn(x)."""
        diff = self.eval(coeffs) - np.asarray(exact_fn(self.xq))
        return np.sqrt(self.integrate(diff**2)), float(np.max(np.abs(diff)))


class DGSpace2D:
    """Degree-q discontinuous space on a Grid2D (tensor basis, total degree).

    Coefficients: (4, nx, ny, nloc) with nloc = (q+1)(q+2)/2.  Volume
    quadrature points are indexed k = kx * (q+1) + ky.
    """

    dim = 2

    def __init__(self, grid: Grid2D, q: int):
        _check_degree(q)
        self.grid = grid
        self.q = q
        self.orders = tensor_orders(q)
        self.nloc = len(self.orders)
        n1 = q + 1
        self.nq = n1 * n1
        xi, wt = gauss_rule(n1)
        hx, hy = grid.dx, grid.dy
        self.Xq = 0.5 * hx * xi
        self.Yq = 0.5 * hy * xi
        self.wxq = 0.5 * hx * wt
        self.wyq = 0.5 * hy * wt
        self.w2 = np.outer(self.wxq, self.wyq).ravel()

        a_idx = np.array([a for a, _ in self.orders])
        b_idx = np.array([b for _, b in self.orders])
        self._a_idx, self._b_idx = a_idx, b_idx
        px = [basis_table(self.Xq, hx, 3, d) for d in range(4)]  # (n1, 4)
        py = [basis_table(self.Yq, hy, 3, d) for d in range(4)]
        ex = [basis_table(np.array([-0.5 * hx, 0.5 * hx]), hx, 3, d) for d in range(4)]
        ey = [basis_table(np.array([-0.5 * hy, 0.5 * hy]), hy, 3, d) for d in range(4)]

        # vol[(i, j)]: (nq, nloc); edge[axis][(i, j)]: (2, n1, nloc), side 0
        # on the low edge, with the quadrature points along the edge
        self.vol, self.edge = {}, {"x": {}, "y": {}}
        for i in range(4):
            for j in range(4 - i):
                vt = px[i][:, None, a_idx] * py[j][None, :, b_idx]
                self.vol[(i, j)] = vt.reshape(self.nq, self.nloc)
                self.edge["x"][(i, j)] = ex[i][:, None, a_idx] * py[j][None, :, b_idx]
                self.edge["y"][(i, j)] = px[i][None, :, a_idx] * ey[j][:, None, b_idx]
        self.mass = mass_diag(hx, 3)[a_idx] * mass_diag(hy, 3)[b_idx]

        # weight-scaled tables for single-matmul projections of volume and
        # edge integrands
        self.volw = {k: self.w2[:, None] * t for k, t in self.vol.items()}
        self.edgew = {
            "x": self.wyq[None, :, None] * self.edge["x"][(0, 0)],
            "y": self.wxq[None, :, None] * self.edge["y"][(0, 0)],
        }

        cx, cy = grid.xcenters(), grid.ycenters()
        Xo, Yo = np.meshgrid(self.Xq, self.Yq, indexing="ij")
        self.xq = cx[:, None, None] + Xo.ravel()[None, None, :]  # (nx, 1, nq)
        self.yq = cy[None, :, None] + Yo.ravel()[None, None, :]  # (1, ny, nq)
        # (x, y) of the quadrature points on the edges normal to each axis,
        # for source evaluation: (nx+1, 1, 1) and (1, ny, n1) on "x" edges,
        # (nx, 1, n1) and (1, ny+1, 1) on "y" edges
        self.edge_points = {
            "x": (grid.xinterfaces()[:, None, None],
                  cy[None, :, None] + self.Yq[None, None, :]),
            "y": (cx[:, None, None] + self.Xq[None, None, :],
                  grid.yinterfaces()[None, :, None]),
        }

    def zeros(self):
        return np.zeros((4, self.grid.nx, self.grid.ny, self.nloc))

    def project(self, fn):
        shape = (4, self.grid.nx, self.grid.ny, self.nq)
        vals = np.broadcast_to(np.asarray(fn(self.xq, self.yq)), shape)
        return table_dot(vals, self.volw[(0, 0)]) / self.mass

    def eval(self, coeffs, dx: int = 0, dy: int = 0):
        return table_dot(coeffs, self.vol[(dx, dy)].T)

    def volume_jet(self, coeffs, depth: int = 3):
        return {k: self.eval(coeffs, *_DERIV_2D[k]) for k in JET_KEYS_2D[depth]}

    def edge_jets(self, coeffs, axis: str, depth: int = 3):
        """Jets on each cell's (low, high) edges normal to `axis`."""
        tabs = self.edge[axis]
        lo, hi = {}, {}
        for key in JET_KEYS_2D[depth]:
            t = tabs[_DERIV_2D[key]]
            lo[key] = table_dot(coeffs, t[0].T)
            hi[key] = table_dot(coeffs, t[1].T)
        return lo, hi

    def edge_values(self, coeffs, axis: str):
        """Plain traces of u on the edges normal to `axis` (both sides)."""
        t = self.edge[axis][(0, 0)]
        return table_dot(coeffs, t[0].T), table_dot(coeffs, t[1].T)

    def point_values(self, coeffs, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        g = self.grid
        jx = np.clip(((x - g.xmin) / g.dx).astype(int), 0, g.nx - 1)
        jy = np.clip(((y - g.ymin) / g.dy).astype(int), 0, g.ny - 1)
        X = x - (g.xmin + (jx + 0.5) * g.dx)
        Y = y - (g.ymin + (jy + 0.5) * g.dy)
        tx = basis_table(X, g.dx, 3, 0)[:, self._a_idx]
        ty = basis_table(Y, g.dy, 3, 0)[:, self._b_idx]
        return np.einsum("cpl,pl->cp", coeffs[:, jx, jy, :], tx * ty)

    def integrate(self, values):
        return float(np.sum(values * self.w2))

    def error_norms(self, coeffs, exact_fn):
        """(L2, max) norms of the error at the volume quadrature points,
        from one evaluation of exact_fn(x, y)."""
        diff = self.eval(coeffs) - np.asarray(exact_fn(self.xq, self.yq))
        return np.sqrt(self.integrate(diff**2)), float(np.max(np.abs(diff)))


def convergence_orders(errors, cells):
    """Observed orders between successive levels, log(e_i / e_{i+1}) /
    log(n_{i+1} / n_i) for the errors e_i on n_i cells per axis."""
    if len(errors) < 2:
        raise InsufficientLevels("need at least two refinement levels")
    e = np.asarray(errors, dtype=float)
    n = np.asarray(cells, dtype=float)
    return np.log2(e[:-1] / e[1:]) / np.log2(n[1:] / n[:-1])
