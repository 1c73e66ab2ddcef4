"""Sup and inf convolutions with the gauge-power kernel, plus domain shrinking.

The sup convolution of a field u at scale eps is the exact discrete maximum

    u^eps(x) = max_y [ u(y) - K(x, y) / (2 eps) ]

over all non-exterior nodes y, where K(x, y) is the gauge norm of x * y^-1
raised to the homogeneity exponent p (``kernel="right"``, the default) or
of x^-1 * y (``kernel="left"``).  Both agree on euclidean geometries.  Every
function here needs a group law, so grushin is refused.

Only the (x, y) pairs that can matter are evaluated; the results equal
those of a sweep over every pair, ties included.  They are evaluated by
``groups.pair_kernel`` (bit for bit ``gauge_kernel(multiply(...))``, one
coordinate column at a time) in blocks of at most ``_BLOCK`` pairs, small
enough for its passes to stay in cache: about 4 ns a pair on euclidean:2
and 9 ns on heisenberg1 on a 2-core Xeon.

*Window.*  The maximisation prunes candidates using the attainment bound
K <= 4 R0 eps (R0 = 2 ||u||_inf) with slack 2h; the pruned set always
contains y = x, so pruning never changes the maximum.  On both supported
group geometries K(x, y) >= |x_i - y_i|^p along every horizontal axis i
(the first ``horizontal_dim`` coordinates), so a y more than
threshold^(1/p) + h from x along one of them lies above the threshold.
The x nodes are taken in tiles of ``_TILE`` horizontal indices per axis,
and each tile meets only the y nodes inside its window, in ascending flat
order, so ``argmax`` picks the same node as over all of them.
``shrink_domain`` cuts its boundary band to the same windows.

*Extreme points.*  Along each axis a, the centred second difference
D_a(x, y) = (K(x + h e_a, y) - 2 K(x, y) + K(x - h e_a, y)) / h^2 is
jointly convex in (x, y).  It is identically 2 on euclidean:n.  On
heisenberg1, with u = x1 - y1 and v = x2 - y2, it is
12u^2 + 4v^2 + 8 y2^2 + 2h^2 along x1, 4u^2 + 12v^2 + 8 y1^2 + 2h^2 along
x2 and 2 along t, for either kernel.  Its maximum over a product of two
lattice sets is therefore reached at a pair of vertices of their convex
hulls, and each such vertex is the first or last node of its set on its
line along every axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedGeometryError
from .grids import GridDomain, ScalarField
from .groups import pair_kernel

_TILE = 4  # horizontal indices per axis in one tile of x nodes
_BLOCK = 65_536  # most (x, y) pairs evaluated at once: 512 kB per array, in cache


def _kernel_rows(dom: GridDomain, x_coords: np.ndarray, y_coords: np.ndarray, kernel: str) -> np.ndarray:
    """(rows, cols) kernels K(x, y) of x_coords against y_coords (groups.pair_kernel)."""
    return pair_kernel(dom.spec, x_coords, y_coords, kernel)


def _require_group(dom: GridDomain) -> None:
    if not dom.spec.is_group:
        raise UnsupportedGeometryError(
            f"the convolution needs a group law; {dom.spec.id} has none")


def _windowed_blocks(dom: GridDomain, x_flat: np.ndarray, y_flat: np.ndarray,
                     threshold: float):
    """Yield (xs, ys) blocks of flat indices covering every pair with K <= threshold.

    Each tile of x nodes is paired with the y nodes whose horizontal indices
    lie within ``reach`` of the tile's on every horizontal axis; any other y
    is more than threshold^(1/p) + h away along some axis.  ``reach`` is
    capped at the lattice, so an infinite threshold keeps every y.  ys keeps
    the order of ``y_flat``; tiles with no y in the window are skipped, and
    a tile with more than ``_BLOCK`` pairs is split by rows.
    """
    m = dom.spec.horizontal_dim
    hx = dom.multi_indices[x_flat, :m]
    hy = dom.multi_indices[y_flat, :m]
    radius = threshold ** (1.0 / dom.spec.gauge_exponent) / dom.h
    reach = int(min(radius, max(dom.dims))) + 1
    tile_dims = tuple(-(-d // _TILE) for d in dom.dims[:m])
    key = np.ravel_multi_index(tuple((hx // _TILE).T), tile_dims)
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        lo = hx[group].min(axis=0) - reach
        hi = hx[group].max(axis=0) + reach
        ys = y_flat[np.all((hy >= lo) & (hy <= hi), axis=1)]
        if ys.size == 0:
            continue
        xs = x_flat[group]
        rows = max(1, _BLOCK // ys.size)
        for start in range(0, xs.size, rows):
            yield xs[start : start + rows], ys


@dataclass
class ConvolutionReport:
    """Result of a sup or inf convolution."""

    field: ScalarField
    epsilon: float
    side: str
    attainment: np.ndarray  # flat index of the attaining node, -1 off-lattice
    r0: float
    shrunken: np.ndarray  # nodes of shrink_domain(domain, (1 + 4 r0) eps)


def shrink_domain(dom: GridDomain, eps: float, kernel: str = "right") -> np.ndarray:
    """Interior nodes at kernel distance >= eps from the boundary band.

    Returns the flat indices of {x interior : min_y in band K(x, y) >= eps}.
    eps = 0 keeps every interior node.  Band nodes outside an x tile's
    window for threshold eps have K > eps and cannot remove x, so only the
    band nodes inside it are evaluated.
    """
    _require_group(dom)
    if not eps >= 0:
        raise ParameterError(f"shrink threshold must be nonnegative, got {eps}")
    interior = dom.interior_flat
    if eps == 0.0 or dom.boundary_flat.size == 0:
        return interior.copy()
    keep = np.ones(dom.n_nodes, dtype=bool)
    for xs, ys in _windowed_blocks(dom, interior, dom.boundary_flat, eps):
        K = _kernel_rows(dom, dom.coords[xs], dom.coords[ys], kernel)
        keep[xs] = K.min(axis=1) >= eps
    return interior[keep[interior]]


def sup_convolution(u: ScalarField, eps: float, kernel: str = "right") -> ConvolutionReport:
    """Exact discrete sup convolution at scale eps > 0.

    Candidates y with K(x, y) above the threshold 4 R0 eps + 2h are masked
    out; those outside x's tile window are above it and never evaluated.
    """
    dom = u.domain
    _require_group(dom)
    if not eps > 0:
        raise ParameterError(f"sup convolution needs eps > 0, got {eps}")
    nodes = dom.nonexterior_flat
    r0 = 2.0 * u.sup_norm()
    threshold = 4.0 * r0 * eps + 2.0 * dom.h
    out = np.full(dom.n_nodes, np.nan)
    arg = np.full(dom.n_nodes, -1, dtype=np.int64)
    inv_two_eps = 1.0 / (2.0 * eps)
    for xs, ys in _windowed_blocks(dom, nodes, nodes, threshold):
        K = _kernel_rows(dom, dom.coords[xs], dom.coords[ys], kernel)
        vals = u.values[ys][None, :] - K * inv_two_eps
        vals = np.where(K <= threshold, vals, -np.inf)
        best = np.argmax(vals, axis=1)
        out[xs] = vals[np.arange(xs.size), best]
        arg[xs] = ys[best]
    field = ScalarField(dom, out, validate=False)
    shrunk = shrink_domain(dom, (1.0 + 4.0 * r0) * eps, kernel)
    return ConvolutionReport(field, eps, "sup", arg, r0, shrunk)


def inf_convolution(v: ScalarField, eps: float, kernel: str = "right") -> ConvolutionReport:
    """Inf convolution, computed by duality as -sup_convolution(-v)."""
    neg = ScalarField(v.domain, -v.values, validate=False)
    rep = sup_convolution(neg, eps, kernel)
    field = ScalarField(v.domain, -rep.field.values, validate=False)
    return ConvolutionReport(field, eps, "inf", rep.attainment, rep.r0, rep.shrunken)


def _centred_rows(dom: GridDomain, axis: int) -> np.ndarray:
    """Interior nodes whose two neighbours along ``axis`` are non-exterior."""
    stride = int(dom.strides[axis])
    pos = dom.multi_indices[:, axis]
    idx = np.flatnonzero(dom.interior_mask & (pos >= 1) & (pos <= dom.dims[axis] - 2))
    usable = dom.nonexterior_mask[idx - stride] & dom.nonexterior_mask[idx + stride]
    return idx[usable]


def _extreme_nodes(dom: GridDomain, flat: np.ndarray) -> np.ndarray:
    """Nodes of a set that are first or last of it on their line along every axis.

    They include every vertex of the set's convex hull: a node with nodes of
    the set on both sides along some axis lies between them.
    """
    grid = np.zeros(dom.n_nodes, dtype=bool)
    grid[flat] = True
    grid = grid.reshape(dom.dims)
    keep = grid.copy()
    for axis in range(grid.ndim):
        count = np.cumsum(grid, axis=axis)
        keep &= (count == 1) | (count == count.take([-1], axis=axis))
    return np.flatnonzero(keep)


def semiconvexity_modulus(u: ScalarField) -> float:
    """Most negative centred second difference over interior nodes and axes.

    Values are divided by h^2, so a smooth field reports roughly its smallest
    pure second derivative (e.g. -2 for u = -|x|^2).
    """
    dom = u.domain
    vals = u.values
    worst = np.inf
    for axis in range(dom.spec.dim):
        stride = int(dom.strides[axis])
        idx = _centred_rows(dom, axis)
        if idx.size == 0:
            continue
        second = vals[idx + stride] - 2.0 * vals[idx] + vals[idx - stride]
        worst = min(worst, float(second.min()) / dom.h**2)
    if not np.isfinite(worst):
        raise ParameterError("domain has no interior node with two axis neighbours")
    return worst


def kernel_second_difference_bound(dom: GridDomain, kernel: str = "right") -> float:
    """Max positive centred second x-difference of the kernel, over all (x, y).

    Divided by h^2; used as the measured constant C_d in the semiconvexity
    bound modulus(u^eps) >= -C_d / eps.  The second difference is jointly
    convex in (x, y) (see the module docstring), so only the extreme nodes
    of the centred rows and of the non-exterior set are paired.
    """
    _require_group(dom)
    y_coords = dom.coords[_extreme_nodes(dom, dom.nonexterior_flat)]
    worst = 0.0
    for axis in range(dom.spec.dim):
        stride = int(dom.strides[axis])
        idx = _extreme_nodes(dom, _centred_rows(dom, axis))
        chunk = max(1, _BLOCK // (3 * y_coords.shape[0]))
        for start in range(0, idx.size, chunk):
            sel = idx[start : start + chunk]
            Kc = _kernel_rows(dom, dom.coords[sel], y_coords, kernel)
            Kp = _kernel_rows(dom, dom.coords[sel + stride], y_coords, kernel)
            Km = _kernel_rows(dom, dom.coords[sel - stride], y_coords, kernel)
            second = (Kp - 2.0 * Kc + Km) / dom.h**2
            worst = max(worst, float(second.max()))
    return worst
