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

*Window.*  y = x scores u(x), so the maximiser y* of x scores at least
that: K(x, y*) <= 2 eps (u(y*) - u(x)) <= 2 eps (max u - u(x)).  Every y
above this attainment bound scores strictly less than y = x and cannot
attain or tie, so no mask is needed and the y outside the window are never
evaluated.  The bound is padded by a relative margin for the rounding of
u(y) - K / (2 eps); a constant field has bound 0 up to that margin, and
each x then meets itself alone.  The x nodes are taken in cubic tiles of
about ``_TILE_NODES`` nodes, each with the largest bound of its nodes.  The
window of a tile is a set of index ranges along the last axis, one per
line within bound^(1/p) of the tile along the axes before it; p is the
homogeneity exponent, and K(x, y) >= |x_i - y_i|^p along every horizontal
axis.  On euclidean:n a line keeps the y whose squared distance to the
tile stays within the bound.  On heisenberg1 the line along t keeps the y
whose twisted vertical term +-(x_t - y_t) + 2 (x_0 y_1 - x_1 y_0) can stay
within the square root of what the horizontal gaps leave of the bound, so
a tile meets only the t levels that can hold its maximisers.  The window
lists y in ascending flat order, so ``argmax`` picks the same node as
over all of them.  ``shrink_domain`` cuts its boundary band to the windows
of its own threshold.

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
from functools import reduce

import numpy as np

from .errors import ParameterError, UnsupportedGeometryError
from .grids import GridDomain, ScalarField
from .groups import pair_kernel

_TILE_NODES = 64  # about this many x nodes in one tile
_BLOCK = 65_536  # most (x, y) pairs evaluated at once: 512 kB per array, in cache


def _kernel_rows(dom: GridDomain, x_coords: np.ndarray, y_coords: np.ndarray, kernel: str) -> np.ndarray:
    """(rows, cols) kernels K(x, y) of x_coords against y_coords (groups.pair_kernel)."""
    return pair_kernel(dom.spec, x_coords, y_coords, kernel)


def _require_group(dom: GridDomain) -> None:
    if not dom.spec.is_group:
        raise UnsupportedGeometryError(
            f"the convolution needs a group law; {dom.spec.id} has none")


def _window(dom: GridDomain, lo: np.ndarray, hi: np.ndarray, bound: float,
            kernel: str) -> np.ndarray:
    """Flat indices, ascending, of every y with K(x, y) <= bound for some x in a tile.

    The tile spans the multi-indices [lo, hi].  The window is a set of lines
    along the last axis, one per index of the axes before it within
    bound^(1/p) of the tile.  On euclidean:n, K is at least the squared
    index gaps to the tile along those axes, g, plus the squared difference
    along the last axis.  On heisenberg1, K(x, y) >= g^2 + v^2 with
    v = +-(x_t - y_t) + w and w = 2 (x_0 y_1 - x_1 y_0) (the minus sign for
    the left kernel); on one line, w is linear in x and spans the values at
    the tile's corners.  ``bound`` must already allow for rounding.
    """
    spec, h = dom.spec, dom.h
    dims = np.asarray(dom.dims)
    last = spec.dim - 1
    reach = int(min(bound ** (1.0 / spec.gauge_exponent) / h + 1e-9, dims.max()))
    ticks = [np.arange(max(lo[a] - reach, 0), min(hi[a] + reach, dims[a] - 1) + 1)
             for a in range(last)]
    g = reduce(np.add.outer, [(np.maximum(np.maximum(lo[a] - j, j - hi[a]), 0) * h) ** 2
                              for a, j in enumerate(ticks)], np.zeros(())).reshape(-1)
    x_lo = dom.lower[last] + lo[last] * h
    x_hi = dom.lower[last] + hi[last] * h
    with np.errstate(invalid="ignore"):
        if spec.name == "euclidean":
            half = np.sqrt(bound - g)
            y_lo, y_hi = x_lo - half, x_hi + half
        else:
            half = np.sqrt(bound - g * g)
            y0, y1 = (dom.lower[a] + j * h for a, j in enumerate(ticks))
            x0, x1 = (dom.lower[a] + np.array([lo[a], hi[a]]) * h for a in range(2))
            w = 2.0 * (np.multiply.outer(x0, y1)[:, None, None, :]
                       - np.multiply.outer(x1, y0)[None, :, :, None])
            w = w.reshape(4, -1)
            if kernel == "right":  # y_t = x_t + w -+ v
                y_lo, y_hi = x_lo + w.min(axis=0) - half, x_hi + w.max(axis=0) + half
            else:  # y_t = x_t - w +- v
                y_lo, y_hi = x_lo - w.max(axis=0) - half, x_hi - w.min(axis=0) + half
        first = np.ceil((y_lo - dom.lower[last]) / h - 1e-9)
        stop = np.floor((y_hi - dom.lower[last]) / h + 1e-9) + 1
    # fmax and fmin also map an empty line (NaN) to first = stop
    first = np.fmin(np.fmax(first, 0), dims[last]).astype(np.int64)
    stop = np.fmin(np.fmax(stop, first), dims[last]).astype(np.int64)
    starts = first + reduce(np.add.outer, [j * dom.strides[a] for a, j in enumerate(ticks)],
                            np.zeros((), dtype=np.int64)).reshape(-1)
    counts = stop - first
    total = int(counts.sum())
    run_start = np.cumsum(counts) - counts
    return np.repeat(starts - run_start, counts) + np.arange(total)


def _windowed_blocks(dom: GridDomain, x_flat: np.ndarray, y_mask: np.ndarray,
                     bound: np.ndarray, kernel: str):
    """Yield (xs, ys) blocks of flat indices covering every pair that can matter.

    The x nodes are taken in cubic tiles of about ``_TILE_NODES`` nodes.  A pair
    can matter when K(x, y) <= bound[i] for x = x_flat[i]; a tile meets
    the nodes of ``y_mask`` in its ``_window`` for the largest bound in the
    tile, in ascending flat order.  Tiles with no such y are skipped, and a
    tile with more than ``_BLOCK`` pairs is split by rows.
    """
    spec = dom.spec
    # what the rounding of coordinates and of K can add to K
    scale = 1.0 + float(np.max(np.abs([dom.lower, dom.upper])))
    slop = 1e-12 * scale ** spec.gauge_exponent
    width = max(1, round(_TILE_NODES ** (1.0 / len(dom.dims))))
    mi = dom.multi_indices[x_flat]
    key = np.ravel_multi_index(tuple((mi // width).T), tuple(-(-d // width) for d in dom.dims))
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    heads = np.concatenate(([0], cuts))
    tile_bound = np.maximum.reduceat(np.broadcast_to(bound, x_flat.shape)[order], heads)
    tile_lo = np.minimum.reduceat(mi[order], heads)
    tile_hi = np.maximum.reduceat(mi[order], heads)
    for xs, b, lo, hi in zip(np.split(x_flat[order], cuts), tile_bound, tile_lo, tile_hi):
        ys = _window(dom, lo, hi, b * (1.0 + 1e-9) + slop, kernel)
        ys = ys[y_mask[ys]]
        if ys.size == 0:
            continue
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
    for xs, ys in _windowed_blocks(dom, interior, dom.boundary_mask, np.float64(eps), kernel):
        K = _kernel_rows(dom, dom.coords[xs], dom.coords[ys], kernel)
        keep[xs] = K.min(axis=1) >= eps
    return interior[keep[interior]]


def sup_convolution(u: ScalarField, eps: float, kernel: str = "right") -> ConvolutionReport:
    """Exact discrete sup convolution at scale eps > 0.

    Each tile of x nodes meets only the y nodes within its attainment bound
    K <= 2 eps (max u - min over the tile of u), see the module docstring.
    """
    dom = u.domain
    _require_group(dom)
    if not eps > 0:
        raise ParameterError(f"sup convolution needs eps > 0, got {eps}")
    nodes = dom.nonexterior_flat
    vals = u.values
    r0 = 2.0 * u.sup_norm()
    inv_two_eps = 1.0 / (2.0 * eps)
    # u(y) - K / (2 eps) >= u(x) needs K <= 2 eps (max u - u(x)); the pad
    # covers the rounding of both sides, underflow included
    pad = 2.0**-50 * r0 + 2.0**-1000
    with np.errstate(divide="ignore"):
        bound = (np.max(vals[nodes]) - vals[nodes] + pad) * (1.0 + 2.0**-40) \
            / np.float64(inv_two_eps)
    out = np.full(dom.n_nodes, np.nan)
    arg = np.full(dom.n_nodes, -1, dtype=np.int64)
    for xs, ys in _windowed_blocks(dom, nodes, dom.nonexterior_mask, bound, kernel):
        K = _kernel_rows(dom, dom.coords[xs], dom.coords[ys], kernel)
        K *= inv_two_eps
        vals_xy = np.subtract(vals[ys], K, out=K)
        best = np.argmax(vals_xy, axis=1)
        out[xs] = vals_xy[np.arange(xs.size), best]
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
