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
a tile meets only the t levels that can hold its maximisers.  Every y
that can attain is in the window, so the maximum over it is the value
over all of them.  ``shrink_domain`` first drops every x that has a band
node y with K(x, y) below its threshold among the nearest band nodes along
x's axis lines (one forward and one backward accumulate per axis), then
cuts the boundary band to the windows of its threshold for the x that are
left.  The windows are array passes over a table with one row per (tile,
line), for groups of consecutive tiles: a group's table and its
concatenated windows each stay within ``_BLOCK`` entries unless one tile's
window alone is larger, so memory does not grow with the lattice or with
eps, up to eps = inf.

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
from .groups import gauge_kernel, inverse, multiply, pair_kernel

_TILE_NODES = 64  # about this many x nodes in one tile
_BLOCK = 65_536  # most (x, y) pairs evaluated at once: 512 kB per array, in cache


def _kernel_rows(dom: GridDomain, x_coords: np.ndarray, y_coords: np.ndarray, kernel: str) -> np.ndarray:
    """(rows, cols) kernels K(x, y) of x_coords against y_coords (groups.pair_kernel)."""
    return pair_kernel(dom.spec, x_coords, y_coords, kernel)


def _require_group(dom: GridDomain) -> None:
    if not dom.spec.is_group:
        raise UnsupportedGeometryError(
            f"the convolution needs a group law; {dom.spec.id} has none")


def _runs(sizes: np.ndarray, limit: int):
    """Yield [start, stop) runs of consecutive items whose sizes sum to at most limit.

    An item larger than ``limit`` is a run of its own.
    """
    start, total = 0, 0
    for i, size in enumerate(sizes.tolist()):
        if i > start and total + size > limit:
            yield start, i
            start, total = i, 0
        total += size
    if sizes.size:
        yield start, sizes.size


def _lines(dom: GridDomain, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray,
           tick_lo: np.ndarray, ticks: np.ndarray, kernel: str):
    """(starts, counts): the flat index runs of the window lines of a group of tiles.

    Row i of each argument describes one tile: its corner multi-indices lo
    and hi, its bound (already allowing for rounding) and, along each axis
    before the last, the first index of its lines and their number.  A line
    runs along the last axis, one per combination of those indices, tile by
    tile and in C order within a tile; it keeps the y that can satisfy the
    bound for some x in the tile.  On euclidean:n, K is at least the
    squared index gaps to the tile along the axes before the last, g, plus
    the squared difference along the last axis.  On heisenberg1,
    K(x, y) >= g^2 + v^2 with v = +-(x_t - y_t) + w and
    w = 2 (x_0 y_1 - x_1 y_0) (the minus sign for the left kernel); on one
    line, w is linear in x and spans the values at the tile's corners.
    """
    spec, h = dom.spec, dom.h
    last = spec.dim - 1
    n_lines = ticks.prod(axis=1)
    tile = np.repeat(np.arange(n_lines.size), n_lines)
    rest = np.arange(tile.size) - np.repeat(np.cumsum(n_lines) - n_lines, n_lines)
    j = np.empty((last, tile.size), dtype=np.int64)
    for a in reversed(range(last)):
        rest, j[a] = np.divmod(rest, ticks[tile, a])
        j[a] += tick_lo[tile, a]
    g = np.zeros(tile.size)
    for a in range(last):
        g = g + (np.maximum(np.maximum(lo[tile, a] - j[a], j[a] - hi[tile, a]), 0) * h) ** 2
    bound = bound[tile]
    x_lo = (dom.lower[last] + lo[:, last] * h)[tile]
    x_hi = (dom.lower[last] + hi[:, last] * h)[tile]
    with np.errstate(invalid="ignore"):
        if spec.name == "euclidean":
            half = np.sqrt(bound - g)
            y_lo, y_hi = x_lo - half, x_hi + half
        else:
            half = np.sqrt(bound - g * g)
            y0, y1 = (dom.lower[a] + j[a] * h for a in range(2))
            x0, x1 = ([(dom.lower[a] + c[:, a] * h)[tile] for c in (lo, hi)] for a in range(2))
            w = [2.0 * (c0 * y1 - c1 * y0) for c0 in x0 for c1 in x1]
            w_min, w_max = reduce(np.minimum, w), reduce(np.maximum, w)
            if kernel == "right":  # y_t = x_t + w -+ v
                y_lo, y_hi = x_lo + w_min - half, x_hi + w_max + half
            else:  # y_t = x_t - w +- v
                y_lo, y_hi = x_lo - w_max - half, x_hi - w_min + half
        first = np.ceil((y_lo - dom.lower[last]) / h - 1e-9)
        stop = np.floor((y_hi - dom.lower[last]) / h + 1e-9) + 1
    # fmax and fmin also map an empty line (NaN) to first = stop
    first = np.fmin(np.fmax(first, 0), dom.dims[last]).astype(np.int64)
    stop = np.fmin(np.fmax(stop, first), dom.dims[last]).astype(np.int64)
    starts = first.copy()
    for a in range(last):
        starts += j[a] * dom.strides[a]
    return starts, stop - first


def _windowed_blocks(dom: GridDomain, x_flat: np.ndarray, y_mask: np.ndarray,
                     bound: np.ndarray, kernel: str):
    """Yield (xs, ys) blocks of flat indices covering every pair that can matter.

    The x nodes are taken in cubic tiles of about ``_TILE_NODES`` nodes.  A pair
    can matter when K(x, y) <= bound[i] for x = x_flat[i]; a tile meets
    the nodes of ``y_mask`` in its window for the largest bound in the tile
    (see the module docstring), in ascending flat order.  Tiles with no
    such y are skipped, and a tile with more than ``_BLOCK`` pairs is split
    by rows.  The windows of consecutive tiles are computed together, by
    ``_lines``, in groups whose lines and then whose concatenated windows
    number at most ``_BLOCK`` unless one tile alone has more.
    """
    spec, h = dom.spec, dom.h
    last = spec.dim - 1
    # what the rounding of coordinates and of K can add to K
    scale = 1.0 + float(np.max(np.abs([dom.lower, dom.upper])))
    slop = 1e-12 * scale ** spec.gauge_exponent
    width = max(1, round(_TILE_NODES ** (1.0 / len(dom.dims))))
    mi = dom.multi_indices[x_flat]
    key = np.ravel_multi_index(tuple((mi // width).T), tuple(-(-d // width) for d in dom.dims))
    order = np.argsort(key, kind="stable")
    x_sorted = x_flat[order]
    heads = np.concatenate(([0], np.flatnonzero(np.diff(key[order])) + 1))
    tails = np.append(heads[1:], x_flat.size)
    tile_bound = np.maximum.reduceat(np.broadcast_to(bound, x_flat.shape)[order], heads) \
        * (1.0 + 1e-9) + slop
    tile_lo = np.minimum.reduceat(mi[order], heads)
    tile_hi = np.maximum.reduceat(mi[order], heads)
    # lines within bound^(1/p) of the tile along the axes before the last;
    # a scalar power per tile, as numpy's array power may round differently
    top = max(dom.dims)
    reach = np.array([int(min(b ** (1.0 / spec.gauge_exponent) / h + 1e-9, top))
                      for b in tile_bound.tolist()], dtype=np.int64)[:, None]
    tick_lo = np.maximum(tile_lo[:, :last] - reach, 0)
    ticks = np.minimum(tile_hi[:, :last] + reach, np.asarray(dom.dims[:last], dtype=np.int64) - 1) - tick_lo + 1
    n_lines = ticks.prod(axis=1)
    for t0, t1 in _runs(n_lines, _BLOCK):
        starts, counts = _lines(dom, tile_lo[t0:t1], tile_hi[t0:t1], tile_bound[t0:t1],
                                tick_lo[t0:t1], ticks[t0:t1], kernel)
        line_ends = np.cumsum(n_lines[t0:t1])
        line_heads = line_ends - n_lines[t0:t1]
        sizes = np.add.reduceat(counts, line_heads)
        for s0, s1 in _runs(sizes, _BLOCK):
            lines = slice(line_heads[s0], line_ends[s1 - 1])
            c = counts[lines]
            ys = np.repeat(starts[lines] - (np.cumsum(c) - c), c) + np.arange(int(c.sum()))
            keep = y_mask[ys]
            # the kept y of tile t0 + s0 + i are ys[cuts[i] : cuts[i + 1]]
            cuts = np.concatenate(([0], np.cumsum(keep)))
            cuts = cuts[np.concatenate(([0], np.cumsum(sizes[s0:s1])))]
            ys = ys[keep]
            for t, a, b in zip(range(t0 + s0, t0 + s1), cuts[:-1].tolist(), cuts[1:].tolist()):
                if a == b:
                    continue
                xs = x_sorted[heads[t] : tails[t]]
                rows = max(1, _BLOCK // (b - a))
                for start in range(0, xs.size, rows):
                    yield xs[start : start + rows], ys[a:b]


@dataclass
class ConvolutionReport:
    """Result of a sup or inf convolution."""

    field: ScalarField
    r0: float
    shrunken: np.ndarray  # nodes of shrink_domain(domain, (1 + 4 r0) eps)


def _axis_band_nodes(dom: GridDomain, x_flat: np.ndarray) -> np.ndarray:
    """(2 n, len(x_flat)) nearest band nodes of each x along its axis lines.

    Rows 2a and 2a + 1 hold the flat index of the last band node before x
    and of the first one after it on x's line along axis a, -1 where there
    is none; exterior nodes between them do not matter.
    """
    band = dom.boundary_mask.reshape(dom.dims)
    idx = np.arange(dom.n_nodes).reshape(dom.dims)
    rows = []
    for axis in range(band.ndim):
        before = np.where(band, idx, -1)
        np.maximum.accumulate(before, axis=axis, out=before)
        after = np.flip(np.where(band, idx, dom.n_nodes), axis)
        np.minimum.accumulate(after, axis=axis, out=after)
        rows += [before.reshape(-1)[x_flat], np.flip(after, axis).reshape(-1)[x_flat]]
    out = np.stack(rows)
    out[out == dom.n_nodes] = -1
    return out


def shrink_domain(dom: GridDomain, eps: float, kernel: str = "right") -> np.ndarray:
    """Interior nodes at kernel distance >= eps from the boundary band.

    Returns the flat indices of {x interior : min_y in band K(x, y) >= eps}.
    eps = 0 keeps every interior node.  Any one band node y with
    K(x, y) < eps removes x, so the nearest band nodes along x's axis lines
    are tried first, elementwise (``gauge_kernel(multiply(...))``, bit for
    bit the K of ``pair_kernel``).  The x they do not remove meet the band
    nodes of their tile's window for threshold eps; the band nodes outside
    it have K > eps and cannot remove x.
    """
    _require_group(dom)
    if not eps >= 0:
        raise ParameterError(f"shrink threshold must be nonnegative, got {eps}")
    if kernel not in ("right", "left"):
        raise ParameterError(f"kernel must be 'right' or 'left', got {kernel!r}")
    interior = dom.interior_flat
    if eps == 0.0 or dom.boundary_flat.size == 0:
        return interior.copy()
    spec = dom.spec
    ys = _axis_band_nodes(dom, interior)
    pair = ys >= 0
    x, y = dom.coords[np.broadcast_to(interior, ys.shape)[pair]], dom.coords[ys[pair]]
    if kernel == "right":
        K = gauge_kernel(spec, multiply(spec, x, inverse(spec, y)))
    else:
        K = gauge_kernel(spec, multiply(spec, inverse(spec, x), y))
    near = np.zeros(ys.shape, dtype=bool)
    near[pair] = K < eps
    rest = interior[~near.any(axis=0)]
    keep = np.ones(dom.n_nodes, dtype=bool)
    if rest.size:
        for xs, ys in _windowed_blocks(dom, rest, dom.boundary_mask, np.float64(eps), kernel):
            K = _kernel_rows(dom, dom.coords[xs], dom.coords[ys], kernel)
            keep[xs] = K.min(axis=1) >= eps
    return rest[keep[rest]]


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
    for xs, ys in _windowed_blocks(dom, nodes, dom.nonexterior_mask, bound, kernel):
        K = _kernel_rows(dom, dom.coords[xs], dom.coords[ys], kernel)
        K *= inv_two_eps
        out[xs] = np.subtract(vals[ys], K, out=K).max(axis=1)
    field = ScalarField(dom, out, validate=False)
    shrunk = shrink_domain(dom, (1.0 + 4.0 * r0) * eps, kernel)
    return ConvolutionReport(field, r0, shrunk)


def inf_convolution(v: ScalarField, eps: float, kernel: str = "right") -> ConvolutionReport:
    """Inf convolution, computed by duality as -sup_convolution(-v)."""
    neg = ScalarField(v.domain, -v.values, validate=False)
    rep = sup_convolution(neg, eps, kernel)
    field = ScalarField(v.domain, -rep.field.values, validate=False)
    return ConvolutionReport(field, rep.r0, rep.shrunken)


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
