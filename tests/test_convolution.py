import collections
from functools import lru_cache, reduce

import numpy as np
import pytest

from subinf import convolution, groups
from subinf.errors import ParameterError, UnsupportedGeometryError
from subinf.grids import BOUNDARY, EXTERIOR, INTERIOR, GridDomain, ScalarField


def bump_field(dom):
    r2 = np.sum(dom.coords**2, axis=1)
    return ScalarField(dom, np.exp(-2.0 * r2))


@pytest.fixture
def euclid_dom():
    return GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.25)


def test_sup_convolution_dominates(euclid_dom):
    u = bump_field(euclid_dom)
    rep = convolution.sup_convolution(u, 0.1)
    ne = euclid_dom.nonexterior_flat
    # y = x is always a candidate with K(x,x) = 0, so u^eps >= u exactly
    assert np.all(rep.field.values[ne] >= u.values[ne])


def test_sup_convolution_monotone_in_eps(euclid_dom):
    u = bump_field(euclid_dom)
    ne = euclid_dom.nonexterior_flat
    small = convolution.sup_convolution(u, 0.05).field.values[ne]
    large = convolution.sup_convolution(u, 0.2).field.values[ne]
    assert np.all(large >= small)


def test_inf_convolution_duality(euclid_dom):
    u = bump_field(euclid_dom)
    ne = euclid_dom.nonexterior_flat
    inf_rep = convolution.inf_convolution(u, 0.1)
    neg = ScalarField(euclid_dom, -u.values)
    sup_rep = convolution.sup_convolution(neg, 0.1)
    assert np.array_equal(inf_rep.field.values[ne], -sup_rep.field.values[ne])
    assert np.all(inf_rep.field.values[ne] <= u.values[ne])


def test_eps_must_be_positive(euclid_dom):
    u = bump_field(euclid_dom)
    for bad in (0.0, -0.5, np.nan):
        with pytest.raises(ParameterError):
            convolution.sup_convolution(u, bad)
        with pytest.raises(ParameterError):
            convolution.inf_convolution(u, bad)


def test_kernel_side_validation(euclid_dom):
    u = bump_field(euclid_dom)
    with pytest.raises(ParameterError):
        convolution.sup_convolution(u, 0.1, kernel="middle")


def test_left_and_right_kernels_agree_on_euclidean(euclid_dom):
    u = bump_field(euclid_dom)
    ne = euclid_dom.nonexterior_flat
    r = convolution.sup_convolution(u, 0.1, kernel="right").field.values[ne]
    l = convolution.sup_convolution(u, 0.1, kernel="left").field.values[ne]
    assert np.array_equal(r, l)


def test_shrink_domain_thresholds(euclid_dom):
    assert np.array_equal(convolution.shrink_domain(euclid_dom, 0.0),
                          euclid_dom.interior_flat)
    # kernel = squared euclidean distance to the band nodes at |x|_inf = 1;
    # a node survives the 0.3 threshold iff its max coordinate is <= 0.7
    kept = convolution.shrink_domain(euclid_dom, 0.3**2)
    expected = np.flatnonzero(np.max(np.abs(euclid_dom.coords), axis=1) <= 0.7)
    assert np.array_equal(kept, expected)
    assert kept.size == 25
    for bad in (-1.0, np.nan):
        with pytest.raises(ParameterError):
            convolution.shrink_domain(euclid_dom, bad)


def test_semiconvexity_modulus_of_concave_parabola(euclid_dom):
    u = ScalarField.from_function(euclid_dom, lambda c: -np.sum(c**2, axis=1))
    assert np.isclose(convolution.semiconvexity_modulus(u), -2.0, atol=1e-10)


def test_sup_convolution_improves_semiconvexity(euclid_dom):
    # a sharp concave kink has modulus ~ -2/h; the sup convolution lifts it
    u = ScalarField.from_function(euclid_dom,
                                  lambda c: -np.abs(c[:, 0] - 0.125))
    before = convolution.semiconvexity_modulus(u)
    eps = 0.2
    rep = convolution.sup_convolution(u, eps)
    after = convolution.semiconvexity_modulus(rep.field)
    c_d = convolution.kernel_second_difference_bound(euclid_dom)
    assert after > before
    assert after >= -c_d / (2.0 * eps) - 1e-9


def test_kernel_second_difference_bound_euclidean(euclid_dom):
    # K(x, y) = |x - y|^2 has second difference exactly 2 along each axis,
    # and at dyadic h every step of it is exact
    assert convolution.kernel_second_difference_bound(euclid_dom) == 2.0


# -- dense references: every (x, y) pair, as the sweeps were first written --


def dense_kernel_bound(dom, kernel):
    nodes = dom.nonexterior_flat
    y_coords = dom.coords[nodes]
    worst = 0.0
    for axis in range(dom.spec.dim):
        stride = int(dom.strides[axis])
        pos = dom.multi_indices[:, axis]
        ok = dom.interior_mask & (pos >= 1) & (pos <= dom.dims[axis] - 2)
        idx = np.flatnonzero(ok)
        idx = idx[dom.nonexterior_mask[idx - stride] & dom.nonexterior_mask[idx + stride]]
        if idx.size == 0:
            continue
        Kc = convolution._kernel_rows(dom, dom.coords[idx], y_coords, kernel)
        Kp = convolution._kernel_rows(dom, dom.coords[idx + stride], y_coords, kernel)
        Km = convolution._kernel_rows(dom, dom.coords[idx - stride], y_coords, kernel)
        worst = max(worst, float(((Kp - 2.0 * Kc + Km) / dom.h**2).max()))
    return worst


def dense_shrink(dom, eps, kernel):
    interior = dom.interior_flat
    if eps == 0.0 or dom.boundary_flat.size == 0:
        return interior.copy()
    K = convolution._kernel_rows(dom, dom.coords[interior],
                                 dom.coords[dom.boundary_flat], kernel)
    return interior[K.min(axis=1) >= eps]


def dense_sup(u, eps, kernel):
    dom = u.domain
    nodes = dom.nonexterior_flat
    r0 = 2.0 * u.sup_norm()
    threshold = 4.0 * r0 * eps + 2.0 * dom.h
    K = convolution._kernel_rows(dom, dom.coords[nodes], dom.coords[nodes], kernel)
    vals = u.values[nodes][None, :] - K * (1.0 / (2.0 * eps))
    vals = np.where(K <= threshold, vals, -np.inf)
    best = np.argmax(vals, axis=1)
    out = np.full(dom.n_nodes, np.nan)
    out[nodes] = vals[np.arange(nodes.size), best]
    return out, dense_shrink(dom, (1.0 + 4.0 * r0) * eps, kernel)


def heisenberg_with_holes():
    """[-1,1]^3 at h = 1/4 less a corner column and a central cavity."""
    box = GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.25)
    c = box.coords
    cls = box.classification.reshape(box.dims).copy()
    hole = ((c[:, 0] > 0.4) & (c[:, 1] > 0.4)) | np.all(np.abs(c) < 0.3, axis=1)
    hole = hole.reshape(box.dims)
    near = np.zeros_like(hole)
    for shift in np.ndindex(3, 3, 3):
        near |= np.roll(hole, np.array(shift) - 1, axis=(0, 1, 2))
    cls[near & (cls == INTERIOR)] = BOUNDARY
    cls[hole] = EXTERIOR
    return GridDomain(box.spec, box.lower, box.h, box.dims, cls.reshape(-1))


DYADIC = {
    "line": lambda: GridDomain.box(groups.euclidean(1), [-1], [1], 0.125),
    "plane": lambda: GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.125),
    "space": lambda: GridDomain.box(groups.euclidean(3), [0, -0.5, 0], [1, 1, 1.25], 0.25),
    "heis": lambda: GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.25),
}
NON_DYADIC = {
    "plane_h0.1": lambda: GridDomain.box(groups.euclidean(2), [0.3, -0.7], [1.5, 0.5], 0.1),
    "heis_h0.1": lambda: GridDomain.box(groups.heisenberg1(), [0.2, -0.3, -0.4],
                                        [0.8, 0.5, 0.4], 0.1),
    "heis_holes": heisenberg_with_holes,
}


# the one bound holds for either kernel: their second differences are the same
@pytest.mark.parametrize("kernel", ["right", "left"])
@pytest.mark.parametrize("name", sorted(DYADIC))
def test_kernel_bound_equals_dense_sweep_at_dyadic_h(name, kernel):
    dom = DYADIC[name]()
    assert convolution.kernel_second_difference_bound(dom) == dense_kernel_bound(dom, kernel)


@pytest.mark.parametrize("kernel", ["right", "left"])
@pytest.mark.parametrize("name", sorted(NON_DYADIC))
def test_kernel_bound_matches_dense_sweep(name, kernel):
    dom = NON_DYADIC[name]()
    got = convolution.kernel_second_difference_bound(dom)
    assert np.isclose(got, dense_kernel_bound(dom, kernel), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kernel", ["right", "left"])
def test_kernel_bound_heisenberg_closed_form(kernel):
    # max of 12u^2 + 4v^2 + 8 y2^2 + 2h^2 along x1 with |u|, |v| <= 15/8, |y2| <= 1,
    # which the kernel reaches at x = (7/8, 7/8, 0) against y = (-1, -1, 0)
    h = 0.125
    dom = GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], h)
    assert convolution.kernel_second_difference_bound(dom) == 64.28125
    x, y = np.array([[7 / 8, 7 / 8, 0.0]]), np.array([[-1.0, -1.0, 0.0]])
    Kp, Kc, Km = (groups.pair_kernel(dom.spec, x + [s * h, 0.0, 0.0], y, kernel)[0, 0]
                  for s in (1, 0, -1))
    assert (Kp - 2.0 * Kc + Km) / h**2 == 64.28125
    assert 12 * (15 / 8) ** 2 + 4 * (15 / 8) ** 2 + 8 + 2 * h**2 == 64.28125


def test_extreme_nodes_of_a_box_are_its_corners():
    dom = GridDomain.box(groups.euclidean(3), [0, 0, 0], [1, 1, 1], 0.25)
    got = convolution._extreme_nodes(dom, dom.nonexterior_flat)
    corners = {dom.flat_of_multi(4 * np.array(c)) for c in np.ndindex(2, 2, 2)}
    assert set(got.tolist()) == corners


def _fields(dom):
    rng = np.random.default_rng(7)
    c = dom.coords
    yield ScalarField(dom, np.exp(-2.0 * np.sum(c**2, axis=1)))
    yield ScalarField(dom, 0.25 * rng.uniform(-1.0, 1.0, dom.n_nodes))
    # spikes on every fourth node per axis: nodes between spikes have tied maximisers
    spikes = np.all(dom.multi_indices % 4 == 0, axis=1)
    yield ScalarField(dom, 0.5 * spikes.astype(float))


def _cases(dom):
    for u in _fields(dom):
        for eps in (0.02, 0.1, 2.0, np.inf):
            yield u, eps
    # constant: the attainment bound is 0, so no y but x can attain; at
    # eps = inf every node ties with every other
    const = ScalarField(dom, np.full(dom.n_nodes, 0.3))
    yield const, 0.1
    yield const, np.inf
    # maxima on the index-4 plane of the first or the last axis: at
    # eps = 8 h^2 a node 4 indices past it ties with it exactly, at the edge
    # of its window, and the wall node comes first in flat order
    for axis in (0, -1):
        wall = (dom.multi_indices[:, axis] == 4).astype(float)
        yield ScalarField(dom, wall), 8.0 * dom.h**2


@lru_cache(maxsize=None)
def dense_cases(name, kernel):
    """(u, eps, dense_sup) for every case of a lattice, computed once per kernel."""
    dom = {**DYADIC, **NON_DYADIC}[name]()
    return [(u, eps, dense_sup(u, eps, kernel)) for u, eps in _cases(dom)]


# per lattice, a block small enough to split its tile groups (a quarter of
# it below the lines of all its tiles' windows at eps = inf), its window
# groups, the padded blocks of a window group and the rows of its tiles
SMALL_BLOCKS = {"line": 8, "plane": 128, "space": 512, "heis": 2048,
                "plane_h0.1": 48, "heis_h0.1": 1024, "heis_holes": 1024}
# the line has one tile, so only its rows split; at 48, no window group of
# plane_h0.1's four tiles holds two windows, so none splits into padded blocks
SPLITS = {"line": {"rows"}, "plane_h0.1": {"tiles", "windows", "rows"}}


def count_splits(monkeypatch):
    """Count the splits of every ``_windowed_blocks`` sweep from here on.

    The first ``_runs`` of a sweep groups its tiles and each later one the
    windows of a tile group; ``_padded_runs`` splits the tiles of a window
    group into padded blocks; two blocks in a row whose ys share memory are
    rows of one tile.  Every block holds at most ``_BLOCK`` pairs, padding
    included, unless it is one x against a window larger than that."""
    counts = collections.Counter()
    runs, padded_runs, blocks = (convolution._runs, convolution._padded_runs,
                                 convolution._windowed_blocks)
    sweep = {}

    def counted_runs(sizes, limit):
        out = list(runs(sizes, limit))
        counts[sweep.pop("first", "windows")] += len(out) > 1
        return out

    def counted_padded_runs(rows, cols, limit):
        out = list(padded_runs(rows, cols, limit))
        counts["batches"] += len(out) > 1
        return out

    def counted_blocks(*args):
        sweep["first"] = "tiles"
        prev = None
        for xs, ys in blocks(*args):
            assert xs.size * ys.shape[1] <= convolution._BLOCK or xs.size == 1
            counts["rows"] += prev is not None and np.shares_memory(prev, ys)
            prev = ys
            yield xs, ys

    monkeypatch.setattr(convolution, "_runs", counted_runs)
    monkeypatch.setattr(convolution, "_padded_runs", counted_padded_runs)
    monkeypatch.setattr(convolution, "_windowed_blocks", counted_blocks)
    return counts


@pytest.mark.parametrize("kernel", ["right", "left"])
@pytest.mark.parametrize("name, small", [
    *(pytest.param(name, False, id=name) for name in sorted(DYADIC) + sorted(NON_DYADIC)),
    # the SMALL_BLOCKS cases
    *(pytest.param(name, True, id=name + "-block7") for name in sorted(DYADIC) + sorted(NON_DYADIC)),
])
def test_convolutions_equal_dense_sweep_bit_for_bit(name, small, kernel, monkeypatch):
    if small:
        monkeypatch.setattr(convolution, "_BLOCK", SMALL_BLOCKS[name])
        splits = count_splits(monkeypatch)
    dom = {**DYADIC, **NON_DYADIC}[name]()
    for u, eps, (field, shrunk) in dense_cases(name, kernel):
        rep = convolution.sup_convolution(u, eps, kernel)
        assert rep.field.values.tobytes() == field.tobytes()
        assert np.array_equal(rep.shrunken, shrunk)
        neg = ScalarField(dom, -u.values)
        inf_rep = convolution.inf_convolution(neg, eps, kernel)
        assert inf_rep.field.values.tobytes() == (-field).tobytes()
        assert np.array_equal(inf_rep.shrunken, shrunk)
    if small:
        split = {kind for kind, count in splits.items() if count}
        assert split == SPLITS.get(name, {"tiles", "windows", "batches", "rows"})


# -- per-tile reference: each tile's window computed on its own --


def tile_window(dom, lo, hi, bound, kernel):
    """Flat indices, ascending, of every y with K(x, y) <= bound for some x in a tile."""
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
            if kernel == "right":
                y_lo, y_hi = x_lo + w.min(axis=0) - half, x_hi + w.max(axis=0) + half
            else:
                y_lo, y_hi = x_lo - w.max(axis=0) - half, x_hi - w.min(axis=0) + half
        first = np.ceil((y_lo - dom.lower[last]) / h - 1e-9)
        stop = np.floor((y_hi - dom.lower[last]) / h + 1e-9) + 1
    first = np.fmin(np.fmax(first, 0), dims[last]).astype(np.int64)
    stop = np.fmin(np.fmax(stop, first), dims[last]).astype(np.int64)
    starts = first + reduce(np.add.outer, [j * dom.strides[a] for a, j in enumerate(ticks)],
                            np.zeros((), dtype=np.int64)).reshape(-1)
    counts = stop - first
    run_start = np.cumsum(counts) - counts
    return np.repeat(starts - run_start, counts) + np.arange(int(counts.sum()))


def tile_blocks(dom, x_flat, y_mask, bound, kernel):
    """The (xs, ys) blocks of ``_windowed_blocks`` unpadded, one tile window at a time."""
    scale = 1.0 + float(np.max(np.abs([dom.lower, dom.upper])))
    slop = 1e-12 * scale ** dom.spec.gauge_exponent
    if dom.spec.name == "heisenberg1":
        width = 2
    else:
        width = max(1, round(convolution._TILE_NODES ** (1.0 / len(dom.dims))))
    mi = dom.multi_indices[x_flat]
    key = np.ravel_multi_index(tuple((mi // width).T), tuple(-(-d // width) for d in dom.dims))
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    heads = np.concatenate(([0], cuts))
    tile_bound = np.maximum.reduceat(np.broadcast_to(bound, x_flat.shape)[order], heads)
    tile_lo = np.minimum.reduceat(mi[order], heads)
    tile_hi = np.maximum.reduceat(mi[order], heads)
    for xs, b, lo, hi in zip(np.split(x_flat[order], cuts), tile_bound, tile_lo, tile_hi):
        ys = tile_window(dom, lo, hi, b * (1.0 + 1e-9) + slop, kernel)
        ys = ys[y_mask[ys]]
        if ys.size == 0:
            continue
        rows = max(1, convolution._BLOCK // ys.size)
        for start in range(0, xs.size, rows):
            yield xs[start : start + rows], ys


@pytest.mark.parametrize("kernel", ["right", "left"])
@pytest.mark.parametrize("name", sorted(DYADIC) + sorted(NON_DYADIC))
def test_windowed_blocks_equal_the_per_tile_windows(name, kernel, monkeypatch):
    dom = {**DYADIC, **NON_DYADIC}[name]()
    calls = []
    blocks = convolution._windowed_blocks

    def recorded(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(convolution, "_windowed_blocks", recorded)
    for u, eps in _cases(dom):
        calls.clear()
        rep = convolution.sup_convolution(u, eps, kernel)
        # the sup sweep (a bound per non-exterior node) and the shrink
        # sweep (one threshold against the boundary band); the shrink
        # sweep is skipped when the nearest band nodes along the axes
        # have already removed every interior node
        sweeps = [args[2] is dom.nonexterior_mask for args in calls]
        assert sweeps == [True, False] or (sweeps == [True] and rep.shrunken.size == 0)
        for args in calls:
            got = [(unpadded(gx), unpadded(gy)) for xs, ys in blocks(*args)
                   for gx, gy in zip(xs, ys, strict=True)]
            want = list(tile_blocks(*args))
            assert len(got) == len(want)
            got.sort(key=lambda block: block[0][0])
            want.sort(key=lambda block: block[0][0])
            for (gx, gy), (wx, wy) in zip(got, want):
                assert np.array_equal(gx, wx) and gx.dtype == wx.dtype
                assert np.array_equal(gy, wy) and gy.dtype == wy.dtype


def unpadded(row):
    """A block row without its padding: the repeats of its last entry."""
    end = int(np.flatnonzero(row == row[-1])[0]) + 1
    assert np.all(row[end:] == row[-1])
    return row[:end]


def plane_with_slot():
    """[-1,1]^2 at h = 1/8 with an exterior slot around one band node.

    Interior nodes touch the slot directly, so their axis lines reach the
    band node at its centre, and the outer band, across exterior nodes."""
    box = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.125)
    c = box.coords
    cls = box.classification.copy()
    cls[(np.abs(c[:, 0]) <= 0.25) & (np.abs(c[:, 1]) <= 0.5)] = EXTERIOR
    cls[np.all(c == 0.0, axis=1)] = BOUNDARY
    return GridDomain(box.spec, box.lower, box.h, box.dims, cls)


SHRINK_LATTICES = {
    "plane": DYADIC["plane"],
    "heis_offset": NON_DYADIC["heis_h0.1"],
    "plane_slot": plane_with_slot,
    "heis_holes": heisenberg_with_holes,
}


@pytest.mark.parametrize("kernel", ["right", "left"])
@pytest.mark.parametrize("name", sorted(SHRINK_LATTICES))
def test_shrink_domain_equals_the_minimum_over_every_band_node(name, kernel):
    """Brute force: min over every band node y of K(x, y) >= eps.

    The middle threshold is the middle of the distinct minima, so the
    nodes that attain it tie with it and stay."""
    dom = SHRINK_LATTICES[name]()
    interior = dom.interior_flat
    nearest = groups.pair_kernel(dom.spec, dom.coords[interior],
                                 dom.coords[dom.boundary_flat], kernel).min(axis=1)
    levels = np.unique(nearest)
    middle = float(levels[levels.size // 2])
    for eps in (0.0, middle, np.inf):
        got = convolution.shrink_domain(dom, eps, kernel)
        assert np.array_equal(got, interior[nearest >= eps])
        assert got.dtype == interior.dtype
    assert 0 < np.count_nonzero(nearest >= middle) < interior.size


def test_convolution_evaluates_fewer_pairs_than_the_dense_sweep(monkeypatch):
    dom = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 1 / 32)
    u = ScalarField(dom, 0.25 * np.exp(-2.0 * np.sum(dom.coords**2, axis=1)))
    pairs = []
    rows = convolution._kernel_rows

    def counted(d, xs, ys, kernel):
        K = rows(d, xs, ys, kernel)
        pairs.append(K.size)
        return K

    monkeypatch.setattr(convolution, "_kernel_rows", counted)
    n = dom.nonexterior_flat.size
    convolution.sup_convolution(u, 0.02)
    assert sum(pairs) < n * n / 4
    pairs.clear()
    convolution.kernel_second_difference_bound(dom)
    assert sum(pairs) == 2 * 3 * 4 * 4  # per axis, three shifts of corner x corner
    # on a constant field each x meets itself alone, so each tile meets itself
    pairs.clear()
    convolution.shrink_domain(dom, (1.0 + 4.0 * 0.5) * 0.02)
    shrink_pairs = sum(pairs)
    pairs.clear()
    convolution.sup_convolution(ScalarField(dom, np.full(dom.n_nodes, 0.25)), 0.02)
    assert sum(pairs) - shrink_pairs <= n * convolution._TILE_NODES
    # windows bounded along the horizontal axes alone admit about n^2 / 4
    # pairs here; bounding the twisted t term as well halves that
    heis = GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 1 / 8)
    u = ScalarField(heis, 0.25 * np.exp(-2.0 * np.sum(heis.coords**2, axis=1)))
    n = heis.nonexterior_flat.size
    pairs.clear()
    convolution.sup_convolution(u, 0.05)
    assert sum(pairs) < n * n / 6
    # tiles 2 nodes a side keep the twist from widening their t windows:
    # 4-node tiles evaluated about n^2 / 10 pairs here, 2-node ones n^2 / 27
    assert sum(pairs) < n * n / 20


def test_group_law_is_required():
    dom = GridDomain.box(groups.grushin(), [-1, -1], [1, 1], 0.25)
    u = bump_field(dom)
    for call in (lambda: convolution.sup_convolution(u, 0.1),
                 lambda: convolution.inf_convolution(u, 0.1),
                 lambda: convolution.shrink_domain(dom, 0.1),
                 lambda: convolution.kernel_second_difference_bound(dom)):
        with pytest.raises(UnsupportedGeometryError, match="needs a group law"):
            call()
