import numpy as np
import pytest
import scipy.sparse as sp

from subinf import groups, metric
from subinf.errors import ConnectivityError, ParameterError
from subinf.grids import GridDomain

from test_convolution import heisenberg_with_holes


def test_euclidean_depth1_axis_moves():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = metric.build_graph(dom, depth=1)
    center = dom.flat_of_multi((2, 2))
    row = g.matrix.getrow(center)
    assert row.nnz == 4
    assert np.allclose(row.data, dom.h)


def test_euclidean_depth2_diagonals():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = metric.build_graph(dom, depth=2)
    a = dom.flat_of_multi((1, 1))
    b = dom.flat_of_multi((2, 2))
    # the simultaneous diagonal reaches (h, h) but keeps cost sqrt(2) h
    assert metric.cc_distance(g, a, b) <= np.sqrt(2.0) * dom.h + 1e-12
    d = metric.cc_distance(g, dom.flat_of_multi((0, 0)), dom.flat_of_multi((4, 4)))
    assert np.isclose(d, np.sqrt(2.0), atol=0.05)


def test_heisenberg_unit_horizontal_distance():
    dom = GridDomain.box(groups.heisenberg1(), [-1.25, -1.25, -1.25],
                         [1.25, 1.25, 1.25], 0.25)
    g = metric.build_graph(dom)
    assert g.depth == 2
    d = metric.cc_distance(g, dom.nearest_node(np.zeros(3)),
                           dom.nearest_node([1.0, 0.0, 0.0]))
    assert np.isclose(d, 1.0, atol=1e-12)


def test_heisenberg_vertical_moves_exist_but_cost_more():
    """Reaching (0,0,t) needs two-leg moves; the cost per vertical cell

    stays bounded below by the anisotropy of the metric."""
    dom = GridDomain.box(groups.heisenberg1(), [-1.0, -1.0, -1.0],
                         [1.0, 1.0, 1.0], 0.25)
    g = metric.build_graph(dom)
    origin = dom.nearest_node(np.zeros(3))
    d_vert = metric.cc_distance(g, origin, dom.nearest_node([0.0, 0.0, 0.5]))
    d_horiz = metric.cc_distance(g, origin, dom.nearest_node([0.5, 0.0, 0.0]))
    assert d_vert > d_horiz


def test_heisenberg_ball_is_anisotropic():
    dom = GridDomain.box(groups.heisenberg1(), [-1.0, -1.0, -1.0],
                         [1.0, 1.0, 1.0], 0.125)
    g = metric.build_graph(dom)
    dist = metric.cc_distances_from(g, dom.nearest_node(np.zeros(3)))
    rho = 0.4
    inside = dist <= rho
    coords = dom.coords
    x_extent = np.max(np.abs(coords[inside, 0]))
    t_extent = np.max(np.abs(coords[inside, 2]))
    assert np.isclose(x_extent, rho, atol=dom.h + 1e-12)
    # vertical reach scales like rho^2, far short of rho at this radius
    assert t_extent < 0.5 * rho


def test_grushin_crossing_the_singular_line():
    # On x = 0 only X1 moves, so going from (-1, 0) to (1, 0) costs about 2.
    dom = GridDomain.box(groups.grushin(), [-1.25, -1.25], [1.25, 1.25], 0.25)
    g = metric.build_graph(dom)
    d = metric.cc_distance(g, dom.nearest_node([-1.0, 0.0]),
                           dom.nearest_node([1.0, 0.0]))
    assert np.isclose(d, 2.0, atol=1e-12)


def test_cc_distance_between_flat_nodes():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = metric.build_graph(dom, depth=1)
    a, b = dom.flat_of_multi((0, 0)), dom.flat_of_multi((0, 4))
    # four axis moves of cost h along one edge of the square
    assert metric.cc_distance(g, a, b) == 1.0
    assert metric.cc_distance(g, np.int64(b), np.int64(a)) == 1.0
    assert metric.cc_distance(g, a, a) == 0.0
    # three moves along each axis, snapped to the lattice: the L1 length
    c = dom.flat_of_multi((3, 3))
    assert np.isclose(metric.cc_distance(g, a, c), 1.5)
    assert metric.cc_distances_from(g, a)[c] == metric.cc_distance(g, a, c)


def test_node_index_takes_only_flat_nodes():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = metric.build_graph(dom, depth=1)
    assert g.node_index(7) == 7
    assert g.node_index(np.int64(12)) == 12
    # neither a multi-index nor a coordinate point is taken as a node: a
    # float tuple used to be truncated to the multi-index (0, 0)
    for node in ((1, 2), [1, 2], (0.5, 0.5), np.array([0.5, 0.5]), 12.0):
        with pytest.raises(ParameterError, match="flat lattice index"):
            g.node_index(node)
    with pytest.raises(ParameterError, match="flat lattice index"):
        metric.cc_distance(g, (0.5, 0.5), (1.0, 1.0))
    with pytest.raises(ParameterError, match="flat lattice index"):
        metric.cc_distance(g, np.array([0.5, 0.5]), 24)
    with pytest.raises(ParameterError, match="outside the lattice"):
        g.node_index(dom.n_nodes + 3)
    with pytest.raises(ParameterError, match="outside the lattice"):
        g.node_index(-1)
    # an exterior slot past the band of a line
    line = GridDomain(groups.euclidean(1), np.array([0.0]), 0.25, (6,),
                      np.array([1, 0, 0, 0, 1, 2], dtype=np.int8))
    with pytest.raises(ParameterError, match="exterior"):
        metric.build_graph(line, depth=1).node_index(5)


def test_depth_validation():
    dom = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 0.25)
    for bad in (0, float("nan"), 1.5, 3, 4):
        with pytest.raises(ParameterError, match="depth"):
            metric.build_graph(dom, depth=bad)
    with pytest.raises(ParameterError, match="at most 2"):
        metric.build_graph(dom, depth=3)


def test_disconnected_lattice_is_reported():
    spec = groups.euclidean(1)
    classification = np.array([1, 0, 1, 2, 1, 0, 1], dtype=np.int8)
    dom = GridDomain(spec, np.array([0.0]), 0.125, (7,), classification)
    with pytest.raises(ConnectivityError):
        metric.build_graph(dom, depth=1)


# -- reference: the graph built from whole (node, axis) arrays per move --


def reference_graph(domain, depth=None):
    if depth is None:
        depth = domain.spec.step
    spec = domain.spec
    h = domain.h
    nodes = domain.nonexterior_flat
    coords = domain.coords[nodes]
    dims_arr = np.asarray(domain.dims)
    srcs, dsts, costs = [], [], []
    for controls, cost_units in metric._move_controls(spec.horizontal_dim, depth):
        ends = coords
        for c in controls:
            ends = metric._flow(spec, ends, c, h)
        steps = (ends - domain.lower[None, :]) / h
        idx = np.ceil(steps - 0.5).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < dims_arr[None, :]), axis=1)
        idx = np.clip(idx, 0, dims_arr[None, :] - 1)
        flat = (idx * domain.strides[None, :]).sum(axis=1)
        valid = inside & domain.nonexterior_mask[flat] & (flat != nodes)
        if not np.any(valid):
            continue
        srcs.append(nodes[valid])
        dsts.append(flat[valid])
        costs.append(np.full(int(valid.sum()), cost_units * h))
    if not srcs:
        raise ConnectivityError(
            f"no usable moves at depth {depth} on {spec.id}; every endpoint snapped back"
        )
    s = np.concatenate(srcs)
    d = np.concatenate(dsts)
    c = np.concatenate(costs)
    key = s * domain.n_nodes + d
    order = np.lexsort((c, key))
    key, s, d, c = key[order], s[order], d[order], c[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    s, d, c = s[first], d[first], c[first]
    s2 = np.concatenate([s, d])
    d2 = np.concatenate([d, s])
    c2 = np.concatenate([c, c])
    key = s2 * domain.n_nodes + d2
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, weights=c2) / np.bincount(inv)
    us = (uniq // domain.n_nodes).astype(np.int64)
    ud = (uniq % domain.n_nodes).astype(np.int64)
    matrix = sp.coo_matrix((w, (us, ud)), shape=(domain.n_nodes, domain.n_nodes)).tocsr()
    graph = metric.HorizontalGraph(domain, depth, matrix)
    metric._check_connected(graph)
    return graph


GRAPH_DOMAINS = {
    "euclidean1": lambda: GridDomain.box(groups.euclidean(1), [-1.0], [0.7], 0.1),
    "euclidean2": lambda: GridDomain.box(groups.euclidean(2), [0, -0.5], [1, 0.75], 0.125),
    "euclidean3": lambda: GridDomain.box(groups.euclidean(3), [0, 0, 0], [1, 0.5, 0.75], 0.25),
    "heisenberg1": lambda: GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.25),
    "heisenberg1_h0.1": lambda: GridDomain.box(groups.heisenberg1(), [0.2, -0.3, -0.4],
                                               [0.8, 0.5, 0.4], 0.1),
    "heisenberg_with_holes": heisenberg_with_holes,
    "grushin": lambda: GridDomain.box(groups.grushin(), [-1, -1], [1, 1], 0.125),
}


def _graph_or_error(build, dom, depth):
    try:
        return build(dom, depth)
    except ConnectivityError as exc:
        return str(exc)


@pytest.mark.parametrize("depth", [1, 2, None])
@pytest.mark.parametrize("name", sorted(GRAPH_DOMAINS))
def test_graph_equals_the_reference_array_for_array(name, depth):
    dom = GRAPH_DOMAINS[name]()
    got = _graph_or_error(metric.build_graph, dom, depth)
    want = _graph_or_error(reference_graph, dom, depth)
    if isinstance(want, str):
        assert got == want
        return
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got.matrix, part), getattr(want.matrix, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.depth == want.depth


@pytest.mark.parametrize("classification, message", [
    ([1, 0, 1, 2, 1, 0, 1], "node (4,) is unreachable in the depth-1 graph on euclidean:1"),
    ([1, 2, 1, 2, 0, 2, 1], "no usable moves at depth 1 on euclidean:1"),
])
def test_connectivity_errors_match_the_reference(classification, message):
    dom = GridDomain(groups.euclidean(1), np.array([0.0]), 0.125, (7,),
                     np.array(classification, dtype=np.int8))
    got = _graph_or_error(metric.build_graph, dom, 1)
    assert got == _graph_or_error(reference_graph, dom, 1)
    assert got.startswith(message)
