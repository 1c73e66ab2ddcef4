import numpy as np
import pytest

from subinf import groups, metric
from subinf.errors import ConnectivityError, ParameterError
from subinf.grids import GridDomain


def test_euclidean_depth1_axis_moves():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = metric.build_graph(dom, depth=1)
    assert g.move_kinds == ("single",)
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
    d = metric.cc_distance(g, (0, 0), (4, 4))
    assert np.isclose(d, np.sqrt(2.0), atol=0.05)


def test_heisenberg_unit_horizontal_distance():
    dom = GridDomain.box(groups.heisenberg1(), [-1.25, -1.25, -1.25],
                         [1.25, 1.25, 1.25], 0.25)
    g = metric.build_graph(dom)
    assert g.depth == 2
    d = metric.cc_distance(g, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert np.isclose(d, 1.0, atol=1e-12)


def test_heisenberg_vertical_moves_exist_but_cost_more():
    """Reaching (0,0,t) needs two-leg moves; the cost per vertical cell

    stays bounded below by the anisotropy of the metric."""
    dom = GridDomain.box(groups.heisenberg1(), [-1.0, -1.0, -1.0],
                         [1.0, 1.0, 1.0], 0.25)
    g = metric.build_graph(dom)
    d_vert = metric.cc_distance(g, np.zeros(3), np.array([0.0, 0.0, 0.5]))
    d_horiz = metric.cc_distance(g, np.zeros(3), np.array([0.5, 0.0, 0.0]))
    assert d_vert > d_horiz
    assert "two_leg" in g.move_kinds


def test_heisenberg_ball_is_anisotropic():
    dom = GridDomain.box(groups.heisenberg1(), [-1.0, -1.0, -1.0],
                         [1.0, 1.0, 1.0], 0.125)
    g = metric.build_graph(dom)
    dist = metric.cc_distances_from(g, np.zeros(3))
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
    d = metric.cc_distance(g, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.isclose(d, 2.0, atol=1e-12)


def test_cc_distance_path_endpoints():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = metric.build_graph(dom, depth=1)
    d, path = metric.cc_distance(g, (0, 0), (0, 4), return_path=True)
    assert path[0] == dom.flat_of_multi((0, 0))
    assert path[-1] == dom.flat_of_multi((0, 4))
    assert len(path) == 5
    assert np.isclose(d, 1.0)


def test_node_index_accepts_flat_multi_and_point():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = metric.build_graph(dom, depth=1)
    assert g.node_index(7) == 7
    assert g.node_index((1, 2)) == dom.flat_of_multi((1, 2))
    # an ndarray is a coordinate point, snapped to the nearest node
    assert g.node_index(np.array([0.26, 0.49])) == dom.flat_of_multi((1, 2))
    with pytest.raises(ParameterError):
        g.node_index(dom.n_nodes + 3)


def test_depth_validation():
    dom = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 0.25)
    with pytest.raises(ParameterError):
        metric.build_graph(dom, depth=0)


def test_disconnected_lattice_is_reported():
    spec = groups.euclidean(1)
    classification = np.array([1, 0, 1, 2, 1, 0, 1], dtype=np.int8)
    dom = GridDomain(spec, np.array([0.0]), 0.125, (7,), classification)
    with pytest.raises(ConnectivityError):
        metric.build_graph(dom, depth=1)
