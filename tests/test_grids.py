import numpy as np
import pytest

from subinf import grids, groups
from subinf.errors import DomainMismatchError, IncompleteFieldError, ParameterError
from subinf.grids import BOUNDARY, EXTERIOR, INTERIOR, GridDomain, ScalarField


def box1d(n=8, band=1):
    return GridDomain.box(groups.euclidean(1), [0.0], [1.0], 1.0 / n, band=band)


def test_box_classification_counts():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    assert dom.dims == (5, 5)
    assert dom.interior_flat.size == 9
    assert dom.boundary_flat.size == 16
    assert not np.any(dom.classification == EXTERIOR)


def test_box_band_two_grows_the_shell():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125, band=2)
    assert dom.dims == (9, 9)
    assert dom.interior_flat.size == 25
    # corner node and its first diagonal neighbour are both boundary
    assert dom.classification[dom.flat_of_multi((0, 0))] == BOUNDARY
    assert dom.classification[dom.flat_of_multi((1, 1))] == BOUNDARY
    assert dom.classification[dom.flat_of_multi((2, 2))] == INTERIOR


def test_interior_nodes_have_nonexterior_axis_neighbours():
    dom = GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.25)
    mi = dom.multi_indices
    for flat in dom.interior_flat:
        for axis in range(3):
            for step in (-1, 1):
                nb = mi[flat].copy()
                nb[axis] += step
                assert dom.classification[dom.flat_of_multi(nb)] != EXTERIOR


def test_box_rejects_incommensurate_extent():
    with pytest.raises(ParameterError):
        GridDomain.box(groups.euclidean(1), [0.0], [1.0], 0.3)


def test_box_rejects_empty_interior():
    with pytest.raises(ParameterError):
        GridDomain.box(groups.euclidean(1), [0.0], [1.0], 0.5, band=2)


def test_flat_multi_round_trip():
    dom = GridDomain.box(groups.heisenberg1(), [0, 0, 0], [1, 1, 1], 0.25)
    for flat in (0, 17, dom.n_nodes - 1):
        assert dom.flat_of_multi(dom.multi_of_flat(flat)) == flat


def test_upper_and_coords():
    dom = box1d(4)
    assert np.allclose(dom.upper, [1.0])
    assert np.allclose(dom.coords[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_nearest_node_rounds_and_clips():
    dom = box1d(4)
    assert dom.nearest_node([0.3]) == 1
    assert dom.nearest_node([0.45]) == 2
    assert dom.nearest_node([7.0]) == 4
    assert dom.nearest_node([-7.0]) == 0


def test_subbox_keeps_lattice_alignment():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)
    sub = dom.subbox([2, 2], [6, 6])
    assert np.allclose(sub.lower, [0.25, 0.25])
    assert sub.dims == (5, 5)
    assert sub.h == dom.h
    with pytest.raises(ParameterError):
        dom.subbox([0, 0], [9, 9])


def test_axis_difference_exact_on_quadratics():
    """The centred and one-sided rows are all second order, so they

    differentiate x**2 exactly everywhere on the lattice."""
    dom = box1d(8)
    x = dom.coords[:, 0]
    d = dom.axis_difference(0) @ (x**2)
    assert np.allclose(d, 2 * x, atol=1e-12)


def test_axis_difference_row_sets():
    dom = box1d(8)
    interior_rows = dom.axis_difference(0, rows="interior")
    full_rows = dom.axis_difference(0, rows="nonexterior")
    assert interior_rows[0].count_nonzero() == 0
    assert full_rows[0].count_nonzero() == 3
    with pytest.raises(ParameterError):
        dom.axis_difference(0, rows="everything")


def test_gradient_operator_matches_frame():
    """X2 = dy + 2x dt applied to u = t gives 2x at interior nodes."""
    dom = GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.25)
    u = dom.coords[:, 2]
    x2u = dom.gradient_operators()[1] @ u
    inner = dom.interior_flat
    assert np.allclose(x2u[inner], 2 * dom.coords[inner, 0], atol=1e-12)


def test_scalar_field_validation():
    dom = box1d(4)
    with pytest.raises(IncompleteFieldError):
        ScalarField(dom, np.ones(3))
    bad = np.ones(dom.n_nodes)
    bad[2] = np.nan
    with pytest.raises(IncompleteFieldError):
        ScalarField(dom, bad)


def test_scalar_field_views_and_norms():
    dom = box1d(4)
    f = ScalarField.from_function(dom, lambda c: c[:, 0] - 0.5)
    assert f.max_abs_interior() == 0.25
    assert f.sup_norm() == 0.5
    g = f.copy()
    g.values[0] = 9.0
    assert f.values[0] == -0.5


def test_horizontal_field_shape_check():
    dom = GridDomain.box(groups.heisenberg1(), [0, 0, 0], [1, 1, 1], 0.25)
    n_int = dom.interior_flat.size
    grids.HorizontalField(dom, np.zeros((n_int, 2)))
    with pytest.raises(IncompleteFieldError):
        grids.HorizontalField(dom, np.zeros((n_int, 3)))


def test_require_same_lattice():
    a = box1d(4)
    b = box1d(4)
    c = box1d(8)
    grids.require_same_lattice(a, b)
    grids.require_same_lattice(ScalarField.zeros(a), b)
    with pytest.raises(DomainMismatchError):
        grids.require_same_lattice(a, c)


def test_classification_name_round_trip():
    for code in (INTERIOR, BOUNDARY, EXTERIOR):
        assert grids.classification_code(grids.classification_name(code)) == code
    with pytest.raises(ParameterError):
        grids.classification_code("outer")
