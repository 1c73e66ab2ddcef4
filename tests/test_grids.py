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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_node_rejects_a_non_finite_point(bad):
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    with pytest.raises(ParameterError, match="finite"):
        dom.nearest_node([bad, 0.5])


@pytest.mark.parametrize("lower,upper,h,what", [
    ([0, 0], [1, 1], np.nan, "spacing .* got nan"),
    ([0, 0], [1, 1], np.inf, "spacing .* got inf"),
    ([0, 0], [1, 1], 0.0, "spacing .* got 0.0"),
    ([0, np.nan], [1, 1], 0.25, r"lower corner must be finite, got \[0.0, nan\]"),
    ([0, 0], [1, np.inf], 0.25, r"upper corner must be finite, got \[1.0, inf\]"),
], ids=["h_nan", "h_inf", "h_zero", "lower_nan", "upper_inf"])
def test_box_rejects_a_non_finite_spacing_or_corner(lower, upper, h, what):
    """The spacing and both corners are checked before the spans are cast to
    counts, so the bad value is named and the cast never warns."""
    with pytest.raises(ParameterError, match=what):
        GridDomain.box(groups.euclidean(2), lower, upper, h)


@pytest.mark.parametrize("band", [1.5, 2.0, np.nan, "2", None, True, 0])
def test_box_checks_the_band_width_as_a_count(band):
    """The band width is a count like every other: an integral float is taken
    as its integer, and a fraction, NaN, a string, None or a bool is refused
    by name rather than failing inside the slicing or passing as 1."""
    if band == 2.0:
        assert np.array_equal(box1d(8, band).classification, box1d(8, 2).classification)
        return
    with pytest.raises(ParameterError, match="boundary band width must be an integer"):
        box1d(8, band)


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


def test_axis_difference_has_band_rows():
    """Band nodes get rows too: node 0 its one-sided three-point stencil."""
    dom = box1d(8)
    assert dom.axis_difference(0)[0].count_nonzero() == 3


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


def test_require_same_lattice():
    a = box1d(4)
    b = box1d(4)
    c = box1d(8)
    grids.require_same_lattice(a, b)
    grids.require_same_lattice(ScalarField.zeros(a).domain, b)
    with pytest.raises(DomainMismatchError):
        grids.require_same_lattice(a, c)


def test_classification_name_round_trip():
    for code in (INTERIOR, BOUNDARY, EXTERIOR):
        assert grids.classification_code(grids.classification_name(code)) == code
    with pytest.raises(ParameterError):
        grids.classification_code("outer")
