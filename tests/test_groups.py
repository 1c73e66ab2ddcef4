import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subinf import groups
from subinf.errors import ParameterError, UnsupportedGeometryError

coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
point3 = st.tuples(coord, coord, coord).map(lambda t: np.array(t))


def test_from_id_round_trip():
    for gid in ("euclidean:1", "euclidean:3", "heisenberg1", "grushin"):
        assert groups.from_id(gid).id == gid


def test_from_id_rejects_garbage():
    for bad in ("euclid", "euclidean:x", "heisenberg2", ""):
        with pytest.raises(ParameterError):
            groups.from_id(bad)


def test_heisenberg_product_twists_the_vertical_coordinate():
    h1 = groups.heisenberg1()
    # (1,0,0) * (0,1,0): t picks up 2(x'y - xy') = 2(0*0 - 1*1) = -2
    p = groups.multiply(h1, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(p, [1.0, 1.0, -2.0])
    q = groups.multiply(h1, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    assert np.allclose(q, [1.0, 1.0, 2.0])


def test_euclidean_product_is_addition():
    e3 = groups.euclidean(3)
    assert np.allclose(groups.multiply(e3, [1, 2, 3], [4, 5, 6]), [5, 7, 9])


@given(point3, point3, point3)
@settings(max_examples=60, deadline=None)
def test_heisenberg_associativity(p, q, r):
    h1 = groups.heisenberg1()
    lhs = groups.multiply(h1, groups.multiply(h1, p, q), r)
    rhs = groups.multiply(h1, p, groups.multiply(h1, q, r))
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(point3)
@settings(max_examples=60, deadline=None)
def test_heisenberg_inverse_and_identity(p):
    h1 = groups.heisenberg1()
    assert np.allclose(groups.multiply(h1, p, groups.inverse(h1, p)), 0.0, atol=1e-12)
    assert np.allclose(groups.multiply(h1, np.zeros(3), p), p)


def test_gauge_norm_closed_form():
    h1 = groups.heisenberg1()
    assert np.isclose(groups.gauge_norm(h1, [1.0, 1.0, 2.0]), 8.0**0.25)
    assert np.isclose(groups.gauge_norm(h1, [0.0, 0.0, 4.0]), 2.0)
    e2 = groups.euclidean(2)
    assert np.isclose(groups.gauge_norm(e2, [3.0, 4.0]), 5.0)


@given(point3, st.floats(0.01, 10.0))
@settings(max_examples=60, deadline=None)
def test_gauge_norm_homogeneous_under_dilation(p, lam):
    """Under (x, y, t) -> (lam x, lam y, lam^2 t) the norm scales by lam."""
    h1 = groups.heisenberg1()
    scaled = np.array([lam * p[0], lam * p[1], lam * lam * p[2]])
    assert np.isclose(groups.gauge_norm(h1, scaled),
                      lam * groups.gauge_norm(h1, p), rtol=1e-10, atol=1e-12)


@given(point3, point3, point3)
@example(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0]),
         np.array([0.0, 1e-8, 2.0]))
@settings(max_examples=60, deadline=None)
def test_gauge_distance_left_invariant(z, x, y):
    """Compared squared: the gauge is only 1/2-Hoelder in t, so one ulp

    of rounding in the product's t moves the distance itself by ~1e-8,
    while its square, sqrt((x^2+y^2)^2 + t^2), is 1-Lipschitz in t."""
    h1 = groups.heisenberg1()
    base = groups.gauge_distance(h1, x, y) ** 2
    moved = groups.gauge_distance(h1, groups.multiply(h1, z, x),
                                  groups.multiply(h1, z, y)) ** 2
    assert np.isclose(moved, base, rtol=1e-9, atol=1e-12)


def test_gauge_kernel_avoids_the_root_power_round_trip():
    h1 = groups.heisenberg1()
    pts = np.random.default_rng(0).normal(size=(40, 3))
    expected = (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** 2 + pts[:, 2] ** 2
    assert np.array_equal(groups.gauge_kernel(h1, pts), expected)
    assert np.allclose(groups.gauge_kernel(h1, pts),
                       groups.gauge_norm(h1, pts) ** h1.gauge_exponent)


@given(st.sampled_from(["euclidean:1", "euclidean:2", "euclidean:3", "heisenberg1"]),
       st.sampled_from([(), (1,), (3,)]), st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_pair_kernel_is_the_product_kernel_bit_for_bit(gid, batch, nx, ny, data):
    """Random points off any lattice, against the kernel of the group product.

    Batched (B, L, n) and (B, R, n) points repeat their last rows from a
    drawn row on, as the padded tiles of a sup convolution do."""
    spec = groups.from_id(gid)
    x = data.draw(arrays(float, batch + (nx, spec.dim), elements=coord))
    y = data.draw(arrays(float, batch + (ny, spec.dim), elements=coord))
    if batch:
        for p in (x, y):
            end = data.draw(st.integers(1, p.shape[1]))
            p[:, end:] = p[:, end - 1 : end]
    right = groups.gauge_kernel(spec, groups.multiply(
        spec, x[..., :, None, :], groups.inverse(spec, y)[..., None, :, :]))
    left = groups.gauge_kernel(spec, groups.multiply(
        spec, groups.inverse(spec, x)[..., :, None, :], y[..., None, :, :]))
    assert np.array_equal(groups.pair_kernel(spec, x, y), right)
    assert np.array_equal(groups.pair_kernel(spec, x, y, "right"), right)
    assert np.array_equal(groups.pair_kernel(spec, x, y, "left"), left)


@given(point3, point3)
@settings(max_examples=100, deadline=None)
def test_heisenberg_gauge_distance_is_symmetric_bit_for_bit(a, b):
    """||a^-1 b|| == ||b^-1 a|| exactly: each term of the twisted t negates
    exactly under the swap, as pair_kernel's docstring states for its left
    kernel."""
    h1 = groups.heisenberg1()
    assert groups.gauge_distance(h1, a, b) == groups.gauge_distance(h1, b, a)
    both = np.stack([a, b])
    k = groups.pair_kernel(h1, both, both, "left")
    assert k[0, 1] == k[1, 0]


def test_pair_kernel_validation():
    h1 = groups.heisenberg1()
    pts = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        groups.pair_kernel(h1, pts, pts, "middle")
    with pytest.raises(ParameterError):
        groups.pair_kernel(h1, pts[0], pts)
    with pytest.raises(UnsupportedGeometryError):
        groups.pair_kernel(groups.grushin(), np.zeros((2, 2)), np.zeros((2, 2)))


def test_batched_pair_kernel_needs_one_leading_shape():
    h1 = groups.heisenberg1()
    with pytest.raises(ParameterError):
        groups.pair_kernel(h1, np.zeros((2, 4, 3)), np.zeros((3, 4, 3)))
    with pytest.raises(ParameterError):
        groups.pair_kernel(h1, np.zeros((2, 4, 3)), np.zeros((4, 3)))


def test_gauge_exponent_per_geometry():
    assert groups.euclidean(2).gauge_exponent == 2
    assert groups.heisenberg1().gauge_exponent == 4


def test_grushin_has_no_group_operations():
    gr = groups.grushin()
    assert not gr.is_group
    for op in (lambda: groups.multiply(gr, [0, 0], [1, 1]),
               lambda: groups.inverse(gr, [1, 1]),
               lambda: groups.gauge_norm(gr, [1, 1])):
        with pytest.raises(UnsupportedGeometryError):
            op()


def test_frame_coefficients_heisenberg():
    """X1 = dx - 2y dt and X2 = dy + 2x dt in coordinates."""
    h1 = groups.heisenberg1()
    a = groups.frame_coefficients(h1, np.array([1.0, 2.0, 0.5]))
    assert np.array_equal(a, [[1.0, 0.0, -4.0], [0.0, 1.0, 2.0]])


def test_frame_coefficients_grushin_degenerate_on_axis():
    gr = groups.grushin()
    on_axis = groups.frame_coefficients(gr, np.array([0.0, 0.7]))
    assert np.array_equal(on_axis, [[1.0, 0.0], [0.0, 0.0]])
    off_axis = groups.frame_coefficients(gr, np.array([-0.5, 0.7]))
    assert np.array_equal(off_axis, [[1.0, 0.0], [0.0, -0.5]])


@pytest.mark.parametrize("gid", ["euclidean:2", "heisenberg1", "grushin"])
def test_frame_derivatives_match_finite_differences(gid):
    spec = groups.from_id(gid)
    rng = np.random.default_rng(4)
    x = rng.normal(size=spec.dim)
    exact = groups.frame_derivatives(spec, x)
    h = 1e-6
    for axis in range(spec.dim):
        e = np.zeros(spec.dim)
        e[axis] = h
        approx = (groups.frame_coefficients(spec, x + e)
                  - groups.frame_coefficients(spec, x - e)) / (2 * h)
        assert np.allclose(exact[axis], approx, atol=1e-8)


def test_point_rank_validation():
    with pytest.raises(ParameterError):
        groups.multiply(groups.heisenberg1(), [1.0, 2.0], [0.0, 0.0, 0.0])
