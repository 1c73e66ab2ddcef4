import numpy as np
import pytest

from subinf import calculus, groups, integrands
from subinf.grids import EXTERIOR, GridDomain, HorizontalField, ScalarField


def h1_box(h=0.25, band=1):
    return GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], h, band=band)


def test_gradient_of_vertical_coordinate():
    """u = t has Xu = (-2y, 2x) exactly: every stencil row is exact on

    affine functions and the frame coefficients are evaluated pointwise."""
    dom = h1_box()
    u = ScalarField.from_function(dom, lambda c: c[:, 2])
    g = calculus.horizontal_gradient(u).values
    xy = dom.coords[dom.interior_flat]
    assert np.allclose(g[:, 0], -2 * xy[:, 1], atol=1e-13)
    assert np.allclose(g[:, 1], 2 * xy[:, 0], atol=1e-13)


def test_hessian_of_vertical_coordinate_cancels():
    # X1X2 t = 2 and X2X1 t = -2, so the symmetrised Hessian vanishes.
    dom = h1_box()
    u = ScalarField.from_function(dom, lambda c: c[:, 2])
    hess = calculus.horizontal_hessian(u)
    assert np.max(np.abs(hess)) < 1e-10


def test_euclidean_hessian_exact_on_quadratics():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)
    u = ScalarField.from_function(dom, lambda c: c[:, 0] ** 2 + 3 * c[:, 0] * c[:, 1])
    hess = calculus.horizontal_hessian(u)
    expect = np.array([[2.0, 3.0], [3.0, 0.0]])
    assert np.allclose(hess - expect, 0.0, atol=1e-11)


@pytest.mark.parametrize("gid", ["heisenberg1", "grushin"])
def test_hessian_is_one_symmetric_matrix_per_interior_node(gid):
    spec = groups.from_id(gid)
    dom = GridDomain.box(spec, [-1.0] * spec.dim, [1.0] * spec.dim, 0.25)
    u = ScalarField(dom, np.random.default_rng(5).normal(size=dom.n_nodes))
    hess = calculus.horizontal_hessian(u)
    m = spec.horizontal_dim
    assert hess.shape == (dom.interior_flat.size, m, m)
    assert np.all(np.isfinite(hess)) and np.any(hess[:, 0, 1] != 0.0)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))


def test_infinity_laplacian_1d_quadratic():
    dom = GridDomain.box(groups.euclidean(1), [-1.0], [1.0], 0.125)
    u = ScalarField.from_function(dom, lambda c: c[:, 0] ** 2)
    lap = calculus.infinity_laplacian(u)
    x = dom.coords[dom.interior_flat, 0]
    assert np.allclose(lap.values[dom.interior_flat], -8.0 * x**2, atol=1e-12)
    assert np.all(lap.values[dom.boundary_flat] == 0.0)


def test_infinity_laplacian_refines_at_second_order():
    # sup over a window fixed across both lattices, away from the band
    dom1 = GridDomain.box(groups.euclidean(1), [-1.0], [1.0], 0.1, band=2)
    dom2 = GridDomain.box(groups.euclidean(1), [-1.0], [1.0], 0.05, band=2)
    sups = []
    for dom in (dom1, dom2):
        u = ScalarField.from_function(dom, lambda c: c[:, 0] ** 3)
        x = dom.coords[dom.interior_flat, 0]
        exact = -54.0 * x**5
        lap = calculus.infinity_laplacian(u)
        err = np.abs(lap.values[dom.interior_flat] - exact)
        sups.append(np.max(err[np.abs(x) <= 0.5]))
    assert sups[0] / sups[1] >= 3.0


def test_aronsson_residual_squared_norm_is_four_times_infinity_laplacian():
    dom = h1_box(0.25)
    rng = np.random.default_rng(7)
    u = ScalarField(dom, rng.normal(size=dom.n_nodes))
    a = calculus.aronsson_residual(u, integrands.squared_norm())
    lap = calculus.infinity_laplacian(u)
    inner = dom.interior_flat
    assert np.allclose(a.values[inner], 4.0 * lap.values[inner],
                       rtol=1e-12, atol=1e-12)


def test_aronsson_residual_singular_integrand_flags_zero_gradient():
    """power(1.5) has a singular gradient at p = 0: the residual is 0 at
    interior nodes where Xu = 0, even where the Hessian is not."""
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    u = ScalarField(dom, np.maximum(dom.coords[:, 0] - 0.5, 0.0))
    flat = np.all(calculus.horizontal_gradient(u).values == 0.0, axis=1)
    assert np.any(flat) and not np.all(flat)
    assert np.all(calculus.horizontal_hessian(u)[flat, 0, 0] != 0.0)
    res = calculus.aronsson_residual(u, integrands.power(1.5))
    inner = res.values[dom.interior_flat]
    assert np.all(inner[flat] == 0.0)
    assert np.all(np.isfinite(inner)) and np.all(inner[~flat] != 0.0)
    # a constant field: no gradient and no curvature anywhere
    c = ScalarField(dom, np.full(dom.n_nodes, 3.0))
    for alpha in (1.5, 4.0):
        res = calculus.aronsson_residual(c, integrands.power(alpha))
        assert np.all(res.values[dom.interior_flat] == 0.0)


@pytest.mark.parametrize("gid", ["euclidean:2", "heisenberg1", "grushin"])
def test_adjoint_divergence_is_exact_transpose(gid):
    spec = groups.from_id(gid)
    dom = GridDomain.box(spec, [-1.0] * spec.dim, [1.0] * spec.dim, 0.25)
    rng = np.random.default_rng(11)
    u = ScalarField(dom, rng.normal(size=dom.n_nodes))
    F = HorizontalField(
        dom, rng.normal(size=(dom.interior_flat.size, spec.horizontal_dim))
    )
    lhs = float(np.sum(calculus.horizontal_gradient(u).values * F.values))
    div = calculus.adjoint_divergence(F)
    ne = dom.nonexterior_flat
    rhs = float(np.sum(u.values[ne] * div.values[ne]))
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_exterior_nodes_get_nan_and_do_not_leak():
    spec = groups.euclidean(1)
    classification = np.array([EXTERIOR, 1, 0, 0, 0, 1, EXTERIOR], dtype=np.int8)
    dom = GridDomain(spec, np.array([0.0]), 0.125, (7,), classification)
    vals = dom.coords[:, 0] ** 2
    vals[~dom.nonexterior_mask] = np.nan  # junk outside the domain
    u = ScalarField(dom, vals)
    lap = calculus.infinity_laplacian(u)
    assert np.all(np.isnan(lap.values[~dom.nonexterior_mask]))
    assert np.all(np.isfinite(lap.values[dom.interior_flat]))
    x = dom.coords[dom.interior_flat, 0]
    assert np.allclose(lap.values[dom.interior_flat], -8.0 * x**2, atol=1e-12)
