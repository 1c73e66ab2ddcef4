import numpy as np
import pytest

from subinf import calculus, groups, integrands
from subinf.errors import IncompleteFieldError
from subinf.grids import EXTERIOR, GridDomain, ScalarField
from test_convolution import heisenberg_with_holes
from test_solver import box_with_cavity


def h1_box(h=0.25, band=1):
    return GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], h, band=band)


def test_gradient_of_vertical_coordinate():
    """u = t has Xu = (-2y, 2x) exactly: every stencil row is exact on

    affine functions and the frame coefficients are evaluated pointwise."""
    dom = h1_box()
    u = ScalarField.from_function(dom, lambda c: c[:, 2])
    g = calculus.horizontal_gradient(u)
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
    a = calculus.residual(u, calculus.OperatorSpec.aronsson(integrands.squared_norm()))
    lap = calculus.infinity_laplacian(u)
    inner = dom.interior_flat
    assert np.allclose(a.values[inner], 4.0 * lap.values[inner],
                       rtol=1e-12, atol=1e-12)


def test_aronsson_residual_singular_integrand_flags_zero_gradient():
    """power(1.5) has a singular gradient at p = 0: the residual is 0 at
    interior nodes where Xu = 0, even where the Hessian is not."""
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    u = ScalarField(dom, np.maximum(dom.coords[:, 0] - 0.5, 0.0))
    flat = np.all(calculus.horizontal_gradient(u) == 0.0, axis=1)
    assert np.any(flat) and not np.all(flat)
    assert np.all(calculus.horizontal_hessian(u)[flat, 0, 0] != 0.0)
    res = calculus.residual(u, calculus.OperatorSpec.aronsson(integrands.power(1.5)))
    inner = res.values[dom.interior_flat]
    assert np.all(inner[flat] == 0.0)
    assert np.all(np.isfinite(inner)) and np.all(inner[~flat] != 0.0)
    # a constant field: no gradient and no curvature anywhere
    c = ScalarField(dom, np.full(dom.n_nodes, 3.0))
    for alpha in (1.5, 4.0):
        res = calculus.residual(c, calculus.OperatorSpec.aronsson(integrands.power(alpha)))
        assert np.all(res.values[dom.interior_flat] == 0.0)


@pytest.mark.parametrize("gid", ["euclidean:2", "heisenberg1", "grushin"])
def test_adjoint_divergence_is_exact_transpose(gid):
    spec = groups.from_id(gid)
    dom = GridDomain.box(spec, [-1.0] * spec.dim, [1.0] * spec.dim, 0.25)
    rng = np.random.default_rng(11)
    u = ScalarField(dom, rng.normal(size=dom.n_nodes))
    F = rng.normal(size=(dom.interior_flat.size, spec.horizontal_dim))
    lhs = float(np.sum(calculus.horizontal_gradient(u) * F))
    div = calculus.adjoint_divergence(dom, F)
    ne = dom.nonexterior_flat
    rhs = float(np.sum(u.values[ne] * div.values[ne]))
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_adjoint_divergence_checks_its_field():
    """F is an (interior nodes, m) array; another shape or a NaN entry is refused."""
    dom = GridDomain.box(groups.heisenberg1(), [0, 0, 0], [1, 1, 1], 0.25)
    n_int = dom.interior_flat.size
    calculus.adjoint_divergence(dom, np.zeros((n_int, 2)))
    with pytest.raises(IncompleteFieldError, match=r"must have shape \(27, 2\)"):
        calculus.adjoint_divergence(dom, np.zeros((n_int, 3)))
    bad = np.zeros((n_int, 2))
    bad[4, 1] = np.nan
    with pytest.raises(IncompleteFieldError, match="non-finite horizontal component"):
        calculus.adjoint_divergence(dom, bad)


def test_horizontal_gradient_rejects_a_non_finite_component():
    """A finite field whose differences overflow has no gradient."""
    dom = GridDomain.box(groups.euclidean(1), [-1.0], [1.0], 0.25)
    u = ScalarField(dom, np.where(np.arange(dom.n_nodes) % 2, 1e308, -1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IncompleteFieldError, match="non-finite horizontal component"):
            calculus.horizontal_gradient(u)


def test_a_residual_that_overflows_is_refused():
    """u = 1e200 x^2 has a finite gradient and Hessian, but w^T M w overflows;
    the residual names the node rather than returning -inf."""
    dom = GridDomain.box(groups.euclidean(1), [-1.0], [1.0], 0.25)
    u = ScalarField.from_function(dom, lambda c: 1e200 * c[:, 0] ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IncompleteFieldError, match="non-finite value at node 1"):
            calculus.infinity_laplacian(u)


def line_with_exterior_ends():
    """euclidean:1 at h = 1/8 whose two end nodes are exterior."""
    classification = np.array([EXTERIOR, 1, 0, 0, 0, 1, EXTERIOR], dtype=np.int8)
    return GridDomain(groups.euclidean(1), np.array([0.0]), 0.125, (7,), classification)


def test_exterior_nodes_get_nan_and_do_not_leak():
    dom = line_with_exterior_ends()
    vals = dom.coords[:, 0] ** 2
    vals[~dom.nonexterior_mask] = np.nan  # junk outside the domain
    u = ScalarField(dom, vals)
    lap = calculus.infinity_laplacian(u)
    assert np.all(np.isnan(lap.values[~dom.nonexterior_mask]))
    assert np.all(np.isfinite(lap.values[dom.interior_flat]))
    x = dom.coords[dom.interior_flat, 0]
    assert np.allclose(lap.values[dom.interior_flat], -8.0 * x**2, atol=1e-12)


@pytest.mark.parametrize("lattice", [line_with_exterior_ends, box_with_cavity,
                                     heisenberg_with_holes])
def test_exterior_values_are_never_read(lattice):
    """No row of the horizontal operators stores a column at an exterior node,
    so a field that is NaN there, as a solver's output is, gives the bytes of
    one that is 0 there."""
    dom = lattice()
    ext = ~dom.nonexterior_mask
    assert np.any(ext)
    for op in dom.gradient_operators():
        assert not np.any(ext[op.indices])
    ops = [calculus.OperatorSpec.infinity_laplacian(),
           calculus.OperatorSpec.aronsson(integrands.power(4 / 3))]
    vals = np.random.default_rng(dom.n_nodes).normal(size=dom.n_nodes)
    runs = []
    for fill in (np.nan, 0.0):
        vals[ext] = fill
        u = ScalarField(dom, vals)
        runs.append([calculus.horizontal_gradient(u), calculus.horizontal_hessian(u)]
                    + [calculus.residual(u, op).values for op in ops])
    for nan_out, zero_out in zip(*runs):
        assert nan_out.tobytes() == zero_out.tobytes()


def reference_residual(u, f=None):
    """The einsum form of the residual: -w^T (XXu)* w with w = Xu or grad f(Xu)."""
    grad = calculus.horizontal_gradient(u)
    w = grad if f is None else f.grad(grad)
    full = np.zeros(u.domain.n_nodes)
    full[u.domain.interior_flat] = -np.einsum("ki,kij,kj->k", w,
                                              calculus.horizontal_hessian(u), w)
    full[~u.domain.nonexterior_mask] = np.nan
    return full


@pytest.mark.parametrize("alpha", [None, 1.0, 4 / 3, 2.0, 3.0])
@pytest.mark.parametrize("gid,upper,h", [
    ("euclidean:1", [1.0], 0.125), ("euclidean:2", [1.0, 1.0], 0.25),
    ("euclidean:3", [1.0, 1.0, 1.0], 0.5), ("heisenberg1", [1.0, 1.0, 1.0], 0.25),
    ("grushin", [1.0, 1.0], 0.25), ("euclidean:2", [-0.5, -0.5], 0.25),
])
def test_residual_equals_the_einsum_form_bit_for_bit(gid, upper, h, alpha):
    """infinity_laplacian is calculus.residual of its OperatorSpec, and
    OperatorSpec.evaluate sums w_i M_ij w_j in einsum's order, so the values
    of both operators are those of the einsum form, NaN and 0 included.  The
    last lattice has one interior node."""
    spec = groups.from_id(gid)
    dom = GridDomain.box(spec, [-1.0] * spec.dim, upper, h)
    rng = np.random.default_rng(len(gid) + dom.n_nodes)
    u = ScalarField(dom, rng.normal(size=dom.n_nodes))
    if alpha is None:
        got = calculus.infinity_laplacian(u).values
        ref = reference_residual(u)
    else:
        f = integrands.power(alpha)
        got = calculus.residual(u, calculus.OperatorSpec.aronsson(f)).values
        ref = reference_residual(u, f)
    assert got.tobytes() == ref.tobytes()
