import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from subinf import acceptance, groups, integrands, solver
from subinf.errors import DomainMismatchError, IncompleteFieldError, ParameterError
from subinf.grids import EXTERIOR, GridDomain, ScalarField
from subinf.solver import BoundaryData, SolverConfig

from test_convolution import heisenberg_with_holes


def line_domain(n=4, band=1):
    return GridDomain.box(groups.euclidean(1), [0.0], [1.0], 1.0 / n, band=band)


def line_boundary(dom, slope=1.0, offset=0.0):
    return BoundaryData.from_function(dom, lambda c: slope * c[:, 0] + offset)


SQ = integrands.squared_norm()


# -- energy ---------------------------------------------------------------


def test_energy_of_linear_field_frozen():
    # |u'|^2 = 1 on each of the 4 cells, cell volume 1/4
    dom = line_domain(4)
    u = ScalarField.from_function(dom, lambda c: c[:, 0])
    for k in (1, 2, 7, 32):
        assert solver.energy(u, SQ, k) == 1.0


def test_energy_source_term_sign():
    dom = line_domain(4)
    u = ScalarField.from_function(dom, lambda c: c[:, 0])
    base = solver.energy(u, SQ, 3)
    s = 0.5**2 * 0.25 * float(np.sum(u.values[dom.interior_flat]))
    assert np.isclose(solver.energy(u, SQ, 3, eps=0.5, side="lower"), base - s)
    assert np.isclose(solver.energy(u, SQ, 3, eps=0.5, side="upper"), base + s)


def test_energy_validation():
    dom = line_domain(4)
    u = ScalarField.zeros(dom)
    with pytest.raises(ParameterError):
        solver.energy(u, SQ, 0)
    with pytest.raises(ParameterError):
        solver.energy(u, SQ, 2, side="middle")
    with pytest.raises(ParameterError):
        solver.energy(u, SQ, 2, eps=-1.0)
    with pytest.raises(ParameterError):
        solver.energy(u, SQ, 2, eps=math.nan)


@given(st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
       st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_energy_midpoint_convexity(a, b, k):
    dom = line_domain(8)
    u = ScalarField(dom, np.array(a))
    v = ScalarField(dom, np.array(b))
    mid = ScalarField(dom, 0.5 * (u.values + v.values))
    lhs = solver.energy(mid, SQ, k)
    rhs = 0.5 * (solver.energy(u, SQ, k) + solver.energy(v, SQ, k))
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("eps,side", [(0.0, "lower"), (0.3, "lower"),
                                      (0.3, "upper")])
def test_reported_energy_is_the_public_energy(eps, side):
    """energy() is the objective the solver minimizes and reports."""
    dom = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.25)
    g = BoundaryData.from_function(
        dom, lambda c: np.abs(c[:, 0]) ** (4 / 3) - np.abs(c[:, 1]) ** (4 / 3))
    cfg = SolverConfig(k_max=8)
    rep = (solver.aux_solve(g, SQ, eps, side, cfg) if eps > 0
           else solver.infinity_solve(g, SQ, cfg))
    k = rep.k_schedule[-1]
    assert np.isclose(solver.energy(rep.solution, SQ, k, eps, side),
                      rep.energy_trace[k][-1], rtol=1e-10, atol=0.0)


# -- boundary data --------------------------------------------------------


def test_boundary_data_validation():
    dom = line_domain(4)
    with pytest.raises(ParameterError):
        BoundaryData(dom, [1.0, 2.0, 3.0])
    with pytest.raises(IncompleteFieldError):
        BoundaryData(dom, [1.0, np.nan])


def test_boundary_extend_nearest():
    dom = line_domain(4)
    g = BoundaryData(dom, [2.0, 6.0])
    ext = g.extend_nearest().values
    assert np.array_equal(ext, [2.0, 2.0, 2.0, 6.0, 6.0])


WARM_LATTICES = {
    "heisenberg1": lambda: GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.5),
    "euclidean:2": lambda: GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.25),
    "grushin": lambda: GridDomain.box(groups.grushin(), [-1, -1], [1, 1], 0.25),
    "heisenberg1 with holes": heisenberg_with_holes,
}


@functools.lru_cache(maxsize=None)
def warm_start_by_pair_loops(lattice):
    """The nearest extension, its tie count and the Lipschitz constant, pair by pair.

    Distinct boundary values make every tie visible: the extension must
    take the lowest flat index among the equidistant boundary nodes.  The
    distance is the coordinate one for the extension, and for the
    Lipschitz constant the gauge distance (coordinate on grushin)."""
    dom = WARM_LATTICES[lattice]()
    bflat = dom.boundary_flat
    values = np.arange(bflat.size) * 0.37 % 1.0
    ext = np.full(dom.n_nodes, np.nan)
    ext[bflat] = values
    ties = 0
    for node in dom.interior_flat:
        d2 = [sum((float(a) - float(b)) ** 2
                  for a, b in zip(dom.coords[node], dom.coords[f])) for f in bflat]
        best = min(d2)
        ties += d2.count(best) > 1
        ext[node] = values[d2.index(best)]
    lip = 0.0
    for i in range(bflat.size):
        a = dom.coords[bflat[i]]
        if dom.spec.is_group:
            row = groups.gauge_distance(dom.spec, a, dom.coords[bflat]).tolist()
        else:
            row = [math.sqrt(sum((float(p) - float(q)) ** 2 for p, q in zip(a, b)))
                   for b in dom.coords[bflat]]
        for j, d in enumerate(row):
            if d > 0:
                lip = max(lip, abs(values[i] - values[j]) / d)
    return dom, values, ext, ties, lip


@pytest.mark.parametrize("block", [None, 200_000, 7])
def test_warm_start_matches_brute_force_loops(monkeypatch, block):
    """extend_nearest and graph_lipschitz against plain pair loops.

    block None keeps the module's sweep sizes; otherwise it is both the
    pairs per graph_lipschitz block and the nodes per extend_nearest tile,
    so 200 000 sweeps each lattice in one piece and 7 puts block and tile
    edges everywhere."""
    if block is not None:
        monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
        monkeypatch.setattr(solver, "_TILE_NODES", block)
    for lattice in WARM_LATTICES:
        dom, values, ext, ties, lip = warm_start_by_pair_loops(lattice)
        g = BoundaryData(dom, values)
        assert ties > 0, lattice
        assert np.array_equal(g.extend_nearest().values, ext, equal_nan=True), lattice
        assert g.graph_lipschitz() == lip, lattice


def test_graph_lipschitz_linear():
    dom = line_domain(4)
    assert np.isclose(line_boundary(dom, slope=3.0).graph_lipschitz(), 3.0)
    # shifting changes nothing: only differences enter
    g = line_boundary(dom, slope=3.0)
    assert np.isclose(g.shift(10.0).graph_lipschitz(), 3.0)


# -- config ---------------------------------------------------------------


def test_schedule_is_dyadic_with_exact_cap():
    assert SolverConfig(k_max=24).schedule() == (2, 4, 8, 16, 24)
    assert SolverConfig(k_max=16).schedule() == (2, 4, 8, 16)
    assert SolverConfig(k_schedule=(3, 5, 9)).schedule() == (3, 5, 9)


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(k_max=2)
    with pytest.raises(ParameterError):
        SolverConfig(k_schedule=(4, 4))
    with pytest.raises(ParameterError):
        SolverConfig(k_schedule=(8, 2))
    with pytest.raises(ParameterError):
        SolverConfig(initialization="random")
    for name in ("gradient_tolerance", "cross_tolerance"):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match=name):
                SolverConfig(**{name: bad})


# -- single-level minimization --------------------------------------------


@pytest.mark.parametrize("k", [2, 4, 16, 64])
def test_minimize_k_reproduces_linear_interpolant(k):
    """The cell quadrature in 1D is minimized by the linear interpolant

    at every k, so the discrete solution should nail it."""
    dom = line_domain(8)
    g = line_boundary(dom, slope=2.0, offset=-0.5)
    rep = solver.minimize_k(g, SQ, k, 0.0, "lower")
    exact = 2.0 * dom.coords[:, 0] - 0.5
    assert rep.converged
    assert np.max(np.abs(rep.solution.values - exact)) <= 1e-6


def test_minimize_k_matches_lbfgs_oracle():
    """Independent check: hand-assembled forward-difference objective

    minimized by scipy's L-BFGS-B from a cold start."""
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] ** 2 - c[:, 1] ** 2)
    k = 4
    rep = solver.minimize_k(g, SQ, k, 0.0, "lower")

    nx = ny = 5
    h = 0.25
    base = np.zeros((nx, ny))
    bvals = g.values
    bidx = [dom.multi_of_flat(f) for f in dom.boundary_flat]
    for (i, j), v in zip(bidx, bvals):
        base[i, j] = v
    free = [dom.multi_of_flat(f) for f in dom.interior_flat]

    def objective(z):
        u = base.copy()
        for (i, j), v in zip(free, z):
            u[i, j] = v
        gx = (u[1:, :-1] - u[:-1, :-1]) / h
        gy = (u[:-1, 1:] - u[:-1, :-1]) / h
        q = gx**2 + gy**2
        e = h**2 * np.sum(q**k)
        w = 2 * k * q ** (k - 1)
        du = np.zeros((nx, ny))
        du[1:, :-1] += w * gx / h
        du[:-1, :-1] -= w * gx / h
        du[:-1, 1:] += w * gy / h
        du[:-1, :-1] -= w * gy / h
        du *= h**2
        return e, np.array([du[i, j] for i, j in free])

    res = scipy.optimize.minimize(
        objective, np.zeros(len(free)), jac=True, method="L-BFGS-B",
        options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-12},
    )
    oracle = np.array(res.x)
    got = rep.solution.values[dom.interior_flat]
    assert np.max(np.abs(got - oracle)) <= 1e-6
    e_pkg = rep.energy_trace[k][-1]
    assert np.isclose(e_pkg, res.fun, rtol=1e-10, atol=1e-14)


def test_newton_level_matches_lbfgs_oracle_at_k8():
    """The k = 8 level against L-BFGS-B on a hand-assembled objective."""
    h = 0.25
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], h)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] * c[:, 1]
                                   + 0.5 * c[:, 0] ** 3)
    k = 8
    rep = solver.minimize_k(g, SQ, k, 0.0, "lower")
    assert rep.converged
    assert [lv.stop for lv in rep.levels] == ["gradient_tolerance"] * 3

    base = g.base_values()
    free = dom.interior_flat

    def objective(z):
        u = base.copy()
        u[free] = z
        u = u.reshape(dom.dims)
        gx = (u[1:, :-1] - u[:-1, :-1]) / h
        gy = (u[:-1, 1:] - u[:-1, :-1]) / h
        q = gx**2 + gy**2
        w = 2 * k * q ** (k - 1) * h
        du = np.zeros(dom.dims)
        du[1:, :-1] += w * gx
        du[:-1, :-1] -= w * gx
        du[:-1, 1:] += w * gy
        du[:-1, :-1] -= w * gy
        return h**2 * np.sum(q**k), du.reshape(-1)[free]

    res = scipy.optimize.minimize(
        objective, np.zeros(free.size), jac=True, method="L-BFGS-B",
        options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-12},
    )
    assert np.max(np.abs(rep.solution.values[free] - res.x)) <= 1e-6
    assert np.isclose(rep.energy_trace[k][-1], res.fun, rtol=1e-10)


@pytest.mark.parametrize("geometry,lower,upper,h", [
    ("euclidean:2", [0, 0], [1, 1], 0.25),
    ("heisenberg1", [-1, -1, -1], [1, 1, 1], 0.5),
    ("grushin", [-1, -1], [1, 1], 0.25),  # nodes on the degenerate x = 0 line
])
@pytest.mark.parametrize("f", [SQ, integrands.power(1.5)], ids=["sq", "power1.5"])
@pytest.mark.parametrize("k", [2, 8])
def test_hessian_matches_finite_differences(geometry, lower, upper, h, f, k):
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, 1] ** 2)
    obj = solver._Objective(dom, g.base_values(), f, k, 0.0, "lower",
                            g.graph_lipschitz())
    z = np.random.default_rng(k).normal(scale=0.3, size=dom.interior_flat.size)
    hess = obj.hessian(z).toarray()
    step = 1e-6
    fd = np.empty_like(hess)
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = step
        fd[:, i] = (obj.value_grad(z + e)[1] - obj.value_grad(z - e)[1]) / (2 * step)
    assert np.max(np.abs(hess - fd)) <= 1e-7 * np.max(np.abs(fd))
    assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
    # a flat start (q = 0 on whole cells) keeps every weight finite
    flat = obj.hessian(np.zeros(z.size))
    assert np.all(np.isfinite(flat.data))


def cell_operators_by_definition(dom):
    """The csr X_i of the cell quadrature, written cell by cell from
    X_i u[r] = sum_j c_ij(x_r) (u[x_r + e_j] - u[x_r]) / h.  Cell r sits
    at node x_r, in flat order, when x_r and every x_r + e_j lie on the
    lattice and are not exterior."""
    n = dom.spec.dim
    m = dom.spec.horizontal_dim
    entries = [[] for _ in range(m)]  # (row, column, value) per operator
    r = 0
    for x in range(dom.n_nodes):
        mi = dom.multi_indices[x]
        if any(mi[j] + 1 >= dom.dims[j] for j in range(n)):
            continue
        corners = [x] + [x + int(dom.strides[j]) for j in range(n)]
        if any(dom.classification[c] == EXTERIOR for c in corners):
            continue
        c = dom.frame_coefficients[x]
        for i in range(m):
            for j in range(n):
                entries[i].append((r, corners[j + 1], c[i, j] / dom.h))
                entries[i].append((r, x, -c[i, j] / dom.h))
        r += 1
    ops = []
    for ent in entries:
        rows, cols, vals = (np.array(a) for a in zip(*ent))
        ops.append(scipy.sparse.csr_matrix((vals, (rows, cols)),
                                           shape=(r, dom.n_nodes)))
    return ops


def reference_hessian(obj, z):
    """The free-node Hessian of obj from sparse matrix products.

    With V = Xu per cell and the weights a, b of _Objective.hessian as
    diagonals A, B: H = cell * (Y^T B Y + sum_i X_i^T A X_i), where
    Y = sum_i diag(V_i) X_i and every X_i keeps only its free columns."""
    ops = cell_operators_by_definition(obj.domain)
    ops_free = [op[:, obj.free].tocsr() for op in ops]
    V = np.stack([op @ obj.full_of(z) for op in ops])
    q = np.sum(V * V, axis=0)
    kappa = obj.kappa
    # q^e where q > 0; at q = 0, q^0 = 1 and every other power is 0
    pos = q > 0
    qs = np.where(pos, q, 1.0)
    a = 2.0 * kappa * np.where(pos, qs ** (kappa - 1.0), float(kappa == 1.0))
    b = 4.0 * kappa * (kappa - 1.0) * np.where(pos, qs ** (kappa - 2.0),
                                               float(kappa == 2.0))
    y = sum(scipy.sparse.diags(V[i]) @ op for i, op in enumerate(ops_free))
    hess = y.T @ scipy.sparse.diags(b) @ y
    for op in ops_free:
        hess = hess + op.T @ scipy.sparse.diags(a) @ op
    return (obj.cell * hess).tocsr()


HESSIAN_DOMAINS = {
    "line": lambda: GridDomain.box(groups.euclidean(1), [0.0], [1.0], 0.125),
    "plane": lambda: GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25),
    "space": lambda: GridDomain.box(groups.euclidean(3), [0, -0.5, 0], [1, 1, 1.25], 0.25),
    "heis": lambda: GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.5),
    # nodes on the degenerate x = 0 line
    "grushin": lambda: GridDomain.box(groups.grushin(), [-1, -1], [1, 1], 0.25),
    "heis_holes": heisenberg_with_holes,
}


@pytest.mark.parametrize("lattice", HESSIAN_DOMAINS)
def test_corner_table_applies_the_cell_operators_and_their_adjoint(lattice):
    """_cell_gradient and _cell_adjoint against the operators written cell
    by cell from their definition, and against each other."""
    dom = HESSIAN_DOMAINS[lattice]()
    cells = solver._cell_operators(dom)
    ops = cell_operators_by_definition(dom)
    rng = np.random.default_rng(7)
    u = rng.normal(size=dom.n_nodes)
    w = rng.normal(size=(len(ops), ops[0].shape[0]))
    Xu = solver._cell_gradient(cells, u)
    XTw = solver._cell_adjoint(cells, w, dom.n_nodes)
    ref = np.stack([op @ u for op in ops])
    ref_T = sum(op.T @ w[i] for i, op in enumerate(ops))
    assert Xu.shape == ref.shape
    assert np.max(np.abs(Xu - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(XTw - ref_T)) <= 1e-13 * np.max(np.abs(ref_T))
    # <Xu, w> = <u, X^T w> to rounding
    lhs, rhs = np.sum(Xu * w), u @ XTw
    assert abs(lhs - rhs) <= 1e-13 * np.sum(np.abs(Xu * w))


@pytest.mark.parametrize("lattice", HESSIAN_DOMAINS)
@pytest.mark.parametrize("eps,side", [(0.0, "lower"), (0.3, "upper")])
def test_energy_gradient_is_the_adjoint_of_the_cell_operators(lattice, eps, side):
    """value_grad against the k-energy written with the reference operators:
    E = cell (sum_r q_r^kappa + sign src sum z), q = |Xu|^2, and
    grad E = cell (sum_i X_i^T (2 kappa q^(kappa-1) X_i u) + sign src)."""
    dom = HESSIAN_DOMAINS[lattice]()
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, -1] ** 2)
    f = integrands.power(1.5)
    obj = solver._Objective(dom, g.base_values(), f, 4, eps, side,
                            g.graph_lipschitz())
    z = np.random.default_rng(3).normal(scale=0.3, size=dom.interior_flat.size)
    ops = cell_operators_by_definition(dom)
    V = np.stack([op @ obj.full_of(z) for op in ops])
    q = np.sum(V * V, axis=0)
    lin = obj.sign * obj.src
    e_ref = obj.cell * (np.sum(q ** obj.kappa) + lin * np.sum(z))
    w = 2.0 * obj.kappa * q ** (obj.kappa - 1.0) * V
    g_ref = obj.cell * (sum(op.T @ w[i] for i, op in enumerate(ops))[obj.free] + lin)
    e, grad = obj.value_grad(z)
    assert e == pytest.approx(e_ref, rel=1e-13)
    assert np.max(np.abs(grad - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))


@pytest.mark.parametrize("lattice", HESSIAN_DOMAINS)
@pytest.mark.parametrize("f", [SQ, integrands.power(1.5)], ids=["sq", "power1.5"])
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("start", ["random", "flat"])  # flat: q = 0 on whole cells
def test_hessian_matches_the_sparse_product_reference(lattice, f, k, start):
    dom = HESSIAN_DOMAINS[lattice]()
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, -1] ** 2)
    obj = solver._Objective(dom, g.base_values(), f, k, 0.0, "lower",
                            g.graph_lipschitz())
    nf = dom.interior_flat.size
    z = (np.zeros(nf) if start == "flat"
         else np.random.default_rng(k).normal(scale=0.3, size=nf))
    hess = obj.hessian(z)
    ref = reference_hessian(obj, z).toarray()
    assert np.max(np.abs(ref)) > 0
    assert np.max(np.abs(hess.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    # canonical csr: sorted columns without duplicates, and a stored
    # diagonal for every free node at the slot the damping writes to
    assert hess.shape == (nf, nf)
    row_of = np.repeat(np.arange(nf), np.diff(hess.indptr))
    same_row = row_of[1:] == row_of[:-1]
    assert np.all(np.diff(hess.indices)[same_row] > 0)
    diag_pos = obj.cells.diag_pos
    assert np.array_equal(row_of[diag_pos], np.arange(nf))
    assert np.array_equal(hess.indices[diag_pos], np.arange(nf))


@pytest.mark.parametrize("lattice", HESSIAN_DOMAINS)
@pytest.mark.parametrize("f", [SQ, integrands.power(1.5)], ids=["sq", "power1.5"])
@pytest.mark.parametrize("k", [1, 2, 8, 64])
@pytest.mark.parametrize("start", ["random", "flat"])  # flat: q = 0 on whole cells
def test_line_search_sees_the_energy_the_descent_tests(lattice, f, k, start):
    """phi(0) of the line search is value_grad's energy bit for bit, and
    phi'(0) and phi''(0) are g.d and d^T H d; at kappa = 1 and 2 the flat
    start has cells where q^(kappa-1) or q^(kappa-2) is q^0 = 1."""
    dom = HESSIAN_DOMAINS[lattice]()
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, -1] ** 2)
    obj = solver._Objective(dom, g.base_values(), f, k, 0.3, "upper",
                            g.graph_lipschitz())
    nf = dom.interior_flat.size
    rng = np.random.default_rng(k)
    z = np.zeros(nf) if start == "flat" else rng.normal(scale=0.3, size=nf)
    d = rng.normal(size=nf)
    e, grad = obj.value_grad(z)
    assert math.isfinite(e)
    phi, dphi, d2phi = obj.line_eval(obj.direction_state(z, d), 0.0)
    assert phi == e
    assert dphi == pytest.approx(grad @ d, rel=1e-12)
    assert d2phi == pytest.approx(d @ (obj.hessian(z) @ d), rel=1e-12)


def _damped_newton_system(geometry, lower, upper, h, k, start):
    """The first Newton system (H + D, g) of a level, damped as in _descend."""
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, 1] ** 2)
    obj = solver._Objective(dom, g.base_values(), SQ, k, 0.0, "lower",
                            g.graph_lipschitz())
    n = dom.interior_flat.size
    z = (np.zeros(n) if start == "flat"
         else np.random.default_rng(k).normal(scale=0.3, size=n))
    grad = obj.value_grad(z)[1]
    hess = obj.hessian(z)
    diag = hess.diagonal()
    top = float(np.max(diag))
    shift = (min(float(np.max(np.abs(grad))), solver._SHIFT_CAP * top)
             + solver._SHIFT_FLOOR * top)
    return hess + scipy.sparse.diags(solver._MU_START * diag + shift), grad


def reference_pcg(A, b, rtol):
    """Jacobi-preconditioned CG as one expression per update, allocating
    every vector anew; _pcg updates the same vectors in place."""
    scale = np.max(np.abs(b))
    r = b / scale
    x = np.zeros_like(r)
    inv = 1.0 / A.diagonal()
    p = z = inv * r
    rz = r @ z
    stop = rtol * np.linalg.norm(r)
    for it in range(1, r.size + 1):
        ap = A @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if not np.linalg.norm(r) > stop:
            break
        z = inv * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return scale * x, it


DAMPED_SYSTEMS = pytest.mark.parametrize("geometry,lower,upper,h", [
    ("euclidean:2", [0, 0], [1, 1], 0.25),
    ("heisenberg1", [-1, -1, -1], [1, 1, 1], 0.5),
    ("grushin", [-1, -1], [1, 1], 0.25),  # nodes on the degenerate x = 0 line
])


@DAMPED_SYSTEMS
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("start", ["random", "flat"])  # flat: empty rows of H
def test_pcg_solves_the_damped_newton_system(geometry, lower, upper, h, k,
                                             start):
    A, g = _damped_newton_system(geometry, lower, upper, h, k, start)
    rtol = solver._CG_RTOL
    x, its = solver._pcg(A, g, rtol)
    assert 1 <= its <= g.size
    # the recurrence residual stopped at rtol; the true one differs from
    # it only by rounding
    assert np.linalg.norm(A @ x - g) <= 1.01 * rtol * np.linalg.norm(g)
    ref = scipy.sparse.linalg.spsolve(A.tocsc(), g)
    cond = np.linalg.cond(A.toarray())
    assert np.linalg.norm(x - ref) <= cond * rtol * np.linalg.norm(ref)
    assert g @ x > 0
    # a loose solve stops as soon as it meets its own tolerance, and one
    # stopped after its first iteration still gives a descent direction
    loose, its_loose = solver._pcg(A, g, 0.5)
    assert its_loose <= its and g @ loose > 0
    assert np.linalg.norm(A @ loose - g) <= 1.01 * 0.5 * np.linalg.norm(g)
    x1, its1 = solver._pcg(A, g, np.inf)
    assert its1 == 1 and g @ x1 > 0


@DAMPED_SYSTEMS
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("start", ["random", "flat"])
@pytest.mark.parametrize("rtol", [solver._CG_RTOL, 1e-3, 0.5])
def test_pcg_matches_the_reference_loop_bit_for_bit(geometry, lower, upper, h,
                                                    k, start, rtol):
    A, g = _damped_newton_system(geometry, lower, upper, h, k, start)
    x, its = solver._pcg(A, g, rtol)
    ref, its_ref = reference_pcg(A, g, rtol)
    assert its == its_ref
    assert np.array_equal(x, ref)


def test_pcg_keeps_its_stop_rule_beyond_the_range_of_the_2_norm():
    """Gradients above ~1e154 overflow |g|_2; the solve must not stop
    early on an infinite threshold."""
    A, g = _damped_newton_system("euclidean:2", [0, 0], [1, 1], 0.25, 2, "random")
    x, its = solver._pcg(A, g, solver._CG_RTOL)
    big, its_big = solver._pcg(A, 1e200 * g, solver._CG_RTOL)
    assert its_big == its > 1
    assert np.allclose(big / 1e200, x, rtol=1e-12, atol=0)


def test_forcing_term_follows_the_gradient_and_the_residual():
    # first step: 0.5, or sqrt(residual) once that is smaller
    assert solver._forcing(1.0, None) == 0.5
    assert solver._forcing(1e-6, None) == pytest.approx(1e-3)
    # Eisenstat-Walker choice 2: 0.9 (|g_j|_2 / |g_j-1|_2)^2
    assert solver._forcing(1.0, 0.1) == pytest.approx(0.009)
    assert solver._forcing(1.0, 10.0) == 0.5
    assert solver._forcing(1e-4, 0.5) == pytest.approx(1e-2)
    # never tighter than _CG_RTOL
    assert solver._forcing(1e-30, 1e-9) == solver._CG_RTOL
    # a gradient that overflows the ratio only loosens the solve
    assert solver._forcing(1.0, np.inf) == 0.5


def test_newton_steps_from_one_cg_iteration_still_descend(monkeypatch):
    monkeypatch.setattr(solver, "_forcing", lambda residual, ratio: np.inf)
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] ** 2 - c[:, 1] ** 2)
    rep = solver.minimize_k(g, SQ, 2, 0.0, "lower", SolverConfig(max_iterations=8))
    (lv,) = rep.levels
    assert lv.iterations >= 1
    # one CG iteration per Newton system solved
    assert lv.cg_iterations in (lv.iterations, lv.iterations + 1)
    assert np.all(np.diff(rep.energy_trace[2]) < 0)


ORACLE_SOLVES = {
    # Aronsson's infinity-harmonic |x|^(4/3) - |y|^(4/3)
    "plane": ("euclidean:2", [-1, -1], [1, 1], 0.125, 8,
              lambda c: np.abs(c[:, 0]) ** (4 / 3) - np.abs(c[:, 1]) ** (4 / 3)),
    "heis": ("heisenberg1", [-1, -1, -1], [1, 1, 1], 0.25, 4,
             lambda c: c[:, 0] * c[:, 1]),
    "grushin": ("grushin", [-1, -1], [1, 1], 0.25, 8,
                lambda c: 0.5 * c[:, 0] + c[:, 1] ** 2),
}


@pytest.mark.parametrize("case", ORACLE_SOLVES)
def test_forcing_terms_reach_the_fixed_tolerance_solution(monkeypatch, case):
    """Solving every Newton system to _CG_RTOL is the reference: the
    loose early solves must end every level at the same tolerance and
    at the same minimizer."""
    geometry, lower, upper, h, k_max, fn = ORACLE_SOLVES[case]
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, fn)
    config = SolverConfig(k_max=k_max)
    got = solver.infinity_solve(g, SQ, config)
    monkeypatch.setattr(solver, "_forcing", lambda residual, ratio: solver._CG_RTOL)
    ref = solver.infinity_solve(g, SQ, config)
    for rep in (got, ref):
        assert [lv.stop for lv in rep.levels] == ["gradient_tolerance"] * len(rep.levels)
    assert [lv.k for lv in got.levels] == [lv.k for lv in ref.levels]
    assert sum(lv.cg_iterations for lv in got.levels) < \
        sum(lv.cg_iterations for lv in ref.levels)
    inner = dom.interior_flat
    assert np.max(np.abs(got.solution.values[inner] - ref.solution.values[inner])) <= 1e-8


def _record_pcg(monkeypatch):
    """Wrap _pcg; returns the list of (rtol, right-hand side) it was called with."""
    calls = []
    pcg = solver._pcg

    def recording(A, b, rtol):
        calls.append((rtol, b.copy()))
        return pcg(A, b, rtol)

    monkeypatch.setattr(solver, "_pcg", recording)
    return calls


def test_a_loose_step_that_makes_no_progress_is_solved_again(monkeypatch):
    """The a6_heisenberg k = 4 level from the k = 2 minimizer starts at
    residual 3e-8.  A direction solved only to eta = 0.5 lowers the
    energy by less than its rounding error there; the level must solve
    the same system again to _CG_RTOL and go on, not stall."""
    cfg = acceptance._cfg(acceptance.bundled_config_dir(), "a6_heisenberg.cfg")
    g, f = cfg.boundary_data(), cfg.integrand_obj()
    k2 = solver.minimize_k(g, f, 2, 0.0, "lower", dataclasses.replace(
        cfg.solver, initialization="zero")).solution.values
    obj = solver._Objective(g.domain, g.base_values(), f, 4, 0.0, "lower",
                            g.graph_lipschitz())
    z0 = obj.z0_of(k2)
    assert 1e-8 < np.max(np.abs(obj.value_grad(z0)[1])) / obj.cell < 1e-7
    monkeypatch.setattr(solver, "_forcing", lambda residual, ratio: 0.5)
    calls = _record_pcg(monkeypatch)
    _, _, residual, iterations, stop, _ = solver._descend(obj, z0, cfg.solver)
    assert (stop, iterations) == ("gradient_tolerance", 1)
    assert [rtol for rtol, _ in calls] == [0.5, solver._CG_RTOL]
    assert np.array_equal(calls[0][1], calls[1][1])


def test_only_a_direction_solved_to_cg_rtol_ends_a_level_as_stalled(monkeypatch):
    calls = _record_pcg(monkeypatch)
    ends = []
    descend = solver._descend

    def recording(obj, z0, config):
        calls.clear()
        out = descend(obj, z0, config)
        ends.append((out[4], list(calls)))
        return out

    monkeypatch.setattr(solver, "_descend", recording)
    # no iterate reaches this residual, so every level ends at the floor
    dom = GridDomain.box(groups.grushin(), [-1, -1], [1, 1], 0.125)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] ** 2 - c[:, 1])
    solver.minimize_k(g, SQ, 8, 0.0, "lower",
                      SolverConfig(gradient_tolerance=1e-300, max_iterations=200))
    assert [stop for stop, _ in ends] == ["stalled"] * 3
    resolved = 0
    for _, level_calls in ends:
        assert level_calls[-1][0] == solver._CG_RTOL
        (rtol, b), (_, b_last) = level_calls[-2:]
        if rtol > solver._CG_RTOL:
            # the loose direction failed first, on the same system
            assert np.array_equal(b, b_last)
            resolved += 1
    assert resolved >= 1


def test_a_hessian_with_inf_entries_ends_the_level_as_overflow(monkeypatch):
    hessian = solver._Objective.hessian

    def overflowing(self, z):
        hess = hessian(self, z).tolil()
        hess[0, 0] = np.inf
        return hess.tocsr()

    monkeypatch.setattr(solver._Objective, "hessian", overflowing)
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] ** 2 - c[:, 1] ** 2)
    rep = solver.minimize_k(g, SQ, 2, 0.0, "lower")
    assert [(lv.stop, lv.iterations) for lv in rep.levels] == [("overflow", 0)]
    assert not rep.converged


def test_stall_and_budget_are_not_convergence():
    dom = GridDomain.box(groups.grushin(), [-1, -1], [1, 1], 0.125)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] ** 2 - c[:, 1])
    # no double-precision iterate reaches this residual: every level
    # must notice the floor and stop well inside the budget
    floor = solver.minimize_k(g, SQ, 8, 0.0, "lower",
                              SolverConfig(gradient_tolerance=1e-300,
                                           max_iterations=200))
    assert [lv.stop for lv in floor.levels] == ["stalled"] * 3
    assert max(lv.iterations for lv in floor.levels) < 50
    assert not floor.converged
    assert "k=8: stalled" in floor.message
    budget = solver.minimize_k(g, SQ, 2, 0.0, "lower",
                               SolverConfig(max_iterations=1))
    assert [(lv.stop, lv.iterations) for lv in budget.levels] == [("budget", 1)]
    assert not budget.converged


@pytest.mark.parametrize("name", ["a6_line.cfg", "a6_heisenberg.cfg", "a10_line.cfg"])
def test_flat_warm_start_levels_converge_in_few_iterations(name):
    """The eps solves of A6 and A10 start from step-function warm starts

    whose flat cells leave rows of the Hessian empty; every level must
    still reach gradient_tolerance in a bounded number of steps."""
    cfg = acceptance._cfg(acceptance.bundled_config_dir(), name)
    g = cfg.boundary_data()
    f = cfg.integrand_obj()
    if cfg.eps > 0:  # A10: the upper branch it strictifies
        reports = [solver.aux_solve(g, f, cfg.eps, cfg.side, cfg.solver)]
    else:  # A6: both branches at its smallest eps, and both initializations
        sv = dataclasses.replace(cfg.solver, k_max=4)
        reports = [solver.aux_solve(g, f, 0.05, side, sv)
                   for side in ("lower", "upper")]
        reports += [solver.infinity_solve(
            g, f, dataclasses.replace(cfg.solver, initialization=init))
            for init in ("boundary", "zero")]
    for rep in reports:
        for lv in rep.levels:
            assert lv.stop == "gradient_tolerance", (lv, rep.message)
            assert lv.iterations <= 100, lv


def test_minimize_k_validation():
    dom = line_domain(4)
    g = line_boundary(dom)
    with pytest.raises(ParameterError):
        solver.minimize_k(g, SQ, 0, 0.0, "lower")
    with pytest.raises(ParameterError):
        solver.minimize_k(g, SQ, 2, -1.0, "lower")
    with pytest.raises(ParameterError):
        solver.minimize_k(g, SQ, 2, math.nan, "lower")
    with pytest.raises(ParameterError):
        solver.minimize_k(g, SQ, 2, 0.0, "above")


# -- schedule solves -------------------------------------------------------


def test_infinity_solve_linear_and_boundary_round_trip():
    dom = line_domain(8)
    g = line_boundary(dom, slope=1.5)
    rep = solver.infinity_solve(g, SQ, SolverConfig(k_max=32))
    assert rep.converged
    exact = 1.5 * dom.coords[:, 0]
    assert np.max(np.abs(rep.solution.values - exact)) <= 1e-5
    # the boundary rows are never free variables and the solver
    # reimposes the data after unscaling, so the match is bitwise
    got = rep.solution.values[dom.boundary_flat]
    assert np.array_equal(got, g.values)
    assert rep.cross_trace, "doubling must record cross-level gaps"


def test_minimize_k_translation_equivariance():
    # tight only at k = 2 where the energy is strictly convex; higher k
    # flattens the basin and the floor point wanders at the 1e-2 level
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: np.abs(c[:, 0] - 0.4))
    a = solver.minimize_k(g, SQ, 2, 0.0, "lower").solution.values
    b = solver.minimize_k(g.shift(7.0), SQ, 2, 0.0, "lower").solution.values
    assert np.max(np.abs((b - a) - 7.0)) <= 1e-6


def test_energy_trace_is_monotone_per_level():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] * c[:, 1])
    rep = solver.infinity_solve(g, SQ, SolverConfig(k_max=8))
    for k, trace in rep.energy_trace.items():
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_level_reports_carry_energies_changes_and_cg_work():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] * c[:, 1] ** 2)
    rep = solver.infinity_solve(g, SQ, SolverConfig(k_max=8))
    assert [lv.k for lv in rep.levels] == [2, 4, 8]
    for lv in rep.levels:
        assert lv.energy_start == rep.energy_trace[lv.k][0]
        assert lv.energy_end == rep.energy_trace[lv.k][-1]
        assert lv.cg_iterations >= lv.iterations
        assert lv.seconds > 0.0
    assert rep.levels[0].change is None
    # the k = 2 and k = 4 minimizers, solved one level at a time
    k2 = solver.minimize_k(g, SQ, 2, 0.0, "lower").solution.values
    k4 = solver.minimize_k(g, SQ, 4, 0.0, "lower").solution.values
    inner = dom.interior_flat
    change = np.max(np.abs(k4[inner] - k2[inner]))
    assert change > 0.01
    assert abs(rep.levels[1].change - change) <= 1e-9


def test_zero_initialization_reaches_the_same_solution():
    dom = line_domain(8)
    g = line_boundary(dom, slope=1.0)
    a = solver.infinity_solve(g, SQ, SolverConfig(k_max=8)).solution.values
    b = solver.infinity_solve(
        g, SQ, SolverConfig(k_max=8, initialization="zero")).solution.values
    assert np.max(np.abs(a - b)) <= 1e-6


def test_aux_solve_sides_and_validation():
    dom = line_domain(8)
    g = line_boundary(dom)
    with pytest.raises(ParameterError):
        solver.aux_solve(g, SQ, 0.0, "lower")
    with pytest.raises(ParameterError):
        solver.aux_solve(g, SQ, math.nan, "lower")
    with pytest.raises(ParameterError):
        solver.aux_solve(g, SQ, 0.1, "middle")
    cfg = SolverConfig(k_max=8)
    lo = solver.aux_solve(g, SQ, 0.05, "lower", cfg).solution
    hi = solver.aux_solve(g, SQ, 0.05, "upper", cfg).solution
    idx = dom.interior_flat
    # the lower branch maximizes the source credit, the upper pays it
    assert np.all(lo.values[idx] >= hi.values[idx] - 1e-8)
    assert solver.uniqueness_gap(lo, hi) < 0.05


def test_uniqueness_gap_checks_lattice():
    u = ScalarField.zeros(line_domain(4))
    v = ScalarField.zeros(line_domain(8))
    with pytest.raises(DomainMismatchError):
        solver.uniqueness_gap(u, v)
    w = ScalarField(u.domain, u.values + 0.25)
    assert solver.uniqueness_gap(u, w) == 0.25


# -- strictification -------------------------------------------------------


def test_strictify_frozen_margin():
    dom = line_domain(8)
    v = ScalarField.from_function(dom, lambda c: c[:, 0])
    res = solver.strictify(v, delta=0.1, eps=1.0)
    assert res.c0 == 4.0
    assert res.mu == 0.05
    assert np.isclose(res.deviation, 0.09375)
    assert not res.degenerate
    # iterating unpacks (field, mu)
    w, mu = res
    assert mu == 0.05
    assert np.isclose(w.values[-1], 1.1 - 0.1 / 16.0)


def test_strictify_degenerate_and_validation():
    dom = line_domain(4)
    z = ScalarField.zeros(dom)
    res = solver.strictify(z, delta=0.5, eps=0.2)
    assert res.degenerate
    assert res.deviation == 0.0
    assert np.array_equal(res.field.values, z.values)
    with pytest.raises(ParameterError):
        solver.strictify(z, delta=0.0, eps=0.2)
    with pytest.raises(ParameterError):
        solver.strictify(z, delta=0.1, eps=0.0)
    with pytest.raises(ParameterError):
        solver.strictify(z, delta=math.nan, eps=0.2)
    with pytest.raises(ParameterError):
        solver.strictify(z, delta=0.1, eps=math.nan)
    with pytest.raises(ParameterError):
        solver.strictify(z, delta=0.1, eps=0.2, alpha=0.5)
    with pytest.raises(ParameterError):
        solver.strictify(z, delta=0.1, eps=0.2, alpha=math.nan)


def test_strictify_preserves_order_of_bounded_fields():
    # g is increasing on [-c0, c0] = [-4 sup, 4 sup], so order survives
    dom = line_domain(8)
    rng = np.random.default_rng(3)
    a = ScalarField(dom, rng.uniform(-1.0, 1.0, dom.n_nodes))
    b = ScalarField(dom, a.values + rng.uniform(0.0, 0.5, dom.n_nodes))
    wa = solver.strictify(a, 0.2, 0.3).field
    wb = solver.strictify(b, 0.2, 0.3).field
    assert np.all(wb.values >= wa.values - 1e-12)
