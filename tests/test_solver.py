import dataclasses
import functools
import math
import tracemalloc

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


def record_traces(monkeypatch):
    """Per k level, the energies (original units) of every iterate of its
    descent, as solver._descend returns them; a level run twice keeps the
    last run."""
    traces = {}
    descend = solver._descend

    def recorded(obj, z0, config):
        out = descend(obj, z0, config)
        traces[obj.k] = [obj.energy_original_units(e) for e in out[1]]
        return out

    monkeypatch.setattr(solver, "_descend", recorded)
    return traces


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


def test_energy_source_past_the_double_range():
    # eps^(k-1) = 10^399 overflows a double; the energy is then -inf on
    # the lower side and +inf on the upper side, never an OverflowError
    dom = line_domain(4)
    u = ScalarField.from_function(dom, lambda c: c[:, 0])
    assert solver.energy(u, SQ, 300, eps=10.0) == pytest.approx(-3.75e298, rel=1e-3)
    assert solver.energy(u, SQ, 400, eps=10.0) == -math.inf
    assert solver.energy(u, SQ, 400, eps=10.0, side="upper") == math.inf
    # a zero interior sum adds no source term
    centred = ScalarField.from_function(dom, lambda c: c[:, 0] - 0.5)
    assert solver.energy(centred, SQ, 400, eps=10.0) == 1.0
    # slope 10: q^kappa = 100^400 overflows too, and the larger term in
    # log space decides, 400 ln 100 against 399 ln eps
    steep = ScalarField.from_function(dom, lambda c: 10.0 * c[:, 0])
    assert solver.energy(steep, SQ, 400, eps=10.0) == math.inf
    assert solver.energy(steep, SQ, 400, eps=1e3) == -math.inf
    assert solver.energy(steep, SQ, 400, eps=1e3, side="upper") == math.inf
    # each cell's q^2 is finite, their sum is not
    huge = ScalarField.from_function(dom, lambda c: 1.7e308 ** 0.25 * c[:, 0])
    assert solver.energy(huge, SQ, 2) == math.inf


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
    rep = solver.solve(g, SQ, eps, side, config=cfg)
    k = rep.levels[-1].k
    assert np.isclose(solver.energy(rep.solution, SQ, k, eps, side),
                      rep.levels[-1].energy_end, rtol=1e-10, atol=0.0)


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

    block None keeps the module's sweep size; otherwise it is the pairs
    per block of both, so 200 000 sweeps each lattice in one piece and 7
    puts block edges everywhere."""
    if block is not None:
        monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
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
    assert np.isclose(BoundaryData(dom, g.values + 10.0).graph_lipschitz(), 3.0)


# -- config ---------------------------------------------------------------


def test_schedule_is_dyadic_with_exact_cap():
    assert SolverConfig(k_max=24).schedule() == (2, 4, 8, 16, 24)
    assert SolverConfig(k_max=16).schedule() == (2, 4, 8, 16)


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(k_max=2)
    with pytest.raises(ParameterError):
        SolverConfig(k_max=math.nan)
    with pytest.raises(ParameterError):
        SolverConfig(initialization="random")
    for name in ("gradient_tolerance", "cross_tolerance"):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match=name):
                SolverConfig(**{name: bad})


def test_non_integer_k_max_is_rejected():
    """At k_max = 4.5 the schedule read (2, 4, 4): level 4 ran twice."""
    with pytest.raises(ParameterError, match="k_max must be an integer"):
        SolverConfig(k_max=4.5)
    assert SolverConfig(k_max=8.0).schedule() == (2, 4, 8)


def test_max_iterations_must_be_a_positive_integer():
    """max_iterations = NaN passed the old `< 1` test, and then the budget
    never ended a level; 2.5 and inf passed it too."""
    for bad in (2.5, math.nan, math.inf, 0, True, "64", None):
        with pytest.raises(ParameterError,
                           match="max_iterations must be an integer of at least 1"):
            SolverConfig(max_iterations=bad)
    for good in (1, 20000):
        assert SolverConfig(max_iterations=good).max_iterations == good


def test_non_integer_k_is_rejected():
    """energy(u, f, 2.5) summed the cells at k = 2 but the source at
    eps^1.5; every entry point with a k now refuses it."""
    dom = line_domain(4)
    u = ScalarField.from_function(dom, lambda c: c[:, 0] ** 2)
    for k in (2.5, 0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="k must be an integer"):
            solver.energy(u, SQ, k, eps=0.5)
    with pytest.raises(ParameterError, match="k must be an integer"):
        solver.minimize_k(line_boundary(dom), SQ, 4.5, 0.0, "lower")
    assert solver.energy(u, SQ, 2.0, eps=0.5) == solver.energy(u, SQ, 2, eps=0.5)


# -- single-level minimization --------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
def test_minimize_k_runs_the_schedule_up_to_k(k):
    dom = line_domain(8)
    rep = solver.minimize_k(line_boundary(dom), SQ, k, 0.0, "lower")
    ks = [lv.k for lv in rep.levels]
    assert ks == ([k] if k <= 4 else list(SolverConfig(k_max=k).schedule()))


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
    e_pkg = rep.levels[-1].energy_end
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
    assert np.isclose(rep.levels[-1].energy_end, res.fun, rtol=1e-10)


def level_objective(dom, g, f, k, eps=0.0, side="lower"):
    """The objective of a level that starts from g's base values, scaled
    as the solver scales a level: by the largest cell |Xu| of its start."""
    base = g.base_values()
    return solver._Objective(dom, base, f, k, eps, side,
                             math.sqrt(np.max(solver._cell_q(dom, base))))


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
    obj = level_objective(dom, g, f, k)
    z = np.random.default_rng(k).normal(scale=0.3, size=dom.interior_flat.size)
    hess = obj.hessian(obj.value_grad(z)[2]).toarray()
    step = 1e-6
    fd = np.empty_like(hess)
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = step
        fd[:, i] = (obj.value_grad(z + e)[1] - obj.value_grad(z - e)[1]) / (2 * step)
    assert np.max(np.abs(hess - fd)) <= 1e-7 * np.max(np.abs(fd))
    assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
    # a flat start (q = 0 on whole cells) keeps every weight finite
    flat = obj.hessian(obj.value_grad(np.zeros(z.size))[2])
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
    obj = level_objective(dom, g, f, 4, eps, side)
    z = np.random.default_rng(3).normal(scale=0.3, size=dom.interior_flat.size)
    ops = cell_operators_by_definition(dom)
    V = np.stack([op @ obj.full_of(z) for op in ops])
    q = np.sum(V * V, axis=0)
    lin = obj.sign * obj.src
    e_ref = obj.cell * (np.sum(q ** obj.kappa) + lin * np.sum(z))
    w = 2.0 * obj.kappa * q ** (obj.kappa - 1.0) * V
    g_ref = obj.cell * (sum(op.T @ w[i] for i, op in enumerate(ops))[obj.free] + lin)
    e, grad, _ = obj.value_grad(z)
    assert e == pytest.approx(e_ref, rel=1e-13)
    assert np.max(np.abs(grad - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))


@pytest.mark.parametrize("lattice", HESSIAN_DOMAINS)
@pytest.mark.parametrize("f", [SQ, integrands.power(1.5)], ids=["sq", "power1.5"])
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("start", ["random", "flat"])  # flat: q = 0 on whole cells
def test_hessian_matches_the_sparse_product_reference(lattice, f, k, start):
    dom = HESSIAN_DOMAINS[lattice]()
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, -1] ** 2)
    obj = level_objective(dom, g, f, k)
    nf = dom.interior_flat.size
    z = (np.zeros(nf) if start == "flat"
         else np.random.default_rng(k).normal(scale=0.3, size=nf))
    hess = obj.hessian(obj.value_grad(z)[2])
    cells = obj.cells
    dense = hess.toarray()
    free = np.ix_(cells.box, cells.box)
    ref = reference_hessian(obj, z).toarray()
    assert np.max(np.abs(ref)) > 0
    assert np.max(np.abs(dense[free] - ref)) <= 1e-13 * np.max(np.abs(ref))
    # dia on the box lattice: ascending offsets without duplicates, so
    # each row's columns come in order, one per stencil offset, and the
    # main diagonal of every free node in the row the damping writes to
    assert hess.shape == (cells.size, cells.size)
    assert nf <= cells.size
    assert np.all(np.diff(hess.offsets) > 0)
    assert hess.offsets.size == {1: 3, 2: 7, 3: 13}[dom.spec.dim]
    assert hess.offsets[cells.centre] == 0
    assert np.array_equal(hess.data[cells.centre][cells.box], np.diag(dense[free]))
    # a box node that is not free has no entry in H
    pad = np.setdiff1d(np.arange(cells.size), cells.box)
    assert not dense[pad].any() and not dense[:, pad].any()


def block_expression(obj, point):
    """The per-cell Hessian blocks a G + (y b)_c y_d at point, as one
    expression of whole-array temporaries."""
    a, b = 2.0 * point.F1, 4.0 * point.F2
    y = np.einsum("ir,icr->cr", point.V, obj.cells.coeff)
    return obj.cells.gram * a + (y * b)[:, None] * y[None]


def bincount_csr_hessian(obj, point):
    """The free-node Hessian as a csr matrix in free-node order, read off
    the corner table alone, as the csr layout the dia one replaced
    assembled it: a stored diagonal for every free node, and one
    np.bincount of the blocks' both-free entries, which adds each
    (row, column) by ascending cell.  The zero diagonal keys go first,
    and the entries follow cell by cell."""
    cells, nf = obj.cells, obj.free.size
    # every corner a lattice node, so every column below is a free node:
    # a bad corner table fails here, before scipy sees it
    assert 0 <= cells.corners.min() and cells.corners.max() < obj.domain.n_nodes
    index = np.full(obj.domain.n_nodes, -1)
    index[obj.free] = np.arange(nf)
    fc = index[cells.corners.T]
    r, c, d = np.nonzero((fc[:, :, None] >= 0) & (fc[:, None, :] >= 0))
    diag = np.arange(nf)
    keys, at = np.unique(np.concatenate([diag * nf + diag, fc[r, c] * nf + fc[r, d]]),
                         return_inverse=True)
    block = block_expression(obj, point)
    data = np.bincount(at.reshape(-1), np.concatenate([np.zeros(nf), block[c, d, r]]),
                       minlength=keys.size)
    rows, columns = np.divmod(keys, nf)
    indptr = np.searchsorted(rows, np.arange(nf + 1))
    return scipy.sparse.csr_matrix((obj.cell * data, columns, indptr), shape=(nf, nf))


LAYOUT_DOMAINS = {name: HESSIAN_DOMAINS[name] for name in ("line", "plane", "space", "heis",
                                                          "grushin", "heis_holes")}
LAYOUT_DOMAINS["cavity"] = lambda: box_with_cavity()


@pytest.mark.parametrize("lattice", LAYOUT_DOMAINS)
@pytest.mark.parametrize("f", [SQ, integrands.power(1.5)], ids=["sq", "power1.5"])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("start", ["random", "flat"])
def test_dia_hessian_equals_the_bincount_csr_entry_for_entry(lattice, f, k, start):
    """Every stored csr entry sits in its dia slot, bit for bit, and no
    other slot holds anything, on box lattices and on free sets with
    holes, where the box has nodes that are not free."""
    dom = LAYOUT_DOMAINS[lattice]()
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, -1] ** 2)
    obj = level_objective(dom, g, f, k)
    nf = dom.interior_flat.size
    z = (np.zeros(nf) if start == "flat"
         else np.random.default_rng(k).normal(scale=0.3, size=nf))
    point = obj.value_grad(z)[2]
    old = bincount_csr_hessian(obj, point)
    hess = obj.hessian(point)
    box = obj.cells.box
    rows = box[np.repeat(np.arange(nf), np.diff(old.indptr))]
    cols = box[old.indices]
    o = np.searchsorted(hess.offsets, cols - rows)
    assert np.array_equal(hess.offsets[o], cols - rows)
    assert hess.data[o, cols].tobytes() == old.data.tobytes()
    rest = hess.data.copy()
    rest[o, cols] = 0.0
    assert not rest.any()
    assert (nf < obj.cells.size) == (lattice in ("cavity", "heis_holes"))


# the benchmark's plane and heisenberg1 lattices, a degenerate line, holes
BUFFER_DOMAINS = {
    "plane": lambda: GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 1 / 16),
    "heis": lambda: GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 1 / 8),
    "grushin": HESSIAN_DOMAINS["grushin"],
    "heis_holes": heisenberg_with_holes,
    "line": HESSIAN_DOMAINS["line"],
}


def buffer_objective(dom):
    """A k = 4 level of x * (last coordinate) data."""
    return level_objective(dom, BoundaryData.from_function(dom, lambda c: c[:, 0] * c[:, -1]),
                           SQ, 4)


@pytest.mark.parametrize("lattice", BUFFER_DOMAINS)
def test_the_hessian_buffers_keep_no_state_between_calls(lattice):
    """hessian overwrites the objective's block buffer and dia matrix at
    every call.  At point A, then B (flat: q = 0 on whole cells), then A
    again, the third matrix equals the first, a fresh objective's and the
    block expression's, bit for bit."""
    dom = BUFFER_DOMAINS[lattice]()
    obj = buffer_objective(dom)
    nf = dom.interior_flat.size
    z_a = np.random.default_rng(5).normal(scale=0.3, size=nf)
    point_a = obj.value_grad(z_a)[2]
    first = obj.hessian(point_a).data.copy()
    second = obj.hessian(obj.value_grad(np.zeros(nf))[2]).data.copy()
    again = obj.hessian(point_a).data
    assert not np.array_equal(second, first)
    assert again.tobytes() == first.tobytes()
    fresh = buffer_objective(dom)
    assert fresh.hessian(fresh.value_grad(z_a)[2]).data.tobytes() == first.tobytes()
    # the block expression, added into the slots by one product with
    # _Cells.scatter and times the cell volume
    ref = (obj.cells.scatter @ block_expression(obj, point_a).ravel()) * obj.cell
    assert ref.tobytes() == first.tobytes()


def test_a_repeat_hessian_allocates_less_than_one_block():
    """The block is written into the objective's buffer: a repeat call on
    the heisenberg1 h = 1/8 lattice allocates less than one
    (n+1) x (n+1) x cells array, where the block expression takes three."""
    dom = BUFFER_DOMAINS["heis"]()
    obj = buffer_objective(dom)
    z = np.random.default_rng(5).normal(scale=0.3, size=dom.interior_flat.size)
    point = obj.value_grad(z)[2]
    obj.hessian(point)
    tracemalloc.start()
    try:
        obj.hessian(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < obj.cells.gram.nbytes


# a box whose interior is one node wide along its second axis
SCATTER_DOMAINS = {**LAYOUT_DOMAINS, "thin": lambda: GridDomain.box(
    groups.euclidean(2), [0, 0], [1, 0.25], 0.125)}


@pytest.mark.parametrize("lattice", SCATTER_DOMAINS)
def test_scatter_rows_hold_the_both_free_entries_of_their_slot(lattice):
    """The layout contract of _Cells.scatter, checked without the bincount
    reference: the column of a block entry (c, c', r) of slot row
    s = o * size + j has both corners free, corner c' at box node j and
    its pair offset on diagonal o; the cells of a row strictly ascend, and
    every entry whose corners are both free has exactly one column."""
    dom = SCATTER_DOMAINS[lattice]()
    cells = solver._cell_operators(dom)
    n, nr = dom.spec.dim, cells.corners.shape[1]
    free_mi = dom.multi_indices[dom.interior_flat]
    lo = free_mi.min(axis=0)
    dims = free_mi.max(axis=0) - lo + 1
    assert cells.size == np.prod(dims)
    pos = np.full(dom.n_nodes, -1)
    pos[dom.interior_flat] = np.ravel_multi_index(tuple((free_mi - lo).T), tuple(dims))
    assert np.array_equal(cells.box, pos[dom.interior_flat])
    scatter = cells.scatter
    assert scatter.shape == (cells.offsets.size * cells.size, (n + 1) ** 2 * nr)
    assert np.all(scatter.data == 1.0)
    slot = np.repeat(np.arange(scatter.shape[0]), np.diff(scatter.indptr))
    o, j = np.divmod(slot, cells.size)
    pair, r = np.divmod(scatter.indices, nr)
    c, d = np.divmod(pair, n + 1)
    at_c, at_d = pos[cells.corners[c, r]], pos[cells.corners[d, r]]
    assert np.all(at_c >= 0) and np.all(at_d >= 0)
    assert np.array_equal(at_d, j)
    assert np.array_equal(at_d - at_c, cells.offsets[o])
    same = slot[1:] == slot[:-1]
    assert np.all(r[1:][same] > r[:-1][same])
    free = dom.interior_mask[cells.corners]
    both = free[:, None, :] & free[None, :, :]
    assert np.array_equal(np.sort(scatter.indices), np.flatnonzero(both))


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
    obj = level_objective(dom, g, f, k, 0.3, "upper")
    nf = dom.interior_flat.size
    rng = np.random.default_rng(k)
    z = np.zeros(nf) if start == "flat" else rng.normal(scale=0.3, size=nf)
    d = rng.normal(size=nf)
    e, grad, point = obj.value_grad(z)
    assert math.isfinite(e)
    phi, dphi, d2phi = obj.line_eval(obj.direction_state(point, d), 0.0)
    assert phi == e
    assert dphi == pytest.approx(grad @ d, rel=1e-12)
    box = obj.cells.box
    hess = obj.hessian(point).toarray()[np.ix_(box, box)]
    assert d2phi == pytest.approx(d @ (hess @ d), rel=1e-12)


def _line_fixture(lattice, f, k, start):
    """The level objective, iterate z, direction d and line state that the
    test above builds, for the line-search tests below."""
    dom = HESSIAN_DOMAINS[lattice]()
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, -1] ** 2)
    obj = level_objective(dom, g, f, k, 0.3, "upper")
    nf = dom.interior_flat.size
    rng = np.random.default_rng(k)
    z = np.zeros(nf) if start == "flat" else rng.normal(scale=0.3, size=nf)
    d = rng.normal(size=nf)
    point = obj.value_grad(z)[2]
    return obj, z, d, obj.direction_state(point, d)


@pytest.mark.parametrize("lattice", HESSIAN_DOMAINS)
@pytest.mark.parametrize("f", [SQ, integrands.power(1.5)], ids=["sq", "power1.5"])
@pytest.mark.parametrize("k", [1, 2, 8, 64])
@pytest.mark.parametrize("start", ["random", "flat"])
def test_line_search_sees_the_energy_along_the_step(lattice, f, k, start):
    """Past t = 0, through the buffers that every trial overwrites:
    phi(t), phi'(t) and phi''(t) are value_grad's energy, g.d and
    d^T H d at z + t d."""
    obj, z, d, state = _line_fixture(lattice, f, k, start)
    box = obj.cells.box
    for t in (0.5, 1.0, 1.7):
        phi, dphi, d2phi = obj.line_eval(state, t)
        e, grad, point = obj.value_grad(z + t * d)
        assert math.isfinite(e)
        assert phi == pytest.approx(e, rel=1e-12)
        assert dphi == pytest.approx(grad @ d, rel=1e-12)
        hess = obj.hessian(point).toarray()[np.ix_(box, box)]
        assert d2phi == pytest.approx(d @ (hess @ d), rel=1e-12)


def reference_line_eval(obj, state, t):
    """line_eval as one expression per quantity, with _power_law's F' and
    F'' scaled by new products, every array allocated anew; line_eval
    and _power_law compute the same products in place."""
    qa, qb, qc, lin0, lin1 = state[:5]
    kappa = obj.kappa
    q = np.maximum((qa * t + qb) * t + qc, 0.0)
    qp = 2.0 * qa * t + qb
    cap = math.exp(solver._EXP_MAX)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F = np.power(q, kappa)
        p1 = np.minimum(F / q, cap)
        p2 = np.minimum(p1 / q, cap)
        if not q.all():
            p1[q == 0] = kappa == 1.0
            p2[q == 0] = kappa == 2.0
        F1, F2 = kappa * p1, kappa * (kappa - 1.0) * p2
    e0 = float(F.sum())
    if not math.isfinite(e0):
        return math.inf, math.inf, math.inf
    e1 = float((F1 * qp).sum())
    e2 = float((F2 * qp * qp + 2.0 * F1 * qa).sum())
    return (obj.cell * (e0 + lin0 + t * lin1), obj.cell * (e1 + lin1),
            obj.cell * e2)


@pytest.mark.parametrize("lattice", HESSIAN_DOMAINS)
@pytest.mark.parametrize("f", [SQ, integrands.power(1.5)], ids=["sq", "power1.5"])
@pytest.mark.parametrize("k", [1, 2, 8, 64])
@pytest.mark.parametrize("start", ["random", "flat"])
def test_line_eval_matches_the_reference_expressions_bit_for_bit(lattice, f, k,
                                                                 start):
    """In place, every trial rounds as the expressions do.  The trials
    share one state, out of order, so no trial may read what the one
    before left in its buffers; t = 1e6 leaves the double range at k = 64."""
    obj, _, _, state = _line_fixture(lattice, f, k, start)
    for t in (1.0, 0.0, 1.7, 1e6, 0.5, -0.25, 1.0):
        assert obj.line_eval(state, t) == reference_line_eval(obj, state, t)


def _first_newton_iterate(geometry, lower, upper, h, k, start):
    """A level's objective and the free values its descent starts from."""
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, lambda c: 0.5 * c[:, 0] + c[:, 1] ** 2)
    obj = level_objective(dom, g, SQ, k)
    n = dom.interior_flat.size
    z = (np.zeros(n) if start == "flat"
         else np.random.default_rng(k).normal(scale=0.3, size=n))
    return obj, z


def _damped_newton_system(geometry, lower, upper, h, k, start):
    """The first Newton system (H + D, g) of a level, damped as in _descend."""
    obj, z = _first_newton_iterate(geometry, lower, upper, h, k, start)
    _, grad, point = obj.value_grad(z)
    hess = obj.hessian(point)
    diag = hess.diagonal()
    top = float(np.max(diag))
    shift = (min(float(np.max(np.abs(grad))), solver._SHIFT_CAP * top)
             + solver._SHIFT_FLOOR * top)
    # scipy 1.10 adds dia matrices as csr
    return (hess + scipy.sparse.diags(solver._MU_START * diag + shift)).todia(), grad


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
    """Also on int64 offsets: _pcg calls scipy's dia kernel itself, which
    takes offsets of either index dtype."""
    A, g = _damped_newton_system(geometry, lower, upper, h, k, start)
    ref, its_ref = reference_pcg(A, g, rtol)
    wide = A.copy()
    wide.offsets = A.offsets.astype(np.int64)
    for M in (A, wide):
        x, its = solver._pcg(M, g, rtol)
        assert its == its_ref
        assert np.array_equal(x, ref)


@DAMPED_SYSTEMS
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("start", ["random", "flat"])
@pytest.mark.parametrize("rtol", [solver._CG_RTOL, 0.5])
def test_pcg_on_the_dia_matches_the_reference_loop_on_the_bincount_csr(
        geometry, lower, upper, h, k, start, rtol):
    """dia_matvec adds each row's terms in the order of the sorted csr
    row, so on a box lattice the solve is the csr solve bit for bit."""
    A, g = _damped_newton_system(geometry, lower, upper, h, k, start)
    obj, z = _first_newton_iterate(geometry, lower, upper, h, k, start)
    csr = bincount_csr_hessian(obj, obj.value_grad(z)[2])
    diag = csr.diagonal()
    top = float(np.max(diag))
    shift = (min(float(np.max(np.abs(g))), solver._SHIFT_CAP * top)
             + solver._SHIFT_FLOOR * top)
    csr = (csr + scipy.sparse.diags(solver._MU_START * diag + shift)).tocsr()
    ref, its_ref = reference_pcg(csr, g, rtol)
    x, its = solver._pcg(A, g, rtol)
    assert its == its_ref
    assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("lattice", ["cavity", "heis_holes"])
def test_padded_box_rows_keep_the_newton_step_at_zero(monkeypatch, lattice):
    """A box node that is not free has a row and a column with nothing
    but a positive diagonal, in the start's system (where it is 1) and in
    every damped Newton system, and its right-hand side is 0: CG leaves
    it at exactly 0."""
    systems = []
    pcg = solver._pcg

    def recording(A, b, rtol):
        x, its = pcg(A, b, rtol)
        systems.append((A.toarray(), b.copy(), x))
        return x, its

    monkeypatch.setattr(solver, "_pcg", recording)
    dom = LAYOUT_DOMAINS[lattice]()
    g = BoundaryData.from_function(dom, lambda c: 2.0 + c[:, 0] ** 2 - c[:, 1])
    solver.solve(g, SQ, config=SolverConfig(k_max=4))
    cells = solver._cell_operators(dom)
    pad = np.setdiff1d(np.arange(cells.size), cells.box)
    assert pad.size > 0 and len(systems) > 2
    for i, (A, b, x) in enumerate(systems):
        assert A.shape == (cells.size, cells.size)
        diag = A[pad, pad]
        assert np.all(diag == 1.0) if i == 0 else np.all(diag > 0.0)
        A[pad, pad] = 0.0
        assert not A[pad].any() and not A[:, pad].any()
        assert not b[pad].any()
        assert np.all(x[pad] == 0.0)


def test_scipy_kernels_keep_the_signatures_the_solver_calls():
    """_pcg calls scipy's private dia_matvec, and hessian its csr_matvec,
    with the arguments below; a scipy that moves or changes them must
    fail here, not solve wrongly."""
    try:
        from scipy.sparse._sparsetools import csr_matvec, dia_matvec
    except ImportError as exc:
        pytest.fail("scipy.sparse._sparsetools no longer has the kernels: %s" % exc)
    A = np.array([[4.0, 1.0, 0.0], [2.0, 5.0, 3.0], [0.0, 6.0, 7.0]])
    x = np.array([1.0, -2.0, 0.5])
    dia = scipy.sparse.dia_matrix(A)
    csr = scipy.sparse.csr_matrix(A)
    for name, kernel, args in (
        ("dia_matvec(n_row, n_col, n_diags, L, offsets, data, x, y)", dia_matvec,
         (3, 3, dia.offsets.size, dia.data.shape[1], dia.offsets, dia.data)),
        ("csr_matvec(n_row, n_col, indptr, indices, data, x, y)", csr_matvec,
         (3, 3, csr.indptr, csr.indices, csr.data)),
    ):
        y = np.zeros(3)
        try:
            kernel(*args, x, y)
        except (TypeError, ValueError) as exc:
            pytest.fail("scipy's %s changed its signature: %s" % (name, exc))
        assert np.array_equal(y, A @ x), name


@DAMPED_SYSTEMS
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("start", ["random", "flat"])
def test_descend_damps_the_hessian_in_place(monkeypatch, geometry, lower,
                                            upper, h, k, start):
    """_descend adds D to the diagonal of the step's own Hessian; the
    first system _pcg gets is H + D entry for entry, on the lattice's
    diagonals."""
    systems = []
    pcg = solver._pcg

    def recording(A, b, rtol):
        systems.append((A.copy(), b.copy()))
        return pcg(A, b, rtol)

    monkeypatch.setattr(solver, "_pcg", recording)
    obj, z = _first_newton_iterate(geometry, lower, upper, h, k, start)
    solver._descend(obj, z, SolverConfig(max_iterations=1))
    A, b = systems[0]
    ref, grad = _damped_newton_system(geometry, lower, upper, h, k, start)
    assert np.array_equal(b, -grad)
    assert A.shape == (obj.cells.size, obj.cells.size)
    assert np.array_equal(A.offsets, obj.cells.offsets)
    assert np.array_equal(A.toarray(), ref.toarray())


def test_pcg_keeps_its_stop_rule_beyond_the_range_of_the_2_norm():
    """Gradients above ~1e154 overflow |g|_2; the solve must not stop
    early on an infinite threshold.  The gradient is scaled by a power of
    two, which rounds nothing: x has an entry of 2e-6 among entries up
    to 0.26, which a rounded scaling moves by more than the rtol."""
    A, g = _damped_newton_system("euclidean:2", [0, 0], [1, 1], 0.25, 2, "random")
    x, its = solver._pcg(A, g, solver._CG_RTOL)
    big, its_big = solver._pcg(A, 2.0**664 * g, solver._CG_RTOL)
    assert its_big == its > 1
    assert np.allclose(big / 2.0**664, x, rtol=1e-12, atol=0)


def test_forcing_term_follows_the_gradient_and_the_residual():
    # first step: 0.5, or sqrt(residual) once that is smaller
    assert solver._forcing(1.0, None, 0.0) == 0.5
    assert solver._forcing(1e-6, None, 0.0) == pytest.approx(1e-3)
    # Eisenstat-Walker choice 2: 0.9 (|g_j|_2 / |g_j-1|_2)^2
    assert solver._forcing(1.0, 0.1, 0.0) == pytest.approx(0.009)
    assert solver._forcing(1.0, 10.0, 0.0) == 0.5
    assert solver._forcing(1e-4, 0.5, 0.0) == pytest.approx(1e-2)
    # never tighter than _CG_RTOL
    assert solver._forcing(1e-30, 1e-9, 0.0) == solver._CG_RTOL
    # a gradient that overflows the ratio only loosens the solve
    assert solver._forcing(1.0, np.inf, 0.0) == 0.5
    # Kelley's safeguard: eta >= needed / 2 beats a tighter Eisenstat-Walker term
    assert solver._forcing(1.0, 0.1, 0.1) == pytest.approx(0.05)
    assert solver._forcing(1e-6, None, 0.1) == pytest.approx(0.05)
    # and a looser one keeps its own value
    assert solver._forcing(1.0, 0.1, 1e-3) == pytest.approx(0.009)
    # the floor is capped at _ETA_MAX
    assert solver._forcing(1.0, 0.1, 4.0) == solver._ETA_MAX
    assert solver._forcing(1.0, None, np.inf) == solver._ETA_MAX
    # and eta never drops below _CG_RTOL
    assert solver._forcing(1e-30, 1e-9, 1e-12) == solver._CG_RTOL
    assert solver._forcing(1e-30, 1e-9, 4e-8) == pytest.approx(2e-8)


def test_newton_steps_from_one_cg_iteration_still_descend(monkeypatch):
    monkeypatch.setattr(solver, "_forcing", lambda residual, ratio, needed: np.inf)
    traces = record_traces(monkeypatch)
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] ** 2 - c[:, 1] ** 2)
    rep = solver.minimize_k(g, SQ, 2, 0.0, "lower", SolverConfig(max_iterations=8))
    (lv,) = rep.levels
    assert lv.iterations >= 1
    # one CG iteration per Newton system solved
    assert lv.cg_iterations in (lv.iterations, lv.iterations + 1)
    assert np.all(np.diff(traces[2]) < 0)


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
    at the same minimizer.  Both run to a residual of 1e-10: at the
    default 1e-8 the grushin levels stop 4e-6 apart, since a residual
    of 1e-8 does not pin the minimizer that closely there."""
    geometry, lower, upper, h, k_max, fn = ORACLE_SOLVES[case]
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, fn)
    config = SolverConfig(k_max=k_max, gradient_tolerance=1e-10)
    got = solver.solve(g, SQ, config=config)
    monkeypatch.setattr(solver, "_forcing", lambda residual, ratio, needed: solver._CG_RTOL)
    ref = solver.solve(g, SQ, config=config)
    for rep in (got, ref):
        assert [lv.stop for lv in rep.levels] == ["gradient_tolerance"] * len(rep.levels)
    assert [lv.k for lv in got.levels] == [lv.k for lv in ref.levels]
    assert sum(lv.cg_iterations for lv in got.levels) < \
        sum(lv.cg_iterations for lv in ref.levels)
    inner = dom.interior_flat
    assert np.max(np.abs(got.solution.values[inner] - ref.solution.values[inner])) <= 1e-8


@pytest.mark.parametrize("case", ORACLE_SOLVES)
def test_the_forcing_floor_saves_cg_iterations_at_the_same_stops(monkeypatch, case):
    """At the default tolerance, the floor at half the level's stop must
    leave every level's stop and Newton count as they are without it,
    take fewer CG iterations in all, and move the solution by no more
    than the CG tolerance."""
    geometry, lower, upper, h, k_max, fn = ORACLE_SOLVES[case]
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, fn)
    config = SolverConfig(k_max=k_max)
    got = solver.solve(g, SQ, config=config)
    forcing = solver._forcing
    monkeypatch.setattr(solver, "_forcing",
                        lambda residual, ratio, needed: forcing(residual, ratio, 0.0))
    ref = solver.solve(g, SQ, config=config)
    assert [(lv.k, lv.stop, lv.iterations) for lv in got.levels] == \
        [(lv.k, lv.stop, lv.iterations) for lv in ref.levels]
    assert got.start_cg_iterations == ref.start_cg_iterations
    assert sum(lv.cg_iterations for lv in got.levels) < \
        sum(lv.cg_iterations for lv in ref.levels)
    inner = dom.interior_flat
    assert np.max(np.abs(got.solution.values[inner] - ref.solution.values[inner])) <= 1e-8


def _count_line_evals(monkeypatch):
    """Wrap line_eval; returns the list of (t, phi, phi') of every trial."""
    trials = []
    line_eval = solver._Objective.line_eval

    def counted(obj, state, t):
        out = line_eval(obj, state, t)
        trials.append((t, *out[:2]))
        return out

    monkeypatch.setattr(solver._Objective, "line_eval", counted)
    return trials


@pytest.mark.parametrize("case", ORACLE_SOLVES)
def test_the_line_search_stop_saves_evaluations_at_the_same_stops(monkeypatch, case):
    """At the default tolerance, stopping each search along a loosely
    solved direction at |phi'| <= sqrt(_CG_RTOL) |phi'(0)| must leave
    every level's stop and Newton count as the exact search (rtol 0,
    every search to 1e-12) leaves them, take fewer line evaluations in
    all, and move the solution by no more than 1e-8."""
    geometry, lower, upper, h, k_max, fn = ORACLE_SOLVES[case]
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, fn)
    config = SolverConfig(k_max=k_max)
    trials = _count_line_evals(monkeypatch)
    got = solver.solve(g, SQ, config=config)
    got_evals = len(trials)
    trials.clear()
    line_minimize = solver._line_minimize
    monkeypatch.setattr(solver, "_line_minimize",
                        lambda obj, state, slope, phi0, rtol:
                        line_minimize(obj, state, slope, phi0, 0.0))
    ref = solver.solve(g, SQ, config=config)
    assert [(lv.k, lv.stop, lv.iterations) for lv in got.levels] == \
        [(lv.k, lv.stop, lv.iterations) for lv in ref.levels]
    assert got_evals < len(trials)
    inner = dom.interior_flat
    assert np.max(np.abs(got.solution.values[inner] - ref.solution.values[inner])) <= 1e-8


@pytest.mark.parametrize("case,k_max", [("plane", 256), ("heis", 4), ("grushin", 8)])
def test_line_minimize_stops_at_the_precision_of_its_direction(monkeypatch, case,
                                                               k_max):
    """Every line search of a solve, run again on its level's objective.
    Along a direction solved to a loose rtol, the search stops at its
    first trial with |phi'| <= 1e-4 |phi'(0)|.  Its trials are the first
    ones of the search to rtol = _CG_RTOL, which stops at a trial with
    |phi'| <= 1e-12 |phi'(0)| or where its bracket has closed to 1e-14 of
    t.  Either returns a t > 0 no higher in phi than that last trial, and
    phi(t) <= phi(0).  The returned t is not always the last trial: the
    best-point rule keeps an earlier trial whose phi ties with it.  On the
    plane to k = 256, the minimizers of some steps lie far below 1
    (t ~ 0.1)."""
    geometry, lower, upper, h, _, fn = ORACLE_SOLVES[case]
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(dom, fn)
    searches = []
    line_minimize = solver._line_minimize

    def recording(obj, state, slope, phi0, rtol):
        t = line_minimize(obj, state, slope, phi0, rtol)
        searches.append((obj, state, slope, phi0, t))
        return t

    monkeypatch.setattr(solver, "_line_minimize", recording)
    solver.solve(g, SQ, config=SolverConfig(k_max=k_max))
    assert len(searches) > 10
    if k_max == 256:
        assert any(obj.k == 256 and t < 0.2 for obj, *_, t in searches)
    trials = _count_line_evals(monkeypatch)
    for obj, state, slope, phi0, _ in searches:
        dphi0 = abs(slope)
        runs = {}
        for rtol in (0.5, solver._CG_RTOL):
            trials.clear()
            t = line_minimize(obj, state, slope, phi0, rtol)
            runs[rtol] = list(trials)
            phi = obj.line_eval(state, t)[0]
            assert t > 0.0 and phi <= phi0
            assert phi <= runs[rtol][-1][1]
        loose, tight = runs.values()
        assert abs(loose[-1][2]) <= 1e-4 * dphi0
        assert all(abs(dphi) > 1e-4 * dphi0 for _, _, dphi in loose[:-1])
        assert tight[:len(loose)] == loose
        if abs(tight[-1][2]) > 1e-12 * dphi0:
            hi = min(s for s, _, dphi in tight if dphi > 0)
            lo = max([0.0] + [s for s, _, dphi in tight if dphi <= 0])
            assert hi - lo <= 1e-14 * hi


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
    """The a8_grushin k = 4 level from the zero-start k = 2 minimizer,
    solved to a residual of 1e-9 and at the scale the schedule gives it,
    starts at residual 3e-7.  Its
    first step, solved only to eta = 0.5, makes progress; its second
    lowers the energy by less than its rounding error and does not halve
    the residual.  The level must solve that system again to _CG_RTOL
    and go on, not stall."""
    cfg = acceptance._cfg(acceptance.bundled_config_dir(), "a8_grushin.cfg")
    g, f = cfg.boundary_data(), cfg.integrand_obj()
    k2 = solver.minimize_k(g, f, 2, 0.0, "lower", dataclasses.replace(
        cfg.solver, initialization="zero", gradient_tolerance=1e-9)).solution.values
    slope = math.sqrt(np.max(solver._cell_q(g.domain, k2)))
    obj = solver._Objective(g.domain, g.base_values(), f, 4, 0.0, "lower", slope)
    z0 = obj.z0_of(k2)
    assert 1e-7 < np.max(np.abs(obj.value_grad(z0)[1])) / obj.cell < 1e-6
    monkeypatch.setattr(solver, "_forcing", lambda residual, ratio, needed: 0.5)
    calls = _record_pcg(monkeypatch)
    _, _, residual, iterations, stop, _ = solver._descend(obj, z0, cfg.solver)
    assert (stop, iterations) == ("gradient_tolerance", 2)
    assert [rtol for rtol, _ in calls] == [0.5, 0.5, solver._CG_RTOL]
    assert np.array_equal(calls[1][1], calls[2][1])


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
        if np.array_equal(b, b_last):
            # the last system was solved twice: a loose direction failed
            # first, and the level solved it again to _CG_RTOL
            assert rtol > solver._CG_RTOL
            resolved += 1
    assert resolved >= 1


def test_a_hessian_with_inf_entries_ends_the_level_as_overflow(monkeypatch):
    hessian = solver._Objective.hessian

    def overflowing(self, z):
        hess = hessian(self, z)
        data = hess.data.copy()
        data[self.cells.centre, 0] = np.inf  # entry (0, 0)
        return scipy.sparse.dia_matrix((data, hess.offsets), shape=hess.shape)

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
    """The eps solves of A6 and A10, and A6 from both starts: the zero
    start's flat cells leave rows of the Hessian empty.  Every level must
    still reach gradient_tolerance in a bounded number of steps."""
    cfg = acceptance._cfg(acceptance.bundled_config_dir(), name)
    g = cfg.boundary_data()
    f = cfg.integrand_obj()
    if cfg.eps > 0:  # A10: the upper branch it strictifies
        reports = [solver.solve(g, f, cfg.eps, cfg.side, config=cfg.solver)]
    else:  # A6: both branches at its smallest eps, and both initializations
        sv = dataclasses.replace(cfg.solver, k_max=4)
        reports = [solver.solve(g, f, 0.05, side, config=sv)
                   for side in ("lower", "upper")]
        reports += [solver.solve(
            g, f, config=dataclasses.replace(cfg.solver, initialization=init))
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
    rep = solver.solve(g, SQ, config=SolverConfig(k_max=32))
    assert rep.converged
    exact = 1.5 * dom.coords[:, 0]
    assert np.max(np.abs(rep.solution.values - exact)) <= 1e-5
    # the boundary rows are never free variables and the solver
    # reimposes the data after unscaling, so the match is bitwise
    got = rep.solution.values[dom.boundary_flat]
    assert np.array_equal(got, g.values)
    changes = [lv.change for lv in rep.levels[1:]]
    assert changes and all(c is not None for c in changes), \
        "doubling must record cross-level gaps"


def test_minimize_k_translation_equivariance():
    # tight only at k = 2 where the energy is strictly convex; higher k
    # flattens the basin and the floor point wanders at the 1e-2 level
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: np.abs(c[:, 0] - 0.4))
    a = solver.minimize_k(g, SQ, 2, 0.0, "lower").solution.values
    b = solver.minimize_k(BoundaryData(dom, g.values + 7.0), SQ, 2, 0.0,
                          "lower").solution.values
    assert np.max(np.abs((b - a) - 7.0)) <= 1e-6


def test_energy_trace_is_monotone_per_level(monkeypatch):
    traces = record_traces(monkeypatch)
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] * c[:, 1])
    rep = solver.solve(g, SQ, config=SolverConfig(k_max=8))
    assert sorted(traces) == [lv.k for lv in rep.levels]
    for k, trace in traces.items():
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_level_reports_carry_energies_changes_and_cg_work(monkeypatch):
    traces = record_traces(monkeypatch)
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] * c[:, 1] ** 2)
    rep = solver.solve(g, SQ, config=SolverConfig(k_max=8))
    assert [lv.k for lv in rep.levels] == [2, 4, 8]
    for lv in rep.levels:
        assert lv.energy_start == traces[lv.k][0]
        assert lv.energy_end == traces[lv.k][-1]
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


def test_no_solve_calls_graph_lipschitz(monkeypatch):
    """Each level is scaled by its own start, not by the boundary pairs,
    and no start is the nearest-boundary extension."""
    for name in ("graph_lipschitz", "extend_nearest"):
        def sweep(self, name=name):
            raise AssertionError(name + " called")

        monkeypatch.setattr(BoundaryData, name, sweep)
    dom = GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.5)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0] * c[:, 1] + c[:, 2])
    config = SolverConfig(k_max=4)
    for rep in (solver.solve(g, SQ, config=config),
                solver.minimize_k(g, SQ, 8, 0.0, "lower", config),
                solver.solve(g, SQ, 0.3, "upper", config=config),
                solver.solve(g, SQ, config=dataclasses.replace(
                    config, initialization="zero"))):
        assert all(lv.stop == "gradient_tolerance" for lv in rep.levels)


def heisenberg_gauge(c):
    return ((c[:, 0] ** 2 + c[:, 1] ** 2) ** 2 + c[:, 2] ** 2) ** 0.25


def test_each_level_is_scaled_by_its_start_on_the_gauge_box(monkeypatch):
    """The heisenberg1 gauge N is infinity-harmonic away from the origin.
    On [0.25, 1.25] x [-0.5, 0.5]^2 at h = 1/8 the boundary pairs give
    the constant 1.0 while the solutions reach max |Xu| = 1.19, and with
    that scale the levels k >= 32 stalled at residuals up to 2.8e23.
    Scaled by its start, every level starts at max |Xu| = 1 and ends
    within 1e-4 of a zero gradient."""
    starts = []
    descend = solver._descend

    def recording(obj, z0, config):
        q = solver._cell_q(obj.domain, obj.full_of(z0))
        starts.append((obj.scale, math.sqrt(np.max(q))))
        return descend(obj, z0, config)

    monkeypatch.setattr(solver, "_descend", recording)
    dom = GridDomain.box(groups.heisenberg1(), [0.25, -0.5, -0.5], [1.25, 0.5, 0.5], 0.125)
    g = BoundaryData.from_function(dom, heisenberg_gauge)
    rep = solver.solve(g, SQ, config=SolverConfig(k_max=256, cross_tolerance=1e-300))
    assert [lv.k for lv in rep.levels] == [2, 4, 8, 16, 32, 64, 128, 256]
    for lv, (scale, slope) in zip(rep.levels, starts):
        assert lv.scale == scale
        assert abs(slope - 1.0) <= 1e-12, lv
        assert lv.residual <= 1e-4, lv
    inner = dom.interior_flat
    exact = heisenberg_gauge(dom.coords[inner])
    assert np.max(np.abs(rep.solution.values[inner] - exact)) <= 0.07


def test_the_aronsson_k256_level_reaches_the_gradient_tolerance():
    """From t = 1 a Newton step on phi' moves t by about 1/(2 kappa), so
    at k = 256 sixty of them ended short of the minimizer near t = 0.07
    and the level stalled at residual 3.2 after two steps.  Within a
    finite bracket, bisection now takes over from such steps."""
    dom = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.0625)
    g = BoundaryData.from_function(
        dom, lambda c: np.abs(c[:, 0]) ** (4 / 3) - np.abs(c[:, 1]) ** (4 / 3))
    rep = solver.minimize_k(g, SQ, 256, 0.0, "lower")
    assert [lv.k for lv in rep.levels] == [2, 4, 8, 16, 32, 64, 128, 256]
    assert [lv.stop for lv in rep.levels] == ["gradient_tolerance"] * 8
    assert rep.converged


def test_unseen_counts_the_free_nodes_that_every_cell_weighs_below_1e_6():
    """Against the definition, node by node, on a lattice whose free node
    (4, 4) lies in no cell and so counts as unseen."""
    dom = box_with_cavity()
    u = dom.coords[:, 0] ** 3 + 0.1 * dom.coords[:, 1]
    ops = cell_operators_by_definition(dom)
    q = sum((op @ u) ** 2 for op in ops)
    corners = solver._cell_operators(dom).corners
    for k, kappa in ((2, 2.0), (8, 8.0), (64, 64.0)):
        obj = solver._Objective(dom, u, SQ, k, 0.0, "lower", 1.0)
        weight = (q / np.max(q)) ** (kappa - 1.0)
        expected = sum(bool(np.all(weight[np.any(corners == x, axis=0)] < 1e-6))
                       for x in dom.interior_flat)
        assert solver._unseen(obj, q) == expected
        assert expected >= 1
    assert solver._unseen(obj, np.zeros_like(q)) == dom.interior_flat.size


def test_zero_initialization_reaches_the_same_solution():
    dom = line_domain(8)
    g = line_boundary(dom, slope=1.0)
    a = solver.solve(g, SQ, config=SolverConfig(k_max=8)).solution.values
    b = solver.solve(
        g, SQ, config=SolverConfig(k_max=8, initialization="zero")).solution.values
    assert np.max(np.abs(a - b)) <= 1e-6


# -- harmonic start --------------------------------------------------------


def box_with_cavity():
    """[0, 1]^2 at h = 1/8 with seven exterior nodes inside the box and
    no boundary band around them; the free node (4, 4) lies in no cell."""
    box = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)
    cls = box.classification.reshape(box.dims).copy()
    for i, j in [(5, 4), (4, 5), (3, 5), (5, 3), (5, 5), (6, 5), (5, 6)]:
        cls[i, j] = EXTERIOR
    return GridDomain(box.spec, box.lower, box.h, box.dims, cls.reshape(-1))


@pytest.mark.parametrize("geometry,lower,upper,h", [
    ("euclidean:2", [-1, -1], [1, 1], 0.125),
    ("heisenberg1", [-1, -1, -1], [1, 1, 1], 0.25),
    ("grushin", [-1, -1], [1, 1], 0.125),  # nodes on the degenerate x = 0 line
])
def test_harmonic_start_is_the_dirichlet_solution(geometry, lower, upper, h):
    """The start against a direct solve of L u = 0 on the free nodes, with
    L = sum_i X_i^T X_i assembled from the operators written cell by cell.

    CG stops once the residual of L (u - m) = -L m, m the constant
    midpoint field, is within _CG_RTOL of the right-hand side in the
    2-norm, so the start lies within _CG_RTOL |L (ref - m)| / lambda_min(L)
    of the direct solution ref; the factor 1.01 covers rounding."""
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    g = BoundaryData.from_function(
        dom, lambda c: 3.0 + c[:, 0] * np.abs(c[:, 1]) + c[:, -1] ** 3)
    start, iterations = solver._harmonic_start(g)
    ops = cell_operators_by_definition(dom)
    lap = sum(op.T @ op for op in ops).tocsr()
    free, bnd = dom.interior_flat, dom.boundary_flat
    lap_ff = lap[free][:, free]
    ref = scipy.sparse.linalg.spsolve(lap_ff.tocsc(), -(lap[free][:, bnd] @ g.values))
    mid = 0.5 * g.values.min() + 0.5 * g.values.max()
    rhs = np.linalg.norm(lap_ff @ (ref - mid))
    lam_min = np.linalg.eigvalsh(lap_ff.toarray())[0]
    assert 0 < iterations <= free.size
    assert np.linalg.norm(start[free] - ref) <= 1.01 * solver._CG_RTOL * rhs / lam_min
    assert np.array_equal(start[bnd], g.values)


def test_harmonic_start_of_linear_line_data_is_the_a1_minimizer():
    """A1's data is u = x on [0, 1]: the start is the answer, so level 2
    has nothing left to do."""
    cfg = acceptance._cfg(acceptance.bundled_config_dir(), "a1_line.cfg")
    g = cfg.boundary_data()
    dom = g.domain
    start, _ = solver._harmonic_start(g)
    assert np.max(np.abs(start - dom.coords[:, 0])) <= 1e-12
    rep = solver.solve(g, cfg.integrand_obj(), config=cfg.solver)
    assert rep.levels[0].k == 2
    assert (rep.levels[0].stop, rep.levels[0].iterations) == ("gradient_tolerance", 0)


def test_the_start_and_the_levels_account_for_every_cg_iteration(monkeypatch):
    its = []
    pcg = solver._pcg

    def counting(A, b, rtol):
        out = pcg(A, b, rtol)
        its.append(out[1])
        return out

    monkeypatch.setattr(solver, "_pcg", counting)
    dom = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.125)
    g = BoundaryData.from_function(
        dom, lambda c: np.abs(c[:, 0]) ** (4 / 3) - np.abs(c[:, 1]) ** (4 / 3))
    rep = solver.solve(g, SQ, config=SolverConfig(k_max=8))
    assert rep.start_cg_iterations == its[0] > 0
    assert sum(its) == rep.start_cg_iterations + sum(lv.cg_iterations for lv in rep.levels)
    zero = solver.solve(g, SQ, config=SolverConfig(k_max=8, initialization="zero"))
    assert zero.start_cg_iterations == 0


def test_harmonic_start_stays_in_the_data_range_around_an_exterior_cavity():
    """Exterior nodes inside the box with no boundary band around them.
    The free node at (4, 4) lies in no cell, so its row of the k = 1
    Hessian is empty; it must still get a finite value in the data range."""
    dom = box_with_cavity()
    orphan = dom.flat_of_multi((4, 4))
    assert orphan in dom.interior_flat
    assert orphan not in solver._cell_operators(dom).corners
    g = BoundaryData.from_function(dom, lambda c: 2.0 + c[:, 0] ** 2 - c[:, 1])
    start, _ = solver._harmonic_start(g)
    inside = dom.nonexterior_flat
    assert np.all(np.isfinite(start[inside]))
    assert np.all(np.isnan(start[dom.classification == EXTERIOR]))
    assert g.values.min() <= start[inside].min()
    assert start[inside].max() <= g.values.max()
    rep = solver.solve(g, SQ, config=SolverConfig(k_max=4))
    assert np.all(np.isfinite(rep.solution.values[inside]))


def test_solve_sides_and_validation():
    dom = line_domain(8)
    g = line_boundary(dom)
    with pytest.raises(ParameterError):
        solver.solve(g, SQ, -0.1, "lower")
    with pytest.raises(ParameterError):
        solver.solve(g, SQ, math.nan, "lower")
    with pytest.raises(ParameterError):
        solver.solve(g, SQ, 0.1, "middle")
    with pytest.raises(ParameterError):
        solver.solve(g, SQ, 0.0, "middle")
    # a config passed where eps goes is refused, not read as eps
    with pytest.raises(TypeError):
        solver.solve(g, SQ, SolverConfig(k_max=8))
    cfg = SolverConfig(k_max=8)
    lo = solver.solve(g, SQ, 0.05, "lower", config=cfg).solution
    hi = solver.solve(g, SQ, 0.05, "upper", config=cfg).solution
    # eps = 0 is the infinity branch, here the linear interpolant
    mid = solver.solve(g, SQ, 0.0, "lower", config=cfg).solution
    idx = dom.interior_flat
    assert np.max(np.abs(mid.values - dom.coords[:, 0])) <= 1e-6
    # the lower branch maximizes the source credit, the upper pays it
    assert np.all(lo.values[idx] >= mid.values[idx] - 1e-8)
    assert np.all(mid.values[idx] >= hi.values[idx] - 1e-8)
    assert solver.uniqueness_gap(lo, hi) < 0.05


def test_an_eps_whose_scaled_source_meets_the_tolerance_is_rejected():
    """With eps >= L^alpha the level is scaled by eps^(1/alpha), and its
    source coefficient is eps^(1/alpha - 1): 1e-8 at eps = 1e16 on the
    squared norm.  The start then passed as converged after 0
    iterations; at 1e12 the midpoint of the unit line moves to about
    4.2e4."""
    dom = line_domain(4)
    g = line_boundary(dom)
    cfg = SolverConfig(k_max=4)
    for eps in (1e16, 1e20):
        with pytest.raises(ParameterError, match="eps = 1e\\+(16|20) sets the scale.*"
                           "gradient_tolerance = 1e-08; eps must be below 1e\\+16"):
            solver.solve(g, SQ, eps, "lower", config=cfg)
    with pytest.raises(ParameterError, match="eps must be below 1e\\+12"):
        solver.minimize_k(g, SQ, 2, 1e12, "upper",
                          SolverConfig(gradient_tolerance=1e-6))
    rep = solver.solve(g, SQ, 1e12, "lower", config=cfg)
    assert [lv.stop for lv in rep.levels] == ["gradient_tolerance"] * 2
    assert rep.levels[-1].iterations > 0
    assert 4.0e4 < rep.solution.values[2] < 4.4e4


def test_solve_at_eps_zero_ignores_the_side(monkeypatch):
    """eps = 0 is the infinity-harmonic branch: the upper side does the
    same arithmetic as the lower one, bit for bit."""
    traces = record_traces(monkeypatch)
    dom = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 0.25)
    g = BoundaryData.from_function(
        dom, lambda c: np.abs(c[:, 0]) ** (4 / 3) - np.abs(c[:, 1]) ** (4 / 3))
    cfg = SolverConfig(k_max=8)
    lo = solver.solve(g, SQ, 0.0, "lower", config=cfg)
    lo_traces = dict(traces)
    hi = solver.solve(g, SQ, 0.0, "upper", config=cfg)
    assert lo.solution.values.tobytes() == hi.solution.values.tobytes()
    assert lo_traces == traces
    assert [dataclasses.replace(lv, seconds=0.0) for lv in lo.levels] == \
        [dataclasses.replace(lv, seconds=0.0) for lv in hi.levels]
    default = solver.solve(g, SQ, config=cfg)
    assert default.solution.values.tobytes() == lo.solution.values.tobytes()


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
    w, mu = solver.strictify(v, delta=0.1, eps=1.0)
    # C0 = 4 sup|v| = 4
    assert mu == 0.05
    assert np.isclose(np.max(np.abs(w.values - v.values)), 0.09375)
    assert np.isclose(w.values[-1], 1.1 - 0.1 / 16.0)


def test_strictify_degenerate_and_validation():
    dom = line_domain(4)
    z = ScalarField.zeros(dom)
    w, mu = solver.strictify(z, delta=0.5, eps=0.2)
    # C0 falls back to 1e-12 and the zero field is left as it is
    assert mu == 0.05
    assert np.max(np.abs(w.values - z.values)) == 0.0
    assert w.values.tobytes() == z.values.tobytes()
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
    with pytest.raises(ParameterError, match="delta must be positive and finite"):
        solver.strictify(z, delta=math.inf, eps=0.2)
    with pytest.raises(ParameterError, match="eps must be positive and finite"):
        solver.strictify(z, delta=0.1, eps=math.inf)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        solver.strictify(z, delta=0.1, eps=0.2, alpha=math.inf)


def test_strictify_preserves_order_of_bounded_fields():
    # g is increasing on [-c0, c0] = [-4 sup, 4 sup], so order survives
    dom = line_domain(8)
    rng = np.random.default_rng(3)
    a = ScalarField(dom, rng.uniform(-1.0, 1.0, dom.n_nodes))
    b = ScalarField(dom, a.values + rng.uniform(0.0, 0.5, dom.n_nodes))
    wa, _ = solver.strictify(a, 0.2, 0.3)
    wb, _ = solver.strictify(b, 0.2, 0.3)
    assert np.all(wb.values >= wa.values - 1e-12)
