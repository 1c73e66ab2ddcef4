import dataclasses

import numpy as np
import pytest

from subinf import groups, integrands, solver, verify
from subinf.errors import DomainMismatchError, ParameterError
from subinf.grids import BOUNDARY, EXTERIOR, INTERIOR, GridDomain, ScalarField
from subinf.solver import BoundaryData, SolverConfig
from subinf.verify import OperatorSpec

SQ = integrands.squared_norm()


# -- operator specs --------------------------------------------------------


def test_evaluate_hand_values():
    p = np.array([1.0, 2.0])
    M = np.array([[1.0, 0.0], [0.0, 3.0]])
    x = np.zeros(2)
    assert OperatorSpec.infinity_laplacian().evaluate(x, p, M) == -13.0
    assert OperatorSpec.aronsson(SQ).evaluate(x, p, M) == -52.0
    # aux branches clip against the eikonal part f(p) - eps = 4.7
    assert OperatorSpec.aux_lower(SQ, 0.3).evaluate(x, p, M) == -52.0
    assert OperatorSpec.aux_upper(SQ, 0.3).evaluate(x, p, M) == -4.7


def test_operator_spec_validation():
    with pytest.raises(ParameterError):
        OperatorSpec(kind="laplace")
    with pytest.raises(ParameterError, match="unknown operator kind"):
        OperatorSpec(kind="custom")
    with pytest.raises(ParameterError):
        OperatorSpec(kind="aronsson")
    with pytest.raises(ParameterError):
        OperatorSpec(kind="aux_lower", f=SQ, eps=0.0)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="0 < eps < inf"):
            OperatorSpec.aux_lower(SQ, eps)


@pytest.mark.parametrize("op", [
    OperatorSpec.infinity_laplacian(),
    OperatorSpec.aronsson(integrands.power(4.0)),
    OperatorSpec.aux_lower(SQ, 0.3),
    OperatorSpec.aux_upper(SQ, 0.3),
])
def test_shipped_operators_are_degenerate_elliptic(op):
    passed, worst = verify.subelliptic_check(op, samples=400, seed=5)
    assert passed
    assert worst <= 1e-9


class _AntiElliptic:
    """+<p, M p>: increasing in M, the wrong sign for degenerate ellipticity."""

    def evaluate(self, x, p, M):
        return np.einsum("...i,...ij,...j->...", p, M, p)


def test_broken_operator_fails_the_ellipticity_audit():
    bad = _AntiElliptic()
    passed, worst = verify.subelliptic_check(bad, samples=400, seed=5)
    assert not passed
    assert worst > 1.0


def test_subelliptic_check_needs_samples():
    for bad in (0, float("nan"), 2.5):
        with pytest.raises(ParameterError, match="samples"):
            verify.subelliptic_check(OperatorSpec.infinity_laplacian(), samples=bad)


# -- viscosity jets ---------------------------------------------------------


def test_solved_field_passes_viscosity_check():
    dom = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 1.0 / 16)
    g = BoundaryData.from_function(dom, lambda c: c[:, 0])
    u = solver.solve(g, SQ, config=SolverConfig(k_max=16)).solution
    rep = verify.viscosity_check(u, OperatorSpec.infinity_laplacian())
    assert rep.passed
    assert rep.jets_above > 0 and rep.jets_below > 0
    assert rep.tol == 10.0 / 16**2


def test_cone_tip_fails_the_supersolution_half():
    """u = |x - 1/2| admits touching-from-below parabolas with p != 0 and

    upward curvature at the tip, so -p^2 S < 0 there; the tip kills the
    supersolution property while the subsolution half stays clean."""
    dom = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 1.0 / 16)
    u = ScalarField.from_function(dom, lambda c: np.abs(c[:, 0] - 0.5))
    rep = verify.viscosity_check(u, OperatorSpec.infinity_laplacian(),
                                 jet_samples=64, seed=0)
    assert not rep.passed
    assert rep.worst_subsolution_violation == 0.0
    assert np.isclose(rep.worst_supersolution_violation, 1.3511778959399383)


def test_negation_swaps_the_violation_columns_exactly():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)
    rng = np.random.default_rng(9)
    u = ScalarField(dom, np.cumsum(rng.normal(size=dom.n_nodes)) * 0.01)
    neg = ScalarField(dom, -u.values)
    op = OperatorSpec.infinity_laplacian()
    r1 = verify.viscosity_check(u, op, jet_samples=32, seed=2)
    r2 = verify.viscosity_check(neg, op, jet_samples=32, seed=2)
    assert np.array_equal(r1.subsolution_violations,
                          r2.supersolution_violations)
    assert np.array_equal(r1.supersolution_violations,
                          r2.subsolution_violations)


@pytest.mark.parametrize("geometry,lower,upper,h", [
    ("euclidean:2", [0, 0], [2, 2], 0.0625),
    ("heisenberg1", [-1, -1, -1], [1, 1, 1], 0.25),
])
def test_viscosity_check_matches_unoptimized_einsum(monkeypatch, geometry,
                                                    lower, upper, h):
    """The contraction order einsum's optimizer picks moves no verdict.

    Reference: the same check with every einsum unoptimized, on a field
    of six offset cones as in the A5 fixture.  Jet counts must agree
    exactly.  The violations may round differently in the last bit (2
    supersolution entries do on the Heisenberg box), so they are
    compared to rtol 1e-13."""
    dom = GridDomain.box(groups.from_id(geometry), lower, upper, h)
    rng = np.random.default_rng(11)
    centres = rng.uniform(np.add(lower, 0.2), np.subtract(upper, 0.2),
                          (6, len(lower)))
    dist = np.linalg.norm(dom.coords[:, None, :] - centres[None], axis=2)
    u = ScalarField(dom, np.min(rng.uniform(0.0, 0.1, 6) + dist, axis=1))
    op = OperatorSpec.infinity_laplacian()
    got = verify.viscosity_check(u, op, jet_samples=32, seed=4)
    plain = np.einsum
    monkeypatch.setattr(np, "einsum",
                        lambda *operands, optimize=False: plain(*operands))
    ref = verify.viscosity_check(u, op, jet_samples=32, seed=4)
    assert (got.jets_above, got.jets_below, got.candidates) == \
        (ref.jets_above, ref.jets_below, ref.candidates)
    assert np.any(ref.supersolution_violations > 0)
    np.testing.assert_allclose(got.subsolution_violations,
                               ref.subsolution_violations, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.supersolution_violations,
                               ref.supersolution_violations, rtol=1e-13, atol=0)


def test_viscosity_check_on_an_interior_that_touches_the_lattice_edge():
    """A neighbor off the lattice is missing, like an exterior one.

    On the 5x5 plane lattice, nodes (4, 2) and (2, 4) are interior and
    have no +1 neighbor along one axis.  The same check on the 6x6
    lattice that adds an exterior row and column must give the same
    verdict at every interior node."""
    spec = groups.euclidean(2)
    cls = np.full((5, 5), BOUNDARY, dtype=np.int8)
    cls[1:4, 1:4] = INTERIOR
    cls[4, 2] = cls[2, 4] = INTERIOR
    padded = np.full((6, 6), EXTERIOR, dtype=np.int8)
    padded[:5, :5] = cls
    doms = [GridDomain(spec, [0.0, 0.0], 0.25, c.shape, c.reshape(-1))
            for c in (cls, padded)]

    def field(dom):
        x, y = dom.coords[:, 0], dom.coords[:, 1]
        vals = x * x - 0.5 * y * y + 0.3 * x * y + x
        vals[dom.classification == EXTERIOR] = np.nan
        return ScalarField(dom, vals)

    op = OperatorSpec.infinity_laplacian()
    got, ref = (verify.viscosity_check(field(dom), op, jet_samples=16, seed=1)
                for dom in doms)
    assert doms[0].interior_flat.size == 11
    assert (got.jets_above, got.jets_below) == (ref.jets_above, ref.jets_below)
    assert got.jets_above + got.jets_below > 0
    assert np.array_equal(got.subsolution_violations, ref.subsolution_violations)
    assert np.array_equal(got.supersolution_violations,
                          ref.supersolution_violations)


def test_viscosity_check_counts_sign_paired_jets():
    dom = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 1.0 / 16)
    u = ScalarField.from_function(dom, lambda c: np.abs(c[:, 0] - 0.5))
    op = OperatorSpec.infinity_laplacian()
    counts = [verify.viscosity_check(u, op, jet_samples=j).candidates
              for j in (0, 1, 2, 3, 64)]
    assert counts == [15, 17, 17, 19, 79]
    for bad in (-5, float("nan"), 1.5):
        with pytest.raises(ParameterError, match="jet_samples"):
            verify.viscosity_check(u, op, jet_samples=bad)


# -- reference: the check as first written, one candidate and node at a time --


def reference_stencil_table(domain, radius=2):
    n = domain.spec.dim
    ticks = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([ticks] * n), indexing="ij")
    offs = np.stack([g.reshape(-1) for g in grids], axis=1)
    mi = domain.multi_indices[domain.interior_flat]
    dims = np.asarray(domain.dims)
    nb_multi = mi[:, None, :] + offs[None, :, :]
    inside = np.all((nb_multi >= 0) & (nb_multi < dims[None, None, :]), axis=2)
    nb_flat = np.clip(nb_multi, 0, dims - 1) @ domain.strides
    valid = inside & (domain.classification[nb_flat] != EXTERIOR)
    return offs, nb_flat, valid


def reference_second_differences(nb, center, n, h):
    eye = np.eye(n, dtype=int)
    D2 = np.zeros((center.size, n, n))
    for a in range(n):
        D2[:, a, a] = (nb(eye[a]) - 2.0 * center + nb(-eye[a])) / (h * h)
    for a in range(n):
        for b in range(a + 1, n):
            ea, eb = eye[a], eye[b]
            cross = (nb(ea + eb) - nb(ea - eb) - nb(eb - ea) + nb(-ea - eb)) \
                / (4.0 * h * h)
            D2[:, a, b] = cross
            D2[:, b, a] = cross
    D2[~np.isfinite(D2)] = 0.0
    return D2


def reference_viscosity_check(u, op, jet_samples, seed):
    """(sub, super violations, jets above, jets below, candidates)."""
    dom = u.domain
    n = dom.spec.dim
    h = dom.h
    inodes = dom.interior_flat
    offs, nb_flat, valid = reference_stencil_table(dom)
    column = {tuple(o): c for c, o in enumerate(offs.tolist())}
    center = u.values[inodes]
    nbv = np.where(valid, u.values[nb_flat], np.nan)

    def nb(offset):
        return nbv[:, column[tuple(offset)]]

    delta = offs.astype(float) * h
    eye = np.eye(n, dtype=int)
    fwd = np.stack([(nb(e) - center) / h for e in eye], axis=1)
    bwd = np.stack([(center - nb(-e)) / h for e in eye], axis=1)
    fwd, bwd = np.where(np.isnan(fwd), bwd, fwd), np.where(np.isnan(bwd), fwd, bwd)
    fwd, bwd = np.nan_to_num(fwd, nan=0.0), np.nan_to_num(bwd, nan=0.0)
    D2 = reference_second_differences(nb, center, n, h)
    du = nbv - center[:, None]
    coords = dom.coords[inodes]
    a = groups.frame_coefficients(dom.spec, coords)
    da = groups.frame_derivatives(dom.spec, coords)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(center), initial=0.0)))
    cands = [(np.full(n, lam), np.zeros(n), zeta, np.zeros((n, n)))
             for lam in (0.0, 0.25, 0.5, 0.75, 1.0) for zeta in (0.0, h, 1.0)]
    rng = np.random.default_rng(seed)
    for _ in range((jet_samples + 1) // 2):
        lam = rng.uniform(0.0, 1.0, n)
        gshift = rng.normal(size=n) * h
        zeta = rng.uniform(0.0, 1.0)
        B = rng.normal(size=(n, n))
        hshift = 0.5 * (B + B.T)
        cands.append((lam, gshift, zeta, hshift))
        cands.append((lam, -gshift, zeta, -hshift))
    sub = np.zeros(inodes.size)
    sup = np.zeros(inodes.size)
    above_total = below_total = 0
    for lam, gshift, zeta, hshift in cands:
        xi = lam[None, :] * fwd + (1.0 - lam)[None, :] * bwd + gshift[None, :]
        S = zeta * D2 + hshift[None, :, :]
        quad = 0.5 * np.einsum("oa,kab,ob->ko", delta, S, delta)
        diff = xi @ delta.T + quad - du
        with np.errstate(invalid="ignore"):
            above = np.nanmin(diff, axis=1) >= -slack
            below = np.nanmax(diff, axis=1) <= slack
        p = np.einsum("kia,ka->ki", a, xi)
        M = np.einsum("kia,kjb,kab->kij", a, a, S) + np.einsum("kia,kajb,kb->kij", a, da, xi)
        A = op.evaluate(coords, p, 0.5 * (M + np.swapaxes(M, 1, 2)))
        sub = np.where(above, np.maximum(sub, np.maximum(A, 0.0)), sub)
        sup = np.where(below, np.maximum(sup, np.maximum(-A, 0.0)), sup)
        above_total += int(np.sum(above))
        below_total += int(np.sum(below))
    return sub, sup, above_total, below_total, len(cands)


def cone_field(dom, lower, upper, seed=11):
    """Min of six offset cones, as in the A5 fixture."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(np.add(lower, 0.2), np.subtract(upper, 0.2),
                          (6, len(lower)))
    dist = np.linalg.norm(dom.coords[:, None, :] - centres[None], axis=2)
    return ScalarField(dom, np.min(rng.uniform(0.0, 0.1, 6) + dist, axis=1))


def lattice_edge_field():
    """The 5x5 plane lattice whose interior reaches its last row and column."""
    cls = np.full((5, 5), BOUNDARY, dtype=np.int8)
    cls[1:4, 1:4] = INTERIOR
    cls[4, 2] = cls[2, 4] = INTERIOR
    dom = GridDomain(groups.euclidean(2), [0.0, 0.0], 0.25, cls.shape, cls.reshape(-1))
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    return ScalarField(dom, x * x - 0.5 * y * y + 0.3 * x * y + x)


def slot_field():
    """Cones on [-1,1]^2 at h = 1/8 with an exterior slot inside the interior.

    Interior nodes border the slot, so their stencils reach exterior
    nodes, which hold junk here and must read as missing."""
    box = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 1 / 8)
    c = box.coords
    cls = box.classification.copy()
    cls[(np.abs(c[:, 0]) <= 0.25) & (np.abs(c[:, 1]) <= 0.5)] = EXTERIOR
    dom = GridDomain(box.spec, box.lower, box.h, box.dims, cls)
    vals = cone_field(dom, [-1, -1], [1, 1]).values
    vals[cls == EXTERIOR] = 1e3
    return ScalarField(dom, vals)


def box_cones(geometry, lower, upper, h):
    return lambda: cone_field(GridDomain.box(groups.from_id(geometry), lower, upper, h),
                              lower, upper)


VISCOSITY_CASES = {
    "plane_cones": box_cones("euclidean:2", [0, 0], [2, 2], 1 / 16),
    "heis_cones": box_cones("heisenberg1", [-1, -1, -1], [1, 1, 1], 1 / 4),
    "grushin_cones": box_cones("grushin", [-1, -1], [1, 1], 1 / 8),
    "line_cones": box_cones("euclidean:1", [0], [1], 1 / 32),
    "lattice_edge": lattice_edge_field,
    "plane_slot": slot_field,
}


@pytest.mark.parametrize("name", ["lattice_edge", "plane_slot"])
def test_stencil_values_read_missing_neighbors_as_nan(name):
    """The padded gather equals the neighbor table of the reference.

    Off the lattice (lattice_edge) and on exterior nodes (plane_slot) it
    reads NaN, never the exterior junk."""
    u = VISCOSITY_CASES[name]()
    offs, nbv = verify._stencil_values(u)
    ref_offs, nb_flat, valid = reference_stencil_table(u.domain)
    column = {tuple(o): c for c, o in enumerate(ref_offs.tolist())}
    cols = [column[tuple(o)] for o in offs.tolist()]
    want = np.where(valid, u.values[nb_flat], np.nan)[:, cols].T
    assert np.any(~valid)
    assert nbv.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(VISCOSITY_CASES))
def test_viscosity_check_matches_the_reference(name):
    """Same jets and candidates exactly; violations to rtol 1e-13.

    The planes sum each gap in another order than the reference, and the
    jets of the touched nodes are contracted on fewer rows, so a violation
    may round differently in its last bits."""
    u = VISCOSITY_CASES[name]()
    op = OperatorSpec.infinity_laplacian()
    got = verify.viscosity_check(u, op, jet_samples=32, seed=4)
    sub, sup, above, below, candidates = reference_viscosity_check(u, op, 32, 4)
    assert (got.jets_above, got.jets_below, got.candidates) == (above, below, candidates)
    assert above + below > 0
    np.testing.assert_allclose(got.subsolution_violations, sub, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.supersolution_violations, sup, rtol=1e-13, atol=0)


# -- staging: the touching test against every offset at every pair --


def ring_gaps(near, nbv, center, jets):
    """(offset, candidate, node) gaps at the ring offsets near, by the stage-1 products."""
    n = near.shape[1]
    coef = np.empty((near.shape[0], jets.zeta.size, n + 3))
    coef[:, :, 0] = 1.0
    coef[:, :, 1 : n + 1] = jets.lam
    coef[:, :, n + 1] = jets.zeta
    coef[:, :, n + 2] = (np.einsum("ia,oa->io", jets.g, near)
                         + 0.5 * np.einsum("oa,iab,ob->io", near, jets.H, near)).T
    planes = verify._ring_planes(near, nbv[: near.shape[0]] - center,
                                 jets.fwd, jets.bwd, jets.D2)
    return np.matmul(coef, planes)


def unstaged_touching(delta, nbv, center, jets, slack, ring_open=None):
    """verify._touching without its stages: every (candidate, node) pair at every offset.

    The ring offsets take the stage-1 products over all nodes at once, the
    other offsets the stage-2 products over all pairs at once.  ring_open,
    a list, receives the number of pairs the ring alone leaves open.
    """
    n = delta.shape[1]
    ring = 3**n
    near, far = delta[:ring], delta[ring:]
    gaps = ring_gaps(near, nbv, center, jets)
    gaps[ring // 2] = 0.0
    lowest = np.fmin.reduce(gaps, axis=0)
    highest = np.fmax.reduce(gaps, axis=0)
    if ring_open is not None:
        ring_open.append(int(np.count_nonzero((lowest >= -slack) | (highest <= slack))))
    cand, node = np.indices(lowest.shape).reshape(2, -1)
    xi, S = jets.at(cand, node)
    phi = np.concatenate([far, 0.5 * np.einsum("oa,ob->oab", far, far).reshape(-1, n * n)],
                         axis=1)
    gap = phi @ np.concatenate([xi, S.reshape(-1, n * n)], axis=1).T \
        - (nbv[ring:, node] - center[node])
    lowest = np.fmin(lowest, np.fmin.reduce(gap, axis=0).reshape(lowest.shape))
    highest = np.fmax(highest, np.fmax.reduce(gap, axis=0).reshape(highest.shape))
    return lowest >= -slack, highest <= slack


def saddle_field():
    """A steep saddle with a cubic tilt: every candidate fails on the unit ring.

    Off the ring's axes the saddle gives both signs to every candidate but
    lam = 1/2, zeta = 1, which fits u on the axes exactly; the cubic then
    gives it both signs on the diagonal."""
    dom = GridDomain.box(groups.euclidean(2), [-1, -1], [1, 1], 1 / 8)
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    return ScalarField(dom, 1e4 * (x * x - y * y) + (x + y) ** 3)


def assert_staging_is_exact(u, jet_samples, monkeypatch):
    op = OperatorSpec.infinity_laplacian()
    got = verify.viscosity_check(u, op, jet_samples=jet_samples, seed=4)
    ring_open = []
    monkeypatch.setattr(verify, "_touching",
                        lambda *args: unstaged_touching(*args, ring_open=ring_open))
    ref = verify.viscosity_check(u, op, jet_samples=jet_samples, seed=4)
    monkeypatch.undo()
    assert (got.jets_above, got.jets_below, got.candidates) == \
        (ref.jets_above, ref.jets_below, ref.candidates)
    assert got.subsolution_violations.tobytes() == ref.subsolution_violations.tobytes()
    assert got.supersolution_violations.tobytes() == ref.supersolution_violations.tobytes()
    return ref, ring_open[0]


@pytest.mark.parametrize("jet_samples", [0, 7, 32])
@pytest.mark.parametrize("name", sorted(VISCOSITY_CASES))
def test_staged_touching_equals_every_offset_at_every_pair(name, jet_samples, monkeypatch):
    """The ring rules pairs out for good: stage 2 changes no verdict it skips."""
    ref, ring_open = assert_staging_is_exact(VISCOSITY_CASES[name](), jet_samples, monkeypatch)
    assert ring_open > 0 and ref.jets_above + ref.jets_below > 0


def test_staged_touching_when_no_pair_reaches_stage_two(monkeypatch):
    ref, ring_open = assert_staging_is_exact(saddle_field(), 32, monkeypatch)
    assert ring_open == 0
    assert ref.jets_above == ref.jets_below == 0
    assert ref.worst_subsolution_violation == ref.worst_supersolution_violation == 0.0


def test_axis_cut_keeps_other_rows_in_each_chunk(monkeypatch):
    """Stage 1 with chunks of 8 nodes, some of which keep no candidate row.

    The fixed candidates include lam = 1/2, zeta = 1, which fits u on the
    axes and so is open at every node after them; the random candidates of
    the plane cones alone are shut in most chunks.  The premise is
    recomputed from _ring_planes: chunks keep different rows, some keep
    none and some keep a few.  The verdicts equal the unstaged ones."""
    touching = verify._touching
    args = []
    monkeypatch.setattr(verify, "_touching", lambda *a: args.append(a) or touching(*a))
    verify.viscosity_check(VISCOSITY_CASES["plane_cones"](), OperatorSpec.infinity_laplacian(),
                           jet_samples=16, seed=4)
    monkeypatch.undo()
    delta, nbv, center, jets, slack = args[0]
    rand = slice(15, None)
    jets = dataclasses.replace(jets, lam=jets.lam[rand], zeta=jets.zeta[rand],
                               g=jets.g[rand], H=jets.H[rand])
    near = delta[: 3 ** delta.shape[1]]
    axes = np.count_nonzero(near, axis=1) == 1
    gaps = ring_gaps(near[axes], nbv[:near.shape[0]][axes], center, jets)
    lo = np.fmin(np.fmin.reduce(gaps, axis=0), 0.0)
    hi = np.fmax(np.fmax.reduce(gaps, axis=0), 0.0)
    open_pairs = (lo >= -slack) | (hi <= slack)
    width = 8
    kept = [np.flatnonzero(open_pairs[:, s : s + width].any(axis=1))
            for s in range(0, center.size, width)]
    sizes = [rows.size for rows in kept]
    assert 0 in sizes and any(0 < k < jets.zeta.size for k in sizes)
    assert len({tuple(rows) for rows in kept if rows.size}) > 1
    monkeypatch.setattr(verify, "_CHUNK", width * jets.zeta.size)
    got = verify._touching(delta, nbv, center, jets, slack)
    want = unstaged_touching(delta, nbv, center, jets, slack)
    assert np.any(want[0] | want[1])
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


# -- comparison and minimality ----------------------------------------------


def test_comparison_margin_of_shift_is_zero():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    rng = np.random.default_rng(4)
    u = ScalarField(dom, rng.normal(size=dom.n_nodes))
    v = ScalarField(dom, u.values + 3.0)
    # u - (u + 3) re-rounds per node, so the margin is rounding, not 0
    assert abs(verify.comparison_check(u, v)) < 1e-12


def test_comparison_margin_negative_for_interior_excess():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.25)
    u = ScalarField.zeros(dom)
    spike = np.zeros(dom.n_nodes)
    spike[dom.interior_flat[4]] = 1.0
    v = ScalarField(dom, -spike)
    assert verify.comparison_check(u, v) == -1.0
    with pytest.raises(DomainMismatchError):
        verify.comparison_check(
            u, ScalarField.zeros(
                GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)))


def test_amle_check_accepts_the_linear_field():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)
    u = ScalarField.from_function(dom, lambda c: 2 * c[:, 0] - c[:, 1])
    ratio = verify.amle_check(u, SQ, trials=6, seed=1)
    assert ratio <= 1.0 + 1e-9


def test_amle_check_flags_an_interior_bump():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)
    u = ScalarField.from_function(
        dom,
        lambda c: 2 * c[:, 0] - c[:, 1]
        + np.exp(-40 * ((c[:, 0] - 0.5) ** 2 + (c[:, 1] - 0.5) ** 2)),
    )
    ratio = verify.amle_check(u, SQ, trials=6, seed=1)
    assert ratio > 1.5
    assert np.isclose(ratio, 6.6104727942215025, rtol=1e-6)


def test_amle_check_validation():
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [1, 1], 0.125)
    u = ScalarField.zeros(dom)
    for bad in (0, float("nan"), 2.5):
        with pytest.raises(ParameterError, match="trials"):
            verify.amle_check(u, SQ, trials=bad)
    # a 4-node axis leaves every sub-box without enough interior
    small = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 1.0 / 3)
    with pytest.raises(ParameterError):
        verify.amle_check(ScalarField.zeros(small), SQ, trials=3, seed=0)
