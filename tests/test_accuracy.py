"""Accuracy of the solver against exact infinity-harmonic fields.

u = t on heisenberg1 is k-harmonic for every k, so its error at a level is
the scheme's and that of the level's unseen nodes.
u = y + (x/2) sqrt(4 - x^2) + 2 arcsin(x/2) on grushin [-1, 1]^2 is
infinity-harmonic with |Xu| = 2 and is not k-harmonic, so the solver reaches
it only as k grows.  Neither has a singular point, unlike aronsson43.

Each ceiling is the sup error of the current scheme; a better scheme lowers
it, and none is ever raised.  The u = t errors from k = 8 on are those of
the unseen nodes, not of the scheme, and are not asserted.
"""

import functools

import numpy as np
import pytest

from subinf import groups, solver, verify
from subinf.calculus import OperatorSpec
from subinf.grids import GridDomain, ScalarField
from subinf.integrands import squared_norm
from subinf.solver import BoundaryData, SolverConfig


def vertical(c):
    return c[:, 2]


def grushin_field(c):
    x, y = c[:, 0], c[:, 1]
    return y + 0.5 * x * np.sqrt(4.0 - x * x) + 2.0 * np.arcsin(x / 2.0)


EXACT = {"heisenberg1": vertical, "grushin": grushin_field}


def unit_box(gid, h):
    spec = groups.from_id(gid)
    return GridDomain.box(spec, [-1.0] * spec.dim, [1.0] * spec.dim, h)


@functools.lru_cache(maxsize=None)
def solved(gid, h, k_max):
    """The full doubling path 2, 4, ..., k_max from the exact boundary values."""
    g = BoundaryData.from_function(unit_box(gid, h), EXACT[gid])
    return solver.solve(g, squared_norm(), config=SolverConfig(k_max=k_max))


def sup_error(u):
    dom = u.domain
    exact = EXACT[dom.spec.id](dom.coords)
    return float(np.max(np.abs(u.values - exact)[dom.nonexterior_flat]))


@pytest.mark.parametrize("gid", ["heisenberg1", "grushin"])
def test_exact_fields_are_infinity_harmonic_symbolically(gid):
    """CAS oracle on the frame of groups.frame_coefficients: Delta_inf u =
    (Xu)^T (XXu)* Xu is 0.  The k-Laplacian of the squared norm is
    |Xu|^(2k-4) ((2k-2) Delta_inf u + |Xu|^2 Delta_X u), so u = t, whose
    sub-Laplacian Delta_X u is 0 too, is k-harmonic for every k, and the
    Grushin field, with |Xu| = 2 and Delta_X u != 0, is not."""
    import sympy

    x, y, t = sympy.symbols("x y t", real=True)
    if gid == "heisenberg1":
        coords = (x, y, t)
        frame = sympy.Matrix([[1, 0, -2 * y], [0, 1, 2 * x]])
        u = t
    else:
        coords = (x, y)
        frame = sympy.Matrix([[1, 0], [0, x]])
        u = y + x / 2 * sympy.sqrt(4 - x**2) + 2 * sympy.asin(x / 2)
    # the hand-written frame is the one the solver reads
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20, len(coords)))
    spec = groups.from_id(gid)
    as_numbers = sympy.lambdify(coords, frame, "numpy")
    for p, a in zip(pts, groups.frame_coefficients(spec, pts)):
        assert np.allclose(np.array(as_numbers(*p), dtype=float), a, rtol=0, atol=1e-15)
    # and so is the field
    assert np.allclose(sympy.lambdify(coords, u, "numpy")(*pts.T), EXACT[gid](pts),
                       rtol=0, atol=1e-14)

    def along(i, w):
        return sum(frame[i, j] * sympy.diff(w, c) for j, c in enumerate(coords))

    m = frame.rows
    grad = [along(i, u) for i in range(m)]
    hess = [[(along(i, grad[j]) + along(j, grad[i])) / 2 for j in range(m)]
            for i in range(m)]
    inf_lap = sum(grad[i] * hess[i][j] * grad[j] for i in range(m) for j in range(m))
    sub_lap = sum(hess[i][i] for i in range(m))
    assert sympy.simplify(inf_lap) == 0
    if gid == "heisenberg1":
        assert sympy.simplify(sub_lap) == 0
    else:
        assert sympy.simplify(sum(g**2 for g in grad)) == 4
        assert sympy.simplify(sub_lap + x / sympy.sqrt(4 - x**2)) == 0


@pytest.mark.parametrize("gid,k_max,hs,ceilings", [
    ("grushin", 64, (1 / 8, 1 / 16, 1 / 32), (0.0167, 0.0084, 0.0042)),
    ("heisenberg1", 4, (1 / 4, 1 / 8), (0.1724, 0.1004)),
], ids=["grushin_k64", "vertical_k4"])
def test_error_falls_as_h_halves_under_its_ceiling(gid, k_max, hs, ceilings):
    errors = [sup_error(solved(gid, h, k_max).solution) for h in hs]
    assert all(e <= c for e, c in zip(errors, ceilings)), errors
    assert all(fine < coarse for coarse, fine in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 32])
def test_every_grushin_level_meets_its_stop_and_sees_every_node(h):
    levels = solved("grushin", h, 64).levels
    assert [lv.k for lv in levels] == [2, 4, 8, 16, 32, 64]
    assert all(lv.stop == "gradient_tolerance" and lv.unseen == 0 for lv in levels)


@pytest.mark.parametrize("gid,h", [("grushin", 1 / 8), ("grushin", 1 / 16),
                                   ("heisenberg1", 1 / 4), ("heisenberg1", 1 / 8)])
def test_viscosity_check_passes_the_exact_fields(gid, h):
    """Positive control: every certified jet of an exact field meets A = 0."""
    dom = unit_box(gid, h)
    rep = verify.viscosity_check(ScalarField.from_function(dom, EXACT[gid]),
                                 OperatorSpec.infinity_laplacian(), jet_samples=64)
    assert rep.jets_above > 0 and rep.jets_below > 0
    assert rep.worst_subsolution_violation == 0.0
    assert rep.worst_supersolution_violation == 0.0
    assert rep.passed


def test_viscosity_check_fails_the_solvers_vertical_answer_at_k16():
    """Negative control: at h = 1/8 and k <= 16 most free nodes are unseen,
    and the answer is far from t (0.36 in sup); the check must say so."""
    u = solved("heisenberg1", 1 / 8, 16).solution
    rep = verify.viscosity_check(u, OperatorSpec.infinity_laplacian(), jet_samples=64)
    assert not rep.passed
