"""Acceptance gate: every structural criterion must hold at its tolerance.

The suite is computed once per module; each criterion then gets its own
test that prints the one-line verdict and asserts it passed.
"""

import os

import numpy as np
import pytest

from subinf import acceptance, calculus, solver
from subinf.grids import ScalarField

NAMES = [name for name, _ in acceptance._CRITERIA]


@pytest.fixture(scope="module")
def suite():
    results = acceptance.run_suite()
    return {r.name: r for r in results}


@pytest.mark.parametrize("name", NAMES)
def test_criterion(suite, name):
    r = suite[name]
    print(acceptance.format_table([r]).splitlines()[0])
    assert r.error == "", f"{name} crashed: {r.error}"
    assert r.passed, f"{name} failed: {r.measured} [{r.tolerance}]"


def test_all_ten_pass(suite):
    assert len(suite) == 10
    assert all(r.passed for r in suite.values())


def test_residual_refinement_detects_an_injected_stencil_bug(monkeypatch):
    """Negative control: an O(h) defect in the operator must sink the

    refinement criterion, proving the factor check has teeth."""
    real = calculus.infinity_laplacian

    def broken(u):
        field = real(u)
        vals = field.values.copy()
        vals[u.domain.interior_flat] += u.domain.h
        return ScalarField(u.domain, vals)

    monkeypatch.setattr(calculus, "infinity_laplacian", broken)
    ok, measured, _ = acceptance._a2(acceptance.bundled_config_dir())
    assert not ok, f"injected first-order bug went unnoticed: {measured}"


@pytest.mark.parametrize("criterion,name", [(acceptance._a4, "a4_line.cfg"),
                                            (acceptance._a10, "a10_line.cfg")])
def test_strictify_margin_uses_the_config_integrand(monkeypatch, tmp_path,
                                                    criterion, name):
    """A4 and A10 passed alpha = 2 to strictify whatever the integrand, so
    A10 measured a power:3 operator margin against the squared norm's mu."""
    with open(os.path.join(acceptance.bundled_config_dir(), name)) as fh:
        text = fh.read()
    (tmp_path / name).write_text(text.replace("[problem]\n",
                                              "[problem]\nintegrand = power:3\n"))
    alphas = []
    real = solver.strictify

    def recording(v, delta, eps, alpha=2.0):
        alphas.append(alpha)
        return real(v, delta, eps, alpha)

    monkeypatch.setattr(solver, "strictify", recording)
    criterion(str(tmp_path))
    assert alphas == [3.0]


def test_a10_margin_is_the_aux_upper_residual_bit_for_bit():
    """A10 reads its margin from calculus.residual of OperatorSpec.aux_upper;
    the reference is the expression it wrote out by hand,
    max(eps - f(Xw), -f'(Xw)^T (XXw)* f'(Xw)), with the product as an einsum."""
    cfg = acceptance._cfg(acceptance.bundled_config_dir(), "a10_line.cfg")
    f = cfg.integrand_obj()
    up = solver.solve(cfg.boundary_data(), f, cfg.eps, "upper", config=cfg.solver).solution
    w, _ = solver.strictify(up, delta=0.1, eps=cfg.eps, alpha=f.alpha)
    grad = calculus.horizontal_gradient(w)
    fp = f.grad(grad)
    res = -np.einsum("ki,kij,kj->k", fp, calculus.horizontal_hessian(w), fp)
    reference = np.maximum(cfg.eps - f.value(grad), res)
    got = calculus.residual(w, calculus.OperatorSpec.aux_upper(f, cfg.eps))
    assert got.values[w.domain.interior_flat].tobytes() == reference.tobytes()
