"""Horizontal differential operators on lattice fields.

The gradient is assembled from matrices cached on the domain, so
:func:`adjoint_divergence` is the exact transpose of
:func:`horizontal_gradient` and summation by parts holds to rounding.
Second derivatives nest two first-derivative applications (frame applied at
each pass) rather than expanding product rules, then symmetrise.
"""

from __future__ import annotations

import numpy as np

from .grids import GridDomain, HorizontalField, ScalarField
from .integrands import Integrand


def _padded_values(u: ScalarField) -> np.ndarray:
    vals = u.values.copy()
    ext = ~u.domain.nonexterior_mask
    if np.any(ext):
        vals[ext] = 0.0
    return vals


def horizontal_gradient(u: ScalarField) -> HorizontalField:
    """Horizontal gradient Xu = (X_1 u, ..., X_m u) at interior nodes."""
    dom = u.domain
    vals = _padded_values(u)
    ops = dom.gradient_operators("interior")
    cols = [op @ vals for op in ops]
    grads = np.stack([c[dom.interior_flat] for c in cols], axis=1)
    return HorizontalField(dom, grads)


def _extended_gradient_columns(u: ScalarField) -> np.ndarray:
    """X_i u on all non-exterior nodes (one-sided rows on the band)."""
    dom = u.domain
    vals = _padded_values(u)
    ops = dom.gradient_operators("nonexterior")
    return np.stack([op @ vals for op in ops], axis=1)  # (N, m)


def horizontal_hessian(u: ScalarField) -> np.ndarray:
    """Symmetrised horizontal Hessian (X_i X_j u + X_j X_i u) / 2.

    Returns an (interior nodes, m, m) array, row r at interior_flat[r],
    symmetric in its last two axes bit for bit.
    """
    dom = u.domain
    m = dom.spec.horizontal_dim
    first = _extended_gradient_columns(u)  # (N, m)
    ops = dom.gradient_operators("interior")
    idx = dom.interior_flat
    second = np.empty((idx.size, m, m))
    for i in range(m):
        col = ops[i] @ first  # d/dX_i of each X_j u, all columns at once
        second[:, i, :] = col[idx]
    return 0.5 * (second + np.swapaxes(second, 1, 2))


def infinity_laplacian(u: ScalarField) -> ScalarField:
    """Horizontal infinity-Laplacian  -sum_ij X_i u X_j u (X X u)*_ij.

    Values are set at interior nodes; band nodes carry 0 and exterior nodes
    NaN, since the operator needs a full stencil.
    """
    dom = u.domain
    grad = horizontal_gradient(u).values
    hess = horizontal_hessian(u)
    vals = -np.einsum("ki,kij,kj->k", grad, hess, grad)
    return _interior_result(dom, vals)


def aronsson_residual(u: ScalarField, f: Integrand) -> ScalarField:
    """Residual -sum_ij f_pi(Xu) f_pj(Xu) (X X u)*_ij of the Aronsson operator.

    ``Integrand.grad`` is 0 at Xu = 0, also where it is singular (``power``
    with alpha < 2), so the residual is 0 there.
    """
    dom = u.domain
    grad = horizontal_gradient(u).values
    hess = horizontal_hessian(u)
    fp = f.grad(grad)
    vals = -np.einsum("ki,kij,kj->k", fp, hess, fp)
    return _interior_result(dom, vals)


def adjoint_divergence(F: HorizontalField) -> ScalarField:
    """Exact adjoint of :func:`horizontal_gradient`.

    Returns the lattice field X*F with <Xu, F> = <u, X*F> for every u
    (inner products summed over interior nodes on the left, non-exterior
    nodes on the right; u vanishing on the boundary band pairs purely with
    the interior part).
    """
    dom = F.domain
    ops = dom.gradient_operators("interior")
    full = np.zeros(dom.n_nodes)
    for i, op in enumerate(ops):
        comp = np.zeros(dom.n_nodes)
        comp[dom.interior_flat] = F.values[:, i]
        full += op.T @ comp
    ext = ~dom.nonexterior_mask
    if np.any(ext):
        full[ext] = np.nan
    return ScalarField(dom, full, validate=False)


def _interior_result(dom: GridDomain, interior_vals: np.ndarray) -> ScalarField:
    full = np.zeros(dom.n_nodes)
    full[dom.interior_flat] = interior_vals
    ext = ~dom.nonexterior_mask
    if np.any(ext):
        full[ext] = np.nan
    return ScalarField(dom, full, validate=False)
