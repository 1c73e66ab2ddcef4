"""Horizontal differential operators on lattice fields.

``OperatorSpec`` is the one definition of the degenerate operators
A(x, p, M): the infinity-Laplacian, the Aronsson operator of an integrand
and the two auxiliary branches.  ``residual`` evaluates one at a field's
jets (Xu, (XXu)*), and ``verify`` at certified touching jets.

The gradient and the Hessian are plain arrays, row r at the interior node
``interior_flat[r]``.  They are assembled from matrices cached on the
domain, so :func:`adjoint_divergence` is the exact transpose of
:func:`horizontal_gradient` and summation by parts holds to rounding.
Their rows store columns at non-exterior nodes only, so the products read
only those nodes of a field, and the NaN a solver's output carries on the
exterior never enters.
Second derivatives nest two first-derivative applications (frame applied at
each pass) rather than expanding product rules, then symmetrise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IncompleteFieldError, ParameterError
from .grids import GridDomain, ScalarField
from .integrands import Integrand


_KINDS = ("infinity_laplacian", "aronsson", "aux_lower", "aux_upper")


@dataclass(frozen=True)
class OperatorSpec:
    """A degenerate operator A(x, p, M) acting on second-order jets.

    p is an m-vector (horizontal gradient), M an m-by-m symmetric
    matrix (symmetrized horizontal Hessian).  Every kind ignores x.
    ``residual`` and the checks in ``verify`` call only ``evaluate``, so
    any object with that method can stand in for an operator.
    """

    kind: str
    f: Optional[Integrand] = None
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError("unknown operator kind %r" % (self.kind,))
        if self.kind in ("aronsson", "aux_lower", "aux_upper") and self.f is None:
            raise ParameterError("%s needs an integrand" % (self.kind,))
        if self.kind in ("aux_lower", "aux_upper") and not 0 < self.eps < math.inf:
            raise ParameterError("auxiliary operators need 0 < eps < inf, got %s"
                                 % (self.eps,))

    @classmethod
    def infinity_laplacian(cls) -> "OperatorSpec":
        return cls(kind="infinity_laplacian")

    @classmethod
    def aronsson(cls, f: Integrand) -> "OperatorSpec":
        """-grad f(p)^T M grad f(p).  ``Integrand.grad`` is 0 at p = 0, also
        where it is singular (``power`` with alpha < 2), so A is 0 there."""
        return cls(kind="aronsson", f=f)

    @classmethod
    def aux_lower(cls, f: Integrand, eps: float) -> "OperatorSpec":
        return cls(kind="aux_lower", f=f, eps=eps)

    @classmethod
    def aux_upper(cls, f: Integrand, eps: float) -> "OperatorSpec":
        return cls(kind="aux_upper", f=f, eps=eps)

    def evaluate(self, x, p, M) -> np.ndarray:
        """A(x, p, M), vectorized over leading axes of p and M."""
        p = np.asarray(p, dtype=float)
        M = np.asarray(M, dtype=float)
        if self.kind == "infinity_laplacian":
            w = p
        else:
            w = self.f.grad(p)
        # w^T M w term by term in C order, einsum's order for a batch but not
        # for a lone row, so a jet's value does not depend on its batch
        m = range(w.shape[-1])
        principal = -sum(w[..., i] * M[..., i, j] * w[..., j] for i in m for j in m)
        if self.kind in ("infinity_laplacian", "aronsson"):
            return principal
        fv = self.f.value(p)
        if self.kind == "aux_lower":
            return np.minimum(fv - self.eps, principal)
        return np.maximum(self.eps - fv, principal)


def _gradient_columns(u: ScalarField) -> np.ndarray:
    """X_i u on every non-exterior node (one-sided rows on the band), (N, m).

    The operators store no exterior column, so u's exterior values are never read.
    """
    return np.stack([op @ u.values for op in u.domain.gradient_operators()], axis=1)


def horizontal_gradient(u: ScalarField) -> np.ndarray:
    """Horizontal gradient Xu = (X_1 u, ..., X_m u) at interior nodes.

    Returns an (interior nodes, m) array, row r at interior_flat[r], and
    raises IncompleteFieldError if a component is not finite.
    """
    grad = _gradient_columns(u)[u.domain.interior_flat]
    if not np.all(np.isfinite(grad)):
        raise IncompleteFieldError("non-finite horizontal component")
    return grad


def horizontal_hessian(u: ScalarField) -> np.ndarray:
    """Symmetrised horizontal Hessian (X_i X_j u + X_j X_i u) / 2.

    Returns an (interior nodes, m, m) array, row r at interior_flat[r],
    symmetric in its last two axes bit for bit.
    """
    dom = u.domain
    m = dom.spec.horizontal_dim
    first = _gradient_columns(u)  # (N, m)
    idx = dom.interior_flat
    second = np.empty((idx.size, m, m))
    for i, op in enumerate(dom.gradient_operators()):
        # d/dX_i of each X_j u, all columns at once
        second[:, i, :] = (op @ first)[idx]
    return 0.5 * (second + np.swapaxes(second, 1, 2))


def residual(u: ScalarField, op: OperatorSpec) -> ScalarField:
    """The operator op at u's jets, A(x, Xu, (XXu)*), as a lattice field.

    Values are set at interior nodes; band nodes carry 0 and exterior nodes
    NaN, since the operator needs a full stencil.  A value that overflows
    raises IncompleteFieldError naming its node.
    """
    dom = u.domain
    full = np.zeros(dom.n_nodes)
    full[dom.interior_flat] = op.evaluate(None, horizontal_gradient(u),
                                          horizontal_hessian(u))
    full[~dom.nonexterior_mask] = np.nan
    return ScalarField(dom, full)


def infinity_laplacian(u: ScalarField) -> ScalarField:
    """Horizontal infinity-Laplacian  -sum_ij X_i u X_j u (X X u)*_ij; see residual."""
    return residual(u, OperatorSpec.infinity_laplacian())


def adjoint_divergence(domain: GridDomain, F: np.ndarray) -> ScalarField:
    """Exact adjoint of :func:`horizontal_gradient`.

    F is an (interior nodes, m) array laid out as the gradient.  Returns
    the lattice field X*F with <Xu, F> = <u, X*F> for every u (inner
    products summed over interior nodes on the left, non-exterior nodes on
    the right; u vanishing on the boundary band pairs purely with the
    interior part).
    """
    F = np.asarray(F, dtype=float)
    shape = (domain.interior_flat.size, domain.spec.horizontal_dim)
    if F.shape != shape:
        raise IncompleteFieldError(f"horizontal field must have shape {shape}, got {F.shape}")
    if not np.all(np.isfinite(F)):
        raise IncompleteFieldError("non-finite horizontal component")
    full = np.zeros(domain.n_nodes)
    for i, op in enumerate(domain.gradient_operators()):
        full += op[domain.interior_flat].T @ F[:, i]
    full[~domain.nonexterior_mask] = np.nan
    return ScalarField(domain, full)

