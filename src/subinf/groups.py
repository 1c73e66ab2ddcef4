"""Group structure, gauge norms and horizontal frames for the supported geometries.

Points live in exponential coordinates as plain float arrays of length n.
All operations broadcast over leading axes, so batched evaluation works with
arrays of shape (..., n).

Supported geometries form a closed set: ``euclidean:<n>`` (step 1),
``heisenberg1`` (first Heisenberg group, step 2) and ``grushin`` (a
non-group plane whose horizontal frame degenerates on a line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedGeometryError


@dataclass(frozen=True)
class GroupSpec:
    """Static description of one geometry.

    Attributes
    ----------
    name : str
        One of ``euclidean``, ``heisenberg1``, ``grushin``.
    dim : int
        Ambient coordinate dimension n.
    horizontal_dim : int
        Number m of horizontal vector fields (first-layer dimension).
    step : int
        Step r used in the gauge exponent and metric bounds.
    is_group : bool
        Whether multiply/inverse/gauge operations are defined.
    """

    name: str
    dim: int
    horizontal_dim: int
    step: int
    is_group: bool

    @property
    def gauge_exponent(self) -> int:
        """Homogeneity exponent 2 * r! of the gauge norm."""
        return 2 * math.factorial(self.step)

    @property
    def id(self) -> str:
        if self.name == "euclidean":
            return f"euclidean:{self.dim}"
        return self.name


def euclidean(n: int) -> GroupSpec:
    if n < 1:
        raise ParameterError(f"euclidean dimension must be >= 1, got {n}")
    return GroupSpec("euclidean", n, n, 1, True)


def heisenberg1() -> GroupSpec:
    return GroupSpec("heisenberg1", 3, 2, 2, True)


def grushin() -> GroupSpec:
    # Step 2 describes the metric scaling near the degenerate line; there is
    # no group law.
    return GroupSpec("grushin", 2, 2, 2, False)


def from_id(geometry_id: str) -> GroupSpec:
    """Parse a geometry id such as ``euclidean:2``, ``heisenberg1``, ``grushin``."""
    gid = geometry_id.strip()
    if gid.startswith("euclidean:"):
        try:
            n = int(gid.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"bad euclidean dimension in {geometry_id!r}") from None
        return euclidean(n)
    if gid == "heisenberg1":
        return heisenberg1()
    if gid == "grushin":
        return grushin()
    raise ParameterError(f"unknown geometry id {geometry_id!r}")


def _check_point(spec: GroupSpec, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (spec.dim,):
        raise ParameterError(
            f"point has trailing dimension {p.shape[-1] if p.ndim else None}, "
            f"expected {spec.dim} for {spec.id}"
        )
    return p


def _require_group(spec: GroupSpec, op: str) -> None:
    if not spec.is_group:
        raise UnsupportedGeometryError(f"{op} is undefined on {spec.id}: no group law")


def multiply(spec: GroupSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Group product p * q in exponential coordinates."""
    _require_group(spec, "multiply")
    p = _check_point(spec, p)
    q = _check_point(spec, q)
    if spec.name == "euclidean":
        return p + q
    # heisenberg1: (x,y,t)*(x',y',t') = (x+x', y+y', t+t'+2(x'y - xy'))
    x, y, t = p[..., 0], p[..., 1], p[..., 2]
    xq, yq, tq = q[..., 0], q[..., 1], q[..., 2]
    out = np.empty(np.broadcast(p, q).shape[:-1] + (3,))
    out[..., 0] = x + xq
    out[..., 1] = y + yq
    out[..., 2] = t + tq + 2.0 * (xq * y - x * yq)
    return out


def inverse(spec: GroupSpec, p: np.ndarray) -> np.ndarray:
    """Group inverse; -p for both supported group geometries."""
    _require_group(spec, "inverse")
    return -_check_point(spec, p)


def gauge_norm(spec: GroupSpec, p: np.ndarray) -> np.ndarray:
    """Homogeneous gauge norm.

    With layers p_1, ..., p_r the norm is
    ``(sum_j |p_j|^(2 r!/j))^(1/(2 r!))``, which reduces to the Euclidean
    norm for step 1 and to ``((x^2+y^2)^2 + t^2)^(1/4)`` on heisenberg1.
    """
    _require_group(spec, "gauge_norm")
    kernel = gauge_kernel(spec, p)
    return np.sqrt(kernel) if spec.name == "euclidean" else kernel**0.25


def gauge_distance(spec: GroupSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Left-invariant gauge distance ||x^-1 * y||.

    The heisenberg1 frame is right-invariant (see frame_coefficients), so
    its Carnot-Caratheodory metric is comparable with ||x * y^-1||, not with
    this distance.
    """
    return gauge_norm(spec, multiply(spec, inverse(spec, x), _check_point(spec, y)))


def gauge_kernel(spec: GroupSpec, p: np.ndarray) -> np.ndarray:
    """Gauge norm raised to the homogeneity exponent 2 r!, computed exactly.

    Equals ``gauge_norm(spec, p) ** spec.gauge_exponent`` without the
    root-then-power round trip: |p|^2 on euclidean geometries and
    (x^2+y^2)^2 + t^2 on heisenberg1.
    """
    _require_group(spec, "gauge_kernel")
    p = _check_point(spec, p)
    if spec.name == "euclidean":
        return np.sum(p * p, axis=-1)
    planar = p[..., 0] ** 2 + p[..., 1] ** 2
    return planar**2 + p[..., 2] ** 2


def pair_kernel(spec: GroupSpec, x: np.ndarray, y: np.ndarray,
                kernel: str = "right") -> np.ndarray:
    """(..., L, R) gauge kernels of every pair of points from x and y.

    x is (..., L, n) and y is (..., R, n) with the same leading shape, so a
    batch of point sets pairs each x set with its own y set; two (L, n) and
    (R, n) arrays give one (L, R) array.  Entry (..., i, j) is
    ``gauge_kernel(spec, multiply(spec, x[..., i, :], inverse(spec,
    y[..., j, :])))`` for ``kernel="right"`` and ``gauge_kernel(spec,
    multiply(spec, inverse(spec, x[..., i, :]), y[..., j, :]))`` for
    ``kernel="left"``, bit for bit: the same roundings in the same order,
    one coordinate column at a time, with no (..., L, R, n) temporary.  The
    two kernels differ only in the sign of the vertical difference x_t - y_t
    on heisenberg1, so they coincide on euclidean:n.  The left kernel is
    symmetric under swapping x and y bit for bit: every term of its twisted
    t negates exactly.
    """
    _require_group(spec, "pair_kernel")
    if kernel not in ("right", "left"):
        raise ParameterError(f"kernel must be 'right' or 'left', got {kernel!r}")
    x = _check_point(spec, x)
    y = _check_point(spec, y)
    if min(x.ndim, y.ndim) < 2 or x.shape[:-2] != y.shape[:-2]:
        raise ParameterError("pair_kernel takes (..., L, n) and (..., R, n) point arrays "
                             "with the same leading shape")
    # column j of x against column j of y, as (..., L, 1) and (..., 1, R)
    xs = [x[..., :, None, j] for j in range(spec.dim)]
    ys = [y[..., None, :, j] for j in range(spec.dim)]
    # |x_j - y_j|^2 summed over the horizontal layer in axis order
    out = np.subtract(xs[0], ys[0])
    out *= out
    work = np.empty_like(out)
    for j in range(1, spec.horizontal_dim):
        np.subtract(xs[j], ys[j], out=work)
        work *= work
        out += work
    if spec.name == "euclidean":
        return out
    # heisenberg1: planar^2 + (+-(x_t - y_t) + 2 (x_0 y_1 - x_1 y_0))^2
    out *= out
    vertical = np.multiply(xs[1], ys[0])
    np.multiply(xs[0], ys[1], out=work)
    work -= vertical
    work *= 2.0
    if kernel == "right":
        np.subtract(xs[2], ys[2], out=vertical)
    else:
        np.subtract(ys[2], xs[2], out=vertical)
    vertical += work
    vertical *= vertical
    out += vertical
    return out


def frame_coefficients(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the horizontal vector fields at given points.

    An (..., m, n) array A with ``X_i u = sum_j A[i, j] * du/dx_j``.  The
    heisenberg1 frame, X1 = dx - 2y dt and X2 = dy + 2x dt, is
    right-invariant under ``multiply``: x -> x*g carries X(x) to X(x*g),
    and x -> g*x does not unless g is vertical.
    """
    x = _check_point(spec, x)
    base = x.shape[:-1]
    m, n = spec.horizontal_dim, spec.dim
    a = np.zeros(base + (m, n))
    if spec.name == "euclidean":
        a[...] = np.eye(n)
    elif spec.name == "heisenberg1":
        a[..., 0, 0] = 1.0
        a[..., 0, 2] = -2.0 * x[..., 1]
        a[..., 1, 1] = 1.0
        a[..., 1, 2] = 2.0 * x[..., 0]
    else:  # grushin: X1 = d/dx, X2 = x d/dy
        a[..., 0, 0] = 1.0
        a[..., 1, 1] = x[..., 0]
    return a


def frame_derivatives(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    """The exact partials dA[i, j]/dx_a of frame_coefficients.

    An (..., n, m, n) array indexed [a, i, j]; these are closed-form and
    used when pushing quadratic jets through the frame.
    """
    x = _check_point(spec, x)
    base = x.shape[:-1]
    m, n = spec.horizontal_dim, spec.dim
    d = np.zeros(base + (n, m, n))
    if spec.name == "heisenberg1":
        d[..., 1, 0, 2] = -2.0  # d/dy of the t-coefficient of X1
        d[..., 0, 1, 2] = 2.0  # d/dx of the t-coefficient of X2
    elif spec.name == "grushin":
        d[..., 0, 1, 1] = 1.0  # d/dx of the y-coefficient of X2
    return d
