"""Lattice domains and the one field type every operator reads.

A :class:`GridDomain` is a uniform lattice over an axis-aligned box with one
spacing ``h`` for all axes.  Every node is classified interior, boundary or
exterior; boundary nodes form a closed band (width >= 1 cell) around the
interior, so centred stencils at interior nodes never leave the lattice.

First-derivative stencils are assembled once per domain as sparse matrices
with one row per non-exterior node: centred second-order rows wherever both
axis neighbours are usable, one-sided second-order rows on the boundary band
(falling back to two-point rows when a band is only one node deep on some
axis).  The horizontal operators in :mod:`subinf.calculus` are products of
these matrices with the frame coefficients, which makes their adjoints exact
transposes; they read the rows they need, the interior ones for the gradient
and its adjoint.

A :class:`ScalarField` is one value per lattice node, finite at every
non-exterior node; the constructor checks that.  Horizontal vectors and
Hessians are plain arrays whose rows follow ``interior_flat``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import groups
from .errors import DomainMismatchError, IncompleteFieldError, ParameterError, require_count
from .groups import GroupSpec

INTERIOR = 0
BOUNDARY = 1
EXTERIOR = 2

_CLASS_NAMES = {INTERIOR: "interior", BOUNDARY: "boundary", EXTERIOR: "exterior"}
CLASS_CODES = {v: k for k, v in _CLASS_NAMES.items()}


def classification_name(code: int) -> str:
    return _CLASS_NAMES[int(code)]


def classification_code(name: str) -> int:
    try:
        return CLASS_CODES[name]
    except KeyError:
        raise ParameterError(f"unknown node classification {name!r}") from None


def _check_spacing_and_corners(h: float, **corners: np.ndarray) -> None:
    """Refuse a spacing that is not positive and finite, or a non-finite corner."""
    if not 0 < h < math.inf:
        raise ParameterError(f"grid spacing must be positive and finite, got {h}")
    for name, corner in corners.items():
        if not np.all(np.isfinite(corner)):
            raise ParameterError(f"{name} corner must be finite, got {corner.tolist()}")


class GridDomain:
    """Uniform lattice over a box with per-node classification."""

    def __init__(
        self,
        spec: GroupSpec,
        lower: np.ndarray,
        h: float,
        dims: tuple[int, ...],
        classification: np.ndarray,
    ):
        lower = np.asarray(lower, dtype=float)
        _check_spacing_and_corners(h, lower=lower)
        if lower.shape != (spec.dim,) or len(dims) != spec.dim:
            raise ParameterError(
                f"domain rank mismatch: geometry {spec.id} has dim {spec.dim}, "
                f"got lower {lower.shape} and dims {dims}"
            )
        if any(d < 1 for d in dims):
            raise ParameterError(f"all axis extents must be >= 1, got {dims}")
        classification = np.asarray(classification, dtype=np.int8).reshape(-1)
        if classification.size != int(np.prod(dims)):
            raise ParameterError("classification length does not match the lattice size")
        if not np.any(classification == INTERIOR):
            raise ParameterError("domain has no interior node")
        self.spec = spec
        self.lower = lower
        self.h = float(h)
        self.dims = tuple(int(d) for d in dims)
        self.classification = classification
        self._op_cache: dict = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def box(
        cls,
        spec: GroupSpec,
        lower,
        upper,
        h: float,
        band: int = 1,
    ) -> "GridDomain":
        """Lattice over [lower, upper] whose outermost `band` shells are boundary."""
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        _check_spacing_and_corners(h, lower=lower, upper=upper)
        if lower.shape != (spec.dim,) or upper.shape != (spec.dim,):
            raise ParameterError(
                f"box corners must have {spec.dim} coordinates for {spec.id}"
            )
        band = require_count("boundary band width", band, 1)
        spans = (upper - lower) / h
        counts = np.rint(spans).astype(int)
        if np.any(np.abs(spans - counts) > 1e-8):
            raise ParameterError(
                f"box extents {upper - lower} are not integer multiples of h={h}"
            )
        dims = tuple(int(c) + 1 for c in counts)
        if any(d < 2 * band + 1 for d in dims):
            raise ParameterError(
                f"box of dims {dims} has no interior with band width {band}"
            )
        classification = np.full(dims, BOUNDARY, dtype=np.int8)
        core = tuple(slice(band, d - band) for d in dims)
        classification[core] = INTERIOR
        return cls(spec, lower, h, dims, classification.reshape(-1))

    def subbox(self, lo_idx, hi_idx) -> "GridDomain":
        """Box sub-domain over the inclusive index window [lo_idx, hi_idx], band 1."""
        lo = np.asarray(lo_idx, dtype=int)
        hi = np.asarray(hi_idx, dtype=int)
        if lo.shape != (self.spec.dim,) or hi.shape != (self.spec.dim,):
            raise ParameterError("sub-box corners must be multi-indices of the lattice")
        if np.any(lo < 0) or np.any(hi >= np.asarray(self.dims)):
            raise ParameterError(f"sub-box [{lo}, {hi}] leaves the lattice {self.dims}")
        lower = self.lower + lo * self.h
        upper = self.lower + hi * self.h
        return GridDomain.box(self.spec, lower, upper, self.h)

    # -- basic queries -----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.dims))

    @property
    def upper(self) -> np.ndarray:
        return self.lower + (np.asarray(self.dims) - 1) * self.h

    @cached_property
    def strides(self) -> np.ndarray:
        # Flat-index stride per axis in C order.
        s = np.ones(len(self.dims), dtype=np.int64)
        for j in range(len(self.dims) - 2, -1, -1):
            s[j] = s[j + 1] * self.dims[j + 1]
        return s

    @cached_property
    def multi_indices(self) -> np.ndarray:
        grids = np.indices(self.dims).reshape(len(self.dims), -1)
        return grids.T.astype(np.int64)

    @cached_property
    def coords(self) -> np.ndarray:
        return self.lower + self.multi_indices * self.h

    @cached_property
    def interior_mask(self) -> np.ndarray:
        return self.classification == INTERIOR

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        return self.classification == BOUNDARY

    @cached_property
    def nonexterior_mask(self) -> np.ndarray:
        return self.classification != EXTERIOR

    @cached_property
    def interior_flat(self) -> np.ndarray:
        return np.flatnonzero(self.interior_mask)

    @cached_property
    def boundary_flat(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask)

    @cached_property
    def nonexterior_flat(self) -> np.ndarray:
        return np.flatnonzero(self.nonexterior_mask)

    @cached_property
    def frame_coefficients(self) -> np.ndarray:
        return groups.frame_coefficients(self.spec, self.coords)

    def flat_of_multi(self, multi) -> int:
        return int(np.ravel_multi_index(tuple(int(i) for i in multi), self.dims))

    def multi_of_flat(self, flat: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(int(flat), self.dims))

    def nearest_node(self, point) -> int:
        """Flat index of the nearest lattice node (ties resolved to lower index)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.spec.dim,):
            raise ParameterError(f"point must have {self.spec.dim} coordinates")
        if not np.all(np.isfinite(point)):
            raise ParameterError(f"point must be finite, got {point.tolist()}")
        steps = (point - self.lower) / self.h
        idx = np.ceil(steps - 0.5).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.dims) - 1)
        return self.flat_of_multi(idx)

    def same_lattice(self, other: "GridDomain") -> bool:
        return (
            self.spec.id == other.spec.id
            and self.dims == other.dims
            and abs(self.h - other.h) <= 1e-12 * max(self.h, other.h)
            and bool(np.all(np.abs(self.lower - other.lower) <= 1e-9 * self.h))
            and bool(np.array_equal(self.classification, other.classification))
        )

    # -- stencil operators --------------------------------------------------

    def axis_difference(self, axis: int) -> sp.csr_matrix:
        """Sparse first-derivative matrix along one axis.

        One row per non-exterior node; exterior rows are empty.  Centred
        stencils are used where both axis neighbours are non-exterior,
        one-sided second-order stencils otherwise.
        """
        key = ("D", axis)
        if key in self._op_cache:
            return self._op_cache[key]
        n = self.n_nodes
        stride = int(self.strides[axis])
        size = self.dims[axis]
        pos = self.multi_indices[:, axis]
        ok = self.nonexterior_mask

        def usable(shift: int) -> np.ndarray:
            inside = (pos + shift >= 0) & (pos + shift < size)
            res = np.zeros(n, dtype=bool)
            idx = np.flatnonzero(inside)
            res[idx] = ok[idx + shift * stride]
            return res & ok

        has_m1, has_p1 = usable(-1), usable(1)
        has_m2, has_p2 = usable(-2), usable(2)
        rows_l: list[np.ndarray] = []
        cols_l: list[np.ndarray] = []
        vals_l: list[np.ndarray] = []

        def add(sel: np.ndarray, shifts: list[int], coefs: list[float]) -> None:
            idx = np.flatnonzero(sel)
            for shift, c in zip(shifts, coefs):
                rows_l.append(idx)
                cols_l.append(idx + shift * stride)
                vals_l.append(np.full(idx.size, c / self.h))

        centred = has_m1 & has_p1
        add(centred, [1, -1], [0.5, -0.5])
        fwd2 = ~centred & has_p1 & has_p2
        add(fwd2, [0, 1, 2], [-1.5, 2.0, -0.5])
        bwd2 = ~centred & ~fwd2 & has_m1 & has_m2
        add(bwd2, [0, -1, -2], [1.5, -2.0, 0.5])
        fwd1 = ~centred & ~fwd2 & ~bwd2 & has_p1
        add(fwd1, [0, 1], [-1.0, 1.0])
        bwd1 = ~centred & ~fwd2 & ~bwd2 & ~fwd1 & has_m1
        add(bwd1, [0, -1], [1.0, -1.0])

        mat = sp.coo_matrix(
            (np.concatenate(vals_l), (np.concatenate(rows_l), np.concatenate(cols_l))),
            shape=(n, n),
        ).tocsr()
        self._op_cache[key] = mat
        return mat

    def gradient_operators(self) -> list[sp.csr_matrix]:
        """Sparse matrices of the horizontal fields X_1..X_m, one row per
        non-exterior node (the frame times axis_difference)."""
        key = ("X",)
        if key in self._op_cache:
            return self._op_cache[key]
        a = self.frame_coefficients  # (N, m, n)
        ops = []
        for i in range(self.spec.horizontal_dim):
            acc = None
            for j in range(self.spec.dim):
                coef = a[:, i, j]
                if not np.any(coef):
                    continue
                term = sp.diags(coef) @ self.axis_difference(j)
                acc = term if acc is None else acc + term
            if acc is None:
                acc = sp.csr_matrix((self.n_nodes, self.n_nodes))
            ops.append(acc.tocsr())
        self._op_cache[key] = ops
        return ops


class ScalarField:
    """One real value per node of the lattice, finite at every non-exterior node.

    Exterior nodes may hold anything; the operators never read them, and
    those that build a field write NaN there.
    """

    def __init__(self, domain: GridDomain, values: np.ndarray):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != domain.n_nodes:
            raise IncompleteFieldError(
                f"field has {values.size} values for a lattice of {domain.n_nodes}"
            )
        finite = np.isfinite(values[domain.nonexterior_flat])
        if not np.all(finite):
            bad = domain.nonexterior_flat[~finite][0]
            raise IncompleteFieldError(f"non-finite value at node {int(bad)}")
        self.domain = domain
        self.values = values

    @classmethod
    def from_function(cls, domain: GridDomain, fn) -> "ScalarField":
        vals = np.asarray(fn(domain.coords), dtype=float).reshape(-1)
        return cls(domain, vals)

    @classmethod
    def zeros(cls, domain: GridDomain) -> "ScalarField":
        return cls(domain, np.zeros(domain.n_nodes))

    def max_abs_interior(self) -> float:
        vals = self.values[self.domain.interior_flat]
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    def sup_norm(self) -> float:
        vals = self.values[self.domain.nonexterior_flat]
        return float(np.max(np.abs(vals))) if vals.size else 0.0


def require_same_lattice(a: GridDomain, b: GridDomain) -> None:
    if not a.same_lattice(b):
        raise DomainMismatchError("fields live on different lattices")
