"""Dirichlet solvers for the k-energy and its k -> infinity limit.

The continuous problem is to minimize the L^k norm of f(Xu) over fields
with prescribed boundary values, then let k grow along a doubling
schedule.  solve runs that schedule: its limit approximates the
infinity-harmonic field at eps = 0, and the auxiliary sub/supersolution
pair at eps > 0 (side lower/upper).  minimize_k solves one k.

Discretization note: the k-energy is assembled from forward (cell)
differences, one gradient sample per lattice cell, rather than the
centered interior stencils used by the calculus module.  Centered
interior quadrature decouples the odd and even sublattices (the energy
never couples a node to its immediate neighbor), so its minimizer is
non-unique and the eps source term is unbounded below along the
decoupled directions.  The cell quadrature couples every adjacent pair,
pins cleanly to the boundary, and reproduces the linear interpolant
exactly in 1D at every k.  energy() and the energies in SolveReport are
this one quadrature.  One table per lattice describes it (_Cells): the
flat indices of each cell's n + 1 corners and the coefficients of each
X_i on them.  The gradient Xu is a gather of the corner values
contracted with the coefficients, its adjoint one bincount over the
corners.  With q = |Xu|^2, f(Xu)^k = q^kappa, kappa = alpha k / 2, and
one helper (_power_law) defines this power law for energy(), the
gradient, the Hessian and the line search: F = q^kappa from one
np.power, +inf past the double range, and F' and F'' from F by division
by q, capped at exp(_EXP_MAX).  At q = 0, q^0 = 1 and every other power
is 0.

The first level starts from the harmonic extension of the boundary
data, the k = 1 minimizer of the squared norm (_harmonic_start).  Each
level's energy is homogeneous, so its minimizer does not depend on how
the field is scaled: every level divides its fields by the largest cell
|Xu| of its own start (_cell_q), which is one pass over the cells.  Each
level is solved by damped Newton steps on the free nodes with a line
search along each step, run as far as the step's direction is precise
(see _line_minimize), and reports why it stopped (LevelReport); only
gradient_tolerance counts as converged.
Each iterate is evaluated once (value_grad): the gradient, the Hessian
and the line search share its V = Xu and power law (_Point).
The Newton systems are solved by Jacobi-preconditioned conjugate
gradients (_pcg), capped at one iteration per box node, to a relative
residual that _forcing picks per step (Eisenstat-Walker forcing terms):
loose far from the minimizer and tighter near it, but never so tight
that the CG residual must fall below half the level's
gradient_tolerance (Kelley's safeguard), nor below 1e-8 relative.  A
capped or loose iterate is still a descent direction; a step along one
that makes no progress is solved again to 1e-8, and searched to
1e-12, before the level ends as stalled.
Each step sums the Hessian's per-cell blocks into its diagonals, laid
out once per lattice on the bounding box of the free nodes (_Cells), with
one precomputed csr scatter, and damps its main diagonal in place.  The
blocks and the diagonals live in two arrays of the level's objective,
allocated once and overwritten by every step.  The scatter is built
forward from the corner table: each block entry names its slot, and one
stable sort by slot lines the entries up cell by cell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

from . import groups
from .errors import IncompleteFieldError, ParameterError, require_count
from .grids import EXTERIOR, GridDomain, ScalarField, require_same_lattice
from .integrands import Integrand

_SIDES = ("lower", "upper")

# Largest exponent exp() survives in doubles; beyond it energies are +inf.
_EXP_MAX = 709.0


class BoundaryData:
    """Prescribed values on the boundary nodes of a grid domain.

    A solve starts from the harmonic extension of the data
    (_harmonic_start) and scales each level by its start (_run_schedule).
    Neither graph_lipschitz, an exact sweep over boundary pairs through
    groups.pair_kernel, nor extend_nearest, the nearest-boundary step
    function, is called by a solve; the benchmark harness (perfbench)
    still times both by name.
    """

    def __init__(self, domain: GridDomain, values):
        vals = np.asarray(values, dtype=float).reshape(-1)
        if vals.size != domain.boundary_flat.size:
            raise ParameterError(
                "expected %d boundary values, got %d"
                % (domain.boundary_flat.size, vals.size)
            )
        if not np.all(np.isfinite(vals)):
            bad = int(domain.boundary_flat[np.flatnonzero(~np.isfinite(vals))[0]])
            raise IncompleteFieldError(
                "non-finite boundary value at node %s"
                % (tuple(domain.multi_of_flat(bad)),)
            )
        self.domain = domain
        self.values = vals

    @classmethod
    def from_function(cls, domain: GridDomain, fn) -> "BoundaryData":
        coords = domain.coords[domain.boundary_flat]
        return cls(domain, np.asarray(fn(coords), dtype=float))

    @classmethod
    def from_field(cls, u: ScalarField) -> "BoundaryData":
        return cls(u.domain, u.values[u.domain.boundary_flat])

    def base_values(self) -> np.ndarray:
        """Full-lattice array: boundary values in place, zero elsewhere."""
        full = np.zeros(self.domain.n_nodes)
        full[self.domain.boundary_flat] = self.values
        return full

    def extend_nearest(self) -> ScalarField:
        """Constant extension along nearest-boundary-node assignment.

        Nearness is the coordinate (euclidean) distance on every geometry.
        Each interior node takes the argmin over all boundary nodes in
        ascending flat order, so ties go to the lowest flat index and the
        extension is reproducible across runs.
        """
        dom = self.domain
        bc = dom.coords[dom.boundary_flat]
        out = np.full(dom.n_nodes, np.nan)
        out[dom.boundary_flat] = self.values
        euclid = groups.euclidean(dom.spec.dim)
        inodes = dom.interior_flat
        rows = max(1, _PAIR_BLOCK // max(1, bc.shape[0]))
        for s in range(0, inodes.size, rows):
            block = inodes[s : s + rows]
            d2 = groups.pair_kernel(euclid, dom.coords[block], bc)
            out[block] = self.values[np.argmin(d2, axis=1)]
        return ScalarField(dom, out)

    def graph_lipschitz(self) -> float:
        """Largest |g(a) - g(b)| / gauge distance over boundary pairs.

        No solve scales by it, because it does not bound the solution's
        slopes.  The gauge distance is the left kernel's root, as in
        groups.gauge_distance; grushin, which has no gauge, uses the
        coordinate distance.  Both are symmetric bit for bit, and so is
        |g(a) - g(b)|, so only the pairs b >= a are swept.
        """
        dom = self.domain
        bc = dom.coords[dom.boundary_flat]
        nb = bc.shape[0]
        spec = dom.spec if dom.spec.is_group else groups.euclidean(dom.spec.dim)
        best = 0.0
        chunk = max(1, _PAIR_BLOCK // max(1, nb))
        for s in range(0, nb, chunk):
            K = groups.pair_kernel(spec, bc[s : s + chunk], bc[s:], "left")
            d = K ** 0.25 if spec.name == "heisenberg1" else np.sqrt(K)
            dv = np.abs(self.values[s : s + chunk, None] - self.values[None, s:])
            r = np.zeros_like(dv)
            np.divide(dv, d, out=r, where=d > 0)
            best = max(best, float(np.max(r)))
        return best


# Node pairs per block in graph_lipschitz and extend_nearest: 256 kB per
# array, so that the pair kernel's passes stay in cache.
_PAIR_BLOCK = 32_768


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the descent and the k-doubling schedule.

    The levels are the powers of two from 2 up to the integer k_max, then
    k_max itself (see schedule); minimize_k ends at a k of its own instead.
    cross_tolerance is the sup-norm change between consecutive k levels
    at which the schedule stops early.  initialization picks the first
    level's start: boundary, the harmonic extension of the boundary data
    (see _harmonic_start), or zero on the free nodes.
    """

    k_max: int = 256
    max_iterations: int = 20000
    gradient_tolerance: float = 1e-8
    cross_tolerance: float = 1e-4
    initialization: str = "boundary"

    def __post_init__(self):
        require_count("k_max", self.k_max, 4)
        for name in ("gradient_tolerance", "cross_tolerance"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ParameterError("%s must be positive and finite, got %s"
                                     % (name, value))
        require_count("max_iterations", self.max_iterations, 1)
        if self.initialization not in ("boundary", "zero"):
            raise ParameterError(
                "initialization must be 'boundary' or 'zero', got %r"
                % (self.initialization,)
            )

    def schedule(self) -> tuple:
        return _doubling(self.k_max)


def _doubling(k) -> tuple:
    """The powers of two from 2 up to k, then k itself if it is not one."""
    ks = []
    level = 2
    while level < k:
        ks.append(level)
        level *= 2
    return (*ks, int(k))


def _check_level(k, eps, side) -> None:
    """Reject a k that is not an integer >= 1, an eps that is not >= 0
    (NaN included) and a side other than lower or upper."""
    require_count("k", k, 1)
    if not eps >= 0:
        raise ParameterError("eps must be nonnegative, got %s" % (eps,))
    if side not in _SIDES:
        raise ParameterError("side must be 'lower' or 'upper', got %r" % (side,))


@dataclass(frozen=True)
class LevelReport:
    """How the descent of one k level ended.

    stop is gradient_tolerance, stalled, budget or overflow (see
    _descend); only gradient_tolerance counts as converged.  residual is
    the last max |g| per cell in the level's own units: scale is the
    divisor of its fields (_Objective), the largest cell |Xu| of its
    start.  unseen counts the free nodes its last iterate cannot move:
    every cell touching them weighs below 1e-6 of the heaviest (_unseen).
    cg_iterations totals the CG iterations over the level's Newton
    systems, re-solves at the tight tolerance included (see _descend),
    and seconds is the level's wall time.  energy_start and
    energy_end are the energies of its first and last iterate (original
    units), and change is the sup-norm change over interior nodes from
    the previous level's solution, None on the first level.
    """

    k: int
    iterations: int
    residual: float
    stop: str
    cg_iterations: int
    seconds: float
    energy_start: float
    energy_end: float
    change: float | None
    scale: float
    unseen: int

    @property
    def converged(self) -> bool:
        return self.stop == "gradient_tolerance"


@dataclass
class SolveReport:
    """Outcome of a solve: the field plus convergence bookkeeping.

    levels holds one LevelReport per descent run, warm-up levels
    included, and is the one record of the schedule: its ks, iteration
    counts, final residuals and start and end energies.  converged
    requires the last level to have met gradient_tolerance.
    start_cg_iterations is the CG work of the harmonic start (0 for
    initialization zero), which no level counts; with the levels'
    cg_iterations it accounts for every CG iteration of the solve.
    """

    solution: ScalarField
    converged: bool
    message: str = ""
    levels: list = dc_field(default_factory=list)
    start_cg_iterations: int = 0


def _power_law(q: np.ndarray, kappa: float):
    """The k-energy's power law per cell: F = q^kappa and its derivatives
    F' = kappa q^(kappa-1) and F'' = kappa (kappa-1) q^(kappa-2).

    F is one np.power, +inf once it leaves the double range.  Where
    q > 0, q^(kappa-1) = F / q and q^(kappa-2) = q^(kappa-1) / q, each
    capped at exp(_EXP_MAX), so that kappa - 1 = 0 never multiplies an
    infinity.  At q = 0, q^0 = 1 and every other power is 0: cells with
    no gradient get no weight, where a negative power would be infinite.
    The three arrays are new, and F' and F'' are scaled in place, so a
    caller may overwrite any of them.
    """
    cap = math.exp(_EXP_MAX)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F = np.power(q, kappa)
        p1 = np.minimum(F / q, cap)
        p2 = np.minimum(p1 / q, cap)
        if not q.all():
            flat = q == 0
            p1[flat] = kappa == 1.0
            p2[flat] = kappa == 2.0
        p1 *= kappa
        p2 *= kappa * (kappa - 1.0)
        return F, p1, p2


def energy(u: ScalarField, f: Integrand, k: int, eps: float = 0.0,
           side: str = "lower") -> float:
    """Cell-quadrature k-energy, the objective each k level minimizes.

    Sums f(Xu)^k = q^kappa, with q = |Xu|^2 and kappa = alpha k / 2,
    over the lattice cells of _cell_operators; the lower side subtracts
    the eps^(k-1) * u source over interior nodes, the upper side adds it.
    With eps = 0, or a zero interior sum, there is no source term.  A cell
    sum past the double range is +inf.  Once eps^(k-1) leaves the double
    range the source is +-inf, and so is the energy, unless the cell sum
    is +inf too: then the larger of the two in log space decides.
    """
    _check_level(k, eps, side)
    dom = u.domain
    cell = float(dom.h) ** dom.spec.dim
    q, kappa = _cell_q(dom, u.values), 0.5 * f.alpha * k
    with np.errstate(over="ignore"):
        total = float(np.sum(_power_law(q, kappa)[0])) * cell
    s = float(np.sum(u.values[dom.interior_flat])) if eps > 0 else 0.0
    if side == "lower":
        s = -s
    if s == 0.0:
        return total
    log_src = (k - 1) * math.log(eps)
    src = eps ** (k - 1) * cell * s if log_src <= _EXP_MAX else math.copysign(math.inf, s)
    if src == -math.inf and total == math.inf:
        log_cells = np.logaddexp.reduce(kappa * np.log(q[q > 0]))
        return src if log_src + math.log(-s) > log_cells else total
    return total + src


@dataclass(frozen=True)
class _Cells:
    """The cell quadrature of one lattice, built once by _cell_operators.

    Cell r has the n + 1 corners (x, x + e_1, ..., x + e_n), whose flat
    node indices are corners[:, r], and
    (X_i u)[r] = sum_c coeff[i, c, r] u[corners[c, r]]: c_ij(x) / h on
    x + e_j, minus their sum on x.  This table is the only description
    of the X_i: _cell_gradient applies it, value_grad its adjoint, and
    hessian its outer products.  gram[c, d, r] = sum_i coeff[i, c, r]
    coeff[i, d, r] is the cell's block of sum_i X_i^T X_i, fixed per
    lattice.

    The free-node Hessian is stored by diagonals, in scipy's dia layout,
    on the box lattice: the bounding box of the free nodes, numbered in
    lattice order.  box is the position of each free node in it.  Its
    diagonals are the box-lattice offsets between two corners of a cell,
    ascending; offsets[centre] = 0 is the main diagonal.  Entry (i, j)
    lives at data[o, j], j - i = offsets[o], slot o * size + j of the
    flattened (offsets.size, size) data array.  A box node that is not
    free has no entry but its main diagonal, which H leaves at zero.
    scatter is a csr matrix of ones with one row per slot: its columns
    are the entries (c, c', r) of the flattened (n+1, n+1, rows) block
    array whose two corners are both free, each in the slot of its
    diagonal and of corner c', by ascending cell r, so that a matvec
    adds them in the order np.bincount would.
    """

    corners: np.ndarray
    coeff: np.ndarray
    gram: np.ndarray
    box: np.ndarray
    size: int
    offsets: np.ndarray
    centre: int
    scatter: sp.csr_matrix


def _cell_operators(domain: GridDomain) -> _Cells:
    """Corner table of the forward-difference horizontal gradient.

    One cell per node whose +1 neighbor along every axis exists and is
    not exterior.  Also lays out the free-node Hessian by diagonals (see
    _Cells): block entry (c, c', r) goes forward to slot
    jump[c, c'] * size + j, where jump[c, c'] indexes the offset
    box_step[c'] - box_step[c] and j is the box position of corner c'.
    One stable argsort by slot orders the scatter's columns.  The pairs
    go by offset, then by descending step[c']: a slot's pairs share its
    offset, so their c' differ, and a larger step[c'] puts corner c' at
    box node j for a smaller cell r.  Each slot thus receives its
    entries by ascending cell.
    """
    key = ("cell_gradient",)
    cached = domain._op_cache.get(key)
    if cached is not None:
        return cached
    n = domain.spec.dim
    dims = np.asarray(domain.dims)
    strides = domain.strides
    mi = domain.multi_indices
    ok = np.all(mi < (dims - 1)[None, :], axis=1)
    ok &= domain.classification != EXTERIOR
    rows = np.flatnonzero(ok)
    for j in range(n):
        nb = rows + strides[j]
        keep = domain.classification[nb] != EXTERIOR
        rows = rows[keep]
    if rows.size == 0:
        raise ParameterError("domain has no complete cells for the solver")
    nr = rows.size
    coeff = domain.frame_coefficients[rows]
    # axes (i, corner, row): c_ij / h on x + e_j, minus their sum on x
    local = np.empty((coeff.shape[1], n + 1, nr))
    local[:, 1:] = coeff.transpose(1, 2, 0) * (1.0 / domain.h)
    local[:, 0] = -np.sum(local[:, 1:], axis=1)
    step = np.concatenate([[0], strides])
    corners = rows[:, None] + step[None, :]
    # the box lattice: the bounding box of the free nodes, in lattice
    # order; a node in it has box position (mi - lo) . box_strides
    free_mi = mi[domain.interior_flat]
    lo, hi = free_mi.min(axis=0), free_mi.max(axis=0)
    box_dims = hi - lo + 1
    width = int(np.prod(box_dims))
    box_strides = np.cumprod(np.concatenate([[1], box_dims[:0:-1]]))[::-1]
    # corner c' of a cell lies box_step[c'] - box_step[c] box nodes past
    # corner c; in box lattice order these offsets order the columns of
    # a row as the lattice does
    box_step = np.concatenate([[0], box_strides])
    offsets, jump = np.unique(box_step[None, :] - box_step[:, None],
                              return_inverse=True)
    nslots = offsets.size * width
    itype = np.int32 if max(nslots, (n + 1) ** 2 * nr) < 2**31 else np.int64
    jump = jump.reshape(-1)  # numpy 1.24 returns the inverse flat, 2.x shaped
    # pair = c * (n + 1) + c', by offset, then by descending step[c']
    pair = np.lexsort((-np.tile(step, n + 1), jump))
    c, d = np.divmod(pair, n + 1)
    corner_free = domain.interior_mask[corners.T]
    live = corner_free[c] & corner_free[d]
    # box position of each cell's x; x + box_step[c'] is exact where
    # corner c' is free, the only entries kept
    at = ((mi[rows] - lo) @ box_strides).astype(itype)
    slot = (jump[pair] * width + box_step[d]).astype(itype)[:, None] + at
    entry = (pair * nr).astype(itype)[:, None] + np.arange(nr, dtype=itype)
    slot, entry = slot[live], entry[live]
    indptr = np.zeros(nslots + 1, dtype=itype)
    np.cumsum(np.bincount(slot, minlength=nslots), out=indptr[1:])
    indices = entry[np.argsort(slot, kind="stable")]
    scatter = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                            shape=(nslots, (n + 1) ** 2 * nr))
    cells = _Cells(
        corners=np.ascontiguousarray(corners.T),
        coeff=local,
        gram=np.einsum("icr,idr->cdr", local, local),
        box=(free_mi - lo) @ box_strides,
        size=width,
        offsets=offsets.astype(itype),
        centre=int(np.searchsorted(offsets, 0)),
        scatter=scatter,
    )
    domain._op_cache[key] = cells
    return cells


def _cell_gradient(cells: _Cells, full: np.ndarray) -> np.ndarray:
    """(m, rows) stack of the cell gradients X_i full."""
    return np.einsum("icr,cr->ir", cells.coeff, full[cells.corners])


def _cell_adjoint(cells: _Cells, w: np.ndarray, n_nodes: int) -> np.ndarray:
    """sum_i X_i^T w[i] on the full lattice, for an (m, rows) stack w."""
    return np.bincount(cells.corners.reshape(-1),
                       np.einsum("icr,ir->cr", cells.coeff, w).reshape(-1),
                       minlength=n_nodes)


@dataclass(frozen=True)
class _Point:
    """One iterate as value_grad evaluated it: the free values z, the
    cell gradients V = Xu, q = |V|^2, and F' and F'' of _power_law at q."""

    z: np.ndarray
    V: np.ndarray
    q: np.ndarray
    F1: np.ndarray
    F2: np.ndarray


class _Objective:
    """Scaled cell-quadrature energy for one (k, eps, side) level.

    Fields are divided by scale = max(L^alpha, eps)^(1/alpha), with L
    = slope_scale, the largest cell |Xu| of the level's start, so that
    with eps = 0 the scaled start has max |Xu| = 1, and its cell weights
    q^(kappa-1) are at most 1 however large k is.  The source
    coefficient is folded into a single scalar so the scaled minimizer
    maps back to the original one exactly.  The energy, its gradient, its
    Hessian and the line search all take F = q^kappa, F' and F'' per cell
    from _power_law, so the line search's phi(0) is value_grad's energy
    bit for bit.  The objective owns the Newton step's two large arrays,
    allocated once: the per-cell Hessian blocks, shaped like
    _Cells.gram, and the dia matrix they are summed into.  Each hessian
    call overwrites both.
    """

    def __init__(self, domain, base_full, f, k, eps, side, slope_scale):
        self.domain = domain
        self.f = f
        self.k = int(k)
        self.cells = _cell_operators(domain)
        self.free = domain.interior_flat
        size = self.cells.size
        self._hessian = sp.dia_matrix(
            (np.empty((self.cells.offsets.size, size)), self.cells.offsets),
            shape=(size, size))
        self._block = np.empty_like(self.cells.gram)
        self.cell = float(domain.h) ** domain.spec.dim
        # f(p)^k = q^kappa with q = |p|^2
        self.kappa = 0.5 * f.alpha * self.k
        s = max(max(float(slope_scale), 0.0) ** f.alpha, float(eps), 1e-12)
        self.scale = s ** (1.0 / f.alpha)
        self.base = base_full / self.scale
        self.base_exact = base_full
        if eps > 0:
            logc = (self.k - 1) * math.log(eps) + math.log(self.scale) \
                - self.k * math.log(s)
            self.src = math.exp(logc) if logc > -745.0 else 0.0
        else:
            self.src = 0.0
        self.sign = -1.0 if side == "lower" else 1.0

    def full_of(self, z):
        full = self.base.copy()
        full[self.free] = z
        return full

    def z0_of(self, warm_full):
        return warm_full[self.free] / self.scale

    def solution_of(self, z) -> np.ndarray:
        vals = self.full_of(z) * self.scale
        # Rescaling perturbs the pinned nodes by an ulp; reimpose the
        # originals so reported boundary values match the data bitwise.
        bf = self.domain.boundary_flat
        vals[bf] = self.base_exact[bf]
        vals[self.domain.classification == EXTERIOR] = np.nan
        return vals

    def value_grad(self, z):
        """(energy, gradient, point) at the free values z.

        point is the _Point that hessian and direction_state read, so an
        iterate is evaluated once; (inf, None, None) once the energy
        leaves the double range.
        """
        V = _cell_gradient(self.cells, self.full_of(z))
        q = (V * V).sum(axis=0)
        F, F1, F2 = _power_law(q, self.kappa)
        e = float(F.sum())
        if not math.isfinite(e):
            return math.inf, None, None
        # the gradient of F(|V|^2) in V is 2 F' V
        w = 2.0 * F1 * V
        g_full = _cell_adjoint(self.cells, w, self.domain.n_nodes)
        g = g_full[self.free] + self.sign * self.src
        return self.cell * (e + self.sign * self.src * float(z.sum())), \
            self.cell * g, _Point(z, V, q, F1, F2)

    def hessian(self, point):
        """Hessian of the scaled energy in the free nodes at point, as dia.

        With V = Xu per row and q = |V|^2, the Hessian of q^kappa in V is
        a I + b V V^T, with a = 2 F' = 2 kappa q^(kappa-1) and
        b = 4 F'' = 4 kappa (kappa-1) q^(kappa-2) from _power_law.  So
        H = cell * sum over cells of a G + b y y^T, with G the cell's
        block of sum_i X_i^T X_i (_Cells.gram) and y its row of
        Y = sum_i diag(V_i) X_i on its corners.  The blocks are written
        into the objective's block buffer, a G first and then the
        rank-one term one corner row c at a time, (y b)_c y, through a
        small work row: each entry is a G + (y b)_c y_d, added in that
        order, with no temporary the size of the blocks.  One csr matvec
        of _Cells.scatter adds the blocks' both-free entries into the
        diagonals of the box lattice.  Every call overwrites the block
        buffer and fills and returns the objective's one dia matrix, so
        the next call overwrites both.
        """
        cells = self.cells
        a, b = 2.0 * point.F1, 4.0 * point.F2
        y = np.einsum("ir,icr->cr", point.V, cells.coeff)
        block = np.multiply(cells.gram, a, out=self._block)
        row = np.empty_like(y)
        for c, yc in enumerate(y):
            block[c] += np.multiply(yc * b, y, out=row)
        data = self._hessian.data
        data.fill(0.0)
        S = cells.scatter
        csr_matvec(S.shape[0], S.shape[1], S.indptr, S.indices, S.data,
                   block.reshape(-1), data.reshape(-1))
        data *= self.cell
        return self._hessian

    def direction_state(self, point, d):
        """Per-row quadratics describing the energy along z + t*d from point.

        Each row contributes f(V + t W)^k with |V + t W|^2 quadratic in
        t, so the restricted energy is an explicit one-variable
        function; the line search exploits this instead of re-running
        matvecs per trial step.  The state also holds the two per-cell
        buffers that every line_eval along d overwrites with q(t) and
        q'(t), allocated here once per direction.
        """
        dfull = np.zeros(self.domain.n_nodes)
        dfull[self.free] = d
        W = _cell_gradient(self.cells, dfull)
        qa = (W * W).sum(axis=0)
        qb = 2.0 * (point.V * W).sum(axis=0)
        lin0 = self.sign * self.src * float(point.z.sum())
        lin1 = self.sign * self.src * float(d.sum())
        return (qa, qb, point.q, lin0, lin1, np.empty_like(qa), np.empty_like(qa))

    def line_eval(self, state, t: float):
        """(phi, phi', phi'') of the restricted energy at step t.

        With q(t) = |V + t W|^2 per cell and F, F', F'' from _power_law,
        the sums are F, F' q' and F'' q'^2 + 2 F' |W|^2, plus the source
        term; all three are +inf once F leaves the double range.  q(t)
        and q'(t) go into the state's buffers, and the products into
        _power_law's own arrays, each rounded as the plain expressions
        would round it, so a trial allocates only what _power_law does.
        The sums are ndarray.sum's pairwise sums: ndarray.dot's BLAS ddot
        rounds differently, enough to move a level near its rounding
        floor from gradient_tolerance to stalled.
        """
        qa, qb, qc, lin0, lin1, q, qp = state
        np.multiply(qa, t, out=q)
        q += qb
        q *= t
        q += qc
        np.maximum(q, 0.0, out=q)
        np.multiply(qa, 2.0, out=qp)
        qp *= t
        qp += qb
        F, F1, F2 = _power_law(q, self.kappa)
        e0 = float(F.sum())
        if not math.isfinite(e0):
            return math.inf, math.inf, math.inf
        F2 *= qp
        F2 *= qp
        qp *= F1
        e1 = float(qp.sum())
        F1 *= 2.0
        F1 *= qa
        F2 += F1
        e2 = float(F2.sum())
        phi = self.cell * (e0 + lin0 + t * lin1)
        dphi = self.cell * (e1 + lin1)
        return phi, dphi, self.cell * e2

    def energy_original_units(self, scaled_energy: float) -> float:
        # E = s^k * E_scaled; the source was folded exactly so there is
        # no constant offset.  Restored in log space against overflow.
        if scaled_energy == 0.0 or not math.isfinite(scaled_energy):
            return scaled_energy
        m = math.log(abs(scaled_energy)) + self.k * self.f.alpha * math.log(self.scale)
        if m > _EXP_MAX:
            return math.copysign(math.inf, scaled_energy)
        return math.copysign(math.exp(m), scaled_energy)


def _line_minimize(obj: _Objective, state, slope: float, phi0: float,
                   rtol: float):
    """Safeguarded Newton search for the minimum of the restricted energy.

    The restricted energy is convex in t, so Newton steps on its
    derivative bracketed by bisection converge fast; starts at t = 1 and
    returns the best step found in _LINE_EVALS evaluations.  At high
    kappa a Newton step from t = 1 moves t by only about 1/(2 kappa), so
    once the bracket is finite, a Newton step not shorter than half the
    step before last gives way to bisection (rtsafe, Press et al.,
    Numerical Recipes, section 9.4).  phi0 is the
    energy at t = 0, value_grad's energy of the iterate, which line_eval
    would return there bit for bit.  Convexity
    also gives phi(t) <= phi(s) for s < t wherever phi'(t) <= 0, so such
    steps, and the one that meets the stop below, count as progress even
    when the change in phi is below its rounding error.

    rtol is the relative CG residual d was solved to.  When it is above
    _CG_RTOL, the search stops at the first trial with |phi'(t)| <=
    sqrt(_CG_RTOL) |phi'(0)| = 1e-4 |phi'(0)|: near its minimizer phi is
    close to quadratic, so that leaves about _CG_RTOL of the step's
    decrease unused, the precision CG's directions have.  A direction
    solved to _CG_RTOL, the only kind that may end a level as stalled,
    is searched to 1e-12 |phi'(0)|.  Either search also stops once its
    bracket has closed to 1e-14 of t.
    """
    t_lo, t_hi = 0.0, math.inf
    t = 1.0
    best_t, best_phi = 0.0, phi0
    dphi0 = abs(slope)
    tol = math.sqrt(_CG_RTOL) if rtol > _CG_RTOL else 1e-12
    moved = before = math.inf  # the last two changes of t
    for _ in range(_LINE_EVALS):
        phi, dphi, d2phi = obj.line_eval(state, t)
        if not math.isfinite(phi):
            t_hi = t
            t = 0.5 * (t_lo + t_hi)
            continue
        flat = abs(dphi) <= tol * max(dphi0, 1e-300)
        if phi < best_phi or ((dphi <= 0 or flat) and t > best_t):
            best_phi, best_t = phi, t
        if dphi > 0:
            t_hi = t
        else:
            t_lo = t
        if flat:
            break
        if math.isfinite(d2phi) and d2phi > 0:
            t_new = t - dphi / d2phi
        else:
            t_new = math.nan
        # rtsafe's safeguard: within a finite bracket, a Newton step not
        # shorter than half the step before last gives way to bisection
        if (math.isfinite(t_new) and t_lo < t_new < t_hi
                and (math.isinf(t_hi) or abs(t_new - t) < 0.5 * before)):
            t_next = t_new
        elif math.isinf(t_hi):
            t_next = 2.0 * t
        else:
            t_next = 0.5 * (t_lo + t_hi)
        moved, before = abs(t_next - t), moved
        t = t_next
        if math.isfinite(t_hi) and t_hi - t_lo <= 1e-14 * max(t_hi, 1e-300):
            break
    return best_t


# Damping of the Newton step, see _descend.
_MU_START, _MU_MIN, _MU_MAX = 1e-3, 1e-8, 1e3
_MU_DOWN, _MU_UP = 0.3, 3.0
_SHIFT_CAP, _SHIFT_FLOOR = 1e-3, 1e-14
# Floor and cap of the relative CG residual |r|_2 <= eta |b|_2 that
# _forcing picks; only a direction solved to _CG_RTOL may end a level.
_CG_RTOL, _ETA_MAX = 1e-8, 0.5
# Energy evaluations per line search, see _line_minimize.
_LINE_EVALS = 60
# Relative cell weight below which a level cannot see a node, see _unseen.
_UNSEEN = 1e-6


def _forcing(residual: float, ratio: float | None, needed: float) -> float:
    """Relative CG tolerance eta for the next Newton system.

    Eisenstat and Walker's choice 2 (SIAM J. Sci. Comput. 17, 1996):
    eta_EW = 0.9 ratio^2, with ratio = |g_j|_2 / |g_j-1|_2 the fall of
    the gradient over the last step, and _ETA_MAX on a level's first step
    (ratio None), capped by sqrt(residual) (Dembo and Steihaug), so the
    steps turn superlinear as the residual falls.  residual is the max |g|
    per cell that gradient_tolerance is compared with.  needed is the
    relative residual |r|_2 / |g|_2 at which |r|_2 equals the level's
    stop, gradient_tolerance per cell: gradient_tolerance / (residual
    gnorm), with gnorm = |g|_2 / |g|_inf.  Kelley's safeguard (Iterative
    Methods for Linear and Nonlinear Equations, SIAM 1995, section 6.3)
    keeps eta at or above needed / 2: a solve to that eta stops once
    |r|_2, and with it |r|_inf, is at half the stop per cell, so a
    level's last systems are not solved past what its stop can see.
    eta is then capped at _ETA_MAX and floored at _CG_RTOL.
    """
    eta = _ETA_MAX if ratio is None else 0.9 * ratio * ratio
    eta = max(min(eta, math.sqrt(residual)), 0.5 * needed)
    return max(_CG_RTOL, min(_ETA_MAX, eta))


def _pcg(A, b: np.ndarray, rtol: float):
    """Jacobi-preconditioned conjugate gradients for A x = b, A SPD dia.

    Starts from x = 0 and stops once |r|_2 <= rtol |b|_2, or after as
    many iterations as there are unknowns.  Every iterate minimizes
    x.A x / 2 - b.x over a Krylov space that contains b, so b.x > 0
    even for a capped or loose solve.  x, r, z and p are updated in
    place.  A p is scipy's dia_matvec kernel, the one A @ p runs, called
    directly into one buffer zeroed each iteration: on lattices of about
    a thousand free nodes scipy's per-call dispatch of A @ p costs about
    half as much as the kernel.  The kernel adds each row's terms one
    diagonal at a time, so with A's offsets ascending, as _Cells lays
    them out, it adds them in the order of their columns, as csr_matvec
    adds a sorted csr row.  The dot products call the bound r.dot and
    p.dot, the BLAS ddot that @ runs, bit for bit, without matmul's
    dispatch: 13.0 -> 11.7 us an iteration on the plane benchmark's
    seed-1 systems (one thread of a shared 2-vCPU Xeon).  Returns
    (x, iterations).
    """
    n = b.size
    scale = np.abs(b).max()
    r = b / scale  # |b|_2 itself overflows once entries pass ~1e154
    x = np.zeros_like(r)
    step = np.empty_like(r)
    ap = np.empty_like(r)
    inv = 1.0 / A.diagonal()
    z = inv * r
    p = z.copy()
    rdot, pdot = r.dot, p.dot  # r and p are updated in place
    rz = rdot(z)
    stop = rtol * math.sqrt(rdot(r))
    offsets, data = A.offsets, A.data
    n_diags, width = data.shape
    for it in range(1, n + 1):
        ap.fill(0.0)
        dia_matvec(n, n, n_diags, width, offsets, data, p, ap)
        alpha = rz / pdot(ap)
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=ap)
        if not math.sqrt(rdot(r)) > stop:  # converged, or NaN from overflow
            break
        np.multiply(inv, r, out=z)
        rz, rz_old = rdot(z), rz
        p *= rz / rz_old
        p += z
    return scale * x, it


def _box_pcg(cells: _Cells, A, b: np.ndarray, rtol: float):
    """_pcg for a right-hand side b on the free nodes, with A on the box
    lattice of cells: b is padded with zeros where the box has nodes
    that are not free, and the answer read back at the free nodes."""
    padded = np.zeros(cells.size)
    padded[cells.box] = b
    x, its = _pcg(A, padded, rtol)
    return x[cells.box], its


def _descend(obj: _Objective, z0: np.ndarray, config: SolverConfig):
    """Damped inexact Newton descent with a line search along each step.

    Each iteration solves (H + D) d = -g for the free-node Hessian H
    and gradient g, then minimizes the energy along d (see
    direction_state) as precisely as d was solved: _line_minimize gets
    the step's CG tolerance.  The damping is
    D = mu diag(H) + (min(|g|_inf, 1e-3 max diag H) + 1e-14 max diag H) I:
    the relative term mu is cut by 0.3 after a full step (t near 1) and
    raised by 3 otherwise, and the identity term, which shrinks with
    the gradient (Fan and Yuan's Levenberg-Marquardt rule), keeps the
    system regular where flat cells leave rows of H empty.  D is added
    in place to the main diagonal of H's dia data, read first, so a step
    builds one matrix; a box node that is not free gets the shift alone,
    and its right-hand side and step stay 0 (_box_pcg).  H + D is SPD,
    and _pcg solves it by Jacobi-preconditioned CG from d = 0, at most
    one iteration per box node, to the relative residual that
    _forcing picks from the residual, the fall of |g|_2 and the
    tolerance: loose while the iterate is far from the minimizer,
    tighter near it, but never below what leaves |r|_2 at half of
    gradient_tolerance per cell, nor below _CG_RTOL = 1e-8.  So the
    last system of a level is solved to about its stop, not to 1e-8
    relative.  Every CG iterate, capped or loose, is a
    descent direction, so it goes to the line search like a converged
    one.  When a step makes no progress (see stalled below) along a
    loosely solved direction, the same system is solved again to
    _CG_RTOL before the level gives up, so only a direction solved to
    _CG_RTOL, and searched to 1e-12, can end it as stalled.

    Returns (z, energy trace, residual, iterations, stop, CG
    iterations): iterations is the number of accepted steps, the CG
    iterations are summed over all solves, re-solves included, and stop
    says why the descent ended -- gradient_tolerance when the residual
    met config.gradient_tolerance;
    stalled at the numerical floor, when a step lowered the energy by no
    more than its rounding error and did not halve the residual;
    budget after config.max_iterations steps; overflow when the energy
    or the Newton system left the double range.
    """
    e, g, point = obj.value_grad(np.array(z0, dtype=float))
    if g is None:
        raise ParameterError("initial iterate overflows the energy")
    trace = [e]
    mu = _MU_START
    cg_iterations = 0
    prev = None  # largest entry and scaled 2-norm of the last gradient
    stop = None
    while True:
        gmax = float(np.abs(g).max())
        residual = gmax / obj.cell
        if residual <= config.gradient_tolerance:
            stop = "gradient_tolerance"
            break
        if len(trace) > config.max_iterations:
            stop = "budget"
            break
        # |g|_2 in units of its largest entry, so the ratio cannot overflow
        gnorm = float(np.linalg.norm(g / gmax))
        ratio = None if prev is None else gmax / prev[0] * (gnorm / prev[1])
        prev = (gmax, gnorm)
        rtol = _forcing(residual, ratio,
                        config.gradient_tolerance / (residual * gnorm))
        A = obj.hessian(point)
        diag = A.data[obj.cells.centre]
        top = float(diag.max())
        shift = (min(gmax, _SHIFT_CAP * top) + _SHIFT_FLOOR * top
                 if top > 0.0 else gmax)
        with np.errstate(invalid="ignore", over="ignore"):
            diag += mu * diag + shift
        while True:
            with np.errstate(invalid="ignore", over="ignore"):
                d, its = _box_pcg(obj.cells, A, -g, rtol)
            cg_iterations += its
            if not np.isfinite(d).all():
                stop = "overflow"
                break
            state = obj.direction_state(point, d)
            t = _line_minimize(obj, state, float(g @ d), e, rtol)
            if t > 0.0:
                e_new, g_new, point_new = obj.value_grad(point.z + t * d)
                if g_new is None:
                    stop = "overflow"
                    break
                if (e - e_new > 1e-15 * abs(e)
                        or np.abs(g_new).max() <= 0.5 * gmax):
                    break
            # no step, or the energy fell by no more than its rounding
            # error and the residual did not halve: the numerical floor,
            # unless a tighter solve of the same system gets past it
            if rtol <= _CG_RTOL:
                stop = "stalled"
                break
            rtol = _CG_RTOL
        if stop is not None:
            break
        e, g, point = e_new, g_new, point_new
        trace.append(e)
        if t >= 0.9:
            mu = max(mu * _MU_DOWN, _MU_MIN)
        else:
            mu = min(mu * _MU_UP, _MU_MAX)
    return point.z, trace, residual, len(trace) - 1, stop, cg_iterations


def _level_message(levels) -> str:
    return "; ".join("k=%d: %s" % (lv.k, lv.stop) for lv in levels)


def _cell_q(domain: GridDomain, full: np.ndarray) -> np.ndarray:
    """q = |Xu|^2 per cell of the full-lattice field u.

    energy() sums q^kappa over it, and a level's scale is sqrt(max q) of
    its start (see _run_schedule).
    """
    V = _cell_gradient(_cell_operators(domain), full)
    return np.sum(V * V, axis=0)


def _unseen(obj: _Objective, q: np.ndarray) -> int:
    """Free nodes that every touching cell weighs below _UNSEEN at q.

    A cell's weight in the level's Hessian, relative to the heaviest
    cell's, is (q / max q)^(kappa - 1).  A free node whose cells all sit
    below _UNSEEN, or that lies in no cell, is one the level cannot move.
    """
    top = float(np.max(q))
    rel = q / top if top > 0.0 else np.zeros_like(q)
    heavy = rel ** (obj.kappa - 1.0) >= _UNSEEN
    seen = np.zeros(obj.domain.n_nodes, dtype=bool)
    for corner in obj.cells.corners:
        seen[corner[heavy]] = True
    return int(obj.free.size - np.count_nonzero(seen[obj.free]))


def _harmonic_start(g: BoundaryData):
    """The discrete Dirichlet (harmonic) extension of g, and its CG iterations.

    This is the k = 1 level of the squared norm on the same cells: its
    Hessian 2 cell sum_i X_i^T X_i does not depend on the field, so the
    minimizer is one _pcg solve to _CG_RTOL, with no damping and no line
    search.  It is scaled, as a level is, by the largest cell |Xu| of its
    start, the constant midpoint field; as the energy is quadratic, that
    affects only rounding.  The solve is for the
    correction to the constant field at the midpoint m of the data's
    range: a large offset in g then cannot overflow the energy, and a
    free node that no cell touches, whose row of H is empty, has no
    gradient and keeps the value m, inside [min g, max g].  Exterior
    nodes are NaN.
    """
    dom = g.domain
    base = g.base_values()
    mid = 0.5 * float(np.min(g.values)) + 0.5 * float(np.max(g.values))
    flat = base.copy()
    flat[dom.interior_flat] = mid
    slope = math.sqrt(float(np.max(_cell_q(dom, flat))))
    obj = _Objective(dom, base, Integrand(2.0), 1, 0.0, "lower", slope)
    z = obj.z0_of(flat)
    _, grad, point = obj.value_grad(z)
    iterations = 0
    if np.any(grad):
        hess = obj.hessian(point)
        diag = hess.data[obj.cells.centre]
        diag[diag == 0.0] = 1.0
        d, iterations = _box_pcg(obj.cells, hess, -grad, _CG_RTOL)
        # a Hessian past the double range leaves the start at m, and the
        # first level's own Hessian then ends it as overflow
        if np.all(np.isfinite(d)):
            z = z + d
    return obj.solution_of(z), iterations


def _check_source(eps: float, slope: float, alpha: float, tolerance: float) -> None:
    """Reject an eps that sets a level's scale while the scaled source is
    within the tolerance.

    When eps >= slope^alpha, _Objective divides by eps^(1/alpha), and the
    source coefficient of the scaled level is eps^(1/alpha - 1).  At or
    below gradient_tolerance, the source alone can no longer move the
    residual past the tolerance, and the level would end at its start
    as converged.  An eps that passes can still give no answer: up to
    about two decades below the bound, the energy part of the scaled
    gradient can sit below rounding, so the first Newton step makes no
    progress, the level ends stalled after 0 iterations, and the solve
    exits 3.  On
    the h = 1/4 unit line with g = x (squared norm, k_max = 4), eps =
    1e14 to 9e15 ends level 4 that way, with the bound at 1e16.
    """
    if eps <= 0 or eps < slope ** alpha:
        return
    coefficient = eps ** (1.0 / alpha - 1.0)
    if coefficient <= tolerance:
        limit = ("eps must be below %g" % tolerance ** (alpha / (1.0 - alpha))
                 if alpha > 1.0 else "gradient_tolerance must be below 1")
        raise ParameterError(
            "eps = %g sets the scale of a level, where its scaled source "
            "eps^(1/alpha - 1) = %g is not above gradient_tolerance = %g; %s"
            % (eps, coefficient, tolerance, limit))


def _run_schedule(g: BoundaryData, f: Integrand, eps: float, side: str,
                  config: SolverConfig, chain: tuple | None = None) -> SolveReport:
    """Descend each k level in turn, warm-starting from the level before.

    The first level starts from the harmonic extension of g
    (initialization boundary, see _harmonic_start) or from zero on the
    free nodes (initialization zero).  Each level is scaled by the
    largest cell |Xu| of its start; the q = |Xu|^2 of a level's answer
    gives the next level's scale and this level's unseen count.  Without
    chain, the levels are config.schedule() and the run stops once
    consecutive levels agree to config.cross_tolerance.  A chain is run to its end, and converges when
    its last level does.
    """
    dom = g.domain
    base = g.base_values()
    # a level reads its start on the free nodes only (z0_of)
    if config.initialization == "boundary":
        warm, start_cg = _harmonic_start(g)
    else:
        warm, start_cg = base, 0
    q = _cell_q(dom, warm)
    levels = []
    prev_vals = None
    stopped = False
    for k in chain or config.schedule():
        start = time.perf_counter()
        slope = math.sqrt(float(np.max(q)))
        _check_source(eps, slope, f.alpha, config.gradient_tolerance)
        obj = _Objective(dom, base, f, k, eps, side, slope)
        z, level_trace, residual, iters, stop, cg_iters = _descend(
            obj, obj.z0_of(warm), config)
        vals = obj.solution_of(z)
        q = _cell_q(dom, vals)
        diff = None
        if prev_vals is not None:
            diff = float(np.max(np.abs(
                vals[dom.interior_flat] - prev_vals[dom.interior_flat])))
        levels.append(LevelReport(k, iters, residual, stop, cg_iters,
                                  time.perf_counter() - start,
                                  obj.energy_original_units(level_trace[0]),
                                  obj.energy_original_units(level_trace[-1]), diff,
                                  obj.scale, _unseen(obj, q)))
        prev_vals = vals
        if diff is not None and not chain and diff <= config.cross_tolerance:
            stopped = True
            break
        warm = vals
    # the last level must meet its own tolerance, and unless it ends a
    # chain, the schedule must have met the cross-level one
    settled = stopped or bool(chain)
    message = _level_message(levels)
    if not settled:
        message += "; k schedule exhausted before cross-level tolerance"
    return SolveReport(
        solution=ScalarField(dom, prev_vals),
        converged=levels[-1].converged and settled,
        message=message,
        levels=levels,
        start_cg_iterations=start_cg,
    )


def minimize_k(g: BoundaryData, f: Integrand, k: int, eps: float, side: str,
               config: SolverConfig | None = None) -> SolveReport:
    """Minimization of the discrete k-energy at one k.

    Strictly convex integrands (squared_norm) give a unique minimizer;
    other integrands are handled best-effort.  Above k = 4 the level is
    the end of the warm-up chain 2, 4, ..., k, the levels that
    SolverConfig(k_max=k).schedule() lists, run without the cross-level
    stop; high powers flatten the landscape too much for a cold start to
    be reliable.
    """
    _check_level(k, eps, side)
    chain = _doubling(k) if k > 4 else (int(k),)
    return _run_schedule(g, f, eps, side, config or SolverConfig(), chain)


def solve(g: BoundaryData, f: Integrand, eps: float = 0.0, side: str = "lower",
          config: SolverConfig | None = None) -> SolveReport:
    """The k-doubling limit along config.schedule().

    With eps = 0 it approximates the infinity-harmonic field, and side
    does not enter.  With eps > 0 the eps source gives the auxiliary
    branches: side='lower' the subsolution u_eps, side='upper' the
    supersolution v_eps.
    """
    config = config or SolverConfig()
    _check_level(config.k_max, eps, side)
    return _run_schedule(g, f, float(eps), side, config)


def uniqueness_gap(u_eps: ScalarField, v_eps: ScalarField) -> float:
    """Sup-norm of u - v over interior nodes (the empirical beta(eps))."""
    require_same_lattice(u_eps.domain, v_eps.domain)
    idx = u_eps.domain.interior_flat
    return float(np.max(np.abs(u_eps.values[idx] - v_eps.values[idx])))


def strictify(v: ScalarField, delta: float, eps: float,
              alpha: float = 2.0) -> tuple[ScalarField, float]:
    """Concave reparametrization g_delta(v) with a quantified margin mu.

    Returns (g_delta(v), mu), with g_delta(t) = (1 + delta) t
    - delta t^2 / (4 C0), C0 = 4 sup|v| (1e-12 for a zero field, which
    g_delta leaves as it is), and mu = min(delta eps / 2,
    delta alpha^2 eps^2 / (2 C0)).  On [-C0, C0] g_delta is increasing,
    so it keeps the order of fields, and sup|g_delta(v) - v| is at most
    1.0625 delta sup|v|.
    """
    if not 0 < delta < math.inf:
        raise ParameterError("delta must be positive and finite, got %s" % (delta,))
    if not 0 < eps < math.inf:
        raise ParameterError("eps must be positive and finite, got %s" % (eps,))
    if not 1 <= alpha < math.inf:
        raise ParameterError("alpha must be finite and at least 1, got %s" % (alpha,))
    c0 = max(4.0 * v.sup_norm(), 1e-12)
    mu = min(delta * eps / 2.0, delta * alpha * alpha * eps * eps / (2.0 * c0))
    vals = v.values.copy()
    mask = v.domain.classification != EXTERIOR
    t = vals[mask]
    vals[mask] = (1.0 + delta) * t - delta * t * t / (4.0 * c0)
    return ScalarField(v.domain, vals), mu
