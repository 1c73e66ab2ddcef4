"""Empirical checks of the structural properties behind the solvers.

Four audits: degenerate subellipticity of the shipped operators,
viscosity sub/supersolution tests via discretely certified touching
quadratics, the comparison-principle margin, and the absolutely
minimizing property on random sub-boxes.  The operators are
``calculus.OperatorSpec``, imported here so that ``verify.OperatorSpec``
names the same class.

The touching test runs a chunk of nodes at a time, in small matrix
products: the 2n axis offsets first, for every candidate, then the rest
of the unit ring for the candidates still open in the chunk, then the
rest of the radius-2 stencil for the few pairs the ring leaves open (see
``viscosity_check``).  The stencil values are gathered per chunk from the
NaN-padded lattice, those beyond the ring only for a chunk with an open
pair; the jets stage 2 builds and certifies are evaluated in the same
pass.  So no (offset, node) or (candidate, node) table is built, each jet
is built once, and the working set is a few chunk-sized buffers.  It is
bound by arithmetic, not by Python calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import OperatorSpec, horizontal_gradient
from .errors import ParameterError, require_count
from .grids import EXTERIOR, ScalarField, require_same_lattice
from .groups import frame_coefficients, frame_derivatives
from .integrands import Integrand
from .solver import BoundaryData, SolverConfig, solve

_CHUNK = 32_768  # doubles in one product or block (extremes, or gaps): 256 kB, in cache


def subelliptic_check(op: OperatorSpec, samples: int, m: int = 2,
                      seed: int = 0):
    """Monotonicity in the matrix slot: A(x,p,M) <= A(x,p,M-E) for PSD E.

    Returns (passed, worst margin) over random m-jets, m >= 1: the largest
    observed A(x,p,M) - A(x,p,M-E); anything above 1e-9 fails.
    """
    samples = require_count("samples", samples, 1)
    m = require_count("m", m, 1)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, m))
    p = rng.normal(size=(samples, m)) * rng.uniform(0.0, 3.0, (samples, 1))
    B = rng.normal(size=(samples, m, m))
    M = 0.5 * (B + np.swapaxes(B, 1, 2))
    C = rng.normal(size=(samples, m, m))
    E = np.einsum("kji,kjl->kil", C, C)
    worst = float(np.max(op.evaluate(x, p, M) - op.evaluate(x, p, M - E)))
    return worst <= 1e-9, worst


@dataclass
class ViscosityReport:
    """Worst per-node violations of the touching-quadratic inequalities.

    subsolution_violations[i] is the largest positive A over quadratics
    certified to touch u from above at interior node i (the definition
    demands A <= 0 there); supersolution_violations mirrors it from
    below with A >= 0.  jets_above/jets_below count certified jets.
    passed allows violations up to tol = 10 h^2.
    """

    subsolution_violations: np.ndarray
    supersolution_violations: np.ndarray
    jets_above: int
    jets_below: int
    candidates: int
    tol: float

    @property
    def worst_subsolution_violation(self) -> float:
        return float(np.max(self.subsolution_violations, initial=0.0))

    @property
    def worst_supersolution_violation(self) -> float:
        return float(np.max(self.supersolution_violations, initial=0.0))

    @property
    def passed(self) -> bool:
        return (self.worst_subsolution_violation <= self.tol
                and self.worst_supersolution_violation <= self.tol)


@dataclass(frozen=True)
class _Stencil:
    """The radius-2 stencil of u at its interior nodes, read on demand.

    offs lists the cube [-2, 2]^n, the 3^n offsets of the unit ring
    first, each part in C order.  flat is u padded by 2 with NaN,
    exterior nodes NaN too, so a neighbor off the lattice or exterior
    reads NaN (the touching filter and the difference stencils skip it).
    pos holds the interior nodes' positions in flat and steps each
    offset's stride there.  No (offset, node) table is kept: each caller
    gathers the rows and nodes it reads.
    """

    offs: np.ndarray
    flat: np.ndarray
    pos: np.ndarray
    steps: np.ndarray

    def values(self, rows, nodes) -> np.ndarray:
        """Values u(x + delta) for the offsets offs[rows] at the interior nodes [nodes].

        (offset, node) for a slice of rows, one value per node for an integer.
        """
        return np.take(self.flat, self.steps[rows, None] + self.pos[nodes])


def _stencil_values(u: ScalarField) -> _Stencil:
    """The reader of u's radius-2 stencil at its interior nodes; see _Stencil."""
    dom = u.domain
    n = dom.spec.dim
    ticks = np.arange(-2, 3)
    grids = np.meshgrid(*([ticks] * n), indexing="ij")
    offs = np.stack([g.reshape(-1) for g in grids], axis=1)
    offs = offs[np.argsort(np.max(np.abs(offs), axis=1) > 1, kind="stable")]
    grid = np.where(dom.classification == EXTERIOR, np.nan, u.values).reshape(dom.dims)
    padded = np.pad(grid, 2, constant_values=np.nan)
    strides = np.array(padded.strides) // padded.itemsize
    pos = (dom.multi_indices[dom.interior_flat] + 2) @ strides
    return _Stencil(offs, padded.reshape(-1), pos, offs @ strides)


def _second_difference_matrices(nb, center: np.ndarray, n: int, h: float):
    """Dense symmetric n-by-n second differences at interior nodes.

    nb(offset) gives the neighbor values u(x + offset) from the stencil,
    NaN where missing, and center the values u(x).  Diagonal
    entries are the usual centered second differences; mixed entries use
    the four-point cross stencil.  An entry with a missing neighbor is
    zero.
    """
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


@dataclass(frozen=True)
class _Jets:
    """Candidate quadratics (lam, zeta, g, H), C of them, and the node data they mix.

    fwd, bwd (node, n) are the one-sided axis slopes and D2 (node, n, n)
    the second differences of u at the interior nodes.
    """

    lam: np.ndarray
    zeta: np.ndarray
    g: np.ndarray
    H: np.ndarray
    fwd: np.ndarray
    bwd: np.ndarray
    D2: np.ndarray

    def at(self, c: np.ndarray, k: np.ndarray):
        """Gradient xi and symmetric matrix S of candidates c at interior nodes k."""
        # take(axis=0) gathers short rows about 10x faster than a[k]
        lam = np.take(self.lam, c, axis=0)
        xi = lam * np.take(self.fwd, k, axis=0) + (1.0 - lam) * np.take(self.bwd, k, axis=0) \
            + np.take(self.g, c, axis=0)
        S = self.zeta[c][:, None, None] * np.take(self.D2, k, axis=0) + np.take(self.H, c, axis=0)
        return xi, S


def _ring_planes(delta: np.ndarray, du: np.ndarray, fwd: np.ndarray,
                 bwd: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """(offset, n + 3, node) planes [base, J_0, ..., J_{n-1}, Q, 1] of the candidate gaps.

    See viscosity_check.  du holds u(x + delta) - u(x), NaN where the
    neighbor is missing; the NaN carries into base.
    """
    n = delta.shape[1]
    planes = np.empty((delta.shape[0], n + 3, du.shape[1]))
    base = np.multiply.outer(delta[:, 0], bwd[:, 0])
    for a in range(1, n):
        base += np.multiply.outer(delta[:, a], bwd[:, a])
    np.subtract(base, du, out=planes[:, 0])
    for a in range(n):
        np.multiply.outer(delta[:, a], fwd[:, a] - bwd[:, a], out=planes[:, 1 + a])
    # Q is summed in a buffer of its own: adding into the strided plane is twice as slow
    Q = np.zeros(du.shape)
    for a in range(n):
        for b in range(n):
            Q += np.multiply.outer(delta[:, a] * delta[:, b], D2[:, a, b])
    np.multiply(Q, 0.5, out=planes[:, n + 1])
    planes[:, n + 2] = 1.0
    return planes


def _ring_extremes(coef: np.ndarray, axes: np.ndarray, diagonals: np.ndarray,
                   planes: np.ndarray, slack: float):
    """Stage 1 on a chunk of nodes: the (candidate, node) min and max gaps over the ring.

    coef (offset, candidate, n + 3) holds the rows [1, lam, zeta, c] and
    planes (offset, n + 3, node) the chunk's planes.  Both extremes start
    at the centre gap, exactly 0, and are kept in contiguous buffers of
    the chunk: the axis offsets take every candidate, the diagonal ones
    only the candidates with a pair still open.
    """
    shape = (coef.shape[1], planes.shape[2])
    lo, hi = np.zeros(shape), np.zeros(shape)
    gap = np.empty(shape)
    for r in axes:
        np.matmul(coef[r], planes[r], out=gap)
        np.fmin(lo, gap, out=lo)
        np.fmax(hi, gap, out=hi)
    # lo only falls and hi only rises, so a row with no open pair stays shut
    rows = np.flatnonzero(np.any((lo >= -slack) | (hi <= slack), axis=1))
    if rows.size:
        lo_open, hi_open, gap = lo[rows], hi[rows], gap[: rows.size]
        for r in diagonals:
            np.matmul(coef[r][rows], planes[r], out=gap)
            np.fmin(lo_open, gap, out=lo_open)
            np.fmax(hi_open, gap, out=hi_open)
        lo[rows], hi[rows] = lo_open, hi_open
    return lo, hi


def _touching(delta: np.ndarray, stencil: _Stencil, center: np.ndarray,
              jets: _Jets, slack: float):
    """Per chunk of nodes with a touching pair, its rows (c, k, xi, S, above, below).

    A (candidate c, interior node k) pair is above when its gap is >= -slack
    at every offset of the stencil, and below when it is <= slack; see
    viscosity_check for the two stages.  Both run a chunk of nodes at a
    time, so the working set is a few chunk-sized buffers whatever the
    lattice: stage 1 in _ring_extremes, then stage 2 on the chunk's open
    pairs, which reads the values beyond the ring at the chunk's nodes only
    if a pair is open there.  A touching pair is open after the ring, so
    its row carries the jet xi, S that stage 2 built; rows are in C order.
    """
    n = delta.shape[1]
    n_c, n_int = jets.zeta.size, center.size
    ring = 3**n
    # stage 1: one row [1, lam, zeta, c] per candidate and ring offset
    near, far = delta[:ring], delta[ring:]
    coef = np.empty((ring, n_c, n + 3))
    coef[:, :, 0] = 1.0
    coef[:, :, 1 : n + 1] = jets.lam
    coef[:, :, n + 1] = jets.zeta
    coef[:, :, n + 2] = (np.einsum("ia,oa->io", jets.g, near)
                         + 0.5 * np.einsum("oa,iab,ob->io", near, jets.H, near)).T
    steps = np.count_nonzero(near, axis=1)
    axes, diagonals = np.flatnonzero(steps == 1), np.flatnonzero(steps > 1)
    # stage 2: one row [delta, vec(delta delta^T) / 2] per offset beyond the ring
    phi = np.concatenate([far, 0.5 * np.einsum("oa,ob->oab", far, far).reshape(-1, n * n)],
                         axis=1)
    step = max(1, _CHUNK // far.shape[0])
    width = max(1, _CHUNK // n_c)

    def chunk(start: int) -> list:
        """The rows of the chunk from node start, [] if none; its buffers are freed on
        return, so they are not held while the caller evaluates the rows."""
        cols = slice(start, start + width)
        planes = _ring_planes(near, stencil.values(slice(ring), cols) - center[cols],
                              jets.fwd[cols], jets.bwd[cols], jets.D2[cols])
        lo, hi = _ring_extremes(coef, axes, diagonals, planes, slack)
        del planes  # freed before stage 2 allocates its own buffers
        m = lo.shape[1]
        lo, hi = lo.reshape(-1), hi.reshape(-1)
        pairs = np.flatnonzero((lo >= -slack) | (hi <= slack))  # c m + node - start
        if pairs.size:
            du = stencil.values(slice(ring, None), cols) - center[cols]
        rows = []
        for first in range(0, pairs.size, step):
            flat = pairs[first : first + step]
            c, j = np.divmod(flat, m)  # j: the node's place in the chunk
            xi, S = jets.at(c, j + start)
            gap = phi @ np.concatenate([xi, S.reshape(-1, n * n)], axis=1).T
            gap -= np.take(du, j, axis=1)
            above = np.fmin(lo[flat], np.fmin.reduce(gap, axis=0)) >= -slack
            below = np.fmax(hi[flat], np.fmax.reduce(gap, axis=0)) <= slack
            hit = np.flatnonzero(above | below)
            if hit.size:
                rows.append((c[hit], j[hit] + start, xi[hit], S[hit], above[hit], below[hit]))
        return [np.concatenate(col) for col in zip(*rows)]

    yield from filter(None, map(chunk, range(0, n_int, width)))  # skips chunks with no rows


def viscosity_check(u: ScalarField, op: OperatorSpec,
                    jet_samples: int = 64, seed: int = 0) -> ViscosityReport:
    """Test the sub/supersolution inequalities with discrete jets.

    Candidate quadratics at each interior node mix the one-sided
    slopes (gradient part, weights lam) and scale the full
    second-difference matrix (Hessian part, weight zeta): 15 fixed
    ones, plus random ones that come in sign pairs, shifted by +-g of
    size about h in the gradient and +-H of size about 1 in the
    Hessian, so an odd ``jet_samples`` runs one more.  A quadratic
    counts only if it dominates u (resp. is dominated) on the whole
    radius-2 stencil with equality at the node.

    Its gap to u at offset delta is linear in the candidate,

        base + sum_a lam_a J_a + zeta Q + c,

    with base = bwd . delta - (u(x + delta) - u(x)),
    J_a = (fwd_a - bwd_a) delta_a, Q = delta^T D2 delta / 2 and the
    per-offset constant c = g . delta + delta^T H delta / 2.  The
    (candidate, node) pairs are tested a chunk of nodes at a time, in two
    stages.  The gap at the centre is exactly 0, so the running min and
    max over the stencil start there.  Stage 1 takes the rest of the unit
    ring {-1, 0, 1}^n, an offset at a time: the gaps of all candidates
    are one matrix product of their rows [1, lam, zeta, c] with the
    offset's planes [base; J; Q; 1].  The 2n axis offsets +-e_a come
    first.  The other ring offsets take only the rows of the candidates
    with a pair still open in the chunk: the running min only falls and
    the max only rises, so a pair the axes shut stays shut (on the
    Heisenberg A5 fixture, 54 of 79 candidates are shut at every node).
    Stage 2 takes only the pairs of the chunk the ring leaves open (about
    10% on the plane A5 fixture and 2% on the Heisenberg one).  It builds
    each pair's jet xi = lam fwd + (1 - lam) bwd + g and S = zeta D2 + H,
    and gets the gaps at the other offsets as [delta, vec(delta delta^T)
    / 2] . [xi, vec S] - (u(x + delta) - u(x)), one product per block of
    pairs; the values beyond the ring are gathered for the chunk's nodes
    only when it has an open pair.  The jet (p, M) and A are evaluated
    once per chunk for its certified pairs, from the xi and S stage 2
    built, with the frame at their nodes; on euclidean:n the frame is the
    identity, so (p, M) is (xi, S).  u(x + delta) is read from u padded
    with NaN, exterior nodes NaN too, so a neighbor off the lattice or
    exterior is missing.  Running the check on -u negates every plane and
    jet and swaps each sign pair, so it swaps the two violation columns.
    """
    jet_samples = require_count("jet_samples", jet_samples, 0)
    dom = u.domain
    n = dom.spec.dim
    h = dom.h
    inodes = dom.interior_flat
    n_int = inodes.size
    stencil = _stencil_values(u)
    row = {tuple(o): r for r, o in enumerate(stencil.offs.tolist())}
    center = u.values[inodes]

    def at(offset):
        return stencil.values(row[tuple(offset)], slice(None))

    delta = stencil.offs.astype(float) * h
    # one-sided axis slopes; a missing side takes the other one, and a
    # node with neither gets slope zero
    eye = np.eye(n, dtype=int)
    fwd = np.stack([(at(e) - center) / h for e in eye], axis=1)
    bwd = np.stack([(center - at(-e)) / h for e in eye], axis=1)
    fwd, bwd = np.where(np.isnan(fwd), bwd, fwd), np.where(np.isnan(bwd), fwd, bwd)
    fwd, bwd = np.nan_to_num(fwd, nan=0.0), np.nan_to_num(bwd, nan=0.0)
    D2 = _second_difference_matrices(at, center, n, h)
    coords = dom.coords[inodes]
    slack = 1e-12 * max(1.0, float(np.max(np.abs(u.values[inodes]), initial=0.0)))

    # (lam, zeta, g, H): the fixed candidates, then the sign pairs
    zero_g, zero_h = np.zeros(n), np.zeros((n, n))
    cands = [(np.full(n, lam), zeta, zero_g, zero_h)
             for lam in (0.0, 0.25, 0.5, 0.75, 1.0) for zeta in (0.0, h, 1.0)]
    rng = np.random.default_rng(seed)
    for _ in range((jet_samples + 1) // 2):
        lam = rng.uniform(0.0, 1.0, n)
        gshift = rng.normal(size=n) * h
        zeta = rng.uniform(0.0, 1.0)
        B = rng.normal(size=(n, n))
        hshift = 0.5 * (B + B.T)
        cands.append((lam, zeta, gshift, hshift))
        cands.append((lam, zeta, -gshift, -hshift))
    jets = _Jets(*(np.array(col) for col in zip(*cands)), fwd, bwd, D2)
    sub_viol, sup_viol = np.zeros(n_int), np.zeros(n_int)
    jets_above = jets_below = 0
    for c, k, xi, S, above, below in _touching(delta, stencil, center, jets, slack):
        x = np.take(coords, k, axis=0)
        if dom.spec.name == "euclidean":
            # the frame is the identity and its derivative zero, and S is
            # symmetric by construction
            p, M = xi, S
        else:
            # the frame at each pair's node; every entry is a function of that node alone
            ak = frame_coefficients(dom.spec, x)
            p = np.einsum("kia,ka->ki", ak, xi)
            # M = a S a^T + a (dA/dx . xi), in matmuls: no einsum path search per chunk
            dxi = np.matmul(frame_derivatives(dom.spec, x), xi[:, None, :, None])[..., 0]
            M = ak @ S @ ak.swapaxes(1, 2) + ak @ dxi
            M = 0.5 * (M + np.swapaxes(M, 1, 2))
        A = op.evaluate(x, p, M)
        for viol, hit, val in ((sub_viol, above, A), (sup_viol, below, -A)):
            np.maximum.at(viol, k[hit], np.maximum(val[hit], 0.0))
        jets_above += int(np.count_nonzero(above))
        jets_below += int(np.count_nonzero(below))
    return ViscosityReport(
        subsolution_violations=sub_viol,
        supersolution_violations=sup_viol,
        jets_above=jets_above,
        jets_below=jets_below,
        candidates=len(cands),
        tol=10.0 * h * h,
    )


def comparison_check(u: ScalarField, v: ScalarField) -> float:
    """sup of (u - v) on the boundary minus sup over the interior.

    Nonnegative means the comparison principle holds for this pair.
    """
    require_same_lattice(u.domain, v.domain)
    diff = u.values - v.values
    dom = u.domain
    return float(np.max(diff[dom.boundary_flat])
                 - np.max(diff[dom.interior_flat]))


def amle_check(u: ScalarField, f: Integrand, trials: int,
               config: SolverConfig | None = None, seed: int = 0) -> float:
    """Absolutely-minimizing audit on random sub-boxes.

    Each trial re-solves a random sub-box with u's own trace as
    boundary data and compares sup f(Xu) against sup f(Xw) there; for
    a true minimizer the ratio stays at or below 1 up to solver
    tolerance.  Degenerate sub-boxes (fewer than 3 interior nodes) are
    skipped.  Returns the worst ratio observed.
    """
    trials = require_count("trials", trials, 1)
    config = config or SolverConfig(k_max=16)
    dom = u.domain
    dims = np.asarray(dom.dims)
    rng = np.random.default_rng(seed)
    worst = 0.0
    tested = 0
    for _ in range(trials):
        span = np.array([rng.integers(3, d + 1) for d in dims])
        lo = np.array([rng.integers(0, d - s + 1)
                       for d, s in zip(dims, span)])
        hi = lo + span - 1
        if np.prod(np.maximum(span - 2, 0)) < 3:
            continue
        sub = dom.subbox(lo, hi)
        parent_flat = (sub.multi_indices + lo) @ dom.strides
        sub_vals = u.values[parent_flat].copy()
        sub_u = ScalarField(sub, sub_vals)
        g = BoundaryData.from_field(sub_u)
        w = solve(g, f, config=config).solution
        num = float(np.max(f.value(horizontal_gradient(sub_u))))
        den = float(np.max(f.value(horizontal_gradient(w))))
        worst = max(worst, num / max(den, 1e-12))
        tested += 1
    if tested == 0:
        raise ParameterError("all %d sub-boxes were degenerate" % (trials,))
    return worst
