"""Horizontal move graphs and Carnot-Caratheodory distances on the lattice.

The graph connects lattice nodes by short horizontal motions: single-field
moves (flow of +-X_i for time h, cost h), simultaneous two-field diagonals
(flow of (+-X_i +- X_j)/sqrt(2) run for sqrt(2) h, cost sqrt(2) h) and
two-leg compositions (X_i for h then X_j for h, cost 2h).  The last two kinds
are added at depth 2, the deepest move set; two-leg moves are what give the
vertical drift on heisenberg1.  Endpoints are snapped to the nearest lattice node while the
cost keeps the continuous control time, an O(h)-per-edge approximation that
keeps the graph finite.  Parallel edges keep the cheapest cost and opposite
orientations are averaged so the graph is symmetric.  build_graph does both
without a global sort: one stable sort per node over its own moves, and
two sparse sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# scipy.sparse.csgraph is imported inside the functions that use it: it
# loads scipy.sparse.linalg and scipy.linalg, which no solve needs.

from .errors import ConnectivityError, ParameterError, require_count
from .grids import GridDomain


def _flow(spec, coords: np.ndarray, control: np.ndarray, tau: float) -> np.ndarray:
    """Exact endpoint of the flow of sum_i control[i] X_i for time tau."""
    x = np.array(coords, dtype=float)
    if spec.name == "euclidean":
        x += tau * control[None, :]
        return x
    if spec.name == "heisenberg1":
        c1, c2 = control
        drift = 2.0 * (x[:, 0] * c2 - x[:, 1] * c1)
        x[:, 0] += c1 * tau
        x[:, 1] += c2 * tau
        x[:, 2] += drift * tau
        return x
    # grushin: X1 = d/dx, X2 = x d/dy
    c1, c2 = control
    x[:, 1] += c2 * x[:, 0] * tau + 0.5 * c2 * c1 * tau * tau
    x[:, 0] += c1 * tau
    return x


def _move_controls(m: int, depth: int) -> list[tuple[tuple, float]]:
    """(control data, cost-in-units-of-h) for each move template."""
    moves: list[tuple[tuple, float]] = []
    for i in range(m):
        for s in (1.0, -1.0):
            c = np.zeros(m)
            c[i] = s
            moves.append(((c,), 1.0))
    if depth >= 2:
        for i in range(m):
            for j in range(i + 1, m):
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        c = np.zeros(m)
                        c[i], c[j] = si, sj
                        moves.append(((c,), np.sqrt(2.0)))
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        ci = np.zeros(m)
                        cj = np.zeros(m)
                        ci[i], cj[j] = si, sj
                        moves.append(((ci, cj), 2.0))
    return moves


@dataclass
class HorizontalGraph:
    """Symmetric weighted graph of snapped horizontal moves."""

    domain: GridDomain
    depth: int
    matrix: sp.csr_matrix

    @property
    def n_edges(self) -> int:
        return self.matrix.nnz // 2

    def node_index(self, node) -> int:
        """The flat lattice index node, checked to be a non-exterior node."""
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise ParameterError(
                f"a graph node is a flat lattice index, got {type(node).__name__}")
        flat = int(node)
        if not 0 <= flat < self.domain.n_nodes:
            raise ParameterError(f"node {flat} outside the lattice")
        if not self.domain.nonexterior_mask[flat]:
            raise ParameterError(f"node {self.domain.multi_of_flat(flat)} is exterior")
        return flat


def build_graph(domain: GridDomain, depth: int | None = None) -> HorizontalGraph:
    """Build the horizontal move graph over all non-exterior nodes.

    Each move template flows every node at once and snaps the endpoints
    one coordinate column at a time, into one column of a (node, move)
    table of targets.  The templates come cheapest first, so a stable
    sort of each row keeps the cheapest of the parallel edges to a
    target first, and the rest are dropped.  The rows are the directed
    csr matrix A of costs; with P its pattern, the symmetric graph is
    (A + A^T) / (P + P^T), the mean of the two orientations of each edge.

    Parameters
    ----------
    domain : GridDomain
    depth : int, optional
        Move composition depth, 1 or 2; defaults to the geometry step.

    Raises
    ------
    ConnectivityError
        If some non-exterior node cannot be reached, naming one such node.
    """
    if depth is None:
        depth = domain.spec.step
    depth = require_count("graph depth", depth, 1)
    if depth > 2:
        raise ParameterError(
            f"graph depth must be at most 2 (the moves stop at two-leg compositions), "
            f"got {depth}")
    spec = domain.spec
    h = domain.h
    n = domain.n_nodes
    nodes = domain.nonexterior_flat
    coords = domain.coords[nodes]
    moves = _move_controls(spec.horizontal_dim, depth)
    # target of each (node, move), n where the move leaves the graph
    target = np.empty((nodes.size, len(moves)), dtype=np.int64)
    for m, (controls, _) in enumerate(moves):
        ends = coords
        for c in controls:
            ends = _flow(spec, ends, c, h)
        inside = np.ones(nodes.size, dtype=bool)
        flat = np.zeros(nodes.size, dtype=np.int64)
        for a, size in enumerate(domain.dims):
            col = np.ceil((ends[:, a] - domain.lower[a]) / h - 0.5).astype(np.int64)
            inside &= (col >= 0) & (col < size)
            flat += np.minimum(np.maximum(col, 0), size - 1) * domain.strides[a]
        valid = inside & domain.nonexterior_mask[flat] & (flat != nodes)
        target[:, m] = np.where(valid, flat, n)

    # per row: targets ascending, the cheapest move first among equal ones
    order = np.argsort(target, axis=1, kind="stable")
    target = np.take_along_axis(target, order, axis=1)
    keep = target < n
    keep[:, 1:] &= target[:, 1:] != target[:, :-1]
    if not keep.any():
        raise ConnectivityError(
            f"no usable moves at depth {depth} on {spec.id}; every endpoint snapped back"
        )
    cost = np.array([units * h for _, units in moves])[order[keep]]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[nodes + 1] = np.count_nonzero(keep, axis=1)
    np.cumsum(indptr, out=indptr)
    indices = target[keep]
    A = sp.csr_matrix((cost, indices, indptr), shape=(n, n))
    P = sp.csr_matrix((np.ones(cost.size), indices, indptr), shape=(n, n))
    # costs and counts are positive, so both sums have the pattern of P + P^T
    matrix = A + A.T
    matrix.data /= (P + P.T).data

    graph = HorizontalGraph(domain, depth, matrix)
    _check_connected(graph)
    return graph


def _check_connected(graph: HorizontalGraph) -> None:
    from scipy.sparse import csgraph

    dom = graph.domain
    n_comp, labels = csgraph.connected_components(graph.matrix, directed=False)
    live = dom.nonexterior_flat
    ref = labels[live[0]]
    stranded = live[labels[live] != ref]
    if stranded.size:
        node = dom.multi_of_flat(int(stranded[0]))
        raise ConnectivityError(
            f"node {node} is unreachable in the depth-{graph.depth} graph on "
            f"{dom.spec.id}; increase the depth or refine the grid"
        )


def cc_distance(graph: HorizontalGraph, a: int, b: int) -> float:
    """Shortest horizontal path cost between two lattice nodes."""
    ia, ib = graph.node_index(a), graph.node_index(b)
    d = float(cc_distances_from(graph, ia)[ib])
    if not np.isfinite(d):
        raise ConnectivityError(
            f"node {graph.domain.multi_of_flat(ib)} unreachable from "
            f"{graph.domain.multi_of_flat(ia)}"
        )
    return d


def cc_distances_from(graph: HorizontalGraph, a: int) -> np.ndarray:
    """All-node distance vector from one source (inf where unreachable)."""
    from scipy.sparse import csgraph

    ia = graph.node_index(a)
    return csgraph.dijkstra(graph.matrix, directed=False, indices=ia)
