"""A multilevel, multi-constraint graph partitioner ("Metis-extend").

This is our from-scratch stand-in for METIS [Karypis & Kumar 1998] plus
the constraint extensions the paper calls *Metis-extend* (§5.2): the
partitioner minimizes edge cut while keeping *every column* of a vertex
weight matrix balanced across partitions.  The three paper variants are
thin wrappers choosing the constraint columns:

* **Metis-V**  — balance training-vertex counts (DistDGL's core idea);
* **Metis-VE** — additionally balance vertex degrees (edge counts);
* **Metis-VET** — additionally balance validation/test vertex counts
  (SALIENT++).

The classic three phases are implemented directly:

1. *Coarsening* by heavy-edge matching, accumulating edge weights and
   constraint vectors, until the graph is small;
2. *Initial partitioning* of the coarsest graph by greedy streaming
   assignment in BFS order (maximize connectivity to the target part,
   subject to capacity);
3. *Uncoarsening with refinement*: project the assignment up one level at
   a time and run boundary Fiduccia–Mattheyses passes — move a boundary
   vertex to the neighboring part with the largest positive cut gain
   whose capacities all still hold.
"""

from __future__ import annotations

from collections import deque

import numpy as np

try:  # METIS-style coarsening needs scipy; hash/range partitioners don't.
    import scipy.sparse as sp
except ImportError:  # pragma: no cover - exercised by the no-scipy CI job
    sp = None

from ..analysis.sanitize import check_connectivity
from ..errors import PartitionError
from ..perf.flags import FLAGS
from .base import PartitionResult, Partitioner, check_num_parts

__all__ = ["metis_partition", "MetisPartitioner", "metis_clusters"]


def _weighted_adjacency(graph):
    """The graph as a symmetric weighted scipy CSR matrix (weight 1 per
    edge, symmetrized so matching sees every neighbor)."""
    if sp is None:
        raise PartitionError(
            "metis-style partitioning requires scipy; use the hash or "
            "range partitioner instead")
    n = graph.num_vertices
    data = np.ones(graph.num_edges, dtype=np.float64)
    adj = sp.csr_matrix((data, graph.indices.astype(np.int32),
                         graph.indptr.astype(np.int64)), shape=(n, n))
    if not graph.is_symmetric:
        adj = adj.maximum(adj.T)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj


def _heavy_edge_matching(adj, rng):
    """Greedy heavy-edge matching.

    Returns ``cmap`` (coarse id per fine vertex) and the coarse vertex
    count.  Unmatched vertices map to their own coarse vertex.
    """
    n = adj.shape[0]
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for v in order:
        if match[v] != -1:
            continue
        row = slice(indptr[v], indptr[v + 1])
        neighbors = indices[row]
        # The heaviest unmatched non-self neighbor, first one on ties
        # (what a strict ``>`` scan of the row picks); zero-weight
        # entries never match.
        weight = np.where((match[neighbors] == -1) & (neighbors != v),
                          data[row], 0.0)
        best = int(weight.argmax()) if len(weight) else 0
        if len(weight) and weight[best] > 0:
            match[v] = neighbors[best]
            match[neighbors[best]] = v
        else:
            match[v] = v

    cmap = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if cmap[v] != -1:
            continue
        cmap[v] = next_id
        partner = match[v]
        if partner != v and cmap[partner] == -1:
            cmap[partner] = next_id
        next_id += 1
    return cmap, next_id


def _contract(adj, weights, cmap, num_coarse):
    """Contract matched pairs: sum adjacency weights and constraint rows."""
    coo = adj.tocoo()
    coarse = sp.csr_matrix(
        (coo.data, (cmap[coo.row], cmap[coo.col])),
        shape=(num_coarse, num_coarse))
    coarse.setdiag(0)
    coarse.eliminate_zeros()
    coarse_weights = np.zeros((num_coarse, weights.shape[1]))
    np.add.at(coarse_weights, cmap, weights)
    return coarse, coarse_weights


def _bfs_order(adj, rng):
    """Vertices in BFS order from a random start (covers all components)."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    order = []
    queue = deque()
    for start in rng.permutation(n):
        if seen[start]:
            continue
        queue.append(start)
        seen[start] = True
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in adj.indices[adj.indptr[v]:adj.indptr[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return np.array(order, dtype=np.int64)


def _capacities(weights, num_parts, imbalance):
    """Per-part capacity for each constraint column, with slack for the
    largest single vertex so assignment can never deadlock."""
    totals = weights.sum(axis=0)
    biggest = weights.max(axis=0) if len(weights) else totals
    return (1.0 + imbalance) * totals / num_parts + biggest


def _initial_partition(adj, weights, num_parts, caps, rng):
    """Greedy streaming assignment of the coarsest graph in BFS order."""
    n = adj.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    loads = np.zeros((num_parts, weights.shape[1]))
    for v in _bfs_order(adj, rng):
        row = slice(adj.indptr[v], adj.indptr[v + 1])
        neighbors = adj.indices[row]
        edge_w = adj.data[row]
        conn = np.zeros(num_parts)
        assigned = assignment[neighbors] >= 0
        if assigned.any():
            np.add.at(conn, assignment[neighbors[assigned]],
                      edge_w[assigned])
        fits = np.all(loads + weights[v] <= caps, axis=1)
        load_ratio = (loads / caps).max(axis=1)
        if not fits.any():
            # All parts nominally full: pick the least-loaded one.
            candidate = int(load_ratio.argmin())
        else:
            # LDG-style multiplicative penalty: connectivity matters, but
            # a nearly-full part is strongly discouraged.
            score = (conn + 1e-3) * (1.0 - load_ratio)
            score[~fits] = -np.inf
            candidate = int(score.argmax())
        assignment[v] = candidate
        loads[candidate] += weights[v]
    return assignment, loads


class _Connectivity:
    """Edge weight from every vertex into every part, kept current
    across single-vertex moves.

    ``conn[v, p]`` is the total weight of ``v``'s adjacency row into
    part ``p``; ``pos[v]`` says some part beats ``v``'s own, i.e. ``v``
    has a move of positive raw gain.  A vertex without one cannot move
    in refinement whatever the capacities, so interior, isolated and
    zero-gain boundary vertices cost one flag read.  A move updates the
    rows of the vertices whose adjacency holds the mover: the mover's
    row of the transposed matrix, duplicates summed.

    Every level's edge weights are integer-valued float64 (unit weights
    from :func:`_weighted_adjacency`, summed by :func:`_contract`), so
    each entry equals a fresh per-row sum in any summation order, and
    every gain, score and tie matches a fresh recomputation bit for bit.
    """

    def __init__(self, adj, assignment, num_parts):
        n = adj.shape[0]
        rows = np.repeat(np.arange(n), np.diff(adj.indptr))
        # astype: bincount of an empty edge list is int64 even with
        # weights.
        self.conn = np.bincount(
            rows * num_parts + assignment[adj.indices], weights=adj.data,
            minlength=n * num_parts).astype(np.float64, copy=False) \
            .reshape(n, num_parts)
        self.assignment = assignment
        self.pos = np.zeros(n, dtype=bool)
        self._refresh(np.arange(n))
        self._into = adj.T.tocsr()
        self._into.sum_duplicates()

    def _refresh(self, vertices):
        conn = self.conn[vertices]
        self.pos[vertices] = conn.max(axis=1) > \
            conn[np.arange(len(vertices)), self.assignment[vertices]]

    def move(self, v, target):
        """Reassign ``v`` to ``target`` and update the table."""
        row = slice(self._into.indptr[v], self._into.indptr[v + 1])
        sources, weight = self._into.indices[row], self._into.data[row]
        self.conn[sources, self.assignment[v]] -= weight
        self.conn[sources, target] += weight
        self.assignment[v] = target
        self._refresh(np.append(sources, v))


def _refine(adj, weights, assignment, num_parts, caps, rng, passes):
    """Boundary FM refinement: greedy positive-gain moves under all
    capacity constraints."""
    loads = np.zeros((num_parts, weights.shape[1]))
    np.add.at(loads, assignment, weights)
    table = _Connectivity(adj, assignment, num_parts)
    conn, pos = table.conn, table.pos
    for _pass in range(passes):
        moved = 0
        for v in rng.permutation(adj.shape[0]):
            if not pos[v]:
                continue  # no part gains: interior, isolated or zero-gain
            cur = assignment[v]
            gain = conn[v] - conn[v, cur]
            gain[cur] = -np.inf
            # Capacity check for every candidate part.
            fits = np.all(loads + weights[v] <= caps, axis=1)
            gain[~fits] = -np.inf
            target = int(gain.argmax())
            if gain[target] > 0:
                loads[cur] -= weights[v]
                loads[target] += weights[v]
                table.move(v, target)
                moved += 1
        if FLAGS.sanitize:
            check_connectivity(adj, assignment, conn, pos)
        if moved == 0:
            break
    _balance_pass(adj, weights, assignment, num_parts, caps, rng, table)
    return assignment


def _balance_pass(adj, weights, assignment, num_parts, caps, rng, table,
                  floor_ratio=0.85, max_moves_factor=0.25):
    """Pull vertices into under-loaded parts, one constraint at a time.

    FM refinement only makes cut-improving moves, so a part left starved
    by the initial assignment stays starved.  For every constraint column
    this pass moves vertices carrying that constraint's weight from
    over-loaded parts into any part below ``floor_ratio`` of the average,
    choosing, among sampled candidates, the vertex with the smallest cut
    damage.  Enforcing *every* column is what makes Metis-VE/VET pay for
    their extra constraints with a higher edge cut, as the paper observes
    (§5.3.2).  ``table`` is the :class:`_Connectivity` of ``assignment``
    and is kept current.
    """
    conn = table.conn
    loads = np.zeros((num_parts, weights.shape[1]))
    np.add.at(loads, assignment, weights)
    avg = weights.sum(axis=0) / num_parts
    max_moves = int(max_moves_factor * adj.shape[0]) + 1
    for column in range(weights.shape[1]):
        if avg[column] <= 0:
            continue
        carries = weights[:, column] > 0
        for _move in range(max_moves):
            col_load = loads[:, column]
            needy = int(col_load.argmin())
            if col_load[needy] >= floor_ratio * avg[column]:
                break
            donors = np.flatnonzero(col_load > avg[column])
            if len(donors) == 0:
                break
            candidates = np.flatnonzero(
                np.isin(assignment, donors) & carries)
            if len(candidates) == 0:
                break
            sample = candidates if len(candidates) <= 256 else rng.choice(
                candidates, size=256, replace=False)
            # Cut damage per unit of constraint weight moved.  argmin is
            # the first minimum, as a strict ``<`` scan from +inf picks;
            # that scan picks nothing when every score is +inf.
            score = (conn[sample, assignment[sample]] - conn[sample, needy]) \
                / weights[sample, column]
            best = int(score.argmin())
            if not score[best] < np.inf:
                break
            best_v = int(sample[best])
            loads[assignment[best_v]] -= weights[best_v]
            loads[needy] += weights[best_v]
            table.move(best_v, needy)
    if FLAGS.sanitize:
        check_connectivity(adj, assignment, conn, table.pos)


def _check_knobs(imbalance, refine_passes):
    """Reject a negative or non-finite imbalance and a negative or
    fractional refinement pass count."""
    if not (np.isfinite(imbalance) and imbalance >= 0):
        raise PartitionError(
            f"imbalance must be finite and >= 0, got {imbalance!r}")
    if not (isinstance(refine_passes, (int, np.integer))
            and refine_passes >= 0):
        raise PartitionError(
            f"refine_passes must be an integer >= 0, got {refine_passes!r}")


def metis_partition(graph, num_parts, constraints=None, rng=None,
                    imbalance=0.1, coarsen_to=None, refine_passes=3):
    """Multilevel multi-constraint partitioning.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.csr.CSRGraph`.
    num_parts:
        Number of parts ``k``.
    constraints:
        ``(n, c)`` non-negative weight matrix to balance.  A unit
        vertex-count column is always prepended, so ``None`` balances
        vertex counts only.
    rng:
        :class:`numpy.random.Generator` (default: seeded fresh).
    imbalance:
        Allowed relative imbalance ``epsilon`` per constraint.
    coarsen_to:
        Stop coarsening below this many vertices
        (default ``max(128, 16 * num_parts)``).
    refine_passes:
        FM passes per uncoarsening level.

    Returns
    -------
    ``int64 (n,)`` assignment array.
    """
    n = graph.num_vertices
    check_num_parts(n, num_parts)
    _check_knobs(imbalance, refine_passes)
    if rng is None:
        rng = np.random.default_rng(0)
    unit = np.ones((n, 1))
    if constraints is None:
        weights = unit
    else:
        constraints = np.asarray(constraints, dtype=np.float64)
        if constraints.ndim == 1:
            constraints = constraints[:, None]
        if constraints.ndim != 2 or constraints.shape[0] != n \
                or not np.all(np.isfinite(constraints)) \
                or np.any(constraints < 0):
            raise PartitionError(
                "constraints must be a finite non-negative (n, c) matrix")
        weights = np.hstack([unit, constraints])
    if coarsen_to is None:
        coarsen_to = max(128, 16 * num_parts)

    # Phase 1: coarsen.
    adj = _weighted_adjacency(graph)
    levels = []  # (adjacency, cmap) pairs, finest first
    cur_adj, cur_weights = adj, weights
    while cur_adj.shape[0] > coarsen_to:
        cmap, num_coarse = _heavy_edge_matching(cur_adj, rng)
        if num_coarse >= cur_adj.shape[0] * 0.95:
            break  # matching stalled (e.g. near-empty graph)
        levels.append((cur_adj, cmap))
        cur_adj, cur_weights = _contract(cur_adj, cur_weights, cmap,
                                         num_coarse)

    # Phase 2: initial partition of the coarsest graph.
    caps_coarse = _capacities(cur_weights, num_parts, imbalance)
    assignment, _ = _initial_partition(cur_adj, cur_weights, num_parts,
                                       caps_coarse, rng)
    assignment = _refine(cur_adj, cur_weights, assignment, num_parts,
                         caps_coarse, rng, refine_passes)

    # Phase 3: uncoarsen + refine, finest last.  weight_stack[i] holds the
    # constraint matrix of level i (finest first).
    weight_stack = [weights]
    for fine_adj, cmap in levels:
        num_coarse = cmap.max() + 1 if len(cmap) else 0
        coarse_w = np.zeros((num_coarse, weights.shape[1]))
        np.add.at(coarse_w, cmap, weight_stack[-1])
        weight_stack.append(coarse_w)
    for (fine_adj, cmap), fine_w in zip(reversed(levels),
                                        reversed(weight_stack[:-1])):
        assignment = assignment[cmap]
        caps = _capacities(fine_w, num_parts, imbalance)
        assignment = _refine(fine_adj, fine_w, assignment, num_parts, caps,
                             rng, refine_passes)
    return assignment


def metis_clusters(graph, num_clusters, rng=None):
    """Cluster the graph into ``num_clusters`` dense pieces (used by
    cluster-based batch selection, §6.3.2).  Pure min-cut clustering, no
    extra constraints."""
    return metis_partition(graph, num_clusters, rng=rng, imbalance=0.3)


class MetisPartitioner(Partitioner):
    """Metis-extend partitioning with the paper's constraint presets.

    Parameters
    ----------
    variant:
        ``"v"`` (balance train vertices), ``"ve"`` (train vertices +
        degrees), or ``"vet"`` (train/val/test vertices + degrees).
    imbalance:
        Allowed relative imbalance per constraint.
    """

    VARIANTS = ("v", "ve", "vet")

    def __init__(self, variant="ve", imbalance=0.1, refine_passes=3):
        if variant not in self.VARIANTS:
            raise PartitionError(
                f"variant must be one of {self.VARIANTS}, got {variant!r}")
        _check_knobs(imbalance, refine_passes)
        self.variant = variant
        self.imbalance = imbalance
        self.refine_passes = refine_passes
        self.name = f"metis-{variant}"

    def _constraints(self, graph, split):
        if split is None:
            raise PartitionError(
                f"{self.name} needs a train/val/test split to balance")
        columns = [split.train_mask.astype(np.float64)]
        if self.variant in ("ve", "vet"):
            columns.append(graph.out_degrees.astype(np.float64))
        if self.variant == "vet":
            columns.append(split.val_mask.astype(np.float64))
            columns.append(split.test_mask.astype(np.float64))
        return np.column_stack(columns)

    def _partition(self, graph, num_parts, split, rng):
        constraints = self._constraints(graph, split)
        assignment = metis_partition(
            graph, num_parts, constraints=constraints, rng=rng,
            imbalance=self.imbalance, refine_passes=self.refine_passes)
        return PartitionResult(assignment, num_parts, self.name)
