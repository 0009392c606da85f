"""Property-based tests for partitioners."""

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, from_edges, power_law_graph, split_vertices
from repro.partition import (HashPartitioner, MetisPartitioner,
                             StreamBPartitioner, metis_partition)
from repro.partition import metis

from . import metis_oracle


@st.composite
def graph_cases(draw):
    n = draw(st.integers(min_value=16, max_value=200))
    degree = draw(st.integers(min_value=2, max_value=8))
    k = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, degree, k, seed


def build(n, degree, seed):
    rng = np.random.default_rng(seed)
    graph, _ = power_law_graph(n, degree, rng, num_communities=4)
    split = split_vertices(n, rng)
    return graph, split


class TestPartitionInvariants:
    @given(graph_cases())
    @settings(max_examples=25, deadline=None)
    def test_hash_assigns_every_vertex_once(self, case):
        n, degree, k, seed = case
        graph, _split = build(n, degree, seed)
        res = HashPartitioner().partition(graph, k,
                                          rng=np.random.default_rng(seed))
        assert len(res.assignment) == n
        assert res.sizes().sum() == n
        assert res.assignment.min() >= 0 and res.assignment.max() < k

    @given(graph_cases())
    @settings(max_examples=15, deadline=None)
    def test_metis_assigns_every_vertex_once(self, case):
        n, degree, k, seed = case
        graph, _split = build(n, degree, seed)
        assignment = metis_partition(graph, k,
                                     rng=np.random.default_rng(seed))
        assert len(assignment) == n
        assert np.bincount(assignment, minlength=k).sum() == n

    @given(graph_cases())
    @settings(max_examples=15, deadline=None)
    def test_metis_balance_bounded(self, case):
        n, degree, k, seed = case
        graph, _split = build(n, degree, seed)
        assignment = metis_partition(graph, k,
                                     rng=np.random.default_rng(seed))
        sizes = np.bincount(assignment, minlength=k)
        # The balance pass guarantees no part is catastrophically small.
        assert sizes.max() <= 2.0 * max(sizes.mean(), 1)

    @given(graph_cases())
    @settings(max_examples=10, deadline=None)
    def test_metis_variants_assign_all(self, case):
        n, degree, k, seed = case
        graph, split = build(n, degree, seed)
        res = MetisPartitioner("vet").partition(
            graph, k, split=split, rng=np.random.default_rng(seed))
        assert res.sizes().sum() == n

    @given(graph_cases())
    @settings(max_examples=10, deadline=None)
    def test_stream_b_assigns_all(self, case):
        n, degree, k, seed = case
        graph, split = build(n, degree, seed)
        res = StreamBPartitioner(block_size=8).partition(
            graph, k, split=split, rng=np.random.default_rng(seed))
        assert res.sizes().sum() == n
        assert res.assignment.min() >= 0


@st.composite
def messy_graphs(draw):
    """Small graphs with duplicate edges, self-loops, isolated vertices
    and, optionally, asymmetric edges, either symmetrized by the
    partitioner or (``is_symmetric`` claimed falsely) kept as is."""
    n = draw(st.integers(min_value=8, max_value=120))
    m = draw(st.integers(min_value=0, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Edges among the first ``active`` vertices only: the rest are
    # isolated.
    active = draw(st.integers(min_value=2, max_value=n))
    src = rng.integers(0, active, size=m)
    dst = rng.integers(0, active, size=m)
    repeats = rng.integers(0, max(m, 1), size=m // 4)
    src = np.concatenate([src, src[repeats]])
    dst = np.concatenate([dst, dst[repeats]])
    mode = draw(st.sampled_from(["symmetric", "directed", "claimed"]))
    graph = from_edges(src, dst, n, symmetrize_edges=mode == "symmetric",
                       dedup=False, drop_self_loops=False)
    if mode == "claimed":
        graph = CSRGraph(graph.indptr, graph.indices, num_vertices=n,
                         is_symmetric=True)
    columns = draw(st.integers(min_value=0, max_value=3))
    constraints = None
    if columns:
        constraints = rng.choice([0.0, 0.5, 1.0, 2.0, 7.0],
                                 size=(n, columns))
    k = draw(st.integers(min_value=2, max_value=8))
    coarsen_to = draw(st.integers(min_value=4, max_value=48))
    return graph, constraints, k, coarsen_to, seed


@contextmanager
def _oracle_loops():
    """Swap the pre-table matching and refinement loops into
    :mod:`repro.partition.metis` for the duration of the block."""
    saved = metis._heavy_edge_matching, metis._refine
    metis._heavy_edge_matching = metis_oracle._heavy_edge_matching
    metis._refine = metis_oracle._refine
    try:
        yield
    finally:
        metis._heavy_edge_matching, metis._refine = saved


def _integer_adjacency(n, seed, symmetric):
    """A random CSR matrix with integer weights > 1 and duplicate
    entries, like a coarse level of the multilevel hierarchy."""
    rng = np.random.default_rng(seed)
    m = 3 * n
    rows, cols = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    data = rng.integers(1, 6, size=len(rows)).astype(np.float64)
    if symmetric:
        rows, cols = np.concatenate([rows, cols]), \
            np.concatenate([cols, rows])
        data = np.concatenate([data, data])
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((data[order], cols[order].astype(np.int32),
                          indptr), shape=(n, n))


class TestConnectivityTableEquivalence:
    """The table-driven loops against the pre-table oracle: same RNG
    draws, same tie-breaks, byte-equal assignments."""

    @given(messy_graphs())
    @settings(max_examples=60, deadline=None)
    def test_metis_partition_byte_equal(self, case):
        graph, constraints, k, coarsen_to, seed = case
        kwargs = dict(constraints=constraints, coarsen_to=coarsen_to)
        fast = metis_partition(graph, k, rng=np.random.default_rng(seed),
                               **kwargs)
        with _oracle_loops():
            slow = metis_partition(graph, k,
                                   rng=np.random.default_rng(seed),
                                   **kwargs)
        assert fast.tobytes() == slow.tobytes()

    @given(n=st.integers(min_value=2, max_value=80),
           columns=st.integers(min_value=1, max_value=4),
           k=st.integers(min_value=2, max_value=8),
           symmetric=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_refine_and_matching_byte_equal_on_weighted_levels(
            self, n, columns, k, symmetric, seed):
        adj = _integer_adjacency(n, seed, symmetric)
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 4, size=(n, columns)).astype(np.float64)
        weights[:, 0] = rng.integers(1, 4, size=n)
        start = rng.integers(0, k, size=n)
        caps = metis._capacities(weights, k, 0.1)

        fast = metis._refine(adj, weights, start.copy(), k, caps,
                             np.random.default_rng(seed), 3)
        slow = metis_oracle._refine(adj, weights, start.copy(), k, caps,
                                    np.random.default_rng(seed), 3)
        assert fast.tobytes() == slow.tobytes()

        fast_cmap, fast_count = metis._heavy_edge_matching(
            adj, np.random.default_rng(seed))
        slow_cmap, slow_count = metis_oracle._heavy_edge_matching(
            adj, np.random.default_rng(seed))
        assert fast_count == slow_count
        assert fast_cmap.tobytes() == slow_cmap.tobytes()
