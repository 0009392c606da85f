"""Shared fixtures for the sparse-kernel conformance suite.

The adjacency cases deliberately cover the shapes the library actually
produces — rectangular sampled-block operators with *descending* row
order, duplicate-collapsing self-loops, zero-degree rows, and the
empty block — plus the GAT COO layout whose edge order (block edges
first, appended self-loops last) is part of the numerical contract.
"""

import numpy as np
import pytest

from repro.kernels import (KernelCOO, KernelCSR,
                           normalized_block_adjacency)
from repro.sampling import build_block


def _block(seed, num_seeds=6, num_edges=18, universe=40):
    """A small seeded sampled block (destinations lead the sources)."""
    rng = np.random.default_rng(seed)
    dst_nodes = rng.choice(universe, size=num_seeds, replace=False)
    edge_dst = rng.choice(dst_nodes, size=num_edges)
    edge_src = rng.choice(universe, size=num_edges)
    return build_block(dst_nodes, edge_dst, edge_src)


def csr_cases():
    """Named CSR adjacencies covering the conformance matrix."""
    cases = {}

    # Regular rectangular block operator (with and without loops).
    block = _block(seed=3)
    cases["block_loops"] = normalized_block_adjacency(block,
                                                      self_loops=True)
    cases["block_plain"] = normalized_block_adjacency(block,
                                                      self_loops=False)

    # A destination that samples itself: the appended self-loop
    # duplicates an existing (i, i) edge and must collapse into one
    # stored entry with weight 2 before normalization.
    self_block = build_block(np.array([4, 9]),
                             np.array([4, 4, 9]),
                             np.array([4, 17, 9]))
    cases["self_loop_dup"] = normalized_block_adjacency(self_block,
                                                        self_loops=True)

    # Zero-degree (disconnected) rows without the self-loop rescue.
    sparse_block = build_block(np.array([1, 2, 3, 5]),
                               np.array([2, 2]),
                               np.array([30, 31]))
    cases["zero_rows"] = normalized_block_adjacency(sparse_block,
                                                    self_loops=False)

    # Entirely empty operator (a batch whose fanout sampled nothing).
    empty_block = build_block(np.array([7, 8]),
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64))
    cases["empty"] = normalized_block_adjacency(empty_block,
                                                self_loops=False)

    # Hand-built weighted rectangular CSR with *unsorted* rows and
    # non-uniform float weights (nothing guarantees sorted columns).
    cases["rect_weighted"] = KernelCSR(
        indptr=[0, 3, 3, 5, 8],
        indices=[5, 0, 2, 6, 1, 4, 4, 3],
        data=[0.5, -1.25, 2.0, 0.75, -0.125, 1.5, 0.25, 3.0],
        shape=(4, 7))
    return cases


def coo_cases():
    """Named COO edge lists (GAT layout: loops appended last)."""
    block = _block(seed=11)
    edge_dst = np.repeat(np.arange(block.num_dst, dtype=np.int64),
                         block.degrees())
    loops = np.arange(block.num_dst, dtype=np.int64)
    return {
        "gat_block": KernelCOO(
            np.concatenate([edge_dst, loops]),
            np.concatenate([block.indices, loops]),
            (block.num_dst, block.num_src)),
        "empty": KernelCOO(np.empty(0, dtype=np.int64),
                           np.empty(0, dtype=np.int64), (3, 5)),
        "repeated_edges": KernelCOO([0, 2, 0, 0, 1],
                                    [1, 3, 1, 2, 0], (3, 4)),
    }


@pytest.fixture(params=sorted(csr_cases()))
def csr_case(request):
    """One named CSR adjacency per parametrized run."""
    return csr_cases()[request.param]


@pytest.fixture(params=sorted(coo_cases()))
def coo_case(request):
    """One named COO adjacency per parametrized run."""
    return coo_cases()[request.param]


def have_scipy():
    """True when scipy is importable (try-import, not ``find_spec``,
    so collection survives ``sys.meta_path`` import blockers)."""
    try:
        import scipy.sparse  # noqa: F401
    except ImportError:
        return False
    return True


def backend_params():
    """Every backend name importable here."""
    from repro.kernels import available_backends
    return available_backends()
