"""Runtime sanitizers: loud failure for silent numeric corruption.

Six checks, all gated on :attr:`repro.perf.flags.PerfFlags.sanitize`
and all **zero-cost when the flag is off** (hot paths guard the call
itself behind ``if FLAGS.sanitize``; the helpers additionally return
immediately):

``check_finite``
    NaN/Inf scan over activations and gradients.
``check_csr``
    Structural validation of CSR arrays — monotone non-decreasing
    ``indptr`` with matching endpoints, ``int64`` dtypes, indices in
    ``[0, n)``, optionally sorted-per-row.
``check_contract``
    Decorator pinning a function's returned array shape/dtype.
``check_readiness``
    The fleet loop's cached dispatch-readiness times against a fresh
    poll of every replica.
``check_accounting``
    The serving loop's request accounting: every request answered,
    rejected or shed exactly once.
``check_connectivity``
    The METIS refinement's incremental vertex-to-part connectivity
    table and positive-gain flags against a fresh recomputation.

They exist because the repo's strongest claims — bit-identical
crash/resume replay, atol=0 serve-path equivalence, the paper's step
breakdowns — are *numeric* invariants: a "faster" kernel that produces
a subtly malformed CSR or an Inf that washes through a softmax does not
crash, it just makes every downstream number quietly wrong.  With
``FLAGS.sanitize`` on (the whole test suite, ``repro train
--sanitize``, the CI chaos/serving smokes) such a regression dies at
the first corrupted array with a named, located error.

Violations raise :class:`~repro.errors.SanitizerError`.  Each check
bumps a ``sanitize_*`` counter on :data:`~repro.perf.profiler.PERF`, so
tests can assert the checks actually ran (or actually did not).
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import SanitizerError
from ..perf.flags import FLAGS
from ..perf.profiler import PERF

__all__ = ["check_finite", "check_csr", "check_contract",
           "check_readiness", "check_accounting", "check_connectivity",
           "sanitize_active"]


def sanitize_active():
    """True when the sanitizer flag is on (convenience for callers that
    guard larger blocks of checking code)."""
    return FLAGS.sanitize


def check_finite(array, name="array"):
    """Raise :class:`SanitizerError` if ``array`` holds NaN/Inf.

    Returns ``array`` unchanged so it can wrap expressions inline.
    Non-float dtypes pass trivially; a no-op when ``FLAGS.sanitize`` is
    off.
    """
    if not FLAGS.sanitize:
        return array
    data = array.data if hasattr(array, "data") \
        and isinstance(getattr(array, "data"), np.ndarray) else array
    data = np.asarray(data)
    if data.dtype.kind not in "fc":
        return array
    PERF.count("sanitize_finite_checks")
    if not np.isfinite(data).all():
        nans = int(np.isnan(data).sum())
        infs = int(np.isinf(data).sum())
        raise SanitizerError(
            f"{name}: non-finite values ({nans} NaN, {infs} Inf out of "
            f"{data.size} elements, shape {data.shape})")
    return array


def check_csr(indptr, indices, num_rows, name="csr",
              sorted_rows=False, num_cols=None):
    """Validate CSR structure; no-op when ``FLAGS.sanitize`` is off.

    Parameters
    ----------
    indptr, indices:
        The CSR arrays; must be ``int64``.
    num_rows:
        Row count; ``indptr`` must have ``num_rows + 1`` entries.
    name:
        Label for error messages (construction site).
    sorted_rows:
        Additionally require each row's indices to be non-decreasing
        (true for everything the sanctioned builders emit).
    num_cols:
        Column count the indices must lie in (``[0, num_cols)``).
        Defaults to ``num_rows`` — the square adjacency case; sampled
        blocks are rectangular (rows = destinations, columns =
        sources).
    """
    if not FLAGS.sanitize:
        return
    PERF.count("sanitize_csr_checks")
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    n = int(num_rows)
    cols = n if num_cols is None else int(num_cols)
    if indptr.dtype != np.int64 or indices.dtype != np.int64:
        raise SanitizerError(
            f"{name}: CSR arrays must be int64, got indptr "
            f"{indptr.dtype}, indices {indices.dtype}")
    if indptr.ndim != 1 or indices.ndim != 1:
        raise SanitizerError(f"{name}: CSR arrays must be 1-D")
    if len(indptr) != n + 1:
        raise SanitizerError(
            f"{name}: indptr has {len(indptr)} entries, expected "
            f"{n + 1} for {n} rows")
    if len(indptr) and indptr[0] != 0:
        raise SanitizerError(f"{name}: indptr[0] must be 0, "
                             f"got {int(indptr[0])}")
    if np.any(np.diff(indptr) < 0):
        raise SanitizerError(f"{name}: indptr must be non-decreasing")
    if len(indptr) and indptr[-1] != len(indices):
        raise SanitizerError(
            f"{name}: indptr[-1]={int(indptr[-1])} does not match "
            f"len(indices)={len(indices)}")
    if len(indices) and (indices.min() < 0 or indices.max() >= cols):
        raise SanitizerError(
            f"{name}: index out of range [0, {cols}): saw "
            f"[{int(indices.min())}, {int(indices.max())}]")
    if sorted_rows and len(indices) > 1:
        # A drop in the global diff is fine only at a row boundary.
        drops = np.diff(indices) < 0
        if drops.any():
            boundary = np.zeros(len(indices) - 1, dtype=bool)
            starts = indptr[1:-1]
            inside = (starts > 0) & (starts < len(indices))
            boundary[starts[inside] - 1] = True
            if np.any(drops & ~boundary):
                raise SanitizerError(
                    f"{name}: per-row indices are not sorted")


def check_readiness(replicas, ready_at, draining):
    """Validate a cached readiness table; no-op when ``FLAGS.sanitize``
    is off.

    ``ready_at[k]`` must equal ``replicas[k].next_dispatch_time(
    draining)`` exactly (``None`` for a replica with nothing to
    dispatch).  A mismatch means some event changed a replica without
    marking its cached readiness stale, so the loop would dispatch at
    the wrong simulated time.
    """
    if not FLAGS.sanitize:
        return
    PERF.count("sanitize_readiness_checks")
    for replica, cached in zip(replicas, ready_at):
        fresh = replica.next_dispatch_time(draining)
        if fresh != cached:
            raise SanitizerError(
                f"replica {replica.replica_id}: cached dispatch "
                f"readiness {cached!r} but a fresh poll gives {fresh!r}")


def check_accounting(responses, dropped_ids, rejected, shed,
                     num_requests):
    """Validate one serving run's request accounting; no-op when
    ``FLAGS.sanitize`` is off.

    Answered request ids (``responses``) must be unique, dropped ids
    unique and disjoint from the answered ones, and ``completed +
    rejected + shed`` (drops count as rejections) must equal the
    ``num_requests`` arrivals: every request ends exactly once.
    """
    if not FLAGS.sanitize:
        return
    PERF.count("sanitize_accounting_checks")
    answered = {r.request.request_id for r in responses}
    if len(answered) != len(responses):
        raise SanitizerError(
            f"{len(responses) - len(answered)} requests answered twice")
    dropped = set(dropped_ids)
    if len(dropped) != len(dropped_ids):
        raise SanitizerError(
            f"{len(dropped_ids) - len(dropped)} requests dropped twice")
    if dropped & answered:
        raise SanitizerError(
            f"requests both answered and dropped: "
            f"{sorted(dropped & answered)[:5]}")
    if len(responses) + rejected + shed != num_requests:
        raise SanitizerError(
            f"{len(responses)} answered + {rejected} rejected + {shed} "
            f"shed != {num_requests} arrivals")


def check_connectivity(adj, assignment, conn, pos):
    """Validate METIS's incremental connectivity table; no-op when
    ``FLAGS.sanitize`` is off.

    ``conn[v, p]`` must equal the total weight of row ``v`` of the CSR
    matrix ``adj`` into part ``p`` under ``assignment``, and ``pos[v]``
    must say whether some part's entry exceeds that of ``v``'s own
    part.  A mismatch means a move left a neighbor's row stale, so
    refinement would pick different moves than a fresh scan.
    """
    if not FLAGS.sanitize:
        return
    PERF.count("sanitize_connectivity_checks")
    n = adj.shape[0]
    fresh = np.zeros(conn.shape)
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    np.add.at(fresh, (rows, assignment[adj.indices]), adj.data)
    stale = np.flatnonzero(np.any(fresh != conn, axis=1))
    if len(stale):
        v = int(stale[0])
        raise SanitizerError(
            f"connectivity of vertex {v} is {conn[v].tolist()} but a "
            f"fresh scan gives {fresh[v].tolist()} ({len(stale)} stale "
            f"rows)")
    fresh_pos = fresh.max(axis=1) \
        > fresh[np.arange(n), assignment]
    wrong = np.flatnonzero(fresh_pos != pos)
    if len(wrong):
        v = int(wrong[0])
        raise SanitizerError(
            f"positive-gain flag of vertex {v} is {bool(pos[v])} but a "
            f"fresh scan gives {bool(fresh_pos[v])} ({len(wrong)} wrong "
            f"flags)")


def check_contract(shape=None, dtype=None):
    """Decorator asserting the wrapped function's returned array
    satisfies a shape/dtype contract under ``FLAGS.sanitize``.

    Parameters
    ----------
    shape:
        Tuple with ``None`` wildcards, e.g. ``(None, 128)`` = "2-D with
        128 columns".  ``None`` skips the shape check.
    dtype:
        Required dtype (anything ``np.dtype`` accepts).  ``None`` skips
        the dtype check.

    The flag is consulted per call, so tests can toggle sanitizing on a
    decorated function without re-importing.
    """
    expected_dtype = np.dtype(dtype) if dtype is not None else None

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if FLAGS.sanitize:
                PERF.count("sanitize_contract_checks")
                _check_value(result, fn.__qualname__)
            return result

        def _check_value(value, where):
            data = np.asarray(value)
            if shape is not None:
                if data.ndim != len(shape):
                    raise SanitizerError(
                        f"{where}: returned {data.ndim}-D array, "
                        f"contract requires {len(shape)}-D {shape}")
                for axis, want in enumerate(shape):
                    if want is not None and data.shape[axis] != want:
                        raise SanitizerError(
                            f"{where}: returned shape {data.shape}, "
                            f"contract requires {shape}")
            if expected_dtype is not None \
                    and data.dtype != expected_dtype:
                raise SanitizerError(
                    f"{where}: returned dtype {data.dtype}, contract "
                    f"requires {expected_dtype}")

        return wrapper

    return decorate
