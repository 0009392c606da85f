"""The serving event loop: N replicas, one shard each, one router.

:class:`FleetEngine` is the repo's only serving event loop, a
discrete-event simulation of micro-batched inference on the simulated
clock; the single server (:class:`~repro.serve.engine.ServeEngine`) is
its 1-replica case.

* each replica owns one shard of a :mod:`repro.partition` result and
  runs its own :class:`~repro.serve.batcher.MicroBatcher` +
  :class:`~repro.fleet.replica.ShardExecutor` (remote rows billed over
  the network), with optional deadline shedding and the ``sampled``
  mode's degraded fallback;
* the :class:`~repro.fleet.router.Router` sends every request to the
  owner of its seed vertex, spilling/failing over by penalized queue
  depth;
* optional queue-depth autoscaling
  (:class:`~repro.fleet.router.Autoscaler`) and crash faults (queued
  requests of a dead replica are re-routed after a
  :class:`~repro.faults.RetryPolicy` detection timeout — the serving
  reuse of the training stack's fault model);
* an optional resilience layer (:mod:`repro.fleet.resilience`):
  phi-accrual failure detection re-routing orphans at *suspicion* time
  (~1 ms) instead of the 10 ms retry timeout, per-replica circuit
  breakers, p95-delay hedged requests with first-response-wins
  cancellation, per-request retry budgets, k-replicated shard
  ownership (``replication=k``), checkpointed cache recovery, and
  straggler/slowlink windows from a :class:`FleetSchedule`.  Every
  mechanism defaults off, and the off path is bit-identical to the
  baseline engine.

The loop's event order at equal times is faults, then arrivals and
re-submissions, then dispatches.  Every request ends exactly once:
answered, rejected (dropped ones included), or shed.  Answers in
``precomputed`` mode are row-wise
(:meth:`~repro.serve.precompute.LayerwiseEmbeddings.rowwise_logits`)
and therefore *bit-identical* to the single server's for the same
trace, regardless of how routing re-batched the requests — the
fleet-vs-single-server invariant the benchmark asserts.
"""

from __future__ import annotations

import bisect
import heapq

import numpy as np

from ..analysis.sanitize import check_accounting, check_readiness
from ..core.config import make_partitioner
from ..errors import FleetError, ServingError
from ..faults.retry import RetryPolicy
from ..partition.base import PartitionResult
from ..partition.replication import k_redundant_replication
from ..perf import FLAGS, PERF, StageProfiler
from ..perf.profiler import percentile
from ..serve.batcher import BatchPolicy
from ..serve.executor import SERVE_MODES
from ..serve.precompute import LayerwiseEmbeddings, head_memo
from ..transfer.hardware import DEFAULT_SPEC
from ..transfer.tiered import TieredCache
from .metrics import FleetReport, _latency_fields
from .replica import ReplicaServer, ShardExecutor
from .resilience import (CircuitBreaker, FailureDetector, FleetSchedule,
                         ReplicaRecovery, ResiliencePolicy)
from .router import Autoscaler, Router
from .shards import ShardMap

__all__ = ["FleetEngine"]


class FleetEngine:
    """Multi-replica online inference over one partitioned graph.

    Parameters
    ----------
    dataset, model:
        The :class:`~repro.graph.datasets.Dataset` being served and a
        trained block-stack model (``GCN``/``GraphSAGE``; ``sampled``
        mode also accepts ``GAT``).
    partition:
        Either a :class:`~repro.partition.base.PartitionResult` (its
        part count fixes the fleet size) or a partitioner name from
        :func:`~repro.core.config.make_partitioner` ("hash",
        "metis-v", ...), in which case ``num_replicas`` is required and
        the partition is computed here.
    num_replicas:
        Fleet size; only needed (and then required) when ``partition``
        is a name.
    mode, policy, max_queue, fanout, cache_policy, cache_ratio,
    warm_ratio, cache_scores, spec, seed, embeddings:
        As documented on :class:`~repro.serve.engine.ServeEngine` —
        applied per replica (each replica gets its own cache with the
        same budgets; ``cache_ratio`` remains a fraction of the *full*
        row universe).  A precomputed/full embedding table is built
        once and shared by every replica.
    deadline, fallback:
        Per-request deadline in simulated seconds, and the ``sampled``
        mode's degraded fallback (needs a deadline): see
        :meth:`~repro.fleet.replica.ReplicaServer.dispatch`.
    routing:
        A :class:`~repro.fleet.router.RoutingPolicy` (default:
        owner-first, no spillover).
    autoscale:
        Optional :class:`~repro.fleet.router.AutoscalePolicy`; when
        given, replicas beyond ``min_replicas`` start deactivated and
        the queue-depth signal drives the active set.
    crashes:
        Crash-fault schedule: iterable of ``(time, replica_id,
        down_seconds)`` triples.  A crashed replica's queued requests
        are re-routed after ``retry.timeout`` simulated seconds (the
        failure-detection delay) — or at the failure detector's
        *suspicion* instant when ``resilience`` wires one in — and it
        rejoins, empty-queued, at ``time + down_seconds``.
    retry:
        The :class:`~repro.faults.RetryPolicy` whose ``timeout`` models
        failure detection; default :class:`RetryPolicy()`.
    resilience:
        Optional :class:`~repro.fleet.resilience.ResiliencePolicy`
        bundling the failure detector, circuit breakers, hedging, and
        the retry budget.  ``None`` (default) is the PR 7 baseline,
        bit for bit.
    schedule:
        Optional :class:`~repro.fleet.resilience.FleetSchedule` (or a
        ``faults.plan`` spec string / :class:`FaultPlan`): its crash
        events merge with ``crashes`` and its straggler/slowlink
        windows scale dispatch service times.
    recovery:
        Optional :class:`~repro.fleet.resilience.ReplicaRecovery` (or
        a directory path): snapshots every replica's tiered cache on a
        cadence; a crash then cold-starts the cache and recovery
        re-warms it from the newest valid snapshot.
    replication:
        Optional redundancy factor ``k``: the partition is extended via
        :func:`~repro.partition.replication.k_redundant_replication`
        so every vertex has a primary + ``k-1`` backups and the router
        fails over to a backup holder (which serves from its local
        copy) the moment the owner is unavailable.  ``k=1`` (or
        ``None``) keeps single ownership.
    """

    def __init__(self, dataset, model, partition="metis-v",
                 num_replicas=None, mode="precomputed", policy=None,
                 max_queue=None, fanout=(10, 10), cache_policy="lru",
                 cache_ratio=0.0, warm_ratio=0.0, cache_scores=None,
                 spec=None, seed=0, embeddings=None, routing=None,
                 autoscale=None, crashes=(), retry=None,
                 resilience=None, schedule=None, recovery=None,
                 replication=None, deadline=None, fallback=False):
        if mode not in SERVE_MODES:
            raise ServingError(
                f"unknown serve mode {mode!r}; known: {SERVE_MODES}")
        if deadline is not None and deadline <= 0:
            raise ServingError(
                f"deadline must be positive, got {deadline}")
        if fallback and mode != "sampled":
            raise ServingError(
                "fallback degradation only applies to 'sampled' mode "
                f"(mode {mode!r} already serves from the table)")
        if fallback and deadline is None:
            raise ServingError(
                "fallback degradation needs a deadline to degrade "
                "against")
        if isinstance(partition, PartitionResult):
            if num_replicas is not None \
                    and num_replicas != partition.num_parts:
                raise FleetError(
                    f"num_replicas={num_replicas} but the partition "
                    f"has {partition.num_parts} parts")
        else:
            if num_replicas is None:
                raise FleetError(
                    "num_replicas is required when partition is a "
                    "method name")
            partition = make_partitioner(partition).partition(
                dataset.graph, num_replicas, split=dataset.split,
                rng=np.random.default_rng(int(seed)))
        if replication is not None:
            if not 1 <= int(replication) <= partition.num_parts:
                raise FleetError(
                    f"replication must be in [1, {partition.num_parts}]"
                    f" (the fleet size), got {replication}")
            if int(replication) > 1:
                partition = k_redundant_replication(partition,
                                                    int(replication))
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.policy = policy or BatchPolicy()
        self.max_queue = max_queue
        self.spec = spec or DEFAULT_SPEC
        self.seed = int(seed)
        self.deadline = None if deadline is None else float(deadline)
        self.fallback = bool(fallback)
        self.shards = ShardMap(partition, dataset.graph)
        self.num_replicas = self.shards.num_shards
        self.routing = routing
        self.autoscale = autoscale
        self.retry = retry or RetryPolicy()
        if resilience is not None \
                and not isinstance(resilience, ResiliencePolicy):
            raise FleetError(
                f"resilience must be a ResiliencePolicy, got "
                f"{type(resilience).__name__}")
        self.resilience = resilience
        self.schedule = None
        if schedule is not None:
            self.schedule = schedule \
                if isinstance(schedule, FleetSchedule) \
                else FleetSchedule(schedule, self.num_replicas)
            crashes = list(crashes) + list(self.schedule.crashes)
        self.recovery = None
        if recovery is not None:
            self.recovery = recovery \
                if isinstance(recovery, ReplicaRecovery) \
                else ReplicaRecovery(recovery)
        self.crashes = self._check_crashes(crashes)

        # One offline table, shared: the fleet precomputes embeddings
        # once and replicates them (they are read-only), so the offline
        # cost is charged once, not per replica.
        self.embeddings = embeddings
        if (mode != "sampled" or self.fallback) \
                and self.embeddings is None:
            self.embeddings = LayerwiseEmbeddings(
                model, dataset.graph, dataset.features)
        self._executor_kwargs = dict(
            mode=mode, fanout=fanout, cache_policy=cache_policy,
            cache_ratio=cache_ratio, warm_ratio=warm_ratio,
            cache_scores=cache_scores, spec=self.spec,
            embeddings=self.embeddings, need_embeddings=self.fallback)
        # Built here so a bad cache configuration fails at construction;
        # every run() then starts from fresh replicas.
        self._build_replicas()

    def _check_crashes(self, crashes):
        events = []
        for event in crashes:
            time, replica_id, down = event
            if not 0 <= replica_id < self.num_replicas:
                raise FleetError(
                    f"crash fault names replica {replica_id}; the "
                    f"fleet has {self.num_replicas}")
            if time < 0 or down <= 0:
                raise FleetError(
                    f"crash fault needs time >= 0 and down_seconds > 0,"
                    f" got {event}")
            events.append((float(time), int(replica_id), float(down)))
        return sorted(events)

    def _build_replicas(self):
        """Fresh replicas (cold caches, empty queues) for one run."""
        self.replicas = [
            ReplicaServer(
                i, self.shards,
                ShardExecutor(self.shards, i, self.dataset, self.model,
                              **self._executor_kwargs),
                policy=self.policy, max_queue=self.max_queue,
                seed=self.seed, deadline=self.deadline,
                fallback=self.fallback)
            for i in range(self.num_replicas)]
        return self.replicas

    # ------------------------------------------------------------------
    # The simulated-time fleet loop
    # ------------------------------------------------------------------
    def run(self, requests):
        """Serve a request trace (sorted by arrival); returns a
        :class:`~repro.fleet.metrics.FleetReport`.  Precomputed answers
        are memoized per vertex for this run only, shared by every
        replica (:func:`~repro.serve.precompute.head_memo`)."""
        was_training = self.model.training
        self.model.eval()
        try:
            with head_memo(self.embeddings):
                return self._run(list(requests))
        finally:
            self.model.train() if was_training else self.model.eval()

    @staticmethod
    def _hedge_delay(hedge, latencies):
        """Hedge delay from the observed latency quantile, or ``None``
        while too few completions are on record to estimate it.

        ``latencies`` must be in ascending order: the loop inserts each
        completion with ``bisect.insort``, so the quantile is an exact
        O(1) read instead of a sort per routed request."""
        if len(latencies) < hedge.min_observations:
            return None
        return max(hedge.min_delay,
                   percentile(latencies, hedge.delay_quantile,
                              presorted=True))

    def _run(self, requests):
        if not requests:
            raise ServingError("cannot serve an empty request trace")
        replicas = self._build_replicas()
        resil = self.resilience
        detector = FailureDetector(resil.detector, self.num_replicas) \
            if resil is not None and resil.detector is not None \
            else None
        breakers = [CircuitBreaker(resil.breaker) for _ in replicas] \
            if resil is not None and resil.breaker is not None \
            else None
        hedge = resil.hedge if resil is not None else None
        budget = resil.retry_budget if resil is not None else None
        recovery = self.recovery
        schedule = self.schedule
        router = Router(self.shards, replicas, self.routing,
                        breakers=breakers)
        autoscaler = Autoscaler(self.autoscale, replicas) \
            if self.autoscale is not None else None

        # Fault timeline: crashes and their recoveries — plus suspect/
        # dead/snapshot events when the resilience layer is on — one
        # heap.
        faults = []
        for seq, (time, replica_id, down) in enumerate(self.crashes):
            heapq.heappush(faults, (time, seq, "crash", replica_id,
                                    down))
        # Failover re-submissions: (due time, seq, request).
        pending = []
        pending_seq = len(self.crashes)
        if recovery is not None:
            pending_seq += 1
            heapq.heappush(faults, (recovery.snapshot_interval,
                                    pending_seq, "snapshot", -1, 0.0))

        # Hedging state (untouched when hedging is off).  With hedging
        # on, a dispatched batch's responses become *completion events*
        # — a response only "arrives" at its completion instant, so a
        # hedge fired while the primary is still in flight can win.
        hedges = []          # (fire time, seq, request)
        completions = []     # (completion time, seq, response)
        assigned = {}        # request_id -> replica ids holding a copy
        hedge_target = {}    # request_id -> the hedge copy's replica
        live = {}            # request_id -> copies not yet ended
        done_ids = set()     # requests that have ended
        latencies = []       # completed latencies, sorted -> p95 delay
        hedges_launched = 0
        hedges_won = 0
        hedges_wasted = 0
        hedges_cancelled = 0

        responses = []
        rejected = 0
        shed = 0
        requeued = 0
        budget_dropped = 0
        dropped_ids = []
        attempts = {}        # request_id -> crash re-route count
        clock = 0.0
        i, n = 0, len(requests)
        inf = float("inf")

        # Dispatch readiness, cached: ready_at[k] is replica k's
        # next_dispatch_time.  Anything that changes a replica's queue,
        # free time, liveness or drain state puts it in ``stale``; only
        # stale replicas are polled again, and all of them when the
        # fleet-wide draining flag flips.  Autoscaler decisions are
        # picked up from its event log.
        ready_at = [None] * len(replicas)
        stale = set(range(len(replicas)))
        ready_draining = False
        scale_seen = 0

        def refresh(draining):
            nonlocal ready_draining, scale_seen
            if draining != ready_draining:
                ready_draining = draining
                stale.update(range(len(replicas)))
            if autoscaler is not None:
                for event in autoscaler.events[scale_seen:]:
                    stale.add(event[2])
                scale_seen = len(autoscaler.events)
            for replica_id in stale:
                ready_at[replica_id] = \
                    replicas[replica_id].next_dispatch_time(draining)
            stale.clear()
            if FLAGS.sanitize:
                check_readiness(replicas, ready_at, draining)

        def finish(request, outcome, response=None):
            """End one copy of ``request`` as ``outcome`` ("answered",
            "rejected", "dropped" or "shed"); returns whether that ended
            the request.  A hedged request ends with its first answer,
            or with its last copy when none answered, so every request
            is counted exactly once."""
            nonlocal rejected, shed
            rid = request.request_id
            if hedge is not None:
                if rid in done_ids:
                    return False
                live[rid] -= 1
                if outcome != "answered" and live[rid]:
                    return False
                done_ids.add(rid)
            if outcome == "answered":
                responses.append(response)
            elif outcome == "shed":
                shed += 1
            else:
                rejected += 1
                if outcome == "dropped":
                    dropped_ids.append(rid)
            return True

        def route_in(request):
            nonlocal pending_seq
            if hedge is not None:
                if request.request_id in done_ids:
                    return  # a hedge twin already ended it
                live.setdefault(request.request_id, 1)
            try:
                replica, is_owner = router.route(request, now=clock)
            except FleetError:
                # Every replica is down: open-loop load cannot wait
                # for the cluster — the request is lost (dropped, and
                # surfaced as such in the report).
                finish(request, "dropped")
                return
            stale.add(replica.replica_id)
            if not replica.submit(request, is_owner):
                finish(request, "rejected")
                return
            if hedge is not None:
                copies = assigned.setdefault(request.request_id, [])
                copies.append(replica.replica_id)
                if len(copies) == 1:
                    delay = self._hedge_delay(hedge, latencies)
                    if delay is not None:
                        pending_seq += 1
                        heapq.heappush(hedges, (clock + delay,
                                                pending_seq, request))

        while True:
            draining = i >= n and not pending
            t_arrival = requests[i].arrival if i < n else inf
            t_pending = pending[0][0] if pending else inf
            t_fault = faults[0][0] if faults else inf
            t_hedge = hedges[0][0] if hedges else inf
            t_completion = completions[0][0] if completions else inf
            refresh(draining)
            t_dispatch = min((t_r for t_r in ready_at if t_r is not None),
                             default=inf)
            t = min(t_arrival, t_pending, t_fault, t_hedge,
                    t_completion, t_dispatch)
            if t == inf:
                break
            clock = max(clock, t)

            # 1. Faults due now: crash (drain + schedule failover and
            # recovery) and recovery events; with the resilience layer
            # also suspicion/death declarations and cache snapshots.
            while faults and faults[0][0] <= clock:
                _, _, kind, replica_id, down = heapq.heappop(faults)
                replica = replicas[replica_id] if replica_id >= 0 \
                    else None
                if kind == "crash":
                    if not replica.alive:
                        continue
                    orphans = replica.crash(clock, down,
                                            cold=recovery is not None)
                    stale.add(replica_id)
                    if detector is not None:
                        # The detector suspects the silence an order of
                        # magnitude before the retry timeout would.
                        due = detector.suspect_at(replica_id, clock)
                    else:
                        # The router notices the dead node only after
                        # the retry policy's detection timeout; the
                        # orphaned requests re-enter routing then.
                        due = clock + self.retry.timeout
                    for orphan in orphans:
                        if budget is not None:
                            count = attempts.get(orphan.request_id,
                                                 0) + 1
                            attempts[orphan.request_id] = count
                            if count > budget:
                                # Retry budget exhausted: bound the
                                # amplification, drop the request.
                                if finish(orphan, "dropped"):
                                    budget_dropped += 1
                                continue
                        pending_seq += 1
                        heapq.heappush(pending,
                                       (due, pending_seq, orphan))
                    requeued += len(orphans)
                    heapq.heappush(faults, (clock + down, pending_seq,
                                            "recover", replica_id, 0.0))
                    if detector is not None:
                        pending_seq += 1
                        heapq.heappush(faults, (due, pending_seq,
                                                "suspect", replica_id,
                                                0.0))
                        pending_seq += 1
                        heapq.heappush(
                            faults,
                            (detector.dead_at(replica_id, clock),
                             pending_seq, "dead", replica_id, 0.0))
                elif kind == "recover":
                    replica.recover(clock)
                    stale.add(replica_id)
                    if detector is not None:
                        detector.heartbeat(replica_id, clock)
                    if recovery is not None:
                        # Re-warm the cold cache from the newest valid
                        # snapshot (falls back to the previous one if
                        # the last save was torn by the crash).
                        recovery.restore(replica)
                elif kind == "suspect":
                    if not replica.alive:
                        detector.suspicions += 1
                        if breakers is not None:
                            breakers[replica_id].trip(clock)
                elif kind == "dead":
                    if not replica.alive:
                        detector.deaths_declared += 1
                        if autoscaler is not None:
                            autoscaler.replace(clock, replica_id)
                else:  # snapshot
                    for target in replicas:
                        if target.alive:
                            recovery.save(target, clock)
                    if i < n or pending:
                        pending_seq += 1
                        heapq.heappush(
                            faults,
                            (clock + recovery.snapshot_interval,
                             pending_seq, "snapshot", -1, 0.0))

            # 1b. Response arrivals (hedge mode only): a response lands
            # at its *completion* instant — the first copy back wins,
            # a later twin is wasted work, and the winner cancels any
            # copy still queued elsewhere.
            while completions and completions[0][0] <= clock:
                _, _, response = heapq.heappop(completions)
                if not finish(response.request, "answered", response):
                    hedges_wasted += 1
                    continue
                bisect.insort(latencies, response.completion
                              - response.request.arrival)
                rid = response.request.request_id
                if hedge_target.get(rid) is None:
                    continue
                if response.replica == hedge_target[rid]:
                    hedges_won += 1
                for other in assigned.get(rid, []):
                    if other == response.replica:
                        continue
                    if replicas[other].batcher.cancel(rid):
                        stale.add(other)
                        hedges_cancelled += 1

            # 2. Arrivals and failover re-submissions due now, merged
            # in time order (ties: original arrivals first).
            while (i < n and requests[i].arrival <= clock) \
                    or (pending and pending[0][0] <= clock):
                take_arrival = i < n and requests[i].arrival <= clock \
                    and (not pending
                         or requests[i].arrival <= pending[0][0])
                if take_arrival:
                    request = requests[i]
                    i += 1
                else:
                    _, _, request = heapq.heappop(pending)
                route_in(request)
                if autoscaler is not None:
                    autoscaler.evaluate(clock)

            # 2b. Hedge timers due now: launch a second copy of any
            # still-unanswered request on a replica not already holding
            # one (opportunistic — silently skipped when impossible).
            while hedges and hedges[0][0] <= clock:
                _, _, request = heapq.heappop(hedges)
                rid = request.request_id
                if rid in done_ids:
                    continue
                routed = router.route_hedge(
                    request, set(assigned.get(rid, [])), now=clock)
                if routed is None:
                    continue
                replica, is_owner = routed
                stale.add(replica.replica_id)
                if not replica.submit(request, is_owner):
                    continue
                assigned[rid].append(replica.replica_id)
                live[rid] += 1
                hedge_target[rid] = replica.replica_id
                hedges_launched += 1

            # 3. Dispatches ready now: one batch per ready replica, in
            # replica-id order.  With hedging, responses are deferred
            # to completion events (step 1b) so an in-flight primary
            # can still lose to a faster hedge twin.
            draining = i >= n and not pending
            refresh(draining)
            for replica_id, t_r in enumerate(ready_at):
                if t_r is not None and t_r <= clock:
                    replica = replicas[replica_id]
                    stale.add(replica_id)
                    if schedule is not None:
                        straggle, slowlink = schedule.multipliers(
                            replica.replica_id, clock)
                        batch = replica.dispatch(clock,
                                                 straggle=straggle,
                                                 slowlink=slowlink)
                    else:
                        batch = replica.dispatch(clock)
                    for request in replica.last_shed:
                        finish(request, "shed")
                    if breakers is not None:
                        breakers[replica.replica_id].record_success(
                            clock)
                    if hedge is None:
                        for response in batch:
                            finish(response.request, "answered",
                                   response)
                    else:
                        for response in batch:
                            pending_seq += 1
                            heapq.heappush(completions,
                                           (response.completion,
                                            pending_seq, response))
                    PERF.count("fleet_batches")
            if autoscaler is not None:
                autoscaler.finalize_drains(clock)

        # A schedule alone (crash/straggler windows) adds no counters of
        # its own, and leaving the field None keeps a schedule-driven
        # baseline run report-identical to the legacy crashes= path.
        resilience_stats = None
        if resil is not None or recovery is not None \
                or self.shards.replicated:
            resilience_stats = {
                "suspicions": detector.suspicions if detector else 0,
                "deaths_declared":
                    detector.deaths_declared if detector else 0,
                "mean_detection_delay":
                    detector.mean_detection_delay if detector
                    else None,
                "hedges_launched": hedges_launched,
                "hedges_won": hedges_won,
                "hedges_wasted": hedges_wasted,
                "hedges_cancelled": hedges_cancelled,
                "breaker_trips":
                    sum(b.trips for b in breakers) if breakers else 0,
                "breaker_half_opens":
                    sum(b.half_opens for b in breakers)
                    if breakers else 0,
                "backup_routed": router.backup_routed,
                "retry_budget_drops": budget_dropped,
                "snapshots": recovery.snapshots if recovery else 0,
                "recoveries": recovery.recoveries if recovery else 0,
                "cold_recoveries":
                    recovery.cold_recoveries if recovery else 0,
            }

        check_accounting(responses, dropped_ids, rejected, shed, n)
        PERF.count("fleet_requests", len(responses))
        return self._report(n, responses, rejected, shed, requeued,
                            router, autoscaler, replicas, dropped_ids,
                            resilience_stats)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, num_requests, responses, rejected, shed, requeued,
                router, autoscaler, replicas, dropped_ids=(),
                resilience_stats=None):
        merged = StageProfiler()
        for replica in replicas:
            merged.merge(replica.metrics)

        labels = self.dataset.labels
        correct = sum(int(r.prediction == labels[r.request.vertex])
                      for r in responses)
        completed = len(responses)
        duration = max(r.completion for r in responses) \
            if responses else 0.0

        zero_remote = sum(r.zero_remote_completed for r in replicas)
        local_rows = sum(r.executor.local_rows for r in replicas)
        remote_rows = sum(r.executor.remote_rows for r in replicas)
        total_rows = local_rows + remote_rows

        hits = {"hot": 0, "warm": 0, "flat": 0}
        lookups = 0
        tiered = False
        for replica in replicas:
            cache = replica.executor.cache
            if isinstance(cache, TieredCache):
                tiered = True
                hits["hot"] += cache.hot_hits
                hits["warm"] += cache.warm_hits
                lookups += cache.requests
            elif cache is not None:
                hits["flat"] += cache.hits
                lookups += cache.hits + cache.misses
        if tiered:
            hot_rate = hits["hot"] / lookups if lookups else 0.0
            warm_rate = hits["warm"] / lookups if lookups else 0.0
            hit_rate = hot_rate
        else:
            hot_rate = hit_rate = (hits["flat"] / lookups
                                   if lookups else 0.0)
            warm_rate = 0.0

        precompute = replicas[0].executor.precompute_seconds \
            if replicas else 0.0
        active_max = autoscaler.active_max if autoscaler is not None \
            else self.num_replicas
        return FleetReport(
            mode=self.mode,
            policy=self.policy.describe(),
            partitioner=self.shards.partition.method,
            num_replicas=self.num_replicas,
            num_requests=num_requests,
            completed=completed,
            rejected=rejected,
            spillovers=router.spillovers,
            failovers=router.failovers,
            requeued=requeued,
            duration_seconds=duration,
            throughput=completed / duration if duration else 0.0,
            **_latency_fields(merged.summary("latency")),
            bp_seconds=sum(r.bp_seconds for r in replicas),
            dt_seconds=sum(r.dt_seconds for r in replicas),
            nn_seconds=sum(r.nn_seconds for r in replicas),
            remote_seconds=sum(r.executor.remote_seconds
                               for r in replicas),
            precompute_seconds=precompute,
            accuracy=correct / completed if completed else 0.0,
            routing_locality=(zero_remote / completed
                              if completed else 1.0),
            remote_row_fraction=(remote_rows / total_rows
                                 if total_rows else 0.0),
            cache_hit_rate=hit_rate,
            hot_hit_rate=hot_rate,
            warm_hit_rate=warm_rate,
            cache_policy=self._executor_kwargs["cache_policy"],
            scale_events=list(autoscaler.events)
            if autoscaler is not None else [],
            replicas_active_max=active_max,
            dropped=len(dropped_ids),
            dropped_request_ids=list(dropped_ids),
            shed=shed,
            degraded=sum(1 for r in responses if r.degraded),
            replication_factor=self.shards.replication_factor(),
            resilience=resilience_stats,
            replicas=[r.report() for r in replicas],
            responses=responses,
        )
