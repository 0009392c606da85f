"""The benchmark's three workloads.

Every workload trains a model and serves it; they differ in which half
is timed and which layers it stresses:

* ``train-sage-products`` times the paper's default training recipe,
  then a short sampled-serving trace of the model it trained (no
  cache, single server);
* ``serve-sampled-arxiv`` trains a small GCN in set-up and times one
  sampled-mode server with a tiered LFU cache;
* ``fleet-crash-storm`` trains the same small GCN, builds the
  embedding table and partition in set-up, and times a 4-replica
  precomputed fleet through a crash storm.

Training metrics on the serving workloads therefore describe the
set-up's training of the served model, and serving metrics on the
training workload describe its short serving phase.

The seed drives the traffic: the request trace (arrival times and the
skewed choice of query vertices) and the serving samplers' draws.  The
training input is fixed: the datasets are the program's default
stand-ins, and training and partitioning use :data:`SYSTEM_SEED`.  The
benchmark's spread is taken across runs with different seeds, and the
training metrics depend on the training input by more than any usable
bound: with the dataset seeded per run, ``partition_s`` on the
products stand-in spread 0.53 (interquartile range over median) across
ten seeds, and the METIS stand-in's time depends on its own random
draws by up to a factor of two (README, "Workloads").

:meth:`Workload.setup` builds everything a timed repetition needs;
:meth:`Workload.run` performs one timed repetition and checks its
outputs outside the timed region.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (BatchPolicy, LoadGenerator, ServeEngine, Trainer,
                   TrainingConfig, load_dataset)
from repro.core.config import make_partitioner
from repro.fleet import FleetEngine
from repro.fleet.chaos import crash_storm
from repro.fleet.resilience import ResiliencePolicy
from repro.fleet.router import RoutingPolicy
from repro.serve.precompute import LayerwiseEmbeddings

__all__ = ["Rep", "Setup", "WORKLOADS", "SLO_S"]

#: Availability deadline: a request counts only when answered within
#: 5 ms of its arrival (the fleet chaos benchmark's definition).
SLO_S = 0.005

#: Seed of the training runs and partitions, the same for every
#: workload seed (see the module docstring).
SYSTEM_SEED = 0

# The serving policy shared by every workload: micro-batches of up to
# 16 requests, flushed after 0.5 ms, from a Zipf(0.8)-skewed trace.
POLICY = BatchPolicy(max_batch_size=16, max_wait=0.0005)
SKEW = 0.8


@dataclass
class Setup:
    """What one set-up built: the state timed repetitions read, the
    training record when set-up trains, and a digest of its outputs."""

    state: dict
    training: dict = None
    digest: str = ""
    problems: list = field(default_factory=list)


@dataclass
class Rep:
    """One timed repetition.

    ``wall_s`` is the timed wall (what the trace must cover);
    ``digest`` hashes every simulated output and must be equal across
    repetitions of one input; ``failed`` counts requests not answered
    and answers or checks that failed, out of ``attempted``.
    """

    wall_s: float
    digest: str
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    training: dict = None
    serving: dict = None
    program: dict = field(default_factory=dict)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes()
                 if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _train(dataset, config):
    """Run ``Trainer.run`` once; returns the result and its record."""
    result, wall = _timed(Trainer(dataset, config).run)
    losses = result.curve.losses
    record = {
        "train_wall_s": wall,
        "partition_s": result.partition_seconds,
        "epoch_walls": list(result.curve.wall_seconds),
        "test_accuracy": result.test_accuracy,
        "final_loss": losses[-1],
    }
    problems = [] if np.all(np.isfinite(losses)) else \
        [f"non-finite training loss {losses}"]
    digest = _digest(losses, result.curve.val_accuracies,
                     result.curve.epoch_seconds, result.test_accuracy,
                     *(p.data for p in result.model.parameters()))
    return result, record, problems, digest


def _serving_checks(report, trace, fleet):
    """Every request id is answered, rejected, shed or dropped exactly
    once.  The program reports rejections as counts, so ids are
    checked for answers and drops and the counts must add up."""
    problems = []
    ids = [r.request.request_id for r in report.responses]
    answered = set(ids)
    if len(answered) != len(ids):
        problems.append(f"{len(ids) - len(answered)} requests answered "
                        f"twice")
    if not answered <= {r.request_id for r in trace}:
        problems.append("answer for a request not in the trace")
    if fleet:
        dropped = set(report.dropped_request_ids)
        if dropped & answered:
            problems.append("request both dropped and answered")
        if len(dropped) > report.rejected:
            problems.append("more drops than rejections")
        unanswered = report.rejected
    else:
        unanswered = report.rejected + report.shed
    if report.completed != len(ids) \
            or report.completed + unanswered != len(trace):
        problems.append(
            f"accounting: {report.completed} answered + {unanswered} "
            f"unanswered != {len(trace)} arrivals")
    return problems, unanswered


def _serve(engine, trace, fleet=False, reference=None):
    """Time ``engine.run(trace)``; returns the report, its serving
    record, problems, failed count and digest."""
    report, wall = _timed(engine.run, trace)
    problems, unanswered = _serving_checks(report, trace, fleet)
    failed = unanswered + len(problems)
    if reference is not None:
        wrong = sum(1 for r in report.responses
                    if reference.get(r.request.request_id) != r.prediction)
        if wrong:
            problems.append(f"{wrong} predictions differ from the "
                            f"single-server reference")
        failed += wrong
    within = sum(1 for r in report.responses if r.latency <= SLO_S)
    record = {
        "serve_wall_s": wall,
        "req_per_s": report.completed / wall,
        "p50_ms": 1e3 * report.latency_p50,
        "p99_ms": 1e3 * report.latency_p99,
        "availability": within / len(trace),
    }
    ordered = sorted(report.responses, key=lambda r: r.request.request_id)
    digest = _digest(np.array([r.request.request_id for r in ordered]),
                     np.array([r.prediction for r in ordered]),
                     np.array([r.completion for r in ordered]),
                     report.rejected, getattr(report, "shed", 0))
    return report, record, problems, failed, digest


def _dataset(name, scale):
    """A freshly generated dataset (the in-process memo would hide its
    cost on repeated set-ups) with its lazy graph caches built, so the
    first timed repetition does not pay for them."""
    dataset = load_dataset(name, scale=scale, cache=False)
    dataset.graph.in_csr()
    dataset.graph.out_degrees
    return dataset


class Workload:
    """Base: a name, the seeds, and the spans a traced run must see.
    Sizes are class attributes so tests can shrink an instance."""

    name = ""
    default_seed = 1
    expected_spans = ()

    def setup(self, seed):
        raise NotImplementedError

    def run(self, setup):
        raise NotImplementedError


class ServedWorkload(Workload):
    """Set-up shared by both serving workloads: the ogb-arxiv stand-in
    (2,200 vertices) and a GCN trained on it for four epochs."""

    scale = 1.0
    train_epochs = 4

    def served_model(self):
        dataset = _dataset("ogb-arxiv", self.scale)
        config = TrainingConfig(model="gcn", epochs=self.train_epochs,
                                num_workers=2, batch_size=256,
                                fanout=(10, 10), seed=SYSTEM_SEED)
        return (dataset,) + _train(dataset, config)


class TrainSageProducts(Workload):
    name = "train-sage-products"
    # ~7,200 vertices, ~249k edges.
    scale = 2.0
    epochs = 8
    num_requests = 2000
    expected_spans = ("core.run", "core.eval", "partition.partition",
                      "sampling.sample", "sampling.block",
                      "kernels.gspmm", "kernels.to_scipy", "nn.forward",
                      "nn.backward", "nn.optim", "transfer.transfer",
                      "serve.loop", "serve.execute", "serve.submit",
                      "serve.ready", "serve.take")

    def config(self):
        return TrainingConfig(
            model="graphsage", partitioner="metis-ve", num_workers=4,
            fanout=(25, 10), batch_size=512, cache_policy="degree",
            cache_ratio=0.1, epochs=self.epochs, seed=SYSTEM_SEED)

    def setup(self, seed):
        dataset = _dataset("ogb-products", self.scale)
        trace = LoadGenerator(dataset.test_ids, rate=2000.0,
                              num_requests=self.num_requests, seed=seed,
                              skew=SKEW).generate()
        return Setup(state={"dataset": dataset, "trace": trace,
                            "seed": seed})

    def run(self, setup):
        s = setup.state
        result, training, problems, train_digest = _train(
            s["dataset"], self.config())
        engine = ServeEngine(s["dataset"], result.model, mode="sampled",
                             policy=POLICY, fanout=(10, 10), seed=s["seed"])
        _, serving, serve_problems, failed, serve_digest = _serve(
            engine, s["trace"])
        return Rep(wall_s=training["train_wall_s"]
                   + serving["serve_wall_s"],
                   digest=_digest(train_digest, serve_digest),
                   attempted=1 + len(s["trace"]),
                   failed=failed + len(problems),
                   problems=problems + serve_problems,
                   training=training, serving=serving)


class ServeSampledArxiv(ServedWorkload):
    name = "serve-sampled-arxiv"
    rate = 2000.0
    num_requests = 4000
    expected_spans = ("serve.loop", "serve.execute", "serve.submit",
                      "serve.ready", "serve.take", "sampling.sample",
                      "sampling.block", "kernels.gspmm",
                      "kernels.to_scipy", "nn.forward", "cache.lookup",
                      "cache.bill")

    def setup(self, seed):
        dataset, result, training, problems, digest = \
            self.served_model()
        trace = LoadGenerator(dataset.test_ids, rate=self.rate,
                              num_requests=self.num_requests, seed=seed,
                              skew=SKEW).generate()
        return Setup(state={"dataset": dataset, "model": result.model,
                            "trace": trace, "seed": seed},
                     training=training, digest=digest, problems=problems)

    def run(self, setup):
        s = setup.state
        # A fresh engine per repetition: its LFU cache learns during a
        # run, so a reused engine would start the next run warm.
        engine = ServeEngine(s["dataset"], s["model"], mode="sampled",
                             policy=POLICY, fanout=(10, 10),
                             cache_policy="lfu", cache_ratio=0.1,
                             warm_ratio=0.1, seed=s["seed"])
        _, serving, problems, failed, digest = _serve(engine, s["trace"])
        return Rep(wall_s=serving["serve_wall_s"], digest=digest,
                   attempted=len(s["trace"]), failed=failed,
                   problems=problems, serving=serving)


class FleetCrashStorm(ServedWorkload):
    name = "fleet-crash-storm"
    rate = 100_000.0
    num_requests = 6000
    num_replicas = 4
    expected_spans = ("fleet.loop", "fleet.route", "fleet.poll",
                      "fleet.dispatch", "fleet.percentile",
                      "fleet.route_hedge", "precompute.head",
                      "cache.lookup", "serve.execute", "serve.submit",
                      "serve.take")

    def __init__(self):
        self._references = {}

    def setup(self, seed):
        dataset, result, training, problems, digest = \
            self.served_model()
        partition = make_partitioner("metis-v").partition(
            dataset.graph, self.num_replicas, split=dataset.split,
            rng=np.random.default_rng(SYSTEM_SEED))
        training["partition_s"] += partition.seconds
        trace = LoadGenerator(dataset.test_ids, rate=self.rate,
                              num_requests=self.num_requests, seed=seed,
                              skew=SKEW).generate()
        span = trace[-1].arrival
        embeddings = LayerwiseEmbeddings(result.model, dataset.graph,
                                         dataset.features)
        # The chaos benchmark's storm: two replicas crash 5% of the
        # trace apart, a quarter of the way in, for 35% of it.
        storm = crash_storm(self.num_replicas, start=0.25 * span,
                            down=0.35 * span, count=2,
                            spacing=0.05 * span)
        common = dict(mode="precomputed", policy=POLICY, max_queue=512,
                      cache_policy="lfu", cache_ratio=0.1,
                      warm_ratio=0.1, seed=seed, embeddings=embeddings)
        engine = FleetEngine(
            dataset, result.model, partition=partition, schedule=storm,
            replication=2, resilience=ResiliencePolicy(),
            routing=RoutingPolicy(spill_threshold=64, remote_penalty=8.0),
            **common)
        state = {"dataset": dataset, "model": result.model,
                 "trace": trace, "engine": engine, "common": common,
                 "seed": seed}
        return Setup(state=state, training=training, digest=digest,
                     problems=problems)

    def reference(self, s):
        """Single-server predictions for the trace, computed on first
        use outside every timed region.  Set-ups are checked to be
        identical, so later set-ups reuse the first one's answers."""
        if s["seed"] not in self._references:
            report = ServeEngine(s["dataset"], s["model"],
                                 **s["common"]).run(s["trace"])
            self._references[s["seed"]] = {
                r.request.request_id: r.prediction
                for r in report.responses}
        return self._references[s["seed"]]

    def run(self, setup):
        s = setup.state
        reference = self.reference(s)
        report, serving, problems, failed, digest = _serve(
            s["engine"], s["trace"], fleet=True, reference=reference)
        return Rep(wall_s=serving["serve_wall_s"], digest=digest,
                   attempted=len(s["trace"]), failed=failed,
                   problems=problems, serving=serving,
                   program=dict(report.resilience,
                                routing_locality=report.routing_locality))


WORKLOADS = {w.name: w for w in (TrainSageProducts(), ServeSampledArxiv(),
                                 FleetCrashStorm())}
