#!/usr/bin/env python
"""Regenerate the serving-engine golden fingerprints.

``tests/golden/serve_refactor.json`` pins the exact output of
:class:`~repro.serve.engine.ServeEngine` over a grid of configurations:
every serve mode (sampled, full, precomputed) x five caches (none, flat
LRU, flat degree, tiered LFU with a 0.1 warm tier, tiered static) x two
batch policies, plus three extra cases -- a bounded queue
(``max_queue=4``, rejections), a tight ``deadline`` (shedding) and
sampled ``fallback=True`` (degraded answers).  Each case is the first
``run()`` of a freshly built engine on one seeded trace.

Each entry holds two sha256 digests: ``report`` over
``ServeReport.to_dict()`` as sorted JSON, and ``responses`` over the
per-response tuples ``(request_id, prediction, completion, degraded,
batch_size)`` in report order.  ``tests/serve/test_golden_refactor.py``
recomputes every entry, so a rewrite of the serving loop must
reproduce every report and every answer bit for bit.

Run from the repo root::

    PYTHONPATH=src python tools/gen_golden_serve.py

Only regenerate the file for an *intentional* change of the serving
engine's output, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import load_dataset
from repro.nn import build_model
from repro.serve import BatchPolicy, LoadGenerator, ServeEngine

OUT = Path(__file__).resolve().parents[1] / "tests" / "golden" \
    / "serve_refactor.json"

MODES = ("sampled", "full", "precomputed")
POLICIES = (BatchPolicy(max_batch_size=8, max_wait=0.001),
            BatchPolicy(max_batch_size=32, max_wait=0.004))
#: Cache name -> engine keyword arguments (``static`` scores are added
#: from the trace in :func:`inputs`).
CACHES = {
    "none": {},
    "lru": dict(cache_policy="lru", cache_ratio=0.2),
    "degree": dict(cache_policy="degree", cache_ratio=0.2),
    "lfu-warm": dict(cache_policy="lfu", cache_ratio=0.05,
                     warm_ratio=0.1),
    "static": dict(cache_policy="static", cache_ratio=0.05,
                   warm_ratio=0.1),
}
#: The three extra cases, all sampled mode under the first policy.
EXTRAS = {
    "max_queue4": dict(max_queue=4),
    "deadline": dict(deadline=0.0008),
    "fallback": dict(deadline=0.0008, fallback=True),
}


def inputs():
    """The dataset, model, trace and static cache scores every case
    serves (all seeded)."""
    dataset = load_dataset("ogb-arxiv", scale=0.15)
    model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                        rng=np.random.default_rng(7))
    trace = LoadGenerator(dataset.test_ids, rate=10000.0,
                          num_requests=200, seed=1, skew=0.8).generate()
    scores = np.zeros(dataset.graph.num_vertices)
    np.add.at(scores, [r.vertex for r in trace[:50]], 1)
    return dataset, model, trace, scores


def cases():
    """Every ``(key, engine keyword arguments)`` the golden file pins,
    without the static scores."""
    out = []
    for mode in MODES:
        for cache, kwargs in CACHES.items():
            for policy in POLICIES:
                out.append((f"{mode}/{cache}/{policy.describe()}",
                            dict(mode=mode, policy=policy, **kwargs)))
    for name, kwargs in EXTRAS.items():
        out.append((f"sampled/none/{POLICIES[0].describe()}/{name}",
                    dict(mode="sampled", policy=POLICIES[0], **kwargs)))
    return out


def _sha(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fingerprint(dataset, model, trace, scores, kwargs):
    """The two digests of one fresh engine's first run."""
    if kwargs.get("cache_policy") == "static":
        kwargs = dict(kwargs, cache_scores=scores)
    report = ServeEngine(dataset, model, fanout=(5, 5), seed=3,
                         **kwargs).run(trace)
    responses = [[r.request.request_id, r.prediction, r.completion,
                  r.degraded, r.batch_size] for r in report.responses]
    return {"report": _sha(report.to_dict()),
            "responses": _sha(responses)}


def main():
    dataset, model, trace, scores = inputs()
    golden = {"_comment": "sha256 of ServeReport.to_dict() and the "
                          "per-response tuples; see "
                          "tools/gen_golden_serve.py."}
    for key, kwargs in cases():
        golden[key] = fingerprint(dataset, model, trace, scores, kwargs)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
