#!/usr/bin/env python
"""Regenerate the partitioner-refactor golden fingerprints.

``tests/golden/partition_refactor.json`` pins the exact assignment
arrays of the METIS stand-in: every Metis variant (V, VE, VET) on four
dataset stand-ins at ``k`` in {2, 4, 8}, plus ``metis_clusters`` at 32
clusters, all seeded with ``default_rng(0)``.  Each entry is the sha256
of the ``int64`` assignment bytes, keyed ``method/dataset@scale/kK``.
``tests/partition/test_golden_refactor.py`` recomputes every entry, so
a performance rewrite of the partitioner must reproduce every
assignment byte for byte.

Run from the repo root::

    PYTHONPATH=src python tools/gen_golden_partition.py

Only regenerate the file for an *intentional* change of the
partitioner's output, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import load_dataset
from repro.partition import MetisPartitioner, metis_clusters

OUT = Path(__file__).resolve().parents[1] / "tests" / "golden" \
    / "partition_refactor.json"

DATASETS = (("ogb-arxiv", 1.0), ("reddit", 1.0), ("ogb-products", 1.0),
            ("ogb-products", 2.0))
VARIANTS = ("v", "ve", "vet")
PARTS = (2, 4, 8)
CLUSTERS = 32


def digest(assignment):
    """sha256 of an assignment's raw little-endian ``int64`` bytes."""
    array = np.ascontiguousarray(assignment, dtype="<i8")
    return hashlib.sha256(array.tobytes()).hexdigest()


def cases():
    """Every ``(key, method, dataset, scale, k)`` the golden file pins;
    ``method`` is ``"metis-<variant>"`` or ``"metis_clusters"``."""
    out = []
    for name, scale in DATASETS:
        methods = [(f"metis-{v}", k) for v in VARIANTS for k in PARTS]
        methods.append(("metis_clusters", CLUSTERS))
        for method, k in methods:
            key = f"{method}/{name}@{scale}/k{k}"
            out.append((key, method, name, scale, k))
    return out


def assignment_for(method, name, scale, k):
    """Recompute one pinned assignment."""
    dataset = load_dataset(name, scale=scale)
    rng = np.random.default_rng(0)
    if method == "metis_clusters":
        return metis_clusters(dataset.graph, k, rng=rng)
    variant = method.split("-", 1)[1]
    return MetisPartitioner(variant).partition(
        dataset.graph, k, split=dataset.split, rng=rng).assignment


def main():
    golden = {"_comment": "sha256 of int64 METIS assignments; see "
                          "tools/gen_golden_partition.py."}
    for key, method, name, scale, k in cases():
        golden[key] = digest(assignment_for(method, name, scale, k))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
