"""Golden bit-identity of the METIS stand-in's assignments.

``tests/golden/partition_refactor.json`` was generated at the commit
*before* the refinement loops moved onto an incremental connectivity
table (see ``tools/gen_golden_partition.py``).  Each entry is keyed
``method/dataset@scale/kK`` and holds the sha256 of the ``int64``
assignment under ``default_rng(0)``; every entry is recomputed here and
must match byte for byte.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import load_dataset
from repro.partition import MetisPartitioner, metis_clusters

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" \
    / "partition_refactor.json"
GOLDEN = {key: value for key, value
          in json.loads(GOLDEN_PATH.read_text()).items()
          if not key.startswith("_")}

def _digest(assignment):
    array = np.ascontiguousarray(assignment, dtype="<i8")
    return hashlib.sha256(array.tobytes()).hexdigest()


def _assignment(key):
    method, data, parts = key.split("/")
    name, scale = data.split("@")
    k = int(parts[1:])
    dataset = load_dataset(name, scale=float(scale))
    rng = np.random.default_rng(0)
    if method == "metis_clusters":
        return metis_clusters(dataset.graph, k, rng=rng)
    return MetisPartitioner(method.split("-", 1)[1]).partition(
        dataset.graph, k, split=dataset.split, rng=rng).assignment


def test_golden_covers_every_variant_dataset_and_k():
    assert len(GOLDEN) == 40
    for variant in ("v", "ve", "vet"):
        for k in (2, 4, 8):
            assert f"metis-{variant}/ogb-products@2.0/k{k}" in GOLDEN
    assert "metis_clusters/reddit@1.0/k32" in GOLDEN


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_assignment_bit_identical(key):
    assert _digest(_assignment(key)) == GOLDEN[key]
