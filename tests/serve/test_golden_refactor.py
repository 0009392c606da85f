"""Golden bit-identity of the single-server serving engine.

``tests/golden/serve_refactor.json`` was generated at the commit
*before* ``ServeEngine`` lost its own event loop and became a 1-replica
``FleetEngine`` (see ``tools/gen_golden_serve.py``, whose grid and
recipe this test reuses).  Every entry -- mode x cache x batch policy,
plus the bounded-queue, deadline and fallback cases -- is recomputed
here: the ``ServeReport`` and every answer must match bit for bit.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = {key: value for key, value in json.loads(
              (ROOT / "tests" / "golden" / "serve_refactor.json")
              .read_text()).items()
          if not key.startswith("_")}

_spec = importlib.util.spec_from_file_location(
    "gen_golden_serve", ROOT / "tools" / "gen_golden_serve.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)
CASES = dict(gen.cases())


@pytest.fixture(scope="module")
def inputs():
    return gen.inputs()


def test_golden_covers_the_grid():
    assert set(GOLDEN) == set(CASES)
    assert len(GOLDEN) == 3 * 5 * 2 + 3


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_serve_report_bit_identical(inputs, key):
    assert gen.fingerprint(*inputs, CASES[key]) == GOLDEN[key]
