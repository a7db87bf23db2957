"""Golden fingerprint of the placement layer.

The other placer tests compare two runs of the same tree; this one pins
what the tree produces.  It hashes one top-down placement of ``tiny01``
(placer seed 3) and every Table IV instance derived from it: the block
hypergraph's flat buffers (names included), its fixture sets, its
terminal ids and its Table IV row.

Regenerate the golden file after an intentional change to the placer or
to the Section IV derivation::

    PYTHONPATH=src python tests/placement/test_golden_placement.py --regen
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.circuits import load_circuit
from repro.placement import build_suite

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny01_seed3.json"
CIRCUIT = "tiny01"
SEED = 3


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _fingerprint():
    suite = build_suite(load_circuit(CIRCUIT), CIRCUIT, seed=SEED)
    instances = {}
    for entry in suite.entries:
        instance = entry.instance
        buffers = dict(sorted(instance.graph.to_buffers().items()))
        instances[instance.name] = {
            "buffers": _digest(buffers),
            "fixture_sets": _digest(
                [None if fs is None else sorted(fs)
                 for fs in instance.fixture_sets]
            ),
            "pad_vertices": _digest(instance.pad_vertices),
            "row": entry.parameters.format_row(),
        }
    return {
        "positions": _digest(suite.placement.positions),
        "hpwl": repr(suite.placement.half_perimeter_wirelength()),
        "instances": instances,
    }


@pytest.fixture(scope="module")
def fingerprint():
    return _fingerprint()


def test_positions_match_golden(fingerprint):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert fingerprint["positions"] == golden["positions"]
    assert fingerprint["hpwl"] == golden["hpwl"]


def test_derived_instances_match_golden(fingerprint):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert list(fingerprint["instances"]) == list(golden["instances"])
    for name, expected in golden["instances"].items():
        assert fingerprint["instances"][name] == expected, name


def _regen():
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(_fingerprint(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
