"""Trace-fingerprint gate for the workload generators.

Generator rewrites (vectorized frontier expansion, faster lane emitters)
are pure optimizations: the emitted ``KernelTrace`` must not change by a
single lane address.  This gate pins every benchmark's TINY trace, plus
``bfs`` at QUICK and PAPER, against committed sha256 fingerprints of the
canonical JSON form (``KernelTrace.to_json_dict()``, ``sort_keys=True``).

The fixture (``tests/fixtures/trace_fingerprints.json``) must only be
regenerated when a generator's output changes intentionally (a new
workload, a modelling fix), never to absorb a refactor::

    PYTHONPATH=src python tests/test_trace_fingerprints.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.config import SimConfig
from repro.workloads.suite import Scale, benchmark_names, build_benchmark

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "trace_fingerprints.json"
)

#: (benchmark, scale name, seed) of every pinned trace.
CASES = [(name, "TINY", 1) for name in benchmark_names()] + [
    ("bfs", scale, seed) for scale in ("QUICK", "PAPER") for seed in (1, 7)
]


def _key(name: str, scale: str, seed: int) -> str:
    return f"{name}-{scale}-s{seed}"


def trace_fingerprint(trace) -> str:
    doc = json.dumps(trace.to_json_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _fingerprint(name: str, scale: str, seed: int) -> str:
    return trace_fingerprint(
        build_benchmark(name, SimConfig(), Scale[scale], seed=seed)
    )


@pytest.fixture(scope="module")
def reference() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,scale,seed", CASES, ids=[_key(*c) for c in CASES])
def test_trace_fingerprint(reference, name, scale, seed):
    key = _key(name, scale, seed)
    assert key in reference, (
        f"no committed fingerprint for {key}; regenerate with "
        f"`PYTHONPATH=src python tests/test_trace_fingerprints.py --regen` "
        f"(only legitimate for intentional generator changes)"
    )
    assert _fingerprint(name, scale, seed) == reference[key], (
        f"{key}: generated trace differs from the committed fingerprint"
    )


def _regen() -> None:
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    reference = {}
    for case in CASES:
        key = _key(*case)
        reference[key] = _fingerprint(*case)
        print(f"{key:28s} {reference[key][:12]}")
    with open(FIXTURE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
