"""Micro-benchmark: bit-parallel multi-source BFS vs the per-source loop.

``distance_histogram`` backs the SP-distance and hop-plot tasks.  It runs
one bit-parallel sweep (64 sources per ``uint64`` word); the oracle in
``tests/oracles/traversal.py`` runs one BFS per source.  Two gates:

* **All sources** on the ca-grqc surrogate (scale 0.1) and on a seeded
  2k-node/10k-edge Erdos-Renyi graph: the histogram must equal the
  oracle's exactly (hard), and the kernel must be at least
  ``SPEEDUP_FLOOR`` times faster (hard; ``SPEEDUP_TARGET`` is advisory).
* **Few sources**: 8 sampled sources on the same ER graph and on a
  2k-node path (diameter ~2000, so ~2000 sparse levels) must not be
  slower than the oracle (``SMALL_FLOOR``); this guards the push path
  that keeps a handful of sources from paying ``levels × 2m`` work.

The kernel side is timed best-of-``ROUNDS`` and the oracle once on the
all-sources gate (noise there only inflates the speedup); the few-source
gate times both sides best-of-``ROUNDS`` because both are milliseconds.
Numbers land in ``BENCH_PR14.json``.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import BenchReport
from repro.datasets.registry import load_dataset
from repro.graph import Graph, distance_histogram, erdos_renyi, select_source_ids

from tests.oracles.traversal import _legacy_distance_histogram

REPO_ROOT = Path(__file__).resolve().parent.parent

ACCEPT_SEED = 42
ROUNDS = 5
#: Hard CI floor vs advisory target for the all-sources speedup.
SPEEDUP_FLOOR, SPEEDUP_TARGET = 5.0, 20.0
#: Hard floor for the few-source guard: never slower than the oracle.
SMALL_FLOOR = 1.0
SMALL_SOURCES = 8


def _er_graph():
    nodes, edges = 2000, 10_000
    return erdos_renyi(nodes, 2 * edges / (nodes * (nodes - 1)), seed=ACCEPT_SEED)


def _path_graph():
    return Graph(edges=[(i, i + 1) for i in range(1999)])


GRAPHS = {
    "ca-grqc-0.1": lambda: load_dataset("ca-grqc", scale=0.1, seed=ACCEPT_SEED),
    "er-2k-10k": _er_graph,
    "path-2k": _path_graph,
}


def _record(section: str, payload: dict) -> None:
    """Merge one gate's numbers into BENCH_PR14.json (order-independent)."""
    path = REPO_ROOT / "BENCH_PR14.json"
    data = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"experiment": "micro_traversal"}
    )
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _best_of(rounds, fn):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _graph_info(name, csr):
    return {"graph": name, "nodes": csr.num_nodes, "edges": csr.num_edges, "seed": ACCEPT_SEED}


@pytest.mark.slow
@pytest.mark.parametrize("name", ["ca-grqc-0.1", "er-2k-10k"])
def test_all_sources_histogram_speedup(name, archive_report):
    csr = GRAPHS[name]().csr()
    sources = np.arange(csr.num_nodes, dtype=np.int64)
    expected, oracle_seconds = _best_of(1, lambda: _legacy_distance_histogram(csr, sources))
    histogram, kernel_seconds = _best_of(ROUNDS, lambda: distance_histogram(csr, sources))
    assert np.array_equal(histogram, expected)

    speedup = oracle_seconds / kernel_seconds
    label = f"{name} n={csr.num_nodes} m={csr.num_edges}, all sources"
    assert speedup >= SPEEDUP_FLOOR, (
        f"{label}: multi-source BFS only {speedup:.2f}x faster than the "
        f"per-source loop (hard floor {SPEEDUP_FLOOR}x)"
    )
    if speedup < SPEEDUP_TARGET:
        warnings.warn(
            f"{label}: speedup {speedup:.2f}x is below the {SPEEDUP_TARGET}x "
            "target (advisory; likely a noisy runner)",
            stacklevel=2,
        )
    report = BenchReport(
        experiment_id=f"micro_traversal_{name}",
        title=f"distance_histogram, all sources, {label}",
        headers=["engine", "seconds"],
        rows=[
            ["per-source loop (oracle)", round(oracle_seconds, 4)],
            ["bit-parallel MS-BFS", round(kernel_seconds, 5)],
        ],
        notes=[f"speedup {speedup:.1f}x; histograms equal"],
    )
    archive_report(report)
    _record(
        f"all_sources_{name}",
        {
            **_graph_info(name, csr),
            "sources": int(sources.shape[0]),
            "oracle_seconds": round(oracle_seconds, 5),
            "kernel_seconds": round(kernel_seconds, 5),
            "speedup": round(speedup, 1),
            "floor": SPEEDUP_FLOOR,
            "target": SPEEDUP_TARGET,
            "equal": True,
        },
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", ["er-2k-10k", "path-2k"])
def test_few_sources_not_slower_than_the_loop(name):
    csr = GRAPHS[name]().csr()
    sources, _ = select_source_ids(csr.num_nodes, SMALL_SOURCES, seed=ACCEPT_SEED)
    expected, oracle_seconds = _best_of(
        ROUNDS, lambda: _legacy_distance_histogram(csr, sources)
    )
    histogram, kernel_seconds = _best_of(ROUNDS, lambda: distance_histogram(csr, sources))
    assert np.array_equal(histogram, expected)

    ratio = oracle_seconds / kernel_seconds
    assert ratio >= SMALL_FLOOR, (
        f"{name}: {SMALL_SOURCES} sampled sources take {kernel_seconds * 1e3:.2f} ms "
        f"in the multi-source BFS vs {oracle_seconds * 1e3:.2f} ms in the "
        f"per-source loop (floor {SMALL_FLOOR}x)"
    )
    _record(
        f"few_sources_{name}",
        {
            **_graph_info(name, csr),
            "sources": SMALL_SOURCES,
            "oracle_seconds": round(oracle_seconds, 5),
            "kernel_seconds": round(kernel_seconds, 5),
            "ratio": round(ratio, 2),
            "floor": SMALL_FLOOR,
            "equal": True,
        },
    )
