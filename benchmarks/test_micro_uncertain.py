"""Micro-benchmark: weighted (uncertain) shedding vs the unweighted engines.

On a graph with edge probabilities, CRR/BM2 replace unit moves with
probability mass: float64 loads in Phase 1, a weighted gain heap in
Phase 2, mass-aware tracker updates throughout.  None of that changes the
asymptotics, so the acceptance gate is a constant-factor bound:

* hard CI floor: weighted wall-clock ≤ ``FLOOR_FACTOR`` (2x) the
  unweighted engine on the same topology at 2k-node / ~10k-edge ER
  (and the 10k-node profile under ``REPRO_BENCH_FULL``);
* advisory target: ``TARGET_FACTOR`` (1.5x) warns instead of failing;
* quality rider: on the probabilistic graph the weighted engine's
  expected-degree distance must come in strictly below its weight-blind
  counterpart's — speed must not be bought with the objective.

The weight-blind side sheds the stripped topology
(:func:`tests.oracles.uncertain.strip_weights`) with the same id core,
then materialises the kept ids on the weighted graph's snapshot and
scores ``Δ_E`` and ``Δ`` — the work the weighted run's ``reduce`` does,
and the work a weight-blind ``reduce`` of the weighted graph used to do.
Its kept edges are checked against
:func:`tests.oracles.uncertain.weight_blind_reduce`.

Raw wall-clocks for both engines at every profile land in
``BENCH_PR9.json`` plus a BenchReport, so ``scripts/bench_report.py``
can chart the trajectory alongside the earlier PRs' numbers.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import pytest

from repro.bench.harness import BenchReport
from repro.core import BM2Shedder, CRRShedder, compute_delta
from repro.core.bm2 import bm2_reduce_ids
from repro.core.crr import crr_reduce_ids
from repro.rng import ensure_rng
from repro.uncertain import expected_degree_distance, uncertain_erdos_renyi

from tests.oracles.uncertain import strip_weights, weight_blind_reduce

REPO_ROOT = Path(__file__).resolve().parent.parent

ACCEPT_SEED = 42
ACCEPT_P = 0.5
#: Hard CI floor vs advisory target for weighted/unweighted wall-clock.
FLOOR_FACTOR, TARGET_FACTOR = 2.0, 1.5
#: (nodes, target edges) per profile; the full profile adds 10k nodes.
QUICK_PROFILE = (2_000, 10_000)
FULL_PROFILE = (10_000, 50_000)
#: CRR is swap-bound, not edge-bound; cap its sampled betweenness so the
#: benchmark measures the weighted overhead, not exact Brandes.
CRR_SOURCES = 64

SHEDDERS = {
    "bm2": lambda: BM2Shedder(seed=ACCEPT_SEED),
    "crr": lambda: CRRShedder(seed=ACCEPT_SEED, num_betweenness_sources=CRR_SOURCES),
}


def _record(section: str, payload: dict) -> None:
    """Merge one profile's numbers into BENCH_PR9.json (order-independent)."""
    path = REPO_ROOT / "BENCH_PR9.json"
    data = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"experiment": "micro_uncertain"}
    )
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _profile_graph(nodes: int, edges: int):
    density = 2 * edges / (nodes * (nodes - 1))
    return uncertain_erdos_renyi(nodes, density, seed=ACCEPT_SEED)


def _best_of(make, graph, p, repeats: int = 5):
    """Best-of-N wall-clock (noise-robust) plus the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        shedder = make()
        start = time.perf_counter()
        result = shedder.reduce(graph, p)
        best = min(best, time.perf_counter() - start)
    return best, result


def _blind_reduce(method, graph, topology, p):
    """Shed ``topology`` (``graph`` without weights), score on ``graph``.

    ``strip_weights`` keeps node and edge order, so the topology's CSR ids
    are ``graph``'s and the kept ids materialise on its snapshot as-is.
    """
    stats = {}
    if method == "bm2":
        kept = bm2_reduce_ids(topology.csr(), p, stats, seed=ACCEPT_SEED)
    else:
        kept = crr_reduce_ids(
            topology.csr(), p, ensure_rng(ACCEPT_SEED), stats, num_sources=CRR_SOURCES
        )
    reduced = graph.csr().subgraph_from_edge_ids(*kept)
    edd = expected_degree_distance(graph, reduced, p)
    return reduced, edd, compute_delta(graph, reduced, p)


def _blind_best_of(method, graph, topology, p, repeats: int = 5):
    """Best-of-N wall-clock of the weight-blind run plus its last output."""
    best, out = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out = _blind_reduce(method, graph, topology, p)
        best = min(best, time.perf_counter() - start)
    return (best, *out)


@pytest.mark.slow
@pytest.mark.parametrize("method", sorted(SHEDDERS))
def test_weighted_overhead_bounded(method, quick, archive_report):
    profiles = [QUICK_PROFILE] if quick else [QUICK_PROFILE, FULL_PROFILE]
    make = SHEDDERS[method]

    rows = []
    for nodes, edges in profiles:
        graph = _profile_graph(nodes, edges)
        topology = strip_weights(graph)
        blind_s, blind_reduced, blind_edd, blind_delta = _blind_best_of(
            method, graph, topology, ACCEPT_P
        )
        reference, _ = weight_blind_reduce(make(), graph, ACCEPT_P, topology)
        assert sorted(blind_reduced.edges()) == sorted(reference.edges())
        aware_s, aware_result = _best_of(make, graph, ACCEPT_P)
        factor = aware_s / blind_s if blind_s > 0 else float("inf")
        label = f"{method} {nodes}n/{graph.num_edges}e"

        # Quality rider: the weighted engine must win on the objective.
        aware_edd = aware_result.stats["expected_degree_distance"]
        assert aware_edd < blind_edd, (
            f"{label}: weighted edd {aware_edd:.2f} not below "
            f"weight-blind {blind_edd:.2f}"
        )

        assert factor <= FLOOR_FACTOR, (
            f"{label}: weighted engine {factor:.2f}x unweighted, over the "
            f"{FLOOR_FACTOR}x CI floor ({aware_s:.3f}s vs {blind_s:.3f}s)"
        )
        if factor > TARGET_FACTOR:
            warnings.warn(
                f"{label}: weighted engine {factor:.2f}x unweighted is over "
                f"the {TARGET_FACTOR}x advisory target",
                stacklevel=2,
            )

        rows.append([label, blind_s, aware_s, factor, blind_edd, aware_edd])
        _record(
            f"{method}_{nodes}n",
            {
                "method": method,
                "nodes": nodes,
                "edges": graph.num_edges,
                "p": ACCEPT_P,
                "seed": ACCEPT_SEED,
                "unweighted_seconds": round(blind_s, 4),
                "weighted_seconds": round(aware_s, 4),
                "factor": round(factor, 3),
                "floor_factor": FLOOR_FACTOR,
                "target_factor": TARGET_FACTOR,
                "unweighted_expected_degree_distance": round(blind_edd, 3),
                "weighted_expected_degree_distance": round(aware_edd, 3),
                "weighted_delta": round(aware_result.delta, 3),
                "unweighted_delta": round(blind_delta, 3),
            },
        )

    report = BenchReport(
        experiment_id="micro_uncertain",
        title=f"Weighted vs unweighted {method.upper()} (seeded probabilistic ER)",
        headers=[
            "profile",
            "unweighted s",
            "weighted s",
            "factor",
            "blind edd",
            "weighted edd",
        ],
        rows=rows,
        notes=[
            f"Best-of-5 wall-clocks at p = {ACCEPT_P}, weights ~ U[0.05, 1); "
            f"floor {FLOOR_FACTOR}x, advisory target {TARGET_FACTOR}x.",
            "Quality rider: weighted expected-degree distance strictly below "
            "the weight-blind engine's on every profile.",
            f"CRR rows use {CRR_SOURCES} sampled betweenness sources.",
        ],
    )
    archive_report(report)
