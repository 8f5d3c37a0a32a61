"""``oneshot-lj``: the whole one-shot path on the com-LiveJournal surrogate.

Closed loop, one caller.  Set-up writes the surrogate's edge list; one
pipeline then reads it (``read_edge_list_with_summary``), builds the CSR
(``Graph.csr``), sheds it at ``p = 0.4`` with exact BM2, EDCS-pruned BM2
and sharded EDCS-pruned BM2, and rescores every result with
``compute_delta``.  The graph substrate (io, ``Graph``, CSR) does most of
the work here, so this is where a faster substrate or a CSR-first core
must show.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from harness import Context, Interval, Outcome, median_or_zero

from repro.core.bm2 import BM2Shedder
from repro.core.bounds import bm2_bound_for_graph
from repro.core.discrepancy import compute_delta
from repro.datasets.registry import load_dataset
from repro.graph.io import read_edge_list_with_summary, write_edge_list
from repro.shard import ShardedShedder

P = 0.4

#: EDCS-pruned repair may cost at most this factor over exact BM2's Δ
#: (the acceptance ratio the pruning was introduced with).
SPARSE_DELTA_RATIO = 1.05

SIZES = {
    # ~12k nodes / ~108k edges: about one pipeline per second.
    "full": {"scale": 0.003},
    "toy": {"scale": 0.0002},
}


def run(ctx: Context) -> Outcome:
    size = SIZES[ctx.size]

    def build() -> Dict[str, Any]:
        work = ctx.fresh_dir()
        graph = load_dataset("com-livejournal", scale=size["scale"], seed=ctx.derive_seed(1))
        path = os.path.join(work, "com-livejournal.txt")
        write_edge_list(graph, path)
        return {"path": path, "nodes": graph.num_nodes, "edges": graph.num_edges}

    state, setup_s = ctx.timed_setup(build, lambda _state: None)
    cells = (
        ("bm2", "core", BM2Shedder()),
        ("bm2-sparse", "core", BM2Shedder(sparsify="edcs")),
        ("sharded", "shard", ShardedShedder(method="bm2", sparsify="edcs", seed=0)),
    )
    samples: List[List[Interval]] = []
    records: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + ctx.seconds
    with ctx.window():
        while not samples or time.perf_counter() < deadline:
            rid, unit = len(samples), []
            with ctx.stage(unit, "graph.read_edge_list", "graph", rid):
                graph, summary = read_edge_list_with_summary(state["path"])
            with ctx.stage(unit, "graph.csr", "graph", rid):
                graph.csr()
            cell_results = {}
            for name, layer, shedder in cells:
                with ctx.stage(unit, f"reduce.{name}", layer, rid):
                    result = shedder.reduce(graph, P)
                with ctx.stage(unit, "core.compute_delta", "core", rid):
                    rescored = compute_delta(graph, result.reduced, P)
                cell_results[name] = (result, rescored)
            samples.append(unit)
            # Checked and reduced to plain numbers at once, so a run never
            # holds more than one pipeline's graphs.
            records.append(_check(ctx, state, graph, summary, cell_results))

    layer_metrics = _layer_metrics(ctx, records) if ctx.traced else {}
    ctx.cleanup()
    deltas = [records[-1][name]["average_delta"] for name, _, _ in cells]
    return Outcome(
        setup_s=setup_s,
        samples=samples,
        busy=[stage for unit in samples for stage in unit],
        units=len(samples),
        avg_delta=sum(deltas) / len(deltas),
        attempted=len(samples),
        failed=0,
        layer_metrics=layer_metrics,
        notes=[f"{state['nodes']} nodes / {state['edges']} edges, p={P}"],
    )


def _check(ctx: Context, state, graph, summary, cell_results) -> Dict[str, Any]:
    """Output checks on one pipeline; returns its numbers for reporting."""
    ctx.check(
        summary.edges_added == state["edges"] and summary.skipped == 0,
        f"edge list read back {summary.edges_added} edges "
        f"({summary.skipped} rows dropped), wrote {state['edges']}",
    )
    for name, (result, rescored) in cell_results.items():
        ctx.check(
            result.delta == rescored,
            f"{name}: result.delta {result.delta} != compute_delta {rescored}",
        )
    exact = cell_results["bm2"][0]
    bound = bm2_bound_for_graph(graph, P)
    ctx.check(
        exact.average_delta <= bound,
        f"bm2 avg delta {exact.average_delta} above Theorem 2 bound {bound}",
    )
    sparse = cell_results["bm2-sparse"][0]
    ctx.check(
        sparse.delta <= SPARSE_DELTA_RATIO * exact.delta + 1e-9,
        f"bm2-sparse delta {sparse.delta} above {SPARSE_DELTA_RATIO} x exact {exact.delta}",
    )
    sharded = cell_results["sharded"][0]
    ctx.check(
        sharded.delta <= sharded.stats["delta_bound"] + 1e-9,
        f"sharded delta {sharded.delta} above its bound {sharded.stats['delta_bound']}",
    )
    record: Dict[str, Any] = {"rows_dropped": summary.skipped}
    for name, (result, _) in cell_results.items():
        record[name] = {
            "stats": {k: v for k, v in result.stats.items() if isinstance(v, (int, float))},
            "average_delta": result.average_delta,
            "elapsed_seconds": result.elapsed_seconds,
            "achieved_ratio": result.achieved_ratio,
        }
    return record


def _layer_metrics(ctx: Context, records: List[Dict[str, Any]]) -> Dict[str, float]:
    tracer = ctx.tracer
    exact = [record["bm2"] for record in records]
    sparse = [record["bm2-sparse"] for record in records]
    sharded = [record["sharded"] for record in records]
    whole = exact + sparse
    reduce_walls = tracer.durations("reduce.bm2") + tracer.durations("reduce.bm2-sparse")

    def values(cells: List[Dict[str, Any]], key: str) -> List[float]:
        return [float(cell["stats"].get(key, 0.0)) for cell in cells]

    phase1, phase2 = values(whole, "phase1_seconds"), values(whole, "phase2_seconds")
    candidates = sum(values(exact, "candidate_edges"))
    return {
        "graph.io.read_s": median_or_zero(tracer.durations("graph.read_edge_list")),
        "graph.io.rows_dropped": float(records[-1]["rows_dropped"]),
        "graph.csr_s": median_or_zero(tracer.durations("graph.csr")),
        "core.bm2.phase1_s": median_or_zero(phase1),
        "core.bm2.phase2_s": median_or_zero(phase2),
        "core.bm2.candidates": median_or_zero(values(exact, "candidate_edges")),
        "core.bm2.repair_yield": (
            sum(values(exact, "repair_edges")) / candidates if candidates else 0.0
        ),
        "core.sparsify.pruned": median_or_zero(values(sparse, "phase2_candidate_edges_pruned")),
        "core.reduce.unattributed_s": median_or_zero(
            [wall - a - b for wall, a, b in zip(reduce_walls, phase1, phase2)]
        ),
        "core.score_s": median_or_zero(
            [wall - cell["elapsed_seconds"] for wall, cell in zip(reduce_walls, whole)]
        ),
        "core.delta_s": median_or_zero(tracer.durations("core.compute_delta")),
        "shard.partition_s": median_or_zero(values(sharded, "partition_seconds")),
        "shard.shards_s": median_or_zero(values(sharded, "shard_seconds")),
        "shard.reconcile_s": median_or_zero(values(sharded, "reconcile_seconds")),
        "shard.boundary_edges": float(sharded[-1]["stats"]["boundary_edges"]),
        # Kept edges over the p·|E| target.
        "shard.achieved_ratio": sharded[-1]["achieved_ratio"] / P,
    }
