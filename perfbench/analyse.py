"""``analyse-grqc``: the paper's reduce-then-analyse pipeline on ca-grqc.

Closed loop, one caller.  Set-up writes the ca-grqc surrogate as an edge
list, reads it back, and computes the seven tasks' artifacts on the
original graph (they do not change between pipelines).  One pipeline
reduces the graph with ``CRRShedder()`` (exact betweenness ranking) and
with ``BM2Shedder`` at ``p = 0.5``, then runs the seven-task battery
(``all_tasks``) on each reduced graph and scores it against the original
artifacts.  Ranking and the link-prediction embedding do the work; the
graph substrate is negligible.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from harness import Context, Interval, Outcome, median_or_zero

from repro.core.bm2 import BM2Shedder
from repro.core.bounds import bm2_bound_for_graph, crr_bound_for_graph
from repro.core.crr import CRRShedder
from repro.core.discrepancy import compute_delta, round_half_up
from repro.datasets.registry import load_dataset
from repro.graph.io import read_edge_list, write_edge_list
from repro.tasks import all_tasks

P = 0.5

#: Per-layer metric key of each task in ``all_tasks`` order.
TASK_KEYS = ("degree", "sp_distance", "betweenness", "clustering", "hopplot", "topk",
             "link_prediction")

SIZES = {
    "full": {"scale": 0.1},
    "toy": {"scale": 0.03},
}


def run(ctx: Context) -> Outcome:
    size = SIZES[ctx.size]
    task_seed = ctx.derive_seed(41)

    def build() -> Dict[str, Any]:
        work = ctx.fresh_dir()
        generated = load_dataset("ca-grqc", scale=size["scale"], seed=ctx.derive_seed(40))
        path = os.path.join(work, "ca-grqc.txt")
        write_edge_list(generated, path)
        graph = read_edge_list(path)
        tasks = all_tasks(seed=task_seed)
        originals = [task.compute(graph) for task in tasks]
        return {"graph": graph, "tasks": tasks, "originals": originals}

    state, setup_s = ctx.timed_setup(build, lambda _state: None)
    graph, tasks, originals = state["graph"], state["tasks"], state["originals"]
    shedders = (("crr", CRRShedder(seed=ctx.derive_seed(42))), ("bm2", BM2Shedder()))

    samples: List[List[Interval]] = []
    records: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + ctx.seconds
    with ctx.window():
        while not samples or time.perf_counter() < deadline:
            rid, unit = len(samples), []
            record: Dict[str, Any] = {}
            for name, shedder in shedders:
                with ctx.stage(unit, f"reduce.{name}", "core", rid):
                    result = shedder.reduce(graph, P)
                utilities = []
                for key, task, original in zip(TASK_KEYS, tasks, originals):
                    with ctx.stage(unit, f"tasks.{key}", "tasks", rid):
                        artifact = task.compute_for_result(result)
                        utilities.append(task.utility(original, artifact))
                record[name] = (result, utilities)
            samples.append(unit)
            records.append(_check(ctx, graph, record))

    last = records[-1]
    utilities = last["crr"]["utilities"] + last["bm2"]["utilities"]
    layer_metrics: Dict[str, float] = {}
    if ctx.traced:
        layer_metrics = {
            f"tasks.{key}_s": median_or_zero(ctx.tracer.durations(f"tasks.{key}"))
            for key in TASK_KEYS
        }
        layer_metrics.update(
            {
                "tasks.utility": sum(utilities) / len(utilities),
                "core.crr.ranking_s": median_or_zero([r["crr"]["ranking"] for r in records]),
                "core.crr.rewiring_s": median_or_zero([r["crr"]["rewiring"] for r in records]),
                "core.crr.swap_accept_ratio": last["crr"]["accept_ratio"],
                "core.bm2.phase1_s": median_or_zero([r["bm2"]["phase1"] for r in records]),
                "core.bm2.phase2_s": median_or_zero([r["bm2"]["phase2"] for r in records]),
            }
        )
    ctx.cleanup()
    return Outcome(
        setup_s=setup_s,
        samples=samples,
        busy=[stage for unit in samples for stage in unit],
        units=len(samples),
        avg_delta=(last["crr"]["average_delta"] + last["bm2"]["average_delta"]) / 2,
        attempted=len(samples),
        failed=0,
        layer_metrics=layer_metrics,
        notes=[
            f"{graph.num_nodes} nodes / {graph.num_edges} edges, p={P}; "
            f"mean task utility {sum(utilities) / len(utilities):.4f}"
        ],
    )


def _check(ctx: Context, graph, record: Dict[str, Any]) -> Dict[str, Any]:
    """Output checks on one pipeline; returns its numbers for reporting."""
    crr, crr_utilities = record["crr"]
    bm2, bm2_utilities = record["bm2"]
    for name, (result, utilities) in record.items():
        rescored = compute_delta(graph, result.reduced, P)
        ctx.check(
            result.delta == rescored,
            f"{name}: result.delta {result.delta} != compute_delta {rescored}",
        )
        ctx.check(
            all(0.0 <= u <= 1.0 for u in utilities),
            f"{name}: task utilities outside [0, 1]: {utilities}",
        )
    target = round_half_up(P * graph.num_edges)
    ctx.check(
        crr.reduced.num_edges == target,
        f"crr kept {crr.reduced.num_edges} edges, target {target}",
    )
    bound = crr_bound_for_graph(graph, P)
    ctx.check(
        crr.average_delta <= bound,
        f"crr avg delta {crr.average_delta} above Theorem 1 bound {bound}",
    )
    bound = bm2_bound_for_graph(graph, P)
    ctx.check(
        bm2.average_delta <= bound,
        f"bm2 avg delta {bm2.average_delta} above Theorem 2 bound {bound}",
    )
    attempted = crr.stats["attempted_swaps"]
    return {
        "crr": {
            "average_delta": crr.average_delta,
            "utilities": crr_utilities,
            "ranking": crr.stats["ranking_seconds"],
            "rewiring": crr.stats["rewiring_seconds"],
            "accept_ratio": crr.stats["accepted_swaps"] / attempted if attempted else 0.0,
        },
        "bm2": {
            "average_delta": bm2.average_delta,
            "utilities": bm2_utilities,
            "phase1": bm2.stats["phase1_seconds"],
            "phase2": bm2.stats["phase2_seconds"],
        },
    }
