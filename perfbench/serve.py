"""``serve-mix``: open-loop requests to the one-shot shedding service.

Set-up writes the ca-hepph and email-Enron surrogates as edge lists and
starts ``SheddingService(mode="thread", num_workers=2)``; one warm-up
request per ``file:`` ref makes the service read each graph once, during
set-up.  A seeded schedule then offers requests at a few fixed rates
(open loop: a request is sent when due, whatever is still running).
About half of the requests repeat an earlier key, so the cache serves
them — but ``submit()`` still digests the whole graph on the caller's
thread first.

Each request is timed from when it was due, so a slow ``submit()``
delays every later request and shows up as generator lag.  Throughput
is requests completed per second of busy time: the window minus the
stretches in which no request was in flight.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from harness import Context, Interval, Outcome, busy_intervals, median_or_zero
from samples import tail

from repro.core.bounds import bm2_bound_for_graph, crr_bound_for_graph
from repro.core.discrepancy import compute_delta, round_half_up
from repro.datasets.registry import load_dataset
from repro.graph.io import write_edge_list
from repro.service import JobStatus, ReductionRequest, SheddingService

#: ``(method, sampled betweenness sources)``, in the order requests cycle
#: through them.  CRR runs with sampled sources (exact ranking is
#: excluded) at two sample sizes, so CRR's computed requests outnumber
#: the ten samples the tail leaves beyond it and the tail reads CRR
#: latency rather than the edge between modes; the two CRR kinds sit
#: apart in the cycle so they do not arrive back to back.
METHODS = (("crr", 8), ("bm2", None), ("random", None), ("crr", 16), ("bm2-sparse", None))
PS = (0.2, 0.35, 0.5, 0.65, 0.8)
#: A rate is sustained when its tail latency stays within this limit and
#: its last request completes within the limit after the phase ends.
LATENCY_LIMIT_S = 1.0
#: How often the generator checks outstanding handles while it waits.
POLL_S = 0.002
DRAIN_TIMEOUT_S = 120.0

SIZES = {
    "full": {
        "graphs": (("ca-hepph", 0.1), ("email-enron", 0.06)),
        "rates": (3.0, 6.0, 9.0),
    },
    "toy": {
        "graphs": (("ca-hepph", 0.02), ("email-enron", 0.01)),
        "rates": (10.0, 20.0),
    },
}

Key = Tuple[str, str, Optional[int], float]  # (ref, method, sources, p)


def design(refs: List[str], seed: int, count: int) -> List[Key]:
    """``count`` seeded request keys with a fixed make-up and rhythm.

    Requests cycle through :data:`METHODS`.  Each method's slots take its
    ``ref × p`` keys twice over, in a seeded order, so about half of all
    requests repeat a key sent earlier.  The seed decides which key fills
    a slot and whether it is a first send or a repeat; every seed sends
    the same multiset of keys with the same method rhythm, so the mix of
    work and how often costly requests overlap do not change from seed
    to seed.  Longer schedules continue each method's sequence with a
    fresh shuffle.
    """
    rng = np.random.default_rng(seed)
    streams = []
    for method in METHODS:
        keys = [(ref, *method, p) for ref in refs for p in PS] * 2
        needed = -(-count // len(METHODS))
        order: List[Key] = []
        while len(order) < needed:
            order.extend(keys[i] for i in rng.permutation(len(keys)))
        streams.append(order)
    return [streams[i % len(METHODS)][i // len(METHODS)] for i in range(count)]


def _request(key: Key, seed: int) -> ReductionRequest:
    ref, method, sources, p = key
    return ReductionRequest(
        graph_ref=ref,
        method=method,
        p=p,
        seed=seed,
        num_sources=sources,
    )


class _Sent:
    """One request in flight: when it was due and what came back."""

    __slots__ = ("rid", "key", "due", "phase", "handle", "done_at")

    def __init__(self, rid: int, key: Key, due: float, phase: int, handle) -> None:
        self.rid, self.key, self.due, self.phase = rid, key, due, phase
        self.handle = handle
        self.done_at = time.perf_counter() if handle.done() else None


def run(ctx: Context) -> Outcome:
    size = SIZES[ctx.size]
    tracer = ctx.tracer
    # One request seed for the run: the service caches graphs per
    # (ref, seed), so set-up's warm-up reads each graph for every request.
    request_seed = ctx.derive_seed(3) % 1000

    def build() -> Dict[str, Any]:
        work = ctx.fresh_dir()
        refs = []
        for stream, (name, scale) in enumerate(size["graphs"]):
            graph = load_dataset(name, scale=scale, seed=ctx.derive_seed(10 + stream))
            path = os.path.join(work, f"{name}.txt")
            write_edge_list(graph, path)
            refs.append(f"file:{path}")
        service = SheddingService(mode="thread", num_workers=2)
        # Read each graph once, here, with a key the schedule never uses.
        warm = [service.submit(_request((ref, "random", None, 0.95), request_seed)) for ref in refs]
        for handle in warm:
            ctx.check(
                handle.result(timeout=DRAIN_TIMEOUT_S).status is JobStatus.COMPLETED,
                f"warm-up request failed: {handle.result().error}",
            )
        return {"refs": refs, "service": service}

    state, setup_s = ctx.timed_setup(build, lambda old: old["service"].shutdown())
    service: SheddingService = state["service"]
    if tracer.enabled:
        service.store.key_for = tracer.wrap("service.key_for", "service", service.store.key_for)
    rates = size["rates"]
    phase_s = ctx.seconds / len(rates)
    keys = iter(design(state["refs"], ctx.derive_seed(2), sum(int(r * phase_s) for r in rates)))

    sent: List[_Sent] = []
    outstanding: List[_Sent] = []
    lags: List[float] = []

    def poll() -> None:
        now = time.perf_counter()
        still = []
        for item in outstanding:
            if item.handle.done():
                item.done_at = now
            else:
                still.append(item)
        outstanding[:] = still

    host = ctx.host
    idle: List[Interval] = []
    with ctx.window():
        start = time.perf_counter()
        for phase, rate in enumerate(rates):
            phase_start = start + phase * phase_s
            for j in range(int(rate * phase_s)):
                due = phase_start + j / rate
                while True:
                    poll()
                    now = time.perf_counter()
                    if now >= due:
                        break
                    if outstanding:
                        time.sleep(min(POLL_S, due - now))
                    else:
                        if not host.probe_if_idle(due - now):
                            time.sleep(due - now)
                        idle.append((now, time.perf_counter()))
                lags.append(time.perf_counter() - due)
                rid, key = len(sent), next(keys)
                with tracer.span("service.submit", "service", rid):
                    handle = service.submit(_request(key, request_seed))
                item = _Sent(rid, key, due, phase, handle)
                sent.append(item)
                if item.done_at is None:
                    outstanding.append(item)
        while outstanding and time.perf_counter() - start < ctx.seconds + DRAIN_TIMEOUT_S:
            poll()
            time.sleep(POLL_S)
        end = time.perf_counter()

    completed = [item for item in sent if item.done_at is not None]
    ctx.check(
        len(completed) == len(sent),
        f"{len(sent) - len(completed)} of {len(sent)} requests never reached a terminal state",
    )
    outcomes = {item.rid: item.handle.result(timeout=0) for item in completed}
    ok = [item for item in completed if outcomes[item.rid].status is JobStatus.COMPLETED]
    _check(ctx, ok, outcomes)
    ctx.check(service.ledger.in_use == 0, f"service ledger holds {service.ledger.in_use} edges")

    # Over distinct keys: every seed's schedule covers the same key set.
    distinct = {item.key: outcomes[item.rid].reduction.average_delta for item in ok}
    avg_delta = float(np.mean(list(distinct.values())))
    layer_metrics = (
        _layer_metrics(ctx, service, sent, ok, outcomes, lags, rates, phase_s, start)
        if ctx.traced
        else {}
    )
    service.shutdown()
    ctx.cleanup()
    busy = busy_intervals(start, end, idle)
    return Outcome(
        setup_s=setup_s,
        samples=[[(item.due, item.done_at)] for item in completed],
        busy=busy,
        units=len(ok),
        avg_delta=avg_delta,
        attempted=len(sent),
        failed=len(sent) - len(ok),
        layer_metrics=layer_metrics,
        notes=[
            f"rates {', '.join(f'{r:g}' for r in rates)} req/s for {phase_s:.2f}s each; "
            f"busy {sum(b - a for a, b in busy):.2f}s of {end - start:.2f}s",
        ],
    )


def _check(ctx: Context, ok: List[_Sent], outcomes: Dict[int, Any]) -> None:
    """Cache hits match the computed Δ; every computed result is sound."""
    computed: Dict[Key, Any] = {}
    for item in ok:
        outcome = outcomes[item.rid]
        if outcome.cache_hit is None:
            computed.setdefault(item.key, outcome.reduction)
    for item in ok:
        outcome = outcomes[item.rid]
        if outcome.cache_hit is not None and item.key in computed:
            ctx.check(
                outcome.reduction.delta == computed[item.key].delta,
                f"cache hit for {item.key} has delta {outcome.reduction.delta}, "
                f"computed {computed[item.key].delta}",
            )
    for (_, method, _, p), result in computed.items():
        original, reduced = result.original, result.reduced
        rescored = compute_delta(original, reduced, p)
        ctx.check(
            result.delta == rescored,
            f"{method} p={p}: result.delta {result.delta} != compute_delta {rescored}",
        )
        if method in ("bm2", "bm2-sparse"):
            bound = bm2_bound_for_graph(original, p)
            ctx.check(
                result.average_delta <= bound,
                f"{method} p={p} avg delta {result.average_delta} above Theorem 2 bound {bound}",
            )
        if method == "crr":
            target = round_half_up(p * original.num_edges)
            ctx.check(
                reduced.num_edges == target,
                f"crr p={p} kept {reduced.num_edges} edges, target {target}",
            )
            bound = crr_bound_for_graph(original, p)
            ctx.check(
                result.average_delta <= bound,
                f"crr p={p} avg delta {result.average_delta} above Theorem 1 bound {bound}",
            )


def _layer_metrics(ctx, service, sent, ok, outcomes, lags, rates, phase_s, start):
    tracer = ctx.tracer
    computed = [outcomes[item.rid] for item in ok if outcomes[item.rid].cache_hit is None]
    hits = [
        item.done_at - item.due
        for item in sent
        if item.done_at is not None and outcomes[item.rid].cache_hit is not None
    ]
    bm2 = [r.reduction for r in computed if r.method_used in ("bm2", "bm2-sparse")]
    crr = [r.reduction for r in computed if r.method_used == "crr"]
    attempted = sum(r.stats.get("attempted_swaps", 0) for r in crr)
    candidates = sum(r.stats.get("candidate_edges", 0) for r in bm2)

    sustained = 0.0
    for phase, rate in enumerate(rates):
        phase_end = start + (phase + 1) * phase_s
        items = [item for item in sent if item.phase == phase]
        done = [item for item in items if item.done_at is not None]
        if not items or len(done) < len(items):
            continue
        worst_tail, _ = tail([item.done_at - item.due for item in done])
        last = max(item.done_at for item in done)
        if worst_tail <= LATENCY_LIMIT_S and last <= phase_end + LATENCY_LIMIT_S:
            sustained = rate

    return {
        "service.submit_s": median_or_zero(tracer.durations("service.submit")),
        "service.key_s": median_or_zero(tracer.durations("service.key_for")),
        "service.queue_s": median_or_zero([r.queue_seconds for r in computed]),
        "service.execute_s": median_or_zero([r.execute_seconds for r in computed]),
        "service.hit_p50_s": median_or_zero(hits),
        "service.cache_hit_ratio": (len(ok) - len(computed)) / len(ok) if ok else 0.0,
        "service.degraded": float(sum(1 for item in ok if outcomes[item.rid].degraded)),
        "service.rejected": float(
            sum(1 for r in outcomes.values() if r.status is JobStatus.REJECTED)
        ),
        "service.ledger_waits": float(service.ledger.waits),
        "core.bm2.phase1_s": median_or_zero([r.stats["phase1_seconds"] for r in bm2]),
        "core.bm2.phase2_s": median_or_zero([r.stats["phase2_seconds"] for r in bm2]),
        "core.bm2.candidates": median_or_zero([r.stats["candidate_edges"] for r in bm2]),
        "core.bm2.repair_yield": (
            sum(r.stats["repair_edges"] for r in bm2) / candidates if candidates else 0.0
        ),
        "core.sparsify.pruned": median_or_zero(
            [r.stats["phase2_candidate_edges_pruned"] for r in bm2 if r.stats["sparsify"] == "edcs"]
        ),
        "core.crr.ranking_s": median_or_zero([r.stats["ranking_seconds"] for r in crr]),
        "core.crr.rewiring_s": median_or_zero([r.stats["rewiring_seconds"] for r in crr]),
        "core.crr.swap_accept_ratio": (
            sum(r.stats["accepted_swaps"] for r in crr) / attempted if attempted else 0.0
        ),
        "loadgen.lag_s": tail(lags)[0],
        "loadgen.sustained_rate": sustained,
    }
