"""``churn-hepph``: open-loop edge churn into two streaming sessions.

Set-up writes the ca-hepph surrogate as an edge list, pre-generates one
seeded ``mixed_churn`` op list per session against it, and opens two
``SessionManager`` sessions on the ``file:`` ref with repair on.  The
generator then feeds each session a batch every :data:`TICK_S` at a few
fixed total op rates (open loop), while a periodic ``export_result()``
snapshot reads G′ on the same event loop.  Throughput is ops applied
per second of busy time: the window minus the stretches in which no op
was waiting to be applied.

A latency sample is one batch: from its due time to the drain step that
applied its last op (ops of a batch complete together, so counting them
one by one would let a single late batch fill the tail).  Sessions
apply on the event loop the generator runs on, so the generator checks
progress after every drain step while work is outstanding.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Tuple

from harness import Context, Interval, Outcome, busy_intervals, median_or_zero
from samples import tail

from repro.core.discrepancy import compute_delta
from repro.datasets.registry import load_dataset
from repro.dynamic.workloads import mixed_churn
from repro.graph.io import write_edge_list
from repro.sessions import SessionConfig, SessionManager

#: One session per preservation ratio.
SESSION_PS = (0.4, 0.6)
#: Batch interval of the open loop.
TICK_S = 0.1
#: One ``export_result()`` snapshot every this many seconds.
EXPORT_EVERY_S = 1.0
#: A rate is sustained when its tail op latency stays within this limit
#: and its last op is applied within the limit after the phase ends.  A
#: snapshot alone blocks the loop for ~0.15 s, so the limit sits above it.
LATENCY_LIMIT_S = 0.25

SIZES = {
    # ~3k nodes / ~30k edges per session graph.
    "full": {"scale": 0.25, "rates": (2000.0, 4000.0, 6000.0)},
    "toy": {"scale": 0.03, "rates": (1000.0, 2000.0)},
}


class _Feed:
    """One session's op list, position, and in-flight batches."""

    def __init__(self, session, ops: List[Tuple]) -> None:
        self.session = session
        self.ops = ops
        self.next = 0  # next op index to send
        self.accepted = 0  # ops ever accepted into the inbox
        self.not_accepted = 0  # shed or rejected at submit
        self.in_flight: Deque[Tuple[float, int, int]] = deque()  # (due, end, phase)

    def processed(self) -> int:
        """Ops the drain loop has finished with (applied or skipped)."""
        session = self.session
        counter = session.metrics.counter
        return (
            session.shedder.stats["ops"]
            + counter("ops_skipped_stale").value
            + counter("inserts_shed_budget").value
        )

    def take(self, count: int) -> List[Tuple]:
        batch = self.ops[self.next : self.next + count]
        self.next += len(batch)
        return batch


def run(ctx: Context) -> Outcome:
    with asyncio.Runner() as runner:
        return _run(ctx, runner)


def _run(ctx: Context, runner: asyncio.Runner) -> Outcome:
    size = SIZES[ctx.size]
    tracer = ctx.tracer
    rates = size["rates"]
    phase_s = ctx.seconds / len(rates)
    ticks = int(round(phase_s / TICK_S))
    ops_per_session = sum(math.floor(ticks * (rate * TICK_S / len(SESSION_PS))) for rate in rates)

    async def build() -> Dict[str, Any]:
        work = ctx.fresh_dir()
        graph = load_dataset("ca-hepph", scale=size["scale"], seed=ctx.derive_seed(20))
        path = os.path.join(work, "ca-hepph.txt")
        write_edge_list(graph, path)
        op_lists = [
            mixed_churn(graph, ops_per_session, seed=ctx.derive_seed(21 + i))
            for i in range(len(SESSION_PS))
        ]
        manager = SessionManager(num_workers=2)
        manager.start()
        feeds = []
        for i, p in enumerate(SESSION_PS):
            config = SessionConfig(p=p, seed=ctx.derive_seed(30 + i), label=f"p={p}")
            with tracer.span("sessions.open", "sessions"):
                session = await manager.open(config, graph_ref=f"file:{path}")
            feeds.append(_Feed(session, op_lists[i]))
        return {"manager": manager, "feeds": feeds, "nodes": graph.num_nodes,
                "edges": graph.num_edges}

    state, setup_s = ctx.timed_setup(
        lambda: runner.run(build()), lambda old: runner.run(old["manager"].close())
    )
    feeds: List[_Feed] = state["feeds"]
    if tracer.enabled:
        for feed in feeds:
            shedder = feed.session.shedder
            shedder.apply_ops = tracer.wrap("dynamic.apply_ops", "sessions", shedder.apply_ops)
    measured = runner.run(_measure(ctx, feeds, rates, phase_s))
    result = runner.run(_finish(ctx, state, feeds, measured, rates, phase_s, setup_s))
    ctx.cleanup()
    return result


async def _measure(ctx: Context, feeds: List[_Feed], rates, phase_s: float) -> Dict[str, Any]:
    tracer = ctx.tracer
    completions: List[Tuple[float, float, int]] = []  # (due, done, phase) per batch
    lags: List[float] = []
    receipts = []
    exports: List[float] = []
    idle: List[Interval] = []
    host = ctx.host

    def poll() -> None:
        now = time.perf_counter()
        for feed in feeds:
            done = feed.processed()
            queue = feed.in_flight
            while queue and done >= queue[0][1]:
                due, _, phase = queue.popleft()
                completions.append((due, now, phase))

    def outstanding() -> bool:
        return any(feed.in_flight for feed in feeds)

    async def until(due: float) -> None:
        while True:
            poll()
            now = time.perf_counter()
            if now >= due:
                return
            if outstanding():
                await asyncio.sleep(0)  # let one drain step run
            else:
                if not host.probe_if_idle(due - now):
                    await asyncio.sleep(due - now)
                idle.append((now, time.perf_counter()))

    def send(feed: _Feed, batch: List[Tuple], due: float, phase: int, rid: int) -> None:
        with tracer.span("sessions.submit", "sessions", rid):
            receipt = feed.session.submit(batch)
        receipts.append((len(batch), receipt))
        feed.not_accepted += receipt.shed + receipt.rejected
        if receipt.accepted:
            feed.accepted += receipt.accepted
            feed.in_flight.append((due, feed.accepted, phase))

    with ctx.window():
        start = time.perf_counter()
        next_export = start + EXPORT_EVERY_S
        tick = 0
        for phase, rate in enumerate(rates):
            per_session = rate * TICK_S / len(feeds)
            phase_start = start + phase * phase_s
            for j in range(int(round(phase_s / TICK_S))):
                due = phase_start + j * TICK_S
                await until(due)
                lags.append(time.perf_counter() - due)
                for feed in feeds:
                    # Fractional rates carry over: the k-th tick sends the
                    # ops that fall due by then.
                    count = math.floor((j + 1) * per_session) - math.floor(j * per_session)
                    send(feed, feed.take(count), due, phase, tick)
                tick += 1
                if time.perf_counter() >= next_export:
                    feed = feeds[len(exports) % len(feeds)]
                    with tracer.span("sessions.export_result", "sessions"):
                        feed.session.export_result()
                    exports.append(time.perf_counter())
                    next_export += EXPORT_EVERY_S
        while outstanding():
            await asyncio.sleep(0)
            poll()
        end = time.perf_counter()

    return {
        "completions": completions,
        "lags": lags,
        "receipts": receipts,
        "busy": busy_intervals(start, end, idle),
        "end": end,
        "exports": len(exports),
        "start": start,
    }


async def _finish(ctx: Context, state, feeds, measured, rates, phase_s, setup_s) -> Outcome:
    for sent, receipt in measured["receipts"]:
        ctx.check(
            receipt.accepted + receipt.shed + receipt.rejected == sent,
            f"receipt accounts for {receipt.accepted + receipt.shed + receipt.rejected} "
            f"of {sent} ops",
        )
    for feed in feeds:
        shedder = feed.session.shedder
        ctx.check(
            feed.processed() == feed.accepted,
            f"{feed.session.session_id}: {feed.accepted} ops accepted, "
            f"{feed.processed()} processed",
        )
        rescored = compute_delta(shedder.graph, shedder.reduced, shedder.p)
        ctx.check(
            math.isclose(shedder.delta, rescored, rel_tol=1e-9, abs_tol=1e-6),
            f"{feed.session.session_id}: session delta {shedder.delta}, "
            f"compute_delta {rescored}",
        )
    telemetry = [feed.session.telemetry() for feed in feeds]
    layer_metrics = (
        _layer_metrics(ctx, feeds, telemetry, measured, rates, phase_s) if ctx.traced else {}
    )
    manager: SessionManager = state["manager"]
    await manager.close()
    ctx.check(manager.ledger.in_use == 0, f"session ledger holds {manager.ledger.in_use} edges")

    sent = sum(count for count, _ in measured["receipts"])
    failed = sum(feed.not_accepted for feed in feeds) + sum(
        t["ops"]["shed_budget"] for t in telemetry
    )
    deltas = [feed.session.shedder.delta / feed.session.shedder.graph.num_nodes for feed in feeds]
    busy = measured["busy"]
    return Outcome(
        setup_s=setup_s,
        samples=[[(due, done)] for due, done, _ in measured["completions"]],
        busy=busy,
        units=sum(feed.processed() for feed in feeds),
        avg_delta=sum(deltas) / len(deltas),
        attempted=sent,
        failed=failed,
        layer_metrics=layer_metrics,
        notes=[
            f"{state['nodes']} nodes / {state['edges']} edges per session, "
            f"p={', '.join(map(str, SESSION_PS))}",
            f"rates {', '.join(f'{r:g}' for r in rates)} ops/s for {phase_s:.2f}s each, "
            f"{measured['exports']} snapshots; busy {sum(b - a for a, b in busy):.2f}s "
            f"of {measured['end'] - measured['start']:.2f}s",
        ],
    )


def _layer_metrics(ctx: Context, feeds, telemetry, measured, rates, phase_s) -> Dict[str, float]:
    tracer = ctx.tracer
    completions = measured["completions"]
    sustained = 0.0
    for phase, rate in enumerate(rates):
        phase_end = measured["start"] + (phase + 1) * phase_s
        rows = [row for row in completions if row[2] == phase]
        if not rows:
            continue
        worst, _ = tail([done - due for due, done, _ in rows])
        if worst <= LATENCY_LIMIT_S and max(row[1] for row in rows) <= phase_end + LATENCY_LIMIT_S:
            sustained = rate
    applied = sum(t["ops"]["applied"] for t in telemetry)
    inserts = sum(feed.session.shedder.stats["inserts"] for feed in feeds)
    admitted = sum(feed.session.shedder.stats["admitted"] for feed in feeds)
    return {
        "sessions.open_s": median_or_zero(tracer.durations("sessions.open")),
        "sessions.submit_s": median_or_zero(tracer.durations("sessions.submit")),
        "sessions.apply_s": median_or_zero(tracer.durations("dynamic.apply_ops")),
        "sessions.busy_per_op_us": (
            1e6 * sum(t["busy_seconds"] for t in telemetry) / applied if applied else 0.0
        ),
        "sessions.export_s": median_or_zero(tracer.durations("sessions.export_result")),
        "sessions.shed_backpressure": float(
            sum(t["ops"]["shed_backpressure"] for t in telemetry)
        ),
        "sessions.skipped_stale": float(sum(t["ops"]["skipped_stale"] for t in telemetry)),
        "sessions.inbox_depth_max": float(
            max((receipt.depth for _, receipt in measured["receipts"]), default=0)
        ),
        "dynamic.admit_ratio": admitted / inserts if inserts else 0.0,
        "dynamic.rebuilds": float(sum(t["drift"]["rebuilds"] for t in telemetry)),
        "loadgen.lag_s": tail(measured["lags"])[0],
        "loadgen.sustained_rate": sustained,
    }
