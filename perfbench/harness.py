"""What every workload shares: the run context, set-up timing, checks and
the metric names the benchmark reports.

A workload is a function ``run(ctx) -> Outcome``.  It builds its inputs
from ``ctx.seed`` in set-up (timed, :data:`SETUP_REPEATS` times), measures
for ``ctx.seconds``, records failed output checks through
:meth:`Context.check`, and, when ``ctx.tracer`` is enabled, opens spans
around its calls into the program.  Times are reported as wall-clock
intervals; :mod:`hostspeed` scales them to the reference host speed.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from hostspeed import HostSpeed
from samples import median, tail
from spans import Tracer, self_times

__all__ = [
    "BENCH_LAYER",
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "SETUP_REPEATS",
    "Context",
    "Outcome",
    "busy_intervals",
    "latency_summary",
    "median_or_zero",
    "peak_rss_mb",
]

#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Layers named after the program's modules.  ``bench`` is the
#: benchmark's own time outside any call into the program (load
#: generation, waiting, bookkeeping) — the named unattributed remainder.
LAYERS = ("graph", "core", "shard", "service", "sessions", "tasks")
BENCH_LAYER = "bench"

#: ``(name, unit, better, bound)`` — every workload reports all of them.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("p50_s", "s", "lower", 0.25),
    ("tail_s", "s", "lower", 0.25),
    ("throughput", "1/s", "higher", 0.25),
    ("avg_delta", "delta/node", "lower", 0.15),
    ("success_rate", "fraction", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: ``(name, unit, better)`` of the traced run's per-layer metrics.  A
#: workload that leaves a layer unused reports 0 for its metrics.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [(f"self.{layer}_s", "s", "lower") for layer in LAYERS + (BENCH_LAYER,)]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
        ("graph.io.read_s", "s", "lower"),
        ("graph.io.rows_dropped", "count", "lower"),
        ("graph.csr_s", "s", "lower"),
        ("core.bm2.phase1_s", "s", "lower"),
        ("core.bm2.phase2_s", "s", "lower"),
        ("core.bm2.candidates", "count", "lower"),
        ("core.bm2.repair_yield", "fraction", "higher"),
        ("core.sparsify.pruned", "count", "higher"),
        ("core.reduce.unattributed_s", "s", "lower"),
        ("core.score_s", "s", "lower"),
        ("core.delta_s", "s", "lower"),
        ("core.crr.ranking_s", "s", "lower"),
        ("core.crr.rewiring_s", "s", "lower"),
        ("core.crr.swap_accept_ratio", "fraction", "higher"),
        ("shard.partition_s", "s", "lower"),
        ("shard.shards_s", "s", "lower"),
        ("shard.reconcile_s", "s", "lower"),
        ("shard.boundary_edges", "count", "lower"),
        ("shard.achieved_ratio", "fraction", "higher"),
        ("tasks.degree_s", "s", "lower"),
        ("tasks.sp_distance_s", "s", "lower"),
        ("tasks.betweenness_s", "s", "lower"),
        ("tasks.clustering_s", "s", "lower"),
        ("tasks.hopplot_s", "s", "lower"),
        ("tasks.topk_s", "s", "lower"),
        ("tasks.link_prediction_s", "s", "lower"),
        ("tasks.utility", "fraction", "higher"),
        ("service.submit_s", "s", "lower"),
        ("service.key_s", "s", "lower"),
        ("service.queue_s", "s", "lower"),
        ("service.execute_s", "s", "lower"),
        ("service.hit_p50_s", "s", "lower"),
        ("service.cache_hit_ratio", "fraction", "higher"),
        ("service.degraded", "count", "lower"),
        ("service.rejected", "count", "lower"),
        ("service.ledger_waits", "count", "lower"),
        ("sessions.open_s", "s", "lower"),
        ("sessions.submit_s", "s", "lower"),
        ("sessions.apply_s", "s", "lower"),
        ("sessions.busy_per_op_us", "us", "lower"),
        ("sessions.export_s", "s", "lower"),
        ("sessions.shed_backpressure", "count", "lower"),
        ("sessions.skipped_stale", "count", "lower"),
        ("sessions.inbox_depth_max", "count", "lower"),
        ("dynamic.admit_ratio", "fraction", "higher"),
        ("dynamic.rebuilds", "count", "lower"),
        ("loadgen.lag_s", "s", "lower"),
        ("loadgen.sustained_rate", "1/s", "higher"),
        ("host.speed", "ratio", "higher"),
    ]
)

T = TypeVar("T")


Interval = Tuple[float, float]


@dataclass
class Outcome:
    """What one workload measured.

    ``samples`` holds one latency sample per unit of work as the wall
    intervals it is made of (one ``(due, done)`` interval in an open
    loop; the stages of a pipeline in a closed loop, without the probes
    between them).  ``busy`` is the wall time the system was working,
    over which ``units`` units of work completed.  ``setup_s`` is already
    scaled to the reference host speed.
    """

    setup_s: float
    samples: List[List[Interval]]
    busy: List[Interval]
    units: int
    avg_delta: float
    attempted: int
    failed: int
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class Context:
    """One run: seed, window, tracer, scratch directory, failed checks."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        size: str,
        out_root: str,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tracer = Tracer(trace)
        self.host = HostSpeed()
        self.failures: List[str] = []
        self.work_dir = os.path.join(out_root, f"{workload}-seed{seed}-pid{os.getpid()}")
        self.root_span: Optional[int] = None

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def derive_seed(self, stream: int) -> int:
        """A 31-bit seed for input stream ``stream``, fixed by ``ctx.seed``."""
        return int(np.random.SeedSequence([self.seed, stream]).generate_state(1)[0] >> 1)

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed output check (the run then reports ``correct: false``)."""
        if not ok:
            self.failures.append(message)
        return ok

    def fresh_dir(self) -> str:
        """An empty scratch directory for this set-up's input files."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        return self.work_dir

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def timed_setup(
        self, build: Callable[[], T], close: Callable[[T], None]
    ) -> Tuple[T, float]:
        """Run ``build`` :data:`SETUP_REPEATS` times; keep the last state.

        Returns ``(state, median set-up seconds)``, host-scaled.  Earlier
        states are closed before the next build so no two coexist.
        """
        intervals: List[Interval] = []
        state: Optional[T] = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                close(state)
            self.host.probe()
            started = time.perf_counter()
            state = build()
            intervals.append((started, time.perf_counter()))
        self.host.probe()
        assert state is not None
        return state, median([self.host.scale(*interval) for interval in intervals])

    @contextmanager
    def stage(
        self, unit: List[Interval], name: str, layer: str, request: Optional[int] = None
    ) -> Iterator[None]:
        """One stage of a closed-loop unit: a host probe, then the timed call.

        The stage's wall interval is appended to ``unit``; the probe runs
        before it, outside both the interval and the span.
        """
        self.host.probe()
        started = time.perf_counter()
        with self.tracer.span(name, layer, request):
            yield
        unit.append((started, time.perf_counter()))

    @contextmanager
    def window(self) -> Iterator[None]:
        """The measured window, under a root span when tracing; the host
        is probed on the way in and out."""
        self.host.probe()
        with self.tracer.span(self.workload, BENCH_LAYER):
            self.root_span = self.tracer.current()
            yield
        self.host.probe()

    def trace_metrics(self) -> Dict[str, float]:
        """Per-layer self times of the window, its wall time, the host's
        median speed and the estimated tracing overhead."""
        tracer = self.tracer
        if self.root_span is None:
            return {}
        totals = self_times(tracer.spans, self.root_span)
        wall = tracer.spans[self.root_span].duration
        metrics = {
            f"self.{layer}_s": totals.get(layer, 0.0) for layer in LAYERS + (BENCH_LAYER,)
        }
        unknown = set(totals) - set(LAYERS) - {BENCH_LAYER}
        self.check(not unknown, f"spans in unknown layers {sorted(unknown)}")
        covered = sum(totals.values())
        self.check(
            abs(covered - wall) <= 1e-6 * max(wall, 1.0),
            f"per-layer self times sum to {covered:.6f}s, window is {wall:.6f}s",
        )
        metrics["trace.wall_s"] = wall
        metrics["host.speed"] = median(self.host.factors())
        metrics["trace.overhead_frac"] = _span_cost() * len(tracer.spans) / wall
        return metrics


def _span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds, timed on a throwaway tracer."""
    tracer = Tracer(True)
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("cost", BENCH_LAYER):
            pass
    return (time.perf_counter() - started) / samples


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_zero(values: List[float]) -> float:
    """The median, or 0 for a layer the run never called."""
    return median(values) if values else 0.0


def latency_summary(latencies: List[float]) -> Tuple[float, float, float]:
    """``(p50, tail value, tail quantile)`` of latencies."""
    value, q = tail(latencies)
    return median(latencies), value, q


def busy_intervals(start: float, end: float, idle: List[Interval]) -> List[Interval]:
    """``[start, end]`` minus the (ordered, disjoint) ``idle`` intervals."""
    busy, at = [], start
    for idle_start, idle_end in idle:
        if idle_start > at:
            busy.append((at, idle_start))
        at = max(at, idle_end)
    if end > at:
        busy.append((at, end))
    return busy
