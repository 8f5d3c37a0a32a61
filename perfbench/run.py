"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot-lj --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer metrics
and writes its spans to ``.perfbench_out/``.  Every metric is printed by
name with its unit, then the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output check fails or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import WORKLOADS, load

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "toy"),
        default="full",
        help="input size; 'toy' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT}/src: {error}", file=sys.stderr)
        return 2
    from harness import END_TO_END, PER_LAYER, Context, latency_summary, peak_rss_mb
    from samples import median

    out_root = os.path.join(ROOT, ".perfbench_out")
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), args.size, out_root)
    outcome = load(args.workload)(ctx)

    host = ctx.host
    latencies = [host.total(sample) for sample in outcome.samples]
    raw = [sum(end - start for start, end in sample) for sample in outcome.samples]
    p50, tail_value, tail_q = latency_summary(latencies)
    if args.trace:
        measured = dict(outcome.layer_metrics)
        measured.update(ctx.trace_metrics())
        metrics = {name: (measured.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
        trace_path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.jsonl")
        ctx.tracer.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        values = {
            "setup_s": outcome.setup_s,
            "p50_s": p50,
            "tail_s": tail_value,
            "throughput": outcome.units / host.total(outcome.busy),
            "avg_delta": outcome.avg_delta,
            "success_rate": (outcome.attempted - outcome.failed) / outcome.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: (values[name], unit) for name, unit, _, _ in END_TO_END}
    for name, (value, _) in metrics.items():
        ctx.check(math.isfinite(value), f"metric {name} is {value}")

    count = len(latencies)
    beyond = count - math.ceil(tail_q * count)
    raw_p50, raw_tail, _ = latency_summary(raw)
    print(
        f"workload {args.workload} seed {args.seed}: {count} latency samples; "
        f"tail is the p{100 * tail_q:.1f}, with {beyond} samples beyond it"
    )
    print(
        f"  times below are scaled to the reference host speed; host ran at "
        f"{median(host.factors()):.3f}x it ({host.probes} probes); unscaled p50 "
        f"{raw_p50:.6g} s, tail {raw_tail:.6g} s"
    )
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for failure in ctx.failures:
        print(f"CHECK FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not ctx.failures,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if ctx.failures else 0


if __name__ == "__main__":
    sys.exit(main())
