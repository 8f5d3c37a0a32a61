"""The benchmark's workloads, why each exists, and what is left out.

Each workload carries a layer the others leave unmeasured:

* ``oneshot-lj`` — closed loop, one caller.  Read → ``Graph`` → CSR →
  exact BM2, EDCS BM2 and sharded EDCS BM2 → Δ on the com-LiveJournal
  surrogate.  The graph substrate and the shard partitioner do the work.
* ``serve-mix`` — open loop at three fixed request rates.
  ``SheddingService(mode="thread", num_workers=2)`` on ``file:`` refs to
  the ca-hepph and email-Enron surrogates; about half the keys repeat.
  The service layer, its cache and CRR rewiring do the work, and
  ``submit()`` digests the whole graph on the caller's thread.
* ``churn-hepph`` — open loop at three fixed op rates.
  Two ``SessionManager`` sessions on the ca-hepph surrogate take
  pre-generated ``mixed_churn`` batches with repair on, while a periodic
  ``export_result()`` snapshot reads G′.  Writes through
  ``repro.dynamic``/``repro.sessions`` do the work.
* ``analyse-grqc`` — closed loop, one caller.  The paper's pipeline on
  ca-grqc: exact-betweenness CRR and BM2 at p = 0.5, then the seven-task
  battery on each reduced graph against original-graph artifacts built
  in set-up.  Betweenness ranking and link-prediction embedding do the
  work; the substrate is negligible.

The load comes from one process with at most two worker threads, sized
for a two-CPU machine.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple

__all__ = ["EXCLUSIONS", "WORKLOADS", "Workload"]


class Workload(NamedTuple):
    module: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    "oneshot-lj": Workload(
        "oneshot",
        "read, Graph, CSR, three BM2 cells and delta on the LiveJournal surrogate; "
        "the graph substrate and shard partitioner do most of the work",
    ),
    "serve-mix": Workload(
        "serve",
        "open-loop SheddingService requests with repeated keys; "
        "submit-side digest, the cache and CRR rewiring do the work",
    ),
    "churn-hepph": Workload(
        "churn",
        "open-loop churn batches into two streaming sessions with repair and "
        "live snapshots; the dynamic apply path does the work",
    ),
    "analyse-grqc": Workload(
        "analyse",
        "CRR with exact betweenness, BM2 and the seven-task battery on ca-grqc; "
        "ranking and link-prediction embedding do the work",
    ),
}

#: Left out of every workload, with the measurement that ruled each out.
EXCLUSIONS: Dict[str, str] = {
    "uds": "UDS took 112 s on the full ca-grqc surrogate even with 32 sampled "
    "sources; one call would exceed a run's whole window.",
    "crr-exact-enron": "CRRShedder() with exact betweenness took 714 s on full-size "
    "email-Enron (99.7% in ranking); serve-mix uses sampled sources instead.",
    "linkpred-enron": "Link prediction on the email-Enron-reduced graph took 168 s; "
    "the task battery runs on ca-grqc only.",
}


def load(name: str) -> Callable:
    """The ``run(ctx)`` function of workload ``name``."""
    import importlib

    return importlib.import_module(WORKLOADS[name].module).run
