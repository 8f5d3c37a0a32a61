"""Scalar reference implementations the array engines are pinned against.

Each algorithm in ``src/`` has exactly one engine.  The original dict/loop
implementations they replaced live here, unchanged, so the property
suites can keep asserting bit-identity (CRR, BM2, b-matching, the degree
tracker, Brandes, label propagation) or statistical agreement (UDS, the
node2vec walker and SGNS trainer), and the micro-benchmarks in
``benchmarks/`` can keep measuring their speedups against the same
baselines.  ``uncertain`` holds the weight-blind baseline the
expected-degree objective is compared against.  Nothing under ``src/``
imports from this package.
"""
