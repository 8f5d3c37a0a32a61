"""Weighted graphs through the service, cache keys and sessions.

No request field selects the objective: the service runs CRR/BM2 on the
graph it resolves, and a weighted graph gets the expected-degree engines.
"""

import asyncio

import pytest

from repro.core import BM2Shedder, CRRShedder, ReductionResult, compute_delta
from repro.graph.generators import erdos_renyi
from repro.service import (
    ArtifactStore,
    ReductionRequest,
    SheddingService,
    graph_digest,
    make_shedder,
)
from repro.service.store import ArtifactKey
from repro.sessions import SessionConfig, SessionManager
from repro.uncertain import uncertain_erdos_renyi

from tests.oracles.uncertain import weight_blind_reduce


class TestDigest:
    def test_weights_change_the_digest(self):
        weighted = uncertain_erdos_renyi(60, 0.1, seed=7)
        plain = erdos_renyi(60, 0.1, seed=7)
        assert graph_digest(weighted) != graph_digest(plain)

    def test_unweighted_digest_is_stable(self):
        a = erdos_renyi(60, 0.1, seed=7)
        b = erdos_renyi(60, 0.1, seed=7)
        assert graph_digest(a) == graph_digest(b)

    def test_weighted_digest_is_deterministic(self):
        a = uncertain_erdos_renyi(60, 0.1, seed=7)
        b = uncertain_erdos_renyi(60, 0.1, seed=7)
        assert graph_digest(a) == graph_digest(b)

    def test_different_weight_fields_differ(self):
        a = uncertain_erdos_renyi(60, 0.1, seed=7, weight_seed=1)
        b = uncertain_erdos_renyi(60, 0.1, seed=7, weight_seed=2)
        assert graph_digest(a) != graph_digest(b)


class TestMakeShedder:
    def test_weighted_routing(self):
        # The graph, not a flag, selects the expected-degree objective.
        graph = uncertain_erdos_renyi(60, 0.1, seed=2)
        crr = make_shedder("crr", num_sources=8)
        assert type(crr) is CRRShedder
        assert crr.reduce(graph, 0.5).stats["weighted"] is True
        for method, sparsify in (("bm2", "off"), ("bm2-sparse", "edcs")):
            shedder = make_shedder(method)
            assert type(shedder) is BM2Shedder
            stats = shedder.reduce(graph, 0.5).stats
            assert stats["repair_engine"] == "weighted-heap"
            assert stats["sparsify"] == sparsify

    def test_weighted_rejects_legacy_engine(self):
        # Removed selectors are rejected, not ignored.
        with pytest.raises(TypeError):
            make_shedder("crr", engine="legacy")
        with pytest.raises(TypeError):
            make_shedder("crr", weighted=True)


class TestRequestValidation:
    def test_weighted_request_validates(self):
        graph = uncertain_erdos_renyi(30, 0.2, seed=0)
        request = ReductionRequest(p=0.5, method="bm2", graph=graph)
        request.validate()
        assert "weighted" not in request.describe()

    def test_weighted_rejects_legacy_engine(self):
        graph = uncertain_erdos_renyi(30, 0.2, seed=0)
        # Removed selectors are rejected, not ignored.
        with pytest.raises(TypeError):
            ReductionRequest(p=0.5, method="crr", graph=graph, engine="legacy")
        with pytest.raises(TypeError):
            ReductionRequest(p=0.5, method="crr", graph=graph, weighted=True)


#: Artifact tokens recorded when weighted runs were requested with an
#: explicit flag (graph ``uncertain_erdos_renyi(120, 0.08, seed=3)``,
#: p=0.5, seed=0): persisted weighted artifacts must keep their tokens.
RECORDED_TOKENS = {
    "bm2": "50f38703d4c820bc8fe5d2d56eb06ca3",
    "crr": "d372257d2b66132fdc6572e5cfc0db84",
}


class TestServiceWeighted:
    def test_weighted_and_blind_cache_separately(self):
        graph = uncertain_erdos_renyi(100, 0.08, seed=3)
        service = SheddingService()
        try:
            # An untagged artifact under the weighted graph's digest is what
            # a weight-blind run used to persist; it must never be served.
            blind, _ = weight_blind_reduce(BM2Shedder(seed=0), graph, 0.5)
            stale = ReductionResult(
                method="BM2",
                original=graph,
                reduced=blind,
                p=0.5,
                delta=compute_delta(graph, blind, 0.5),
                elapsed_seconds=0.0,
            )
            untagged = ArtifactKey(graph_digest(graph), "bm2", 0.5, 0, "")
            service.store.put(untagged, stale)
            aware = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=graph)
            ).result(60)
            assert aware.cache_hit is None
            assert aware.reduction.method == "BM2"
            assert aware.reduction.stats["weighted"] is True
            assert sorted(aware.reduction.reduced.edges()) != sorted(blind.edges())
            # Same request again: memory hit on the tagged key.
            again = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=graph)
            ).result(60)
            assert again.cache_hit == "memory"
        finally:
            service.shutdown()

    @pytest.mark.parametrize("method", sorted(RECORDED_TOKENS))
    def test_weighted_tokens_unchanged(self, method):
        graph = uncertain_erdos_renyi(120, 0.08, seed=3)
        service = SheddingService()
        try:
            request = ReductionRequest(p=0.5, method=method, graph=graph, seed=0)
            key = service.store.key_for(
                graph, method, 0.5, 0, variant=service._variant(request, graph, method)
            )
            assert key.variant == "weighted"
            assert key.token == RECORDED_TOKENS[method]
        finally:
            service.shutdown()

    def test_weighted_beats_blind_through_service(self):
        graph = uncertain_erdos_renyi(150, 0.06, seed=5)
        service = SheddingService()
        try:
            aware = service.submit(
                ReductionRequest(p=0.5, method="crr", graph=graph)
            ).result(60)
            _, blind_edd = weight_blind_reduce(CRRShedder(seed=0), graph, 0.5)
            assert aware.reduction.stats["expected_degree_distance"] < blind_edd
        finally:
            service.shutdown()

    def test_sharded_mode_runs_weighted_whole_graph(self):
        graph = uncertain_erdos_renyi(100, 0.08, seed=3)
        service = SheddingService(mode="sharded", num_shards=2)
        try:
            result = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=graph)
            ).result(60)
            assert result.reduction.method == "BM2"
            assert result.reduction.stats["weighted"] is True
            assert "num_shards" not in result.metadata
            assert result.metadata["unsharded"] == "weighted graph"
            counters = service.metrics_snapshot()["counters"]
            assert counters["unsharded_weighted"] == 1
            # An unweighted graph in the same service still shards, silently.
            plain = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=erdos_renyi(100, 0.08, seed=3))
            ).result(60)
            assert plain.metadata["num_shards"] == 2
            assert "unsharded" not in plain.metadata
            assert service.metrics_snapshot()["counters"]["unsharded_weighted"] == 1
        finally:
            service.shutdown()


class TestSessionArtifactExport:
    def test_graceful_close_exports(self):
        async def run():
            store = ArtifactStore()
            async with SessionManager(num_workers=1, artifact_store=store) as mgr:
                graph = erdos_renyi(120, 0.06, seed=1)
                session = await mgr.open(
                    graph=graph, config=SessionConfig(p=0.5, method="bm2")
                )
                session.submit([("insert", 0, 115)])
                await session.flush()
                telemetry = await mgr.close_session(session)
            return store, telemetry

        store, telemetry = asyncio.run(run())
        assert store.stats["puts"] == 1
        artifact = telemetry["artifact"]
        assert artifact["method"] == "session-bm2"
        assert artifact["variant"].startswith("session=")

    def test_forced_close_does_not_export(self):
        async def run():
            store = ArtifactStore()
            async with SessionManager(num_workers=1, artifact_store=store) as mgr:
                graph = erdos_renyi(120, 0.06, seed=1)
                session = await mgr.open(
                    graph=graph, config=SessionConfig(p=0.5, method="bm2")
                )
                telemetry = await mgr.close_session(session, force=True)
            return store, telemetry

        store, telemetry = asyncio.run(run())
        assert store.stats["puts"] == 0
        assert "artifact" not in telemetry

    def test_no_store_no_export(self):
        async def run():
            async with SessionManager(num_workers=1) as mgr:
                graph = erdos_renyi(120, 0.06, seed=1)
                session = await mgr.open(
                    graph=graph, config=SessionConfig(p=0.5, method="bm2")
                )
                return await mgr.close_session(session)

        telemetry = asyncio.run(run())
        assert "artifact" not in telemetry
