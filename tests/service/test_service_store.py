"""Content-addressed artifact store: keys, LRU, persistence tiers."""

import json

import pytest

from repro.graph.graph import Graph
from repro.service.request import make_shedder
from repro.service.store import ArtifactKey, ArtifactStore, graph_digest


@pytest.fixture
def graph():
    g = Graph(nodes=range(12))
    for node in range(1, 12):
        g.add_edge(node, node // 2)
    for node in range(0, 10, 2):
        g.add_edge(node, node + 2)
    return g


def _reduce(graph, method="bm2", p=0.5, seed=0):
    return make_shedder(method, seed=seed).reduce(graph, p)


class TestGraphDigest:
    def test_insertion_order_independent(self):
        a = Graph(edges=[(1, 2), (2, 3), (3, 4)])
        b = Graph(edges=[(3, 4), (2, 3), (1, 2)])
        assert graph_digest(a) == graph_digest(b)

    def test_distinguishes_structure(self):
        a = Graph(edges=[(1, 2), (2, 3)])
        b = Graph(edges=[(1, 2), (1, 3)])
        assert graph_digest(a) != graph_digest(b)

    def test_distinguishes_label_types(self):
        a = Graph(edges=[(1, 2)])
        b = Graph(edges=[("1", "2")])
        assert graph_digest(a) != graph_digest(b)

    def test_isolated_nodes_matter(self):
        a = Graph(edges=[(1, 2)])
        b = Graph(edges=[(1, 2)], nodes=[99])
        assert graph_digest(a) != graph_digest(b)

    # Persisted artifact file names derive from these bytes: a changed
    # digest silently orphans every existing cache directory.
    def test_unweighted_digest_bytes_pinned(self, graph):
        assert graph_digest(graph) == (
            "9bbf854aa208b97c86e350751e5c3924b446ba2fd8ea7e8abd2cbe7bb5a53c86"
        )

    def test_weighted_digest_bytes_pinned(self):
        g = Graph(edges=[(1, 2), (2, 3)], nodes=["x"])
        g.add_edge(3, 1, weight=0.25)
        g.set_edge_weight(1, 2, 0.5)
        assert graph_digest(g) == (
            "cbc4781bfb353d2547119819536f08d636326df1a93dc4db0de0976d5f90770f"
        )


class TestArtifactKey:
    def test_token_is_stable_and_filesystem_safe(self):
        key = ArtifactKey("d" * 64, "bm2", 0.5, 0)
        assert key.token == ArtifactKey("d" * 64, "bm2", 0.5, 0).token
        assert key.token.isalnum()

    def test_token_distinguishes_fields(self):
        base = ArtifactKey("d" * 64, "bm2", 0.5, 0)
        assert base.token != ArtifactKey("d" * 64, "crr", 0.5, 0).token
        assert base.token != ArtifactKey("d" * 64, "bm2", 0.4, 0).token
        assert base.token != ArtifactKey("d" * 64, "bm2", 0.5, 1).token
        assert base.token != ArtifactKey("d" * 64, "bm2", 0.5, 0, variant="s=8").token


class TestMemoryTier:
    def test_miss_then_memory_hit_returns_same_object(self, graph):
        store = ArtifactStore()
        key = store.key_for(graph, "bm2", 0.5, 0)
        assert store.get(key, graph) is None
        result = _reduce(graph)
        store.put(key, result)
        assert store.get(key, graph) is result
        assert store.stats["memory_hits"] == 1
        assert store.stats["misses"] == 1

    def test_get_or_compute_counts_computes(self, graph):
        store = ArtifactStore()
        calls = []
        result, hit = store.get_or_compute(
            graph, "bm2", 0.5, 0, compute=lambda: calls.append(1) or _reduce(graph)
        )
        assert hit is None
        assert store.stats["computes"] == 1
        again, hit = store.get_or_compute(
            graph, "bm2", 0.5, 0, compute=lambda: calls.append(1) or _reduce(graph)
        )
        assert hit == "memory"
        assert again is result
        assert len(calls) == 1
        assert store.stats["computes"] == 1

    def test_lru_eviction_respects_byte_budget(self, graph):
        store = ArtifactStore(byte_budget=1)
        first = store.key_for(graph, "bm2", 0.5, 0)
        store.put(first, _reduce(graph))
        # Single over-budget artifact with no disk copy stays resident.
        assert store.in_memory(first)
        second = store.key_for(graph, "bm2", 0.4, 0)
        store.put(second, _reduce(graph, p=0.4))
        assert store.stats["evictions"] >= 1
        assert not store.in_memory(first)

    def test_evict_all(self, graph):
        store = ArtifactStore()
        store.put(store.key_for(graph, "bm2", 0.5, 0), _reduce(graph))
        assert store.evict_all() == 1
        assert len(store) == 0


class TestGetWithTier:
    def test_reports_each_tier_and_miss(self, graph, tmp_path):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)
        missing, tier = store.get_with_tier(key, graph)
        assert missing is None and tier is None
        result = _reduce(graph)
        store.put(key, result)
        hit, tier = store.get_with_tier(key, graph)
        assert hit is result and tier == "memory"

        fresh = ArtifactStore(persist_dir=tmp_path)
        hit, tier = fresh.get_with_tier(key, graph)
        assert hit is not None and tier == "disk"
        # the disk hit is promoted into memory
        hit, tier = fresh.get_with_tier(key, graph)
        assert tier == "memory"


class TestDiskTier:
    def test_persist_and_warm_restart(self, graph, tmp_path):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)
        result = _reduce(graph)
        store.put(key, result)
        assert list(tmp_path.glob("*.json"))

        fresh = ArtifactStore(persist_dir=tmp_path)
        assert key in fresh
        loaded = fresh.get(key, graph)
        assert loaded is not None
        assert fresh.stats["disk_hits"] == 1
        assert loaded.delta == result.delta
        assert set(map(frozenset, loaded.reduced.edges())) == set(
            map(frozenset, result.reduced.edges())
        )
        assert loaded.original is graph

    def test_eviction_keeps_disk_copy(self, graph, tmp_path):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)
        store.put(key, _reduce(graph))
        assert store.evict(key)
        assert key in store
        assert store.get(key, graph) is not None
        assert store.stats["disk_hits"] == 1

    def test_delete_removes_both_tiers(self, graph, tmp_path):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)
        store.put(key, _reduce(graph))
        assert store.delete(key)
        assert key not in store
        assert not list(tmp_path.glob("*.json"))
        assert store.get(key, graph) is None

    def test_unpersistable_labels_skip_disk(self, tmp_path):
        g = Graph(edges=[((1, 2), (3, 4)), ((3, 4), (5, 6))])
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(g, "random", 0.5, 0)
        store.put(key, _reduce(g, method="random"))
        assert store.stats["persist_skipped"] == 1
        assert not list(tmp_path.glob("*.json"))
        # still served from memory
        assert store.get(key, g) is not None

    def test_failed_write_skips_persist_not_raises(self, graph, tmp_path, monkeypatch):
        from pathlib import Path

        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)

        def broken_write(self, *args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", broken_write)
        store.put(key, _reduce(graph))
        assert store.stats["persist_skipped"] == 1
        assert not list(tmp_path.glob("*.json"))
        # still served from memory
        assert store.get(key, graph) is not None

    def test_corrupt_file_counts_load_error(self, graph, tmp_path):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)
        store.put(key, _reduce(graph))
        path = next(tmp_path.glob("*.json"))
        path.write_text("{not json", encoding="utf-8")
        store.evict(key)
        assert store.get(key, graph) is None
        assert store.stats["load_errors"] == 1

    def test_wrong_format_version_ignored_on_scan(self, graph, tmp_path):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)
        store.put(key, _reduce(graph))
        path = next(tmp_path.glob("*.json"))
        document = json.loads(path.read_text())
        document["format_version"] = 999
        path.write_text(json.dumps(document))
        fresh = ArtifactStore(persist_dir=tmp_path)
        assert key not in fresh


class TestCachesWrittenWithEngineKeys:
    """Artifact documents persisted while an ``engine`` was part of the key.

    Those documents carry ``"engine"`` in their key; the only engine left
    is the array engine, so its documents must keep serving disk hits
    under the same file token, and any other engine's must be refused.
    """

    def _persist_with_engine(self, graph, tmp_path, engine):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.key_for(graph, "bm2", 0.5, 0)
        store.put(key, _reduce(graph))
        path = tmp_path / f"{key.token}.json"
        document = json.loads(path.read_text())
        document["key"]["engine"] = engine
        path.write_text(json.dumps(document))
        return key

    def test_token_unchanged_without_engine_field(self):
        # Tokens hashed with the engine slot set to "array" name the files
        # of existing cache directories.
        assert ArtifactKey("abc", "bm2", 0.5, 0).token == "7b71a5083640d36db2d89597e46567e7"
        assert (
            ArtifactKey("abc", "crr", 0.25, None, variant="sources=8").token
            == "b919d9d9a55195691e8ddd5358446e9f"
        )

    def test_array_engine_documents_served_as_disk_hits(self, graph, tmp_path):
        key = self._persist_with_engine(graph, tmp_path, "array")
        fresh = ArtifactStore(persist_dir=tmp_path)
        assert key in fresh
        loaded, hit = fresh.get_with_tier(key, graph)
        assert hit == "disk"
        assert loaded.reduced == _reduce(graph).reduced
        assert fresh.stats["load_errors"] == 0

    def test_other_engine_documents_skipped_and_counted(self, graph, tmp_path):
        key = self._persist_with_engine(graph, tmp_path, "legacy")
        fresh = ArtifactStore(persist_dir=tmp_path)
        assert key not in fresh
        assert fresh.stats["load_errors"] == 1
        assert fresh.get(key, graph) is None
        assert fresh.stats["disk_hits"] == 0
