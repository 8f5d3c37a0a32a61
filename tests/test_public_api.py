"""Public API surface tests: exports exist, are importable, and stable."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_classes_importable(self):
        from repro import (  # noqa: F401
            BM2Shedder,
            CRRShedder,
            Graph,
            ReductionResult,
            UDSSummarizer,
            all_tasks,
            load_dataset,
        )

    def test_shedders_share_interface(self):
        from repro import (
            BM2Shedder,
            CoreShedder,
            CRRShedder,
            DegreeProportionalShedder,
            EdgeShedder,
            JaccardShedder,
            LocalDegreeShedder,
            RandomShedder,
            UDSSummarizer,
        )

        for cls in (
            CRRShedder,
            BM2Shedder,
            UDSSummarizer,
            RandomShedder,
            DegreeProportionalShedder,
            CoreShedder,
            LocalDegreeShedder,
            JaccardShedder,
        ):
            assert issubclass(cls, EdgeShedder)
            assert isinstance(cls.name, str) and cls.name


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.graph",
        "repro.core",
        "repro.baselines",
        "repro.embedding",
        "repro.tasks",
        "repro.datasets",
        "repro.analysis",
        "repro.streaming",
        "repro.dynamic",
        "repro.service",
        "repro.shard",
        "repro.bench",
        "repro.bench.experiments",
    ],
)
class TestSubpackageSurfaces:
    def test_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_key_errors_are_key_errors(self):
        from repro.errors import EdgeNotFoundError, NodeNotFoundError

        assert issubclass(NodeNotFoundError, KeyError)
        assert issubclass(EdgeNotFoundError, KeyError)

    def test_value_errors_are_value_errors(self):
        from repro.errors import InvalidRatioError, SelfLoopError

        assert issubclass(InvalidRatioError, ValueError)
        assert issubclass(SelfLoopError, ValueError)

    def test_catching_base_class_works(self, figure1):
        from repro import BM2Shedder, ReproError

        with pytest.raises(ReproError):
            BM2Shedder().reduce(figure1, 5.0)


class TestOneEnginePerAlgorithm:
    """Each algorithm has one engine; the scalar oracles live in tests/oracles.

    Removed from the public surface: ``repro.DegreeTracker`` and
    ``repro.core.DegreeTracker`` (the dict tracker), ``repro.core.bipartite_repair``
    (the heap Algorithm 3) and ``repro.graph.greedy_b_matching`` (the dict
    scan), together with every ``engine=``/``repair=`` selector, the
    ``max_rounds=``/``block_size=`` b-matching variants and CRR's
    ``skip_ranking=`` shorthand for ``importance="random"``.

    Also removed: ``WeightedCRRShedder``/``WeightedBM2Shedder`` and every
    ``weighted=`` selector — CRR and BM2 run the expected-degree objective
    exactly when their input carries edge probabilities.
    """

    REMOVED_NAMES = {
        "repro": ["DegreeTracker", "WeightedCRRShedder", "WeightedBM2Shedder"],
        "repro.core": ["DegreeTracker", "bipartite_repair"],
        "repro.graph": ["greedy_b_matching"],
        "repro.service.request": ["WeightedCRRShedder", "WeightedBM2Shedder"],
        "repro.uncertain": ["WeightedCRRShedder", "WeightedBM2Shedder"],
    }
    SELECTORS = {
        "engine", "repair", "max_rounds", "block_size", "skip_ranking", "weighted",
    }

    @pytest.mark.parametrize("module_name", sorted(REMOVED_NAMES))
    def test_removed_names_are_gone(self, module_name):
        module = importlib.import_module(module_name)
        for name in self.REMOVED_NAMES[module_name]:
            assert name not in module.__all__
            assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "target",
        [
            "repro.core.crr:CRRShedder",
            "repro.core.bm2:BM2Shedder",
            "repro.core.bm2:bipartite_repair_ids",
            "repro.core.bm2:bm2_reduce_ids",
            "repro.core.crr:crr_reduce_ids",
            "repro.core.crr:crr_rewire_ids",
            "repro.baselines.uds:UDSSummarizer",
            "repro.graph.communities:label_propagation",
            "repro.graph.matching:greedy_b_matching_ids",
            "repro.embedding.walks:generate_walks",
            "repro.embedding.node2vec:node2vec_embed",
            "repro.embedding.skipgram:train_skipgram",
            "repro.tasks.link_prediction:LinkPredictionTask",
            "repro.shard.runner:ShardedShedder",
            "repro.service.request:make_shedder",
            "repro.service.request:ReductionRequest",
            "repro.service.store:ArtifactKey",
            "repro.service.store:ArtifactStore.key_for",
            "repro.service.store:ArtifactStore.get_or_compute",
            "repro.service.scheduler:ProcessEngine.execute",
        ],
    )
    def test_no_engine_selectors(self, target):
        import inspect

        module_name, _, path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert not self.SELECTORS & set(inspect.signature(obj).parameters)

    def test_weighted_shedder_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.uncertain.shedders")

    def test_request_has_no_weighted_field(self):
        import dataclasses

        from repro.service import ReductionRequest

        assert "weighted" not in {f.name for f in dataclasses.fields(ReductionRequest)}

    def test_crr_has_no_label_space_phases(self):
        from repro import CRRShedder

        assert not hasattr(CRRShedder, "_initial_edges")
        assert not hasattr(CRRShedder, "_rewire")

    def test_session_config_has_no_engine(self):
        import dataclasses

        from repro.sessions import SessionConfig

        # ``repair`` here is the dynamic maintainer's RepairConfig, not an
        # Algorithm 3 engine selector.
        assert "engine" not in {field.name for field in dataclasses.fields(SessionConfig)}

    def test_crr_has_no_skip_ranking_view(self):
        from repro import CRRShedder

        assert not hasattr(CRRShedder(), "skip_ranking")
