"""Public API surface: everything advertised imports and is exported."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_and_paper(self):
        assert repro.__version__
        assert "Massive-Scale" in repro.PAPER

    def test_core_classes_reachable(self):
        for name in ("DNND", "NNDescent", "HNSW", "KNNGraphSearcher",
                     "MetallStore", "IncrementalIndex"):
            assert hasattr(repro, name)


class TestSubpackageExports:
    @pytest.mark.parametrize("module", [
        "repro.core", "repro.runtime", "repro.baselines",
        "repro.distances", "repro.datasets", "repro.io", "repro.eval",
        "repro.utils",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_eval_exports_new_harness(self):
        from repro.eval import (
            AnnBenchmarkRunner,
            ConvergenceTrace,
            ParallelQueryEngine,
            ascii_plot,
        )
        assert callable(ascii_plot)
        assert AnnBenchmarkRunner and ConvergenceTrace and ParallelQueryEngine

    def test_baselines_cover_the_taxonomy(self):
        from repro.baselines import HNSW, KDTree, LSHIndex, PQIndex
        from repro.baselines.pq import IVFPQIndex
        assert all((HNSW, KDTree, LSHIndex, PQIndex, IVFPQIndex))

    def test_cli_entry_point(self):
        from repro.cli import main
        assert callable(main)


class TestDocstrings:
    @pytest.mark.parametrize("module", [
        "repro", "repro.core.dnnd", "repro.core.nndescent",
        "repro.core.search", "repro.runtime.ygm", "repro.runtime.metall",
        "repro.runtime.transports", "repro.runtime.netmodel",
        "repro.baselines.hnsw", "repro.baselines.pq",
        "repro.eval.ann_benchmark",
    ])
    def test_modules_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 80, module

    def test_public_classes_documented(self):
        for cls in (repro.DNND, repro.NNDescent, repro.HNSW,
                    repro.KNNGraphSearcher, repro.MetallStore,
                    repro.NeighborHeap, repro.KNNGraph):
            assert cls.__doc__ and len(cls.__doc__) > 40, cls
