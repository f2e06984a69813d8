"""Tests for the package's public API surface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.optimizations import __all__ as optimizations_all


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_workflow_sanity(self):
        """The README quickstart works verbatim."""
        from repro import WhatIfSession
        from repro.optimizations import AutomaticMixedPrecision

        session = WhatIfSession.profile("resnet50", batch_size=2)
        pred = session.predict(AutomaticMixedPrecision())
        assert pred.speedup > 1.0

    def test_optimizations_exports(self):
        assert "AutomaticMixedPrecision" in optimizations_all
        assert "DeepGradientCompression" in optimizations_all
        import repro.optimizations as opts
        for name in optimizations_all:
            assert getattr(opts, name) is not None


def test_import_leaves_numpy_unloaded():
    """The package and its CLI import without numpy: the simulator runs
    on plain lists, and numpy's import time and resident memory would be
    paid by every cold process (a fresh interpreter, so no other test's
    import can hide it)."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    script = ("import sys, repro.scenarios, repro.__main__; "
              "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestDocstrings:
    """A release-quality library documents every public module and class."""

    MODULES = [
        "repro", "repro.common.units", "repro.common.prng",
        "repro.common.intervals", "repro.hw.device", "repro.hw.network",
        "repro.hw.topology", "repro.kernels.kernel",
        "repro.kernels.costmodel", "repro.kernels.library",
        "repro.models.base", "repro.models.blocks", "repro.models.registry",
        "repro.framework.config", "repro.framework.engine",
        "repro.framework.bucketing", "repro.framework.groundtruth",
        "repro.framework.paramserver", "repro.tracing.records",
        "repro.tracing.trace", "repro.tracing.export", "repro.core.task",
        "repro.core.graph", "repro.core.construction", "repro.core.mapping",
        "repro.core.simulate", "repro.core.transform",
        "repro.core.breakdown", "repro.analysis.session",
        "repro.analysis.metrics", "repro.analysis.report",
        "repro.analysis.memory", "repro.analysis.layerprofile",
    ]

    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_docstring(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_optimization_models_documented(self):
        import repro.optimizations as opts
        from repro.optimizations.base import OptimizationModel
        for name in optimizations_all:
            obj = getattr(opts, name)
            if isinstance(obj, type) and issubclass(obj, OptimizationModel):
                assert obj.__doc__, name
