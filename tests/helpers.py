"""Importable test helpers shared across the suite.

Test modules must import shared model builders from here rather than from
``conftest``: a bare ``from conftest import ...`` resolves against whichever
conftest pytest put on ``sys.path`` first (historically this picked up
``benchmarks/conftest.py`` when running from the repo root, breaking
collection).
"""

from typing import List, Tuple

from repro.models.base import ModelSpec
from repro.models.blocks import (
    batchnorm_layer,
    conv_layer,
    linear_layer,
    loss_layer,
    relu_layer,
)


def make_tiny_model(batch: int = 4, optimizer: str = "adam") -> ModelSpec:
    """A small but structurally complete CNN training workload."""
    layers = [
        conv_layer("conv1", batch, 3, 32, 32, 16, 3, 1, 1),
        batchnorm_layer("bn1", batch, 16, 32, 32),
        relu_layer("relu1", batch * 16 * 32 * 32),
        conv_layer("conv2", batch, 16, 32, 32, 32, 3, 2, 1),
        batchnorm_layer("bn2", batch, 32, 16, 16),
        relu_layer("relu2", batch * 32 * 16 * 16),
        linear_layer("fc", batch, 32 * 16 * 16, 10),
        loss_layer("loss", batch, 10),
    ]
    return ModelSpec(
        name="tinycnn",
        layers=layers,
        batch_size=batch,
        input_sample_bytes=3 * 32 * 32 * 4,
        default_optimizer=optimizer,
        application="testing",
    )


#: comm rewrites ride on a gradient-sync member, which needs a cluster
_SYNC_FIRST = ("blueconnect", "dgc")
#: a Figure-8 deployment: 2 machines x 2 GPUs over 10 Gbps
_FIG8_CLUSTER = {"machines": 2, "gpus_per_machine": 2, "bandwidth_gbps": 10.0}


def registry_questions(model: str) -> List[Tuple[str, object, object]]:
    """One ``(key, pipeline, cluster)`` question per registry optimization.

    Each optimization runs with its default parameters; distributed ones
    get a Figure-8 cluster, and ``blueconnect``/``dgc`` are stacked after
    ``distributed_training``, which inserts the transfers they rewrite.
    """
    from repro.scenarios import Scenario
    from repro.scenarios.registry import DEFAULT_REGISTRY
    questions = []
    for spec in DEFAULT_REGISTRY.specs():
        stack = [spec.key]
        if spec.key in _SYNC_FIRST:
            stack.insert(0, "distributed_training")
        data = {"model": model, "optimizations": stack}
        if spec.requires_cluster or spec.key in _SYNC_FIRST:
            data["cluster"] = dict(_FIG8_CLUSTER)
        scenario = Scenario.from_dict(data)
        questions.append((spec.key, scenario.build_pipeline(),
                          scenario.build_cluster()))
    return questions
