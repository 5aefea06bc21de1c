"""Batch invariance: a row's logits do not depend on its batch-mates.

The server runs every micro-batch at its exact row count, so the same
request can be answered from a 1-row run or from the middle of a full
batch.  That is only safe if every compiled plan is row-invariant: the
integer GEMMs are exact, and the float linear layers compute each row as
its own product (``F.linear`` and the plan's float linear step).  For
every registered model, in the ``int`` and ``float64`` plan variants,
each run at a small or odd row count must reproduce — bit for bit — the
same rows from one 128-row run.
"""

import numpy as np
import pytest

from repro import datasets
from repro.core.deployment import DeploymentConfig, deploy_model, make_inference_engine
from repro.models.registry import MODEL_DATASET, available_models, build_model

FULL_ROWS = 128
ROW_COUNTS = (1, 2, 3, 7, 9, 17)
VARIANTS = {"int": "auto", "float64": "off"}


@pytest.fixture(scope="module", params=available_models())
def deployment(request):
    name = request.param
    maker = (
        datasets.mnist_like
        if MODEL_DATASET[name] == "mnist-like"
        else datasets.cifar_like
    )
    train_set, _ = maker(train_size=FULL_ROWS, test_size=4, seed=0)
    images = np.asarray(train_set.images[:FULL_ROWS], dtype=np.float64)
    model = build_model(name, width_multiplier=0.25, rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
        images[:16],
    )
    return name, deployed, images


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_rows_match_the_full_batch_at_every_row_count(deployment, variant):
    name, deployed, images = deployment
    engine = make_inference_engine(deployed, dtype=np.float64,
                                   int_path=VARIANTS[variant])
    full = engine.run(images)
    assert engine.active_backend == variant, f"{name}: {engine.active_backend}"
    for rows in ROW_COUNTS:
        # Windows at the start and deep inside the full batch.
        for start in (0, FULL_ROWS - rows - 5):
            got = engine.run(images[start : start + rows])
            assert np.array_equal(got, full[start : start + rows]), (
                f"{name} ({variant}): rows {start}..{start + rows} differ "
                f"when run as a batch of {rows}"
            )
