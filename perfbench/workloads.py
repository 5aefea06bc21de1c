"""The benchmark's three serving workloads and the inputs they are built from.

Every workload serves a quantized deployment (4-bit signals, 4-bit
weights, 8-bit input) through :func:`repro.core.deployment.make_model_server`
and drives it with the seeded closed-loop :func:`repro.serve.run_load`
from ``CLIENTS`` client threads.  The deployment itself never depends on
the run's seed: the model weights, the calibration images and the warm-up
images come from ``MODEL_SEED``, so a seed changes only the requests the
program sees, never the program it serves them with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.deployment import DeploymentConfig
from repro.datasets.cifar_like import generate_cifar_like
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.models.registry import build_model as build_registered_model
from repro.serve import LoadGenConfig, ServeConfig

#: Closed-loop client threads; matches the 2-core host the bounds were set on.
CLIENTS = 2
#: Every power-of-two batch shape a replica can run ("bucket"), warmed in setup.
BUCKETS = (8, 16, 32, 64, 128)
#: Images requests are sliced from (a multiple of the largest bucket).
IMAGE_POOL = 512
#: Seed of everything the deployment is made from (weights, calibration).
MODEL_SEED = 0
#: Calibration images handed to ``deploy_model``.
CALIBRATION_ROWS = 32
#: Width multiplier of ResNet-CIFAR, as in the repository's benchmarks.
RESNET_WIDTH = 0.125
#: Largest absolute logit deviation accepted on the ResNet graph path.
#: Served logits are not bit-exact there: float64 GEMM rounding depends
#: on the row count of the coalesced batch (observed up to 9e-15).
RESNET_ATOL = 1e-9
#: Percentile reported as ``latency_tail_ms``.  A 30-second run has 40 to
#: 800 samples beyond it; higher percentiles are set by host scheduling
#: stalls and do not repeat between runs (see README.md).
TAIL_PERCENTILE = 95.0
#: Request schedules of successive rounds are planned from ``seed *
#: ROUND_STRIDE + round`` so rounds never share a schedule.
ROUND_STRIDE = 100_003


@dataclass(frozen=True)
class Workload:
    """One traffic mix: model, pool kind, replica count and request sizes."""

    name: str
    model: str
    pool: str
    replicas: int
    min_rows: int
    max_rows: int
    #: Requests per client in one ``run_load`` round (a round lasts ~0.5-2 s).
    round_requests: int
    #: Cold set-ups per run (one in the serving process, the rest in fresh
    #: probe processes); ``setup_s`` is their median.
    setup_samples: int
    #: LeNet's integer path is bit-exact; ResNet's graph path is checked
    #: by argmax plus ``RESNET_ATOL``.
    exact: bool

    @property
    def serve_config(self) -> ServeConfig:
        return ServeConfig(workers=self.replicas, pool=self.pool)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="small", model="lenet", pool="thread", replicas=2,
            min_rows=1, max_rows=8, round_requests=500, setup_samples=7,
            exact=True,
        ),
        Workload(
            name="process", model="lenet", pool="process", replicas=2,
            min_rows=1, max_rows=8, round_requests=500, setup_samples=5,
            exact=True,
        ),
        Workload(
            name="resnet", model="resnet", pool="thread", replicas=1,
            min_rows=1, max_rows=12, round_requests=10, setup_samples=5,
            exact=False,
        ),
    )
}


def make_images(workload: Workload, rows: int, seed: int) -> np.ndarray:
    """``rows`` images of the workload's dataset, generated from ``seed``."""
    if workload.model == "resnet":
        return generate_cifar_like(rows, seed=seed).images
    return generate_mnist_like(rows, seed=seed).images


def make_model(workload: Workload):
    """The (untrained, seeded) network the workload deploys."""
    rng = np.random.default_rng(MODEL_SEED)
    if workload.model == "resnet":
        model = build_registered_model("resnet", width_multiplier=RESNET_WIDTH, rng=rng)
    else:
        model = LeNet(rng=rng)
    model.eval()
    return model


def deployment_config(workload: Workload) -> DeploymentConfig:
    """4-bit signals and weights, 8-bit input.

    ResNet's batchnorm pins activations to O(1) scale, so it needs the
    calibrated network-wide IFC gain (see ``DeploymentConfig``).
    """
    gain = "auto" if workload.model == "resnet" else 1.0
    return DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8, signal_gain=gain)


def setup_inputs(workload: Workload) -> Tuple[object, np.ndarray, np.ndarray]:
    """``(model, calibration_images, warmup_images)``, all from ``MODEL_SEED``."""
    warm = make_images(workload, max(BUCKETS), MODEL_SEED)
    return make_model(workload), warm[:CALIBRATION_ROWS], warm


def round_config(workload: Workload, seed: int, round_index: int) -> LoadGenConfig:
    """The ``run_load`` configuration of one round of the timed phase."""
    return LoadGenConfig(
        clients=CLIENTS,
        requests_per_client=workload.round_requests,
        min_rows=workload.min_rows,
        max_rows=workload.max_rows,
        seed=seed * ROUND_STRIDE + round_index,
    )
