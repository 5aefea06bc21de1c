"""Accuracy metrics and the bookkeeping the paper's tables report.

Every table in the paper derives from three numbers per configuration:

- ``accuracy_without`` — quantized accuracy with traditional training,
- ``accuracy_with`` — quantized accuracy with the proposed method,
- ``ideal`` — the fp32 accuracy (Table 1);

from which "Recovered Acc." = with − without and "Acc. Drop" = with − ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.data import Dataset
from repro.nn.modules import Module


def _batched_logits(model: Module, dataset: Dataset, batch_size: int):
    """Yield ``(logits, labels)`` per batch, through a compiled plan.

    Eval loops dominate experiment wall-clock, so batches run through an
    :class:`~repro.runtime.engine.InferenceEngine` plan (float64, integer
    path off — bit-identical to the graph executor; modules the plan
    compiler cannot lower fall back to the graph transparently).  The engine is per-call, so
    weight updates between calls are always picked up.
    """
    from repro.runtime.engine import EngineConfig, InferenceEngine

    engine = InferenceEngine(
        model, EngineConfig(dtype=np.float64, int_path="off")
    )
    for start in range(0, len(dataset), batch_size):
        images = dataset.images[start : start + batch_size]
        labels = dataset.labels[start : start + batch_size]
        yield engine.run(images), labels


def evaluate_accuracy(model: Module, dataset: Dataset, batch_size: int = 256) -> float:
    """Top-1 accuracy (fraction in [0, 1]) of ``model`` on ``dataset``.

    The model is evaluated in eval mode and restored to its previous mode.
    """
    was_training = model.training
    model.eval()
    correct = 0
    try:
        for logits, labels in _batched_logits(model, dataset, batch_size):
            correct += int((logits.argmax(axis=1) == labels).sum())
    finally:
        model.train(was_training)
    return correct / len(dataset)


def top_k_accuracy(model: Module, dataset: Dataset, k: int = 5, batch_size: int = 256) -> float:
    """Top-k accuracy (fraction in [0, 1])."""
    was_training = model.training
    model.eval()
    hits = 0
    try:
        for logits, labels in _batched_logits(model, dataset, batch_size):
            top = np.argsort(-logits, axis=1)[:, :k]
            hits += int((top == labels[:, None]).any(axis=1).sum())
    finally:
        model.train(was_training)
    return hits / len(dataset)


def confusion_matrix(model: Module, dataset: Dataset, batch_size: int = 256) -> np.ndarray:
    """(num_classes × num_classes) count matrix, rows = true class."""
    num_classes = dataset.num_classes
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    was_training = model.training
    model.eval()
    try:
        for logits, labels in _batched_logits(model, dataset, batch_size):
            np.add.at(matrix, (labels, logits.argmax(axis=1)), 1)
    finally:
        model.train(was_training)
    return matrix


@dataclass(frozen=True)
class QuantizationOutcome:
    """One table cell group: the with/without/ideal accuracy triple.

    Accuracies are percentages (0–100), matching the paper's tables.
    """

    model: str
    bits: int
    accuracy_without: float
    accuracy_with: float
    ideal: float

    @property
    def recovered(self) -> float:
        """"Recovered Acc." — how much the proposed method wins back."""
        return self.accuracy_with - self.accuracy_without

    @property
    def drop(self) -> float:
        """"Acc. Drop" — remaining gap to the fp32 ideal (≥ 0 when lossy)."""
        return self.ideal - self.accuracy_with

    def row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "model": self.model,
            "bits": self.bits,
            "without": round(self.accuracy_without, 2),
            "with": round(self.accuracy_with, 2),
            "recovered": round(self.recovered, 2),
            "drop": round(self.drop, 2),
            "ideal": round(self.ideal, 2),
        }
