"""Evaluation metrics: accuracy, F1 and ranking MRR.

Ranking is pessimistic about ties: a positive tied with m negatives ranks
behind all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class RankedQuery:
    """One ranking instance: the positive's score against its negatives."""

    positive_score: float
    negative_scores: np.ndarray

    @property
    def rank(self) -> int:
        neg = np.asarray(self.negative_scores, dtype=np.float64)
        return 1 + int((neg >= self.positive_score).sum())


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ContractError(
            f"predictions {predictions.shape} and labels {labels.shape} must be "
            "equal-length 1-D arrays")
    if predictions.size == 0:
        raise ContractError("accuracy of an empty batch is undefined")
    return float((predictions == labels).mean())


@dataclass
class F1Report:
    per_class: np.ndarray
    macro: float
    micro: float
    zero_support_classes: list[int]


def f1_scores(predictions, labels, num_classes: int) -> F1Report:
    """Per-class, macro, and micro F1.  A class absent from both predictions
    and labels scores 0 and is listed in zero_support_classes; with
    single-label rows micro F1 equals accuracy."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ContractError("predictions and labels must be equal-length 1-D arrays")
    if predictions.size == 0:
        raise ContractError("f1 of an empty batch is undefined")
    if num_classes < 1:
        raise ContractError("num_classes must be >= 1")
    for arr, what in ((predictions, "prediction"), (labels, "label")):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise IndexError(f"{what} out of range [0, {num_classes})")
    per_class = np.zeros(num_classes)
    zero_support = []
    tp_total = 0
    for c in range(num_classes):
        tp = int(((predictions == c) & (labels == c)).sum())
        fp = int(((predictions == c) & (labels != c)).sum())
        fn = int(((predictions != c) & (labels == c)).sum())
        tp_total += tp
        if tp + fp + fn == 0:
            zero_support.append(c)
            continue
        per_class[c] = 2.0 * tp / (2.0 * tp + fp + fn)
    micro = 2.0 * tp_total / (2.0 * tp_total
                              + (predictions.size - tp_total)
                              + (labels.size - tp_total))
    return F1Report(per_class, float(per_class.mean()), float(micro), zero_support)


def mrr(queries) -> float:
    """Mean reciprocal rank over RankedQuery items (pessimistic ties)."""
    queries = list(queries)
    if not queries:
        raise ContractError("mrr of zero queries is undefined")
    return float(np.mean([1.0 / q.rank for q in queries]))

