"""Exact centralized metrics for error measurement.

Everything here reads the raw (scores, positive) columns, sorted once
per class by _class_sorted, so results are ground truth for the
federated estimators. AUC is computed under both tie conventions: the
strict form counts tied positive/negative pairs as 0, the half-ties
form as 1/2. Histogram estimators approximate the half-ties form on
bucket-coarsened data, so harness error measurements use it.
Precision, recall and accuracy predict positive when score > threshold.

Cost: one value sort per class plus binary searches into the sorted
classes, O(M log M) with no permutation. Every count is an exact
integer (pairs, true and false positives) and each output divides
those integers once, so the floats are the same bits a literal loop
over examples or pairs gives.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "exact_pra_curve",
]


def _class_sorted(
    scores: np.ndarray, positives: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) scores, each sorted by value.

    Both exact metrics below take this pair, so one population is
    sorted once however many metrics read it.
    """
    return (
        np.sort(scores[np.flatnonzero(positives)]),
        np.sort(scores[np.flatnonzero(~positives)]),
    )


def _auc_from_arrays(pos: np.ndarray, neg: np.ndarray) -> tuple[float, float]:
    """(strict, half-ties) AUC of one labeled sample's sorted classes.

    Strict counts a tied pair as 0; half-ties counts it as 1/2. Each
    positive counts the negatives below it by a binary search into the
    sorted negatives; only the positives that equal a negative search
    again for the negatives equal to them. Raises when either class is
    empty.
    """
    if pos.size == 0 or neg.size == 0:
        raise ValueError(
            f"AUC needs both classes, got {pos.size} positives and {neg.size} negatives"
        )
    below = np.searchsorted(neg, pos, side="left")
    strict_pairs = int(below.sum())
    # Only a positive equal to the first negative not below it has ties.
    tied = np.flatnonzero(neg[np.minimum(below, neg.size - 1)] == pos)
    above = np.searchsorted(neg, pos[tied], side="right")
    tied_pairs = int((above - below[tied]).sum())
    denom = pos.size * neg.size
    return strict_pairs / denom, (strict_pairs + tied_pairs / 2) / denom


def exact_pra_curve(
    pos: np.ndarray, neg: np.ndarray, thresholds: Iterable[float]
) -> list[tuple[float | None, float | None, float]]:
    """(precision, recall, accuracy) at each threshold, from sorted classes.

    An example is predicted positive when its score exceeds the
    threshold, so a class's predicted positives are its size minus one
    binary search per threshold. Precision is None when nothing is
    predicted positive; recall is None when there are no positives.
    """
    total = pos.size + neg.size
    if total == 0:
        raise ValueError("exact_pra_curve needs at least one example")
    cuts = np.asarray(list(thresholds), dtype=np.float64)
    true_pos = (pos.size - np.searchsorted(pos, cuts, side="right")).tolist()
    false_pos = (neg.size - np.searchsorted(neg, cuts, side="right")).tolist()
    return [
        (
            tp / (tp + fp) if tp + fp > 0 else None,
            tp / pos.size if pos.size > 0 else None,
            (tp + neg.size - fp) / total,
        )
        for tp, fp in zip(true_pos, false_pos)
    ]
