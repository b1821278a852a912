"""Exact centralized metrics for error measurement.

Everything here sees the raw examples, so results are ground truth for
the federated estimators. AUC is computed under both tie conventions:
the strict form counts tied positive/negative pairs as 0, the half-ties
form as 1/2. Histogram estimators approximate the half-ties form on
bucket-coarsened data, so harness error measurements use it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import LabeledScore, as_arrays

__all__ = [
    "exact_auc",
    "exact_pra",
    "exact_pra_curve",
]


def _auc_from_arrays(scores: np.ndarray, positives: np.ndarray) -> tuple[float, float]:
    num_pos = int(positives.sum())
    num_neg = positives.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise ValueError(
            f"AUC needs both classes, got {num_pos} positives and {num_neg} negatives"
        )
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positives[order]
    group_start = np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    group_id = np.cumsum(group_start) - 1
    num_groups = int(group_id[-1]) + 1
    pos_per_group = np.bincount(group_id[sorted_pos], minlength=num_groups)
    neg_per_group = np.bincount(group_id[~sorted_pos], minlength=num_groups)
    neg_below = np.concatenate(([0], np.cumsum(neg_per_group)[:-1]))
    # Pair counts stay integral, so the strict value divides exactly the
    # same integers as a literal loop over all positive/negative pairs.
    strict_pairs = int(np.dot(pos_per_group, neg_below))
    tied_pairs = int(np.dot(pos_per_group, neg_per_group))
    denom = num_pos * num_neg
    return strict_pairs / denom, (strict_pairs + tied_pairs / 2) / denom


def exact_auc(examples: Sequence[LabeledScore]) -> tuple[float, float]:
    """(strict, half-ties) AUC of one labeled sample, by sorting.

    Strict counts a tied pair as 0; half-ties counts it as 1/2. Raises
    when either class is empty.
    """
    scores, positives = as_arrays(examples)
    return _auc_from_arrays(scores, positives)


def _pra_from_counts(
    true_pos: int, pred_pos: int, num_pos: int, correct: int, total: int
) -> tuple[float | None, float | None, float]:
    precision = true_pos / pred_pos if pred_pos > 0 else None
    recall = true_pos / num_pos if num_pos > 0 else None
    return precision, recall, correct / total


def exact_pra(
    examples: Sequence[LabeledScore], threshold: float
) -> tuple[float | None, float | None, float]:
    """(precision, recall, accuracy) with prediction rule score > threshold.

    Precision is None when nothing is predicted positive; recall is None
    when there are no positives.
    """
    scores, positives = as_arrays(examples)
    if scores.size == 0:
        raise ValueError("exact_pra needs at least one example")
    predicted = scores > threshold
    true_pos = int(np.count_nonzero(predicted & positives))
    pred_pos = int(np.count_nonzero(predicted))
    num_pos = int(np.count_nonzero(positives))
    correct = int(np.count_nonzero(predicted == positives))
    return _pra_from_counts(true_pos, pred_pos, num_pos, correct, scores.size)


def exact_pra_curve(
    scores: np.ndarray, positives: np.ndarray, thresholds: Iterable[float]
) -> list[tuple[float | None, float | None, float]]:
    """exact_pra at many thresholds from one sort of the data."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.size == 0:
        raise ValueError("exact_pra_curve needs at least one example")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    pos_suffix = np.concatenate(
        ([0], np.cumsum(positives[order][::-1]))
    )[::-1]
    total = scores.size
    num_pos = int(positives.sum())
    out = []
    for threshold in thresholds:
        first_above = int(np.searchsorted(sorted_scores, threshold, side="right"))
        pred_pos = total - first_above
        true_pos = int(pos_suffix[first_above])
        true_neg = first_above - (num_pos - true_pos)
        correct = true_pos + true_neg
        out.append(
            _pra_from_counts(true_pos, pred_pos, num_pos, correct, total)
        )
    return out
