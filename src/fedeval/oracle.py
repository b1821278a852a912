"""Exact centralized metrics for error measurement.

Everything here reads the raw (scores, positive) columns, so results
are ground truth for the federated estimators. AUC is computed under
both tie conventions: the strict form counts tied positive/negative
pairs as 0, the half-ties form as 1/2. Histogram estimators approximate
the half-ties form on bucket-coarsened data, so harness error
measurements use it. Precision, recall and accuracy predict positive
when score > threshold.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "exact_pra_curve",
]


def _auc_from_arrays(scores: np.ndarray, positives: np.ndarray) -> tuple[float, float]:
    """(strict, half-ties) AUC of one labeled sample, by sorting.

    Strict counts a tied pair as 0; half-ties counts it as 1/2. Raises
    when either class is empty.
    """
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


def exact_pra_curve(
    scores: np.ndarray, positives: np.ndarray, thresholds: Iterable[float]
) -> list[tuple[float | None, float | None, float]]:
    """(precision, recall, accuracy) at each threshold, from one sort.

    An example is predicted positive when its score exceeds the
    threshold. Precision is None when nothing is predicted positive;
    recall is None when there are no positives.
    """
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
        out.append((
            true_pos / pred_pos if pred_pos > 0 else None,
            true_pos / num_pos if num_pos > 0 else None,
            (true_pos + true_neg) / total,
        ))
    return out
