"""Classifier metrics read from an aggregated score histogram.

auc_histogram and pra_threshold read only a ScoreHistogram, so they
work under every aggregation regime. Each reports its error sources
apart: AUC separates bucket coarseness from injected noise, and
precision/recall/accuracy carry the distance to the snapped threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DegenerateEstimateError
from .hierarchy import ScoreHistogram

__all__ = [
    "AucEstimate",
    "PraEstimate",
    "auc_histogram",
    "pra_threshold",
]


@dataclass(frozen=True)
class AucEstimate:
    """Histogram AUC with its two error sources reported separately.

    bucketization_halfwidth bounds |estimate - exact AUC| when counts
    are exact; under noise it is the same expression evaluated on noisy
    counts. noise_variance is the variance of the estimate induced by
    count noise, conditional on the realized bucket boundaries, with
    noisy counts plugged in for the unknown means.
    """

    value: float
    bucketization_halfwidth: float
    noise_variance: float

    @property
    def advertised_uncertainty(self) -> float:
        return self.bucketization_halfwidth + math.sqrt(max(self.noise_variance, 0.0))


@dataclass(frozen=True)
class PraEstimate:
    """Precision / recall / accuracy from aggregate counters.

    A metric is None when its denominator was not positive.
    effective_threshold is the histogram boundary actually used and
    threshold_slack bounds |T - T'| plus one leaf width.
    """

    precision: float | None
    recall: float | None
    accuracy: float | None
    effective_threshold: float
    threshold_slack: float


def _ratio(numerator: float, denominator: float) -> float | None:
    """Count ratio with clamping at the output only.

    Negative noisy numerators clamp to 0 before dividing; the ratio is
    then clamped to at most 1. A non-positive denominator makes the
    metric undefined.
    """
    if denominator <= 0.0:
        return None
    return min(max(numerator, 0.0) / denominator, 1.0)


def auc_histogram(hist: ScoreHistogram) -> AucEstimate:
    """Trapezoidal AUC of the bucket-coarsened score distribution.

    Within-bucket pairs contribute 1/2, so the value matches the
    half-ties AUC of any sample whose per-bucket class counts equal the
    histogram's. Runs in O(num_buckets).
    """
    pos = np.asarray(hist.pos_values, dtype=np.float64)
    neg = np.asarray(hist.neg_values, dtype=np.float64)
    pos_total = hist.pos_total
    neg_total = hist.neg_total
    if pos_total <= 0.0 or neg_total <= 0.0:
        raise DegenerateEstimateError(
            "AUC undefined: a class total is not positive",
            counters={"positive_total": pos_total, "negative_total": neg_total},
        )
    neg_below = np.concatenate(([0.0], np.cumsum(neg)))[:-1]
    pair_weight = neg_below + 0.5 * neg
    denom = pos_total * neg_total
    value = float(np.dot(pos, pair_weight)) / denom
    halfwidth = float(np.dot(pos, neg)) / (2.0 * denom)

    vp = np.asarray(hist.pos_variances, dtype=np.float64)
    vn = np.asarray(hist.neg_variances, dtype=np.float64)
    # Conditional on the negative counts, the numerator is linear in the
    # positive counts with coefficients pair_weight; the variance of
    # pair_weight itself adds the prefix of vn plus vn/4. Folding the
    # conditional expectation over negative noise gives an exact second
    # term with weights = positives strictly above + half the own bucket.
    # Exact counts have zero variances, and every product is then +0.0.
    vn_below = np.concatenate(([0.0], np.cumsum(vn)))[:-1]
    pair_weight_var = vn_below + 0.25 * vn
    pos_above = np.cumsum(pos[::-1])[::-1] - pos
    neg_weight = pos_above + 0.5 * pos
    numerator_var = float(
        np.dot(vp, pair_weight**2 + pair_weight_var) + np.dot(vn, neg_weight**2)
    )
    return AucEstimate(
        value=value,
        bucketization_halfwidth=halfwidth,
        noise_variance=numerator_var / denom**2,
    )


def pra_threshold(hist: ScoreHistogram, threshold: float) -> PraEstimate:
    """Precision / recall / accuracy at a post-hoc threshold.

    The threshold snaps to the nearest histogram boundary (ties toward
    the lower one); everything in buckets at or above that boundary,
    every score >= T', is predicted positive, the closure that
    oracle.exact_pra_curve counts at T. threshold_slack = |T - T'| +
    one leaf width.
    Raises only when all three metrics are undefined.
    """
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    boundaries = hist.boundaries
    cut = int(np.argmin(np.abs(boundaries - threshold)))
    effective = float(boundaries[cut])

    pos = np.asarray(hist.pos_values, dtype=np.float64)
    neg = np.asarray(hist.neg_values, dtype=np.float64)
    true_pos = float(pos[cut:].sum())
    false_pos = float(neg[cut:].sum())
    true_neg = float(neg[:cut].sum())
    pred_pos = true_pos + false_pos
    pos_total = hist.pos_total
    total = hist.pos_total + hist.neg_total
    correct = true_pos + true_neg

    precision = _ratio(true_pos, pred_pos)
    recall = _ratio(true_pos, pos_total)
    accuracy = _ratio(correct, total)

    if precision is None and recall is None and accuracy is None:
        raise DegenerateEstimateError(
            "all denominators are non-positive",
            counters={
                "true_positive": true_pos,
                "predicted_positive": pred_pos,
                "positives": pos_total,
                "correct": correct,
                "total": total,
            },
        )
    slack = abs(threshold - effective) + 1.0 / hist.spec.num_leaves
    return PraEstimate(
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        effective_threshold=effective,
        threshold_slack=slack,
    )
