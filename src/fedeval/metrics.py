"""Classifier metrics computed from aggregated score structures.

Two families live here. auc_histogram and pra_threshold read a
ScoreHistogram, so they work under every aggregation regime and carry
an explicit uncertainty decomposition (bucket coarseness separate from
injected noise). pra_fixed skips the histogram entirely: when the
threshold is fixed in advance each client can report four bits about
its own examples, and those four counters are aggregated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.special import expit

from .core import (
    ClientSplit,
    DegenerateEstimateError,
    NoisyCount,
    PrivacySpec,
    Regime,
    as_generator,
    check_epsilon_use,
)
from .hierarchy import ScoreHistogram
from .mechanisms import aggregated_noise, discrete_laplace_variance

__all__ = [
    "AucEstimate",
    "PraEstimate",
    "auc_histogram",
    "pra_threshold",
    "pra_fixed",
    "FIXED_COUNTER_NAMES",
]

# Aggregation order is part of the pra_fixed contract: noise draws are
# consumed counter by counter in this order.
FIXED_COUNTER_NAMES = ("correct", "positives", "predicted_positive", "true_positive")


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

    A metric is None when its denominator was not positive. For the
    threshold-snapping estimator, effective_threshold is the histogram
    boundary actually used and threshold_slack bounds |T - T'| plus one
    leaf width; for pra_fixed both are trivial.
    """

    precision: float | None
    recall: float | None
    accuracy: float | None
    effective_threshold: float | None
    threshold_slack: float
    counters: Mapping[str, NoisyCount] = field(default_factory=dict)


def _clamp01(value: float) -> float:
    return min(max(value, 0.0), 1.0)


def _ratio(numerator: float, denominator: float) -> float | None:
    """Count ratio with clamping at the output only.

    Negative noisy numerators clamp to 0 before dividing; the ratio is
    then clamped to [0, 1]. A non-positive denominator makes the metric
    undefined.
    """
    if denominator <= 0.0:
        return None
    return _clamp01(max(numerator, 0.0) / denominator)


def auc_histogram(hist: ScoreHistogram) -> AucEstimate:
    """Trapezoidal AUC of the bucket-coarsened score distribution.

    Within-bucket pairs contribute 1/2, so the value matches the
    half-ties AUC of any sample whose per-bucket class counts equal the
    histogram's. Runs in O(num_buckets).
    """
    pos = np.asarray(hist.pos_values, dtype=np.float64)
    neg = np.asarray(hist.neg_values, dtype=np.float64)
    pos_total = hist.pos_total.value
    neg_total = hist.neg_total.value
    if pos_total <= 0.0 or neg_total <= 0.0:
        raise DegenerateEstimateError(
            "AUC undefined: a class total is not positive",
            counters={
                "positive_total": hist.pos_total,
                "negative_total": hist.neg_total,
            },
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
    the lower one); everything in buckets at or above that boundary is
    predicted positive. threshold_slack = |T - T'| + one leaf width.
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
    pos_total = hist.pos_total.value
    total = hist.pos_total.value + hist.neg_total.value
    correct = true_pos + true_neg

    precision = _ratio(true_pos, pred_pos)
    recall = _ratio(true_pos, pos_total)
    accuracy = _ratio(correct, total)

    vp = np.asarray(hist.pos_variances, dtype=np.float64)
    vn = np.asarray(hist.neg_variances, dtype=np.float64)
    counters = {
        "true_positive": NoisyCount(true_pos, float(vp[cut:].sum())),
        "predicted_positive": NoisyCount(
            pred_pos, float(vp[cut:].sum() + vn[cut:].sum())
        ),
        "positives": hist.pos_total,
        "correct": NoisyCount(correct, float(vp[cut:].sum() + vn[:cut].sum())),
        "total": NoisyCount(
            total, hist.pos_total.variance + hist.neg_total.variance
        ),
    }
    if precision is None and recall is None and accuracy is None:
        raise DegenerateEstimateError(
            "all denominators are non-positive", counters=counters
        )
    slack = abs(threshold - effective) + 1.0 / hist.spec.num_leaves
    return PraEstimate(
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        effective_threshold=effective,
        threshold_slack=slack,
        counters=counters,
    )


def _randomized_response_counts(
    ones: np.ndarray, num_clients: int, epsilon_per_bit: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Debiased symmetric randomized response over one bit per client.

    ones[j] clients hold bit j set; every client flips each of its bits
    independently with probability 1/(e^eps + 1). Returns debiased sums
    and their variances.
    """
    # expit(eps) is e^eps / (e^eps + 1) without overflowing.
    p_true = float(expit(epsilon_per_bit))
    kept = rng.binomial(ones, p_true)
    flipped = rng.binomial(num_clients - ones, 1.0 - p_true)
    reported = kept + flipped
    debiased = (reported - num_clients * (1.0 - p_true)) / (2.0 * p_true - 1.0)
    variance = num_clients * p_true * (1.0 - p_true) / (2.0 * p_true - 1.0) ** 2
    return debiased, np.full(ones.shape, variance)


def pra_fixed(
    clients: ClientSplit, threshold: float, spec: PrivacySpec, seed=None
) -> PraEstimate:
    """Metrics for a threshold fixed before aggregation.

    Each example is predicted positive when its score exceeds threshold.
    Clients report four counters (correct, positives, predicted
    positive, true positive) over their own examples. Under secure
    aggregation the sums are exact. Under distributed noise each counter
    gets discrete Laplace noise calibrated to sensitivity 4: the sum of
    the clients' shares, drawn from its law. Under local randomization
    clients must hold at most one example and each client randomizes
    its four bits at budget eps/4 per bit. The accuracy denominator is
    the public number of examples. An epsilon at which that per-counter
    budget degenerates raises ValueError.
    """
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    use = f"the fixed-threshold counters under {spec.regime.value}"
    check_epsilon_use(spec.regime, spec.epsilon, 4, use)
    if spec.regime is Regime.LOCAL_DP:
        clients.check_one_per_client()
    rng = as_generator(seed)
    predicted = clients.scores > threshold
    positive = clients.positive
    sums = np.array(
        [
            np.count_nonzero(predicted == positive),
            np.count_nonzero(positive),
            np.count_nonzero(predicted),
            np.count_nonzero(predicted & positive),
        ],
        dtype=np.int64,
    )
    total = positive.size
    num_clients = clients.num_clients
    values = sums.astype(np.float64)
    variances = np.zeros(4)
    if spec.regime is Regime.DIST_DP and num_clients > 0:
        alpha = math.exp(-spec.epsilon / 4)
        noise = np.array(
            [aggregated_noise(alpha, rng) for _ in range(4)], dtype=np.float64
        )
        values = values + noise
        variances = np.full(4, discrete_laplace_variance(alpha))
    elif spec.regime is Regime.LOCAL_DP and num_clients > 0:
        values, variances = _randomized_response_counts(
            sums, num_clients, spec.epsilon / 4.0, rng
        )

    correct, positives, pred_pos, true_pos = (float(v) for v in values)
    counters = {
        name: NoisyCount(float(v), float(var))
        for name, v, var in zip(FIXED_COUNTER_NAMES, values, variances)
    }
    counters["total"] = NoisyCount(float(total), 0.0)

    precision = _ratio(true_pos, pred_pos)
    recall = _ratio(true_pos, positives)
    accuracy = _ratio(correct, float(total))
    if precision is None and recall is None and accuracy is None:
        raise DegenerateEstimateError(
            "all denominators are non-positive", counters=counters
        )
    return PraEstimate(
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        effective_threshold=None,
        threshold_slack=0.0,
        counters=counters,
    )
