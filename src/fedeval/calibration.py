"""Score calibration from aggregated histograms, and its evaluation.

A calibration map sends a raw score to an estimated probability of the
positive class. The single-binning form is the per-bucket positive
fraction of an equi-depth histogram; the Bayesian form averages several
bucket counts under a Beta-binomial marginal likelihood, so the output
is a weighted mixture of single-binning maps. Calibration quality is
summarized by the expected calibration error over equal-width
probability bins. The Bayesian form's marginal likelihood is the one
user of betaln, imported on first use so that no other path loads its
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import HierarchicalCounts, ScoreHistogram, build_score_histograms

__all__ = [
    "CalibrationMap",
    "EceReport",
    "calibrate_histogram",
    "calibrate_bbq",
    "apply_calibration_batch",
    "ece_arrays",
]

# Strength of the Beta prior spread across the buckets of one binning.
PRIOR_STRENGTH = 2.0
# Candidate bucket counts per model average, spaced geometrically.
MAX_CANDIDATES = 15
# A clamped bucket denominator at or below this fraction of the total
# population falls back to the prior probability.
DENOMINATOR_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class CalibrationMap:
    """Mixture of right-closed binnings mapping scores to probabilities.

    Each binning is a (boundaries, values) pair where boundaries has one
    more entry than values, starts at 0 and ends at 1. The map's output
    is the weight-averaged bucket value across binnings.
    """

    binnings: tuple[tuple[np.ndarray, np.ndarray], ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if len(self.binnings) == 0:
            raise ValueError("calibration map needs at least one binning")
        if len(self.binnings) != self.weights.size:
            raise ValueError("one weight per binning required")
        if np.any(self.weights < 0.0) or abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must form a probability vector")
        for boundaries, values in self.binnings:
            if boundaries.ndim != 1 or values.ndim != 1:
                raise ValueError("binning arrays must be one-dimensional")
            if boundaries.size != values.size + 1:
                raise ValueError("boundary/value size mismatch")
            if boundaries[0] != 0.0 or boundaries[-1] != 1.0:
                raise ValueError("boundaries must span [0, 1]")
            if np.any(np.diff(boundaries) <= 0.0):
                raise ValueError("boundaries must be strictly increasing")
            if not np.all((values >= 0.0) & (values <= 1.0)):
                raise ValueError("calibrated values must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class EceReport:
    """Expected calibration error and its per-bin breakdown.

    Bin j of num_bins covers ((j-1)/K, j/K], with 0 folded into the
    first bin. ece equals sum(bin_mass * |observed - predicted|) over
    the stored arrays; empty bins contribute zero.
    """

    num_bins: int
    bin_mass: np.ndarray
    observed: np.ndarray
    predicted: np.ndarray
    ece: float


def _default_prior(hist: ScoreHistogram) -> float:
    pos = max(hist.pos_total, 0.0)
    neg = max(hist.neg_total, 0.0)
    if pos + neg <= 0.0:
        return 0.5
    return pos / (pos + neg)


def _bucket_probabilities(hist: ScoreHistogram, prior: float) -> np.ndarray:
    """Positive fraction per bucket with clamping and prior fallback."""
    pos = np.maximum(np.asarray(hist.pos_values, dtype=np.float64), 0.0)
    neg = np.maximum(np.asarray(hist.neg_values, dtype=np.float64), 0.0)
    total = hist.pos_total + hist.neg_total
    floor = DENOMINATOR_FLOOR * max(total, 0.0)
    denom = pos + neg
    values = np.full(denom.shape, prior, dtype=np.float64)
    usable = denom > floor
    values[usable] = pos[usable] / denom[usable]
    return np.clip(values, 0.0, 1.0)


def _check_prior(prior: float | None) -> None:
    if prior is not None and not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must be in [0, 1], got {prior}")


def calibrate_histogram(
    hist: ScoreHistogram, prior: float | None = None
) -> CalibrationMap:
    """Single-binning calibration from one equi-depth histogram.

    Noisy counts clamp to zero before forming each bucket's positive
    fraction; buckets whose clamped denominator is at most 1e-9 of the
    population fall back to the prior (global positive fraction unless
    given).
    """
    _check_prior(prior)
    if prior is None:
        prior = _default_prior(hist)
    values = _bucket_probabilities(hist, prior)
    return CalibrationMap(
        binnings=((hist.boundaries.copy(), values),),
        weights=np.array([1.0]),
    )


def _candidate_bucket_counts(population: float) -> np.ndarray:
    """Geometric grid of bucket counts around the cube-root heuristic.

    A noisy population estimate at or below 0 leaves the single count 1.
    """
    root = max(population, 0.0) ** (1.0 / 3.0)
    lo = max(1, math.ceil(root / 10.0 - 1e-9))
    hi = max(lo, math.floor(10.0 * root + 1e-9))
    grid = np.geomspace(lo, hi, MAX_CANDIDATES)
    counts = np.unique(np.rint(grid).astype(np.int64))
    return np.clip(counts, lo, hi)


def _log_marginal(hist: ScoreHistogram) -> float:
    """Beta-binomial evidence of the bucket labels under a midpoint prior.

    Bucket b gets a Beta prior with mean at the bucket's score midpoint
    and total strength PRIOR_STRENGTH / num_buckets, so the prior mass
    spent does not grow with the number of buckets.
    """
    # Imported on first use: only a BBQ fit pays for loading it.
    from scipy.special import betaln

    pos = np.maximum(np.asarray(hist.pos_values, dtype=np.float64), 0.0)
    neg = np.maximum(np.asarray(hist.neg_values, dtype=np.float64), 0.0)
    boundaries = hist.boundaries
    midpoints = 0.5 * (boundaries[:-1] + boundaries[1:])
    strength = PRIOR_STRENGTH / hist.num_buckets
    alpha = midpoints * strength
    beta = (1.0 - midpoints) * strength
    return float(np.sum(betaln(alpha + pos, beta + neg) - betaln(alpha, beta)))


def _softmax(log_scores: np.ndarray) -> np.ndarray:
    shifted = log_scores - log_scores.max()
    raw = np.exp(shifted)
    return raw / raw.sum()


def calibrate_bbq(
    pos: HierarchicalCounts,
    neg: HierarchicalCounts,
    prior: float | None = None,
) -> CalibrationMap:
    """Model-averaged calibration over a grid of bucket counts.

    Candidates form a geometric grid of at most 15 integers between
    cbrt(population)/10 and 10*cbrt(population); each binning's weight
    is the softmax of its Beta-binomial log evidence.
    """
    _check_prior(prior)
    counts = _candidate_bucket_counts(pos.population_total + neg.population_total)
    hists = build_score_histograms(pos, neg, counts.tolist())
    weights = _softmax(np.array([_log_marginal(hist) for hist in hists]))
    binnings = []
    for hist in hists:
        bucket_prior = prior if prior is not None else _default_prior(hist)
        binnings.append(
            (hist.boundaries.copy(), _bucket_probabilities(hist, bucket_prior))
        )
    return CalibrationMap(binnings=tuple(binnings), weights=weights)


# Cells per unit of the lookup grid in _count_below; a power of two.
SEARCH_GRID = 4096


def _count_below(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, values, side="left") for values in [0, 1].

    A value in grid cell [c/G, (c+1)/G) has as many edges below it as
    lie below c/G, unless an edge falls inside its cell; only the
    values in such cells are searched. G is a power of two, so value*G
    and c/G are exact and the cell a value lands in is its true cell.
    """
    cells = np.arange(SEARCH_GRID + 1) / SEARCH_GRID
    below = np.searchsorted(edges, cells, side="left")
    inside = np.searchsorted(edges, cells + 1.0 / SEARCH_GRID, side="left") != below
    below[inside] = -1
    out = below[(values * SEARCH_GRID).astype(np.intp)]
    unsure = np.flatnonzero(out < 0)
    out[unsure] = np.searchsorted(edges, values[unsure], side="left")
    return out


def _bucket_of(boundaries: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Right-closed bucket index per score, with 0 folded into bucket 1."""
    return np.maximum(_count_below(boundaries, scores), 1) - 1


def apply_calibration_batch(
    cal_map: CalibrationMap, scores: np.ndarray
) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
        raise ValueError("scores must lie in [0, 1]")
    out = np.zeros(scores.shape, dtype=np.float64)
    for weight, (boundaries, values) in zip(cal_map.weights, cal_map.binnings):
        out += weight * values[_bucket_of(boundaries, scores)]
    # Weights may sum to 1 + 2**-52 after rounding, which can lift a
    # mixture of values 1.0 just above 1.
    return np.clip(out, 0.0, 1.0, out=out)


def ece_arrays(
    probabilities: np.ndarray, positives: np.ndarray, num_bins: int
) -> EceReport:
    """Expected calibration error over equal-width probability bins."""
    if num_bins < 1:
        raise ValueError(f"num_bins must be at least 1, got {num_bins}")
    probs = np.asarray(probabilities, dtype=np.float64)
    flags = np.asarray(positives, dtype=bool)
    if probs.size == 0:
        raise ValueError("ece needs at least one prediction")
    if probs.shape != flags.shape:
        raise ValueError("probabilities and labels must align")
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ValueError("predicted probabilities must lie in [0, 1]")
    edges = np.arange(1, num_bins + 1) / num_bins
    idx = _count_below(edges, probs)
    counts = np.bincount(idx, minlength=num_bins).astype(np.float64)
    pos_counts = np.bincount(idx, weights=flags.astype(np.float64), minlength=num_bins)
    prob_sums = np.bincount(idx, weights=probs, minlength=num_bins)
    mass = counts / probs.size
    observed = np.divide(
        pos_counts, counts, out=np.zeros(num_bins), where=counts > 0
    )
    predicted = np.divide(
        prob_sums, counts, out=np.zeros(num_bins), where=counts > 0
    )
    # Plain left-to-right summation so a literal per-bin loop over the
    # same arrays reproduces the value exactly.
    value = float(sum((mass * np.abs(observed - predicted)).tolist()))
    return EceReport(
        num_bins=num_bins,
        bin_mass=mass,
        observed=observed,
        predicted=predicted,
        ece=value,
    )

