"""Score calibration from aggregated histograms, and its evaluation.

A calibration map sends a raw score to an estimated probability of the
positive class. The single-binning form is the per-bucket positive
fraction of an equi-depth histogram; the Bayesian form averages several
bucket counts under a Beta-binomial marginal likelihood, so the output
is a weighted mixture of single-binning maps. Calibration quality is
summarized by the expected calibration error over equal-width
probability bins. The Bayesian form's marginal likelihood is scored by
a numpy log-Beta kernel, so no path needs more than numpy.
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
    """Mixture of left-closed binnings mapping scores to probabilities.

    Each binning is a (boundaries, values) pair where boundaries has one
    more entry than values, starts at 0 and ends at 1. Bucket i covers
    [boundaries[i], boundaries[i+1]), the last one also 1.0, as in the
    histogram it was fitted from. The map's output is the
    weight-averaged bucket value across binnings.
    """

    binnings: tuple[tuple[np.ndarray, np.ndarray], ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if len(self.binnings) == 0:
            raise ValueError("calibration map needs at least one binning")
        if len(self.binnings) != self.weights.size:
            raise ValueError("one weight per binning required")
        # Each check is written so that a NaN fails it.
        if not (
            np.all(self.weights >= 0.0)
            and abs(float(self.weights.sum()) - 1.0) <= 1e-9
        ):
            raise ValueError("weights must form a probability vector")
        for boundaries, values in self.binnings:
            if boundaries.ndim != 1 or values.ndim != 1:
                raise ValueError("binning arrays must be one-dimensional")
            if boundaries.size != values.size + 1:
                raise ValueError("boundary/value size mismatch")
            if boundaries[0] != 0.0 or boundaries[-1] != 1.0:
                raise ValueError("boundaries must span [0, 1]")
            if not np.all(np.diff(boundaries) > 0.0):
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


def calibrate_histogram(
    hist: ScoreHistogram, prior: float | None = None
) -> CalibrationMap:
    """Single-binning calibration from one equi-depth histogram.

    Noisy counts clamp to zero before forming each bucket's positive
    fraction; buckets whose clamped denominator is at most 1e-9 of the
    population fall back to the prior (global positive fraction unless
    given).
    """
    if prior is None:
        prior = _default_prior(hist)
    elif not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must be in [0, 1], got {prior}")
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


# Below this argument log-gamma is taken at x + STIRLING_MIN through the
# recurrence; from there on four terms of Stirling's series leave an
# error under 1e-15 relative.
STIRLING_MIN = 15
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_correction(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2, for x >= STIRLING_MIN."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x


def _log_gamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for positive x."""
    low = np.flatnonzero(x < STIRLING_MIN)
    z = x.copy()
    z[low] += STIRLING_MIN
    out = (z - 0.5) * np.log(z) - z + HALF_LOG_2PI + _stirling_correction(z)
    # Gamma(x) = Gamma(x + n) / (x (x + 1) ... (x + n - 1)).
    rising = x[low]
    product = rising.copy()
    for k in range(1, STIRLING_MIN):
        product *= rising + k
    out[low] -= np.log(product)
    return out


def _log_beta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log B(a, b) elementwise for positive a and b.

    With x = max(a, b) >= STIRLING_MIN and y = min(a, b), the part
    log Gamma(x) - log Gamma(x + y) is taken from Stirling's series as
    one difference, so two large log-gammas never cancel. Within
    1e-12 of the exact value, relative to max(1, |log B|), over
    [1e-16, 1e10]^2 (pinned against mpmath in the tests).
    """
    x = np.maximum(a, b)
    y = np.minimum(a, b)
    total = x + y
    out = _log_gamma(y)
    large = np.flatnonzero(x >= STIRLING_MIN)
    xl, yl, tl = x[large], y[large], total[large]
    out[large] += (
        -(xl - 0.5) * np.log1p(yl / xl) - yl * np.log(tl) + yl
        + _stirling_correction(xl) - _stirling_correction(tl)
    )
    small = np.flatnonzero(x < STIRLING_MIN)
    out[small] += _log_gamma(x[small]) - _log_gamma(total[small])
    return out


def _log_marginals(hists: list[ScoreHistogram]) -> np.ndarray:
    """Beta-binomial evidence of the bucket labels, one per histogram.

    Bucket b gets a Beta prior with mean at the bucket's score midpoint
    and total strength PRIOR_STRENGTH / num_buckets, so the prior mass
    spent does not grow with the number of buckets. The buckets of all
    the histograms go through one posterior and one prior kernel call.
    """
    sizes = [hist.num_buckets for hist in hists]
    pos = np.concatenate([h.pos_values for h in hists], dtype=np.float64)
    neg = np.concatenate([h.neg_values for h in hists], dtype=np.float64)
    pos, neg = np.maximum(pos, 0.0), np.maximum(neg, 0.0)
    midpoints = np.concatenate(
        [0.5 * (h.boundaries[:-1] + h.boundaries[1:]) for h in hists]
    )
    strength = np.repeat([PRIOR_STRENGTH / size for size in sizes], sizes)
    alpha = midpoints * strength
    beta = (1.0 - midpoints) * strength
    terms = _log_beta(alpha + pos, beta + neg) - _log_beta(alpha, beta)
    return np.add.reduceat(terms, np.cumsum([0, *sizes[:-1]]))


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
    cbrt(population)/10 and 10*cbrt(population). Each binning is the
    calibrate_histogram map of its candidate's histogram, weighted by
    the softmax of its Beta-binomial log evidence.
    """
    counts = _candidate_bucket_counts(pos.population_total + neg.population_total)
    hists = build_score_histograms(pos, neg, counts.tolist())
    weights = _softmax(_log_marginals(hists))
    binnings = tuple(calibrate_histogram(hist, prior).binnings[0] for hist in hists)
    return CalibrationMap(binnings=binnings, weights=weights)


# Cells per unit of the lookup grid in _count_below; a power of two.
SEARCH_GRID = 4096


def _count_below(edges: np.ndarray, values: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(edges, values, side) for values in [0, 1].

    A value in grid cell [c/G, (c+1)/G) has as many edges below it
    (side "left") or at or below it (side "right") as c/G has, unless
    an edge falls between c/G and (c+1)/G; only the values in such
    cells are searched. G is a power of two, so value*G and c/G are
    exact and the cell a value lands in is its true cell.
    """
    cells = np.arange(SEARCH_GRID + 1) / SEARCH_GRID
    below = np.searchsorted(edges, cells, side=side)
    inside = np.searchsorted(edges, cells + 1.0 / SEARCH_GRID, side=side) != below
    below[inside] = -1
    out = below[(values * SEARCH_GRID).astype(np.intp)]
    unsure = np.flatnonzero(out < 0)
    out[unsure] = np.searchsorted(edges, values[unsure], side=side)
    return out


def _bucket_of(boundaries: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Bucket index per score: the interior boundaries at or below it.

    A histogram's boundaries are the least scores its buckets hold, so
    a score goes to the bucket that the trees count it in, and 1.0 to
    the last one.
    """
    return _count_below(boundaries[1:-1], scores, "right")


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
    idx = _count_below(edges, probs, "left")
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

