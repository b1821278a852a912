"""Histogram metric estimators against hand values and the exact oracle."""

import dataclasses
import math

import numpy as np
import pytest

from fedeval import (
    DegenerateEstimateError,
    Label,
    PrivacySpec,
    Regime,
    ScoreDistribution,
    Spike,
)
from fedeval.datagen import sample_population, split_population
from fedeval.hierarchy import (
    ScoreHistogram,
    _bucket_histogram,
    build_hierarchy,
    build_score_histogram,
)
from fedeval.metrics import auc_histogram, pra_threshold
from fedeval.oracle import _auc_from_arrays, _class_sorted, exact_pra_curve


def sa_spec(height, fanout=2):
    return PrivacySpec(regime=Regime.SECURE_AGG, height=height, fanout=fanout)


def singleton_shards(pairs):
    scores = np.array([float(s) for s, _ in pairs])
    positive = np.array([l == 1 for _, l in pairs], dtype=bool)
    return split_population(scores, positive, "one_per_client")


def separated_hist():
    shards = singleton_shards([(0.6, 1), (0.9, 1), (0.1, 0), (0.3, 0)])
    pos = build_hierarchy(shards, Label.POSITIVE, sa_spec(2))
    neg = build_hierarchy(shards, Label.NEGATIVE, sa_spec(2))
    return build_score_histogram(pos, neg, 2)


def fabricate_hist(
    pos_values,
    neg_values,
    pos_total=None,
    neg_total=None,
    height=4,
    pos_var=None,
    neg_var=None,
):
    spec = sa_spec(height)
    num = len(pos_values)
    n = spec.num_leaves
    boundary = np.round(np.linspace(0, n, num + 1)).astype(np.int64)
    if pos_total is None:
        pos_total = float(np.sum(pos_values))
    if neg_total is None:
        neg_total = float(np.sum(neg_values))
    return ScoreHistogram(
        spec=spec,
        boundary_leaves=boundary,
        pos_values=np.asarray(pos_values, dtype=np.float64),
        neg_values=np.asarray(neg_values, dtype=np.float64),
        pos_variances=np.zeros(num) if pos_var is None else np.asarray(pos_var),
        neg_variances=np.zeros(num) if neg_var is None else np.asarray(neg_var),
        pos_total=float(pos_total),
        neg_total=float(neg_total),
    )


def test_auc_of_separated_classes():
    est = auc_histogram(separated_hist())
    assert est.value == 1.0
    assert est.bucketization_halfwidth == 0.0
    assert est.noise_variance == 0.0
    assert est.advertised_uncertainty == 0.0


def test_auc_single_bucket_is_half():
    hist = fabricate_hist([2.0], [2.0], 2, 2)
    est = auc_histogram(hist)
    assert est.value == 0.5
    assert est.bucketization_halfwidth == 0.5


def test_auc_mixed_buckets_hand_value():
    hist = fabricate_hist([1.0, 1.0], [1.0, 1.0], 2, 2)
    est = auc_histogram(hist)
    # (1*(0.5) + 1*(1 + 0.5)) / 4 and halfwidth (1 + 1) / 8.
    assert est.value == 0.5
    assert est.bucketization_halfwidth == 0.25


def test_auc_degenerate_class_total():
    hist = fabricate_hist([0.0, 0.0], [1.0, 1.0], 0, 2)
    with pytest.raises(DegenerateEstimateError) as info:
        auc_histogram(hist)
    assert set(info.value.counters) == {"positive_total", "negative_total"}


def test_auc_envelope_covers_exact_value():
    rng = np.random.default_rng(1234)
    for _ in range(120):
        num = int(rng.integers(20, 300))
        scores = rng.integers(0, 64, size=num) / 64.0
        flags = rng.random(num) < 0.5
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        shards = split_population(scores, flags, "one_per_client")
        pos = build_hierarchy(shards, Label.POSITIVE, sa_spec(6))
        neg = build_hierarchy(shards, Label.NEGATIVE, sa_spec(6))
        num_buckets = int(rng.integers(1, 20))
        est = auc_histogram(build_score_histogram(pos, neg, num_buckets))
        strict, half = _auc_from_arrays(*_class_sorted(scores, flags))
        hw = est.bucketization_halfwidth + 1e-12
        assert abs(est.value - half) <= hw
        assert abs(est.value - strict) <= hw


def test_auc_noise_variance_matches_declared_formula():
    rng = np.random.default_rng(77)
    hist = fabricate_hist(
        rng.normal(50.0, 4.0, 12),
        rng.normal(70.0, 4.0, 12),
        pos_var=np.full(12, 9.0),
        neg_var=rng.uniform(1.0, 5.0, 12),
    )
    est = auc_histogram(hist)
    pos = hist.pos_values
    neg = hist.neg_values
    vp = hist.pos_variances
    vn = hist.neg_variances
    neg_below = np.concatenate(([0.0], np.cumsum(neg)[:-1]))
    pw = neg_below + 0.5 * neg
    pwv = np.concatenate(([0.0], np.cumsum(vn)[:-1])) + 0.25 * vn
    nw = np.cumsum(pos[::-1])[::-1] - pos + 0.5 * pos
    expected = (
        np.dot(vp, pw**2 + pwv) + np.dot(vn, nw**2)
    ) / (hist.pos_total * hist.neg_total) ** 2
    assert est.noise_variance == pytest.approx(expected, rel=1e-12)
    assert est.advertised_uncertainty == pytest.approx(
        est.bucketization_halfwidth + math.sqrt(est.noise_variance)
    )


def test_auc_noise_variance_is_conservative():
    # Frozen boundaries across repeated noisy builds isolate the noise
    # contribution. Bucket counts are differences of shared prefix
    # decompositions, so their noise is negatively correlated across
    # buckets and largely cancels in the AUC sum; the advertised
    # variance drops those correlations and must sit above the sample
    # variance without being vacuous.
    rng = np.random.default_rng(600)
    num = 3000
    scores = rng.random(num)
    flags = rng.random(num) < 0.5
    shards = split_population(scores, flags, "one_per_client")
    spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=2.0, height=6, fanout=2)
    boundary = build_score_histogram(
        build_hierarchy(shards, Label.POSITIVE, spec, seed=(11, 0)),
        build_hierarchy(shards, Label.NEGATIVE, spec, seed=(11, 1)),
        16,
    ).boundary_leaves
    strict, half = _auc_from_arrays(*_class_sorted(scores, flags))
    builds = 250
    values = np.zeros(builds)
    advertised_var = np.zeros(builds)
    covered = 0
    for i in range(builds):
        pos = build_hierarchy(shards, Label.POSITIVE, spec, seed=(13, i))
        neg = build_hierarchy(shards, Label.NEGATIVE, spec, seed=(14, i))
        hist = _bucket_histogram(pos, neg, boundary)
        est = auc_histogram(hist)
        values[i] = est.value
        advertised_var[i] = est.noise_variance
        covered += abs(est.value - half) <= est.advertised_uncertainty
    empirical = values.var(ddof=1)
    mean_advertised = advertised_var.mean()
    assert 1e-3 * mean_advertised < empirical < mean_advertised
    assert covered == builds


def test_pra_threshold_at_exact_boundary():
    est = pra_threshold(separated_hist(), 0.5)
    assert est.precision == 1.0
    assert est.recall == 1.0
    assert est.accuracy == 1.0
    assert est.effective_threshold == 0.5
    assert est.threshold_slack == 0.25
    # The counters behind the ratios travel only on the degenerate error.
    assert [field.name for field in dataclasses.fields(est)] == [
        "precision",
        "recall",
        "accuracy",
        "effective_threshold",
        "threshold_slack",
    ]


def test_pra_threshold_on_a_spike_equals_the_exact_counts():
    # A cut falls on the spike at T = 0.5. The buckets from that cut up
    # hold the scores >= T, and the oracle counts the same scores, so
    # under secure aggregation the estimate is exact to the bit.
    dist = ScoreDistribution(spikes=(Spike(0.5, 0.3, 0.1),))
    scores, positive = sample_population(20_000, dist, seed=1)
    shards = split_population(scores, positive, "one_per_client")
    spec = sa_spec(4)
    hist = build_score_histogram(
        build_hierarchy(shards, Label.POSITIVE, spec),
        build_hierarchy(shards, Label.NEGATIVE, spec),
        20,
    )
    est = pra_threshold(hist, 0.5)
    assert est.effective_threshold == 0.5
    [exact] = exact_pra_curve(*_class_sorted(scores, positive), [0.5])
    assert (est.precision, est.recall, est.accuracy) == exact


def test_pra_threshold_snaps_to_nearest_boundary():
    est = pra_threshold(separated_hist(), 0.3)
    assert est.effective_threshold == 0.5
    assert est.threshold_slack == pytest.approx(0.2 + 0.25)
    # Equidistant thresholds snap toward the lower boundary.
    est = pra_threshold(separated_hist(), 0.25)
    assert est.effective_threshold == 0.0
    assert est.precision == 0.5
    assert est.recall == 1.0
    assert est.accuracy == 0.5
    assert est.threshold_slack == pytest.approx(0.5)


def test_pra_threshold_validates_input():
    with pytest.raises(ValueError):
        pra_threshold(separated_hist(), 1.5)


def test_pra_threshold_clamps_noisy_counts():
    hist = fabricate_hist([-3.0, 2.0], [5.0, -1.0], -1.0, 4.0)
    est = pra_threshold(hist, 0.5)
    # Noisy precision 2/1 clamps to 1; the negative positive-total makes
    # recall undefined; accuracy 7/3 clamps to 1.
    assert est.precision == 1.0
    assert est.recall is None
    assert est.accuracy == 1.0


def test_pra_threshold_high_cut_keeps_partial_result():
    est = pra_threshold(separated_hist(), 1.0)
    assert est.precision is None
    assert est.recall == 0.0
    assert est.accuracy == 0.5


def test_pra_threshold_all_degenerate_raises():
    hist = fabricate_hist([-1.0, -1.0], [-1.0, -1.0], -2.0, -2.0)
    with pytest.raises(DegenerateEstimateError) as info:
        pra_threshold(hist, 0.5)
    assert info.value.counters["total"] == -4.0
