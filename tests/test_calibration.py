"""Calibration maps, BBQ model averaging and its log-Beta kernel, and calibration error."""

import hashlib

import mpmath
import numpy as np
import pytest
from scipy.special import betaln

from fedeval import (
    Label,
    PrivacySpec,
    Regime,
    ScoreDistribution,
    Spike,
)
from fedeval import hierarchy
from fedeval.calibration import (
    PRIOR_STRENGTH,
    SEARCH_GRID,
    CalibrationMap,
    _bucket_of,
    _bucket_probabilities,
    _candidate_bucket_counts,
    _count_below,
    _default_prior,
    _log_beta,
    _softmax,
    apply_calibration_batch,
    calibrate_bbq,
    calibrate_histogram,
    ece_arrays,
)
from fedeval.core import leaf_indices
from fedeval.datagen import sample_population, split_population
from fedeval.hierarchy import (
    HierarchicalCounts,
    ScoreHistogram,
    _quantile_leaves,
    build_hierarchy,
    build_score_histogram,
    build_score_histograms,
)


def sa_spec(height, fanout=2):
    return PrivacySpec(regime=Regime.SECURE_AGG, height=height, fanout=fanout)


def fabricate_hist(pos_values, neg_values, pos_total, neg_total, height=4):
    spec = sa_spec(height)
    num = len(pos_values)
    n = spec.num_leaves
    boundary = np.round(np.linspace(0, n, num + 1)).astype(np.int64)
    return ScoreHistogram(
        spec=spec,
        boundary_leaves=boundary,
        pos_values=np.asarray(pos_values, dtype=np.float64),
        neg_values=np.asarray(neg_values, dtype=np.float64),
        pos_variances=np.zeros(num),
        neg_variances=np.zeros(num),
        pos_total=float(pos_total),
        neg_total=float(neg_total),
    )


def test_bucket_probabilities_with_clamping_and_prior():
    hist = fabricate_hist(
        [5.0, 0.0, -1.0, -1.0], [5.0, 10.0, 0.5, -1.0], 13.0, 5.5
    )
    cal_map = calibrate_histogram(hist, prior=0.9)
    values = cal_map.binnings[0][1]
    # Clamped fractions 5/10, 0/10, 0/0.5; the all-clamped bucket falls
    # back to the prior.
    assert values.tolist() == [0.5, 0.0, 0.0, 0.9]
    assert cal_map.weights.tolist() == [1.0]


def test_default_prior_is_global_positive_fraction():
    hist = fabricate_hist([4.0, 0.0, 2.0], [0.0, 0.0, 4.0], 6.0, 4.0, height=4)
    cal_map = calibrate_histogram(hist)
    values = cal_map.binnings[0][1]
    assert values[0] == 1.0
    assert values[1] == pytest.approx(0.6)
    assert values[2] == pytest.approx(2.0 / 6.0)


def test_default_prior_degenerate_population_is_half():
    hist = fabricate_hist([0.0, 0.0], [0.0, 0.0], 0.0, 0.0)
    values = calibrate_histogram(hist).binnings[0][1]
    assert values.tolist() == [0.5, 0.5]


def test_calibrate_histogram_validates_prior():
    hist = fabricate_hist([1.0], [1.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        calibrate_histogram(hist, prior=1.5)


def test_calibration_map_validation():
    good = (np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.8]))
    with pytest.raises(ValueError):
        CalibrationMap(binnings=(), weights=np.array([]))
    with pytest.raises(ValueError):
        CalibrationMap(binnings=(good,), weights=np.array([0.5]))
    bad_span = (np.array([0.1, 1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        CalibrationMap(binnings=(bad_span,), weights=np.array([1.0]))
    for value in (1.5, np.nan):
        bad_value = (np.array([0.0, 1.0]), np.array([value]))
        with pytest.raises(ValueError):
            CalibrationMap(binnings=(bad_value,), weights=np.array([1.0]))
    decreasing = (np.array([0.0, 0.6, 0.5, 1.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        CalibrationMap(binnings=(decreasing,), weights=np.array([1.0]))
    # A NaN weight would turn every output into NaN, and a NaN boundary
    # would send every score to one bucket.
    with pytest.raises(ValueError, match="probability vector"):
        CalibrationMap(binnings=(good,), weights=np.array([np.nan]))
    nan_edge = (np.array([0.0, np.nan, 1.0]), np.array([0.2, 0.8]))
    with pytest.raises(ValueError, match="strictly increasing"):
        CalibrationMap(binnings=(nan_edge,), weights=np.array([1.0]))


def test_candidate_bucket_counts_grid():
    counts = _candidate_bucket_counts(1e6)
    assert counts[0] == 10
    assert counts[-1] == 1000
    assert len(counts) <= 15
    assert np.all(np.diff(counts) > 0)
    small = _candidate_bucket_counts(1.0)
    assert small[0] == 1
    assert small[-1] == 10
    # A noisy population total at or below 0 leaves one bucket.
    assert _candidate_bucket_counts(0.0).tolist() == [1]
    assert _candidate_bucket_counts(-1234.0).tolist() == [1]


def test_left_closed_bucket_lookup():
    # Buckets are [b_{i-1}, b_i) with 1.0 in the last one, as the
    # histogram that a map is fitted from counts scores.
    cal_map = CalibrationMap(
        binnings=((np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.9])),),
        weights=np.array([1.0]),
    )
    probs = apply_calibration_batch(
        cal_map, np.array([0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.500001, 1.0])
    )
    assert probs.tolist() == [0.1, 0.1, 0.1, 0.9, 0.9, 0.9]
    assert apply_calibration_batch(cal_map, np.array([0.5])).tolist() == [0.9]
    for bad in (1.2, np.nan):
        with pytest.raises(ValueError):
            apply_calibration_batch(cal_map, np.array([0.5, bad]))


def test_a_spike_on_a_cut_gets_the_value_of_its_bucket():
    # 30 % of the positives sit at 0.5, which is a cut at h = 4 and
    # B = 20. The spike lands in the bucket that starts at 0.5, so the
    # map must return that bucket's value there (0.857 here), not the
    # value of the bucket below (0.397).
    dist = ScoreDistribution(spikes=(Spike(0.5, 0.3, 0.0),))
    scores, positive = sample_population(20_000, dist, 0.5, 1)
    clients = split_population(scores, positive, "one_per_client")
    spec = PrivacySpec(regime=Regime.SECURE_AGG, height=4)
    hist = build_score_histogram(
        build_hierarchy(clients, Label.POSITIVE, spec),
        build_hierarchy(clients, Label.NEGATIVE, spec),
        20,
    )
    cal_map = calibrate_histogram(hist)
    ((boundaries, values),) = cal_map.binnings
    spike_bucket = int(np.flatnonzero(boundaries == 0.5)[0])
    assert values[spike_bucket] > values[spike_bucket - 1] + 0.4
    at_spike = apply_calibration_batch(cal_map, np.array([0.5]))
    assert at_spike.tolist() == [values[spike_bucket]]


@pytest.mark.parametrize("fanout,height", [(2, 8), (4, 4), (8, 3)])
def test_leaf_boundary_scores_map_to_the_bucket_that_counts_them(fanout, height):
    # Every score j / f**h lands in the bucket whose leaf range holds
    # its leaf, for cuts at quantiles, at split widths and at every leaf.
    spec = PrivacySpec(regime=Regime.SECURE_AGG, height=height, fanout=fanout)
    scores, positive = sample_population(3000, SPIKY_DIST, 0.4, 23)
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, spec)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec)
    num_leaves = fanout**height
    on_leaves = np.arange(num_leaves + 1) / num_leaves
    leaves = leaf_indices(on_leaves, height, fanout)
    for hist in build_score_histograms(pos, neg, [1, 3, 20, 100, num_leaves + 1]):
        want = np.searchsorted(hist.boundary_leaves, leaves, side="right") - 1
        assert np.array_equal(_bucket_of(hist.boundaries, on_leaves), want)


def test_mixture_of_binnings():
    cal_map = CalibrationMap(
        binnings=(
            (np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.4])),
            (np.array([0.0, 0.25, 1.0]), np.array([0.9, 0.6])),
        ),
        weights=np.array([0.3, 0.7]),
    )
    assert apply_calibration_batch(cal_map, np.array([0.3]))[0] == pytest.approx(
        0.3 * 0.2 + 0.7 * 0.6
    )


def test_mixture_stays_in_unit_interval_when_weights_overshoot():
    # Softmax weights can sum to 1 + 2**-52; a mixture of values 1.0
    # must still be a probability.
    weights = np.array([0.5, 0.5 + 2.0**-52])
    assert weights.sum() == 1.0 + 2.0**-52
    cal_map = CalibrationMap(
        binnings=(
            (np.array([0.0, 1.0]), np.array([1.0])),
            (np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0])),
        ),
        weights=weights,
    )
    scores = np.array([0.0, 0.3, 0.7, 1.0])
    probs = apply_calibration_batch(cal_map, scores)
    assert probs.tolist() == [1.0] * 4
    assert ece_arrays(probs, np.ones(4, dtype=bool), 10).ece == 0.0


def build_class_trees(num, dist, seed, height=6):
    scores, positive = sample_population(num, dist, seed=seed)
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, sa_spec(height))
    neg = build_hierarchy(clients, Label.NEGATIVE, sa_spec(height))
    return pos, neg


def test_bbq_weights_form_a_distribution():
    pos, neg = build_class_trees(4000, ScoreDistribution(), seed=31)
    cal_map = calibrate_bbq(pos, neg)
    assert cal_map.weights.sum() == pytest.approx(1.0)
    assert np.all(cal_map.weights >= 0.0)
    # One weight per candidate count, in the grid's increasing order.
    counts = _candidate_bucket_counts(4000.0).tolist()
    assert counts == sorted(set(counts))
    assert cal_map.weights.size == len(counts)
    for count, (boundaries, _) in zip(counts, cal_map.binnings):
        hist = build_score_histogram(pos, neg, count)
        assert np.array_equal(boundaries, hist.boundaries)


def test_calibrate_bbq_mixes_valid_binnings():
    pos, neg = build_class_trees(4000, ScoreDistribution(), seed=32)
    cal_map = calibrate_bbq(pos, neg)
    assert len(cal_map.binnings) == cal_map.weights.size
    assert cal_map.weights.sum() == pytest.approx(1.0)
    probs = apply_calibration_batch(cal_map, np.linspace(0.0, 1.0, 33))
    assert probs.min() >= 0.0 and probs.max() <= 1.0


def test_calibration_reduces_ece_of_miscalibrated_scores():
    # Positive density 2s against uniform negatives: the true positive
    # probability is 2s/(2s+1), so raw scores are poorly calibrated.
    dist = ScoreDistribution(positive_slope=2.0, negative_slope=0.0)
    pos, neg = build_class_trees(6000, dist, seed=33)
    scores, flags = sample_population(6000, dist, seed=34)

    hist = build_score_histogram(pos, neg, 25)
    cal_map = calibrate_histogram(hist)
    raw_ece = ece_arrays(scores, flags, 10).ece
    calibrated_ece = ece_arrays(
        apply_calibration_batch(cal_map, scores), flags, 10
    ).ece
    assert calibrated_ece < 0.5 * raw_ece

    bbq_map = calibrate_bbq(pos, neg)
    bbq_ece = ece_arrays(
        apply_calibration_batch(bbq_map, scores), flags, 10
    ).ece
    assert bbq_ece < 0.5 * raw_ece


def test_ece_of_perfectly_calibrated_constant():
    probs = np.full(100, 0.5)
    flags = np.arange(100) < 50
    report = ece_arrays(probs, flags, 10)
    assert report.ece == 0.0
    assert report.num_bins == 10


def test_ece_of_overconfident_constant():
    probs = np.full(100, 0.9)
    flags = np.arange(100) < 50
    report = ece_arrays(probs, flags, 10)
    assert report.ece == pytest.approx(0.4)
    # All the mass sits in the bin whose right edge is 0.9.
    assert report.bin_mass[8] == 1.0
    assert report.observed[8] == 0.5
    assert report.predicted[8] == pytest.approx(0.9)


def literal_ece(probs, flags, num_bins):
    """Per-bin loop matching the advertised binning rule bit for bit."""
    edges = np.arange(1, num_bins + 1) / num_bins
    total = len(probs)
    value = 0.0
    for j in range(num_bins):
        members = [
            i
            for i in range(total)
            if probs[i] <= edges[j] and (j == 0 or probs[i] > edges[j - 1])
        ]
        mass = len(members) / total
        if members:
            observed = sum(1.0 for i in members if flags[i]) / len(members)
            predicted = sum(probs[i] for i in members) / len(members)
        else:
            observed = predicted = 0.0
        value += mass * abs(observed - predicted)
    return value


def test_ece_matches_literal_binning_loop():
    rng = np.random.default_rng(55)
    for _ in range(200):
        num = int(rng.integers(1, 120))
        num_bins = int(rng.integers(1, 25))
        probs = rng.random(num)
        # Snapping some values onto bin edges exercises the closure rule.
        snap = rng.random(num) < 0.3
        probs[snap] = np.round(probs[snap] * num_bins) / num_bins
        flags = rng.random(num) < 0.5
        report = ece_arrays(probs, flags, num_bins)
        assert report.ece == literal_ece(probs, flags, num_bins)


def test_ece_report_is_self_consistent():
    rng = np.random.default_rng(66)
    probs = rng.random(500)
    flags = rng.random(500) < 0.3
    report = ece_arrays(probs, flags, 15)
    recomputed = float(
        sum((report.bin_mass * np.abs(report.observed - report.predicted)).tolist())
    )
    assert report.ece == recomputed
    assert report.bin_mass.sum() == pytest.approx(1.0)


def test_ece_accepts_labels_and_ints():
    probs = np.array([0.2, 0.8])
    labels = np.array([Label.NEGATIVE, Label.POSITIVE])
    ints = np.array([0, 1])
    assert (
        ece_arrays(probs, labels == Label.POSITIVE, 5).ece
        == ece_arrays(probs, ints, 5).ece
    )


def test_ece_input_validation():
    with pytest.raises(ValueError):
        ece_arrays(np.array([]), np.array([], dtype=bool), 10)
    with pytest.raises(ValueError):
        ece_arrays(np.array([1.5]), np.array([True]), 10)
    with pytest.raises(ValueError, match="lie in"):
        ece_arrays(np.array([0.5, np.nan]), np.array([True, False]), 10)
    with pytest.raises(ValueError):
        ece_arrays(np.array([0.5]), np.array([True]), 0)
    with pytest.raises(ValueError):
        ece_arrays(np.array([0.5, 0.5]), np.array([True]), 10)


def test_bbq_bisects_every_candidate_in_one_pass(monkeypatch):
    pos, neg = build_class_trees(4000, ScoreDistribution(), seed=35)
    walks = []

    def counting(*args):
        walks.append(args)
        return _quantile_leaves(*args)

    monkeypatch.setattr(hierarchy, "_quantile_leaves", counting)
    cal_map = calibrate_bbq(pos, neg)
    assert len(cal_map.binnings) > 1
    # One walk down both trees finds the quantile cuts of every
    # candidate count at once; the bucket reads then go to the trees.
    assert len(walks) == 1
    assert walks[0][:2] == (pos, neg)


# Local-DP BBQ map digests: noisy float trees, so a change in the bits
# of the candidate counts, the cuts or the per-class reads shows here.
# The (3, 5) map was re-recorded when the cuts became a walk down the
# tree, whose crossings on noisy trees differ from the bisection's at
# f > 2; it was b57586de6de566487b657d51e15128eadd9f694dd19da6e6c92c4d5ea4a98946.
BBQ_LOCAL_DP_DIGESTS = {
    (2, 8): "851826d2cc43f2da1b430992bf3627a2a9bfc324da8e61daeffe6bff1c995604",
    (3, 5): "7c9485da6fb5e1f2c0b8462814fd0c22c3142f2bb79e3ebf9ab4c8c4a02ff551",
}


@pytest.mark.parametrize("fanout,height", sorted(BBQ_LOCAL_DP_DIGESTS))
def test_bbq_local_dp_map_matches_recorded_digest(fanout, height):
    spec = PrivacySpec(
        regime=Regime.LOCAL_DP, epsilon=5.0, height=height, fanout=fanout
    )
    scores, positive = sample_population(3000, ScoreDistribution(), 0.4, 41)
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, spec, 42)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, 43)
    cal_map = calibrate_bbq(pos, neg)
    digest = hashlib.sha256(cal_map.weights.tobytes())
    for boundaries, values in cal_map.binnings:
        digest.update(boundaries.tobytes())
        digest.update(values.tobytes())
    assert len(cal_map.binnings) == 15
    assert digest.hexdigest() == BBQ_LOCAL_DP_DIGESTS[fanout, height]


def test_grid_search_equals_searchsorted_bitwise():
    rng = np.random.default_rng(77)
    cell = 1.0 / SEARCH_GRID
    edge_sets = [
        np.arange(1, 21) / 20,
        np.arange(0, 1025, 8) / 1024,
        np.unique(np.r_[0, rng.integers(1, 3**7, 60), 3**7]) / 3**7,
        np.unique(np.r_[0.0, rng.random(300), 1.0]),
        np.arange(SEARCH_GRID + 1) * cell,
        np.array([0.0, np.nextafter(cell, 0.0), cell, 1.0]),
        np.array([0.5]),
    ]
    for edges in edge_sets:
        near = np.r_[edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]
        values = np.r_[
            rng.random(2000),
            near[(near >= 0.0) & (near <= 1.0)],
            np.arange(SEARCH_GRID + 1) * cell,
            [0.0, -0.0, 5e-324, 1.0, np.nextafter(1.0, 0.0)],
        ]
        for side in ("left", "right"):
            got = _count_below(edges, values, side)
            assert got.dtype == np.intp
            assert np.array_equal(got, np.searchsorted(edges, values, side=side))


def mp_log_beta(a, b):
    return float(mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(b))))


def test_log_beta_matches_mpmath():
    # A log grid over [1e-16, 1e10]^2, then random non-integer points
    # such as clamped noisy counts plus a Beta prior. BBQ's prior terms
    # reach about 2e-16 at 2**26 buckets.
    grid = np.geomspace(1e-16, 1e10, 49)
    a, b = (side.ravel() for side in np.meshgrid(grid, grid))
    rng = np.random.default_rng(61)
    wide = np.exp(rng.uniform(np.log(1e-16), np.log(1e10), (2, 300)))
    counts = rng.uniform(0.0, 40.0, (2, 300)) + rng.uniform(1e-9, 1e-2, (2, 300))
    a = np.concatenate([a, wide[0], counts[0]])
    b = np.concatenate([b, wide[1], counts[1]])
    with mpmath.workdps(40):
        ref = np.array([mp_log_beta(x, y) for x, y in zip(a.tolist(), b.tolist())])
    got = _log_beta(a, b)
    assert got.dtype == np.float64
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-12, (err.max(), a[err.argmax()], b[err.argmax()])


def test_log_beta_matches_scipy_where_scipy_is_accurate():
    # scipy's betaln takes a difference of log-gammas once a + b passes
    # about 171.6, and loses up to 1e-9 relative there.
    rng = np.random.default_rng(62)
    a = np.r_[np.exp(rng.uniform(np.log(1e-16), np.log(100.0), 4000)), 1.0, 15.0, 100.0]
    b = np.r_[np.exp(rng.uniform(np.log(1e-16), np.log(100.0), 4000)), 1.0, 15.0, 100.0]
    ref = betaln(a, b)
    err = np.abs(_log_beta(a, b) - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-13


# The scipy evidence and BBQ fit that the numpy kernel replaced, kept
# literally as references.
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


def scipy_calibrate_bbq(
    pos: HierarchicalCounts,
    neg: HierarchicalCounts,
    prior: float | None = None,
) -> CalibrationMap:
    """Model-averaged calibration over a grid of bucket counts.

    Candidates form a geometric grid of at most 15 integers between
    cbrt(population)/10 and 10*cbrt(population); each binning's weight
    is the softmax of its Beta-binomial log evidence.
    """
    if prior is not None and not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must be in [0, 1], got {prior}")
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


SPIKY_DIST = ScoreDistribution(spikes=(Spike(0.5, 0.1, 0.05),))
BBQ_SPECS = [
    PrivacySpec(regime=regime, epsilon=epsilon, height=height, fanout=fanout)
    for regime, epsilon in (
        (Regime.SECURE_AGG, None),
        (Regime.DIST_DP, 1.0),
        (Regime.LOCAL_DP, 5.0),
    )
    # 3**16 leaves would need gigabytes of running sums.
    for fanout, height in ((2, 6), (2, 10), (2, 16), (3, 6), (3, 10))
]


@pytest.mark.parametrize(
    "spec", BBQ_SPECS, ids=lambda s: f"{s.regime.value}-f{s.fanout}-h{s.height}"
)
def test_bbq_matches_the_scipy_reference(spec):
    scores, positive = sample_population(4000, SPIKY_DIST, 0.4, 71)
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, spec, 72)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, 73)
    got = calibrate_bbq(pos, neg)
    ref = scipy_calibrate_bbq(pos, neg)
    assert len(got.binnings) == len(ref.binnings) > 1
    for (edges, values), (ref_edges, ref_values) in zip(got.binnings, ref.binnings):
        assert edges.tobytes() == ref_edges.tobytes()
        assert values.tobytes() == ref_values.tobytes()
    assert np.abs(got.weights - ref.weights).max() <= 1e-9
    assert got.weights.argmax() == ref.weights.argmax()
