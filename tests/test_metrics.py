"""Histogram metric estimators against hand values and the exact oracle."""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedeval import (
    ClientSplit,
    DegenerateEstimateError,
    Label,
    NoisyCount,
    PrivacySpec,
    Regime,
)
from fedeval.datagen import split_population
from fedeval.hierarchy import (
    ScoreHistogram,
    _bucket_histogram,
    _running_sums,
    build_hierarchy,
    build_score_histogram,
)
from fedeval.mechanisms import discrete_laplace_variance
from fedeval.metrics import (
    FIXED_COUNTER_NAMES,
    auc_histogram,
    pra_fixed,
    pra_threshold,
)
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
        pos_total=NoisyCount(float(pos_total), 0.0),
        neg_total=NoisyCount(float(neg_total), 0.0),
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
    ) / (hist.pos_total.value * hist.neg_total.value) ** 2
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
        hist = _bucket_histogram(
            pos, neg, _running_sums(pos), _running_sums(neg), boundary
        )
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
    assert est.counters["true_positive"] == NoisyCount(2.0, 0.0)
    assert est.counters["total"] == NoisyCount(4.0, 0.0)


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
    assert info.value.counters["total"].value == -4.0


# -- fixed-threshold counter aggregation ------------------------------------


def fixed_split(examples, group=1):
    """The (scores, positive) examples, group consecutive rows per client."""
    scores, positive = examples
    offsets = np.append(np.arange(0, scores.size, group), scores.size)
    return ClientSplit(scores, positive, offsets)


def random_examples(rng, num):
    return rng.random(num), rng.random(num) < 0.5


def test_pra_fixed_secure_agg_matches_oracle():
    rng = np.random.default_rng(77)
    examples = random_examples(rng, 200)
    for group in (1, 3):
        est = pra_fixed(fixed_split(examples, group), 0.35, sa_spec(4))
        classes = _class_sorted(*examples)
        precision, recall, accuracy = exact_pra_curve(*classes, [0.35])[0]
        assert est.precision == precision
        assert est.recall == recall
        assert est.accuracy == accuracy
        assert est.effective_threshold is None
        assert est.threshold_slack == 0.0
        assert list(est.counters) == list(FIXED_COUNTER_NAMES) + ["total"]
    for threshold in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            pra_fixed(fixed_split(examples), threshold, sa_spec(4))


def test_pra_fixed_distdp_unbiased():
    rng = np.random.default_rng(88)
    examples = random_examples(rng, 400)
    clients = fixed_split(examples)
    spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=2.0, height=4, fanout=2)
    exact = pra_fixed(clients, 0.5, sa_spec(4))
    node_var = discrete_laplace_variance(math.exp(-2.0 / 4.0))
    trials = 300
    sums = {name: 0.0 for name in FIXED_COUNTER_NAMES}
    for i in range(trials):
        est = pra_fixed(clients, 0.5, spec, seed=(5, i))
        for name in FIXED_COUNTER_NAMES:
            assert est.counters[name].variance == pytest.approx(node_var)
            sums[name] += est.counters[name].value
        assert est.counters["total"] == NoisyCount(400.0, 0.0)
    se = math.sqrt(node_var / trials)
    for name in FIXED_COUNTER_NAMES:
        exact_value = exact.counters[name].value
        assert abs(sums[name] / trials - exact_value) < 3.0 * se


def test_pra_fixed_local_dp_unbiased_and_public_total():
    rng = np.random.default_rng(99)
    examples = random_examples(rng, 1000)
    clients = fixed_split(examples)
    spec = PrivacySpec(regime=Regime.LOCAL_DP, epsilon=4.0, height=4, fanout=2)
    exact = pra_fixed(clients, 0.5, sa_spec(4))
    p = math.exp(1.0) / (math.exp(1.0) + 1.0)
    bit_var = 1000 * p * (1 - p) / (2 * p - 1) ** 2
    trials = 200
    sums = {name: 0.0 for name in FIXED_COUNTER_NAMES}
    for i in range(trials):
        est = pra_fixed(clients, 0.5, spec, seed=(6, i))
        for name in FIXED_COUNTER_NAMES:
            assert est.counters[name].variance == pytest.approx(bit_var)
            sums[name] += est.counters[name].value
        # Accuracy always divides by the public example count.
        assert est.counters["total"] == NoisyCount(1000.0, 0.0)
        expected_accuracy = min(max(est.counters["correct"].value, 0.0) / 1000.0, 1.0)
        assert est.accuracy == pytest.approx(expected_accuracy)
    se = math.sqrt(bit_var / trials)
    for name in FIXED_COUNTER_NAMES:
        exact_value = exact.counters[name].value
        assert abs(sums[name] / trials - exact_value) < 3.5 * se


def test_pra_fixed_local_dp_rejects_grouped_shards():
    rng = np.random.default_rng(3)
    examples = random_examples(rng, 30)
    clients = fixed_split(examples, group=3)
    spec = PrivacySpec(regime=Regime.LOCAL_DP, epsilon=2.0, height=4, fanout=2)
    with pytest.raises(ValueError, match="shard 0 holds 3"):
        pra_fixed(clients, 0.5, spec, seed=0)


@given(
    epsilon=st.floats(min_value=1e-300, max_value=1e300),
    regime=st.sampled_from([Regime.DIST_DP, Regime.LOCAL_DP]),
    height=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(epsilon=3000.0, regime=Regime.LOCAL_DP, height=4, seed=0)
@example(epsilon=3000.0, regime=Regime.DIST_DP, height=10, seed=0)
@example(epsilon=4e-16, regime=Regime.LOCAL_DP, height=4, seed=0)
def test_pra_fixed_runs_or_names_the_epsilon(epsilon, regime, height, seed):
    try:
        spec = PrivacySpec(regime=regime, epsilon=epsilon, height=height)
    except ValueError as exc:
        assert f"epsilon {epsilon!r} " in str(exc)
        return
    rng = np.random.default_rng(seed)
    clients = fixed_split(random_examples(rng, 12))
    try:
        est = pra_fixed(clients, 0.5, spec, seed=seed)
    except ValueError as exc:
        assert str(exc).startswith(f"epsilon {epsilon!r} ")
        return
    for counter in est.counters.values():
        assert math.isfinite(counter.value) and math.isfinite(counter.variance)


def test_pra_fixed_empty_population_raises():
    empty = fixed_split((np.empty(0), np.empty(0, dtype=bool)))
    with pytest.raises(DegenerateEstimateError):
        pra_fixed(empty, 0.5, sa_spec(4))
    spec = PrivacySpec(regime=Regime.LOCAL_DP, epsilon=2.0, height=4, fanout=2)
    with pytest.raises(DegenerateEstimateError):
        pra_fixed(empty, 0.5, spec, seed=0)


def _estimates_digest(estimates):
    h = hashlib.sha256()
    for est in estimates:
        for name, counter in est.counters.items():
            h.update(name.encode())
            h.update(struct.pack("<dd", counter.value, counter.variance))
        for value in (est.precision, est.recall, est.accuracy):
            h.update(b"none" if value is None else struct.pack("<d", value))
    return h.hexdigest()


_SA_DIGEST = "c9291ac2c185891f16941fbad349bf624baf5f8d801da7b7e11d266be6437c5d"
_DIST_DIGEST = "351a6deacefd82ec5f41f29209d890019cb05db0b6902d137335926531d6836c"


@pytest.mark.parametrize(
    "spec,group,expected",
    [
        (sa_spec(4), 1, _SA_DIGEST),
        (sa_spec(4), 3, _SA_DIGEST),
        (PrivacySpec(Regime.DIST_DP, 2.0, height=4), 1, _DIST_DIGEST),
        (PrivacySpec(Regime.DIST_DP, 2.0, height=4), 3, _DIST_DIGEST),
        (
            PrivacySpec(Regime.LOCAL_DP, 4.0, height=4),
            1,
            "af0edb0c4bfabb7f0ada203b6a8a040f08dfb65afdb3f350403af7191b5e94a7",
        ),
    ],
)
def test_pra_fixed_counters_are_byte_stable(spec, group, expected):
    # The digests pin counters and estimates byte for byte. Client groups
    # of 1 and 3 share a digest: the exact sums do not depend on the
    # grouping, nor does the aggregate dist_dp noise, which is drawn from
    # alpha alone (test_dist_dp_does_not_depend_on_the_client_split).
    rng = np.random.default_rng(11)
    scores, positive = rng.random(90), rng.random(90) < 0.4
    offsets = np.append(np.arange(0, 90, group), 90)
    clients = ClientSplit(scores, positive, offsets)
    estimates = [pra_fixed(clients, 0.35, spec, seed=(7, rep)) for rep in range(3)]
    assert _estimates_digest(estimates) == expected


def test_pra_fixed_local_dp_counts_empty_clients():
    rng = np.random.default_rng(12)
    scores, positive = rng.random(40), rng.random(40) < 0.4
    # Every third client of 60 is empty; the other 40 hold one example.
    offsets = np.concatenate(([0], np.cumsum(np.arange(60) % 3 != 1)))
    clients = ClientSplit(scores, positive, offsets)
    spec = PrivacySpec(Regime.LOCAL_DP, 4.0, height=4)
    estimates = [pra_fixed(clients, 0.35, spec, seed=(8, rep)) for rep in range(3)]
    assert _estimates_digest(estimates) == (
        "6d2db79ff73f1a72b2c7fd98d0360e18b54a53985f18a2a2bcafb3efc1966085"
    )
