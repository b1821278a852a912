"""Hierarchical counts, prefix queries, quantiles, and histograms."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedeval import (
    ClientSplit,
    DegenerateEstimateError,
    InsufficientPopulationError,
    Label,
    PrivacySpec,
    Regime,
    ScoreDistribution,
)
from fedeval import hierarchy
from fedeval.calibration import calibrate_bbq
from fedeval.core import leaf_indices
from fedeval.datagen import sample_population, split_population
from fedeval.hierarchy import (
    HierarchicalCounts,
    _bucket_histogram,
    _exact_levels,
    _level_runs,
    _level_views,
    _prefixes_at,
    _quantile_leaves,
    build_hierarchy,
    build_score_histogram,
    build_score_histograms,
)
from fedeval.mechanisms import discrete_laplace_variance
from fedeval.metrics import auc_histogram, pra_threshold

import running_sums_reader
from tree_levels import level_views


def sa_spec(height, fanout=2):
    return PrivacySpec(regime=Regime.SECURE_AGG, height=height, fanout=fanout)


def clients_of(pairs, offsets=None):
    """Columns of (score, label) pairs, one pair per client by default."""
    scores = np.array([float(s) for s, _ in pairs], dtype=np.float64)
    positive = np.array([l == 1 for _, l in pairs], dtype=bool)
    if offsets is None:
        offsets = np.arange(len(pairs) + 1)
    return ClientSplit(scores, positive, np.asarray(offsets, dtype=np.int64))


FOUR = [(0.1, 1), (0.3, 1), (0.6, 1), (0.9, 1)]

HISTOGRAM_FIELDS = (
    "boundary_leaves", "pos_values", "neg_values",
    "pos_variances", "neg_variances", "pos_total", "neg_total",
)


def prefixes(tree, leaves):
    """The tree's prefix counts at the given leaf boundaries."""
    return _prefixes_at(tree, *_level_runs(tree.spec, np.asarray(leaves)))


def zero_tree(tree):
    """A tree of tree's spec and dtype whose nodes are all zero."""
    return HierarchicalCounts(
        spec=tree.spec,
        nodes=np.zeros_like(tree.nodes),
        level_variances=tree.level_variances,
    )


def test_levels_of_four_spread_scores():
    pos = build_hierarchy(clients_of(FOUR), Label.POSITIVE, sa_spec(2))
    assert level_views(pos)[0].tolist() == [2, 2]
    assert level_views(pos)[1].tolist() == [1, 1, 1, 1]
    assert pos.population_total == 4.0
    assert pos.level_variances == (0.0, 0.0)
    assert len(level_views(pos)) == 2


def reshape_sum_levels(class_scores, spec):
    """The exact levels as built before the einsum form, kept literally."""
    leaves = leaf_indices(class_scores, spec.height, spec.fanout)
    levels = [np.bincount(leaves, minlength=spec.num_leaves)]
    for _ in range(spec.height - 1):
        levels.append(levels[-1].reshape(-1, spec.fanout).sum(axis=1))
    levels.reverse()
    return levels


@pytest.mark.parametrize("fanout", [2, 3, 4, 5, 6, 7, 8, 16, 64, 4096])
def test_exact_levels_equal_the_reshape_sum_bitwise(fanout):
    rng = np.random.default_rng(fanout)
    height = 1
    while fanout**height <= 2**16:
        spec = sa_spec(height, fanout)
        for num in (0, 1, 37, 5000):
            scores = rng.random(num)
            got = _level_views(_exact_levels(scores, spec), spec)
            ref = reshape_sum_levels(scores, spec)
            assert len(got) == len(ref) == height
            for level, ref_level in zip(got, ref):
                assert level.dtype == ref_level.dtype
                assert level.tobytes() == ref_level.tobytes()
        height += 1


def test_other_class_tree_is_empty_but_same_shape():
    neg = build_hierarchy(clients_of(FOUR), Label.NEGATIVE, sa_spec(2))
    assert level_views(neg)[0].tolist() == [0, 0]
    assert neg.population_total == 0.0


def test_prefix_values_cover_full_range():
    pos = build_hierarchy(clients_of(FOUR), Label.POSITIVE, sa_spec(2))
    assert prefixes(pos, np.arange(5)).tolist() == [0, 1, 2, 3, 4]


def test_find_quantile_first_crossing():
    pos = build_hierarchy(clients_of(FOUR), Label.POSITIVE, sa_spec(2))
    neg = build_hierarchy(clients_of(FOUR), Label.NEGATIVE, sa_spec(2))
    total = pos.population_total
    targets = np.array([1.0, 2.0, 0.0, 4.0])
    assert _quantile_leaves(pos, neg, total, targets).tolist() == [1, 2, 0, 4]
    # Targets are clamped to [0, population total].
    clamped = _quantile_leaves(pos, neg, total, np.array([100.0, -3.0]))
    assert clamped.tolist() == [4, 0]


def test_histogram_of_separated_classes():
    shards = clients_of([(0.6, 1), (0.9, 1), (0.1, 0), (0.3, 0)])
    pos = build_hierarchy(shards, Label.POSITIVE, sa_spec(2))
    neg = build_hierarchy(shards, Label.NEGATIVE, sa_spec(2))
    hist = build_score_histogram(pos, neg, 2)
    assert hist.boundary_leaves.tolist() == [0, 2, 4]
    assert hist.boundaries.tolist() == [0.0, 0.5, 1.0]
    assert hist.pos_values.tolist() == [0, 2]
    assert hist.neg_values.tolist() == [2, 0]
    assert hist.pos_total == 2.0
    assert hist.neg_total == 2.0
    assert hist.num_buckets == 2


def test_single_bucket_histogram():
    shards = clients_of([(0.6, 1), (0.9, 1), (0.1, 0), (0.3, 0)])
    pos = build_hierarchy(shards, Label.POSITIVE, sa_spec(2))
    neg = build_hierarchy(shards, Label.NEGATIVE, sa_spec(2))
    hist = build_score_histogram(pos, neg, 1)
    assert hist.boundary_leaves.tolist() == [0, 4]
    assert hist.pos_values.tolist() == [2]
    assert hist.neg_values.tolist() == [2]


def test_width_cap_splits_wide_buckets():
    # All mass in leaf 0 collapses every quantile cut to r = 1; the cap
    # then splits the huge right bucket at the aligned stride.
    shards = clients_of([(0.01, 1)] * 8)
    pos = build_hierarchy(shards, Label.POSITIVE, sa_spec(4))
    neg = build_hierarchy(shards, Label.NEGATIVE, sa_spec(4))
    hist = build_score_histogram(pos, neg, 4)
    assert hist.boundary_leaves.tolist() == [0, 1, 8, 16]
    assert hist.pos_values.tolist() == [8, 0, 0]


@pytest.mark.parametrize("height,fanout", [(5, 2), (3, 3)])
def test_more_buckets_than_leaves_cut_every_leaf(height, fanout):
    # Past f**h buckets the width cap is one leaf, so any larger count
    # gives the histogram of f**h + 1 buckets; 10**12 would not fit a
    # B-sized array.
    rng = np.random.default_rng(9)
    shards = clients_of([(s, int(s > 0.4)) for s in rng.random(300)])
    spec = dp_spec(height, 1.0, fanout)
    pos = build_hierarchy(shards, Label.POSITIVE, spec, seed=1)
    neg = build_hierarchy(shards, Label.NEGATIVE, spec, seed=2)
    want = build_score_histogram(pos, neg, fanout**height + 1)
    got = build_score_histogram(pos, neg, 10**12)
    assert got.boundary_leaves.tolist() == list(range(fanout**height + 1))
    for field in HISTOGRAM_FIELDS:
        assert same_bits(getattr(got, field), getattr(want, field))


def test_histogram_rejects_bad_inputs():
    shards = clients_of(FOUR)
    pos = build_hierarchy(shards, Label.POSITIVE, sa_spec(2))
    neg = build_hierarchy(shards, Label.NEGATIVE, sa_spec(2))
    with pytest.raises(ValueError):
        build_score_histogram(pos, neg, 0)
    other = build_hierarchy(shards, Label.NEGATIVE, sa_spec(3))
    with pytest.raises(ValueError):
        build_score_histogram(pos, other, 2)
    with pytest.raises(ValueError):
        build_score_histogram(other, neg, 2)
    # Every count is checked before the spec.
    with pytest.raises(ValueError, match="num_buckets must be >= 1, got 0"):
        build_score_histograms(pos, other, [4, 0])


def test_secure_agg_ignores_sharding():
    examples = [(i / 37.0, i % 2) for i in range(37)]
    spec = sa_spec(5)
    one_per = clients_of(examples)
    starts = list(range(0, 37, 5))
    grouped = clients_of(examples, starts + [37])
    with_empty = clients_of(examples, starts + [37, 37, 37])
    reference = build_hierarchy(one_per, Label.POSITIVE, spec)
    for shards in (grouped, with_empty):
        alt = build_hierarchy(shards, Label.POSITIVE, spec)
        for k in range(1, 6):
            assert np.array_equal(
                level_views(reference)[k - 1], level_views(alt)[k - 1]
            )


def test_class_filter_type_checked():
    with pytest.raises(TypeError):
        build_hierarchy(clients_of([]), 1, sa_spec(2))


# -- distributed noise ------------------------------------------------------


def dp_spec(height, epsilon, fanout=2):
    return PrivacySpec(
        regime=Regime.DIST_DP, epsilon=epsilon, height=height, fanout=fanout
    )


def test_distdp_advertises_exact_node_variance():
    shards = clients_of(FOUR)
    spec = dp_spec(3, 1.0)
    hier = build_hierarchy(shards, Label.POSITIVE, spec, seed=0)
    expected = discrete_laplace_variance(math.exp(-1.0 / 3.0))
    for k in (1, 2, 3):
        assert hier.level_variances[k - 1] == pytest.approx(expected)


def test_distdp_unbiased_and_variance_calibrated():
    rng = np.random.default_rng(314)
    scores = rng.random(500)
    shards = clients_of([(s, i % 2) for i, s in enumerate(scores)])
    spec = dp_spec(3, 1.0)
    exact = level_views(build_hierarchy(shards, Label.POSITIVE, sa_spec(3)))[0]
    node_var = discrete_laplace_variance(math.exp(-1.0 / 3.0))
    builds = 300
    samples = np.zeros((builds, 2))
    for i in range(builds):
        hier = build_hierarchy(shards, Label.POSITIVE, spec, seed=(99, i))
        samples[i] = level_views(hier)[0]
    errors = samples - exact
    assert np.all(np.abs(errors.mean(axis=0)) < 3.0 * math.sqrt(node_var / builds))
    pooled = errors.var(ddof=1)
    assert 0.7 * node_var < pooled < 1.4 * node_var


def test_distdp_determinism_and_seed_sensitivity():
    shards = clients_of(FOUR)
    spec = dp_spec(3, 0.5)
    a = build_hierarchy(shards, Label.POSITIVE, spec, seed=7)
    b = build_hierarchy(shards, Label.POSITIVE, spec, seed=7)
    c = build_hierarchy(shards, Label.POSITIVE, spec, seed=8)
    for k in (1, 2, 3):
        assert np.array_equal(level_views(a)[k - 1], level_views(b)[k - 1])
    assert any(
        not np.array_equal(level_views(a)[k - 1], level_views(c)[k - 1])
        for k in (1, 2, 3)
    )


@pytest.mark.parametrize("num_examples", [49, 98, 103, 600])
def test_dist_dp_does_not_depend_on_the_client_split(num_examples):
    # The clients' noise shares sum to one discrete Laplace draw per
    # node, whatever their number, so the trees agree bit for bit across
    # client groups of 1, 2 and 7. At 49, 98 and 103 clients
    # n * (1/n) != 1 in floating point, so a per-client shape in the
    # draws would show.
    spec = dp_spec(5, 1.0)
    scores, positive = sample_population(num_examples, ScoreDistribution(), 0.5, 4)

    def fingerprint(group):
        offsets = np.append(np.arange(0, num_examples, group), num_examples)
        clients = ClientSplit(scores, positive, offsets)
        return [
            level.tobytes()
            for label in Label
            for level in level_views(build_hierarchy(clients, label, spec, seed=9))
        ]

    reference = fingerprint(1)
    assert fingerprint(2) == reference
    assert fingerprint(7) == reference


# -- local randomization ----------------------------------------------------


def ldp_spec(height, epsilon, fanout=2):
    return PrivacySpec(
        regime=Regime.LOCAL_DP, epsilon=epsilon, height=height, fanout=fanout
    )


def test_local_dp_needs_enough_clients():
    shards = clients_of(FOUR)
    with pytest.raises(InsufficientPopulationError):
        build_hierarchy(shards, Label.POSITIVE, ldp_spec(10, 5.0), seed=0)


def test_local_dp_empty_population_is_all_zero():
    hier = build_hierarchy(
        clients_of([]), Label.POSITIVE, ldp_spec(4, 5.0), seed=0
    )
    for k in range(1, 5):
        assert level_views(hier)[k - 1].tolist() == [0.0] * 2**k
        assert hier.level_variances[k - 1] == 0.0
    assert hier.population_total == 0.0


def test_local_dp_rejects_multi_example_shards():
    pairs = [(0.2, 1), (0.4, 0)] + [(0.5, 1)] * 5
    shards = clients_of(pairs, [0, 2, 3, 4, 5, 6, 7])
    with pytest.raises(ValueError, match="shard 0"):
        build_hierarchy(shards, Label.POSITIVE, ldp_spec(2, 5.0), seed=0)


def test_local_dp_unbiased_and_variance_calibrated():
    rng = np.random.default_rng(2718)
    num = 3000
    scores = rng.random(num)
    flags = rng.random(num) < 0.5
    shards = clients_of(list(zip(scores, flags)))
    spec = ldp_spec(3, 2.0)
    leaves = leaf_indices(scores[flags], 3, 2)
    exact_level1 = np.bincount(leaves // 4, minlength=2)

    builds = 120
    samples = np.zeros((builds, 2))
    variances = np.zeros(builds)
    for i in range(builds):
        hier = build_hierarchy(shards, Label.POSITIVE, spec, seed=(55, i))
        samples[i] = level_views(hier)[0]
        variances[i] = hier.level_variances[0]
    # Group sizes are fixed by M and h, so the advertisement is constant.
    assert np.all(variances == variances[0])
    q = 1.0 / (math.exp(2.0) + 1.0)
    group = num // 3
    scale = num / group
    advertised = scale**2 * group * q * (1 - q) / (0.5 - q) ** 2
    assert variances[0] == pytest.approx(advertised)

    # The advertisement uses the count-free q(1 - q) bound per reported
    # bit. The estimator's true variance also carries p(1 - p) on bits
    # whose entry is truly set plus the group-subsampling variance, so
    # compute it from the known counts for the empirical comparison.
    share = exact_level1 * (group / num)
    bit_var = share * 0.25 + (group - share) * q * (1 - q)
    hyper = (
        group
        * (exact_level1 / num)
        * (1 - exact_level1 / num)
        * (num - group)
        / (num - 1)
    )
    true_var = scale**2 * (bit_var / (0.5 - q) ** 2 + hyper)
    assert advertised <= true_var.min()

    errors = samples - exact_level1
    se = np.sqrt(true_var / builds)
    assert np.all(np.abs(errors.mean(axis=0)) < 3.0 * se)
    pooled = errors.var(ddof=1)
    assert 0.75 * true_var.mean() < pooled < 1.3 * true_var.mean()


def test_local_dp_determinism():
    shards = clients_of([(i / 16.0, i % 2) for i in range(16)])
    spec = ldp_spec(3, 4.0)
    a = build_hierarchy(shards, Label.POSITIVE, spec, seed=5)
    b = build_hierarchy(shards, Label.POSITIVE, spec, seed=5)
    for k in (1, 2, 3):
        assert np.array_equal(level_views(a)[k - 1], level_views(b)[k - 1])


# -- variance bookkeeping ---------------------------------------------------


def prefix_run(r, level, height, fanout):
    """Level nodes of the canonical prefix decomposition of [0, r)."""
    seg = fanout ** (height - level)
    hi = r // seg
    lo = 0 if level == 1 else fanout * (r // (seg * fanout))
    return set(range(lo, hi))


def fabricated_counts(height, fanout, level_variances, rng):
    spec = PrivacySpec(
        regime=Regime.DIST_DP, epsilon=1.0, height=height, fanout=fanout
    )
    values = [rng.normal(size=fanout**k) for k in range(1, height + 1)]
    return HierarchicalCounts(
        spec=spec,
        nodes=np.concatenate(values),
        level_variances=tuple(level_variances),
    )


@pytest.mark.parametrize("height,fanout", [(5, 2), (3, 3), (4, 2)])
def test_prefix_variances_count_decomposition_nodes(height, fanout):
    # Each node a prefix reads adds its level's variance once; the runs
    # of _level_runs must be exactly the canonical decomposition.
    rng = np.random.default_rng(height * 10 + fanout)
    counts = fabricated_counts(height, fanout, [1.0] * height, rng)
    leaves = np.arange(fanout**height + 1)
    lo, hi = _level_runs(counts.spec, leaves)
    for k in range(1, height + 1):
        for r in leaves.tolist():
            run = set(range(lo[k - 1, r], hi[k - 1, r]))
            assert run == prefix_run(r, k, height, fanout)


@pytest.mark.parametrize("height,fanout", [(5, 2), (3, 3)])
def test_bucket_variances_track_prefix_differences(height, fanout):
    # A bucket count is a difference of prefix estimates; nodes shared by
    # the two decompositions cancel, all others add their variance.
    rng = np.random.default_rng(height * 100 + fanout)
    level_vars = [float(v) for v in rng.uniform(0.5, 4.0, size=height)]
    counts = fabricated_counts(height, fanout, level_vars, rng)
    n = fanout**height
    for _ in range(25):
        interior = np.sort(
            rng.choice(np.arange(1, n), size=min(4, n - 1), replace=False)
        )
        boundary = np.concatenate(([0], interior, [n]))
        got = _bucket_histogram(counts, counts, boundary).pos_variances
        for i, (a, b) in enumerate(zip(boundary, boundary[1:])):
            expected = sum(
                level_vars[k - 1]
                * len(
                    prefix_run(a, k, height, fanout)
                    ^ prefix_run(b, k, height, fanout)
                )
                for k in range(1, height + 1)
            )
            assert got[i] == pytest.approx(expected)


def test_bucket_variance_empirically_calibrated():
    # Repeated noisy builds with frozen boundaries: the sample variance of
    # each bucket count must match the advertisement.
    rng = np.random.default_rng(404)
    scores = rng.random(400)
    shards = clients_of([(s, 1) for s in scores])
    spec = dp_spec(4, 1.0)
    boundary = np.array([0, 3, 8, 16])
    builds = 400
    samples = np.zeros((builds, 3))
    for i in range(builds):
        hier = build_hierarchy(shards, Label.POSITIVE, spec, seed=(77, i))
        hist = _bucket_histogram(hier, hier, boundary)
        samples[i] = hist.pos_values
        advertised = hist.pos_variances
    empirical = samples.var(axis=0, ddof=1)
    assert np.all(empirical > 0.6 * advertised)
    assert np.all(empirical < 1.5 * advertised)


# -- whole-structure properties --------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.booleans()),
        min_size=1,
        max_size=80,
    ),
    st.floats(min_value=-5.0, max_value=100.0),
)
def test_prefixes_and_quantiles_consistent(items, target):
    shards = clients_of([((i + 0.5) / 16.0, f) for i, f in items])
    hier = build_hierarchy(shards, Label.POSITIVE, sa_spec(4))
    prefix = prefixes(hier, np.arange(17))
    assert np.all(np.diff(prefix) >= 0)
    num_pos = sum(1 for _, f in items if f)
    assert prefix[-1] == num_pos
    for k in range(1, 5):
        assert level_views(hier)[k - 1].sum() == num_pos

    total = hier.population_total
    r = int(_quantile_leaves(hier, zero_tree(hier), total, np.array([target]))[0])
    clamped = min(max(target, 0.0), float(num_pos))
    assert prefix[r] >= clamped
    if r > 0:
        assert prefix[r - 1] < clamped


@given(
    st.lists(
        st.tuples(st.integers(0, 63), st.booleans()),
        min_size=2,
        max_size=120,
    ),
    st.integers(1, 12),
)
def test_histogram_counts_partition_the_data(items, num_buckets):
    shards = clients_of([((i + 0.5) / 64.0, f) for i, f in items])
    pos = build_hierarchy(shards, Label.POSITIVE, sa_spec(6))
    neg = build_hierarchy(shards, Label.NEGATIVE, sa_spec(6))
    hist = build_score_histogram(pos, neg, num_buckets)

    leaves = np.array([i for i, _ in items])
    flags = np.array([f for _, f in items])
    bounds = hist.boundary_leaves
    for b in range(hist.num_buckets):
        inside = (leaves >= bounds[b]) & (leaves < bounds[b + 1])
        assert hist.pos_values[b] == np.count_nonzero(inside & flags)
        assert hist.neg_values[b] == np.count_nonzero(inside & ~flags)
    assert hist.pos_values.sum() == flags.sum()
    assert hist.neg_values.sum() == np.count_nonzero(~flags)

    # Every bucket respects the width cap.
    cap_level = 0
    while 2**cap_level < num_buckets:
        cap_level += 1
    cap_level = min(6, max(0, cap_level - 1))
    stride = 64 // 2**cap_level
    assert int(np.diff(bounds).max()) <= stride


# -- literal reference for prefixes, quantiles and histograms --------------


def dense_prefixes(counts):
    """Every prefix value, for r = 0..f**h: its nodes summed in level order.

    Prefix [0, r) reads the level-k nodes f*(r // f**(h-k+1)) ..
    r // f**(h-k) - 1, or 0 .. r // f**(h-1) - 1 at the top level. From
    zero in the tree's dtype, the nodes it reads are added one at a
    time, level 1 first and each level left to right: the order of the
    level-order array.
    """
    f, h, n = counts.spec.fanout, counts.spec.height, counts.num_leaves
    r = np.arange(n + 1, dtype=np.int64)
    values = np.zeros(n + 1, dtype=counts.nodes.dtype)
    for k in range(1, h + 1):
        level = level_views(counts)[k - 1]
        hi = r // f ** (h - k)
        lo = f * (r // f ** (h - k + 1)) if k > 1 else np.zeros_like(r)
        for j in range(f):
            reading = np.flatnonzero(lo + j < hi)
            values[reading] += level[lo[reading] + j]
    return values


def bisect_leaf(prefix, target):
    """Scalar bisection over prefix[0..f**h] for a clamped target."""
    lo, hi = 0, len(prefix) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if prefix[mid] >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def walk_leaf(prefix, fanout, target):
    """Scalar f-ary walk down prefix[0..f**h] for a clamped target.

    At each level, move into the first of the node's first f - 1
    children whose end's prefix reaches the target, else into the last
    child. Return the end of the leaf reached, or 0 when the walk only
    went left and prefix[0] reaches the target too.
    """
    leaf, width = 0, len(prefix) - 1
    while width > 1:
        width //= fanout
        for _ in range(fanout - 1):
            if prefix[leaf + width] >= target:
                break
            leaf += width
    return 0 if leaf == 0 and prefix[0] >= target else leaf + 1


def reference_leaf(prefix, fanout, target):
    """The bisection at f = 2, where the walk must keep its bits; else the walk."""
    if fanout == 2:
        return bisect_leaf(prefix, target)
    return walk_leaf(prefix, fanout, target)


def clamped(target, total):
    return min(max(target, 0.0), max(total, 0.0))


def reference_boundaries(prefix, spec, num_buckets, total):
    """Quantile cuts by reference_leaf, then the aligned width cap.

    prefix holds the combined prefixes at r = 0..f**h, and total is the
    combined population total that the targets divide.
    """
    n, f = spec.num_leaves, spec.fanout
    cuts = {0, n}
    for j in range(1, num_buckets):
        target = clamped(j * total / num_buckets, total)
        cuts.add(reference_leaf(prefix, f, target))
    cap_level = 0
    while f**cap_level < num_buckets:
        cap_level += 1
    stride = n // f ** min(spec.height, max(0, cap_level - 1))
    bounds = sorted(cuts)
    final = [0]
    for left, right in zip(bounds, bounds[1:]):
        if right - left > stride:
            final.extend(range((left // stride + 1) * stride, right, stride))
        final.append(right)
    return np.array(final, dtype=np.int64)


def reference_bucket_variances(counts, boundary):
    """Level variance times the nodes of one prefix run but not the other."""
    h, f = counts.spec.height, counts.spec.fanout
    return np.array(
        [
            sum(
                counts.level_variances[k - 1]
                * len(prefix_run(a, k, h, f) ^ prefix_run(b, k, h, f))
                for k in range(1, h + 1)
            )
            for a, b in zip(boundary.tolist(), boundary[1:].tolist())
        ],
        dtype=np.float64,
    )


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(
    regime=st.sampled_from(list(Regime)),
    epsilon=st.sampled_from([0.1, 1.0, 8.0]),
    fanout=st.sampled_from([2, 3]),
    height=st.integers(1, 8),
    num_examples=st.one_of(st.just(0), st.integers(8, 400)),
    balance=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    num_buckets=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    leaf_fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
    target_fractions=st.lists(st.floats(0.0, 1.0), max_size=10),
)
# Noisy f = 3 targets whose walk and bisection crossings differ, so a
# bisection in place of the walk fails here whatever hypothesis draws.
@example(
    regime=Regime.DIST_DP, epsilon=1.0, fanout=3, height=4, num_examples=200,
    balance=0.5, num_buckets=10, seed=0, leaf_fractions=[], target_fractions=[0.4],
)
@example(
    regime=Regime.LOCAL_DP, epsilon=1.0, fanout=3, height=4, num_examples=200,
    balance=0.5, num_buckets=10, seed=0, leaf_fractions=[], target_fractions=[0.25],
)
def test_prefix_queries_match_literal_reference(
    regime,
    epsilon,
    fanout,
    height,
    num_examples,
    balance,
    num_buckets,
    seed,
    leaf_fractions,
    target_fractions,
):
    spec = PrivacySpec(
        regime=regime,
        epsilon=None if regime is Regime.SECURE_AGG else epsilon,
        height=height,
        fanout=fanout,
    )
    scores, positive = sample_population(
        num_examples, ScoreDistribution(), balance, seed
    )
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, spec, seed + 1)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, seed + 2)
    n = spec.num_leaves

    leaves = [int(u * n) for u in leaf_fractions] + [0, n]
    # Targets from 5 below 0 to 5 above the population.
    targets = [u * (num_examples + 10.0) - 5.0 for u in target_fractions]
    queries = np.array(targets, dtype=np.float64)
    # Queries add the totals tree by tree, as build_score_histograms
    # does, and a combined prefix is pos's prefix plus neg's.
    total = pos.population_total + neg.population_total
    pos_values, neg_values = dense_prefixes(pos), dense_prefixes(neg)
    for trees, values, counts_total in (
        ((pos, zero_tree(pos)), pos_values, pos.population_total),
        ((zero_tree(neg), neg), neg_values, neg.population_total),
        ((pos, neg), pos_values + neg_values, total),
    ):
        want = [
            reference_leaf(values, fanout, clamped(t, counts_total)) for t in targets
        ]
        got = _quantile_leaves(*trees, counts_total, queries)
        assert same_bits(got, np.array(want, dtype=np.int64))
    for counts, values in ((pos, pos_values), (neg, neg_values)):
        assert same_bits(prefixes(counts, leaves), values[leaves])

    hist = build_score_histogram(pos, neg, num_buckets)
    boundary = reference_boundaries(pos_values + neg_values, spec, num_buckets, total)
    assert same_bits(hist.boundary_leaves, boundary)
    for counts, values, got_values, got_variances, got_total in (
        (pos, pos_values, hist.pos_values, hist.pos_variances, hist.pos_total),
        (neg, neg_values, hist.neg_values, hist.neg_variances, hist.neg_total),
    ):
        assert same_bits(got_values, np.diff(values[boundary]))
        assert same_bits(got_variances, reference_bucket_variances(counts, boundary))
        assert same_bits(got_total, float(values[n]))


def test_levels_of_mixed_dtypes_read_in_float64():
    # Levels of int64 and float64 make one float64 array, whose prefixes
    # read in float64 as its dense prefixes do; a tree of integer levels
    # alone stays in int64.
    spec = sa_spec(2)
    mixed = HierarchicalCounts(
        spec=spec,
        nodes=np.concatenate((np.array([3, 1]), np.array([2.0, 1.0, 0.0, 1.0]))),
        level_variances=(0.0, 0.0),
    )
    ints = HierarchicalCounts(
        spec=spec,
        nodes=np.concatenate((np.array([1, 1]), np.array([0, 1, 1, 0]))),
        level_variances=(0.0, 0.0),
    )
    hist = build_score_histogram(mixed, ints, 2)
    assert same_bits(hist.boundary_leaves, np.array([0, 2, 4]))
    assert same_bits(hist.pos_values, np.array([3.0, 1.0]))
    assert same_bits(hist.neg_values, np.array([1, 1]))
    assert same_bits(hist.pos_variances, np.zeros(2))
    assert (hist.pos_total, hist.neg_total) == (4.0, 2.0)
    for counts, values in ((mixed, hist.pos_values), (ints, hist.neg_values)):
        assert same_bits(values, np.diff(dense_prefixes(counts)[[0, 2, 4]]))


@pytest.mark.parametrize("fanout", [2, 3])
@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
def test_histograms_of_several_counts_match_one_at_a_time(regime, fanout):
    epsilon = None if regime is Regime.SECURE_AGG else 5.0
    spec = PrivacySpec(regime=regime, epsilon=epsilon, height=5, fanout=fanout)
    scores, positive = sample_population(2000, ScoreDistribution(), 0.4, 12)
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, spec, 13)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, 14)
    counts = [7, 1, 30, 7, spec.num_leaves + 5]
    hists = build_score_histograms(pos, neg, counts)
    assert len(hists) == len(counts)
    for count, got in zip(counts, hists):
        want = build_score_histogram(pos, neg, count)
        for field in HISTOGRAM_FIELDS:
            assert same_bits(getattr(got, field), getattr(want, field)), field


def test_one_bisection_cuts_each_count_of_a_noisy_deep_tree():
    # Under dist_dp at h = 16 the combined prefixes are far from
    # monotone, so each quantile target's crossing depends on its own
    # path down the tree. Walking every count's targets together must
    # still give each count the cuts it gets alone, and the cuts of the
    # scalar reference.
    spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=1.0, height=16)
    scores, positive = sample_population(20_000, ScoreDistribution(), 0.4, 21)
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, spec, 22)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, 23)
    combined = dense_prefixes(pos) + dense_prefixes(neg)
    assert (np.diff(combined) < 0).any()
    counts = [3, 17, 100, 271, 17, 1, spec.num_leaves + 1]
    hists = build_score_histograms(pos, neg, counts)
    assert len(hists) == len(counts)
    for count, got in zip(counts, hists):
        want = build_score_histogram(pos, neg, count)
        for field in HISTOGRAM_FIELDS:
            assert same_bits(getattr(got, field), getattr(want, field)), (count, field)
        if count <= spec.num_leaves:
            total = pos.population_total + neg.population_total
            reference = reference_boundaries(combined, spec, count, total)
            assert same_bits(got.boundary_leaves, reference), count


@pytest.mark.parametrize("fanout", range(2, 9))
def test_width_cap_is_one_level_above_ceil_log_of_the_bucket_count(fanout):
    # With no quantile cuts, _cut_leaves leaves only the width cap: every
    # bucket is f**(h - t) leaves wide, t = max(0, ceil(log_f B) - 1).
    height = 1
    while fanout**height <= 4096:
        spec = PrivacySpec(regime=Regime.SECURE_AGG, height=height, fanout=fanout)
        n = spec.num_leaves
        for num_buckets in range(1, n + 1):
            ceil_log = 0
            while fanout**ceil_log < num_buckets:
                ceil_log += 1
            stride = n // fanout ** max(0, ceil_log - 1)
            got = hierarchy._cut_leaves(spec, num_buckets, np.empty(0, np.int64))
            assert got.tolist() == list(range(0, n + 1, stride)), (height, num_buckets)
        height += 1


@given(
    epsilon=st.floats(min_value=1e-300, max_value=1e300),
    regime=st.sampled_from([Regime.DIST_DP, Regime.LOCAL_DP]),
    height=st.integers(1, 6),
    fanout=st.sampled_from([2, 3, 4]),
    num_examples=st.integers(0, 30),
    balance=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_every_accepted_epsilon_runs(
    epsilon, regime, height, fanout, num_examples, balance, seed, data
):
    try:
        spec = PrivacySpec(
            regime=regime, epsilon=epsilon, height=height, fanout=fanout
        )
    except ValueError as exc:
        assert f"epsilon {epsilon!r} " in str(exc)
        return
    scores, positive = sample_population(
        num_examples, ScoreDistribution(), balance, seed
    )
    clients = split_population(scores, positive, "one_per_client")
    try:
        pos = build_hierarchy(clients, Label.POSITIVE, spec, seed + 1)
        neg = build_hierarchy(clients, Label.NEGATIVE, spec, seed + 2)
    except InsufficientPopulationError:
        assert regime is Regime.LOCAL_DP and 0 < num_examples < height
        return
    for counts in (pos, neg):
        assert all(np.all(np.isfinite(level)) for level in level_views(counts))
        assert all(math.isfinite(v) and v >= 0.0 for v in counts.level_variances)
    # From one bucket to more buckets than leaves.
    num_buckets = data.draw(st.integers(1, fanout**height + 2), label="buckets")
    hist = build_score_histogram(pos, neg, num_buckets)
    assert np.all(np.isfinite(hist.pos_values))
    assert np.all(np.isfinite(hist.neg_values))
    assert 1 <= hist.num_buckets <= fanout**height
    cal_map = calibrate_bbq(pos, neg)
    assert abs(float(cal_map.weights.sum()) - 1.0) < 1e-9
    for _, values in cal_map.binnings:
        assert np.all((0.0 <= values) & (values <= 1.0))


# -- quantile cuts by one walk down the tree -------------------------------


def class_trees(regime, fanout, height, num_examples, seed):
    epsilon = {Regime.DIST_DP: 1.0, Regime.LOCAL_DP: 5.0}.get(regime)
    spec = PrivacySpec(regime=regime, epsilon=epsilon, height=height, fanout=fanout)
    scores, positive = sample_population(
        num_examples, ScoreDistribution(), 0.4, seed
    )
    clients = split_population(scores, positive, "one_per_client")
    return (
        build_hierarchy(clients, Label.POSITIVE, spec, seed + 1),
        build_hierarchy(clients, Label.NEGATIVE, spec, seed + 2),
    )


def walked(pos, neg):
    """Clamped targets from below 0 to above the total, and their walked leaves.

    Every target is also walked alone, and must reach the same leaf.
    """
    total = pos.population_total + neg.population_total
    edges = [-2.0, 0.0, total, total + 2.0]
    targets = np.concatenate((edges, np.arange(1, 40) * total / 40))
    together = _quantile_leaves(pos, neg, total, targets)
    alone = [_quantile_leaves(pos, neg, total, np.array([t])) for t in targets]
    assert same_bits(np.concatenate(alone), together)
    combined = dense_prefixes(pos) + dense_prefixes(neg)
    return combined, [clamped(t, total) for t in targets.tolist()], together


@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
def test_walk_keeps_the_bisection_bits_at_fanout_two(regime):
    for height, num_examples in itertools.product((1, 2, 5, 10), (0, 1, 50, 3000)):
        if regime is Regime.LOCAL_DP and 0 < num_examples < height:
            continue
        pos, neg = class_trees(regime, 2, height, num_examples, height + num_examples)
        combined, targets, got = walked(pos, neg)
        want = [bisect_leaf(combined, t) for t in targets]
        assert same_bits(got, np.array(want, dtype=np.int64)), (height, num_examples)


@pytest.mark.parametrize("fanout", [3, 4, 8, 16])
def test_walk_is_the_first_crossing_under_secure_agg(fanout):
    height = 1
    while fanout**height <= 4096:
        for num_examples in (0, 1, 500):
            pos, neg = class_trees(
                Regime.SECURE_AGG, fanout, height, num_examples, 80
            )
            combined, targets, got = walked(pos, neg)
            want = np.array([np.flatnonzero(combined >= t)[0] for t in targets])
            assert same_bits(got, want), (height, num_examples)
        height += 1


@pytest.mark.parametrize("fanout,height", [(3, 6), (4, 5), (8, 3)])
@pytest.mark.parametrize(
    "regime", [Regime.DIST_DP, Regime.LOCAL_DP], ids=lambda regime: regime.value
)
def test_walk_matches_the_literal_walk_on_noisy_trees(regime, fanout, height):
    # Noisy prefixes rise and fall, and at f > 2 the walk's probes are
    # not the bisection's mids: some crossings differ from the
    # bisection's.
    moved = 0
    for num_examples, seed in ((0, 90), (50, 91), (3000, 92), (3000, 93)):
        pos, neg = class_trees(regime, fanout, height, num_examples, seed)
        combined, targets, got = walked(pos, neg)
        want = [walk_leaf(combined, fanout, t) for t in targets]
        assert same_bits(got, np.array(want, dtype=np.int64)), (num_examples, seed)
        moved += sum(w != bisect_leaf(combined, t) for w, t in zip(want, targets))
    assert moved > 0


@pytest.mark.parametrize("dtype", [np.int32, np.float32])
def test_prefix_dtype_does_not_depend_on_the_query_count(dtype):
    # A hand-built tree of a narrow dtype reads its prefixes in that
    # dtype, with the same bits one at a time as all together.
    spec = sa_spec(5, 3)
    rng = np.random.default_rng(5)
    nodes = (rng.normal(size=sum(3**k for k in range(1, 6))) * 100).astype(dtype)
    tree = HierarchicalCounts(spec=spec, nodes=nodes, level_variances=(0.0,) * 5)
    leaves = np.arange(spec.num_leaves + 1)
    together = prefixes(tree, leaves)
    assert same_bits(together, dense_prefixes(tree))
    for r in leaves.tolist():
        assert same_bits(prefixes(tree, [r]), together[[r]]), r


# -- one level-order array per tree, read node by node ---------------------

TREE_FIELDS = {"spec", "nodes", "level_variances"}


@pytest.mark.parametrize("fanout,height", [(2, 10), (3, 6), (4, 5)])
@pytest.mark.parametrize(
    "regime", [Regime.SECURE_AGG, Regime.DIST_DP], ids=lambda regime: regime.value
)
def test_histograms_match_the_running_sum_reader_bitwise(regime, fanout, height):
    # Integer trees: node sums in any order are the running-sum
    # differences, so every field keeps its bits, dtypes included.
    epsilon = None if regime is Regime.SECURE_AGG else 1.0
    spec = PrivacySpec(regime=regime, epsilon=epsilon, height=height, fanout=fanout)
    n = spec.num_leaves
    counts = [1, 2, 7, 100, n, n + 3]
    for num_examples, seed in ((0, 50), (1, 51), (3000, 52)):
        scores, positive = sample_population(
            num_examples, ScoreDistribution(), 0.4, seed
        )
        clients = split_population(scores, positive, "one_per_client")
        pos = build_hierarchy(clients, Label.POSITIVE, spec, seed + 1)
        neg = build_hierarchy(clients, Label.NEGATIVE, spec, seed + 2)
        got = build_score_histograms(pos, neg, counts)
        want = running_sums_reader.build_score_histograms(pos, neg, counts)
        for count, got_hist, want_hist in zip(counts, got, want):
            for field in HISTOGRAM_FIELDS:
                assert same_bits(
                    getattr(got_hist, field), getattr(want_hist, field)
                ), (num_examples, count, field)


@pytest.mark.parametrize("fanout,height", [(2, 8), (2, 10), (3, 5), (5, 3)])
def test_float_prefixes_are_level_order_node_sums(fanout, height):
    # Every prefix of a local-DP tree has the bits of its nodes added in
    # level order, and lies within the rounding bound of their exact sum.
    # Read alone, one prefix or one walk target has more than 8 nodes
    # at every size but (2, 8), and numpy's sum over them would pair
    # them.
    spec = ldp_spec(height, 2.0, fanout)
    scores, positive = sample_population(3000, ScoreDistribution(), 0.4, 60)
    clients = split_population(scores, positive, "one_per_client")
    tree = build_hierarchy(clients, Label.POSITIVE, spec, 61)
    values = dense_prefixes(tree)
    leaves = np.arange(spec.num_leaves + 1)
    assert same_bits(prefixes(tree, leaves), values)
    assert same_bits(prefixes(tree, leaves[::-1]), values[::-1])
    for r in leaves.tolist():
        assert same_bits(prefixes(tree, [r]), values[[r]]), r
        read = [
            float(level_views(tree)[k - 1][node])
            for k in range(1, height + 1)
            for node in sorted(prefix_run(r, k, height, fanout))
        ]
        exact = math.fsum(read)
        bound = len(read) * 2.0**-53 * math.fsum(abs(x) for x in read)
        assert abs(values[r] - exact) <= bound, r
    # One walk target. The local-DP tree's prefixes rise and fall, so a
    # walk rarely meets the prefix equal to its target; on a tree summed
    # up from its leaves made positive they rise, and the walk for the
    # prefix at r compares it with the read at r, which is the first
    # crossing.
    levels = [np.abs(level_views(tree)[-1]) + 0.1]
    for _ in range(height - 1):
        levels.append(levels[-1].reshape(-1, fanout).sum(axis=1))
    rising = HierarchicalCounts(
        spec=spec,
        nodes=np.concatenate(levels[::-1]),
        level_variances=tree.level_variances,
    )
    rising_values = dense_prefixes(rising)
    assert np.all(np.diff(rising_values) > 0)
    total = rising.population_total
    for r, target in enumerate(rising_values.tolist()):
        got = _quantile_leaves(rising, zero_tree(rising), total, np.array([target]))
        want = bisect_leaf(rising_values, clamped(target, total))
        assert same_bits(got, np.array([want], dtype=np.int64)), r


@pytest.mark.parametrize("fanout,height", [(2, 4), (3, 3), (7, 2), (5, 1)])
def test_only_the_full_prefix_reads_all_top_nodes(fanout, height):
    # Top nodes 1, 10, 100, ... and zeros below: a prefix's count names
    # the top nodes it read.
    spec = sa_spec(height, fanout)
    nodes = np.zeros(sum(fanout**k for k in range(1, height + 1)), dtype=np.int64)
    nodes[:fanout] = 10 ** np.arange(fanout)
    tree = HierarchicalCounts(spec=spec, nodes=nodes, level_variances=(0.0,) * height)
    n = spec.num_leaves
    top = n // fanout
    got = prefixes(tree, np.arange(n + 1))
    assert got[n] == int("1" * fanout)
    assert got.tolist() == [int("0" + "1" * (r // top)) for r in range(n + 1)]


def built_trees():
    """(label, tree) of every builder, the zero-client local_dp tree included."""
    scores, positive = sample_population(500, ScoreDistribution(), 0.4, 70)
    clients = split_population(scores, positive, "one_per_client")
    for spec in (sa_spec(5, 3), dp_spec(5, 1.0, 3), ldp_spec(5, 5.0, 3)):
        for label in Label:
            yield spec.regime.value, build_hierarchy(clients, label, spec, 71)
    yield "local_dp, no clients", build_hierarchy(
        clients_of([]), Label.POSITIVE, ldp_spec(4, 5.0), 72
    )


def test_values_are_views_of_the_one_level_order_array():
    for name, tree in built_trees():
        f, h = tree.spec.fanout, tree.spec.height
        assert set(vars(tree)) == TREE_FIELDS, name
        assert tree.nodes.ndim == 1 and tree.nodes.flags.owndata, name
        assert tree.nodes.dtype == (np.float64 if "local" in name else np.int64)
        start = 0
        for k, level in enumerate(level_views(tree), start=1):
            assert level.base is tree.nodes, (name, k)
            assert np.shares_memory(level, tree.nodes[start : start + f**k])
            assert level.__array_interface__["data"][0] == (
                tree.nodes.__array_interface__["data"][0] + start * tree.nodes.itemsize
            )
            start += f**k
        assert start == tree.nodes.size


@pytest.mark.parametrize(
    "spec",
    [sa_spec(20), dp_spec(20, 1.0), ldp_spec(20, 5.0)],
    ids=lambda spec: spec.regime.value,
)
def test_queries_allocate_under_a_quarter_of_a_tree(spec):
    # Histograms and BBQ read the prefixes they need from the trees'
    # nodes: nothing of the trees' size is formed, and the trees gain no
    # attribute.
    assert not hasattr(hierarchy, "_running_sums")
    scores, positive = sample_population(3000, ScoreDistribution(), 0.5, 5)
    clients = split_population(scores, positive, "one_per_client")
    pos = build_hierarchy(clients, Label.POSITIVE, spec, 6)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, 7)
    tracemalloc.start()
    try:
        hists = build_score_histograms(pos, neg, [20, 100])
        cal_map = calibrate_bbq(pos, neg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(hist.num_buckets > 1 for hist in hists) and len(cal_map.binnings) > 1
    assert peak < pos.nodes.nbytes / 4
    for tree in (pos, neg):
        assert set(vars(tree)) == TREE_FIELDS


# -- plain counts and local-DP temporaries ---------------------------------


@pytest.mark.parametrize("fanout,height", [(2, 10), (3, 6), (8, 4), (16, 3), (64, 2)])
@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
def test_class_totals_are_the_histograms_totals_bitwise(regime, fanout, height):
    # A class total is one number: the quantile targets, BBQ's grid and
    # every histogram read the full prefix, its top nodes added in level
    # order. numpy's pairwise sum of f >= 8 float nodes differs from it
    # in the last bits.
    epsilon = None if regime is Regime.SECURE_AGG else 5.0
    spec = PrivacySpec(regime=regime, epsilon=epsilon, height=height, fanout=fanout)
    for seed in range(5):
        scores, positive = sample_population(3000, ScoreDistribution(), 0.4, seed)
        clients = split_population(scores, positive, "one_per_client")
        pos = build_hierarchy(clients, Label.POSITIVE, spec, 10 + seed)
        neg = build_hierarchy(clients, Label.NEGATIVE, spec, 20 + seed)
        for hist in build_score_histograms(pos, neg, [1, 7, 100]):
            assert same_bits(hist.pos_total, pos.population_total)
            assert same_bits(hist.neg_total, neg.population_total)


@pytest.mark.parametrize("fanout", [2, 3])
@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
def test_counts_are_plain_numbers(regime, fanout):
    # A tree's total is read from its top level and stored nowhere, and
    # every counter a metric raises with is a float that JSON writes as
    # a number.
    epsilon = None if regime is Regime.SECURE_AGG else 5.0
    spec = PrivacySpec(regime=regime, epsilon=epsilon, height=4, fanout=fanout)

    def trees(num_examples, seed):
        scores, positive = sample_population(
            num_examples, ScoreDistribution(), 0.4, seed
        )
        clients = split_population(scores, positive, "one_per_client")
        return (
            build_hierarchy(clients, Label.POSITIVE, spec, seed + 1),
            build_hierarchy(clients, Label.NEGATIVE, spec, seed + 2),
        )

    pos, neg = trees(500, 31)
    for tree in (pos, neg):
        assert same_bits(tree.population_total, float(level_views(tree)[0].sum()))
        assert set(vars(tree)) == TREE_FIELDS
    with pytest.raises(TypeError):
        HierarchicalCounts(
            spec=spec,
            nodes=pos.nodes,
            level_variances=pos.level_variances,
            population_total=pos.population_total,
        )

    empty = build_score_histogram(*trees(0, 41), 10)
    for estimate in (auc_histogram, lambda hist: pra_threshold(hist, 0.5)):
        with pytest.raises(DegenerateEstimateError) as info:
            estimate(empty)
        named = info.value.counters
        assert all(type(value) is float for value in named.values())
        assert json.loads(json.dumps(named)) == named


def test_local_dp_tree_temporaries_stay_small():
    # About 27 bytes per client: the class's rows are gathered by index
    # and their leaf column is floored and clipped in place.
    scores, positive = sample_population(100_000, ScoreDistribution(), 0.5, 8)
    clients = split_population(scores, positive, "one_per_client")
    spec = ldp_spec(10, 5.0)
    tracemalloc.start()
    try:
        build_hierarchy(clients, Label.NEGATIVE, spec, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_local_dp_trees_with_empty_clients_are_byte_stable():
    # Every third client is empty. The digest was recorded with the code
    # that gathered each occupied client's row before taking its leaf.
    rng = np.random.default_rng(10)
    scores, positive = rng.random(40), rng.random(40) < 0.4
    offsets = np.concatenate(([0], np.cumsum(np.arange(60) % 3 != 1)))
    clients = ClientSplit(scores, positive, offsets)
    digest = hashlib.sha256()
    for label in Label:
        tree = build_hierarchy(clients, label, ldp_spec(4, 4.0), 11)
        for level in level_views(tree):
            digest.update(level.tobytes())
        digest.update(np.array(tree.level_variances).tobytes())
    assert digest.hexdigest() == (
        "e0fe4dc4106b3527d83f6002b895721d443cfe922c1dae8605c3d8b215814ca4"
    )


def test_local_dp_rejects_multi_example_shards_before_counting_clients():
    # Two clients, one holding two examples: fewer clients than levels,
    # yet the shard check fires first.
    clients = clients_of(FOUR[:3], offsets=[0, 2, 3])
    with pytest.raises(ValueError, match="at most one example per client shard"):
        build_hierarchy(clients, Label.POSITIVE, ldp_spec(4, 5.0), 0)
