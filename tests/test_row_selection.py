"""Rows selected by index give the bits the boolean-mask forms gave.

Sampling, the exact oracle's class split and the hierarchy builders
gather and scatter one class's rows through np.flatnonzero. The
references below are the boolean-mask code they replaced, kept
literally; every output must match them bitwise, dtype included, at
the same seeds.
"""

import math

import numpy as np
import pytest

from fedeval import ClientSplit, Label, PrivacySpec, Regime, ScoreDistribution, Spike
from fedeval.core import as_generator, leaf_indices, oue_flip_probability
from fedeval.datagen import _linear_inverse_cdf, sample_population
from fedeval.hierarchy import _exact_levels, _level_views, build_hierarchy
from fedeval.mechanisms import aggregated_noise, discrete_laplace_variance
from fedeval.oracle import _class_sorted


def mask_class_scores(dist, label, count, rng):
    u = rng.random(count)
    if not dist.spikes:
        return _linear_inverse_cdf(dist.class_slope(label), u)
    masses = np.array(
        [
            spike.positive_mass if label is Label.POSITIVE else spike.negative_mass
            for spike in dist.spikes
        ],
        dtype=np.float64,
    )
    locations = np.array([spike.location for spike in dist.spikes])
    total_spike = float(masses.sum())
    out = np.empty(count, dtype=np.float64)
    cum = np.cumsum(masses)
    which = np.searchsorted(cum, u, side="right")
    smooth = which == masses.size
    spiked = ~smooth
    out[spiked] = locations[which[spiked]]
    if total_spike < 1.0:
        v = (u[smooth] - total_spike) / (1.0 - total_spike)
        out[smooth] = _linear_inverse_cdf(dist.class_slope(label), v)
    return out


def mask_sample_population(num_examples, dist, class_balance, seed):
    rng = as_generator(seed)
    positive = rng.random(num_examples) < class_balance
    scores = np.empty(num_examples, dtype=np.float64)
    pos_count = int(positive.sum())
    scores[positive] = mask_class_scores(dist, Label.POSITIVE, pos_count, rng)
    scores[~positive] = mask_class_scores(
        dist, Label.NEGATIVE, num_examples - pos_count, rng
    )
    return scores, positive


def mask_class_sorted(scores, positives):
    return np.sort(scores[positives]), np.sort(scores[~positives])


def mask_local_dp(clients, class_rows, spec, rng):
    num_clients = clients.num_clients
    occupied = clients.sizes() == 1
    leaf_of_client = np.zeros(num_clients, dtype=np.int64)
    matches = np.zeros(num_clients, dtype=bool)
    leaf_of_client[occupied] = leaf_indices(clients.scores, spec.height, spec.fanout)
    matches[occupied] = class_rows
    order = rng.permutation(num_clients)
    p, q = 0.5, oue_flip_probability(spec.epsilon)
    levels, variances = [], []
    for k in range(1, spec.height + 1):
        members = order[k - 1 :: spec.height]
        group_size = len(members)
        width = spec.fanout**k
        member_leaves = leaf_of_client[members]
        nodes = member_leaves[matches[members]] // (spec.num_leaves // width)
        true_counts = np.bincount(nodes, minlength=width)
        kept = rng.binomial(true_counts, p)
        flipped = rng.binomial(group_size - true_counts, q)
        scale = num_clients / group_size
        levels.append(((kept + flipped) - group_size * q) / (p - q) * scale)
        variances.append(scale**2 * group_size * q * (1.0 - q) / (p - q) ** 2)
    return levels, variances


def mask_build_hierarchy(clients, label, spec, seed):
    """(levels, variances) of build_hierarchy as the mask code formed them.

    Local DP is covered for at least h clients, the case that reaches
    the mechanism.
    """
    rng = as_generator(seed)
    class_rows = clients.positive if label is Label.POSITIVE else ~clients.positive
    if spec.regime is Regime.LOCAL_DP:
        return mask_local_dp(clients, class_rows, spec, rng)
    levels = list(_level_views(_exact_levels(clients.scores[class_rows], spec), spec))
    variances = [0.0] * spec.height
    if spec.regime is Regime.DIST_DP and clients.num_clients > 0:
        alpha = math.exp(-spec.epsilon / spec.height)
        for k in range(1, spec.height + 1):
            noise = aggregated_noise(alpha, rng, size=spec.fanout**k)
            levels[k - 1] = levels[k - 1] + noise
        variances = [discrete_laplace_variance(alpha)] * spec.height
    return levels, variances


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# No spikes; spikes of total mass 0; partial mass; mass exactly 1 per class.
DISTRIBUTIONS = {
    "smooth": ScoreDistribution(),
    "mass_0": ScoreDistribution(spikes=(Spike(0.3, 0.0, 0.0),)),
    "partial": ScoreDistribution(
        spikes=(Spike(0.25, 0.4, 0.1), Spike(1.0, 0.1, 0.5))
    ),
    "mass_1": ScoreDistribution(
        spikes=(Spike(0.0, 0.5, 0.25), Spike(0.5, 0.25, 0.25), Spike(1.0, 0.25, 0.5))
    ),
}


@pytest.mark.parametrize("dist", DISTRIBUTIONS.values(), ids=DISTRIBUTIONS.keys())
@pytest.mark.parametrize("class_balance", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("num_examples", [0, 1, 7, 500])
def test_sample_population_matches_mask_reference(num_examples, class_balance, dist):
    for seed in range(4):
        scores, positive = sample_population(num_examples, dist, class_balance, seed)
        ref_scores, ref_positive = mask_sample_population(
            num_examples, dist, class_balance, seed
        )
        assert same_bits(scores, ref_scores)
        assert same_bits(positive, ref_positive)


@pytest.mark.parametrize("class_balance", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("num_examples", [0, 1, 7, 500])
def test_class_sorted_matches_mask_reference(num_examples, class_balance):
    # Balance 0 and 1 leave one class empty.
    scores, positive = sample_population(
        num_examples, DISTRIBUTIONS["partial"], class_balance, num_examples
    )
    pos, neg = _class_sorted(scores, positive)
    ref_pos, ref_neg = mask_class_sorted(scores, positive)
    assert same_bits(pos, ref_pos)
    assert same_bits(neg, ref_neg)


def client_split(scores, positive, sizes):
    """Columns split into clients of the given sizes, in row order."""
    return ClientSplit(scores, positive, np.concatenate(([0], np.cumsum(sizes))))


def assert_matches_reference(clients, spec, seed):
    for label in Label:
        tree = build_hierarchy(clients, label, spec, seed)
        levels, variances = mask_build_hierarchy(clients, label, spec, seed)
        assert len(tree.values) == len(levels)
        for got, want in zip(tree.values, levels):
            assert same_bits(got, want)
        assert tree.level_variances == tuple(variances)


@pytest.mark.parametrize("fanout,height", [(2, 1), (2, 5), (3, 3)])
@pytest.mark.parametrize("regime", [Regime.SECURE_AGG, Regime.DIST_DP])
def test_exact_and_dist_dp_trees_match_mask_reference(regime, fanout, height):
    epsilon = None if regime is Regime.SECURE_AGG else 1.5
    spec = PrivacySpec(regime=regime, epsilon=epsilon, height=height, fanout=fanout)
    rng = np.random.default_rng(height)
    for num_examples in (0, 1, 7, 300):
        for balance in (0.0, 0.5, 1.0):
            scores, positive = sample_population(
                num_examples, DISTRIBUTIONS["mass_1"], balance, num_examples
            )
            # Clients of sizes 0, 1, 2 and 3, so some are empty.
            sizes = []
            while sum(sizes) < num_examples:
                sizes.append(min(int(rng.integers(0, 4)), num_examples - sum(sizes)))
            sizes.append(0)
            assert_matches_reference(
                client_split(scores, positive, sizes), spec, (num_examples, 3)
            )


@pytest.mark.parametrize("fanout,height", [(2, 1), (2, 6), (3, 3), (2, 12), (3, 7)])
@pytest.mark.parametrize("dist", ["smooth", "mass_1"])
def test_local_dp_trees_match_mask_reference(dist, fanout, height):
    # Spikes at 0 and 1 fill the first and last leaf; the clients
    # without an example of the tree's class must never count there.
    # At (2, 12) and (3, 7) at most 400 examples leave most deep nodes
    # empty, so the kept bits drawn at occupied nodes alone are pinned
    # against the reference's draws at every node.
    spec = PrivacySpec(
        regime=Regime.LOCAL_DP, epsilon=3.0, height=height, fanout=fanout
    )
    rng = np.random.default_rng(fanout * height)
    for num_examples in (0, 1, 7, 400):
        for balance in (0.0, 0.5, 1.0):
            scores, positive = sample_population(
                num_examples, DISTRIBUTIONS[dist], balance, num_examples
            )
            for empty_share in (0.0, 0.4):
                # Repeated offsets: empty clients between the singletons.
                num_clients = max(height, round(num_examples / (1 - empty_share)))
                sizes = np.zeros(num_clients, dtype=np.int64)
                sizes[rng.choice(num_clients, num_examples, replace=False)] = 1
                assert_matches_reference(
                    client_split(scores, positive, sizes), spec, (num_examples, 7)
                )
