"""Synthetic data generation and client splitting."""

import itertools
import math

import numpy as np
import pytest

from fedeval import ScoreDistribution, Spike
from fedeval.datagen import _variable_offsets, sample_population, split_population
from fedeval.oracle import _auc_from_arrays, _class_sorted


def test_sizes_and_extreme_balance():
    scores, positive = sample_population(0, ScoreDistribution(), seed=0)
    assert scores.size == positive.size == 0
    neg_scores, all_neg = sample_population(
        50, ScoreDistribution(), class_balance=0.0, seed=1
    )
    assert not all_neg.any()
    pos_scores, all_pos = sample_population(
        50, ScoreDistribution(), class_balance=1.0, seed=2
    )
    assert all_pos.all()
    for scores in (pos_scores, neg_scores):
        assert np.all((0.0 <= scores) & (scores <= 1.0))


def test_input_validation():
    with pytest.raises(ValueError):
        sample_population(-1, ScoreDistribution(), seed=0)
    with pytest.raises(ValueError):
        sample_population(10, ScoreDistribution(), class_balance=1.5, seed=0)


def same_columns(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_seed_determinism():
    a = sample_population(200, ScoreDistribution(), seed=7)
    b = sample_population(200, ScoreDistribution(), seed=7)
    assert same_columns(a, b)
    c = sample_population(200, ScoreDistribution(), seed=8)
    assert not same_columns(a, c)


def test_spike_masses_are_respected():
    dist = ScoreDistribution(
        spikes=(Spike(0.25, 0.4, 0.0), Spike(0.75, 0.0, 0.5))
    )
    scores, positive = sample_population(20_000, dist, seed=11)
    pos = scores[positive]
    neg = scores[~positive]
    at_quarter = np.count_nonzero(pos == 0.25) / pos.size
    se = math.sqrt(0.4 * 0.6 / pos.size)
    assert abs(at_quarter - 0.4) < 3.0 * se
    at_three_quarters = np.count_nonzero(neg == 0.75) / neg.size
    se = math.sqrt(0.5 * 0.5 / neg.size)
    assert abs(at_three_quarters - 0.5) < 3.0 * se
    # Smooth draws never land exactly on the other class's spike.
    assert np.count_nonzero(pos == 0.75) == 0
    assert np.count_nonzero(neg == 0.25) == 0


def test_linear_density_cdf():
    # Slope 2 integrates to F(x) = x**2; slope -2 to F(x) = 2x - x**2.
    scores, _ = sample_population(
        20_000,
        ScoreDistribution(positive_slope=2.0),
        class_balance=1.0,
        seed=21,
    )
    for x in (0.3, 0.7):
        expected = x * x
        se = math.sqrt(expected * (1 - expected) / scores.size)
        assert abs((scores <= x).mean() - expected) < 3.5 * se

    scores, _ = sample_population(
        20_000,
        ScoreDistribution(negative_slope=-2.0),
        class_balance=0.0,
        seed=22,
    )
    expected = 2 * 0.5 - 0.25
    se = math.sqrt(expected * (1 - expected) / scores.size)
    assert abs((scores <= 0.5).mean() - expected) < 3.5 * se


def test_zero_slope_is_uniform():
    scores, _ = sample_population(
        20_000, ScoreDistribution(lipschitz=0.0), class_balance=1.0, seed=23
    )
    for x in (0.25, 0.5, 0.75):
        se = math.sqrt(x * (1 - x) / scores.size)
        assert abs((scores <= x).mean() - x) < 3.5 * se


def test_default_distribution_auc():
    # Opposing slopes of 2 give a population AUC of 5/6; slopes of 1
    # give 2/3.
    _, half = _auc_from_arrays(
        *_class_sorted(*sample_population(40_000, ScoreDistribution(), seed=24))
    )
    assert abs(half - 5.0 / 6.0) < 0.01
    _, half = _auc_from_arrays(
        *_class_sorted(
            *sample_population(40_000, ScoreDistribution(lipschitz=1.0), seed=25)
        )
    )
    assert abs(half - 2.0 / 3.0) < 0.01


def rows(scores, positive):
    """The (score, positive) rows of columns, in order."""
    return list(zip(scores.tolist(), positive.tolist()))


def same_split(a, b):
    return same_columns(
        (a.scores, a.positive, a.offsets), (b.scores, b.positive, b.offsets)
    )


def test_one_per_client_split():
    scores, positive = sample_population(40, ScoreDistribution(), seed=31)
    clients = split_population(scores, positive, "one_per_client")
    assert clients.num_clients == 40
    assert np.all(clients.sizes() == 1)
    assert rows(clients.scores, clients.positive) == rows(scores, positive)


def test_skewed_split_concentrates_positives():
    scores, positive = sample_population(100, ScoreDistribution(), seed=32)
    num_pos = int(np.count_nonzero(positive))
    clients = split_population(scores, positive, "skewed:0.2")
    assert clients.num_clients == 100
    flattened = rows(clients.scores, clients.positive)
    assert sorted(flattened) == sorted(rows(scores, positive))
    hot_end = clients.offsets[20]
    hot_pos = int(np.count_nonzero(clients.positive[:hot_end]))
    assert hot_pos == math.ceil(0.2 * num_pos)
    # The same policy is deterministic without a seed.
    again = split_population(scores, positive, "skewed:0.2")
    assert same_split(again, clients)


def test_variable_split_preserves_data():
    scores, positive = sample_population(300, ScoreDistribution(), seed=33)
    clients = split_population(scores, positive, "variable:4", seed=5)
    flattened = rows(clients.scores, clients.positive)
    assert sorted(flattened) == sorted(rows(scores, positive))
    assert np.all(clients.sizes() >= 1)
    assert clients.num_clients < 300
    again = split_population(scores, positive, "variable:4", seed=5)
    assert same_split(again, clients)
    other = split_population(scores, positive, "variable:4", seed=6)
    assert not same_split(other, clients)


def loop_variable_offsets(num_examples, mean_size, rng):
    # The one-draw-per-shard loop that the batched draw replaced, kept
    # literally.
    sizes = []
    start = 0
    while start < num_examples:
        size = int(rng.geometric(1.0 / mean_size))
        size = min(size, num_examples - start)
        sizes.append(size)
        start += size
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def test_variable_offsets_match_the_loop_bitwise():
    # One batched geometric draw gives the loop's shards; a mean of
    # 1e300 draws sizes near the int64 limit, whose sum must not wrap.
    for num_examples, mean_size, seed in itertools.product(
        (0, 1, 2, 3, 7, 100, 1000, 50000), (1, 1.5, 4, 16, 1e6, 1e300), range(5)
    ):
        expected = loop_variable_offsets(
            num_examples, mean_size, np.random.default_rng(seed)
        )
        got = _variable_offsets(num_examples, mean_size, np.random.default_rng(seed))
        case = (num_examples, mean_size, seed)
        assert got.dtype == expected.dtype, case
        assert got.tobytes() == expected.tobytes(), case


def one_shot_variable_offsets(num_examples, mean_size, rng):
    # The single draw of num_examples sizes that the doubling chunks
    # replaced, kept literally.
    sizes = np.minimum(rng.geometric(1.0 / mean_size, size=num_examples), num_examples)
    ends = np.cumsum(sizes, dtype=np.int64)
    last = int(np.searchsorted(ends, num_examples))
    return np.concatenate(([0], np.minimum(ends[: last + 1], num_examples)))


def test_variable_offsets_match_the_one_shot_draw_bitwise():
    # Doubling chunks are the first draws of the one-shot call, so every
    # shard is the same; a chunk that stops short of M is followed by
    # one twice its size.
    for num_examples, mean_size, seed in itertools.product(
        (0, 1, 50, 50_000), (1, 1.5, 2, 16, 100, 1e6, 1e300), range(6)
    ):
        expected = one_shot_variable_offsets(
            num_examples, mean_size, np.random.default_rng(seed)
        )
        got = _variable_offsets(num_examples, mean_size, np.random.default_rng(seed))
        case = (num_examples, mean_size, seed)
        assert got.dtype == expected.dtype, case
        assert got.tobytes() == expected.tobytes(), case


def test_split_policy_validation():
    scores, positive = sample_population(10, ScoreDistribution(), seed=34)
    for policy in ("banana", "skewed:0", "skewed:abc", "variable:0.5"):
        with pytest.raises(ValueError):
            split_population(scores, positive, policy)
    empty = np.empty(0), np.empty(0, dtype=bool)
    for policy in ("banana", "skewed:0", "skewed:abc", "variable:0.5"):
        with pytest.raises(ValueError):
            split_population(*empty, policy)
    for policy in ("one_per_client", "skewed:0.5", "variable:3"):
        clients = split_population(*empty, policy, seed=1)
        assert clients.num_clients == 0
        assert clients.offsets.tolist() == [0]
        assert clients.offsets.dtype == np.int64
        assert clients.scores.dtype == np.float64 and clients.scores.size == 0
        assert clients.positive.dtype == bool and clients.positive.size == 0


def test_splits_feed_arrays_consistently():
    scores, positive = sample_population(64, ScoreDistribution(), seed=35)
    assert scores.size == 64
    assert scores.dtype == np.float64 and positive.dtype == bool
    for policy in ("one_per_client", "skewed:0.3", "variable:4"):
        clients = split_population(scores, positive, policy, seed=1)
        assert clients.offsets[-1] == 64
        assert clients.positive.sum() == positive.sum()
