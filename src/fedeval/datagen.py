"""Synthetic score generation and client sharding.

Scores are drawn from a mixture of point masses (spikes) and a linear
density 1 + a(x - 1/2) on [0, 1], per class. With opposite class slopes
and a balanced mixture the combined score density is uniform, which
keeps equi-depth bucket widths flat and makes closed-form AUC values
easy to derive for tests.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    ClientSplit,
    Label,
    LabeledScore,
    ScoreDistribution,
    as_examples,
    as_generator,
)

__all__ = [
    "sample_population",
    "gen_well_behaved",
    "split_population",
    "split_to_clients",
]


def _linear_inverse_cdf(slope: float, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of density 1 + slope*(x - 1/2) on [0, 1]."""
    if slope == 0.0:
        return u
    shift = 1.0 - slope / 2.0
    x = (-shift + np.sqrt(shift * shift + 2.0 * slope * u)) / slope
    return np.clip(x, 0.0, 1.0)


def _class_scores(
    dist: ScoreDistribution, label: Label, count: int, rng: np.random.Generator
) -> np.ndarray:
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
    smooth = np.flatnonzero(which == masses.size)
    spiked = np.flatnonzero(which != masses.size)
    out[spiked] = locations[which[spiked]]
    if total_spike < 1.0:
        v = (u[smooth] - total_spike) / (1.0 - total_spike)
        out[smooth] = _linear_inverse_cdf(dist.class_slope(label), v)
    return out


def sample_population(
    num_examples: int,
    dist: ScoreDistribution,
    class_balance: float = 0.5,
    seed=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (scores, positive) columns from a spike-plus-linear mixture.

    Each example's class is positive with probability class_balance;
    its score then comes from the class's spike locations with their
    stated masses, otherwise from the class's linear density.
    """
    if num_examples < 0:
        raise ValueError(f"num_examples must be nonnegative, got {num_examples}")
    if not 0.0 <= class_balance <= 1.0:
        raise ValueError(f"class_balance must be in [0, 1], got {class_balance}")
    rng = as_generator(seed)
    positive = rng.random(num_examples) < class_balance
    scores = np.empty(num_examples, dtype=np.float64)
    pos_count = int(positive.sum())
    scores[np.flatnonzero(positive)] = _class_scores(
        dist, Label.POSITIVE, pos_count, rng
    )
    scores[np.flatnonzero(~positive)] = _class_scores(
        dist, Label.NEGATIVE, num_examples - pos_count, rng
    )
    return scores, positive


def gen_well_behaved(
    num_examples: int,
    dist: ScoreDistribution,
    class_balance: float = 0.5,
    seed=None,
) -> list[LabeledScore]:
    """sample_population as a list of labeled scores."""
    return as_examples(*sample_population(num_examples, dist, class_balance, seed))


def _parse_policy(policy: str) -> tuple[str, float]:
    if policy == "one_per_client":
        return policy, 0.0
    name, _, arg = policy.partition(":")
    if name in ("skewed", "variable"):
        try:
            value = float(arg)
        except ValueError:
            raise ValueError(f"policy {policy!r} needs a numeric parameter") from None
        return name, value
    raise ValueError(f"unknown split policy {policy!r}")


def _skewed_order(positive: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Concentrate a rho fraction of positives onto the first shards.

    Deterministic: with n examples there are n shards; ceil(rho * P)
    positives go round-robin onto the first ceil(rho * n) shards and
    everything else round-robin onto the rest. Returns the row order
    (positives, then negatives, each in input order, stably grouped by
    shard) and the shard offsets.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"skew fraction must be in (0, 1], got {rho}")
    num_shards = positive.size
    rows = np.concatenate((np.flatnonzero(positive), np.flatnonzero(~positive)))
    num_pos = int(np.count_nonzero(positive))
    hot = min(num_shards, math.ceil(rho * num_shards))
    hot_pos = min(num_pos, math.ceil(rho * num_pos))
    cold = num_shards - hot
    shard = np.empty(num_shards, dtype=np.int64)
    shard[:hot_pos] = np.arange(hot_pos) % hot
    rest = np.arange(num_shards - hot_pos)
    shard[hot_pos:] = hot + rest % cold if cold > 0 else rest % num_shards
    order = rows[np.argsort(shard, kind="stable")]
    sizes = np.bincount(shard, minlength=num_shards)
    return order, np.concatenate(([0], np.cumsum(sizes)))


def _variable_offsets(
    num_examples: int, mean_size: float, rng: np.random.Generator
) -> np.ndarray:
    """Offsets of consecutive shards with geometric sizes of the given mean."""
    if not 1.0 <= mean_size < math.inf:
        raise ValueError(
            f"mean shard size must be a finite number of at least 1, got {mean_size}"
        )
    # Every shard holds at least one row, so num_examples draws always
    # suffice; capping them at num_examples keeps the running ends from
    # overflowing. The draws are sequential, so doubling chunks drawn
    # until the ends reach num_examples are the first draws of one call
    # for num_examples sizes. The last shard takes what is left.
    chunks = [np.empty(0, dtype=np.int64)]
    drawn, reached, chunk = 0, 0, int(num_examples / mean_size) + 1
    while reached < num_examples:
        chunk = min(chunk, num_examples - drawn)
        sizes = np.minimum(rng.geometric(1.0 / mean_size, size=chunk), num_examples)
        chunks.append(sizes)
        drawn += chunk
        reached += int(sizes.sum())
        chunk *= 2
    ends = np.cumsum(np.concatenate(chunks), dtype=np.int64)
    last = int(np.searchsorted(ends, num_examples))
    return np.concatenate(([0], np.minimum(ends[: last + 1], num_examples)))


def split_population(
    scores: np.ndarray, positive: np.ndarray, policy: str, seed=None
) -> ClientSplit:
    """Partition (scores, positive) columns into client shards.

    Policies: "one_per_client"; "skewed:<rho>" concentrating positives
    onto a rho fraction of shards; "variable:<mean>" with geometric
    shard sizes. The union of shards is always exactly the input.
    """
    name, value = _parse_policy(policy)
    if name == "skewed":
        order, offsets = _skewed_order(positive, value)
        return ClientSplit(scores[order], positive[order], offsets)
    if name == "variable":
        offsets = _variable_offsets(scores.size, value, as_generator(seed))
    else:
        offsets = np.arange(scores.size + 1)
    return ClientSplit(scores, positive, offsets)


def split_to_clients(
    examples: Sequence[LabeledScore], policy: str, seed=None
) -> list[list[LabeledScore]]:
    """The one_per_client split of a list of labeled scores.

    One single-example list per client, in input order. Other policies
    split columns only, through split_population; seed is unused.
    """
    if policy != "one_per_client":
        raise ValueError(
            f"split_to_clients runs only the one_per_client split; "
            f"split {policy!r} with split_population"
        )
    return [[example] for example in examples]
