"""Hierarchical segment counts and quantile-based score histograms.

A hierarchy for one class population stores, for every level k in 1..h,
the counts of examples falling in each of the f**k uniform segments of
[0, 1]. Prefix counts over leaf cells decompose into at most (f-1)
segments per level, so a prefix is read from at most h(f-1) nodes and
only the prefixes a query asks for are read. Quantiles come from a
bisection over prefix counts: the first crossing of the target when
prefixes are monotone (secure aggregation), otherwise the crossing the
bisection converges to. Equi-depth score histograms come from quantile
boundaries plus prefix differences.

Counts are exact under secure aggregation, carry per-node discrete
Laplace noise under distributed DP, and are decoded unbiased frequency
estimates under local DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    ClientSplit,
    InsufficientPopulationError,
    Label,
    LabeledScore,
    PrivacySpec,
    Regime,
    as_generator,
    leaf_indices,
    oue_flip_probability,
)
from .mechanisms import aggregated_noise, discrete_laplace_variance

__all__ = [
    "HierarchicalCounts",
    "ScoreHistogram",
    "build_hierarchy",
    "build_score_histogram",
    "build_score_histograms",
]


@dataclass(frozen=True, eq=False)
class HierarchicalCounts:
    """Per-level segment counts for one population.

    values[k-1] holds the f**k segment counts of level k; entries may be
    negative under noise. level_variances[k-1] is the advertised noise
    variance of a single level-k entry (0 under secure aggregation).
    population_total is the sum of the level-1 counts.
    """

    spec: PrivacySpec
    values: tuple[np.ndarray, ...]
    level_variances: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.spec.height:
            raise ValueError(
                f"expected {self.spec.height} levels, got {len(self.values)}"
            )
        if len(self.level_variances) != self.spec.height:
            raise ValueError("one variance per level is required")
        for k, arr in enumerate(self.values, start=1):
            if arr.shape != (self.spec.fanout**k,):
                raise ValueError(
                    f"level {k} must have {self.spec.fanout**k} entries, "
                    f"got shape {arr.shape}"
                )

    @property
    def num_leaves(self) -> int:
        return self.spec.num_leaves

    @property
    def population_total(self) -> float:
        return float(self.values[0].sum())


@dataclass(frozen=True, eq=False)
class ScoreHistogram:
    """Equi-depth bucket counts over classifier scores.

    Buckets are delimited by leaf-aligned boundaries; bucket i covers the
    leaf range [boundary_leaves[i-1], boundary_leaves[i]) with the last
    bucket also holding score 1.0. Counts may be negative under noise;
    clamping is left to ratio-producing consumers. pos_total and
    neg_total are each class's prefix count over all leaves.
    """

    spec: PrivacySpec
    boundary_leaves: np.ndarray
    pos_values: np.ndarray
    neg_values: np.ndarray
    pos_variances: np.ndarray
    neg_variances: np.ndarray
    pos_total: float
    neg_total: float

    def __post_init__(self) -> None:
        nb = len(self.boundary_leaves) - 1
        if nb < 1:
            raise ValueError("a histogram needs at least one bucket")
        if self.boundary_leaves[0] != 0 or self.boundary_leaves[-1] != self.spec.num_leaves:
            raise ValueError("boundaries must span the full leaf range")
        if np.any(np.diff(self.boundary_leaves) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        for arr in (self.pos_values, self.neg_values, self.pos_variances, self.neg_variances):
            if arr.shape != (nb,):
                raise ValueError("per-bucket arrays must match the bucket count")

    @property
    def num_buckets(self) -> int:
        return len(self.boundary_leaves) - 1

    @cached_property
    def boundaries(self) -> np.ndarray:
        """Bucket boundaries as reals in [0, 1], multiples of f**-h."""
        return self.boundary_leaves / self.spec.num_leaves


def _exact_levels(class_scores: np.ndarray, spec: PrivacySpec) -> list[np.ndarray]:
    """Exact segment counts of every level, from the leaf counts upward."""
    leaves = leaf_indices(class_scores, spec.height, spec.fanout)
    levels = [np.bincount(leaves, minlength=spec.num_leaves)]
    for _ in range(spec.height - 1):
        levels.append(np.einsum("ij->i", levels[-1].reshape(-1, spec.fanout)))
    levels.reverse()
    return levels


def _build_local_dp(
    clients: ClientSplit, class_rows: np.ndarray, spec: PrivacySpec, rng
) -> tuple[list[np.ndarray], list[float]]:
    num_clients = clients.num_clients
    num_leaves = spec.num_leaves
    # Every client holds at most one example, so the occupied clients
    # hold rows 0, 1, ... in client order. A client with no example of
    # this class keeps leaf num_leaves, one past the last; at every
    # level that is the node one past the last, which the counts drop.
    class_clients = np.flatnonzero(clients.sizes() == 1)[class_rows]
    leaf_of_client = np.full(num_clients, num_leaves, dtype=np.int64)
    leaf_of_client[class_clients] = leaf_indices(
        clients.scores[class_rows], spec.height, spec.fanout
    )

    # Group assignment is part of the mechanism randomness so that the
    # rescaled per-group counts stay unbiased for the full population.
    order = rng.permutation(num_clients)
    # p and q are those of one OUE report over a doubled domain whose
    # halves are the two classes' level-k segments. The two trees do
    # not share that report: each class is built by its own call,
    # with its own group permutation and bit draws, so a client can
    # sit in different level groups in the two trees. Bits are
    # independent, so this tree's half is simulated directly from
    # its bit-sum distribution.
    p, q = 0.5, oue_flip_probability(spec.epsilon)
    levels: list[np.ndarray] = []
    variances: list[float] = []
    for k in range(1, spec.height + 1):
        members = order[k - 1 :: spec.height]
        group_size = len(members)
        width = spec.fanout**k
        nodes = leaf_of_client[members] // (num_leaves // width)
        true_counts = np.bincount(nodes, minlength=width)[:width]
        kept = rng.binomial(true_counts, p)
        flipped = rng.binomial(group_size - true_counts, q)
        scale = num_clients / group_size
        decoded = ((kept + flipped) - group_size * q) / (p - q) * scale
        levels.append(decoded)
        variances.append(scale**2 * group_size * q * (1.0 - q) / (p - q) ** 2)
    return levels, variances


def build_hierarchy(
    shards: ClientSplit | Sequence[Sequence[LabeledScore]],
    class_filter: Label,
    spec: PrivacySpec,
    seed=None,
) -> HierarchicalCounts:
    """Aggregate one class's per-level segment counts under a privacy regime.

    shards is a ClientSplit, or one list of examples per client, which
    is converted to a ClientSplit first. Every client participates at
    every level regardless of whether its examples match class_filter,
    so participation does not leak labels.
    Under local DP, clients are partitioned round-robin (over a seeded
    shuffle) into h groups and group k reports only its level-k segment;
    decoded counts are rescaled by the inverse sampling fraction.
    """
    if not isinstance(class_filter, Label):
        raise TypeError(f"class_filter must be a Label, got {class_filter!r}")
    if isinstance(shards, ClientSplit):
        clients = shards
    else:
        clients = ClientSplit.from_shards(shards)
    num_clients = clients.num_clients
    rng = as_generator(seed)
    class_rows = np.flatnonzero(
        clients.positive if class_filter is Label.POSITIVE else ~clients.positive
    )

    if spec.regime is Regime.LOCAL_DP:
        # The shard check comes first, so a multi-example split fails
        # whatever its client count.
        clients.check_one_per_client()
        if num_clients == 0:
            levels = [
                np.zeros(spec.fanout**k, dtype=np.float64)
                for k in range(1, spec.height + 1)
            ]
            variances = [0.0] * spec.height
        elif num_clients < spec.height:
            raise InsufficientPopulationError(
                f"local DP needs at least {spec.height} clients to cover "
                f"all levels, got {num_clients}"
            )
        else:
            levels, variances = _build_local_dp(clients, class_rows, spec, rng)
    else:
        levels = _exact_levels(clients.scores[class_rows], spec)
        variances = [0.0] * spec.height
        if spec.regime is Regime.DIST_DP and num_clients > 0:
            alpha = math.exp(-spec.epsilon / spec.height)
            node_variance = discrete_laplace_variance(alpha)
            for k in range(1, spec.height + 1):
                levels[k - 1] += aggregated_noise(alpha, rng, size=spec.fanout**k)
            variances = [node_variance] * spec.height

    return HierarchicalCounts(
        spec=spec, values=tuple(levels), level_variances=tuple(variances)
    )


def _level_runs(spec: PrivacySpec, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node runs of the prefixes [0, r): lo and hi of shape (h, len(r)).

    Prefix [0, r) holds level-k nodes lo[k-1]..hi[k-1]-1, with
    hi = r // f**(h-k) and lo = f * (r // f**(h-k+1)): at most f - 1
    nodes per level. The top level has no stored parent, so its run
    starts at 0; this also covers the full prefix r = f**h.
    """
    f = spec.fanout
    seg = np.array([f ** (spec.height - k) for k in range(1, spec.height + 1)])
    hi = r[None, :] // seg[:, None]
    lo = np.zeros_like(hi)
    lo[1:] = f * hi[:-1]
    return lo, hi


def _running_sums(*trees: HierarchicalCounts) -> list[np.ndarray]:
    """Every level's running sums of the node-wise sum of trees.

    sums[k-1][i] is the sum of the first i level-k nodes (0 for i = 0).
    Levels are added tree by tree, so two trees give the bits of a + b.
    A query builds them once, reads the prefixes it needs and drops them;
    nothing caches them on a tree.
    """
    return [
        np.concatenate(([0], np.cumsum(sum(levels[1:], levels[0]))))
        for levels in zip(*(t.values for t in trees))
    ]


def _prefixes_at(sums: list[np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Estimated count of examples below each prefix, from its _level_runs.

    Levels are accumulated from zero in level order, in int64 when every
    level is an integer array and float64 otherwise, so a prefix has the
    same bits whichever queries it is read with.
    """
    out = np.zeros(hi.shape[1], dtype=np.result_type(*sums))
    for level_sums, level_lo, level_hi in zip(sums, lo, hi):
        out += level_sums[level_hi] - level_sums[level_lo]
    return out


def _quantile_leaves(
    spec: PrivacySpec, sums: list[np.ndarray], total: float, targets: np.ndarray
) -> np.ndarray:
    """Leaf boundary that bisection over prefix counts reaches for each target.

    Targets are clamped to [0, total]. Every target runs the scalar
    bisection over r in 0..f**h (move hi to mid when the prefix at mid
    reaches the target, else lo to mid + 1) in lockstep with the others.
    On monotone prefixes, as under secure aggregation, the result is the
    first r whose prefix reaches the target; noisy prefixes may be
    non-monotone, and the bisection then returns the crossing it
    converges to, without post-processing.
    """
    targets = np.minimum(np.maximum(targets, 0.0), max(total, 0.0))
    lo = np.zeros(targets.shape, dtype=np.int64)
    hi = np.full(targets.shape, spec.num_leaves, dtype=np.int64)
    active = lo < hi
    while active.any():
        mid = (lo + hi) // 2
        reached = _prefixes_at(sums, *_level_runs(spec, mid)) >= targets
        hi = np.where(active & reached, mid, hi)
        lo = np.where(active & ~reached, mid + 1, lo)
        active = lo < hi
    return lo


def _bucket_histogram(
    pos: HierarchicalCounts,
    neg: HierarchicalCounts,
    pos_sums: list[np.ndarray],
    neg_sums: list[np.ndarray],
    boundary_leaves: np.ndarray,
) -> ScoreHistogram:
    """Bucket counts of both classes between the given leaf boundaries.

    pos_sums and neg_sums are the running sums of pos and of neg. A
    bucket's variance counts the nodes that one of its two prefixes
    reads and the other does not, each at its level's variance: nodes
    both read cancel in the difference.
    """
    lo, hi = _level_runs(pos.spec, boundary_leaves)
    pos_prefix = _prefixes_at(pos_sums, lo, hi)
    neg_prefix = _prefixes_at(neg_sums, lo, hi)
    # Runs under one parent start at the same node and differ by their
    # ends; runs under different parents are disjoint, so both count.
    width = hi - lo
    nodes = np.where(
        lo[:, :-1] == lo[:, 1:], np.diff(hi, axis=1), width[:, :-1] + width[:, 1:]
    )
    pos_variances, neg_variances = (
        (nodes * np.asarray(t.level_variances, dtype=np.float64)[:, None]).sum(axis=0)
        for t in (pos, neg)
    )
    return ScoreHistogram(
        spec=pos.spec,
        boundary_leaves=boundary_leaves,
        pos_values=np.diff(pos_prefix),
        neg_values=np.diff(neg_prefix),
        pos_variances=pos_variances,
        neg_variances=neg_variances,
        pos_total=float(pos_prefix[-1]),
        neg_total=float(neg_prefix[-1]),
    )


def _cut_leaves(
    spec: PrivacySpec, num_buckets: int, quantiles: np.ndarray | None
) -> np.ndarray:
    """Leaf boundaries of an equi-depth histogram of the combined trees.

    quantiles are the leaves that bisection reaches for the B-quantiles
    of the combined trees (see _quantile_leaves), or None when B is
    above f**h. Any bucket wider than f**(-ceil(log_f B) + 1) is split
    at aligned leaf boundaries so every bucket has width O(1/B).
    Duplicate quantiles are merged, so fewer than B buckets may come
    back; splitting produces at most B - 1 extra ones.
    """
    n = spec.num_leaves
    if num_buckets > n:
        # The width cap is one leaf, so every leaf boundary is a cut
        # whatever the quantiles; no B-sized target array is formed.
        return np.arange(n + 1, dtype=np.int64)
    cuts = {0, n, *quantiles.tolist()}

    stride = n
    while stride * num_buckets > n * spec.fanout:
        stride //= spec.fanout
    bounds = sorted(cuts)
    final: list[int] = [0]
    for left, right in zip(bounds, bounds[1:]):
        if right - left > stride:
            final.extend(range((left // stride + 1) * stride, right, stride))
        final.append(right)
    return np.asarray(final, dtype=np.int64)


def build_score_histograms(
    pos: HierarchicalCounts,
    neg: HierarchicalCounts,
    bucket_counts: Sequence[int],
) -> list[ScoreHistogram]:
    """Equi-depth histograms over both classes, one per bucket count.

    Boundaries are the B-quantiles of the combined population, with
    over-wide buckets split (see _cut_leaves). The quantile targets of
    every count up to f**h run through one bisection of the combined
    running sums, which are dropped before each class's sums are built
    once for all the histograms; no running sum outlives the call.
    """
    for num_buckets in bucket_counts:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
    if pos.spec != neg.spec:
        raise ValueError("pos and neg hierarchies must share one privacy spec")
    spec = pos.spec
    total = pos.population_total + neg.population_total
    targets = {
        b: np.arange(1, b) * total / b for b in bucket_counts if b <= spec.num_leaves
    }
    # Targets bisect independently in lockstep, so one bisection of all
    # of them reaches the leaves that one per count would.
    queries = np.concatenate([np.empty(0), *targets.values()])
    found = _quantile_leaves(spec, _running_sums(pos, neg), total, queries)
    ends = np.cumsum([t.size for t in targets.values()])
    quantiles = dict(zip(targets, np.split(found, ends[:-1])))
    cuts = [_cut_leaves(spec, b, quantiles.get(b)) for b in bucket_counts]
    pos_sums, neg_sums = _running_sums(pos), _running_sums(neg)
    return [_bucket_histogram(pos, neg, pos_sums, neg_sums, cut) for cut in cuts]


def build_score_histogram(
    pos: HierarchicalCounts, neg: HierarchicalCounts, num_buckets: int
) -> ScoreHistogram:
    """Equi-depth histogram over both classes (build_score_histograms of one count)."""
    (hist,) = build_score_histograms(pos, neg, [num_buckets])
    return hist
