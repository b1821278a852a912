"""Hierarchical segment counts and quantile-based score histograms.

A hierarchy for one class population stores, for every level k in 1..h,
the counts of examples falling in each of the f**k uniform segments of
[0, 1]. All levels live in one array in level order: level 1's f nodes,
then level 2's f**2 nodes, and so on down to the f**h leaves. Prefix
counts over leaf cells decompose into at most f - 1 nodes per level
(all f top nodes for the full prefix), so a prefix is the sum of at
most h(f - 1) + 1 nodes, added in level order, and only the prefixes a
query asks for are read, level by level; a class total is the full
prefix. Nothing of size f**h is formed after the build. Quantiles come
from one walk down the combined trees: at each level a target moves
into the first child whose end's prefix reaches it, else the last
child. That is the first crossing when prefixes are monotone (secure
aggregation), otherwise the crossing on the walk's path. Equi-depth
score histograms come from quantile boundaries plus prefix differences,
so a cut at B buckets costs O(B * h * f). A very wide top level (h = 1
with a huge f) costs O(f) per read at level 1; no caller, test or
workload uses one.

Counts are exact under secure aggregation, carry per-node discrete
Laplace noise under distributed DP, and are decoded unbiased frequency
estimates under local DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .core import (
    ClientSplit,
    InsufficientPopulationError,
    Label,
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


@lru_cache(maxsize=None)
def _level_starts(fanout: int, height: int) -> tuple[int, ...]:
    """Offset of each level in the level-order node array, then its length."""
    starts = [0]
    for k in range(1, height + 1):
        starts.append(starts[-1] + fanout**k)
    return tuple(starts)


def _level_views(nodes: np.ndarray, spec: PrivacySpec) -> tuple[np.ndarray, ...]:
    """One view of the level-order node array per level, level 1 first."""
    return tuple(np.split(nodes, _level_starts(spec.fanout, spec.height)[1:-1]))


@dataclass(frozen=True, eq=False)
class HierarchicalCounts:
    """Per-level segment counts for one population.

    nodes holds every level's counts in level order: level 1's f
    segments, then level 2's f**2, down to the f**h leaves; entries may
    be negative under noise. level_variances[k-1] is the advertised
    noise variance of a single level-k entry (0 under secure
    aggregation). population_total is the prefix count over all leaves:
    the level-1 counts added in level order, as every histogram reads
    its class totals.
    """

    spec: PrivacySpec
    nodes: np.ndarray
    level_variances: tuple[float, ...]

    def __post_init__(self) -> None:
        num_nodes = _level_starts(self.spec.fanout, self.spec.height)[-1]
        if self.nodes.shape != (num_nodes,):
            raise ValueError(
                f"expected {num_nodes} nodes in {self.spec.height} levels, "
                f"got shape {self.nodes.shape}"
            )
        if len(self.level_variances) != self.spec.height:
            raise ValueError("one variance per level is required")

    @property
    def num_leaves(self) -> int:
        return self.spec.num_leaves

    @property
    def population_total(self) -> float:
        full = np.array([self.num_leaves])
        return float(_prefixes_at(self, *_level_runs(self.spec, full))[0])


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
        """The least score each bucket holds, with 0.0 first and 1.0 last.

        An interior boundary is the least float whose leaf_indices
        reaches its boundary leaf. At f = 2**k that is the leaf over
        f**h. At other fanouts the rounded product score * f**h can
        fall short of the leaf at the quotient (0.29 * 100 < 29) or
        reach it at a float below, so the quotient is stepped to the
        least float that reaches it.
        """
        num_leaves = self.spec.num_leaves
        cuts = self.boundary_leaves / num_leaves
        leaves, inner = self.boundary_leaves[1:-1], cuts[1:-1]
        while (short := inner * num_leaves < leaves).any():
            inner[short] = np.nextafter(inner[short], 1.0)
        while (spare := np.nextafter(inner, 0.0) * num_leaves >= leaves).any():
            inner[spare] = np.nextafter(inner[spare], 0.0)
        return cuts


def _exact_levels(class_scores: np.ndarray, spec: PrivacySpec) -> np.ndarray:
    """Exact segment counts of every level in level order, from the leaves up.

    One bincount of the leaves' positions in the level-order array fills
    the leaf level and zeroes the levels above, which are then summed
    into their views.
    """
    starts = _level_starts(spec.fanout, spec.height)
    leaves = leaf_indices(class_scores, spec.height, spec.fanout)
    leaves += starts[-2]
    nodes = np.bincount(leaves, minlength=starts[-1])
    levels = _level_views(nodes, spec)
    for below, level in zip(levels[:0:-1], levels[-2::-1]):
        np.einsum("ij->i", below.reshape(-1, spec.fanout), out=level)
    return nodes


def _build_local_dp(
    clients: ClientSplit, class_rows: np.ndarray, spec: PrivacySpec, rng
) -> tuple[np.ndarray, list[float]]:
    client_count = len(clients)
    num_leaves = spec.num_leaves
    # Every client holds at most one example, so the occupied clients
    # hold rows 0, 1, ... in client order. A client with no example of
    # this class keeps leaf num_leaves, one past the last; at every
    # level that is the node one past the last, which the counts drop.
    class_clients = np.flatnonzero(clients.sizes() == 1)[class_rows]
    leaf_of_client = np.full(client_count, num_leaves, dtype=np.int64)
    leaf_of_client[class_clients] = leaf_indices(
        clients.scores[class_rows], spec.height, spec.fanout
    )

    # Group assignment is part of the mechanism randomness so that the
    # rescaled per-group counts stay unbiased for the full population.
    order = rng.permutation(client_count)
    # p and q are those of one OUE report over a doubled domain whose
    # halves are the two classes' level-k segments. The two trees do
    # not share that report: each class is built by its own call,
    # with its own group permutation and bit draws, so a client can
    # sit in different level groups in the two trees. Bits are
    # independent, so this tree's half is simulated directly from
    # its bit-sum distribution.
    p, q = 0.5, oue_flip_probability(spec.epsilon)
    nodes = np.empty(_level_starts(spec.fanout, spec.height)[-1], dtype=np.float64)
    variances: list[float] = []
    for k, decoded in enumerate(_level_views(nodes, spec), start=1):
        members = order[k - 1 :: spec.height]
        group_size = len(members)
        width = spec.fanout**k
        level_nodes = leaf_of_client[members] // (num_leaves // width)
        true_counts = np.bincount(level_nodes, minlength=width)[:width]
        scale = client_count / group_size
        # ((kept + flipped) - group_size * q) / (p - q) * scale, written
        # into the level's view one operation at a time. The kept and
        # flipped bit counts are whole numbers below 2**53, so their
        # float sum is their integer sum.
        # numpy draws nothing for n = 0, so drawing the kept bits of
        # the occupied nodes alone leaves the bits and the stream as
        # they are; deep levels of a tall tree are mostly empty.
        occupied = np.flatnonzero(true_counts)
        decoded[...] = 0.0
        decoded[occupied] = rng.binomial(true_counts[occupied], p)
        unset = np.subtract(group_size, true_counts, out=true_counts)
        decoded += rng.binomial(unset, q)
        decoded -= group_size * q
        decoded /= p - q
        decoded *= scale
        variances.append(scale**2 * group_size * q * (1.0 - q) / (p - q) ** 2)
    return nodes, variances


def build_hierarchy(
    clients: ClientSplit,
    class_filter: Label,
    spec: PrivacySpec,
    seed=None,
) -> HierarchicalCounts:
    """Aggregate one class's per-level segment counts under a privacy regime.

    Every client participates at every level regardless of whether its
    examples match class_filter, so participation does not leak labels.
    Under local DP, clients are partitioned round-robin (over a seeded
    shuffle) into h groups and group k reports only its level-k segment;
    decoded counts are rescaled by the inverse sampling fraction.
    """
    if not isinstance(class_filter, Label):
        raise TypeError(f"class_filter must be a Label, got {class_filter!r}")
    client_count = len(clients)
    rng = as_generator(seed)
    class_rows = np.flatnonzero(
        clients.positive if class_filter is Label.POSITIVE else ~clients.positive
    )

    if spec.regime is Regime.LOCAL_DP:
        # The shard check comes first, so a multi-example split fails
        # whatever its client count.
        clients.check_one_per_client()
        if client_count == 0:
            nodes = np.zeros(_level_starts(spec.fanout, spec.height)[-1])
            variances = [0.0] * spec.height
        elif client_count < spec.height:
            raise InsufficientPopulationError(
                f"local DP needs at least {spec.height} clients to cover "
                f"all levels, got {client_count}"
            )
        else:
            nodes, variances = _build_local_dp(clients, class_rows, spec, rng)
    else:
        nodes = _exact_levels(clients.scores[class_rows], spec)
        variances = [0.0] * spec.height
        if spec.regime is Regime.DIST_DP and client_count > 0:
            alpha = math.exp(-spec.epsilon / spec.height)
            node_variance = discrete_laplace_variance(alpha)
            for level in _level_views(nodes, spec):
                level += aggregated_noise(alpha, rng, size=level.size)
            variances = [node_variance] * spec.height

    return HierarchicalCounts(
        spec=spec, nodes=nodes, level_variances=tuple(variances)
    )


def _level_runs(spec: PrivacySpec, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node runs of the prefixes [0, r): lo and hi of shape (h, len(r)).

    Prefix [0, r) holds level-k nodes lo[k-1]..hi[k-1]-1, with
    hi = r // f**(h-k) and lo = f * (r // f**(h-k+1)): at most f - 1
    nodes per level. The top level has no stored parent, so its run
    starts at 0; this also covers the full prefix r = f**h.
    """
    f = spec.fanout
    hi = np.empty((spec.height, r.size), dtype=np.int64)
    hi[-1] = r
    # r // f**(h-k) level by level from the leaves up: a division by one
    # scalar is several times cheaper than one by a column of powers
    # (32 against 167 us at h = 16 with 1039 prefixes).
    for k in range(spec.height - 1, 0, -1):
        np.floor_divide(hi[k], f, out=hi[k - 1])
    lo = np.zeros_like(hi)
    np.multiply(hi[:-1], f, out=lo[1:])
    return lo, hi


def _prefixes_at(
    tree: HierarchicalCounts, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Estimated count of examples below each prefix with runs lo, hi.

    The runs are read level by level: up to f nodes at level 1 (all f
    for the full prefix) and f - 1 below, each added in turn into an
    array of the tree's dtype. So a prefix is its nodes added in level
    order, with the same bits and dtype whichever queries it is read
    with. Run offset j of every level is gathered at once, as 0 where
    the run is shorter; offset f - 1 is only read at level 1.
    """
    f, h = tree.spec.fanout, tree.spec.height
    first = lo + np.array(_level_starts(f, h)[:-1])[:, None]
    width = hi - lo
    offsets = [
        np.where(j < width, tree.nodes.take(first + j, mode="clip"), 0)
        for j in range(f)
    ]
    out = np.zeros(lo.shape[1], dtype=tree.nodes.dtype)
    for k in range(h):
        for nodes in offsets[: f if k == 0 else f - 1]:
            out += nodes[k]
    return out


def _quantile_leaves(
    pos: HierarchicalCounts,
    neg: HierarchicalCounts,
    total: float,
    targets: np.ndarray,
) -> np.ndarray:
    """Leaf boundary that a walk down the combined trees reaches per target.

    A combined prefix is pos's prefix plus neg's. Targets are clamped to
    [0, total]. From the top level down, each target probes the ends of
    the first f - 1 children of the node it is in and moves into the
    first child whose end's combined prefix reaches it, or else into the
    last child. Each class's prefix is carried separately, its nodes
    added in level order. The result is the end of the leaf reached, or
    0 when the target is 0 and every step went left. On monotone
    prefixes, as under secure aggregation, that is the first r whose
    prefix reaches the target; noisy prefixes may be non-monotone, and
    the walk then returns the crossing on its path, without
    post-processing. At f = 2 every probe is a bisection mid, so this is
    the bisection over r in 0..f**h. A target reads h(f - 1) nodes per
    tree, so B targets cost O(B * h * f).
    """
    spec = pos.spec
    targets = np.minimum(np.maximum(targets, 0.0), max(total, 0.0))
    sums = [np.zeros(targets.shape, dtype=t.nodes.dtype) for t in (pos, neg)]
    leaf = np.zeros(targets.shape, dtype=np.int64)
    for start in _level_starts(spec.fanout, spec.height)[:-1]:
        leaf *= spec.fanout
        moving = np.ones(targets.shape, dtype=bool)
        for _ in range(spec.fanout - 1):
            node = start + leaf
            ends = [s + t.nodes[node] for s, t in zip(sums, (pos, neg))]
            moving &= ends[0] + ends[1] < targets
            for s, end in zip(sums, ends):
                np.copyto(s, end, where=moving)
            leaf += moving
    return np.where((leaf == 0) & (targets <= 0.0), 0, leaf + 1)


def _bucket_histogram(
    pos: HierarchicalCounts, neg: HierarchicalCounts, boundary_leaves: np.ndarray
) -> ScoreHistogram:
    """Bucket counts of both classes between the given leaf boundaries.

    A bucket's variance counts the nodes that one of its two prefixes
    reads and the other does not, each at its level's variance: nodes
    both read cancel in the difference.
    """
    lo, hi = _level_runs(pos.spec, boundary_leaves)
    pos_prefix = _prefixes_at(pos, lo, hi)
    neg_prefix = _prefixes_at(neg, lo, hi)
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
    spec: PrivacySpec, num_buckets: int, quantiles: np.ndarray
) -> np.ndarray:
    """Leaf boundaries of an equi-depth histogram of the combined trees.

    quantiles are the leaves that the walk reaches for the B-quantiles
    of the combined trees (see _quantile_leaves); they are not read
    when B is above f**h. Any bucket wider than f**(-ceil(log_f B) + 1)
    is split at aligned leaf boundaries so every bucket has width O(1/B).
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
    every count up to f**h run through one walk down both trees, and
    each histogram reads its boundaries' prefixes from the trees' nodes;
    nothing of size f**h is formed.
    """
    for num_buckets in bucket_counts:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
    if pos.spec != neg.spec:
        raise ValueError("pos and neg hierarchies must share one privacy spec")
    spec = pos.spec
    total = pos.population_total + neg.population_total
    # A count above f**h cuts at every leaf and needs no targets.
    targets = [
        np.arange(1, b) * total / b if b <= spec.num_leaves else np.empty(0)
        for b in bucket_counts
    ]
    # Each target walks its own path, so one walk of all of them
    # reaches the leaves that one per count would.
    queries = np.concatenate([np.empty(0), *targets])
    found = _quantile_leaves(pos, neg, total, queries)
    quantiles = np.split(found, np.cumsum([t.size for t in targets])[:-1])
    cuts = [_cut_leaves(spec, b, q) for b, q in zip(bucket_counts, quantiles)]
    return [_bucket_histogram(pos, neg, cut) for cut in cuts]


def build_score_histogram(
    pos: HierarchicalCounts, neg: HierarchicalCounts, num_buckets: int
) -> ScoreHistogram:
    """Equi-depth histogram over both classes (build_score_histograms of one count)."""
    (hist,) = build_score_histograms(pos, neg, [num_buckets])
    return hist
