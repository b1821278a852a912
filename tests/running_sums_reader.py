"""The histogram reader that built per-level running sums, kept literally.

Before the trees were read node by node, every query built each level's
running sums of the trees it read (of pos + neg for the bisection) and
took a prefix as the sum over levels of two running-sum lookups. These
are that reader's functions, unchanged but for their names, comments
and docstrings, so that tests can compare the histograms of integer
trees bit for bit. That reader bisected at every fanout; at f > 2
walk_leaves walks its running sums down the tree instead, as the
quantile cuts now do.
"""

import numpy as np

from fedeval.hierarchy import ScoreHistogram, _cut_leaves
from tree_levels import level_views


def level_runs(spec, r):
    f = spec.fanout
    seg = np.array([f ** (spec.height - k) for k in range(1, spec.height + 1)])
    hi = r[None, :] // seg[:, None]
    lo = np.zeros_like(hi)
    lo[1:] = f * hi[:-1]
    return lo, hi


def running_sums(*trees):
    return [
        np.concatenate(([0], np.cumsum(sum(levels[1:], levels[0]))))
        for levels in zip(*(level_views(t) for t in trees))
    ]


def prefixes_at(sums, lo, hi):
    out = np.zeros(hi.shape[1], dtype=np.result_type(*sums))
    for level_sums, level_lo, level_hi in zip(sums, lo, hi):
        out += level_sums[level_hi] - level_sums[level_lo]
    return out


def quantile_leaves(spec, sums, total, targets):
    targets = np.minimum(np.maximum(targets, 0.0), max(total, 0.0))
    lo = np.zeros(targets.shape, dtype=np.int64)
    hi = np.full(targets.shape, spec.num_leaves, dtype=np.int64)
    active = lo < hi
    while active.any():
        mid = (lo + hi) // 2
        reached = prefixes_at(sums, *level_runs(spec, mid)) >= targets
        hi = np.where(active & reached, mid, hi)
        lo = np.where(active & ~reached, mid + 1, lo)
        active = lo < hi
    return lo


def walk_leaves(spec, sums, total, targets):
    """The walk of the quantile cuts at f > 2, over these running sums.

    At each level, the first of the node's first f - 1 children whose
    end's prefix reaches the target, else the last child; then the end
    of the leaf reached, or 0 for a target of 0 that only went left.
    """
    f = spec.fanout
    targets = np.minimum(np.maximum(targets, 0.0), max(total, 0.0))
    leaf = np.zeros(targets.shape, dtype=np.int64)
    width = spec.num_leaves
    while width > 1:
        width //= f
        moving = np.ones(targets.shape, dtype=bool)
        for _ in range(f - 1):
            end = prefixes_at(sums, *level_runs(spec, leaf + width))
            moving &= end < targets
            leaf += moving * width
    return np.where((leaf == 0) & (targets <= 0.0), 0, leaf + 1)


def bucket_histogram(pos, neg, pos_sums, neg_sums, boundary_leaves):
    lo, hi = level_runs(pos.spec, boundary_leaves)
    pos_prefix = prefixes_at(pos_sums, lo, hi)
    neg_prefix = prefixes_at(neg_sums, lo, hi)
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


def build_score_histograms(pos, neg, bucket_counts):
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
    queries = np.concatenate([np.empty(0), *targets.values()])
    find = quantile_leaves if spec.fanout == 2 else walk_leaves
    found = find(spec, running_sums(pos, neg), total, queries)
    ends = np.cumsum([t.size for t in targets.values()])
    quantiles = dict(zip(targets, np.split(found, ends[:-1])))
    no_cuts = np.empty(0, np.int64)
    cuts = [_cut_leaves(spec, b, quantiles.get(b, no_cuts)) for b in bucket_counts]
    pos_sums, neg_sums = running_sums(pos), running_sums(neg)
    return [bucket_histogram(pos, neg, pos_sums, neg_sums, cut) for cut in cuts]
