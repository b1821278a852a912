"""End-to-end statistical acceptance checks, one test per numbered criterion.

Each test runs the full pipeline (data generation, client sharding,
hierarchy construction under a privacy regime, histogram extraction,
metric estimation) at frozen seeds and asserts the advertised accuracy
or scaling behavior. Slopes come from least-squares fits on log-log
medians over repeated runs, so the assertions are deterministic.
"""

import bisect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

import fedeval
from fedeval import Label, PrivacySpec, Regime, ScoreDistribution
from fedeval.calibration import (
    apply_calibration_batch,
    calibrate_histogram,
    ece_arrays,
)
from fedeval.core import as_generator, leaf_indices
from fedeval.datagen import sample_population, split_population
from fedeval.hierarchy import build_hierarchy, build_score_histogram
from fedeval.mechanisms import discrete_laplace_variance
from fedeval.metrics import auc_histogram, pra_threshold
from fedeval.oracle import _auc_from_arrays, _class_sorted, exact_pra_curve

from reference_mechanisms import (
    OueParams,
    PolyaShareParams,
    oue_aggregate,
    oue_decode,
    oue_encode,
    sample_polya,
)
from tree_levels import level_views

THRESHOLD_GRID = tuple(0.25 + 0.05 * i for i in range(10))
LIPS1 = ScoreDistribution(lipschitz=1.0)
SKEWED_DIST = ScoreDistribution(positive_slope=2.0, negative_slope=0.0)


def make_dataset(num_examples, seed, dist=ScoreDistribution(), balance=0.5):
    """(clients, scores, flags): a sampled population split one per client."""
    scores, flags = sample_population(num_examples, dist, balance, (seed, 0))
    clients = split_population(scores, flags, "one_per_client", (seed, 1))
    return clients, scores, flags


def histogram_auc_errors(clients, scores, flags, spec, bucket_counts, seed):
    """|histogram AUC - exact half-ties AUC| for each bucket count.

    Both bucket counts reuse one pair of hierarchies, so comparisons
    across bucket counts see identical noise draws.
    """
    pos = build_hierarchy(clients, Label.POSITIVE, spec, (seed, 2))
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, (seed, 3))
    _, half = _auc_from_arrays(*_class_sorted(scores, flags))
    return [
        abs(auc_histogram(build_score_histogram(pos, neg, b)).value - half)
        for b in bucket_counts
    ]


def pra_max_err(clients, scores, flags, spec, num_buckets, seed):
    """Worst |estimate - exact| over the threshold grid and all three metrics."""
    pos = build_hierarchy(clients, Label.POSITIVE, spec, (seed, 2))
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, (seed, 3))
    hist = build_score_histogram(pos, neg, num_buckets)
    exact = exact_pra_curve(*_class_sorted(scores, flags), THRESHOLD_GRID)
    worst = 0.0
    for threshold, (ep, er, ea) in zip(THRESHOLD_GRID, exact):
        est = pra_threshold(hist, threshold)
        for got, want in (
            (est.precision, ep),
            (est.recall, er),
            (est.accuracy, ea),
        ):
            if got is not None and want is not None:
                worst = max(worst, abs(got - want))
    return worst


def held_out_ece(num_examples, num_buckets, spec, seed, eval_bins):
    """Calibrate on half the data, score the held-out half."""
    root = np.random.SeedSequence((91, num_examples, spec.height, seed))
    data_ss, perm_ss, split_ss, pos_ss, neg_ss = root.spawn(5)
    scores, flags = sample_population(num_examples, SKEWED_DIST, 0.5, data_ss)
    perm = as_generator(perm_ss).permutation(num_examples)
    half = num_examples // 2
    fit = perm[:half]
    clients = split_population(scores[fit], flags[fit], "one_per_client", split_ss)
    pos = build_hierarchy(clients, Label.POSITIVE, spec, pos_ss)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, neg_ss)
    hist = build_score_histogram(pos, neg, num_buckets)
    cal_map = calibrate_histogram(hist)
    probs = apply_calibration_batch(cal_map, scores[perm[half:]])
    return ece_arrays(probs, flags[perm[half:]], eval_bins).ece


def fit_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_criterion_01_secure_agg_auc_inside_advertised_halfwidth():
    """500 random small instances: exact AUC always inside value +- halfwidth.

    The halfwidth itself must respect the bucket-resolution bound
    kappa * (1/(2B) + ties/(2M)) where kappa = M^2 / (4 P N) and ties is
    the largest number of examples sharing one leaf.
    """
    rng = np.random.default_rng(101)
    for _ in range(500):
        m = int(rng.integers(2, 1001))
        balance = rng.uniform(0.35, 0.65)
        scores = rng.random(m)
        if rng.random() < 0.5:
            # Concentrate mass on a few exact values to force leaf ties.
            atoms = rng.random(int(rng.integers(1, 4)))
            take = rng.random(m) < rng.uniform(0.1, 0.6)
            scores[take] = rng.choice(atoms, take.sum())
        flags = rng.random(m) < balance
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        height = int(rng.integers(4, 11))
        spec = PrivacySpec(regime=Regime.SECURE_AGG, height=height, fanout=2)
        clients = split_population(scores, flags, "one_per_client")
        pos = build_hierarchy(clients, Label.POSITIVE, spec)
        neg = build_hierarchy(clients, Label.NEGATIVE, spec)
        strict, half = _auc_from_arrays(*_class_sorted(scores, flags))
        ties = int(np.bincount(leaf_indices(scores, height, 2)).max())
        num_pos = int(flags.sum())
        kappa = m * m / (4.0 * num_pos * (m - num_pos))
        for num_buckets in (4, 16, 64):
            est = auc_histogram(build_score_histogram(pos, neg, num_buckets))
            hw = est.bucketization_halfwidth
            assert abs(est.value - half) <= hw + 1e-12
            assert abs(est.value - strict) <= hw + 1e-12
            bound = kappa * (1.0 / (2 * num_buckets) + ties / (2.0 * m))
            assert hw <= bound + 1e-12


def test_criterion_02_secure_agg_auc_error_shrinks_quadratically_in_buckets():
    spec = PrivacySpec(regime=Regime.SECURE_AGG, height=12, fanout=2)
    bucket_grid = (10, 25, 50, 100)
    errors = np.array(
        [
            histogram_auc_errors(*make_dataset(10**5, 200 + r),
                                 spec, bucket_grid, 200 + r)
            for r in range(20)
        ]
    )
    medians = np.median(errors, axis=0)
    slope = fit_slope(bucket_grid, medians)
    print(f"criterion 2: medians={medians} slope={slope:.3f}")
    assert medians[-1] <= 1e-3
    assert -2.4 <= slope <= -1.6


def test_criterion_03_dist_dp_fine_buckets_do_not_inflate_error():
    spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=1.0, height=10, fanout=2)
    errors = np.array(
        [
            histogram_auc_errors(*make_dataset(10**5, 300 + r),
                                 spec, (40, 100), 300 + r)
            for r in range(30)
        ]
    )
    med40, med100 = np.median(errors, axis=0)
    print(f"criterion 3: med40={med40:.2e} med100={med100:.2e}")
    assert med100 <= 2.0 * med40
    assert med100 <= 5e-3


def test_criterion_04_local_dp_auc_error_scales_like_inverse_sqrt_population():
    spec = PrivacySpec(regime=Regime.LOCAL_DP, epsilon=5.0, height=10, fanout=2)
    populations = (10**4, 10**5, 10**6)
    medians = []
    for num in populations:
        errs = [
            histogram_auc_errors(*make_dataset(num, 400 + r),
                                 spec, (100,), 400 + r)[0]
            for r in range(8)
        ]
        medians.append(np.median(errs))
    slope = fit_slope(populations, medians)
    print(f"criterion 4: medians={medians} slope={slope:.3f}")
    assert -0.7 <= slope <= -0.3


def test_criterion_05_dist_dp_auc_error_scales_like_inverse_population():
    spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=1.0, height=12, fanout=2)
    populations = (10**4, 10**5, 10**6)
    medians = []
    for num in populations:
        errs = [
            histogram_auc_errors(*make_dataset(num, 500 + r),
                                 spec, (200,), 500 + r)[0]
            for r in range(6)
        ]
        medians.append(np.median(errs))
    slope = fit_slope(populations, medians)
    print(f"criterion 5: medians={medians} slope={slope:.3f}")
    assert -1.3 <= slope <= -0.7


def test_criterion_06_secure_agg_threshold_error_halves_per_extra_level():
    heights = range(6, 15)
    medians = []
    for height in heights:
        spec = PrivacySpec(regime=Regime.SECURE_AGG, height=height, fanout=2)
        errs = []
        for r in range(5):
            errs.append(
                pra_max_err(*make_dataset(10**5, 600 + r, LIPS1),
                            spec, 2**height, 600 + r)
            )
        medians.append(np.median(errs))
    medians = np.array(medians)
    doubling_slope = float(np.polyfit(list(heights), np.log2(medians), 1)[0])
    print(f"criterion 6: medians={medians} slope={doubling_slope:.3f}")
    assert -1.35 <= doubling_slope <= -0.65
    assert medians[-1] <= 1e-4


def test_criterion_07_dist_dp_best_height_balances_noise_and_resolution():
    heights = range(6, 15)
    errors = np.zeros((9, len(heights)))
    for r in range(9):
        clients, scores, flags = make_dataset(5 * 10**5, 700 + r, LIPS1)
        for j, height in enumerate(heights):
            spec = PrivacySpec(
                regime=Regime.DIST_DP, epsilon=1.0, height=height, fanout=2
            )
            errors[r, j] = pra_max_err(
                clients, scores, flags, spec, 1024, 1000 * r + height
            )
    medians = np.median(errors, axis=0)
    best_height = 6 + int(np.argmin(medians))
    print(f"criterion 7: medians={medians} best_height={best_height}")
    assert 9 <= best_height <= 12
    assert medians.min() <= 3e-3


def test_criterion_08_noise_primitives_match_their_distributions():
    # Summed noise shares: 400 shares per draw, 100000 draws, variance
    # within 5 percent of 2a/(1-a)^2 and a chi-square fit at the 1
    # percent level against the two-sided geometric law.
    params = PolyaShareParams.from_budget(1.0, 1, 400)
    rng = np.random.default_rng(808)
    draws = np.zeros(100_000, dtype=np.int64)
    for _ in range(400):
        draws += sample_polya(params.shape, params.alpha, rng, size=100_000)
        draws -= sample_polya(params.shape, params.alpha, rng, size=100_000)
    target = discrete_laplace_variance(params.alpha)
    assert abs(draws.var(ddof=1) - target) <= 0.05 * target

    alpha = params.alpha
    k_max = 8
    support = np.arange(-k_max, k_max + 1)
    observed = np.array(
        [(draws == k).sum() for k in support]
        + [(draws < -k_max).sum(), (draws > k_max).sum()]
    )
    pmf = (1 - alpha) / (1 + alpha) * alpha ** np.abs(support)
    tail = alpha ** (k_max + 1) / (1 + alpha)
    expected = np.concatenate([pmf, [tail, tail]]) * draws.size
    assert expected.min() >= 5.0
    chi = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    print(f"criterion 8: polya var={draws.var(ddof=1):.5f} "
          f"target={target:.5f} chi2 p={chi.pvalue:.4f}")
    assert chi.pvalue >= 0.01

    # Frequency decoding stays unbiased: 200 trials of summed reports
    # from 10000 clients, each entry mean error within 3 standard errors
    # of the exact per-entry variance.
    oue = OueParams(epsilon=5.0, domain_size=8)
    p, q = oue.p_keep, oue.q_flip
    num_reports = 10_000
    counts = np.array([4100, 2500, 1400, 900, 500, 300, 200, 100])
    rng = np.random.default_rng(818)
    errs = np.empty((200, 8))
    for trial in range(200):
        sums = rng.binomial(counts, p) + rng.binomial(num_reports - counts, q)
        estimates, _ = oue_decode(sums, num_reports, oue)
        errs[trial] = estimates - counts
    true_var = (
        counts * p * (1 - p) + (num_reports - counts) * q * (1 - q)
    ) / (p - q) ** 2
    z = errs.mean(axis=0) / np.sqrt(true_var / 200)
    print(f"criterion 8: decode z={np.round(z, 2)}")
    assert np.abs(z).max() < 3.0

    # Same check through the full encode / aggregate path.
    oue = OueParams(epsilon=5.0, domain_size=6)
    p, q = oue.p_keep, oue.q_flip
    num_reports = 500
    counts = np.array([200, 120, 80, 60, 30, 10])
    values = np.repeat(np.arange(6), counts)
    rng = np.random.default_rng(828)
    errs = np.empty((60, 6))
    for trial in range(60):
        reports = [oue_encode(int(v), oue, rng) for v in values]
        decoded, _ = oue_aggregate(reports, oue)
        errs[trial] = decoded - counts
    true_var = (
        counts * p * (1 - p) + (num_reports - counts) * q * (1 - q)
    ) / (p - q) ** 2
    z = errs.mean(axis=0) / np.sqrt(true_var / 60)
    assert np.abs(z).max() < 3.0


def test_criterion_09_calibration_error_scaling_and_regime_ordering():
    # Exact sums: held-out calibration error follows the cube-root law
    # when the evaluation grid is matched to the bucket count.
    populations = (10**3, 10**4, 10**5, 10**6)
    medians = []
    for num in populations:
        num_buckets = int(round((num / 2) ** (1.0 / 3.0)))
        spec = PrivacySpec(regime=Regime.SECURE_AGG, height=10, fanout=2)
        vals = [
            held_out_ece(num, num_buckets, spec, r, eval_bins=num_buckets)
            for r in range(6)
        ]
        medians.append(np.median(vals))
    slope = fit_slope(populations, medians)
    print(f"criterion 9: medians={medians} slope={slope:.3f}")
    assert -1.0 / 3.0 - 0.15 <= slope <= -1.0 / 3.0 + 0.15

    # Distributed noise at epsilon 1 leaves the mean held-out error
    # within two Monte Carlo standard errors of the exact-sum mean.
    num, num_buckets, reps = 10**5, 10, 40
    sa_spec = PrivacySpec(regime=Regime.SECURE_AGG, height=4, fanout=2)
    dp_spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=1.0, height=4, fanout=2)
    sa_vals = np.array(
        [held_out_ece(num, num_buckets, sa_spec, r, 20) for r in range(reps)]
    )
    dp_vals = np.array(
        [held_out_ece(num, num_buckets, dp_spec, 100 + r, 20) for r in range(reps)]
    )
    gap = abs(dp_vals.mean() - sa_vals.mean())
    se = np.sqrt(sa_vals.var(ddof=1) / reps + dp_vals.var(ddof=1) / reps)
    print(f"criterion 9: gap={gap:.2e} 2se={2 * se:.2e}")
    assert gap <= 2.0 * se

    # Per-report randomization is strictly noisier.
    sa_spec = PrivacySpec(regime=Regime.SECURE_AGG, height=6, fanout=2)
    ldp_spec = PrivacySpec(regime=Regime.LOCAL_DP, epsilon=5.0, height=6, fanout=2)
    sa_vals = np.array(
        [held_out_ece(num, num_buckets, sa_spec, 200 + r, 20) for r in range(10)]
    )
    ldp_vals = np.array(
        [held_out_ece(num, num_buckets, ldp_spec, 300 + r, 20) for r in range(10)]
    )
    print(f"criterion 9: sa={sa_vals.mean():.4f} ldp={ldp_vals.mean():.4f}")
    assert ldp_vals.mean() > sa_vals.mean()


def test_criterion_10_fast_oracles_equal_literal_formulas():
    # AUC by sorting equals the all-pairs double loop, bit for bit.
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        m = int(rng.integers(2, 101))
        scores = rng.random(m)
        if rng.random() < 0.5:
            snap = rng.random(m) < 0.7
            scores[snap] = rng.integers(0, 9, int(snap.sum())) / 8.0
        flags = rng.random(m) < 0.5
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        strict, half = _auc_from_arrays(*_class_sorted(scores, flags))
        pos_scores = [s for s, f in zip(scores.tolist(), flags.tolist()) if f]
        neg_scores = [s for s, f in zip(scores.tolist(), flags.tolist()) if not f]
        wins = ties = 0
        for ps in pos_scores:
            for ns in neg_scores:
                if ps > ns:
                    wins += 1
                elif ps == ns:
                    ties += 1
        denom = len(pos_scores) * len(neg_scores)
        assert strict == wins / denom
        assert half == (wins + ties / 2) / denom

    # Binned calibration error equals a literal per-example,
    # per-bin accumulation over the same edges.
    rng = np.random.default_rng(1020)
    for case in range(500):
        n = int(rng.integers(1, 401))
        num_bins = int(rng.integers(1, 26))
        probs = rng.random(n)
        mode = rng.random(n)
        probs[mode < 0.1] = 0.0
        probs[mode > 0.9] = 1.0
        edgey = (mode > 0.45) & (mode < 0.55)
        probs[edgey] = rng.integers(0, num_bins + 1, int(edgey.sum())) / num_bins
        flags = rng.random(n) < rng.uniform(0.2, 0.8)
        report = ece_arrays(probs, flags, num_bins)
        edges = [(b + 1) / num_bins for b in range(num_bins)]
        bin_count = [0] * num_bins
        bin_pos = [0.0] * num_bins
        bin_prob = [0.0] * num_bins
        for prob, flag in zip(probs.tolist(), flags.tolist()):
            b = bisect.bisect_left(edges, prob)
            bin_count[b] += 1
            bin_pos[b] += float(flag)
            bin_prob[b] += prob
        acc = 0.0
        for b in range(num_bins):
            if bin_count[b] > 0:
                mass = bin_count[b] / n
                acc += mass * abs(
                    bin_pos[b] / bin_count[b] - bin_prob[b] / bin_count[b]
                )
            else:
                acc += 0.0
        assert report.ece == acc
        if case < 50:
            ints = np.array([int(f) for f in flags.tolist()])
            from_lists = ece_arrays(np.array(probs.tolist()), ints, num_bins)
            assert from_lists.ece == report.ece


def test_criterion_11_secure_agg_invariant_to_client_partitioning():
    distributions = (ScoreDistribution(), LIPS1, SKEWED_DIST)
    for r in range(50):
        seed = 1100 + r
        rng = np.random.default_rng(seed)
        m = int(rng.integers(200, 1501))
        dist = distributions[r % 3]
        scores, flags = sample_population(m, dist, 0.5, (seed, 0))
        spec = PrivacySpec(regime=Regime.SECURE_AGG, height=8, fanout=2)
        shardings = (
            split_population(scores, flags, "one_per_client", (seed, 1)),
            split_population(scores, flags, "skewed:0.25", (seed, 2)),
            split_population(scores, flags, "variable:5.0", (seed, 3)),
        )
        outputs = []
        for shards in shardings:
            pos = build_hierarchy(shards, Label.POSITIVE, spec)
            neg = build_hierarchy(shards, Label.NEGATIVE, spec)
            hist = build_score_histogram(pos, neg, 12)
            auc = auc_histogram(hist)
            pra = pra_threshold(hist, 0.4)
            cal = calibrate_histogram(hist)
            outputs.append((pos, neg, hist, auc, pra, cal))
        base = outputs[0]
        for other in outputs[1:]:
            for level in range(spec.height):
                assert np.array_equal(
                    level_views(base[0])[level], level_views(other[0])[level]
                )
                assert np.array_equal(
                    level_views(base[1])[level], level_views(other[1])[level]
                )
            assert np.array_equal(base[2].pos_values, other[2].pos_values)
            assert np.array_equal(base[2].neg_values, other[2].neg_values)
            assert np.array_equal(base[2].boundary_leaves, other[2].boundary_leaves)
            assert base[3] == other[3]
            assert base[4] == other[4]
            assert np.array_equal(base[5].weights, other[5].weights)
            assert len(base[5].binnings) == len(other[5].binnings)
            for mine, theirs in zip(base[5].binnings, other[5].binnings):
                assert np.array_equal(mine[0], theirs[0])
                assert np.array_equal(mine[1], theirs[1])


def cli_env():
    """Environment in which a child `python` imports this process's fedeval.

    The directory holding the imported package goes first on PYTHONPATH, so
    it wins over any installed copy; the caller's other entries follow, made
    absolute so that a relative one (`PYTHONPATH=src`) survives a changed cwd.
    """
    entries = [str(Path(fedeval.__file__).resolve().parent.parent)]
    entries += [
        str(Path(entry).resolve())
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def run_cli(args, cwd):
    result = subprocess.run(
        [sys.executable, "-m", "fedeval", *args],
        capture_output=True,
        cwd=cwd,
        env=cli_env(),
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_criterion_12_cli_invocations_are_byte_stable(tmp_path):
    # The byte comparison means nothing unless the CLI runs this very package.
    probe = subprocess.run(
        [sys.executable, "-c", "import fedeval; print(fedeval.__file__)"],
        capture_output=True,
        cwd=tmp_path,
        env=cli_env(),
    )
    assert probe.returncode == 0, probe.stderr.decode()
    child_file = Path(probe.stdout.decode().strip()).resolve()
    assert child_file == Path(fedeval.__file__).resolve()

    data = tmp_path / "scores.csv"
    run_cli(
        ["gen-data", "--out", str(data), "--num-examples", "300",
         "--seed", "11", "--spike", "0.5:0.1:0.05"],
        tmp_path,
    )
    twin = tmp_path / "twin.csv"
    run_cli(
        ["gen-data", "--out", str(twin), "--num-examples", "300",
         "--seed", "11", "--spike", "0.5:0.1:0.05"],
        tmp_path,
    )
    assert data.read_bytes() == twin.read_bytes()

    config = tmp_path / "grid.cfg"
    config.write_text(
        "base_seed = 7\n"
        "regimes = secure_agg, dist_dp\n"
        "num_examples = 150\n"
        "num_buckets = 6\n"
        "heights = 5\n"
        "epsilons = 1.0\n"
        "thresholds = 0.4\n"
        "repetitions = 2\n"
        "split_policy = one_per_client\n"
        "class_balance = 0.5\n"
        "eval_bins = 8\n"
    )
    invocations = [
        ["evaluate", "--data", str(data), "--regime", "secure_agg",
         "--buckets", "20", "--height", "8", "--seed", "5",
         "--threshold", "0.3", "--threshold", "0.6"],
        ["evaluate", "--data", str(data), "--regime", "dist_dp",
         "--epsilon", "1.0", "--buckets", "20", "--height", "8",
         "--seed", "5", "--threshold", "0.5"],
        ["evaluate", "--data", str(data), "--regime", "local_dp",
         "--epsilon", "5.0", "--buckets", "10", "--height", "6",
         "--seed", "5"],
        ["evaluate", "--data", str(data), "--regime", "secure_agg",
         "--buckets", "12", "--height", "7", "--split", "variable:4.0",
         "--seed", "5"],
        ["sweep", "--config", str(config)],
        ["calibrate", "--data", str(data), "--regime", "secure_agg",
         "--buckets", "8", "--height", "6", "--seed", "5"],
        ["calibrate", "--data", str(data), "--regime", "dist_dp",
         "--bbq", "--height", "6", "--seed", "5"],
    ]
    for args in invocations:
        first = run_cli(args, tmp_path)
        second = run_cli(args, tmp_path)
        assert first == second, args
        assert first, args
