"""Grid sweeps: configuration parsing, row emission, and determinism."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedeval import PrivacySpec, Regime, ScoreDistribution
from fedeval.cli import main
from fedeval.datagen import sample_population, split_population
from fedeval import sweep
from fedeval.io import write_columns
from fedeval.sweep import (
    SweepConfig,
    SweepConfigError,
    _ece_record,
    evaluate_population,
    parse_sweep_config,
    run_sweep,
)

BASIC_CONFIG = """
# A tiny two-regime grid.
base_seed = 42
regimes = secure_agg, dist_dp
num_examples = 200
num_buckets = 5
heights = 4
epsilons = 1.0
thresholds = 0.3, 0.6
repetitions = 2
split_policy = one_per_client
class_balance = 0.5
eval_bins = 10
"""


def test_parse_basic_config():
    config = parse_sweep_config(BASIC_CONFIG)
    assert config.base_seed == 42
    assert config.regimes == (Regime.SECURE_AGG, Regime.DIST_DP)
    assert config.num_examples == (200,)
    assert config.num_buckets == (5,)
    assert config.heights == (4,)
    assert config.epsilons == (1.0,)
    assert config.thresholds == (0.3, 0.6)
    assert config.repetitions == 2
    assert config.eval_bins == 10
    assert config.measure_ece is True
    assert config.data_path is None


def test_parse_distribution_keys():
    config = parse_sweep_config(
        """
        base_seed = 1
        lipschitz = 1.5
        pos_slope = 1.0
        neg_slope = -0.5
        spikes = 0.25:0.3:0.0; 0.75:0.0:0.2
        """
    )
    dist = config.distribution
    assert dist.lipschitz == 1.5
    assert dist.positive_slope == 1.0
    assert dist.negative_slope == -0.5
    assert len(dist.spikes) == 2
    assert dist.spikes[0].location == 0.25


@pytest.mark.parametrize(
    "text,needle",
    [
        ("base_seed = 1\nwidgets = 3\n", "widgets"),
        ("base_seed = 1\nbase_seed = 2\n", "duplicate"),
        ("regimes = secure_agg\n", "base_seed"),
        ("base_seed = 1\nregimes = banana\n", "regimes"),
        ("base_seed = 1\nnum_buckets = 0\n", "num_buckets"),
        ("base_seed = 1\nepsilons = -1\n", "epsilons"),
        ("base_seed = 1\nthresholds = 2.0\n", "thresholds"),
        ("base_seed = 1\njust a line\n", "key = value"),
        ("base_seed = 1\ntie_convention = maybe\n", "tie_convention"),
    ],
)
def test_parse_errors_name_the_problem(text, needle):
    with pytest.raises(SweepConfigError, match=needle):
        parse_sweep_config(text)


def test_empty_grid_produces_no_rows():
    config = SweepConfig(base_seed=1)
    assert run_sweep(config) == []


def tiny_config(**overrides):
    base = dict(
        base_seed=42,
        regimes=(Regime.SECURE_AGG,),
        num_examples=(200,),
        num_buckets=(5,),
        heights=(4,),
        thresholds=(0.3, 0.6),
        repetitions=2,
        eval_bins=10,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_row_cardinality_and_order():
    rows = run_sweep(tiny_config())
    # Each repetition: one AUC row, three P/R/A rows per threshold, one ECE.
    assert len(rows) == 2 * (1 + 2 * 3 + 1)
    per_cell = [
        ("auc", None),
        ("precision", 0.3),
        ("recall", 0.3),
        ("accuracy", 0.3),
        ("precision", 0.6),
        ("recall", 0.6),
        ("accuracy", 0.6),
        ("ece", None),
    ]
    observed = [(r.metric, r.threshold) for r in rows]
    assert observed == per_cell * 2
    for row in rows:
        assert row.regime is Regime.SECURE_AGG
        assert row.num_examples == 200
        assert row.num_buckets == 5
        assert row.height == 4
        assert row.epsilon is None
        assert row.wall_ms is None
        assert not row.degenerate
        assert row.abs_error is not None


def test_rows_are_deterministic():
    first = run_sweep(tiny_config())
    second = run_sweep(tiny_config())
    assert first == second
    timed = run_sweep(tiny_config(), timings=True)
    assert all(r.wall_ms is not None for r in timed)
    stripped = [
        (r.metric, r.threshold, r.estimate, r.exact, r.seed) for r in timed
    ]
    assert stripped == [
        (r.metric, r.threshold, r.estimate, r.exact, r.seed) for r in first
    ]


def test_cell_seeds_differ_per_repetition():
    rows = run_sweep(tiny_config())
    seeds = {r.seed for r in rows}
    assert len(seeds) == 2


def test_secure_agg_ece_exact_matches_estimate():
    rows = run_sweep(tiny_config())
    ece_rows = [r for r in rows if r.metric == "ece"]
    assert len(ece_rows) == 2
    for row in ece_rows:
        assert row.exact == row.estimate
        assert row.abs_error == 0.0


def test_epsilon_grid_under_secure_agg_collapses():
    config = tiny_config(epsilons=(0.5, 1.0), repetitions=1, thresholds=())
    rows = run_sweep(config)
    # secure_agg ignores the epsilon grid entirely.
    assert len(rows) == 2
    assert all(r.epsilon is None for r in rows)

    dp = tiny_config(
        regimes=(Regime.DIST_DP,),
        epsilons=(0.5, 1.0),
        repetitions=1,
        thresholds=(),
    )
    dp_rows = run_sweep(dp)
    assert [r.epsilon for r in dp_rows] == [0.5, 0.5, 1.0, 1.0]


def test_local_dp_with_tiny_population_degenerates():
    config = tiny_config(
        regimes=(Regime.LOCAL_DP,),
        num_examples=(5,),
        heights=(10,),
        epsilons=(5.0,),
        repetitions=1,
    )
    rows = run_sweep(config)
    assert len(rows) == 8
    for row in rows:
        assert row.degenerate
        assert row.estimate is None
        assert row.abs_error is None
    # Exact references still come from the raw sample where defined.
    auc_row = rows[0]
    assert auc_row.metric == "auc"
    assert auc_row.exact is not None


def test_data_file_overrides_generation(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    write_columns(path, rng.random(60), np.arange(60) % 3 != 0)
    config = tiny_config(
        data_path=str(path), num_examples=(999,), repetitions=1
    )
    rows = run_sweep(config)
    assert all(r.num_examples == 60 for r in rows)


def test_measure_ece_off_drops_rows():
    rows = run_sweep(tiny_config(measure_ece=False, repetitions=1))
    assert all(r.metric != "ece" for r in rows)
    assert len(rows) == 7


def test_config_validation():
    with pytest.raises(SweepConfigError):
        SweepConfig(base_seed=-1)
    with pytest.raises(SweepConfigError):
        SweepConfig(base_seed=1, thresholds=(1.5,))
    with pytest.raises(SweepConfigError):
        SweepConfig(base_seed=1, heights=(0,))
    with pytest.raises(SweepConfigError):
        SweepConfig(base_seed=1, eval_bins=0)


# Grids with a value that PrivacySpec rejects, and the message it gives.
BAD_GRIDS = [
    (
        "regimes = secure_agg, dist_dp\nnum_examples = 200000\n"
        "num_buckets = 10\nheights = 10, 30\nepsilons = 1.0\n",
        "more than 2\\*\\*26 leaves",
    ),
    (
        "regimes = secure_agg\nnum_examples = 200\nnum_buckets = 5\n"
        "heights = 4\nfanout = 1\n",
        "fanout must be >= 2",
    ),
    (
        "regimes = secure_agg, dist_dp\nnum_examples = 200\nnum_buckets = 5\n"
        "heights = 4\nepsilons = 1.0, 1e-300\n",
        "epsilon 1e-300 ",
    ),
    # A split policy or class balance that no cell could run.
    (
        "regimes = secure_agg\nnum_examples = 200\nnum_buckets = 5\n"
        "heights = 4\nsplit_policy = bogus\n",
        "split_policy: unknown split policy 'bogus'",
    ),
    (
        "regimes = secure_agg\nnum_examples = 200\nnum_buckets = 5\n"
        "heights = 4\nsplit_policy = variable:0\n",
        "split_policy: mean shard size must be",
    ),
    (
        "regimes = secure_agg\nnum_examples = 200\nnum_buckets = 5\n"
        "heights = 4\nsplit_policy = skewed:2\n",
        "split_policy: skew fraction must be in",
    ),
    (
        "regimes = secure_agg\nnum_examples = 200\nnum_buckets = 5\n"
        "heights = 4\nclass_balance = 1.5\n",
        "class_balance must lie in \\[0, 1\\], got 1.5",
    ),
    (
        # A data file replaces the sampled population, but the key is
        # still checked; the file is never read.
        "regimes = secure_agg\nnum_buckets = 5\nheights = 4\n"
        "data = no-such-file.csv\nclass_balance = nan\n",
        "class_balance must lie in \\[0, 1\\], got nan",
    ),
]


@pytest.mark.parametrize(
    "grid,needle",
    BAD_GRIDS,
    ids=[
        "height_30", "fanout_1", "epsilon_1e-300", "split_bogus",
        "split_variable_0", "split_skewed_2", "class_balance_1.5",
        "class_balance_nan_with_data",
    ],
)
def test_bad_grid_is_a_config_error_before_any_cell(grid, needle, tmp_path, capsys):
    # The earlier cells of each grid are valid; the whole sweep is
    # rejected before the first of them runs.
    text = f"base_seed = 1\n{grid}"
    with pytest.raises(SweepConfigError, match=needle):
        parse_sweep_config(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fedeval: config error:")


def test_empty_population_is_degenerate_under_every_split_policy(tmp_path, capsys):
    # Zero examples split into zero clients whatever the policy, so
    # every policy writes the same degenerate rows.
    outputs = []
    for policy in ("one_per_client", "skewed:0.5", "variable:3"):
        path = tmp_path / "empty.cfg"
        path.write_text(
            "base_seed = 4\nregimes = secure_agg, dist_dp, local_dp\n"
            "num_examples = 0\nnum_buckets = 4\nheights = 3\nepsilons = 1.0\n"
            f"thresholds = 0.5\nsplit_policy = {policy}\n"
        )
        assert main(["sweep", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    rows = [line for line in outputs[0].splitlines() if '"metric"' in line]
    assert len(rows) == 3 * 5
    assert all('"degenerate": true' in line for line in rows)


# -- concurrent callers and the local-DP shard check -----------------------

SHARD_ERROR = "local DP accepts at most one example per client shard"


def local_multi_config(base_seed):
    """Local DP over a split whose shards may hold several examples."""
    return SweepConfig(
        base_seed=base_seed,
        regimes=(Regime.LOCAL_DP,),
        num_examples=(16,),
        num_buckets=(10,),
        heights=(10,),
        epsilons=(5.0,),
        split_policy="variable:1.5",
    )


def test_concurrent_sweeps_return_identical_rows():
    # Four sweeps at once on a short switch interval: any state that
    # calls shared, such as a buffer cached on a tree, would show in
    # the rows.
    config = tiny_config(
        regimes=(Regime.SECURE_AGG, Regime.DIST_DP, Regime.LOCAL_DP),
        num_examples=(2000,),
        heights=(6,),
        epsilons=(1.0,),
    )
    expected = run_sweep(config)
    start = threading.Barrier(4)

    def sweep_after_barrier():
        start.wait(timeout=60)
        return run_sweep(config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(sweep_after_barrier) for _ in range(4)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert all(rows == expected for rows in results)


def test_local_dp_multi_example_split_raises_whatever_its_client_count():
    spec = PrivacySpec(Regime.LOCAL_DP, 5.0, height=10)
    scores, positive = sample_population(16, ScoreDistribution(), 0.5, 0)
    few_clients = 0
    for seed in range(300):
        split_ss, pos_ss, neg_ss = np.random.SeedSequence(seed).spawn(3)
        clients = split_population(scores, positive, "variable:1.5", split_ss)
        if clients.sizes().max() <= 1:
            continue
        few_clients += len(clients) < spec.height
        with pytest.raises(ValueError, match=SHARD_ERROR):
            evaluate_population(
                scores, positive, spec, 10, "variable:1.5", (),
                (split_ss, pos_ss, neg_ss),
            )
    # Splits with fewer clients than levels used to give degenerate rows.
    assert few_clients > 0


@pytest.mark.parametrize("base_seed", [0, 9, 20, 27])
def test_local_dp_multi_example_sweep_raises(base_seed):
    # Seeds 9, 20 and 27 used to return all-degenerate rows.
    with pytest.raises(ValueError, match=SHARD_ERROR):
        run_sweep(local_multi_config(base_seed))


def test_ece_record_gives_one_row_for_the_same_four_seeds(monkeypatch):
    # The held-out fit takes its permutation, split, positive and
    # negative seeds from the caller and spawns none, so the same four
    # seeds give the same row on every call, with the second seed going
    # to the split; other seeds give another row.
    split_keys = []

    def recording_split(*args):
        split_keys.append(args[-1].spawn_key)
        return split_population(*args)

    monkeypatch.setattr(sweep, "split_population", recording_split)
    scores, positive = sample_population(2000, ScoreDistribution(), 0.5, 4)
    spec = PrivacySpec(regime=Regime.SECURE_AGG, height=8)
    seeds = np.random.SeedSequence(5).spawn(4)
    rows = [
        _ece_record(scores, positive, spec, 10, "one_per_client", 10, seeds)
        for _ in range(2)
    ]
    assert all(seed.n_children_spawned == 0 for seed in seeds)
    fresh = _ece_record(
        scores, positive, spec, 10, "one_per_client", 10,
        np.random.SeedSequence(5).spawn(4),
    )
    assert rows[0] == rows[1] == fresh
    other = _ece_record(
        scores, positive, spec, 10, "one_per_client", 10,
        np.random.SeedSequence(6).spawn(4),
    )
    assert other[2] != fresh[2]
    assert split_keys == [(1,)] * 4
