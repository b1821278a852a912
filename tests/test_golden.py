"""Output bytes pinned against recorded digests, and list/array agreement.

The digests were recorded with numpy 2.4.6 before the pipelines moved
from per-example objects to score/label arrays; any change to them is a
change of the random streams or of the output format and must be
announced. Criterion 12 only compares two runs of the same code, so it
cannot catch such a change on its own. The local_dp digests (the
one_per_client sweep, sweep-data, evaluate-local_dp and calibrate-bbq)
were re-recorded when local-DP prefixes became level-order sums of node
values instead of differences of running sums: a change at the last
bits of the float results, with no random stream changed. The three
evaluate digests and sweep-data were re-recorded when the exact
precision, recall and accuracy moved to the closure score >= threshold
that the histogram estimate reads; no estimate changed.

The list functions (gen_well_behaved, split_to_clients) wrap the array
code, with each example a plain (score, positive) tuple. The list form
stops at split_to_clients, which splits only one example per client and
returns the same columns and offsets as split_population; the property
tests check that and that the trees built from both are bitwise equal.
Every other policy splits columns, and the policies are checked against
literal per-example loops.
"""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedeval import Label, PrivacySpec, Regime, ScoreDistribution, Spike
from fedeval.cli import main
from fedeval.core import ClientSplit, as_arrays, as_examples
from fedeval.datagen import (
    gen_well_behaved,
    sample_population,
    split_population,
    split_to_clients,
)
from fedeval.hierarchy import build_hierarchy
from fedeval.io import row_to_json
from fedeval.sweep import SweepConfig, run_sweep

from tree_levels import level_views

POLICIES = ("one_per_client", "skewed:0.3", "variable:4")

# Secure aggregation and distributed DP do not depend on how the data is
# split into clients (criterion 11), so their three digests coincide:
# the dist_dp noise is drawn from alpha alone, whatever the client count
# (test_dist_dp_does_not_depend_on_the_client_split in test_hierarchy.py).
SWEEP_DIGESTS = {
    ("secure_agg", "one_per_client"):
        "fc8035ec31b5f9b44eafdfbbc16a8e3a294fc0184e97c84a4b4a7f37b56e3e68",
    ("secure_agg", "skewed:0.3"):
        "fc8035ec31b5f9b44eafdfbbc16a8e3a294fc0184e97c84a4b4a7f37b56e3e68",
    ("secure_agg", "variable:4"):
        "fc8035ec31b5f9b44eafdfbbc16a8e3a294fc0184e97c84a4b4a7f37b56e3e68",
    ("dist_dp", "one_per_client"):
        "70b775ebeaeb638267d676bb8725996eb960d5664fc47dd9cdaa83aea824ce5f",
    ("dist_dp", "skewed:0.3"):
        "70b775ebeaeb638267d676bb8725996eb960d5664fc47dd9cdaa83aea824ce5f",
    ("dist_dp", "variable:4"):
        "70b775ebeaeb638267d676bb8725996eb960d5664fc47dd9cdaa83aea824ce5f",
    ("local_dp", "one_per_client"):
        "d0faaa728296c1163d52b65b64a04c07a274f059b6809e70c36d67e17caaa9d5",
    ("local_dp", "skewed:0.3"):
        "654ed7b385b1592940c30672ad3944817025f3d621fb15e69ba2cf3a5786c04d",
    ("local_dp", "variable:4"):
        "92efc7b6aa9fd02da345c051ef2ab7d79df22713139c1a12db519b8beadb5f89",
}

CLI_DIGESTS = {
    "gen-data":
        "7860e132684ca9e4ce541db86cf652ad6456555fd784781ca5d929b4c19fb254",
    "sweep-data":
        "0fe3ac9d2bfe3947fd09ccee4ad35d70b784e2a80560aecc692100fb316edaa8",
    "evaluate-secure_agg":
        "81a4b17687cb86b9a0ab6cf45c3226fe6392c790d8db84c9f09747f6090f39f1",
    "evaluate-dist_dp":
        "2675a13f8d3dc37327d6335fb3491edbd08aba8349ea5facea59523ae05c9d06",
    "evaluate-local_dp":
        "a58c08a7d5ee9adc27b3d92d976212b170f66800176c2ab8d896827fc9d6bd96",
    "calibrate-fixed":
        "227e5f81a8d11b70b4dab60d8a56c2e2ff3c02217f6d66a3c22db8cf0d941dda",
    "calibrate-bbq":
        "39afddc682fbc2cad9b60a9c5ed52e26df376bf80220918a10bfe9a75206c415",
}

SPIKY = ScoreDistribution(spikes=(Spike(0.5, 0.1, 0.05), Spike(0.9, 0.05, 0.0)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_bytes(config: SweepConfig) -> bytes:
    """The sweep's JSON lines, or the message of the error it raised."""
    try:
        rows = run_sweep(config)
    except ValueError as exc:
        return f"error: {exc}\n".encode()
    return "".join(row_to_json(row) + "\n" for row in rows).encode()


def run_cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "scores.csv"
    run_cli([
        "gen-data", "--out", str(path), "--num-examples", "1500",
        "--balance", "0.4", "--spike", "0.5:0.1:0.05", "--seed", "21",
    ])
    return path


@pytest.mark.parametrize("regime", [r.value for r in Regime])
@pytest.mark.parametrize("policy", POLICIES)
def test_sweep_bytes_match_recorded_digest(regime, policy):
    config = SweepConfig(
        base_seed=17,
        regimes=(Regime(regime),),
        num_examples=(9, 600, 2000),
        num_buckets=(10, 30),
        heights=(3, 8),
        epsilons=(0.5, 4.0),
        thresholds=(0.3, 0.7),
        split_policy=policy,
        class_balance=0.4,
        distribution=SPIKY,
    )
    assert sha256(sweep_bytes(config)) == SWEEP_DIGESTS[regime, policy]


def cli_outputs(data_csv) -> dict[str, bytes]:
    data = str(data_csv)
    outputs = {"gen-data": data_csv.read_bytes()}
    config = data_csv.parent / "sweep.cfg"
    config.write_text(
        f"base_seed = 3\nregimes = secure_agg, dist_dp, local_dp\n"
        f"num_buckets = 12\nheights = 6\nepsilons = 2.0\nthresholds = 0.5\n"
        f"repetitions = 2\ndata = {data}\n"
    )
    outputs["sweep-data"] = run_cli(["sweep", "--config", str(config)])
    for regime, split in (
        ("secure_agg", "variable:4"),
        ("dist_dp", "skewed:0.3"),
        ("local_dp", "one_per_client"),
    ):
        outputs[f"evaluate-{regime}"] = run_cli([
            "evaluate", "--data", data, "--regime", regime, "--split", split,
            "--height", "7", "--buckets", "16", "--threshold", "0.3",
            "--threshold", "0.5", "--seed", "5",
        ])
    outputs["calibrate-fixed"] = run_cli([
        "calibrate", "--data", data, "--regime", "dist_dp", "--split",
        "variable:4", "--height", "8", "--buckets", "15", "--seed", "8",
    ])
    outputs["calibrate-bbq"] = run_cli([
        "calibrate", "--data", data, "--regime", "local_dp", "--height", "6",
        "--bbq", "--seed", "9",
    ])
    return outputs


def test_cli_bytes_match_recorded_digests(data_csv):
    digests = {name: sha256(out) for name, out in cli_outputs(data_csv).items()}
    assert digests == CLI_DIGESTS


@st.composite
def populations(draw):
    """(height, num_examples) with M often at the edges 0, 1 and h - 1."""
    height = draw(st.integers(1, 5))
    num_examples = draw(
        st.sampled_from([0, 1, height - 1]) | st.integers(0, 80)
    )
    return height, num_examples


def outcome(call):
    """A call's result, or the type and message of the ValueError it raised."""
    try:
        return call(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def reference_split(examples, policy, seed):
    """Reference: the split policies as literal per-example loops."""
    if policy == "one_per_client":
        return [[example] for example in examples]
    name, _, arg = policy.partition(":")
    value = float(arg)
    if name == "variable":
        rng = np.random.default_rng(seed)
        shards, start = [], 0
        while start < len(examples):
            size = min(int(rng.geometric(1.0 / value)), len(examples) - start)
            shards.append(list(examples[start : start + size]))
            start += size
        return shards
    positives = [e for e in examples if e[1]]
    negatives = [e for e in examples if not e[1]]
    num_shards = len(examples)
    hot = min(num_shards, math.ceil(value * num_shards))
    hot_pos = min(len(positives), math.ceil(value * len(positives)))
    shards = [[] for _ in range(num_shards)]
    for j, example in enumerate(positives[:hot_pos]):
        shards[j % hot].append(example)
    cold = num_shards - hot
    for j, example in enumerate(positives[hot_pos:] + negatives):
        shards[hot + j % cold if cold > 0 else j % num_shards].append(example)
    return shards


def client_rows(clients: ClientSplit):
    bounds = clients.offsets.tolist()
    examples = as_examples(clients.scores, clients.positive)
    return [examples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def assert_same_hierarchy(a, b):
    assert len(level_views(a)) == len(level_views(b))
    for left, right in zip(level_views(a), level_views(b)):
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()
    assert a.level_variances == b.level_variances
    assert a.population_total == b.population_total


@given(
    population=populations(),
    policy=st.sampled_from(POLICIES + ("skewed:1", "variable:1.5")),
    regime=st.sampled_from(list(Regime)),
    balance=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_and_list_paths_agree(population, policy, regime, balance, seed):
    height, num_examples = population
    scores, positive = sample_population(num_examples, SPIKY, balance, seed)
    examples = gen_well_behaved(num_examples, SPIKY, balance, seed)
    listed = as_arrays(examples)
    assert listed[0].tobytes() == scores.tobytes()
    assert listed[1].tobytes() == positive.tobytes()

    clients, split_error = outcome(
        lambda: split_population(scores, positive, policy, seed + 1)
    )
    if split_error is None:
        assert client_rows(clients) == reference_split(examples, policy, seed + 1)

    # The list form ends at split_to_clients: from there on the list
    # and the column populations are the same columns.
    columns = split_population(scores, positive, "one_per_client")
    from_list = split_to_clients(as_examples(scores, positive), "one_per_client")
    for name in ("scores", "positive", "offsets"):
        left, right = getattr(from_list, name), getattr(columns, name)
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()

    epsilon = None if regime is Regime.SECURE_AGG else 2.0
    spec = PrivacySpec(regime=regime, epsilon=epsilon, height=height)
    for label, label_seed in ((Label.POSITIVE, seed + 2), (Label.NEGATIVE, seed + 3)):
        tree, error = outcome(lambda: build_hierarchy(columns, label, spec, label_seed))
        listed_tree, listed_error = outcome(
            lambda: build_hierarchy(from_list, label, spec, label_seed)
        )
        assert listed_error == error
        if error is None:
            assert_same_hierarchy(listed_tree, tree)


@pytest.mark.parametrize("num_examples", [1, 2, 7, 40, 333])
@pytest.mark.parametrize("policy", POLICIES + ("skewed:1", "variable:1.5"))
def test_splits_match_the_reference_loops(num_examples, policy):
    examples = gen_well_behaved(num_examples, SPIKY, 0.3, num_examples)
    scores, positive = as_arrays(examples)
    expected = reference_split(examples, policy, 9)
    assert client_rows(split_population(scores, positive, policy, 9)) == expected
    if policy == "one_per_client":
        assert client_rows(split_to_clients(examples, policy, 9)) == expected


def test_as_arrays_round_trip():
    examples = [(0.25, True), (0.75, False)]
    scores, flags = as_arrays(examples)
    assert scores.tolist() == [0.25, 0.75]
    assert flags.tolist() == [True, False]
    assert scores.dtype == np.float64 and flags.dtype == bool
    assert as_examples(scores, flags) == examples


def test_local_dp_rejects_multi_example_clients():
    scores, positive = sample_population(40, SPIKY, 0.5, 4)
    spec = PrivacySpec(regime=Regime.LOCAL_DP, epsilon=1.0, height=3)
    message = "local DP accepts at most one example per client shard, shard"
    for policy in ("skewed:0.3", "variable:4"):
        clients = split_population(scores, positive, policy, 5)
        with pytest.raises(ValueError, match=message):
            build_hierarchy(clients, Label.POSITIVE, spec, 6)


@pytest.mark.parametrize("policy", ["skewed:0.3", "variable:4"])
def test_list_split_runs_only_the_identity_split(policy):
    examples = gen_well_behaved(12, SPIKY, 0.5, 3)
    with pytest.raises(ValueError, match="split_population") as info:
        split_to_clients(examples, policy, 5)
    assert policy in str(info.value)


def test_one_per_client_split_shares_the_columns():
    scores, positive = sample_population(10, SPIKY, 0.5, 1)
    clients = split_population(scores, positive, "one_per_client")
    assert clients.scores is scores and clients.positive is positive
    assert clients.offsets.tolist() == list(range(11))
    assert np.array_equal(clients.sizes(), np.ones(10))
