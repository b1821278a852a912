"""Command line behavior: exit codes, output schema, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedeval
from fedeval.cli import main


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scores.csv"
    code = main([
        "gen-data", "--out", str(path),
        "--num-examples", "120", "--seed", "7",
    ])
    assert code == 0
    return str(path)


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "gen-data" in err
    assert "evaluate" in err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bananas"])
    assert excinfo.value.code == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_argument_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--data", "x.csv", "--regime", "secure_agg",
              "--seed", "1"])
    assert excinfo.value.code == 1


def test_unknown_regime_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--data", "x.csv", "--regime", "plaintext",
              "--buckets", "4", "--seed", "1"])
    assert excinfo.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_gen_data_writes_csv(tmp_path, capsys):
    out = tmp_path / "gen.csv"
    code = main([
        "gen-data", "--out", str(out), "--num-examples", "50",
        "--balance", "0.3", "--spike", "0.5:0.2:0.0", "--seed", "3",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "score,label"
    assert len(lines) == 51
    assert "wrote 50 examples" in capsys.readouterr().err


def test_gen_data_bad_spike_exits_one(tmp_path, capsys):
    code = main([
        "gen-data", "--out", str(tmp_path / "x.csv"),
        "--num-examples", "10", "--spike", "0.5:0.2", "--seed", "3",
    ])
    assert code == 1
    assert "spike" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, needle",
    [
        ("--pos-slope", "nan", "positive_slope=nan"),
        ("--neg-slope", "inf", "negative_slope=inf"),
        ("--spike", "0.5:nan:0.1", "got nan"),
    ],
)
def test_gen_data_rejects_non_finite_parameters(tmp_path, capsys, flag, value, needle):
    out = tmp_path / "x.csv"
    code = main([
        "gen-data", "--out", str(out), "--num-examples", "10",
        flag, value, "--seed", "3",
    ])
    assert code == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_negative_count_exits_one(tmp_path, capsys):
    code = main([
        "gen-data", "--out", str(tmp_path / "x.csv"),
        "--num-examples", "-4", "--seed", "3",
    ])
    assert code == 1


def test_evaluate_secure_agg_output_schema(data_csv, capsys):
    code = main([
        "evaluate", "--data", data_csv, "--regime", "secure_agg",
        "--height", "6", "--buckets", "8",
        "--threshold", "0.3", "--threshold", "0.7", "--seed", "11",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == '{"schema_version": "1"}'
    rows = [json.loads(line) for line in lines[1:]]
    assert [r["metric"] for r in rows] == [
        "auc",
        "precision", "recall", "accuracy",
        "precision", "recall", "accuracy",
    ]
    auc = rows[0]
    assert auc["regime"] == "secure_agg"
    assert auc["M"] == 120
    assert auc["B"] == 8
    assert auc["h"] == 6
    assert auc["epsilon"] is None
    assert auc["seed"] == 11
    assert auc["wall_ms"] is None
    assert 0.0 <= auc["estimate"] <= 1.0
    assert auc["abs_error"] <= auc["advertised_uncertainty"]
    assert rows[1]["threshold"] == 0.3
    assert rows[4]["threshold"] == 0.7


def test_evaluate_dist_dp_default_epsilon(data_csv, capsys):
    code = main([
        "evaluate", "--data", data_csv, "--regime", "dist_dp",
        "--height", "5", "--buckets", "4", "--seed", "2",
    ])
    assert code == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()[1:]]
    assert all(r["epsilon"] == 1.0 for r in rows)


def test_evaluate_local_dp_default_epsilon(data_csv, capsys):
    code = main([
        "evaluate", "--data", data_csv, "--regime", "local_dp",
        "--height", "5", "--buckets", "4", "--seed", "2",
    ])
    assert code == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()[1:]]
    assert all(r["epsilon"] == 5.0 for r in rows)


def test_evaluate_local_dp_insufficient_population_degenerates(
    tmp_path, capsys
):
    path = tmp_path / "tiny.csv"
    path.write_text("score,label\n0.2,0\n0.8,1\n")
    code = main([
        "evaluate", "--data", str(path), "--regime", "local_dp",
        "--height", "10", "--buckets", "4", "--threshold", "0.5",
        "--seed", "1",
    ])
    assert code == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()[1:]]
    assert all(r["degenerate"] for r in rows)
    assert all(r["estimate"] is None for r in rows)
    assert rows[0]["exact"] == 1.0


def test_evaluate_rejects_zero_buckets_whatever_the_data(tmp_path, capsys):
    # Too few clients for local DP: no histogram is cut, yet the flag
    # is still checked.
    path = tmp_path / "tiny.csv"
    path.write_text("score,label\n0.2,0\n0.8,1\n")
    code = main([
        "evaluate", "--data", str(path), "--regime", "local_dp",
        "--buckets", "0", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "fedeval: error: --buckets must be >= 1, got 0\n"


def test_evaluate_rejects_epsilon_for_secure_agg(data_csv, capsys):
    code = main([
        "evaluate", "--data", data_csv, "--regime", "secure_agg",
        "--epsilon", "1.0", "--buckets", "4", "--seed", "1",
    ])
    assert code == 1
    assert "secure_agg" in capsys.readouterr().err


def test_evaluate_rejects_out_of_range_threshold(data_csv, capsys):
    code = main([
        "evaluate", "--data", data_csv, "--regime", "secure_agg",
        "--buckets", "4", "--threshold", "1.5", "--seed", "1",
    ])
    assert code == 1


def test_evaluate_missing_data_file_exits_two(tmp_path, capsys):
    code = main([
        "evaluate", "--data", str(tmp_path / "nope.csv"),
        "--regime", "secure_agg", "--buckets", "4", "--seed", "1",
    ])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_evaluate_malformed_csv_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("score,label\n0.5,7\n")
    code = main([
        "evaluate", "--data", str(path), "--regime", "secure_agg",
        "--buckets", "4", "--seed", "1",
    ])
    assert code == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["variable:nan", "variable:inf"])
def test_evaluate_rejects_non_finite_shard_size(data_csv, capsys, policy):
    code = main([
        "evaluate", "--data", data_csv, "--regime", "secure_agg",
        "--buckets", "4", "--split", policy, "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "fedeval: error: mean shard size must be a finite number of at "
        f"least 1, got {policy.partition(':')[2]}\n"
    )


def test_evaluate_is_byte_stable(data_csv, capsys):
    argv = [
        "evaluate", "--data", data_csv, "--regime", "dist_dp",
        "--epsilon", "2.0", "--height", "6", "--buckets", "8",
        "--threshold", "0.4", "--seed", "9",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(argv[:-1] + ["10"]) == 0
    assert capsys.readouterr().out != first


@pytest.mark.parametrize("command", ["evaluate", "calibrate"])
def test_more_buckets_than_leaves_match_one_per_leaf(data_csv, capsys, command):
    # 10**12 buckets on 2**6 leaves cut every leaf, as 2**6 + 1 do; no
    # B-sized array may be formed on the way.
    outputs = []
    for buckets in (2**6 + 1, 10**12):
        code = main([
            command, "--data", data_csv, "--regime", "dist_dp",
            "--height", "6", "--buckets", str(buckets), "--seed", "5",
        ])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for row in rows:
            assert row.pop("B", buckets) == buckets
        outputs.append(rows)
    assert outputs[0] == outputs[1]


def test_sweep_runs_config(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "base_seed = 5\n"
        "regimes = secure_agg, dist_dp\n"
        "num_examples = 150\n"
        "num_buckets = 4\n"
        "heights = 4\n"
        "epsilons = 1.0\n"
        "thresholds = 0.5\n"
        "repetitions = 1\n"
    )
    assert main(["sweep", "--config", str(config)]) == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert lines[0] == '{"schema_version": "1"}'
    rows = [json.loads(l) for l in lines[1:]]
    # Two cells of auc + three threshold metrics + ece.
    assert len(rows) == 10
    assert {r["regime"] for r in rows} == {"secure_agg", "dist_dp"}
    assert main(["sweep", "--config", str(config)]) == 0
    assert capsys.readouterr().out == first


def test_sweep_bad_config_key_exits_one(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("base_seed = 1\nwidgets = 2\n")
    assert main(["sweep", "--config", str(config)]) == 1
    assert "widgets" in capsys.readouterr().err


def test_sweep_missing_config_exits_two(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_calibrate_fixed_buckets_output(data_csv, capsys):
    code = main([
        "calibrate", "--data", data_csv, "--regime", "secure_agg",
        "--height", "6", "--buckets", "6", "--seed", "13",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == '{"schema_version": "1"}'
    doc = json.loads(lines[1])
    assert set(doc) == {"calibration_map", "ece_report"}
    cal = doc["calibration_map"]
    assert cal["weights"] == [1.0]
    assert len(cal["binnings"]) == 1
    boundaries = cal["binnings"][0]["boundaries"]
    values = cal["binnings"][0]["values"]
    assert boundaries[0] == 0.0 and boundaries[-1] == 1.0
    assert len(values) == len(boundaries) - 1
    assert all(0.0 <= v <= 1.0 for v in values)
    report = doc["ece_report"]
    assert report["num_bins"] == 20
    assert len(report["bin_mass"]) == 20
    assert report["ece"] == pytest.approx(
        sum(
            m * abs(o - p)
            for m, o, p in zip(
                report["bin_mass"], report["observed"], report["predicted"]
            )
        )
    )


def test_calibrate_bbq_mixes_binnings(data_csv, capsys):
    code = main([
        "calibrate", "--data", data_csv, "--regime", "secure_agg",
        "--height", "6", "--bbq", "--eval-bins", "10", "--seed", "13",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[1])
    cal = doc["calibration_map"]
    assert len(cal["binnings"]) > 1
    assert sum(cal["weights"]) == pytest.approx(1.0)
    assert doc["ece_report"]["num_bins"] == 10


def test_calibrate_requires_bucket_choice(data_csv, capsys):
    code = main([
        "calibrate", "--data", data_csv, "--regime", "secure_agg",
        "--seed", "13",
    ])
    assert code == 1
    assert "--buckets" in capsys.readouterr().err


def test_calibrate_needs_four_examples(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("score,label\n0.2,0\n0.8,1\n0.5,1\n")
    code = main([
        "calibrate", "--data", str(path), "--regime", "secure_agg",
        "--buckets", "2", "--seed", "1",
    ])
    assert code == 1
    assert "4 examples" in capsys.readouterr().err
    # Without a bucket choice that usage error comes first.
    code = main([
        "calibrate", "--data", str(path), "--regime", "secure_agg", "--seed", "1",
    ])
    assert code == 1
    assert "--buckets is required" in capsys.readouterr().err


@pytest.mark.parametrize("prior", ["5", "-1", "nan"])
def test_calibrate_bbq_rejects_prior_outside_unit_interval(data_csv, capsys, prior):
    code = main([
        "calibrate", "--data", data_csv, "--regime", "dist_dp", "--bbq",
        "--prior", prior, "--seed", "13",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"fedeval: error: prior must be in [0, 1], got {float(prior)}\n"
    )


@pytest.mark.parametrize("seed", range(8))
def test_calibrate_bbq_with_non_positive_noisy_population(tmp_path, capsys, seed):
    # At epsilon 0.01 the noisy population total of six examples is often
    # at or below 0; BBQ then keeps one bucket and falls back to the prior.
    path = tmp_path / "six.csv"
    assert main([
        "gen-data", "--out", str(path), "--num-examples", "6", "--seed", "3",
    ]) == 0
    capsys.readouterr()
    code = main([
        "calibrate", "--data", str(path), "--regime", "dist_dp",
        "--epsilon", "0.01", "--height", "4", "--bbq", "--seed", str(seed),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out.splitlines()[1])["ece_report"]
    assert 0.0 <= report["ece"] <= 1.0


def test_calibrate_bbq_mixture_stays_a_probability(tmp_path, capsys):
    # On this seed the BBQ weights sum to 1 + 2**-52 and every binning
    # maps some held-out score to 1.0.
    path = tmp_path / "spiky.csv"
    assert main([
        "gen-data", "--out", str(path), "--num-examples", "50000",
        "--spike", "0.5:0.1:0.05", "--seed", "326899412",
    ]) == 0
    capsys.readouterr()
    code = main([
        "calibrate", "--data", str(path), "--regime", "dist_dp", "--bbq",
        "--seed", "1046511682",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out.splitlines()[1])["ece_report"]
    assert all(0.0 <= p <= 1.0 for p in report["predicted"])
    assert 0.0 <= report["ece"] <= 1.0


@pytest.mark.parametrize(
    "regime, epsilon, expected_code",
    [
        ("local_dp", "800", 0),
        ("local_dp", "1e300", 0),
        ("local_dp", "1e-17", 1),
        ("dist_dp", "1e-17", 1),
        ("dist_dp", "1e300", 1),
    ],
)
def test_evaluate_epsilon_extremes_exit_cleanly(
    data_csv, capsys, regime, epsilon, expected_code
):
    code = main([
        "evaluate", "--data", data_csv, "--regime", regime,
        "--epsilon", epsilon, "--height", "5", "--buckets", "4",
        "--threshold", "0.5", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == expected_code
    assert "Traceback" not in captured.err
    if code == 0:
        rows = [json.loads(line) for line in captured.out.splitlines()[1:]]
        assert rows and all(r["epsilon"] == float(epsilon) for r in rows)
    else:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("fedeval: error: epsilon ")
        assert repr(float(epsilon)) in lines[0]


SECURE = ["--regime", "secure_agg", "--seed", "1"]
LOCAL = ["--regime", "local_dp", "--seed", "1"]
EVALUATE = ["evaluate", "--data", "{data}", *SECURE, "--buckets", "4"]


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        pytest.param(["evaluate", "--data", "{dir}", *SECURE, "--buckets", "4"], 2,
                     id="data-is-a-directory"),
        pytest.param(["evaluate", "--data", "{binary}", *SECURE, "--buckets", "4"], 2,
                     id="evaluate-non-utf8-csv"),
        pytest.param(["calibrate", "--data", "{binary}", *SECURE, "--buckets", "4"], 2,
                     id="calibrate-non-utf8-csv"),
        pytest.param(["evaluate", "--data", "{data}", *SECURE, "--buckets", "0"], 1,
                     id="buckets-0"),
        pytest.param([*EVALUATE, "--height", "0"], 1, id="height-0"),
        pytest.param([*EVALUATE, "--fanout", "1"], 1, id="fanout-1"),
        pytest.param([*EVALUATE, "--height", "40"], 1, id="height-40"),
        pytest.param([*EVALUATE, "--height", "5000"], 1, id="height-5000"),
        pytest.param([*EVALUATE, "--height", "100000"], 1, id="height-100000"),
        pytest.param(["calibrate", "--data", "{data}", *SECURE, "--buckets", "4",
                      "--eval-bins", "0"], 1, id="eval-bins-0"),
        pytest.param([*EVALUATE, "--split", "banana"], 1, id="unknown-split"),
        pytest.param(["evaluate", "--data", "{data}", *LOCAL, "--buckets", "4",
                      "--split", "variable:3"], 1, id="evaluate-local-dp-shards"),
        pytest.param(["calibrate", "--data", "{data}", *LOCAL, "--buckets", "4",
                      "--split", "variable:3"], 1, id="calibrate-local-dp-shards"),
        pytest.param(["gen-data", "--out", "{out}", "--num-examples", "5",
                      "--seed", "-1"], 1, id="gen-data-seed-negative"),
        pytest.param(["evaluate", "--data", "{data}", "--regime", "secure_agg",
                      "--buckets", "4", "--seed", "-1"], 1,
                     id="evaluate-seed-negative"),
        pytest.param(["calibrate", "--data", "{data}", "--regime", "secure_agg",
                      "--buckets", "4", "--seed", "-1"], 1,
                     id="calibrate-seed-negative"),
        pytest.param(["sweep", "--config", "{binary}"], 1, id="sweep-non-utf8-config"),
        # An 8 PB request that fails at once, without touching memory.
        pytest.param(["gen-data", "--out", "{out}", "--num-examples", str(10**15),
                      "--seed", "1"], 1, id="gen-data-out-of-memory"),
    ],
)
def test_failure_paths_exit_with_one_message(
    data_csv, tmp_path, capsys, argv, expected_code
):
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"score,label\n0.5,1\n\xd0\x00\xff,1\n")
    paths = {
        "data": data_csv, "dir": str(tmp_path), "binary": str(binary),
        "out": str(tmp_path / "out.csv"),
    }
    try:
        code = main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("fedeval")
    if "--seed" in argv and argv[argv.index("--seed") + 1] == "-1":
        assert "argument --seed" in captured.err
    if "{binary}" in argv:
        kind = "config" if argv[0] == "sweep" else "data"
        assert f"{kind} error: {binary}: " in captured.err
    if "--height" in argv:
        # The message names the parameter, not the f**h it would form.
        last = captured.err.splitlines()[-1]
        assert "height" in last and argv[argv.index("--height") + 1] in last
        assert len(last) < 200


@pytest.mark.parametrize("kind", ["sweep-config", "data"])
def test_utf8_inputs_are_read_whatever_the_locale(tmp_path, kind):
    # Under the C locale without UTF-8 mode, Python's default text
    # encoding is ASCII; files are documented as UTF-8 regardless.
    if kind == "sweep-config":
        config = tmp_path / "grid.cfg"
        config.write_bytes(
            "# café\nbase_seed = 3\nregimes = secure_agg\nnum_examples = 40\n"
            "num_buckets = 4\nheights = 4\nrepetitions = 1\n".encode("utf-8")
        )
        argv = ["sweep", "--config", str(config)]
    else:
        data = tmp_path / "scores.csv"
        data.write_bytes("score,label\n0.2,0\n\u30000.8\u3000,1\n".encode("utf-8"))
        argv = ["evaluate", "--data", str(data), "--regime", "secure_agg",
                "--buckets", "2", "--height", "4", "--seed", "1"]
    env = dict(
        os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
        PYTHONPATH=str(Path(fedeval.__file__).resolve().parent.parent),
    )
    env.pop("PYTHONIOENCODING", None)
    result = subprocess.run(
        [sys.executable, "-m", "fedeval", *argv],
        capture_output=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().splitlines()[0] == '{"schema_version": "1"}'


SCIPY_FREE_RUN = """
import contextlib, io, sys
import fedeval
from fedeval.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

data, config = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["gen-data", "--out", data, "--num-examples", "300",
                 "--seed", "3"]) == 0
    for regime in ("secure_agg", "dist_dp", "local_dp"):
        assert main(["evaluate", "--data", data, "--regime", regime,
                     "--buckets", "8", "--height", "6", "--seed", "1"]) == 0
    assert main(["calibrate", "--data", data, "--regime", "dist_dp",
                 "--buckets", "8", "--height", "6", "--seed", "1"]) == 0
    assert main(["sweep", "--config", config]) == 0
    assert main(["calibrate", "--data", data, "--regime", "dist_dp",
                 "--bbq", "--height", "6", "--seed", "1"]) == 0
assert loaded() == [], loaded()
"""


def test_no_command_loads_scipy(tmp_path):
    # scipy costs more to import than fedeval and numpy together, and
    # BBQ's evidence runs on numpy alone. A fresh interpreter shows what
    # the package and every command path import.
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "base_seed = 2\nregimes = dist_dp\nnum_examples = 200\n"
        "num_buckets = 4\nheights = 5\nepsilons = 1.0\nrepetitions = 1\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fedeval.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path / "scores.csv"), str(config)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
