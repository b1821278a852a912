"""Tests of the benchmark itself: metric names, checks and the tracer.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import TARGETS  # noqa: E402
from tracer import Target, Tracer, self_times  # noqa: E402
from worker import load_fedeval, measure  # noqa: E402

load_fedeval(ROOT)

SMALL = {
    "population": {"num_examples": 2_000},
    "deep_tree": {"num_examples": 1_000, "height": 8},
    "csv_cli": {"num_rows": 2_000},
}


def _measure(name: str, tmp_path: Path, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name](0, tmp_path, **SMALL[name])
    workload.setup()
    tracer = Tracer(TARGETS) if trace else None
    result = measure(workload, 0.0, trace, tracer)
    result.update(max_rss_kb=1024, spans=tracer.spans if tracer else [],
                  missing=sorted(tracer.missing) if tracer else [],
                  uncounted=sorted(tracer.uncounted) if tracer else [])
    return result


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_emits_every_declared_metric(name, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        info, line = run.summarize(_measure(name, tmp_path, trace), [0.5], trace)
        assert line["correct"], info["problems"]
        assert line["attempted"] == 2 * len(workloads.WORKLOADS[name](0, tmp_path).ops)
        assert list(line["metrics"]) == list(run.declared(kind))
        assert len(info["output_sha256"]) == 64


def _row(**fields) -> str:
    row = {"metric": "auc", "regime": "secure_agg", "estimate": 0.8,
           "exact": 0.81, "abs_error": 0.01, "advertised_uncertainty": 0.02}
    row.update(fields)
    return json.dumps(row)


def test_row_check_passes_a_good_row_and_skips_degenerate_ones():
    text = "\n".join([json.dumps({"schema_version": "1"}), _row(),
                      _row(estimate=None, degenerate=True)])
    outcome = workloads.check_result_rows(text)
    assert outcome.problems == []
    assert (outcome.rows, outcome.degenerate) == (2, 1)


@pytest.mark.parametrize("fields", [
    {"abs_error": 0.03},
    {"estimate": 1.5},
    {"estimate": -0.1, "metric": "precision", "regime": "dist_dp"},
    {"estimate": None, "metric": "ece"},
])
def test_row_check_fires_on_a_corrupted_row(fields):
    assert workloads.check_result_rows(_row(**fields)).problems


def _report(ece=0.05, weights=(0.25, 0.75), value=0.5) -> str:
    doc = {"calibration_map": {"weights": list(weights),
                               "binnings": [{"boundaries": [0.0, 1.0],
                                             "values": [value]}]},
           "ece_report": {"ece": ece}}
    return json.dumps({"schema_version": "1"}) + "\n" + json.dumps(doc) + "\n"


@pytest.mark.parametrize("kwargs, fires", [
    ({}, False),
    ({"ece": 1.2}, True),
    ({"weights": (0.5, 0.6)}, True),
    ({"value": -0.01}, True),
])
def test_calibration_check(kwargs, fires):
    assert bool(workloads.check_calibration_report(_report(**kwargs)).problems) is fires


def test_rank_sum_auc_matches_pair_count_with_ties():
    rows = [(0.1, 0), (0.5, 1), (0.5, 0), (0.5, 1), (0.9, 1), (0.2, 0), (0.9, 0)]
    csv = "score,label\n" + "".join(f"{s!r},{y}\n" for s, y in rows)
    pos = [s for s, y in rows if y]
    neg = [s for s, y in rows if not y]
    pairs = sum(1.0 if p > n else 0.5 if p == n else 0.0
                for p, n in itertools.product(pos, neg))
    assert workloads.rank_sum_auc(csv.encode()) == pytest.approx(
        pairs / (len(pos) * len(neg)), abs=1e-15)


def test_exact_auc_check_fires_on_a_wrong_exact_value():
    text = _row(exact=0.75)
    assert not workloads.check_exact_auc(workloads.Outcome(b""), text, 0.75).problems
    wrong = workloads.check_exact_auc(workloads.Outcome(b""), text, 0.75 + 1e-9)
    assert wrong.problems


def test_exact_auc_agrees_with_evaluate_on_generated_csv(tmp_path):
    workload = workloads.csv_cli(3, tmp_path, num_rows=3_000)
    gen, evaluate = workload.ops[0], workload.ops[1]
    gen.settle(gen.run())
    assert evaluate.settle(evaluate.run()).problems == []


def test_bbq_op_returns_the_calibrate_cli_map(tmp_path):
    workload = workloads.deep_tree(5, tmp_path, num_examples=3_000, height=10)
    workload.setup()
    bbq_seed = workloads._seeds(5, 3)[1]
    text = workloads._cli(["calibrate", "--data", str(tmp_path / "deep_tree.csv"),
                           "--regime", "dist_dp", "--bbq", "--height", "10",
                           "--seed", str(bbq_seed)])
    assert json.loads(workload.ops[-1].run()) == json.loads(
        text.splitlines()[1])["calibration_map"]


@pytest.mark.xfail(strict=True, reason=(
    "fedeval defect: the BBQ mixture of bucket values that are all 1.0 sums "
    "to 1 + 2**-52, and ece_arrays rejects it"))
def test_bbq_calibrate_cli_exits_0(tmp_path):
    """csv_cli seed 444675847: ``calibrate --bbq`` exits 1 on its own output."""
    workload = workloads.csv_cli(444675847, tmp_path)
    workload.ops[0].run()
    workloads._cli(["calibrate", "--data", str(tmp_path / "scores.csv"),
                    "--regime", "dist_dp", "--bbq",
                    "--seed", str(workloads._seeds(444675847, 6)[4])])


def test_raising_op_counts_as_failed():
    def boom() -> str:
        raise RuntimeError("boom")

    op = workloads.Op("boom", boom, lambda text: workloads.Outcome(text.encode()))
    result = measure(workloads.Workload("fake", [op]), 0.0, False, None)
    assert [len(record[5]) for record in result["ops"]] == [1, 1]
    assert "boom" in result["ops"][0][5][0]


def test_unreadable_output_counts_as_failed():
    op = workloads.Op("garbled", lambda: "not json", workloads.check_result_rows)
    result = measure(workloads.Workload("fake", [op]), 0.0, False, None)
    assert all("unreadable output" in record[5][0] for record in result["ops"])


def test_output_change_between_passes_is_a_failed_check():
    outputs = itertools.cycle(["a", "b"])
    op = workloads.Op("alternating", lambda: next(outputs),
                      lambda text: workloads.Outcome(text.encode()))
    result = measure(workloads.Workload("fake", [op]), 0.0, False, None)
    assert result["ops"][0][5] == []
    assert result["ops"][1][5] == ["alternating: output differs from pass 0"]


def _namespaces() -> dict:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "fedeval" or name.startswith("fedeval.")}


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = _namespaces()
    workload = workloads.deep_tree(0, tmp_path, num_examples=500, height=6)
    workload.setup()
    tracer = Tracer(TARGETS)
    with tracer:
        from fedeval import sweep

        assert sweep.build_hierarchy is not before["fedeval.sweep"]["build_hierarchy"]
        tracer.op = (0, 0)
        for op in workload.ops:
            op.run()
    after = _namespaces()
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key} not restored"
    spans = tracer.spans
    assert {span[0] for span in spans} >= {"sweep.run_sweep",
                                           "calibration.calibrate_bbq",
                                           "hierarchy.build_score_histogram"}
    assert all(own >= 0.0 for own in self_times(spans))
    assert tracer.missing == set() and tracer.warnings == []


def test_missing_target_warns_instead_of_failing():
    tracer = Tracer([Target("core.gone", "core", "no_such_function")])
    with tracer:
        pass
    assert tracer.missing == {"core.gone"}
    assert tracer.warnings


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "population",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
