"""The experiment scripts run end to end: a quick scaling grid, then its summary."""

import importlib.util
import json
from pathlib import Path

import pytest

from fedeval import (
    Label,
    PrivacySpec,
    Regime,
    ScoreDistribution,
    build_hierarchy,
    sample_population,
    split_population,
)

from tree_levels import level_views

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_scaling_grid_then_error_curves(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    run = load_script("run_scaling_experiments")
    assert run.main(["--quick", "--out", str(results)]) == 0
    assert f"to {results}" in capsys.readouterr().out

    plot = load_script("plot_error_curves")
    assert plot.main([str(results)]) == 0
    summary = capsys.readouterr().out
    for label in ("secure_agg", "dist_dp eps=1", "local_dp eps=5"):
        assert f"\n{label}  (auc vs M)" in summary


def test_quick_scaling_grid_is_byte_stable(tmp_path, capsys):
    # Many cells run back to back, each on its own seeds; two runs must
    # write the same bytes.
    run = load_script("run_scaling_experiments")
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert run.main(["--quick", "--out", str(first)]) == 0
    assert run.main(["--quick", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_error_curves_report_a_bad_results_file(tmp_path, capsys):
    plot = load_script("plot_error_curves")
    assert plot.main([str(tmp_path / "missing.jsonl")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("plot_error_curves: error: ")
    assert err.count("\n") == 1

    results = tmp_path / "results.jsonl"
    results.write_text('{"schema_version": 1}\nnot json\n')
    assert plot.main([str(results)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("plot_error_curves: error: ")
    assert "line 2 is not JSON" in err
    assert err.count("\n") == 1

    # Valid JSON that is not a result row: a bare number, and an object
    # without the row fields.
    for line in ("3", '{"a": 1}'):
        results.write_text(f'{{"schema_version": 1}}\n{line}\n')
        assert plot.main([str(results)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("plot_error_curves: error: ")
        assert "line 2 is not a result row" in err
        assert err.count("\n") == 1

    # A row key whose value has the wrong type, followed by a good row.
    good = {
        "metric": "auc", "regime": "dist_dp", "epsilon": 1.0,
        "abs_error": 0.01, "M": 100, "B": 10, "h": 10,
    }
    for key, value in (
        ("abs_error", "0.1"), ("M", None), ("epsilon", "x"), ("B", True),
        ("metric", 3),
    ):
        bad = json.dumps(dict(good, **{key: value}))
        results.write_text(f'{{"schema_version": 1}}\n{bad}\n{json.dumps(good)}\n')
        assert plot.main([str(results)]) == 2, key
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("plot_error_curves: error: ")
        assert "line 2 is not a result row" in err
        assert err.count("\n") == 1

    # M = 0 is a row, but the log-log fit leaves its point out.
    rows = [
        dict(good, M=m, abs_error=e)
        for m, e in ((0, 0.1), (100, 0.01), (10000, 0.001))
    ]
    results.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert plot.main([str(results)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "M=       0" in out
    assert "log-log slope: -0.50" in out


def test_gate_audit_salts_only_the_noisy_trees(capsys):
    audit = load_script("gate_audit")
    scores, positive = sample_population(200, ScoreDistribution(), 0.5, 3)
    clients = split_population(scores, positive, "one_per_client")

    def bits(build, regime):
        epsilon = None if regime is Regime.SECURE_AGG else 5.0
        spec = PrivacySpec(regime=regime, epsilon=epsilon, height=4)
        tree = build(clients, Label.POSITIVE, spec, (7, 2))
        return [level.tobytes() for level in level_views(tree)]

    for regime in Regime:
        assert bits(audit.salted(build_hierarchy, 0), regime) == bits(
            build_hierarchy, regime
        )
    salted = audit.salted(build_hierarchy, 1)
    assert bits(salted, Regime.SECURE_AGG) == bits(build_hierarchy, Regime.SECURE_AGG)
    for regime in (Regime.DIST_DP, Regime.LOCAL_DP):
        first = bits(salted, regime)
        assert first != bits(build_hierarchy, regime)
        assert first == bits(salted, regime)

    with pytest.raises(SystemExit) as exc:
        audit.main(["--help"])
    assert exc.value.code == 0
    assert "--salts" in capsys.readouterr().out
