"""The experiment scripts run end to end: a quick scaling grid, then its summary."""

import importlib.util
from pathlib import Path

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
