"""The fedeval names that perfbench traces and calls must keep existing.

perfbench's own tests are outside this suite, and its tracer test fails
when a traced name disappears. These checks read the perfbench sources
without importing them, so a simplification that removes or renames a
name the benchmark depends on fails here first.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from fedeval import calibration, datagen, hierarchy
from fedeval import io as fio
from fedeval.core import Label, PrivacySpec, Regime, as_generator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def test_every_traced_target_resolves():
    targets = [
        [arg.value for arg in node.args[:3]]
        for node in ast.walk(_tree("layers.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target"
    ]
    assert len(targets) >= 19
    for name, module, attr in targets:
        home = importlib.import_module(f"fedeval.{module}")
        assert callable(getattr(home, attr, None)), name


def test_every_name_the_workloads_use_resolves():
    aliases = {}
    used = []
    for node in ast.walk(_tree("workloads.py")):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.startswith("fedeval"):
            for alias in node.names:
                if node.module == "fedeval":
                    aliases[alias.asname or alias.name] = f"fedeval.{alias.name}"
                else:
                    used.append((node.module, alias.name))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.append((node.value.id, node.attr))
    checked = 0
    for owner, attr in used:
        module = aliases.get(owner, owner)
        if module.startswith("fedeval"):
            assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
            checked += 1
    assert checked >= 10


def test_bbq_op_list_calls_still_run(tmp_path):
    # The benchmark's BBQ op on per-client lists, at a small size.
    rng = np.random.default_rng(5)
    path = tmp_path / "scores.csv"
    fio.write_columns(path, rng.random(400), rng.random(400) < 0.5)
    examples = fio.read_data_file(path)
    perm_ss, split_ss, pos_ss, neg_ss = np.random.SeedSequence((9,)).spawn(4)
    perm = as_generator(perm_ss).permutation(len(examples))
    fit = [examples[i] for i in perm[: len(examples) // 2]]
    spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=1.0, height=6, fanout=2)
    shards = datagen.split_to_clients(fit, "one_per_client", split_ss)
    pos = hierarchy.build_hierarchy(shards, Label.POSITIVE, spec, pos_ss)
    neg = hierarchy.build_hierarchy(shards, Label.NEGATIVE, spec, neg_ss)
    cal_map = calibration.calibrate_bbq(pos, neg)
    assert len(shards) == 200
    assert abs(float(cal_map.weights.sum()) - 1.0) < 1e-9
