"""The fedeval names that perfbench traces and calls must keep existing.

perfbench's own tests are outside this suite, and its tracer test fails
when a traced name disappears. These checks read the perfbench sources
without importing them, so a simplification that removes or renames a
name the benchmark depends on fails here first. The per-example list
forms kept only for the benchmark must in turn stay out of the rest of
the package, the mechanisms out of every module but hierarchy.py, and
every exported name must resolve and be used outside its module, and
every accessor of the trees, histograms and client splits must be read.
No module selects rows by an inverted boolean mask, imports scipy or
reads the spawn state of a caller's SeedSequence.
"""

import ast
import functools
import importlib
from pathlib import Path

import numpy as np

from fedeval import calibration, datagen, hierarchy, mechanisms, oracle, sweep
from fedeval import io as fio
from fedeval.core import ClientSplit, Label, PrivacySpec, Regime, as_generator

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# The per-example list forms stay only because perfbench calls or traces
# them. By module, the definitions that make up those shims.
LIST_SHIMS = {
    "core": {"LabeledScore", "from_shards", "as_arrays", "as_examples"},
    "datagen": {"gen_well_behaved", "split_to_clients"},
    "io": {"read_data_file", "write_data_file"},
    "hierarchy": {"build_hierarchy"},
}
LIST_NAMES = {"LabeledScore", "as_arrays", "as_examples", "from_shards"}


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


def test_traced_oracle_spans_run_once_per_cell(monkeypatch):
    # perfbench attributes exact-oracle time to these two functions as
    # sweep binds them; a cell that bypassed them would leave its
    # oracle.auc and oracle.exact_pra_curve spans empty.
    calls = {}
    for name in ("_auc_from_arrays", "exact_pra_curve"):
        target = getattr(oracle, name)
        assert getattr(sweep, name) is target

        def counted(*args, _name=name, _target=target):
            calls[_name] = calls.get(_name, 0) + 1
            return _target(*args)

        monkeypatch.setattr(sweep, name, counted)
    config = sweep.SweepConfig(
        base_seed=3,
        regimes=(Regime.SECURE_AGG,),
        num_examples=(200,),
        num_buckets=(5,),
        heights=(4,),
        thresholds=(0.3, 0.6),
    )
    sweep.run_sweep(config)
    assert calls == {"_auc_from_arrays": 1, "exact_pra_curve": 1}


def _names_outside(node, names, shims=frozenset()):
    """(line, name) of each of names defined or used outside the shims.

    A module that defines shims may import the names for them.
    """
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        if node.name in shims:
            return []
        used = [node.name]
    elif isinstance(node, ast.Name):
        used = [node.id]
    elif isinstance(node, ast.Attribute):
        used = [node.attr]
    elif isinstance(node, ast.ImportFrom) and not shims:
        used = [alias.name for alias in node.names]
    else:
        used = []
    found = [(node.lineno, name) for name in used if name in names]
    for child in ast.iter_child_nodes(node):
        found += _names_outside(child, names, shims)
    return found


def _offenders(names, shims_of=lambda stem: frozenset()):
    """Every use of names in the package and the scripts, as path:line: name."""
    paths = sorted((ROOT / "src" / "fedeval").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    assert len(paths) >= 12
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text())
        offenders += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in _names_outside(tree, names, shims_of(path.stem))
        ]
    return offenders


def test_list_forms_stay_inside_the_shims():
    # The pipeline runs on columns; only the list shims themselves may
    # name the per-example type or its converters.
    assert _offenders(LIST_NAMES, lambda stem: LIST_SHIMS.get(stem, set())) == []


# The per-client protocols and their parameters, kept in
# tests/reference_mechanisms.py as oracles for the closed-form draws.
PER_CLIENT_NAMES = {
    "PolyaShareParams",
    "OueParams",
    "distdp_noise_share",
    "oue_encode",
    "oue_decode",
    "oue_aggregate",
    "secure_aggregate",
}


def test_per_client_oracles_stay_in_the_tests():
    # The pipeline draws each aggregate from its law; no module or
    # script defines or calls a per-client mechanism.
    assert _offenders(PER_CLIENT_NAMES) == []


def test_no_module_reads_a_seeds_spawn_state():
    # A function that needs several seeds takes the children its caller
    # spawned; none rebuilds them from the caller's SeedSequence.
    assert _offenders({"spawn_key", "n_children_spawned", "pool_size"}) == []


def test_only_hierarchy_applies_a_mechanism():
    # Every metric is read from the aggregated trees, so hierarchy.py is
    # the one module that draws mechanism noise.
    names = set(mechanisms.__all__) | {"mechanisms"}
    homes = ("src/fedeval/hierarchy.py:", "src/fedeval/mechanisms.py:")
    assert [line for line in _offenders(names) if not line.startswith(homes)] == []


# The private names one module may import from another, as
# (importer, home, name). perfbench traces the exact AUC through
# sweep's binding of _auc_from_arrays (see the test above).
SHARED_PRIVATE_NAMES = {
    ("sweep", "oracle", "_auc_from_arrays"),
    ("sweep", "oracle", "_class_sorted"),
}


def test_private_names_stay_in_their_module():
    # Each module reads its own internals; another module, or a script,
    # goes through the public names.
    paths = sorted((ROOT / "src" / "fedeval").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    assert len(paths) >= 12
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.partition(".")[0] != "fedeval":
                continue
            home = module.rpartition(".")[2] or "fedeval"
            offenders += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {home}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
                and home != path.stem
                and (path.stem, home, alias.name) not in SHARED_PRIVATE_NAMES
            ]
    assert offenders == []


def test_every_exported_name_resolves():
    # A stale __all__ entry makes `from module import *` raise.
    paths = sorted((ROOT / "src" / "fedeval").glob("*.py"))
    modules = [
        "fedeval" if path.stem == "__init__" else f"fedeval.{path.stem}"
        for path in paths
        if path.stem != "__main__"
    ]
    assert len(modules) >= 11
    for module in modules:
        assert importlib.import_module(module).__all__, module
        exec(f"from {module} import *", {})


def test_no_rows_are_selected_by_an_inverted_mask():
    # One class's rows are gathered and scattered by index
    # (np.flatnonzero); x[~mask] is the boolean-mask form, about four
    # times slower at 1e5 rows.
    offenders = []
    for path in sorted((ROOT / "src" / "fedeval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Subscript):
                continue
            index = node.slice
            parts = index.elts if isinstance(index, ast.Tuple) else [index]
            if any(
                isinstance(part, ast.UnaryOp) and isinstance(part.op, ast.Invert)
                for part in parts
            ):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []


def test_no_module_imports_scipy():
    # The package runs on numpy alone; scipy is a test dependency.
    offenders = []
    for path in sorted((ROOT / "src" / "fedeval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {module}"
                for module in modules
                if module.partition(".")[0] == "scipy"
            ]
    assert offenders == []


def _identifiers(path):
    """Every name, attribute, imported name and string constant in path."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # perfbench's layers name their targets as strings.
            found.add(node.value)
    return found


def test_every_exported_name_is_used_elsewhere():
    # No accessors that nothing calls: each name a submodule exports is
    # used by another package module (the package root counts), a
    # script or the benchmark.
    modules = sorted((ROOT / "src" / "fedeval").glob("*.py"))
    paths = modules + sorted((ROOT / "scripts").glob("*.py"))
    paths += sorted(PERFBENCH.rglob("*.py"))
    used = {path: _identifiers(path) for path in paths}
    unused = []
    for module in modules:
        if module.stem in ("__init__", "__main__"):
            continue
        for name in importlib.import_module(f"fedeval.{module.stem}").__all__:
            if not any(name in used[path] for path in paths if path != module):
                unused.append(f"{module.stem}.{name}")
    assert unused == []


def _attribute_reads(path):
    """Attribute names that path reads without calling them, and all it reads."""
    tree = ast.parse(path.read_text())
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    plain = {node.attr for node in attributes if id(node) not in calls}
    return plain, {node.attr for node in attributes}


def test_every_tree_and_split_accessor_is_read():
    # No accessors that nothing calls: each property of these classes is
    # read, and each method named, by the package, a script or the
    # benchmark. A property only counts as read where it is not called,
    # so a dict's .values() does not keep a values property alive.
    paths = sorted((ROOT / "src" / "fedeval").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    paths += sorted(PERFBENCH.rglob("*.py"))
    reads = [_attribute_reads(path) for path in paths]
    unread = []
    for cls in (hierarchy.HierarchicalCounts, hierarchy.ScoreHistogram, ClientSplit):
        for name, member in vars(cls).items():
            if name.startswith("__"):
                continue
            if isinstance(member, (property, functools.cached_property)):
                found = any(name in plain for plain, _ in reads)
            elif callable(member) or isinstance(member, (classmethod, staticmethod)):
                found = any(name in named for _, named in reads)
            else:
                continue
            if not found:
                unread.append(f"{cls.__name__}.{name}")
    assert unread == []
