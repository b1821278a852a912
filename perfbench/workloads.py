"""The benchmark's workloads: fixed operation lists built from a seed.

A workload is a pass of operations that the worker repeats back to back.
Every pass uses the same inputs, so every pass must print the same
bytes. An operation is one ``run_sweep`` call on a one-cell config, one
in-process ``fedeval.cli.main`` call, or one BBQ fit (``_bbq_op``); its
``settle`` step (untimed) turns the raw output into the bytes that get
digested and checks them.

fedeval is imported inside the workload functions, after the worker has
put the checkout's ``src`` on ``sys.path``, and functions are looked up
on their module at call time so that the tracer's wrappers are called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Regime and epsilon of each sweep cell: the CLI default epsilons.
CELLS = (("secure_agg", None), ("dist_dp", 1.0), ("local_dp", 5.0))
THRESHOLDS = ("0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8")
AUC_TOLERANCE = 1e-12


class OpError(RuntimeError):
    """An operation exited non-zero."""


@dataclass
class Outcome:
    data: bytes
    problems: list[str] = field(default_factory=list)
    rows: int = 0
    degenerate: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], str]
    settle: Callable[[str], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup: Callable[[], None] = lambda: None


def check_result_rows(text: str) -> Outcome:
    """Range and bucketization-bound checks over JSON-lines result rows."""
    out = Outcome(text.encode())
    for line in text.splitlines():
        row = json.loads(line)
        if "metric" not in row:
            continue
        out.rows += 1
        if row.get("degenerate"):
            out.degenerate += 1
            continue
        what = f"{row['regime']} {row['metric']}"
        estimate = row["estimate"]
        if estimate is None or not 0.0 <= estimate <= 1.0:
            out.problems.append(f"{what}: estimate {estimate} outside [0, 1]")
        error, bound = row["abs_error"], row["advertised_uncertainty"]
        if (row["regime"] == "secure_agg" and row["metric"] == "auc"
                and error is not None and not error <= bound):
            out.problems.append(f"{what}: abs_error {error} > advertised {bound}")
    return out


def _check_map(doc: dict, out: Outcome) -> Outcome:
    weights = doc["weights"]
    if abs(sum(weights) - 1.0) > 1e-9 or any(not 0.0 <= w <= 1.0 for w in weights):
        out.problems.append(f"binning weights {weights} are not a distribution")
    for binning in doc["binnings"]:
        if any(not 0.0 <= v <= 1.0 for v in binning["values"]):
            out.problems.append("calibrated bucket value outside [0, 1]")
            break
    return out


def check_calibration_report(text: str) -> Outcome:
    """The calibrate document: ECE, weights and bucket values are probabilities."""
    out = Outcome(text.encode())
    doc = json.loads(text.splitlines()[1])
    ece = doc["ece_report"]["ece"]
    if not 0.0 <= ece <= 1.0:
        out.problems.append(f"ece {ece} outside [0, 1]")
    return _check_map(doc["calibration_map"], out)


def check_calibration_map(text: str) -> Outcome:
    """A calibration map alone: weights and bucket values are probabilities."""
    return _check_map(json.loads(text), Outcome(text.encode()))


def rank_sum_auc(csv_bytes: bytes) -> float:
    """AUC with ties counted half, from the Mann-Whitney rank sum.

    Twice each midrank is an integer, so the rank sum is exact.
    """
    import numpy as np

    table = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1, ndmin=2)
    scores, positive = table[:, 0], table[:, 1] == 1.0
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    twice_rank = np.empty(ordered.size, dtype=np.int64)
    twice_rank[order] = np.repeat(starts + ends + 1, ends - starts)
    num_pos = int(positive.sum())
    num_neg = ordered.size - num_pos
    twice_sum = int(twice_rank[positive].sum())
    return (twice_sum - num_pos * (num_pos + 1)) / (2 * num_pos * num_neg)


def check_exact_auc(outcome: Outcome, text: str, expected: float) -> Outcome:
    """The printed exact AUC must equal the benchmark's own rank-sum AUC."""
    for line in text.splitlines():
        row = json.loads(line)
        if row.get("metric") == "auc":
            exact = row["exact"]
            if exact is None or abs(exact - expected) > AUC_TOLERANCE:
                outcome.problems.append(f"exact AUC {exact} != rank-sum {expected}")
            return outcome
    outcome.problems.append("no AUC row printed")
    return outcome


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _cli(argv: list[str]) -> str:
    from fedeval import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise OpError(f"fedeval {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _cell_ops(seed: int, num_examples: int, height: int) -> list[Op]:
    from fedeval import io as fio
    from fedeval import sweep
    from fedeval.core import Regime

    ops = []
    for (regime, epsilon), base_seed in zip(CELLS, _seeds(seed, len(CELLS))):
        config = sweep.SweepConfig(
            base_seed=base_seed,
            regimes=(Regime(regime),),
            num_examples=(num_examples,),
            num_buckets=(100,),
            heights=(height,),
            epsilons=() if epsilon is None else (epsilon,),
            thresholds=(0.4,),
            split_policy="one_per_client",
            eval_bins=20,
            measure_ece=True,
        )

        def run(config=config) -> str:
            rows = sweep.run_sweep(config)
            return "".join(fio.row_to_json(row) + "\n" for row in rows)

        ops.append(Op(f"cell_{regime}", run, check_result_rows))
    return ops


def _bbq_op(data: Path, height: int, seed: int) -> Op:
    """``fedeval calibrate --bbq --regime dist_dp`` up to its calibration map.

    The same calls on the same seeds as the CLI. The CLI then applies
    the map to the held-out half and takes its ECE; that step is left
    out, because on about one seed in a hundred the mixed probability
    comes out as 1 + 2**-52 and ``ece_arrays`` rejects it, so the CLI
    exits 1 (``test_bbq_calibrate_cli_exits_0`` in ``tests``).
    """

    def run() -> str:
        import numpy as np
        from fedeval import calibration, datagen, hierarchy
        from fedeval import io as fio
        from fedeval.core import Label, PrivacySpec, Regime, as_generator

        examples = fio.read_data_file(data)
        perm_ss, split_ss, pos_ss, neg_ss = np.random.SeedSequence((seed,)).spawn(4)
        perm = as_generator(perm_ss).permutation(len(examples))
        fit = [examples[i] for i in perm[: len(examples) // 2]]
        spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=1.0, height=height,
                           fanout=2)
        shards = datagen.split_to_clients(fit, "one_per_client", split_ss)
        pos = hierarchy.build_hierarchy(shards, Label.POSITIVE, spec, pos_ss)
        neg = hierarchy.build_hierarchy(shards, Label.NEGATIVE, spec, neg_ss)
        cal_map = calibration.calibrate_bbq(pos, neg)
        return json.dumps({
            "weights": cal_map.weights.tolist(),
            "binnings": [{"boundaries": b.tolist(), "values": v.tolist()}
                         for b, v in cal_map.binnings],
        })

    return Op("calibrate_bbq", run, check_calibration_map)


def population(seed: int, tmp: Path, num_examples: int = 100_000) -> Workload:
    """Three sweep cells at h = 10: per-example Python work dominates."""
    return Workload("population", _cell_ops(seed, num_examples, height=10))


def deep_tree(
    seed: int, tmp: Path, num_examples: int = 20_000, height: int = 16
) -> Workload:
    """Three sweep cells and one BBQ fit on a tree of 2**height leaves."""
    csv_seed, bbq_seed, cells_seed = _seeds(seed, 3)
    data = tmp / "deep_tree.csv"
    ops = _cell_ops(cells_seed, num_examples, height)
    ops.append(_bbq_op(data, height, bbq_seed))

    def setup() -> None:
        _cli(["gen-data", "--out", str(data), "--num-examples", str(num_examples),
              "--seed", str(csv_seed)])

    return Workload("deep_tree", ops, setup)


def csv_cli(seed: int, tmp: Path, num_rows: int = 50_000) -> Workload:
    """One CSV write, then five reads of it: the io layer's workload."""
    seeds = _seeds(seed, 6)
    data = tmp / "scores.csv"
    reference: dict[str, object] = {}

    def settle_gen(text: str) -> Outcome:
        raw = data.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if reference.get("digest") != digest:
            reference.update(digest=digest, auc=rank_sum_auc(raw))
        return Outcome(raw)

    def settle_evaluate(text: str) -> Outcome:
        return check_exact_auc(check_result_rows(text), text, reference["auc"])

    gen = ["gen-data", "--out", str(data), "--num-examples", str(num_rows),
           "--spike", "0.5:0.1:0.05", "--seed", str(seeds[0])]
    ops = [Op("gen_data", lambda: _cli(gen), settle_gen)]
    common = ["--data", str(data), "--buckets", "50"]
    for name, regime, split, op_seed in (
        ("evaluate_secure_agg", "secure_agg", "variable:16", seeds[1]),
        ("evaluate_dist_dp", "dist_dp", "skewed:0.3", seeds[2]),
        ("evaluate_local_dp", "local_dp", "one_per_client", seeds[3]),
    ):
        argv = ["evaluate", *common, "--regime", regime, "--split", split,
                "--seed", str(op_seed)]
        for threshold in THRESHOLDS:
            argv += ["--threshold", threshold]
        ops.append(Op(name, lambda argv=argv: _cli(argv), settle_evaluate))
    fixed = ["calibrate", "--data", str(data), "--regime", "secure_agg",
             "--buckets", "20", "--seed", str(seeds[5])]
    ops.append(_bbq_op(data, 10, seeds[4]))
    ops.append(Op("calibrate_fixed", lambda: _cli(fixed), check_calibration_report))
    return Workload("csv_cli", ops)


WORKLOADS = {"population": population, "deep_tree": deep_tree, "csv_cli": csv_cli}
