"""The shared held-out fit gives the bits of the pipeline it replaced.

`calibrate` and the sweep's ECE row both run
`sweep.held_out_calibrations`, and `evaluate_population` reads its
records itself. The references below are the code they replaced, kept
literally: the build of one split's two class trees, a held-out fit
that returned its trees, an ECE helper, the ECE row that rebuilt the
exact trees from unseeded builds, and the record reader of one
histogram. Every record, and every `calibrate` output, must match them
bitwise at the same seeds.
"""

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from fedeval import ScoreDistribution, Spike
from fedeval.calibration import (
    apply_calibration_batch,
    calibrate_bbq,
    calibrate_histogram,
    ece_arrays,
)
from fedeval.cli import main
from fedeval.core import (
    ClientSplit,
    DegenerateEstimateError,
    InsufficientPopulationError,
    Label,
    PrivacySpec,
    Regime,
    as_generator,
)
from fedeval.datagen import sample_population, split_population
from fedeval.hierarchy import HierarchicalCounts, build_hierarchy, build_score_histogram
from fedeval.io import read_columns, write_columns
from fedeval.metrics import auc_histogram, pra_threshold
from fedeval.oracle import _auc_from_arrays, _class_sorted, exact_pra_curve
from fedeval.sweep import _ece_record, evaluate_population

PRA_METRICS = ("precision", "recall", "accuracy")
_DEGENERATE_ECE = ("ece", None, None, None, None)


def aggregate_classes(clients, spec, pos_seed, neg_seed):
    pos = build_hierarchy(clients, Label.POSITIVE, spec, pos_seed)
    neg = build_hierarchy(clients, Label.NEGATIVE, spec, neg_seed)
    return pos, neg


def _estimate_or_none(metric, hist, *args):
    if hist is None:
        return None
    try:
        return metric(hist, *args)
    except DegenerateEstimateError:
        return None


def histogram_metric_records(
    hist,
    scores: np.ndarray,
    flags: np.ndarray,
    thresholds: Sequence[float],
) -> list[tuple[str, float | None, float | None, float | None, float | None]]:
    records = []
    pos, neg = _class_sorted(scores, flags)
    try:
        _, exact_value = _auc_from_arrays(pos, neg)
    except ValueError:
        exact_value = None
    est = _estimate_or_none(auc_histogram, hist)
    if est is None:
        records.append(("auc", None, None, exact_value, None))
    else:
        records.append(
            ("auc", None, est.value, exact_value, est.advertised_uncertainty)
        )

    if thresholds:
        if scores.size:
            curve = exact_pra_curve(pos, neg, thresholds)
        else:
            curve = [(None, None, None)] * len(thresholds)
        for threshold, exact_triple in zip(thresholds, curve):
            est = _estimate_or_none(pra_threshold, hist, threshold)
            if est is None:
                values = (None, None, None)
                slack = None
            else:
                values = (est.precision, est.recall, est.accuracy)
                slack = est.threshold_slack
            for name, value, exact in zip(PRA_METRICS, values, exact_triple):
                records.append((name, threshold, value, exact, slack))
    return records


def ref_evaluate_population(
    scores, positive, spec, num_buckets, split_policy, thresholds, seeds
):
    split_ss, pos_ss, neg_ss = seeds
    try:
        clients = split_population(scores, positive, split_policy, split_ss)
        pos, neg = aggregate_classes(clients, spec, pos_ss, neg_ss)
        hist = build_score_histogram(pos, neg, num_buckets)
    except InsufficientPopulationError:
        hist = None
    return histogram_metric_records(hist, scores, positive, thresholds)


@dataclass(frozen=True, eq=False)
class HeldOutFit:
    clients: ClientSplit
    pos: HierarchicalCounts
    neg: HierarchicalCounts
    eval_scores: np.ndarray
    eval_positive: np.ndarray


def fit_held_out(
    scores: np.ndarray,
    positive: np.ndarray,
    spec: PrivacySpec,
    split_policy: str,
    seed: np.random.SeedSequence,
) -> HeldOutFit:
    perm_ss, split_ss, pos_ss, neg_ss = seed.spawn(4)
    perm = as_generator(perm_ss).permutation(scores.size)
    half = scores.size // 2
    fit_rows, eval_rows = perm[:half], perm[half:]
    clients = split_population(
        scores[fit_rows], positive[fit_rows], split_policy, split_ss
    )
    pos, neg = aggregate_classes(clients, spec, pos_ss, neg_ss)
    return HeldOutFit(clients, pos, neg, scores[eval_rows], positive[eval_rows])


def _held_out_ece(
    pos: HierarchicalCounts,
    neg: HierarchicalCounts,
    eval_scores: np.ndarray,
    eval_positive: np.ndarray,
    num_buckets: int,
    eval_bins: int,
) -> float:
    cal_map = calibrate_histogram(build_score_histogram(pos, neg, num_buckets))
    probs = apply_calibration_batch(cal_map, eval_scores)
    return ece_arrays(probs, eval_positive, eval_bins).ece


def ref_ece_record(
    scores: np.ndarray,
    positive: np.ndarray,
    spec: PrivacySpec,
    num_buckets: int,
    split_policy: str,
    eval_bins: int,
    calib_seed: np.random.SeedSequence,
) -> tuple:
    if scores.size < 4:
        return _DEGENERATE_ECE
    try:
        fit = fit_held_out(scores, positive, spec, split_policy, calib_seed)
        clients, held_out = fit.clients, (fit.eval_scores, fit.eval_positive)
        estimate = _held_out_ece(fit.pos, fit.neg, *held_out, num_buckets, eval_bins)
        del fit
        if spec.regime is Regime.SECURE_AGG:
            exact = estimate
        else:
            exact_spec = PrivacySpec(
                regime=Regime.SECURE_AGG, height=spec.height, fanout=spec.fanout
            )
            pos, neg = aggregate_classes(clients, exact_spec, None, None)
            exact = _held_out_ece(pos, neg, *held_out, num_buckets, eval_bins)
    except InsufficientPopulationError:
        return _DEGENERATE_ECE
    return ("ece", None, estimate, exact, None)


def ref_calibrate_document(path, spec, split, seed, bbq, buckets, prior, eval_bins):
    scores, positive = read_columns(path)
    fit = fit_held_out(scores, positive, spec, split, np.random.SeedSequence((seed,)))
    if bbq:
        cal_map = calibrate_bbq(fit.pos, fit.neg, prior=prior)
    else:
        hist = build_score_histogram(fit.pos, fit.neg, buckets)
        cal_map = calibrate_histogram(hist, prior=prior)
    probs = apply_calibration_batch(cal_map, fit.eval_scores)
    report = ece_arrays(probs, fit.eval_positive, eval_bins)
    return json.dumps({
        "calibration_map": {
            "weights": cal_map.weights.tolist(),
            "binnings": [
                {"boundaries": boundaries.tolist(), "values": values.tolist()}
                for boundaries, values in cal_map.binnings
            ],
        },
        "ece_report": {
            "num_bins": report.num_bins,
            "bin_mass": report.bin_mass.tolist(),
            "observed": report.observed.tolist(),
            "predicted": report.predicted.tolist(),
            "ece": report.ece,
        },
    })


DIST = ScoreDistribution(spikes=(Spike(0.5, 0.1, 0.05),))
EPSILON = {Regime.SECURE_AGG: None, Regime.DIST_DP: 1.0, Regime.LOCAL_DP: 5.0}
SPLITS = ("one_per_client", "skewed:0.3", "variable:3")


def _bits(value):
    """A record field with every float spelled by its exact bits."""
    if value is None or isinstance(value, str):
        return value
    return float(value).hex()


def _outcome(function, *args):
    """The bits of function's records, or the error it raised."""
    try:
        result = function(*args)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))
    records = result if isinstance(result, list) else [result]
    return [tuple(_bits(field) for field in record) for record in records]


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_records_match_the_literal_pipeline(regime):
    raised = 0
    for split_index, split in enumerate(SPLITS):
        for num_examples, height, num_buckets in itertools.product(
            (0, 3, 4, 5, 19, 500), (4, 10), (1, 7)
        ):
            entropy = (list(Regime).index(regime), split_index, num_examples,
                       height, num_buckets)

            def seeds():
                # Spawning advances a SeedSequence, so each side of a
                # comparison takes fresh copies of the cell's seeds.
                return np.random.SeedSequence(entropy).spawn(5)

            scores, positive = sample_population(num_examples, DIST, 0.5, seeds()[0])
            spec = PrivacySpec(regime=regime, epsilon=EPSILON[regime], height=height)
            case = (split, num_examples, height, num_buckets)
            args = (scores, positive, spec, num_buckets, split, (0.3, 0.7))
            got = _outcome(evaluate_population, *args, seeds()[1:4])
            want = _outcome(ref_evaluate_population, *args, seeds()[1:4])
            assert got == want, case
            args = (scores, positive, spec, num_buckets, split, 20)
            got_ece = _outcome(_ece_record, *args, seeds()[4].spawn(4))
            want_ece = _outcome(ref_ece_record, *args, seeds()[4])
            assert got_ece == want_ece, case
            raised += got[0] == "raised"
            if regime is Regime.LOCAL_DP and split != "one_per_client" and (
                num_examples >= 19
            ):
                # A multi-example split is rejected, not made degenerate.
                assert got[0] == "raised" and got[1] is ValueError, case
                assert not issubclass(got[1], InsufficientPopulationError), case
            if regime is Regime.LOCAL_DP and split == "one_per_client":
                # Below h clients in the fit half the ECE row is degenerate.
                degenerate = num_examples < 4 or num_examples // 2 < height
                assert (got_ece == [_DEGENERATE_ECE]) == degenerate, case
    assert raised > 0 if regime is Regime.LOCAL_DP else raised == 0


@pytest.mark.parametrize("regime", [Regime.DIST_DP, Regime.LOCAL_DP],
                         ids=lambda r: r.value)
@pytest.mark.parametrize(
    ("bbq", "buckets", "prior"), [(False, 7, None), (False, 5, 0.25), (True, None, None)]
)
def test_calibrate_prints_the_literal_pipeline(tmp_path, capsys, regime, bbq,
                                               buckets, prior):
    path = tmp_path / "scores.csv"
    write_columns(path, *sample_population(400, DIST, 0.4, 17))
    spec = PrivacySpec(regime=regime, epsilon=EPSILON[regime], height=6)
    argv = ["calibrate", "--data", str(path), "--regime", regime.value,
            "--height", "6", "--seed", "23", "--eval-bins", "10"]
    if bbq:
        argv.append("--bbq")
    else:
        argv += ["--buckets", str(buckets)]
    if prior is not None:
        argv += ["--prior", str(prior)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    want = ref_calibrate_document(
        path, spec, "one_per_client", 23, bbq, buckets, prior, 10
    )
    assert out[1] == want
    assert math.isfinite(json.loads(out[1])["ece_report"]["ece"])
