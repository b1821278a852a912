"""Command line front end.

Subcommands: gen-data writes a synthetic labeled-score CSV; evaluate
builds the federated structures from a CSV and prints metric rows;
sweep runs a grid from a config file; calibrate fits a calibration map
on half the data and scores it on the other half. All randomness is
controlled by an explicit seed, and without --timings the output of a
run is byte identical across reruns.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O or data
parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .calibration import calibrate_bbq, calibrate_histogram
from .core import PrivacySpec, Regime, ScoreDistribution
from .datagen import sample_population
from .hierarchy import build_score_histogram
from .io import (
    DataFileError,
    read_columns,
    result_header_line,
    row_to_json,
    write_columns,
)
from .sweep import (
    SweepConfigError,
    evaluate_population,
    held_out_calibrations,
    parse_spikes,
    parse_sweep_config,
    result_rows,
    run_sweep,
)

__all__ = ["main", "entry_point"]

DEFAULT_EPSILON = {Regime.DIST_DP: 1.0, Regime.LOCAL_DP: 5.0}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def non_negative_int(text: str) -> int:
    """An integer of at least 0, the seeds numpy accepts."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fedeval",
        description="Federated evaluation and calibration of binary "
        "classifiers from aggregated score histograms.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    gen = sub.add_parser("gen-data", help="write a synthetic labeled-score CSV")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--num-examples", type=int, required=True)
    gen.add_argument("--balance", type=float, default=0.5,
                     help="probability of the positive class")
    gen.add_argument("--lipschitz", type=float, default=2.0,
                     help="smoothness bound for the linear densities")
    gen.add_argument("--pos-slope", type=float, default=None)
    gen.add_argument("--neg-slope", type=float, default=None)
    gen.add_argument("--spike", action="append", default=[],
                     metavar="LOC:POS_MASS:NEG_MASS",
                     help="point mass; repeatable")
    gen.add_argument("--seed", type=non_negative_int, required=True)
    gen.set_defaults(func=cmd_gen_data)

    ev = sub.add_parser("evaluate", help="estimate metrics from a CSV")
    _add_privacy_args(ev)
    ev.add_argument("--buckets", type=int, required=True)
    ev.add_argument("--threshold", action="append", type=float, default=[],
                    help="decision threshold; repeatable")
    ev.add_argument("--timings", action="store_true",
                    help="measure wall_ms (output no longer byte-stable)")
    ev.set_defaults(func=cmd_evaluate)

    sw = sub.add_parser("sweep", help="run a config-driven grid sweep")
    sw.add_argument("--config", required=True, help="key = value config file")
    sw.add_argument("--timings", action="store_true",
                    help="measure wall_ms (output no longer byte-stable)")
    sw.set_defaults(func=cmd_sweep)

    cal = sub.add_parser(
        "calibrate",
        help="fit a calibration map on half the data, score it on the rest",
    )
    _add_privacy_args(cal)
    cal.add_argument("--buckets", type=int, default=None,
                     help="bucket count (ignored with --bbq)")
    cal.add_argument("--bbq", action="store_true",
                     help="Bayesian model averaging over bucket counts")
    cal.add_argument("--prior", type=float, default=None,
                     help="fallback probability for empty buckets")
    cal.add_argument("--eval-bins", type=int, default=20)
    cal.set_defaults(func=cmd_calibrate)

    return parser


def _add_privacy_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="labeled-score CSV path")
    sub.add_argument("--regime", required=True,
                     choices=[r.value for r in Regime])
    sub.add_argument("--epsilon", type=float, default=None,
                     help="privacy budget (defaults: dist_dp 1.0, local_dp 5.0)")
    sub.add_argument("--height", type=int, default=10)
    sub.add_argument("--fanout", type=int, default=2)
    sub.add_argument("--split", default="one_per_client",
                     help="client split policy")
    sub.add_argument("--seed", type=non_negative_int, required=True)


def _resolve_privacy(args) -> PrivacySpec:
    regime = Regime(args.regime)
    epsilon = args.epsilon
    if regime is Regime.SECURE_AGG:
        if epsilon is not None:
            raise ValueError("secure_agg does not take --epsilon")
    elif epsilon is None:
        epsilon = DEFAULT_EPSILON[regime]
    return PrivacySpec(
        regime=regime, epsilon=epsilon, height=args.height, fanout=args.fanout
    )


def cmd_gen_data(args) -> int:
    dist = ScoreDistribution(
        spikes=parse_spikes(";".join(args.spike)),
        lipschitz=args.lipschitz,
        positive_slope=args.pos_slope,
        negative_slope=args.neg_slope,
    )
    scores, positive = sample_population(
        args.num_examples, dist, args.balance, np.random.SeedSequence((args.seed,))
    )
    write_columns(args.out, scores, positive)
    print(f"wrote {scores.size} examples to {args.out}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    scores, positive = read_columns(args.data)
    spec = _resolve_privacy(args)
    thresholds = tuple(args.threshold)
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"--threshold must lie in [0, 1], got {t}")
    if args.buckets < 1:
        raise ValueError(f"--buckets must be >= 1, got {args.buckets}")
    started = time.perf_counter()
    records = evaluate_population(
        scores, positive, spec, args.buckets, args.split, thresholds,
        np.random.SeedSequence((args.seed,)).spawn(3),
    )
    wall_ms = (time.perf_counter() - started) * 1000.0 if args.timings else None
    print(result_header_line())
    for row in result_rows(
        records, spec, scores.size, args.buckets, args.seed, wall_ms
    ):
        print(row_to_json(row))
    return 0


def cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SweepConfigError(f"{args.config}: not a UTF-8 text file: {exc}") from None
    config = parse_sweep_config(text)
    rows = run_sweep(config, timings=args.timings)
    print(result_header_line())
    for row in rows:
        print(row_to_json(row))
    return 0


def cmd_calibrate(args) -> int:
    scores, positive = read_columns(args.data)
    spec = _resolve_privacy(args)
    if args.bbq:
        def fit_map(pos, neg):
            return calibrate_bbq(pos, neg, prior=args.prior)
    elif args.buckets is None:
        raise ValueError("--buckets is required without --bbq")
    else:
        def fit_map(pos, neg):
            hist = build_score_histogram(pos, neg, args.buckets)
            return calibrate_histogram(hist, prior=args.prior)
    [(cal_map, report)] = held_out_calibrations(
        scores, positive, [spec], args.split,
        np.random.SeedSequence((args.seed,)).spawn(4), fit_map, args.eval_bins,
    )
    print(result_header_line())
    print(json.dumps({
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
    }))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except SweepConfigError as exc:
        print(f"fedeval: config error: {exc}", file=sys.stderr)
        return 1
    except DataFileError as exc:
        print(f"fedeval: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fedeval: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"fedeval: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"fedeval: error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
