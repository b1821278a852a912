"""Summarize a scaling sweep as ASCII error curves.

Reads the JSON-lines output of run_scaling_experiments.py (or the sweep
subcommand), groups rows by regime and budget, and prints the median
absolute error against the chosen grid axis together with a fitted
log-log slope. Bars scale with log error, so a straight staircase means
a clean power law.
"""

import argparse
import json
import math
import sys
from collections import defaultdict

import numpy as np

# The fields every sweep result row has and this script reads, with the
# types each value may take. A bool is never one of them, although
# Python counts it as an int.
ROW_TYPES = {
    "metric": str,
    "regime": str,
    "epsilon": (type(None), int, float),
    "abs_error": (type(None), int, float),
    "M": int,
    "B": int,
    "h": int,
}


def _is_row(obj) -> bool:
    return isinstance(obj, dict) and all(
        key in obj
        and isinstance(obj[key], types)
        and not isinstance(obj[key], bool)
        for key, types in ROW_TYPES.items()
    )


def load_rows(path: str) -> list[dict]:
    rows = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno} is not JSON: {exc}") from None
            if isinstance(obj, dict) and "schema_version" in obj:
                continue
            if not _is_row(obj):
                raise ValueError(f"{path}: line {lineno} is not a result row")
            rows.append(obj)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="JSON-lines sweep output")
    parser.add_argument(
        "--metric",
        default="auc",
        help="row metric to plot (auc, precision, recall, accuracy, ece)",
    )
    parser.add_argument("--axis", default="M", choices=("M", "B", "h"))
    args = parser.parse_args(argv)

    try:
        loaded = load_rows(args.results)
    except (OSError, ValueError) as exc:
        print(f"plot_error_curves: error: {exc}", file=sys.stderr)
        return 2
    rows = [
        row
        for row in loaded
        if row["metric"] == args.metric
        and not row.get("degenerate")
        and row["abs_error"] is not None
    ]
    if not rows:
        print("no matching rows")
        return 1

    groups: dict[tuple, dict] = defaultdict(lambda: defaultdict(list))
    for row in rows:
        groups[(row["regime"], row["epsilon"])][row[args.axis]].append(
            row["abs_error"]
        )

    for (regime, epsilon), series in sorted(groups.items(), key=str):
        xs = sorted(series)
        medians = [float(np.median(series[x])) for x in xs]
        label = regime if epsilon is None else f"{regime} eps={epsilon:g}"
        print(f"\n{label}  ({args.metric} vs {args.axis})")
        positive = [m for m in medians if m > 0.0]
        floor = min(positive) if positive else 1.0
        for x, med in zip(xs, medians):
            if med > 0.0:
                bar = "#" * (1 + int(round(4 * math.log10(med / floor))))
            else:
                bar = ""
            print(f"  {args.axis}={x:>8}  median|err|={med:.3e}  {bar}")
        fit = [(x, m) for x, m in zip(xs, medians) if x > 0 and m > 0.0]
        if len(fit) >= 2:
            slope = np.polyfit(
                np.log([p[0] for p in fit]), np.log([p[1] for p in fit]), 1
            )[0]
            print(f"  log-log slope: {slope:+.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
