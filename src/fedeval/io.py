"""File formats: labeled-score CSV and JSON-lines result streams.

The CSV format is a strict two-column "score,label" file with scores in
[0, 1] and labels 1/0. Result streams start with a schema-version
header object followed by one JSON object per result row; floats are
serialized at full precision so reruns with the same seed are byte
identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import LabeledScore, as_arrays, as_examples

if TYPE_CHECKING:
    from .sweep import SweepResultRow

__all__ = [
    "DataFileError",
    "read_columns",
    "read_data_file",
    "write_columns",
    "write_data_file",
    "result_header_line",
    "row_to_json",
]

DATA_HEADER = "score,label"
SCHEMA_VERSION = "1"
_MAX_REPORTED_LINES = 20


class DataFileError(ValueError):
    """A labeled-score CSV file failed validation."""


def _parse_row(line: str) -> tuple[float, bool]:
    parts = line.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 2 fields, got {len(parts)}")
    score = float(parts[0])
    label_text = parts[1].strip()
    if label_text not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {label_text!r}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")
    return score, label_text == "1"


def read_columns(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a labeled-score CSV into (scores, positive) arrays.

    The file is rejected on any bad row; all offending line numbers (up
    to a cap) are reported in the raised DataFileError.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not a UTF-8 text file: {exc}") from None
    if not lines or lines[0].strip() != DATA_HEADER:
        raise DataFileError(f"{path}:1: expected header {DATA_HEADER!r}")
    scores: list[float] = []
    positive: list[bool] = []
    problems: list[str] = []
    bad_rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            score, flag = _parse_row(line)
        except ValueError as exc:
            bad_rows += 1
            if len(problems) < _MAX_REPORTED_LINES:
                problems.append(f"{path}:{lineno}: {exc}")
        else:
            scores.append(score)
            positive.append(flag)
    if bad_rows:
        omitted = bad_rows - len(problems)
        suffix = f"\n({omitted} further bad rows omitted)" if omitted else ""
        raise DataFileError("\n".join(problems) + suffix)
    return np.array(scores, dtype=np.float64), np.array(positive, dtype=bool)


def read_data_file(path: str | Path) -> list[LabeledScore]:
    """read_columns as a list of labeled scores."""
    return as_examples(*read_columns(path))


def write_columns(path: str | Path, scores: np.ndarray, positive: np.ndarray) -> None:
    """Write a labeled-score CSV that read_columns round-trips exactly."""
    rows = [DATA_HEADER]
    rows.extend(
        f"{score!r},{int(flag)}"
        for score, flag in zip(scores.tolist(), positive.tolist())
    )
    Path(path).write_text("\n".join(rows) + "\n")


def write_data_file(path: str | Path, examples: Sequence[LabeledScore]) -> None:
    """write_columns for a list of labeled scores."""
    write_columns(path, *as_arrays(examples))


def result_header_line() -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION})


def row_to_json(row: "SweepResultRow") -> str:
    """One result row as a JSON object with a fixed key order."""
    obj: dict[str, object] = {
        "metric": row.metric,
        "regime": row.regime.value,
        "M": row.num_examples,
        "B": row.num_buckets,
        "h": row.height,
        "epsilon": row.epsilon,
    }
    if row.threshold is not None:
        obj["threshold"] = row.threshold
    obj["estimate"] = row.estimate
    obj["exact"] = row.exact
    obj["abs_error"] = row.abs_error
    obj["advertised_uncertainty"] = row.advertised_uncertainty
    obj["seed"] = row.seed
    obj["wall_ms"] = row.wall_ms
    if row.degenerate:
        obj["degenerate"] = True
    return json.dumps(obj)
