"""File formats: labeled-score CSV and JSON-lines result streams.

The CSV format is a strict two-column "score,label" file with scores in
[0, 1] and labels 1/0, decoded as UTF-8 whatever the locale. Files are
read and written one block of rows at a time, so beyond the file's text
and its columns the memory they take is bounded by one block. Reading
costs about one split of the text plus one float() per score; rows are
revisited one at a time only to report a rejected file. Result streams
start with a schema-version header object followed by one JSON object
per result row; floats are serialized at full precision so reruns with
the same seed are byte identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import as_arrays, as_examples

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
# Rows per block of text: the writer formats this many at a time, the
# reader checks about as many.
_BLOCK_ROWS = 4096
# The line breaks of str.splitlines other than "\n".
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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

    The rows are checked a block at a time: numpy passes over the
    block's bytes for the row structure (one comma per row) and the
    labels, and one ``float()`` per score fills the columns, so a file
    costs about one split of its text plus the score conversions, and
    its memory is the text, the columns and one block. The file is
    rejected on any bad row; only then are the rows visited one by
    one, to report every offending line number (up to a cap) in the
    raised DataFileError.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not a UTF-8 text file: {exc}") from None
    header, body = _header_and_rows(text)
    del text  # hold one copy of the rows
    if header.strip() != DATA_HEADER:
        raise DataFileError(f"{path}:1: expected header {DATA_HEADER!r}")
    columns = _checked_columns(body)
    if columns is None:
        raise DataFileError(_bad_rows_report(path, body.splitlines()))
    return columns


def _header_and_rows(text: str) -> tuple[str, str]:
    """The first line of text, and the other lines each ending in "\\n".

    Lines are the ones str.splitlines finds; a text whose only break is
    "\\n" is cut after its first line without being split.
    """
    if any(brk in text for brk in _OTHER_BREAKS):
        lines = text.splitlines()
        return (lines[0] if lines else ""), "".join(f"{line}\n" for line in lines[1:])
    header, _, body = text.partition("\n")
    if body and not body.endswith("\n"):
        body += "\n"
    return header, body


def _checked_columns(body: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns of rows that each end in a newline, or None if any is bad.

    The rows are checked and converted a block of about _BLOCK_ROWS at
    a time into columns allocated up front, so the work space is one
    block; the score range is checked once over the whole column.
    """
    num_rows = body.count("\n")
    scores = np.empty(num_rows, dtype=np.float64)
    positive = np.empty(num_rows, dtype=bool)
    # Blocks are cut at the last newline within a stretch of text that
    # holds _BLOCK_ROWS rows of average length.
    stretch = len(body) * _BLOCK_ROWS // max(num_rows, 1) + 1
    start = first = 0
    while start < len(body):
        stop = body.rfind("\n", start, start + stretch) + 1 or (
            body.index("\n", start) + 1
        )
        columns = _checked_block(body[start:stop])
        if columns is None:
            return None
        rows = slice(first, first + columns[0].size)
        scores[rows], positive[rows] = columns
        start, first = stop, rows.stop
    if num_rows and not (0.0 <= scores.min() and scores.max() <= 1.0):
        return None
    return scores, positive


def _checked_block(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The scores and labels of rows that each end in a newline, or None.

    ``,`` and ``\\n`` never occur inside a multi-byte UTF-8 sequence, so
    the structure check can run on the encoded bytes. The score range
    is left to the caller.
    """
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    commas = np.flatnonzero(data == ord(","))
    ends = np.flatnonzero(data == ord("\n"))
    num_rows = ends.size
    # Exactly one comma per row: the separators strictly alternate.
    if commas.size != num_rows or not (
        (commas < ends).all() and (ends[:-1] < commas[1:]).all()
    ):
        return None
    cells = text.replace(",", "\n").split("\n")
    # Labels that are each one byte are read from the bytes.
    if (ends - commas == 2).all():
        labels = data[commas + 1]
        if not ((labels == ord("0")) | (labels == ord("1"))).all():
            return None
        positive = labels == ord("1")
    else:
        label_texts = [cell.strip() for cell in cells[1::2]]
        if not set(label_texts) <= {"0", "1"}:
            return None
        positive = np.array(label_texts) == "1"
    try:
        scores = np.fromiter(map(float, cells[0:-1:2]), np.float64, num_rows)
    except ValueError:
        return None
    return scores, positive


def _bad_rows_report(path: str | Path, rows: list[str]) -> str:
    """The DataFileError message for data rows that hold a bad one."""
    problems: list[str] = []
    bad_rows = 0
    for lineno, line in enumerate(rows, start=2):
        try:
            _parse_row(line)
        except ValueError as exc:
            bad_rows += 1
            if len(problems) < _MAX_REPORTED_LINES:
                problems.append(f"{path}:{lineno}: {exc}")
    omitted = bad_rows - len(problems)
    suffix = f"\n({omitted} further bad rows omitted)" if omitted else ""
    return "\n".join(problems) + suffix


def read_data_file(path: str | Path) -> list[tuple[float, bool]]:
    """read_columns as a list of (score, positive) pairs."""
    return as_examples(*read_columns(path))


def write_columns(path: str | Path, scores: np.ndarray, positive: np.ndarray) -> None:
    """Write a labeled-score CSV that read_columns round-trips exactly.

    The rows are formatted and written _BLOCK_ROWS at a time, so beyond
    the columns the writer holds one block of text.
    """
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(f"{DATA_HEADER}\n")
        for start in range(0, len(scores), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            labels = map((",0\n", ",1\n").__getitem__, positive[block].tolist())
            rows = map(str.__add__, map(repr, scores[block].tolist()), labels)
            out.write("".join(rows))


def write_data_file(path: str | Path, examples: Sequence[tuple[float, bool]]) -> None:
    """write_columns for a list of (score, positive) pairs."""
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
