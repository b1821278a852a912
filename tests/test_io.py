"""Labeled-score CSV files and JSON-lines result serialization."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedeval import Label, Regime
from fedeval import io as fio
from fedeval.core import LabeledScore, as_arrays
from fedeval.io import (
    DATA_HEADER,
    DataFileError,
    read_columns,
    read_data_file,
    result_header_line,
    row_to_json,
    write_columns,
    write_data_file,
)
from fedeval.sweep import SweepResultRow


def test_round_trip_preserves_floats(tmp_path):
    rng = np.random.default_rng(3)
    scores = np.append(rng.random(100), 0.1 + 0.2)
    positive = np.append(np.arange(100) % 2 == 1, True)
    path = tmp_path / "scores.csv"
    write_columns(path, scores, positive)
    read_scores, read_positive = read_columns(path)
    assert read_scores.tobytes() == scores.tobytes()
    assert read_positive.tolist() == positive.tolist()


def test_columns_and_lists_write_the_same_file(tmp_path):
    # The list forms are kept for the benchmark; they must read and
    # write the same rows as the column forms.
    rng = np.random.default_rng(4)
    scores = rng.random(50)
    positive = rng.random(50) < 0.5
    by_columns = tmp_path / "columns.csv"
    by_list = tmp_path / "list.csv"
    write_columns(by_columns, scores, positive)
    examples = read_data_file(by_columns)
    assert examples == [
        LabeledScore(s, Label.POSITIVE if f else Label.NEGATIVE)
        for s, f in zip(scores.tolist(), positive.tolist())
    ]
    write_data_file(by_list, examples)
    assert by_list.read_bytes() == by_columns.read_bytes()
    read_scores, read_positive = read_columns(by_columns)
    assert read_scores.dtype == np.float64 and read_positive.dtype == bool
    assert read_scores.tobytes() == scores.tobytes()
    assert read_positive.tolist() == positive.tolist()
    listed = as_arrays(examples)
    assert listed[0].tobytes() == scores.tobytes()
    assert listed[1].tolist() == positive.tolist()
    empty = tmp_path / "empty.csv"
    write_data_file(empty, [])
    assert read_data_file(empty) == []


def test_header_only_file_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("score,label\n", "score,label"):
        path.write_text(text)
        scores, positive = read_columns(path)
        assert scores.shape == positive.shape == (0,)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,1\n")
    with pytest.raises(DataFileError, match=r":1:"):
        read_columns(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_columns(tmp_path / "nope.csv")


@pytest.mark.parametrize(
    "row,needle",
    [
        ("0.5,2", "label"),
        ("0.5,banana", "label"),
        ("1.5,1", r"\[0, 1\]"),
        ("-0.1,0", r"\[0, 1\]"),
        ("nan,1", r"\[0, 1\]"),
        ("0.5", "2 fields"),
        ("0.5,1,extra", "2 fields"),
        ("abc,1", "abc"),
        ("", "2 fields"),
        ("0.5,1,0\n1", "2 fields"),
    ],
)
def test_bad_rows_report_line_numbers(tmp_path, row, needle):
    path = tmp_path / "bad.csv"
    path.write_text(f"score,label\n0.5,1\n{row}\n")
    with pytest.raises(DataFileError, match=needle) as excinfo:
        read_columns(path)
    assert ":3:" in str(excinfo.value)


def test_many_bad_rows_are_capped(tmp_path):
    path = tmp_path / "bad.csv"
    body = "\n".join("2.0,1" for _ in range(27))
    path.write_text(f"score,label\n{body}\n")
    with pytest.raises(DataFileError) as excinfo:
        read_columns(path)
    message = str(excinfo.value)
    assert message.count(": score must be") == 20
    assert "(7 further bad rows omitted)" in message


def test_all_errors_reported_and_nothing_kept(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("score,label\n0.5,1\n0.6,3\n0.7,0\n")
    with pytest.raises(DataFileError) as excinfo:
        read_columns(path)
    assert ":3:" in str(excinfo.value)
    assert ":2:" not in str(excinfo.value)


def test_accepted_file_never_takes_the_row_loop(tmp_path, monkeypatch):
    def row_loop(line):
        raise AssertionError("an accepted file reached the row loop")

    rng = np.random.default_rng(5)
    scores = rng.random(10_000)
    positive = rng.random(10_000) < 0.5
    path = tmp_path / "scores.csv"
    write_columns(path, scores, positive)
    monkeypatch.setattr(fio, "_parse_row", row_loop)
    read_scores, read_positive = read_columns(path)
    assert read_scores.tobytes() == scores.tobytes()
    assert read_positive.tolist() == positive.tolist()


def parse_row(line: str) -> tuple[float, bool]:
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


def per_row_reader(path):
    """The per-row reader that read_columns replaced, decoding as UTF-8."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
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
            score, flag = parse_row(line)
        except ValueError as exc:
            bad_rows += 1
            if len(problems) < 20:
                problems.append(f"{path}:{lineno}: {exc}")
        else:
            scores.append(score)
            positive.append(flag)
    if bad_rows:
        omitted = bad_rows - len(problems)
        suffix = f"\n({omitted} further bad rows omitted)" if omitted else ""
        raise DataFileError("\n".join(problems) + suffix)
    return np.array(scores, dtype=np.float64), np.array(positive, dtype=bool)


def outcome(reader, path):
    """Columns as exact bits, or the DataFileError message."""
    try:
        scores, positive = reader(path)
    except DataFileError as exc:
        return "rejected", str(exc)
    assert scores.dtype == np.float64 and positive.dtype == bool
    return "accepted", scores.view(np.uint64).tolist(), positive.tolist()


PADDING = ["", " ", "\t", "\u3000", " \u3000 "]
ODD_SCORES = [
    "0.1_5", "nan", "1.5", "-0.0", "5e-324", "\u0660.\u0665", "\u0661", "", "0x1p-2",
]
ODD_LABELS = ["1.0", "2", "", " 1"]
BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"]
MUTATIONS = ["score", "label", "padding", "shape", "break"]


@st.composite
def csv_texts(draw):
    """A header and rows as write_columns writes them, some of them mutated.

    Each file turns on its own subset of MUTATIONS, so files with only
    harmless ones (padding, other line breaks) are often accepted.
    """
    enabled = draw(st.sets(st.sampled_from(MUTATIONS)))

    def mutated(kind, choices):
        return kind in enabled and draw(st.booleans()) and draw(st.sampled_from(choices))

    def padded(field):
        return (mutated("padding", PADDING) or "") + field + (
            mutated("padding", PADDING) or ""
        )

    # One row shape per file, so that "balanced" rows keep the comma total.
    shape_kind = draw(st.sampled_from(["extra", "missing", "empty", "balanced"]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        score = padded(mutated("score", ODD_SCORES) or repr(draw(st.floats(0.0, 1.0))))
        label = padded(mutated("label", ODD_LABELS) or draw(st.sampled_from("01")))
        shape = mutated("shape", [shape_kind])
        if shape == "extra":
            rows.append(f"{score},{label},0")
        elif shape == "missing":
            rows.append(score)
        elif shape == "empty":
            rows.append("")
        elif shape == "balanced":
            rows += [f"{score},{label},0", label]
        else:
            rows.append(f"{score},{label}")
    text = padded("score,label")
    for row in rows:
        text += (mutated("break", BREAKS) or "\n") + row
    return text + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@settings(max_examples=300)
@given(text=csv_texts())
@example(text="score,label\n\n")
@example(text="score,label\n0.5,1,0\n1\n")
@example(text="score,label\n0.5, 1\n")
def test_read_columns_equals_the_per_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "scores.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_columns, path) == outcome(per_row_reader, path)


def test_non_utf8_file_is_a_data_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"score,label\n0.5,1\n\xd0\x00\xff,1\n")
    with pytest.raises(DataFileError, match="not a UTF-8 text file") as excinfo:
        read_columns(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_result_header_line():
    assert result_header_line() == '{"schema_version": "1"}'


def make_row(**overrides):
    base = dict(
        metric="auc",
        regime=Regime.DIST_DP,
        num_examples=100,
        num_buckets=8,
        height=4,
        epsilon=1.0,
        threshold=None,
        estimate=0.75,
        exact=0.8,
        advertised_uncertainty=0.0625,
        seed=123456789,
        wall_ms=None,
    )
    base.update(overrides)
    return SweepResultRow(**base)


def test_row_json_key_order():
    line = row_to_json(make_row())
    assert list(json.loads(line)) == [
        "metric",
        "regime",
        "M",
        "B",
        "h",
        "epsilon",
        "estimate",
        "exact",
        "abs_error",
        "advertised_uncertainty",
        "seed",
        "wall_ms",
    ]
    parsed = json.loads(line)
    assert parsed["regime"] == "dist_dp"
    assert parsed["M"] == 100
    assert parsed["abs_error"] == 0.050000000000000044
    assert parsed["wall_ms"] is None
    assert "degenerate" not in parsed
    assert "threshold" not in parsed


def test_row_json_threshold_and_degenerate_keys():
    line = row_to_json(
        make_row(
            metric="precision",
            threshold=0.3,
            estimate=None,
            exact=None,
            advertised_uncertainty=None,
        )
    )
    keys = list(json.loads(line))
    assert keys.index("threshold") == keys.index("epsilon") + 1
    assert keys[-1] == "degenerate"
    parsed = json.loads(line)
    assert parsed["degenerate"] is True
    assert parsed["estimate"] is None


def test_row_json_is_stable():
    row = make_row(wall_ms=12.5)
    assert row_to_json(row) == row_to_json(make_row(wall_ms=12.5))
    assert '"wall_ms": 12.5' in row_to_json(row)
