"""Labeled-score CSV files and JSON-lines result serialization."""

import json

import numpy as np
import pytest

from fedeval import Label, Regime
from fedeval.core import LabeledScore, as_arrays
from fedeval.io import (
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
    path.write_text("score,label\n")
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
        abs_error=0.05000000000000004,
        advertised_uncertainty=0.0625,
        seed=123456789,
        wall_ms=None,
        degenerate=False,
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
    assert parsed["abs_error"] == 0.05000000000000004
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
            abs_error=None,
            advertised_uncertainty=None,
            degenerate=True,
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
