"""The labeled-score reader that checked the whole body at once, kept literally.

Before the CSV reader worked a block of rows at a time, it checked and
converted every row of a file in one pass over the whole body: one
split of the text, one comma scan and one label scan over all its
bytes. whole_body_columns is that reader's _checked_columns, unchanged
but for its name, so that tests can compare the blocked reader's
columns bit for bit and its DataFileError texts exactly.
"""

from pathlib import Path

import numpy as np

from fedeval.io import DATA_HEADER, DataFileError, _bad_rows_report, _header_and_rows


def whole_body_columns(body: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns of rows that each end in a newline, or None if any is bad.

    ``,`` and ``\\n`` never occur inside a multi-byte UTF-8 sequence, so
    the structure check can run on the encoded bytes.
    """
    data = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    commas = np.flatnonzero(data == ord(","))
    ends = np.flatnonzero(data == ord("\n"))
    num_rows = ends.size
    # Exactly one comma per row: the separators strictly alternate.
    if commas.size != num_rows or not (
        (commas < ends).all() and (ends[:-1] < commas[1:]).all()
    ):
        return None
    # Labels that are each one byte are read from the bytes.
    labels = data[commas + 1] if (ends - commas == 2).all() else None
    del data, commas, ends  # hold one copy of the rows while splitting them
    cells = body.replace(",", "\n").split("\n")
    if labels is not None:
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
    if num_rows and not (0.0 <= scores.min() and scores.max() <= 1.0):
        return None
    return scores, positive


def whole_body_reader(path):
    """read_columns with the whole-body check in place of the blocked one."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not a UTF-8 text file: {exc}") from None
    header, body = _header_and_rows(text)
    if header.strip() != DATA_HEADER:
        raise DataFileError(f"{path}:1: expected header {DATA_HEADER!r}")
    columns = whole_body_columns(body)
    if columns is None:
        raise DataFileError(_bad_rows_report(path, body.splitlines()))
    return columns
