"""CSV ingestion and emission: return panels, dense correlation matrices,
and reproducibility metadata headers."""

from __future__ import annotations

import csv
import itertools
from types import SimpleNamespace

import numpy as np

from .estimators import CorrelationMatrix, EstimatorError, ReturnPanel

__all__ = [
    "read_panel_csv",
    "write_panel_csv",
    "read_matrix_csv",
    "write_matrix_csv",
    "metadata_header",
]


def _loadtxt_table(path, labelled):
    """The header cells, the first-column labels (if ``labelled``) and the
    numeric block of a table CSV, parsed by ``np.loadtxt``.

    Returns None when the file has no data row, a quote character, a row
    with the wrong number of fields or a value ``np.loadtxt`` rejects;
    ``_csv_table`` then re-reads the file and names the offending line.
    The lines are streamed: only the labels and the array are kept."""
    with open(path, newline="") as fh:
        lines = (line for line in fh if line.strip("\r\n")
                 and not line.lstrip().startswith("#"))
        header = next(lines, "")
        first = next(lines, None)
        if first is None or '"' in header:
            return None
        header = header.rstrip("\r\n").split(",")
        commas = len(header) - 1
        labels = []

        def rows():
            # usecols ignores surplus fields, so count them here
            for line in itertools.chain([first], lines):
                if '"' in line or line.count(",") != commas:
                    raise ValueError("quoted or irregular line")
                if labelled:
                    labels.append(line[:line.index(",")].strip())
                yield line

        try:
            values = np.loadtxt(rows(), delimiter=",", comments=None,
                                usecols=range(labelled, len(header)), ndmin=2)
        except ValueError:  # the row reader says what is wrong, and where
            return None
    return header, labels, values


def _csv_table(path, labelled):
    """What ``_loadtxt_table`` returns, read by ``csv.reader`` row by row:
    quoted cells are unquoted, and a row with the wrong number of fields or
    a non-numeric value raises an error naming its line of the file.  Blank
    rows and ``#`` comment lines are skipped but still counted."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader
                if row and not row[0].lstrip().startswith("#"))
        header = next(rows, [])
        labels, values = [], []
        for row in rows:
            if len(row) != len(header):
                raise EstimatorError(
                    f"{path}:{reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}")
            if labelled:
                labels.append(row[0].strip())
            try:
                values.append(np.array(row[labelled:], dtype=float))
            except ValueError as exc:
                kind = "return" if labelled else "matrix"
                raise EstimatorError(
                    f"{path}:{reader.line_num}: non-numeric {kind} value"
                ) from exc
    return header, labels, np.array(values, dtype=float)


def _read_table(path, labelled):
    """``(header, labels, values)`` of a table CSV: by ``np.loadtxt`` when it
    can parse the file, else by ``csv.reader`` with errors naming the line."""
    return _loadtxt_table(path, labelled) or _csv_table(path, labelled)


def read_panel_csv(path) -> ReturnPanel:
    """Panel CSV: header ``date,TICKER1,...``, one row per day, no gaps.

    Blank lines and lines starting with ``#`` are skipped.  A file without
    quotes is parsed by ``np.loadtxt``; a quoted or malformed one row by
    row, and errors name the line of the file."""
    header, dates, values = _read_table(path, labelled=True)
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise EstimatorError(f"{path}: first header column must be 'date'")
    if not np.all(np.isfinite(values)):
        raise EstimatorError(f"{path}: missing values are forbidden")
    return ReturnPanel(values, tuple(h.strip() for h in header[1:]),
                       tuple(dates))


def _write_rows(fh, labels, values):
    """Data rows of ``values``, each value as ``f"{x:.12g}"``, after an
    optional label cell quoted by ``csv.writer``, ended by ``\r\n`` as
    ``csv.writer`` ends them: the bytes ``csv.writer`` would write."""
    fmt = ",".join(["%.12g"] * values.shape[1]) + "\r\n"
    if labels is None:
        for row in values:
            fh.write(fmt % tuple(row.tolist()))
        return
    # each label and the comma after it, as csv.writer writes them inside a
    # longer row.  It quotes "\r" and "\n" only because its line terminator
    # holds them, so the cells keep that terminator until it is cut here.
    cells = []
    csv.writer(SimpleNamespace(write=cells.append)).writerows(
        [label, ""] for label in labels)
    for cell, row in zip(cells, values):
        fh.write(cell[:-2])
        fh.write(fmt % tuple(row.tolist()))


def write_panel_csv(path, panel: ReturnPanel, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        csv.writer(fh).writerow(["date", *panel.asset_ids])
        _write_rows(fh, panel.time_ids, panel.values)


def read_matrix_csv(path) -> CorrelationMatrix:
    """Dense matrix CSV with a header row of asset ids.

    Blank lines and lines starting with ``#`` are skipped.  A file without
    quotes is parsed by ``np.loadtxt``; a quoted or malformed one row by
    row, and errors name the line of the file."""
    header, _, values = _read_table(path, labelled=False)
    if not len(values):
        raise EstimatorError(f"{path}: empty matrix file")
    assets = tuple(h.strip() for h in header)
    if values.shape != (len(assets), len(assets)):
        raise EstimatorError(f"{path}: matrix shape does not match header")
    return CorrelationMatrix(values, {"asset_ids": assets})


def write_matrix_csv(path, M: CorrelationMatrix, asset_ids=None,
                     header_lines=()) -> None:
    assets = tuple(asset_ids or M.metadata.get("asset_ids")
                   or (f"A{i:04d}" for i in range(M.N)))
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        csv.writer(fh).writerow(assets)
        _write_rows(fh, None, M.values)


def metadata_header(command: str, params: dict) -> list:
    """Comment lines recording the command, its parameters, and the RNG
    identity, so reruns are byte-for-byte reproducible."""
    items = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [f"command: {command}", f"params: {items}"]
