"""CSV ingestion and emission: return panels, dense correlation matrices,
and reproducibility metadata headers."""

from __future__ import annotations

import csv

import numpy as np

from .estimators import CorrelationMatrix, EstimatorError, ReturnPanel

__all__ = [
    "read_panel_csv",
    "write_panel_csv",
    "read_matrix_csv",
    "write_matrix_csv",
    "metadata_header",
]


def _data_rows(reader):
    """The rows of a CSV reader, without blank rows and ``#`` comment lines.

    ``reader.line_num`` still counts the skipped lines."""
    return (row for row in reader
            if row and not row[0].lstrip().startswith("#"))


def read_panel_csv(path) -> ReturnPanel:
    """Panel CSV: header ``date,TICKER1,...``, one row per day, no gaps.

    Blank lines and lines starting with ``#`` are skipped.  Rows are parsed
    as the reader yields them, and errors name the line of the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _data_rows(reader)
        header = next(rows, None)
        if header is None:
            raise EstimatorError(f"{path}: empty panel file")
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise EstimatorError(f"{path}: first header column must be 'date'")
        assets = tuple(h.strip() for h in header[1:])
        dates, values = [], []
        for row in rows:
            if len(row) != len(header):
                raise EstimatorError(
                    f"{path}:{reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}")
            dates.append(row[0].strip())
            try:
                values.append(np.array(row[1:], dtype=float))
            except ValueError as exc:
                raise EstimatorError(
                    f"{path}:{reader.line_num}: non-numeric return value"
                ) from exc
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise EstimatorError(f"{path}: missing values are forbidden")
    return ReturnPanel(arr, assets, tuple(dates))


def write_panel_csv(path, panel: ReturnPanel, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["date", *panel.asset_ids])
        for t, row in zip(panel.time_ids, panel.values):
            writer.writerow([t, *(f"{x:.12g}" for x in row)])


def read_matrix_csv(path) -> CorrelationMatrix:
    """Dense matrix CSV with a header row of asset ids.

    Blank lines and lines starting with ``#`` are skipped.  Rows are parsed
    as the reader yields them, and errors name the line of the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _data_rows(reader)
        header = next(rows, None)
        assets = tuple(h.strip() for h in header or ())
        values = []
        for row in rows:
            if len(row) != len(assets):
                raise EstimatorError(
                    f"{path}:{reader.line_num}: expected {len(assets)} "
                    f"fields, got {len(row)}")
            try:
                values.append(np.array(row, dtype=float))
            except ValueError as exc:
                raise EstimatorError(
                    f"{path}:{reader.line_num}: non-numeric matrix value"
                ) from exc
    if not values:
        raise EstimatorError(f"{path}: empty matrix file")
    values = np.array(values)
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
        writer = csv.writer(fh)
        writer.writerow(assets)
        for row in M.values:
            writer.writerow([f"{x:.12g}" for x in row])


def metadata_header(command: str, params: dict) -> list:
    """Comment lines recording the command, its parameters, and the RNG
    identity, so reruns are byte-for-byte reproducible."""
    items = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [f"command: {command}", f"params: {items}"]
