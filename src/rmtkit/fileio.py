"""CSV ingestion and emission: return panels, dense correlation matrices,
and reproducibility metadata headers."""

from __future__ import annotations

import csv
import itertools

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


def _loadtxt_table(path, labelled):
    """The header cells, the first-column labels (if ``labelled``) and the
    numeric block of a table CSV, parsed by ``np.loadtxt``.

    Returns None when the file has no data row, a quote character, a row
    with the wrong number of fields or a value ``np.loadtxt`` rejects; the
    row reader then re-reads the file and names the offending line.  The
    lines are streamed: only the labels and the array are kept."""
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


def read_panel_csv(path) -> ReturnPanel:
    """Panel CSV: header ``date,TICKER1,...``, one row per day, no gaps.

    Blank lines and lines starting with ``#`` are skipped.  A file without
    quotes is parsed by ``np.loadtxt``; a quoted or malformed one row by
    row, and errors name the line of the file."""
    table = _loadtxt_table(path, labelled=True)
    if table is None:
        return _read_panel_rows(path)
    header, dates, values = table
    return _panel(path, _panel_assets(path, header), dates, values)


def _panel_assets(path, header):
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise EstimatorError(f"{path}: first header column must be 'date'")
    return tuple(h.strip() for h in header[1:])


def _panel(path, assets, dates, values):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise EstimatorError(f"{path}: missing values are forbidden")
    return ReturnPanel(arr, assets, tuple(dates))


def _read_panel_rows(path) -> ReturnPanel:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _data_rows(reader)
        header = next(rows, None)
        if header is None:
            raise EstimatorError(f"{path}: empty panel file")
        assets = _panel_assets(path, header)
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
    return _panel(path, assets, dates, values)


def _write_rows(fh, labels, values):
    """Data rows of ``values``, each value as ``f"{x:.12g}"``, after an
    optional label cell quoted by ``csv.writer``, ended by ``\r\n`` as
    ``csv.writer`` ends them: the bytes ``csv.writer`` would write."""
    fmt = ",".join(["%.12g"] * values.shape[1]) + "\r\n"
    if labels is None:
        for row in values:
            fh.write(fmt % tuple(row.tolist()))
        return
    # the label and the comma after it, quoted as inside a longer row
    label_cell = csv.writer(fh, lineterminator="").writerow
    for label, row in zip(labels, values):
        label_cell([label, ""])
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
    table = _loadtxt_table(path, labelled=False)
    if table is None:
        return _read_matrix_rows(path)
    header, _, values = table
    return _matrix(path, tuple(h.strip() for h in header), values)


def _matrix(path, assets, values):
    if not len(values):
        raise EstimatorError(f"{path}: empty matrix file")
    values = np.asarray(values, dtype=float)
    if values.shape != (len(assets), len(assets)):
        raise EstimatorError(f"{path}: matrix shape does not match header")
    return CorrelationMatrix(values, {"asset_ids": assets})


def _read_matrix_rows(path) -> CorrelationMatrix:
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
    return _matrix(path, assets, values)


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
