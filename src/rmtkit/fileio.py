"""CSV ingestion and emission: return panels, dense correlation matrices,
spectral densities and reproducibility metadata headers.  Every CSV table
the package writes goes through ``write_table``."""

from __future__ import annotations

import csv
import itertools
from types import SimpleNamespace

import numpy as np

from .density import SpectralDensity
from .estimators import CorrelationMatrix, EstimatorError, ReturnPanel

__all__ = [
    "read_panel_csv",
    "write_panel_csv",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_density_csv",
    "write_density_csv",
    "write_table",
    "metadata_header",
]


def _loadtxt_table(path, labelled):
    """The header cells, the first-column labels (if ``labelled``) and the
    numeric block of a table CSV, parsed by ``np.loadtxt``.

    The blank and ``#`` lines before the first data row are skipped here;
    the data rows go from the open file straight to ``np.loadtxt``, which
    skips blank lines itself.  A panel's dates are collected by a converter
    on column 0.

    Returns None when the file has no data row, a quote character, a row
    with the wrong number of fields, a ``#`` line inside the data or a
    value ``np.loadtxt`` rejects; ``_csv_table`` then re-reads the file and
    names the offending line."""
    # universal newlines: a file without quotes splits into the same lines
    # either way, and TextIOWrapper reads translated lines faster
    with open(path) as fh:
        lines = (line for line in fh if line.strip("\r\n")
                 and not line.lstrip().startswith("#"))
        header = next(lines, "")
        first = next(lines, None)
        if first is None or '"' in header:
            return None
        header = header.rstrip("\r\n").split(",")
        labels = []

        def label(text):
            # a quoted date or a comment line is the row reader's to handle
            if '"' in text or text.lstrip().startswith("#"):
                raise ValueError("quoted date or comment line")
            labels.append(text.strip())
            return 0.0

        try:
            # without usecols, loadtxt rejects a row with a missing or an
            # extra field
            block = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                               comments=None, ndmin=2,
                               converters={0: label} if labelled else None)
        except ValueError:  # the row reader says what is wrong, and where
            return None
    if block.shape[1] != len(header):
        return None
    return header, labels, _drop_first_column(block) if labelled else block


def _drop_first_column(block):
    """``block[:, 1:]`` as a C-contiguous array in ``block``'s own buffer.

    Each row moves left over the label column, row i by i + 1 slots, and
    the buffer is then cut to fit, so no second T x N copy is ever alive
    (a copy of ``block[:, 1:]`` would double the peak memory of a read)."""
    T, n = block.shape
    flat = block.reshape(-1)
    for i in range(T):
        flat[i * (n - 1):(i + 1) * (n - 1)] = flat[i * n + 1:(i + 1) * n]
    del flat
    # no view of block is left, so it may be resized without a refcheck
    block.resize((T, n - 1), refcheck=False)
    return block


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
                raise EstimatorError(
                    f"{path}:{reader.line_num}: non-numeric value") from exc
    return header, labels, np.array(values, dtype=float)


def _read_table(path, labelled):
    """``(header, labels, values)`` of a table CSV: by ``np.loadtxt`` when it
    can parse the file, else by ``csv.reader`` with errors naming the line.
    A file without data rows is an error."""
    header, labels, values = (_loadtxt_table(path, labelled)
                              or _csv_table(path, labelled))
    if not len(values):
        raise EstimatorError(f"{path}: no data rows")
    return header, labels, values


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


def write_table(path, header, columns, comments=()) -> None:
    """Write a table CSV: each comment as a ``# `` line, then the header row
    and the data rows as the bytes ``csv.writer`` would write, ``\r\n``
    terminators included.

    ``columns`` is read left to right.  A 2-D float array is a block of
    columns, each value written as ``f"{x:.12g}"``; any other sequence is
    one text column."""
    parts = []
    for k, col in enumerate(columns):
        end = "\r\n" if k == len(columns) - 1 else ","
        if isinstance(col, np.ndarray) and col.ndim == 2:
            fmt = ",".join(["%.12g"] * col.shape[1]) + end
            rows = map(tuple, map(np.ndarray.tolist, col))
            parts.append(map(fmt.__mod__, rows))
        else:
            # csv.writer quotes "\r" and "\n" only because its terminator
            # holds them, so each text is written as a row before an empty
            # cell, and the ",\r\n" after it is cut here
            cells = []
            csv.writer(SimpleNamespace(write=cells.append)).writerows(
                [text, ""] for text in col)
            parts.append([cell[:-3] + end for cell in cells])
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        csv.writer(fh).writerow(header)
        fh.writelines(itertools.chain.from_iterable(zip(*parts, strict=True)))


def write_panel_csv(path, panel: ReturnPanel, header_lines=()) -> None:
    write_table(path, ["date", *panel.asset_ids],
                [panel.time_ids, panel.values], header_lines)


def read_matrix_csv(path) -> CorrelationMatrix:
    """Dense matrix CSV with a header row of asset ids.

    Blank lines and lines starting with ``#`` are skipped.  A file without
    quotes is parsed by ``np.loadtxt``; a quoted or malformed one row by
    row, and errors name the line of the file."""
    header, _, values = _read_table(path, labelled=False)
    assets = tuple(h.strip() for h in header)
    if values.shape != (len(assets), len(assets)):
        raise EstimatorError(f"{path}: matrix shape does not match header")
    return CorrelationMatrix(values, {"asset_ids": assets})


def write_matrix_csv(path, M: CorrelationMatrix, asset_ids=None,
                     header_lines=()) -> None:
    assets = tuple(asset_ids or M.metadata.get("asset_ids")
                   or (f"A{i:04d}" for i in range(M.N)))
    write_table(path, assets, [M.values], header_lines)


def write_density_csv(path, density: SpectralDensity) -> None:
    """Two-column CSV (lambda, rho); atoms as ``# atom loc mass`` comments."""
    write_table(path, ["lambda", "rho"],
                [np.column_stack([density.grid, density.density])],
                [f"atom {loc:.12g} {mass:.12g}" for loc, mass in density.atoms])


def read_density_csv(path) -> SpectralDensity:
    """Density CSV: header ``lambda,rho``, one row per grid point, and one
    ``# atom loc mass`` line per atom.  Errors name the line of the file."""
    header, _, values = _read_table(path, labelled=False)
    if [h.strip() for h in header] != ["lambda", "rho"]:
        raise EstimatorError(f"{path}: header must be 'lambda,rho'")
    atoms = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            words = line.split()
            if words[:2] != ["#", "atom"]:
                continue
            try:
                loc, mass = map(float, words[2:])
            except ValueError as exc:
                raise EstimatorError(
                    f"{path}:{lineno}: expected '# atom loc mass'") from exc
            atoms.append((loc, mass))
    return SpectralDensity(values[:, 0], values[:, 1], tuple(atoms))


def metadata_header(command: str, params: dict) -> list:
    """Comment lines recording the command, its parameters, and the RNG
    identity, so reruns are byte-for-byte reproducible."""
    items = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [f"command: {command}", f"params: {items}"]
