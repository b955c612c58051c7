"""CSV ingestion and emission: return panels, dense correlation matrices,
spectral densities and reproducibility metadata headers.  Every CSV table
the package writes goes through ``write_table``."""

from __future__ import annotations

import codecs
import csv
import itertools
import re
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


_QUOTED_REST = re.compile(rb'[^"]*(?:""[^"]*)*"(?!")')  # "" is a quote


def _ends_quoted(line, inside):
    """Whether ``line`` ends within a quoted cell, given whether it starts
    in one.  As in ``csv.reader``, only a field's first quote opens one."""
    line, pos = b"," + line, 1  # a line starts a field, as a comma does
    while True:
        if inside:
            rest = _QUOTED_REST.match(line, pos)
            if rest is None:
                return True
            pos = rest.end()
        pos = line.find(b'"', pos) + 1
        if pos == 0:
            return False
        inside = line[pos - 2] == ord(",")


def _read_table(path, labelled):
    """``(header, labels, values, comments)`` of a table CSV, ``labels``
    being a panel's dates if ``labelled`` and ``comments`` each ``#`` line
    as ``(line number, bytes)``.  A file without data rows is an error.

    One generator hands the file's lines on, less ``#`` lines outside
    quoted cells, to ``csv.reader`` (header, first row) and ``np.loadtxt``
    (all rows), which skip blank lines; it keeps the ``#`` lines for
    ``comments``.  It records the row handed over last; ``loadtxt`` takes
    one line at a time, so errors name its line."""
    last, labels, comments = SimpleNamespace(lineno=0, row=[]), [], []

    def label(text):  # a panel's date, read as 0.0 into the label column
        labels.append(text.strip())
        return 0.0

    def decode(line):
        try:
            return line.decode()
        except UnicodeDecodeError as exc:
            raise EstimatorError(
                f"{path}:{last.lineno}: not UTF-8 text") from exc

    def data_lines(fh):
        fh.seek(3 if fh.read(3) == codecs.BOM_UTF8 else 0)  # skip a BOM
        inside = False  # within a quoted cell
        for item in fh:  # an item ends at "\n"; a bare "\r" ends a line too
            start = 0
            while start < len(item):
                end = item.find(b"\r", start) + 1 or len(item)
                end += item[end:end + 1] == b"\n"
                line, start = item[start:end], end
                last.lineno += 1
                if not inside:
                    if line.lstrip().startswith(b"#"):
                        comments.append((last.lineno, line))
                        continue
                    last.row = []
                last.row.append(line)
                if b'"' in line:
                    inside = _ends_quoted(line, inside)
                yield line

    with open(path, "rb") as fh:
        lines = data_lines(fh)
        rows = filter(None, csv.reader(map(decode, lines)))
        header, first = next(rows, []), next(rows, None)
        if first is None:
            raise EstimatorError(f"{path}: no data rows")
        try:
            # loadtxt holds every row to the first one's width
            if len(first) != len(header):
                raise ValueError("the first row's width is not the header's")
            block = np.loadtxt(itertools.chain(last.row, lines),
                               delimiter=",", quotechar='"', comments=None,
                               ndmin=2, encoding="utf-8",
                               converters={0: label} if labelled else None)
        except ValueError as exc:
            got = len(next(csv.reader(map(decode, last.row))))
            raise EstimatorError(f"{path}:{last.lineno}: " + (
                "non-numeric value" if got == len(header)
                else f"expected {len(header)} fields, got {got}")) from exc
    if labelled:
        block = _drop_first_column(block)
    return header, labels, block, comments


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


def read_panel_csv(path) -> ReturnPanel:
    """Panel CSV: header ``date,TICKER1,...``, one row per day, no gaps.

    Blank lines and lines starting with ``#`` are skipped, and errors name
    the line of the file."""
    header, dates, values, _ = _read_table(path, labelled=True)
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise EstimatorError(f"{path}: first header column must be 'date'")
    try:  # ReturnPanel rejects missing (non-finite) values
        return ReturnPanel(values, tuple(h.strip() for h in header[1:]),
                           tuple(dates))
    except EstimatorError as exc:
        raise EstimatorError(f"{path}: {exc}") from None


def _cells(texts):
    """Each text as a cell written by ``csv.writer``, quoted also when its
    first non-blank character is ``#``."""
    # csv.writer quotes "\r" and "\n" only because its terminator holds
    # them, so each text is written as a row before an empty cell, and the
    # ",\r\n" after it is cut here; a cell left unquoted holds no '"'
    cells = []
    csv.writer(SimpleNamespace(write=cells.append)).writerows(
        [text, ""] for text in texts)
    return [f'"{c[:-3]}"' if c.lstrip().startswith("#") else c[:-3]
            for c in cells]


def write_table(path, header, columns, comments=()) -> None:
    """Write a table CSV: each comment as a ``# `` line, then the header row
    and the data rows as the bytes ``csv.writer`` would write, ``\r\n``
    terminators included.

    ``columns`` is read left to right.  A 2-D float array is a block of
    columns, each value written as ``f"{x:.12g}"``; any other sequence is
    one text column.  A text or header cell whose first non-blank character
    is ``#`` is quoted too, or its line would read back as a comment."""
    parts = []
    for k, col in enumerate(columns):
        end = "\r\n" if k == len(columns) - 1 else ","
        if isinstance(col, np.ndarray) and col.ndim == 2:
            fmt = ",".join(["%.12g"] * col.shape[1]) + end
            rows = map(tuple, map(np.ndarray.tolist, col))
            parts.append(map(fmt.__mod__, rows))
        else:
            parts.append([cell + end for cell in _cells(col)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(_cells(header)) + "\r\n")
        fh.writelines(itertools.chain.from_iterable(zip(*parts, strict=True)))


def write_panel_csv(path, panel: ReturnPanel, header_lines=()) -> None:
    write_table(path, ["date", *panel.asset_ids],
                [panel.time_ids, panel.values], header_lines)


def read_matrix_csv(path) -> CorrelationMatrix:
    """Dense matrix CSV with a header row of asset ids.

    Blank lines and lines starting with ``#`` are skipped, and errors name
    the line of the file."""
    header, _, values, _ = _read_table(path, labelled=False)
    assets = tuple(h.strip() for h in header)
    if values.shape != (len(assets), len(assets)):
        raise EstimatorError(f"{path}: matrix shape does not match header")
    return CorrelationMatrix(values, assets)


def write_matrix_csv(path, M: CorrelationMatrix, header_lines=()) -> None:
    assets = M.asset_ids or tuple(f"A{i:04d}" for i in range(M.N))
    write_table(path, assets, [M.values], header_lines)


def write_density_csv(path, density: SpectralDensity) -> None:
    """Two-column CSV (lambda, rho); atoms as ``# atom loc mass`` comments.
    Values print to 12 significant digits; a ``_subordinate`` density is
    known to a few 1e-12 absolute (within 2.6e-12 of a plain fixed point
    run to 1e-14 on the tested free sums and products), so small values'
    last digits are noise."""
    write_table(path, ["lambda", "rho"],
                [np.column_stack([density.grid, density.density])],
                [f"atom {loc:.12g} {mass:.12g}" for loc, mass in density.atoms])


def read_density_csv(path) -> SpectralDensity:
    """Density CSV: header ``lambda,rho``, one row per grid point, and one
    ``# atom loc mass`` line per atom.  Errors name the line of the file."""
    header, _, values, comments = _read_table(path, labelled=False)
    if [h.strip() for h in header] != ["lambda", "rho"]:
        raise EstimatorError(f"{path}: header must be 'lambda,rho'")
    atoms = []
    for lineno, line in comments:
        words = line.split()
        if words[:2] != [b"#", b"atom"]:
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
