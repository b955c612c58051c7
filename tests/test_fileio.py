import csv

import numpy as np
import pytest

from rmtkit import fileio
from rmtkit.estimators import CorrelationMatrix, EstimatorError, ReturnPanel


def sample_panel():
    rng = np.random.default_rng(0)
    return ReturnPanel(rng.standard_normal((6, 3)), ("AAA", "BBB", "CCC"),
                       ("d1", "d2", "d3", "d4", "d5", "d6"))


# values whose %.12g forms test the formatter's edges: a signed zero, the
# smallest subnormal, exponent switches on both sides, a rounded mantissa
EDGE_VALUES = [-0.0, 5e-324, 1e16, 123456789012.5, -1e-300]


def reference_csv(path, header, rows, header_lines=()):
    """The bytes csv.writer writes with every value as f"{x:.12g}"."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def edge_panel(time_ids=("2020,01", 'a"b', "d3", "d4", "d5")):
    values = np.array([np.roll(EDGE_VALUES, k) for k in range(5)])
    return ReturnPanel(values, ("AAA", "BBB", "CCC", "DDD", "EEE"), time_ids)


class TestPanelCsv:
    def test_roundtrip(self, tmp_path):
        p = sample_panel()
        path = tmp_path / "panel.csv"
        fileio.write_panel_csv(path, p, ["command: test"])
        q = fileio.read_panel_csv(path)
        assert q.asset_ids == p.asset_ids
        assert q.time_ids == p.time_ids
        assert np.allclose(q.values, p.values, atol=1e-11)

    def test_repeatable_bytes(self, tmp_path):
        p = sample_panel()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_panel_csv(a, p)
        fileio.write_panel_csv(b, p)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("time_ids", [
        ("2020,01", 'a"b', "d3", "d4", "d5"),  # quoted dates
        (),  # integer dates
        ("d\n1", "e\r2", "d3", "d4", "d5"),  # line breaks inside dates
    ])
    def test_bytes_match_csv_writer(self, tmp_path, time_ids):
        p = edge_panel(time_ids)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        fileio.write_panel_csv(ours, p, ["command: test"])
        reference_csv(ref, ["date", *p.asset_ids],
                      ([t, *(f"{x:.12g}" for x in row)]
                       for t, row in zip(p.time_ids, p.values)),
                      ["command: test"])
        assert ours.read_bytes() == ref.read_bytes()

    def test_quoted_dates_roundtrip(self, tmp_path):
        for time_ids in [("2020,01", 'a"b', "d3", "d4", "d5"),
                         ("d\n1", "e\r2", "d3", "d4", "d5")]:
            p = edge_panel(time_ids)
            path = tmp_path / "panel.csv"
            fileio.write_panel_csv(path, p)
            q = fileio.read_panel_csv(path)
            assert q.time_ids == p.time_ids
            written = [[float(f"{x:.12g}") for x in row] for row in p.values]
            assert np.array_equal(q.values, written)

    def test_fast_and_row_readers_agree(self, tmp_path):
        rng = np.random.default_rng(1)
        p = ReturnPanel(rng.standard_normal((40, 7)) * 10.0 ** rng.integers(
            -8, 8, (40, 7)))
        path = tmp_path / "panel.csv"
        fileio.write_panel_csv(path, p, ["command: test"])
        fast = fileio._loadtxt_table(path, labelled=True)
        assert fast is not None
        header, dates, values = fileio._csv_table(path, labelled=True)
        assert fast[0] == header == ["date", *p.asset_ids]
        assert fast[1] == dates == list(map(str, p.time_ids))
        assert np.array_equal(fast[2], values)
        q = fileio.read_panel_csv(path)
        assert np.array_equal(q.values, values)
        assert q.time_ids == tuple(dates) and q.asset_ids == p.asset_ids

    def test_values_fill_one_contiguous_buffer(self, tmp_path):
        # the label column is dropped in place: no second T x N copy, and
        # no strided view that a caller would have to copy
        T, N = 40, 7
        p = ReturnPanel(np.random.default_rng(3).standard_normal((T, N)))
        path = tmp_path / "panel.csv"
        fileio.write_panel_csv(path, p)
        values = fileio.read_panel_csv(path).values
        assert values.flags.c_contiguous
        root = values
        while isinstance(root.base, np.ndarray):
            root = root.base
        assert root.nbytes <= (T + 1) * N * values.itemsize
        assert np.array_equal(values, [[float(f"{x:.12g}") for x in row]
                                       for row in p.values])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_endings_and_blank_lines(self, tmp_path, newline):
        path = tmp_path / "x.csv"
        path.write_bytes(newline.join(
            ["# command: test", "date,AAA,BBB", "d1,0.5,0.25", "",
             "d2,-1,2e-3", ""]).encode())
        assert fileio._loadtxt_table(path, labelled=True) is not None
        p = fileio.read_panel_csv(path)
        assert p.time_ids == ("d1", "d2") and p.asset_ids == ("AAA", "BBB")
        assert np.array_equal(p.values, [[0.5, 0.25], [-1.0, 2e-3]])

    def test_quoted_date_in_the_body_only(self, tmp_path):
        path = tmp_path / "x.csv"
        # a quoted date splits on no comma, or on one
        for date in ('"d2"', '"d,2"'):
            path.write_text(f"date,AAA\nd1,0.5\n{date},0.25\n")
            assert fileio._loadtxt_table(path, labelled=True) is None
            p = fileio.read_panel_csv(path)
            assert p.time_ids == ("d1", date.strip('"'))
            assert np.array_equal(p.values, [[0.5], [0.25]])

    def test_extra_field_error_names_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# command: test\ndate,AAA,BBB\nd1,0.5,0.25\n"
                        "d2,0.5,0.25,9\nd3,0.5,0.25\n")
        with pytest.raises(EstimatorError,
                           match=r"x\.csv:4: expected 3 fields, got 4"):
            fileio.read_panel_csv(path)
        # on the last row
        path.write_text("date,AAA,BBB\nd1,0.5,0.25\nd2,0.5,0.25,9\n")
        with pytest.raises(EstimatorError,
                           match=r"x\.csv:3: expected 3 fields, got 4"):
            fileio.read_panel_csv(path)
        # on every row, so that the rows agree with each other
        path.write_text("date,AAA\nd1,0.5,1\nd2,0.5,1\n")
        with pytest.raises(EstimatorError,
                           match=r"x\.csv:2: expected 2 fields, got 3"):
            fileio.read_panel_csv(path)

    def test_comment_character_inside_a_row_is_not_a_comment(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,AAA\nd1,0.5\nd2,0.5#x\n")
        with pytest.raises(EstimatorError, match=r"x\.csv:3: non-numeric"):
            fileio.read_panel_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("time,AAA\n1,0.5\n")
        with pytest.raises(EstimatorError, match="must be 'date'"):
            fileio.read_panel_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,AAA\n")
        with pytest.raises(EstimatorError, match=r"x\.csv: no data rows"):
            fileio.read_panel_csv(path)

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,AAA,BBB\nd1,0.5\n")
        with pytest.raises(EstimatorError, match=r"x\.csv:2"):
            fileio.read_panel_csv(path)
        # skipped comment and blank lines still count as lines of the file
        path.write_text("# command: test\n# params: a=1\n"
                        "date,AAA,BBB\n\nd1,0.5,0.25\nd2,0.5\n")
        with pytest.raises(EstimatorError, match=r"x\.csv:6:"):
            fileio.read_panel_csv(path)
        # a whitespace-only line is a row of one field, not a blank line
        path.write_text("date,AAA,BBB\nd1,0.5,0.25\n   \nd2,1,2\n")
        with pytest.raises(EstimatorError,
                           match=r"x\.csv:3: expected 3 fields, got 1"):
            fileio.read_panel_csv(path)

    def test_non_numeric_error_names_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,AAA\nd1,0.5\nd2,oops\n")
        with pytest.raises(EstimatorError, match=r"x\.csv:3"):
            fileio.read_panel_csv(path)
        path.write_text("# command: test\n# params: a=1\n"
                        "date,AAA\nd1,0.5\nd2,oops\n")
        with pytest.raises(EstimatorError, match=r"x\.csv:5:"):
            fileio.read_panel_csv(path)

    def test_missing_values_forbidden(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,AAA\nd1,nan\n")
        with pytest.raises(EstimatorError, match="missing values"):
            fileio.read_panel_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# generated by: test\ndate,AAA\nd1,0.25\n")
        p = fileio.read_panel_csv(path)
        assert p.values[0, 0] == 0.25
        # inside the body too
        path.write_text("date,AAA,BBB\nd1,0.5,0.25\n# d9,7,7\nd2,1,2\n")
        p = fileio.read_panel_csv(path)
        assert p.time_ids == ("d1", "d2")
        assert np.array_equal(p.values, [[0.5, 0.25], [1.0, 2.0]])
        # where it still counts as a line of the file
        path.write_text("date,AAA\nd1,0.5\n# note\nd2,oops\n")
        with pytest.raises(EstimatorError, match=r"x\.csv:4: non-numeric"):
            fileio.read_panel_csv(path)


class TestMatrixCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        n = len(EDGE_VALUES)
        values = np.zeros((n, n))
        iu = np.triu_indices(n)
        values[iu] = np.resize(EDGE_VALUES, len(iu[0]))
        values = values + np.triu(values, 1).T
        M = CorrelationMatrix(values, {"asset_ids": ("X,1", 'Y"2', "Z", "U", "V")})
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        fileio.write_matrix_csv(ours, M, header_lines=["command: test"])
        reference_csv(ref, M.metadata["asset_ids"],
                      ([f"{x:.12g}" for x in row] for row in M.values),
                      ["command: test"])
        assert ours.read_bytes() == ref.read_bytes()

    def test_fast_and_row_readers_agree(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 6))
        M = CorrelationMatrix(X.T @ X / 30)
        path = tmp_path / "m.csv"
        fileio.write_matrix_csv(path, M, header_lines=["command: test"])
        fast = fileio._loadtxt_table(path, labelled=False)
        assert fast is not None
        header, labels, values = fileio._csv_table(path, labelled=False)
        assert fast[0] == header and fast[1] == labels == []
        assert np.array_equal(fast[2], values)
        M2 = fileio.read_matrix_csv(path)
        assert np.array_equal(M2.values, values)
        assert M2.metadata["asset_ids"] == tuple(header)

    def test_quoted_asset_ids_roundtrip(self, tmp_path):
        # quoted ids send the file to the csv.reader fallback
        M = CorrelationMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]),
                              {"asset_ids": ("X,1", 'Y"2')})
        path = tmp_path / "m.csv"
        fileio.write_matrix_csv(path, M, header_lines=["command: test"])
        assert fileio._loadtxt_table(path, labelled=False) is None
        M2 = fileio.read_matrix_csv(path)
        assert np.array_equal(M2.values, M.values)
        assert M2.metadata["asset_ids"] == ("X,1", 'Y"2')

    def test_extra_field_error_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("X,Y\n1.0,0.3\n0.3,1.0,7\n")
        with pytest.raises(EstimatorError,
                           match=r"m\.csv:3: expected 2 fields, got 3"):
            fileio.read_matrix_csv(path)

    def test_roundtrip(self, tmp_path):
        M = CorrelationMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]),
                              {"asset_ids": ("X", "Y")})
        path = tmp_path / "m.csv"
        fileio.write_matrix_csv(path, M, header_lines=["command: test"])
        M2 = fileio.read_matrix_csv(path)
        assert np.allclose(M2.values, M.values)
        assert M2.metadata["asset_ids"] == ("X", "Y")

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("X,Y\n")
        with pytest.raises(EstimatorError, match=r"x\.csv: no data rows"):
            fileio.read_matrix_csv(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("X,Y\n1.0,0.3\n")
        with pytest.raises(EstimatorError, match="shape"):
            fileio.read_matrix_csv(path)

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        # the skipped comment line still counts as a line of the file
        path.write_text("# command: test\nX,Y\n1.0,0.3\n0.3\n")
        with pytest.raises(EstimatorError,
                           match=r"m\.csv:4: expected 2 fields, got 1"):
            fileio.read_matrix_csv(path)

    def test_non_numeric_error_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# command: test\nX,Y\n1.0,0.3\n0.3,oops\n")
        with pytest.raises(EstimatorError, match=r"m\.csv:4: non-numeric"):
            fileio.read_matrix_csv(path)


class TestTable:
    @pytest.mark.parametrize("case", ["text_in_middle", "floats_only",
                                      "comments_and_text_last"])
    def test_bytes_match_csv_writer(self, tmp_path, case):
        n = len(EDGE_VALUES)
        block = np.array([np.roll(EDGE_VALUES, k) for k in range(n)])
        texts = ["clip", "x,1", 'y"2', "d\n1", ""]
        if case == "text_in_middle":
            header, comments = ["a", "s", "x", "y"], ()
            columns = [block[:, :1], texts, block[:, 1:3]]
            rows = [[f"{r[0]:.12g}", t, f"{r[1]:.12g}", f"{r[2]:.12g}"]
                    for r, t in zip(block, texts)]
        elif case == "floats_only":
            header, comments = ["x", "y", "z"], ()
            columns = [block[:, :3]]
            rows = [[f"{x:.12g}" for x in r[:3]] for r in block]
        else:
            header = ["x,1", "s"]
            comments = ["command: test", "params: a=1"]
            columns = [block[:, :1], texts]
            rows = [[f"{r[0]:.12g}", t] for r, t in zip(block, texts)]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        fileio.write_table(ours, header, columns, comments)
        reference_csv(ref, header, rows, comments)
        assert ours.read_bytes() == ref.read_bytes()

    def test_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_table(tmp_path / "t.csv", ["s", "x"],
                               [["a", "b"], np.zeros((3, 1))])


class TestDensityCsv:
    def test_error_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# atom 0 0.5\nlambda,rho\n0,0.5\n1,oops\n")
        with pytest.raises(EstimatorError, match=r"d\.csv:4: non-numeric value"):
            fileio.read_density_csv(path)
        path.write_text("# atom 0 0.5\nlambda,rho\n0,0.5\n1,0.5,7\n")
        with pytest.raises(EstimatorError,
                           match=r"d\.csv:4: expected 2 fields, got 3"):
            fileio.read_density_csv(path)
        path.write_text("lambda,rho\n0,0.5\n# atom 0\n1,0.5\n")
        with pytest.raises(EstimatorError,
                           match=r"d\.csv:3: expected '# atom loc mass'"):
            fileio.read_density_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0,1\n1,1\n")
        with pytest.raises(EstimatorError, match="lambda,rho"):
            fileio.read_density_csv(path)

    def test_atoms_and_crlf_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"# atom 2 0.5\nlambda,rho\r\n0,0.5\r\n1,0.5\r\n")
        d = fileio.read_density_csv(path)
        assert d.atoms == ((2.0, 0.5),)
        assert np.array_equal(d.grid, [0.0, 1.0])
        assert np.array_equal(d.density, [0.5, 0.5])


class TestMetadataHeader:
    def test_sorted_and_stable(self):
        lines = fileio.metadata_header("simulate", {"b": 2, "a": 1})
        assert lines == ["command: simulate", "params: a=1 b=2"]
