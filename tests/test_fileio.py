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

    def test_extra_field_error_names_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# command: test\ndate,AAA,BBB\nd1,0.5,0.25\n"
                        "d2,0.5,0.25,9\nd3,0.5,0.25\n")
        with pytest.raises(EstimatorError,
                           match=r"x\.csv:4: expected 3 fields, got 4"):
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


class TestMetadataHeader:
    def test_sorted_and_stable(self):
        lines = fileio.metadata_header("simulate", {"b": 2, "a": 1})
        assert lines == ["command: simulate", "params: a=1 b=2"]
