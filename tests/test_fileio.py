import numpy as np
import pytest

from rmtkit import fileio
from rmtkit.estimators import CorrelationMatrix, EstimatorError, ReturnPanel


def sample_panel():
    rng = np.random.default_rng(0)
    return ReturnPanel(rng.standard_normal((6, 3)), ("AAA", "BBB", "CCC"),
                       ("d1", "d2", "d3", "d4", "d5", "d6"))


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
