"""Unit tests for repro.utils.tables and .serialization."""

import numpy as np
import pytest

from repro.utils.serialization import load_arrays, save_arrays
from repro.utils.tables import format_cell, render_matrix, render_table


class TestTables:
    def test_render_basic(self):
        out = render_table(["a", "b"], [[1, 2], [3, 4]], title="t")
        assert "t" in out and "| a" in out and out.count("+") >= 6

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [[1]])

    def test_format_cell_float(self):
        assert format_cell(0.12345) == "0.1235"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(12345.6) == "12,346"
        assert format_cell(0.0) == "0"

    def test_format_cell_str(self):
        assert format_cell("x") == "x"

    def test_render_matrix_percent(self):
        m = np.array([[8, 2], [1, 9]])
        out = render_matrix(m, ["t0", "t1"], ["p0", "p1"], percent=True)
        assert "8 (80%)" in out and "9 (90%)" in out

    def test_render_matrix_shape_check(self):
        with pytest.raises(ValueError, match="labels"):
            render_matrix(np.eye(3), ["a"], ["b", "c", "d"])

    def test_render_matrix_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            render_matrix(np.zeros(3), ["a", "b", "c"], ["x", "y", "z"])


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        path = save_arrays(tmp_path / "model", arrays, {"arch": "tiny"})
        assert path.suffix == ".npz"
        loaded, meta = load_arrays(path)
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert meta["arch"] == "tiny"
        assert meta["format_version"] == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_arrays(tmp_path / "nothing.npz")

    def test_future_version_rejected(self, tmp_path):
        path = save_arrays(tmp_path / "m", {"a": np.zeros(1)}, {})
        # Rewrite with a bumped version.
        arrays, meta = load_arrays(path)
        import json

        meta["format_version"] = 999
        blob = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, a=np.zeros(1), __meta_json__=blob)
        with pytest.raises(ValueError, match="newer"):
            load_arrays(path)

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_arrays(tmp_path / "m", {"__meta_json__": np.zeros(1)})

    def test_creates_parent_dirs(self, tmp_path):
        path = save_arrays(tmp_path / "deep" / "dir" / "model", {"a": np.ones(2)})
        assert path.exists()

