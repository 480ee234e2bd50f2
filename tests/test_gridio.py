import struct

import numpy as np
import pytest

from surfrec import FormatError, read_grid, write_grid
from surfrec.gridio import MAGIC, _read_csv_rows


class TestBinary:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        values = rng.standard_normal((7, 9))
        path = tmp_path / "grid.g2s"
        write_grid(path, values, hx=0.25, hy=1.5)
        got = read_grid(path)
        assert np.array_equal(got.values, values)
        assert got.hx == 0.25 and got.hy == 1.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "grid.g2s"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            read_grid(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "grid.g2s"
        path.write_bytes(MAGIC + b"\x00" * 4)
        with pytest.raises(FormatError, match="short"):
            read_grid(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "grid.g2s"
        header = struct.pack("<4sIIdd", MAGIC, 4, 4, 1.0, 1.0)
        payload = struct.pack("<15d", *range(15))  # header promises 16 values
        path.write_bytes(header + payload)
        with pytest.raises(FormatError, match="truncated"):
            read_grid(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "grid.g2s"
        write_grid(path, np.zeros((2, 2)))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_grid(path)

    def test_implausible_dimensions(self, tmp_path):
        path = tmp_path / "grid.g2s"
        header = struct.pack("<4sIIdd", MAGIC, 2**31, 2**31, 1.0, 1.0)
        path.write_bytes(header)
        with pytest.raises(FormatError, match="implausible"):
            read_grid(path)

    def test_non_finite_values(self, tmp_path):
        path = tmp_path / "grid.g2s"
        header = struct.pack("<4sIIdd", MAGIC, 1, 2, 1.0, 1.0)
        path.write_bytes(header + struct.pack("<2d", 1.0, np.inf))
        with pytest.raises(FormatError, match="finite"):
            read_grid(path)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(71)
        values = rng.standard_normal((5, 4)) * 1e-7
        path = tmp_path / "grid.csv"
        write_grid(path, values)
        got = read_grid(path)
        assert np.array_equal(got.values, values)  # repr round-trips exactly
        assert got.hx is None and got.hy is None

    def test_ragged_rows_name_the_offender(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("1,2,3\n4,5\n6,7,8\n")
        with pytest.raises(FormatError, match="row 2"):
            read_grid(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("1,2\n3,potato\n")
        with pytest.raises(FormatError, match="row 2"):
            read_grid(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("\n\n")
        with pytest.raises(FormatError, match="no numeric rows"):
            read_grid(path)

    @pytest.mark.parametrize("text", [
        "1,2\n\n3,4\n",
        "1,2\n   \n3,4\n",  # a blank line of spaces stops the one-pass parser
        " 1 , 2 \r\n3,4\r\n",
        "1,2,3\n",
        "1\n2\n3\n",
        "1_0,2\n",  # Python float() reads digit separators; numpy does not
        "0.1000000000000000055511151231257827,-0.0,4.9e-324,1e-400\n",
    ])
    def test_one_pass_parse_matches_row_loop(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_bytes(text.encode())
        want = _read_csv_rows(path)
        got = read_grid(path).values
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("text,message", [
        ("1,2,\n3,4,\n", "row 1: non-numeric value"),
        ("#x\n1,2\n", "row 1: non-numeric value"),
        ("1,2\n\n3\n", "row 3: expected 2 values, got 1"),
        ("1,nan\n", "grid contains non-finite values"),
    ])
    def test_failures_keep_their_messages(self, tmp_path, text, message):
        path = tmp_path / "grid.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FormatError) as exc:
            read_grid(path)
        assert str(exc.value) == f"{path}: {message}"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "grid.g2s"
    write_grid(path, np.ones((3, 3)))
    write_grid(path, np.zeros((3, 3)))  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["grid.g2s"]
    assert np.array_equal(read_grid(path).values, np.zeros((3, 3)))
