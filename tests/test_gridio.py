import struct
import threading
import warnings

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

    def test_read_leaves_other_threads_warnings_alone(self, tmp_path):
        # warning filters are process-wide, so a reader that set one would
        # turn another thread's harmless warnings into exceptions
        path = tmp_path / "grid.csv"
        write_grid(path, np.ones((64, 64)))
        reads, done, raised = [], threading.Event(), []

        def reader():
            while not done.is_set():
                read_grid(path)
                reads.append(1)

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "harmless", UserWarning)
            thread = threading.Thread(target=reader)
            thread.start()
            try:
                while len(reads) < 20 and thread.is_alive():
                    try:
                        warnings.warn("harmless", UserWarning)
                    except UserWarning:
                        raised.append(1)
            finally:
                done.set()
                thread.join(timeout=60)
        assert not thread.is_alive() and len(reads) >= 20 and raised == []

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


def _raw_file(path, values, hx, hy):
    """The bytes the writer would produce, written without its checks."""
    if path.suffix == ".csv":
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in values))
    else:
        m, n = values.shape
        path.write_bytes(struct.pack("<4sIIdd", MAGIC, m, n, hx, hy)
                         + values.astype("<f8").tobytes())


REFUSED_WRITES = {
    "nan": (np.array([[1.0, np.nan], [2.0, 3.0]]), 1.0),
    "inf": (np.array([[1.0, 2.0], [-np.inf, 3.0]]), 1.0),
    "negative-spacing": (np.ones((2, 2)), -1.0),
    "empty": (np.zeros((0, 3)), 1.0),
}


# CSV files carry no spacings, so only binary files can hold a bad one
@pytest.mark.parametrize("case,suffix", [
    (case, suffix) for case in REFUSED_WRITES for suffix in (".g2s", ".csv")
    if not (case == "negative-spacing" and suffix == ".csv")
])
def test_write_refuses_what_read_refuses(tmp_path, case, suffix):
    values, hx = REFUSED_WRITES[case]
    # the reader refuses such a file ...
    raw = tmp_path / "raw" / ("grid" + suffix)
    raw.parent.mkdir()
    _raw_file(raw, values, hx, 1.0)
    with pytest.raises(FormatError):
        read_grid(raw)
    # ... so the writer refuses the grid before creating any file, and an
    # existing file at the target keeps its bytes
    out = tmp_path / "out"
    out.mkdir()
    path = out / ("grid" + suffix)
    write_grid(path, np.ones((2, 2)))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(FormatError):
        write_grid(path, values, hx=hx)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_csv_ignores_spacings(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid(path, np.ones((2, 2)), hx=-1.0)
    assert np.array_equal(read_grid(path).values, np.ones((2, 2)))
