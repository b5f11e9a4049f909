import numpy as np
import pytest
from hypothesis import given, strategies as st

from enetpipe.errors import DataFormatError
from enetpipe.textio import (format_value, read_blocks,
                             read_blocks_with_preamble, write_blocks)


def test_vector_and_matrix_round_trip_exact(tmp_path):
    path = tmp_path / "blocks.txt"
    vec = np.array([1.5, -2.25, 3.125e-17, 0.1])
    mat = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    write_blocks(path, {"vec": vec, "mat": mat})
    out = read_blocks(path)
    np.testing.assert_array_equal(out["vec"], vec)
    np.testing.assert_array_equal(out["mat"], mat)


def test_conv_tensor_round_trip(tmp_path):
    path = tmp_path / "w.txt"
    w = np.linspace(-1.0, 1.0, 2 * 3 * 3 * 3).reshape(2, 3, 3, 3)
    write_blocks(path, {"w": w})
    np.testing.assert_array_equal(read_blocks(path)["w"], w)


def test_preamble_round_trip(tmp_path):
    path = tmp_path / "p.txt"
    write_blocks(path, {"v": np.array([1.0])},
                 preamble=["kernel: rbf gamma=0.5", "note: fixture"])
    blocks, preamble = read_blocks_with_preamble(path)
    assert preamble == ["kernel: rbf gamma=0.5", "note: fixture"]
    np.testing.assert_array_equal(blocks["v"], np.array([1.0]))


def test_malformed_header_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vec: not_a_number\n1 2 3\n")
    with pytest.raises(DataFormatError):
        read_blocks(path)


def test_wrong_value_count_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vec: 4\n1 2 3\n")
    with pytest.raises(DataFormatError):
        read_blocks(path)


def test_truncated_block_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mat: 3 2\n1 2\n3 4\n")
    with pytest.raises(DataFormatError, match="truncated"):
        read_blocks(path)


def test_non_numeric_value_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mat: 2 2\n1 2\n3 x\n")
    with pytest.raises(DataFormatError, match="'mat'"):
        read_blocks(path)


def test_non_ascii_byte_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes("v: 2\n1 \xe9\n".encode("latin-1"))
    with pytest.raises(DataFormatError):
        read_blocks(path)


def test_written_bytes(tmp_path):
    path = tmp_path / "w.txt"
    write_blocks(path, {"v": np.array([0.1, -2.0]),
                        "m": np.array([[1.0, 1e-300], [-0.0, 3.0]])},
                 preamble=["# note"])
    assert path.read_text() == ("# note\nv: 2\n0.10000000000000001 -2\n"
                                "m: 2 2\n1 1e-300\n-0 3\n")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_round_trips_doubles(v):
    assert float(format_value(v)) == v
