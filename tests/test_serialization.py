"""Tensor wire format: round-trips and malformed-input diagnostics."""

import io
import struct

import numpy as np
import pytest

from attrembed.autodiff import (
    MAGIC,
    load_tensor,
    read_tensor,
    save_tensor,
    write_tensor,
)
from attrembed.errors import ContractError, FormatError


def round_trip(array):
    buf = io.BytesIO()
    write_tensor(buf, array)
    buf.seek(0)
    out = read_tensor(buf)
    assert buf.read() == b""
    return out


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape", [(), (5,), (3, 4), (2, 3, 4), (2, 2, 2, 2)]
    )
    def test_bitwise(self, dtype, shape):
        rng = np.random.default_rng(3)
        array = rng.normal(size=shape).astype(dtype)
        out = round_trip(array)
        assert out.dtype == dtype
        assert out.shape == array.shape
        assert out.tobytes() == array.tobytes()

    def test_special_values_survive(self):
        array = np.array([0.0, -0.0, np.finfo(np.float64).tiny, np.finfo(np.float64).max])
        out = round_trip(array)
        assert out.tobytes() == array.tobytes()

    def test_noncontiguous_input(self):
        base = np.arange(24.0).reshape(4, 6)
        view = base[:, ::2]
        np.testing.assert_array_equal(round_trip(view), view)

    def test_file_helpers(self, tmp_path):
        array = np.linspace(0, 1, 7, dtype=np.float32)
        path = tmp_path / "t.bin"
        save_tensor(path, array)
        out = load_tensor(path)
        assert out.tobytes() == array.tobytes()

    def test_streams_concatenate(self):
        buf = io.BytesIO()
        first = np.arange(3.0)
        second = np.arange(4.0, dtype=np.float32).reshape(2, 2)
        write_tensor(buf, first)
        write_tensor(buf, second)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), first)
        np.testing.assert_array_equal(read_tensor(buf), second)


class TestRejection:
    def test_unsupported_dtype(self):
        with pytest.raises(ContractError):
            write_tensor(io.BytesIO(), np.arange(3))  # int64

    def test_rank_above_limit(self):
        with pytest.raises(Exception):
            write_tensor(io.BytesIO(), np.zeros((1, 1, 1, 1, 1)))

    def test_bad_magic_names_offset(self):
        buf = io.BytesIO(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="byte 0"):
            read_tensor(buf)

    def test_truncated_magic(self):
        with pytest.raises(FormatError, match="missing magic"):
            read_tensor(io.BytesIO(b"AT"))

    def test_truncated_extents(self):
        buf = io.BytesIO(MAGIC + struct.pack("<I", 2) + struct.pack("<I", 3))
        with pytest.raises(FormatError, match="extent"):
            read_tensor(buf)

    def test_excessive_rank(self):
        buf = io.BytesIO(MAGIC + struct.pack("<I", 9))
        with pytest.raises(FormatError, match="rank 9"):
            read_tensor(buf)

    def test_bad_width_flag(self):
        buf = io.BytesIO(MAGIC + struct.pack("<I", 1) + struct.pack("<I", 2) + bytes([7]))
        with pytest.raises(FormatError, match="width flag 7"):
            read_tensor(buf)

    def test_truncated_payload_names_offset(self):
        good = io.BytesIO()
        write_tensor(good, np.arange(4.0))
        blob = good.getvalue()[:-8]  # drop the final scalar
        with pytest.raises(FormatError, match="truncated"):
            read_tensor(io.BytesIO(blob))

    def test_huge_extents_refused_before_reading(self):
        buf = io.BytesIO(MAGIC + struct.pack("<5I", 4, *[0xFFFFFFF0] * 4) + bytes([8]) + b"\x00" * 64)
        with pytest.raises(FormatError, match="truncated at byte 25"):
            read_tensor(buf)

    def test_offset_in_second_tensor(self):
        buf = io.BytesIO()
        write_tensor(buf, np.arange(2.0))
        start = buf.tell()
        buf.write(b"JUNK")
        buf.seek(0)
        read_tensor(buf)
        with pytest.raises(FormatError, match=f"byte {start}"):
            read_tensor(buf)
