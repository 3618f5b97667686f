"""Property tests: the parsers return frames or raise FormatError, nothing else,
the PNM reader accepts every header its grammar allows, and the PNM layer's
interleaving matches plain numpy transposes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from chaospip import (
    FormatError,
    Frame,
    ReseedMode,
    container_mode_for,
    read_container,
    read_pnm,
    write_container,
    write_pnm,
)
from chaospip.io import _HEADER, HEADER_SIZE, read_raw

SETTINGS = settings(max_examples=300, deadline=None)

_dims = st.integers(0, 6)  # small, so some inputs get past the geometry checks
_frames = st.builds(
    lambda w, h, ch: Frame(w, h, ch, bytes(i * 37 % 256 for i in range(w * h * ch))),
    st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 3]),
)


def _mutate(blob: bytes, at: int, value: int, resize: int) -> bytes:
    """`blob` with one byte replaced, then cut short or extended."""
    blob = bytearray(blob)
    blob[at % len(blob)] = value
    return bytes(blob[: len(blob) + resize] if resize < 0 else blob + bytes(resize))


def _mutants(valid):
    resize = st.just(0) | st.integers(-3, 3)
    return st.builds(_mutate, valid, st.integers(0, 1 << 16), st.integers(0, 255), resize)


_pnm_inputs = st.one_of(
    st.binary(max_size=256),
    st.builds(bytes.__add__, st.sampled_from([b"P5", b"P6"]), st.binary(max_size=128)),
    _mutants(_frames.map(write_pnm)),
)
_WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]
_separator_runs = st.lists(
    st.sampled_from(_WHITESPACE)
    | st.binary(max_size=8).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n"),
    min_size=1, max_size=4,
).map(b"".join)
_container_headers = st.builds(
    lambda magic, *fields: _HEADER.pack(magic, *fields),
    st.sampled_from([b"CPIP", b"NOPE"]),
    st.integers(0, 2),    # version
    st.integers(0, 5),    # mode
    st.integers(0, 2),    # reseed
    st.integers(0, 255),  # reserved
    _dims, _dims, st.integers(0, 4),
)
_container_inputs = st.one_of(
    st.binary(max_size=256),
    st.builds(bytes.__add__, _container_headers, st.binary(max_size=256)),
    _mutants(_frames.map(lambda f: write_container(
        [f], container_mode_for(f.channels, video=False), ReseedMode.CONTINUOUS))),
)


def _parsed_or_none(parse, *args):
    try:
        return parse(*args)
    except FormatError:
        return None


@SETTINGS
@given(_pnm_inputs)
def test_read_pnm_returns_frame_or_format_error(blob):
    frame = _parsed_or_none(read_pnm, blob)
    if frame is not None:
        assert read_pnm(write_pnm(frame)) == frame


@SETTINGS
@given(_frames, st.lists(_separator_runs, min_size=3, max_size=3), st.sampled_from(_WHITESPACE))
def test_read_pnm_accepts_any_separators(frame, separators, last):
    canonical = write_pnm(frame)
    tokens = (str(n).encode() for n in (frame.width, frame.height, 255))
    header = canonical[:2] + b"".join(sep + token for sep, token in zip(separators, tokens)) + last
    raster = canonical[len(canonical) - len(frame.data):]
    assert read_pnm(header + raster) == read_pnm(canonical) == frame


_sides = st.integers(1, 64)
# (width, height): 1 x N, N x 1 and any small shape, odd sizes included.
_geometries = st.one_of(st.tuples(st.just(1), st.integers(1, 300)),
                        st.tuples(st.integers(1, 300), st.just(1)),
                        st.tuples(_sides, _sides))
_rasters = st.builds(
    lambda shape, channels, seed: (*shape, channels, np.random.default_rng(seed).integers(
        0, 256, shape[0] * shape[1] * channels, dtype=np.uint8).tobytes()),
    _geometries, st.sampled_from([1, 3]), st.integers(0, 2**32 - 1),
)


def _pnm_header(width: int, height: int, channels: int) -> bytes:
    return f"P{5 if channels == 1 else 6}\n{width} {height}\n255\n".encode()


@SETTINGS
@given(_rasters)
@example((1, 1, 3, b"abc"))
@example((1, 5, 3, bytes(range(15))))
@example((7, 1, 3, bytes(range(21))))
def test_write_pnm_is_the_header_plus_the_transposed_planes(raster):
    width, height, channels, data = raster
    planar = np.frombuffer(data, dtype=np.uint8).reshape(channels, height, width)
    assert write_pnm(Frame(width, height, channels, data)) == \
        _pnm_header(width, height, channels) + planar.transpose(1, 2, 0).tobytes()


@SETTINGS
@given(_rasters, _separator_runs)
@example((1, 5, 3, bytes(range(15))), b"# comment\n")
@example((7, 1, 3, bytes(range(21))), b" ")
def test_read_pnm_is_the_sliced_and_transposed_payload(raster, separator):
    width, height, channels, data = raster
    header = _pnm_header(width, height, channels).replace(b"\n", separator, 1)
    blob = header + data
    interleaved = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(height, width, channels)
    want = Frame(width, height, channels, interleaved.transpose(2, 0, 1).tobytes())
    for kind in (bytes, bytearray, memoryview):
        assert read_pnm(kind(blob)) == want, kind


@SETTINGS
@given(_container_inputs)
def test_read_container_returns_frames_or_format_error(blob):
    parsed = _parsed_or_none(read_container, blob)
    if parsed is not None:
        frames, _mode, _reseed = parsed
        assert b"".join(f.data for f in frames) == blob[HEADER_SIZE:]


@SETTINGS
@given(st.binary(max_size=256), st.integers(-2, 6), st.integers(-2, 6), st.sampled_from([1, 3]))
def test_read_raw_returns_frames_or_format_error(blob, width, height, channels):
    frames = _parsed_or_none(read_raw, blob, width, height, channels)
    if frames is not None:
        assert b"".join(f.data for f in frames) == blob
