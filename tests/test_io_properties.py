"""Property tests: the parsers return frames or raise FormatError, nothing else,
and the PNM reader accepts every header its grammar allows."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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
