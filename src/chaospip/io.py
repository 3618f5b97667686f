"""Image and container serialization; the readers take any bytes-like object.

PNM side: binary PGM (P5) and PPM (P6) with maxval 255. The header is
the magic, then width, height and maxval in ASCII decimal, each after
one or more separators (a whitespace byte or a '#' comment through
'\n'), then exactly one whitespace byte before the raster. PPM's
interleaved RGB is converted to the planar layout used everywhere else.

Container side: the encrypted-payload file format. Layout, big-endian:

  offset  0  4s  magic     b"CPIP"
  offset  4  B   version   1
  offset  5  B   mode      0 gray image, 1 RGB image, 2 gray video, 3 RGB video
  offset  6  B   reseed    0 continuous, 1 per-frame
  offset  7  B   reserved  0
  offset  8  I   width
  offset 12  I   height
  offset 16  I   frame count

followed by frame_count * width * height * channels payload bytes (frames
concatenated, each channel-planar). The header never carries key material.

Raw side: `read_raw` checks concatenated channel-planar frames from raw
video files and container payloads, then cuts them into Frames with
`cipher._cut`, the cutter that also slices `process_stream`'s output.

Each reader checks its input in a private parser (`_parse_pnm`,
`_parse_container`, `_parse_raw`) that returns views into it, and the
PNM reader and writer (de-)interleave through `_columns`. For a large
input, the CLI's `encrypt` and `decrypt` call the parsers, then hand
`_planes`' pieces and the part writers (`_pnm_parts`, `_container_parts`)
to a helper thread, which runs private code only (`keystream._pipeline`).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, Iterable, Iterator

import operator
import re
import struct

import numpy as np

from .cipher import Frame, ReseedMode, _Stream, _check_same_shape, _cut
from .errors import FormatError
from .keystream import _new_array, _view

MAGIC = b"CPIP"
VERSION = 1
_HEADER = struct.Struct(">4sBBBBIII")
HEADER_SIZE = _HEADER.size

# The PNM header of the module docstring. Each separator is one whitespace
# byte or one comment, never a nested repeat, so a failed match takes
# linear time.
_PNM_HEADER = re.compile(rb"P[56]" + rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*\n)+(\d+)" * 3
                         + rb"[ \t\n\r\x0b\x0c]")


class ContainerMode(IntEnum):
    """Payload kind stored in a container."""

    GRAY_IMAGE = 0
    RGB_IMAGE = 1
    GRAY_VIDEO = 2
    RGB_VIDEO = 3

    @property
    def channels(self) -> int:
        return 3 if self in (ContainerMode.RGB_IMAGE, ContainerMode.RGB_VIDEO) else 1

    @property
    def is_video(self) -> bool:
        return self in (ContainerMode.GRAY_VIDEO, ContainerMode.RGB_VIDEO)


def container_mode_for(channels: int, video: bool) -> ContainerMode:
    """Mode byte for a payload of `channels` channels."""
    if channels == 1:
        return ContainerMode.GRAY_VIDEO if video else ContainerMode.GRAY_IMAGE
    if channels == 3:
        return ContainerMode.RGB_VIDEO if video else ContainerMode.RGB_IMAGE
    raise ValueError(f"channels must be 1 or 3, got {channels!r}")


def _parse_pnm(data) -> tuple[int, int, int, memoryview]:
    """Width, height, channels and raster of a binary PGM/PPM, any bytes-like
    object, checked as `read_pnm` checks them; the raster is a view into `data`."""
    data = _view(data)  # the payload is read in place, not sliced off as a copy
    magic = data[:2].tobytes()
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"not a binary PGM/PPM file (magic {magic!r})")
    channels = 1 if magic == b"P5" else 3
    header = _PNM_HEADER.match(data)
    if header is None:
        raise FormatError("malformed PNM header: expected the magic, width, height and maxval, "
                          "each after whitespace or '#' comments, then one whitespace byte")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:  # more digits than int() accepts
        raise FormatError("header number has too many digits") from None
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    raster = data[header.end():]
    expected = width * height * channels
    if len(raster) < expected:
        raise FormatError(f"truncated payload: {len(raster)} bytes, expected {expected}")
    if len(raster) > expected:
        raise FormatError(f"trailing data after payload: {len(raster) - expected} bytes")
    return width, height, channels, raster


def _columns(pixels: np.ndarray, start: int, stop: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(a, b, column) for each channel that planar bytes [start, stop) of an
    interleaved raster cross, where `pixels` is the raster as an (n, 3) array:
    planar bytes [start + a, start + b) are `column`, a strided view of `pixels`."""
    n, offset = len(pixels), start
    while start < stop:
        channel, pixel = divmod(start, n)
        end = min(stop, (channel + 1) * n)
        yield start - offset, end - offset, pixels[pixel:pixel + end - start, channel]
        start = end


def _deinterleave(raster, out: np.ndarray, start: int) -> None:
    """Fill `out` with planar bytes [start, start + len(out)) of an RGB raster."""
    pixels = np.frombuffer(raster, np.uint8).reshape(-1, 3)
    for a, b, column in _columns(pixels, start, start + len(out)):
        out[a:b] = column


def _interleave(planar, raster: np.ndarray, start: int) -> None:
    """Put planar bytes [start, start + len(planar)) in their places in an RGB raster."""
    planar = np.frombuffer(planar, np.uint8)
    for a, b, column in _columns(raster.reshape(-1, 3), start, start + len(planar)):
        column[...] = planar[a:b]


def _planes(rasters: list, channels: int,
            upto: Callable[[int, int], None]) -> Callable[[int, int, int], object]:
    """part(i, start, stop), planar bytes [start, stop) of frame i from its
    raster from `_parse_pnm`, after upto(i, n) for the first n bytes of the
    raster that they come from: a slice of a gray raster, or a view of an RGB
    one's planar buffer, de-interleaved as the view is asked for. The buffers
    are made here, by the calling thread, so a helper that calls part
    allocates nothing frame-sized."""
    if channels == 1:
        return lambda i, start, stop: upto(i, stop) or rasters[i][start:stop]
    planar = [np.empty(len(raster), np.uint8) for raster in rasters]

    def part(i: int, start: int, stop: int) -> np.ndarray:
        upto(i, 3 * min(stop, len(planar[i]) // 3))  # a piece in the red plane needs its pixels only
        _deinterleave(rasters[i], planar[i][start:stop], start)
        return planar[i][start:stop]

    return part


def read_pnm(data: bytes) -> Frame:
    """Parse a binary PGM/PPM, any bytes-like object, into a Frame (PPM becomes planar)."""
    width, height, channels, raster = _parse_pnm(data)
    if channels == 3:  # de-interleaved straight into the Frame's bytes
        payload, planes = _new_array(len(raster))
        _deinterleave(raster, planes, 0)
        raster = payload
    return Frame(width, height, channels, raster)


def _pnm_header(width: int, height: int, channels: int) -> bytes:
    return f"{'P5' if channels == 1 else 'P6'}\n{width} {height}\n255\n".encode("ascii")


def write_pnm(frame: Frame) -> bytes:
    """Serialize a Frame as canonical binary PGM/PPM."""
    header = _pnm_header(*frame.shape)
    if frame.channels == 1:
        return header + frame.data
    # One channel at a time into the output bytes, which already hold the
    # header. header + planar.transpose(1, 2, 0).tobytes() copies with a
    # 3-element inner loop, then copies again to prepend the header: 1080p
    # frames took 27 ms each that way against 9 ms one channel at a time
    # (medians of 30 calls in a loop, 2-core Xeon, numpy 2.4.6).
    out, buffer = _new_array(len(header) + len(frame.data))
    buffer[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    _interleave(frame.data, buffer[len(header):], 0)
    return out


def _pnm_parts(planar: Iterable, width: int, height: int, channels: int) -> Iterator:
    """A canonical binary PGM/PPM in parts, from its frame's planar bytes in
    parts of any lengths, in order: the header, then each run of the raster
    whose pixels are whole, as soon as they are (a PPM's in its last plane)."""
    yield _pnm_header(width, height, channels)
    if channels == 1:
        yield from planar
        return
    raster, n, filled, written = np.empty(width * height * 3, np.uint8), width * height, 0, 0
    for part in planar:
        _interleave(part, raster, filled)
        filled += len(part)
        if (whole := 3 * (filled - 2 * n)) > written:
            yield raster[written:whole]
            written = whole


def write_container(
    frames: Iterable[Frame], mode: ContainerMode, reseed: ReseedMode
) -> bytes:
    """Serialize encrypted frames with the bit-exact 20-byte header."""
    mode, reseed = ContainerMode(mode), ReseedMode(reseed)
    frames = list(frames)
    if not frames:
        raise ValueError("a container needs at least one frame")
    _check_same_shape([f.shape for f in frames])
    if frames[0].channels != mode.channels:
        raise ValueError(f"{mode.name} expects {mode.channels}-channel frames, got {frames[0].channels}")
    if not mode.is_video and len(frames) != 1:
        raise ValueError(f"{mode.name} must hold exactly one frame, got {len(frames)}")
    stream = _Stream(*frames[0].shape, len(frames), reseed)
    return b"".join(_container_parts(stream, mode, (f.data for f in frames)))


def _container_parts(stream: _Stream, mode: ContainerMode, payload: Iterable) -> Iterator:
    """A container of `stream` in parts: the header, then the parts of `payload`."""
    yield _HEADER.pack(MAGIC, VERSION, int(mode), 1 if stream.reseed is ReseedMode.PER_FRAME else 0,
                       0, stream.width, stream.height, stream.count)
    yield from payload


def read_container(data: bytes) -> tuple[list[Frame], ContainerMode, ReseedMode]:
    """Parse and validate a container, any bytes-like object, returning its frames and modes."""
    stream, mode, payload = _parse_container(data)
    return _cut(payload, *stream[:3]), mode, stream.reseed


def _parse_container(data) -> tuple[_Stream, ContainerMode, memoryview]:
    """The stream, mode and payload of a container, any bytes-like object,
    checked as `read_container` checks them; the payload is a view into `data`."""
    data = _view(data)
    if len(data) < HEADER_SIZE:
        raise FormatError("container shorter than its header")
    magic, version, mode_b, reseed_b, reserved, width, height, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    try:
        mode = ContainerMode(mode_b)
    except ValueError:
        raise FormatError(f"unknown mode byte {mode_b}") from None
    if reseed_b not in (0, 1):
        raise FormatError(f"unknown reseed byte {reseed_b}")
    reseed = ReseedMode.PER_FRAME if reseed_b else ReseedMode.CONTINUOUS
    if width < 1 or height < 1 or count < 1:
        raise FormatError(f"bad geometry {width}x{height}, {count} frame(s)")
    if not mode.is_video and count != 1:
        raise FormatError(f"{mode.name} container must hold exactly one frame, got {count}")
    expected = HEADER_SIZE + count * width * height * mode.channels
    if len(data) != expected:
        raise FormatError(f"payload length {len(data) - HEADER_SIZE}, expected {expected - HEADER_SIZE}")
    return _Stream(width, height, mode.channels, count, reseed), mode, data[HEADER_SIZE:]


def read_raw(data: bytes | memoryview, width: int, height: int, channels: int) -> list[Frame]:
    """Cut concatenated channel-planar frames, any bytes-like object, into Frames, one copy each."""
    view, width, height, channels = _parse_raw(data, width, height, channels)
    return _cut(view, width, height, channels)


def _parse_raw(data, width: int, height: int, channels: int) -> tuple[memoryview, int, int, int]:
    """`data`, any bytes-like object, as a view, and the frame geometry as
    Python ints, checked as `read_raw` checks them."""
    width, height, channels = map(operator.index, (width, height, channels))  # no numpy wrap
    if width < 1 or height < 1 or channels not in (1, 3):
        raise FormatError(f"bad raw geometry {width}x{height}x{channels}")
    frame_bytes = width * height * channels
    view = _view(data)
    if not view or len(view) % frame_bytes:
        raise FormatError(f"raw data holds {len(view)} bytes, not a positive multiple of {frame_bytes}")
    return view, width, height, channels
