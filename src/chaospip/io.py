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
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable

import operator
import re
import struct

import numpy as np

from .cipher import Frame, ReseedMode, _check_same_shape, _cut
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


def read_pnm(data: bytes) -> Frame:
    """Parse a binary PGM/PPM, any bytes-like object, into a Frame (PPM becomes planar)."""
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
    payload = data[header.end():]
    expected = width * height * channels
    if len(payload) < expected:
        raise FormatError(f"truncated payload: {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise FormatError(f"trailing data after payload: {len(payload) - expected} bytes")
    if channels == 3:  # de-interleaved straight into the Frame's bytes
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        payload, planes = _new_array(expected)
        planes.reshape(3, -1)[...] = pixels.T
    return Frame(width, height, channels, payload)


def write_pnm(frame: Frame) -> bytes:
    """Serialize a Frame as canonical binary PGM/PPM."""
    magic = "P5" if frame.channels == 1 else "P6"
    header = f"{magic}\n{frame.width} {frame.height}\n255\n".encode("ascii")
    if frame.channels == 1:
        return header + frame.data
    # One channel at a time into the output bytes, which already hold the
    # header. header + planar.transpose(1, 2, 0).tobytes() copies with a
    # 3-element inner loop, then copies again to prepend the header: 1080p
    # frames took 27 ms each that way against 9 ms one channel at a time
    # (medians of 30 calls in a loop, 2-core Xeon, numpy 2.4.6).
    out, buffer = _new_array(len(header) + len(frame.data))
    buffer[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    pixels = buffer[len(header):].reshape(-1, 3)
    for c, plane in enumerate(np.frombuffer(frame.data, dtype=np.uint8).reshape(3, -1)):
        pixels[:, c] = plane
    return out


def write_container(
    frames: Iterable[Frame], mode: ContainerMode, reseed: ReseedMode
) -> bytes:
    """Serialize encrypted frames with the bit-exact 20-byte header."""
    return b"".join(_container_parts(frames, mode, reseed))


def _container_parts(frames: Iterable[Frame], mode: ContainerMode, reseed: ReseedMode) -> list:
    """The container of `write_container` as its header and each frame's
    data, checked whole before the first part is returned."""
    mode, reseed = ContainerMode(mode), ReseedMode(reseed)
    frames = list(frames)
    if not frames:
        raise ValueError("a container needs at least one frame")
    _check_same_shape(frames)
    first = frames[0]
    if first.channels != mode.channels:
        raise ValueError(f"{mode.name} expects {mode.channels}-channel frames, got {first.channels}")
    if not mode.is_video and len(frames) != 1:
        raise ValueError(f"{mode.name} must hold exactly one frame, got {len(frames)}")
    reseed_byte = 1 if reseed is ReseedMode.PER_FRAME else 0
    header = _HEADER.pack(
        MAGIC, VERSION, int(mode), reseed_byte, 0, first.width, first.height, len(frames)
    )
    return [header, *(f.data for f in frames)]


def read_container(data: bytes) -> tuple[list[Frame], ContainerMode, ReseedMode]:
    """Parse and validate a container, any bytes-like object, returning its frames and modes."""
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
    return read_raw(data[HEADER_SIZE:], width, height, mode.channels), mode, reseed


def read_raw(data: bytes | memoryview, width: int, height: int, channels: int) -> list[Frame]:
    """Cut concatenated channel-planar frames, any bytes-like object, into Frames, one copy each."""
    width, height, channels = map(operator.index, (width, height, channels))  # no numpy wrap
    if width < 1 or height < 1 or channels not in (1, 3):
        raise FormatError(f"bad raw geometry {width}x{height}x{channels}")
    frame_bytes = width * height * channels
    view = _view(data)
    if not view or len(view) % frame_bytes:
        raise FormatError(f"raw data holds {len(view)} bytes, not a positive multiple of {frame_bytes}")
    return _cut(view, width, height, channels)
