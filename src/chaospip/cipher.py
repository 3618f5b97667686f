"""Encryption/decryption pipeline over blocks, planes, frames, and frame sequences.

Each 8-byte block is transposed bit-wise, XOR-ed with 8 keystream bytes,
and transposed back; a trailing partial block is XOR-ed without the
permutation so ciphertext length always equals plaintext length. The
transpose T reads a block as an 8x8 bit matrix (row i = pixel i, column
j = bit j, j = 0 the most significant bit) and moves bit (i, j) to (j, i),
so each output pixel takes one bit from every input pixel. T is linear
over GF(2) and its own inverse, so a full block is computed as
c = T(T(p) ^ k) = p ^ T(k): only the keystream is transposed, by
`keystream._mask` for planes and single blocks alike.
XOR is self-inverse, so the whole transform is an involution: running it
twice with the same key is the identity, and decryption is the same
operation as encryption.

Key byte n is whitened with the absolute iterate count n, so the keystream
from a state s is one fixed sequence and a window of it depends only on
where it starts: take_bytes(skip(s, j), m) is bytes [j, j + m) of
take_bytes(s, j + m). A sequence of frames is therefore keyed by windows
of one keystream, frame i by the window that starts stride * i iterates
past the first frame's start (stride = the frame size in continuous mode,
PER_FRAME_STRIDE in per-frame mode). `transform_plane` draws all the
windows of a batch of frames in one keystream call, and `process_stream`
(the one frame loop, images included) makes one call per batch.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from . import keystream
from .errors import DimensionMismatch
from .keystream import KeyMaterial, KeystreamState

BLOCK_SIZE = 8

# Extra iterates skipped per frame index in PER_FRAME mode, so every frame
# starts from its own point on the trajectory. The constant is arbitrary;
# it only has to be fixed.
PER_FRAME_STRIDE = 17

# Most plaintext bytes `process_stream` hands to one `transform_plane` call
# (or one frame, if a frame is larger), so memory is bounded by the batch.
# Every temporary of a call is about batch-sized, and glibc hands out
# blocks of 128 KiB or more as fresh pages (mmap, or a heap it trimmed back
# to the system). On a 2-core x86-64 Xeon, batches of 96 KiB and more
# page-faulted on every call and ran up to 2x slower per byte than 64 KiB.
_BATCH_BYTES = 1 << 16


class ReseedMode(Enum):
    """How the keystream is keyed across a frame sequence."""

    CONTINUOUS = "continuous"  # one keystream spans all frames in order
    PER_FRAME = "per-frame"    # frame i seeded at burn_in + 17*i iterates


@dataclass(frozen=True, init=False)
class Frame:
    """A width x height x channels byte image, channel-planar, row-major; Python ints and bytes."""

    width: int
    height: int
    channels: int
    data: bytes

    def __init__(self, width: int, height: int, channels: int, data: bytes):
        # numpy integers pass as Python ints, whose product no narrow type wraps
        # (uint8 200 * 200 is 64); 8.0 would reach a PNM header as "8.0".
        try:
            width, height, channels = (operator.index(width), operator.index(height),
                                       operator.index(channels))
        except TypeError:
            raise ValueError(f"frame dimensions must be integers, got {width!r}x{height!r}x"
                             f"{channels!r}") from None
        if width < 1 or height < 1:
            raise ValueError(f"frame dimensions must be positive, got {width}x{height}")
        if channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {channels!r}")
        if type(data) is not bytes:  # an int or a list is refused, as by transform_plane
            data = bytes(keystream._view(data))
        if len(data) != width * height * channels:
            raise ValueError(f"data holds {len(data)} bytes, expected {width * height * channels}")
        # One call sets each field once, 0.2 us less than 4 object.__setattr__ (2-vCPU Xeon).
        self.__dict__.update(width=width, height=height, channels=channels, data=data)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.width, self.height, self.channels)

    def plane(self, channel: int) -> bytes:
        """Bytes of one channel plane."""
        if not 0 <= (channel := operator.index(channel)) < self.channels:  # uint8 3 * 100 wraps
            raise IndexError(f"channel {channel} out of range for {self.channels}-channel frame")
        size = len(self.data) // self.channels
        return self.data[channel * size : (channel + 1) * size]


def _cut(data, width: int, height: int, channels: int) -> list[Frame]:
    """Frames cut from `data` by Python int geometry; a bytes slice of it all is that very object."""
    size = width * height * channels
    return [Frame(width, height, channels, bytes(data[i:i + size])) for i in range(0, len(data), size)]


def _block(data) -> bytes:
    """`data` as bytes, refused unless it holds exactly one block: 8 items, 8 bytes."""
    if len(data) != BLOCK_SIZE or len(data := bytes(data)) != BLOCK_SIZE:  # items wider than a byte
        raise ValueError(f"a block holds exactly {BLOCK_SIZE} bytes, got {len(data)}")
    return data


def forward_permute(block) -> bytes:
    """Transpose the block's 8x8 bit matrix, computed as 0 ^ T(block)."""
    return keystream._mask(_block(block), bytes(BLOCK_SIZE), BLOCK_SIZE, BLOCK_SIZE)


# The transpose is an involution, so undoing it is the same operation.
inverse_permute = forward_permute


def process_block(block, key_bytes) -> bytes:
    """Permute, XOR with 8 key bytes in block order, permute back: block ^ T(key_bytes)."""
    return keystream._mask(_block(key_bytes), _block(block), BLOCK_SIZE, BLOCK_SIZE)


def transform_plane(
    data: bytes, state: KeystreamState, frame_bytes: int | None = None, stride: int | None = None
) -> tuple[bytes, KeystreamState]:
    """Encrypt/decrypt `data`, any bytes-like object, as n = len(data) // frame_bytes frames.

    Frame i is keyed by take_bytes(skip(state, stride * i), frame_bytes),
    which is the window [stride * i, stride * i + frame_bytes) of
    take_bytes(state, stride * (n - 1) + frame_bytes), so all n windows
    come from one draw. Within a frame, full 8-byte blocks (aligned to the
    frame's start) are XOR-ed with the bit-transposed keystream, and a
    final partial block is XOR-ed with the keystream as drawn. Returns the
    output and the state `stride * n` iterates past `state`, where frame n
    would start. `frame_bytes` must divide len(data) and `stride` be
    positive; numpy integers are used exactly (`keystream._windows`). By
    default `data` is one frame and `stride` is `frame_bytes`: back to back.
    """
    data = keystream._view(data)
    frame_bytes = len(data) if frame_bytes is None else frame_bytes
    stride = frame_bytes if stride is None else stride
    if not data:
        return b"", state
    frame_bytes, stride, span, end = keystream._windows(len(data), frame_bytes, stride)
    key, after = keystream.take_bytes(state, max(span, end))  # key[:span] is key when span >= end
    if end < span:  # the windows overlap, so frame n starts inside the last one
        after = keystream.skip(state, end)
    return keystream._mask(key[:span], data, frame_bytes, stride), after


def encrypt_image(frame: Frame, key: KeyMaterial) -> Frame:
    """Encrypt one frame, a one-frame video: burn in, then one keystream over all planes."""
    return process_stream([frame], key)[0]


# The transform is an involution, so decrypting is the same operation.
decrypt_image = encrypt_image


def _check_same_shape(frames: Sequence[Frame]) -> None:
    first = frames[0].shape
    for f in frames[1:]:
        if f.shape != first:
            raise DimensionMismatch(f"frame shapes differ: {first} vs {f.shape}")


def process_stream(
    frames: Iterable[Frame], key: KeyMaterial, mode: ReseedMode = ReseedMode.CONTINUOUS
) -> list[Frame]:
    """Encrypt/decrypt a frame sequence under reseed `mode`, a `ReseedMode` or its value.

    Frames go through `transform_plane` in batches of at most _BATCH_BYTES
    (or one frame, if a frame is larger), one call per batch; `_cut` splits its output.
    """
    mode = ReseedMode(mode)
    frames = list(frames)
    if not frames:
        return []
    _check_same_shape(frames)
    size = len(frames[0].data)
    stride = size if mode is ReseedMode.CONTINUOUS else PER_FRAME_STRIDE
    per_batch = max(1, _BATCH_BYTES // size)
    out = []
    state = keystream.seed(key)
    for first in range(0, len(frames), per_batch):
        batch = b"".join(f.data for f in frames[first:first + per_batch])
        data, state = transform_plane(batch, state, size, stride)
        out.extend(_cut(data, *frames[0].shape))
    return out
