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
windows of a batch of frames in one keystream walk. `_transform` is the one
frame loop, images included: one `transform_plane` call per batch of small
frames, or per piece of a large frame that is cut. `process_stream` runs it
on whole frames. The CLI's `encrypt` and `decrypt` of a large input run it
on pieces between a source and a sink (`keystream._pipeline`), which read
ahead and write behind on a helper thread.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import keystream
from .errors import DimensionMismatch
from .keystream import KeyMaterial, KeystreamState

BLOCK_SIZE = 8

# Extra iterates skipped per frame index in PER_FRAME mode, so every frame
# starts from its own point on the trajectory. The constant is arbitrary;
# it only has to be fixed.
PER_FRAME_STRIDE = 17

# Most plaintext bytes `_transform` hands to one `transform_plane` call
# (or one frame, if a frame is larger), so memory is bounded by the batch.
# Every temporary of a call is about batch-sized, and glibc hands out
# blocks of 128 KiB or more as fresh pages (mmap, or a heap it trimmed back
# to the system). On a 2-core x86-64 Xeon, batches of 96 KiB and more
# page-faulted on every call and ran up to 2x slower per byte than 64 KiB.
_BATCH_BYTES = 1 << 16

# Where the frame loop is cut (the CLI's streamed `encrypt` and `decrypt`), a
# frame larger than this is cut into pieces of at most this many bytes, one
# `transform_plane` call each, so a helper can read the next piece and write
# the last while this thread draws and masks. Each piece but the last is a
# multiple of 8 bytes, so blocks stay aligned to the frame's start. A piece
# costs this thread about 7 us (a 1080p RGB frame took 25.7 ms in 24 pieces
# against 25.6 ms whole, 2-vCPU Xeon), and the helper's first read and last
# write, which nothing overlaps, shrink with it.
_PIECE_BYTES = 1 << 18


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
    key, after = keystream.take_bytes(state, end)  # key[:span] is key when span == end
    if end < span:  # the windows overlap: frame n starts inside the last one, drawn on from there
        key += keystream.take_bytes(after, span - end)[0]
    return keystream._mask(key[:span], data, frame_bytes, stride), after


def encrypt_image(frame: Frame, key: KeyMaterial) -> Frame:
    """Encrypt one frame, a one-frame video: burn in, then one keystream over all planes."""
    return process_stream([frame], key)[0]


# The transform is an involution, so decrypting is the same operation.
decrypt_image = encrypt_image


def _check_same_shape(shapes: Sequence[tuple[int, int, int]]) -> None:
    first = shapes[0]
    for shape in shapes[1:]:
        if shape != first:
            raise DimensionMismatch(f"frame shapes differ: {first} vs {shape}")


class _Stream(NamedTuple):
    """What a stream of frames is: `count` frames of one shape, keyed under `reseed`."""

    width: int
    height: int
    channels: int
    count: int
    reseed: ReseedMode

    @property
    def size(self) -> int:
        """Bytes per frame."""
        return self.width * self.height * self.channels


def _plan(size: int, count: int, cut: bool = False) -> Iterator[tuple[int, int]]:
    """The [start, stop) byte ranges of `count` frames of `size` bytes, one per
    `transform_plane` call of `_transform`: as many whole frames as fit in
    _BATCH_BYTES, at least one, or, if `cut`, the pieces of a frame larger
    than _PIECE_BYTES, of near-equal lengths that are multiples of 8."""
    if cut and size > _PIECE_BYTES:
        pieces = -(-size // _PIECE_BYTES)
        piece = -(-size // (8 * pieces)) * 8
        for frame in range(0, size * count, size):
            for start in range(frame, frame + size, piece):
                yield start, min(start + piece, frame + size)
    else:
        batch, total = size * max(1, _BATCH_BYTES // size), size * count
        for start in range(0, total, batch):
            yield start, min(start + batch, total)


def _pieces(stream: _Stream, part: Callable[[int, int, int], object]) -> Iterator:
    """The inputs of `_plan` for `stream`, cut, from part(i, start, stop), the
    bytes [start, stop) of frame i: a piece as one part, a batch as its frames joined."""
    size = stream.size
    for start, stop in _plan(size, stream.count, cut=True):
        i, offset = divmod(start, size)
        if stop - start < size:
            yield part(i, offset, offset + stop - start)
        elif stop - start == size:
            yield part(i, 0, size)
        else:
            yield b"".join(part(j, 0, size) for j in range(i, stop // size))


def _transform(inputs: Iterable, key: KeyMaterial, stream: _Stream, cut: bool = False) -> Iterator[bytes]:
    """The frame loop: the output of each input of `_plan(..., cut)` for `stream`, in turn.

    A batch of whole frames is one `transform_plane` call, its frames keyed
    `stride` iterates apart. A frame cut into pieces is keyed back to back
    from its start, one call per piece, and the next frame starts `stride`
    past its start. Either way frame i is keyed exactly as `transform_plane`
    keys it: stride is the frame size (continuous) or PER_FRAME_STRIDE.
    """
    size = stream.size
    stride = size if stream.reseed is ReseedMode.CONTINUOUS else PER_FRAME_STRIDE
    state = keystream.seed(key)
    for (start, stop), data in zip(_plan(size, stream.count, cut), inputs):
        if stop - start >= size:
            data, state = transform_plane(data, state, size, stride)
        else:
            if start % size == 0:
                first = state
            data, state = transform_plane(data, state)
            if stop % size == 0 and stride != size:
                state = keystream.skip(first, stride)
        yield data


def _frame_parts(parts: Iterable, size: int) -> Iterator[list]:
    """Each frame's bytes as a list of parts, from `parts` cut as `_plan` cuts:
    a view of a batch's frame, or a cut frame's pieces."""
    pieces, filled = [], 0
    for part in parts:
        if len(part) >= size:
            view = memoryview(part)
            yield from ([view[i:i + size]] for i in range(0, len(part), size))
            continue
        pieces.append(part)
        if (filled := filled + len(part)) == size:
            yield pieces
            pieces, filled = [], 0


def _cut(data, width: int, height: int, channels: int) -> list[Frame]:
    """Frames cut from `data` by Python int geometry; a bytes slice of it all is that very object."""
    size = width * height * channels
    return [Frame(width, height, channels, bytes(data[i:i + size])) for i in range(0, len(data), size)]


def process_stream(
    frames: Iterable[Frame], key: KeyMaterial, mode: ReseedMode = ReseedMode.CONTINUOUS
) -> list[Frame]:
    """Encrypt/decrypt a frame sequence under reseed `mode`, a `ReseedMode` or its value.

    The frames run through `_transform` in batches of at most _BATCH_BYTES
    (or one frame, if a frame is larger), one `transform_plane` call per
    batch, on this thread; `_cut` splits each batch's output.
    """
    mode = ReseedMode(mode)
    frames = list(frames)
    if not frames:
        return []
    _check_same_shape([f.shape for f in frames])
    stream = _Stream(*frames[0].shape, len(frames), mode)
    datas, size = [f.data for f in frames], stream.size
    batches = (b"".join(datas[start // size:stop // size]) for start, stop in _plan(size, len(datas)))
    return [frame for out in _transform(batches, key, stream) for frame in _cut(out, *frames[0].shape)]
