"""Encryption/decryption pipeline over planes, frames, and frame sequences.

Each 8-byte block is transposed bit-wise, XOR-ed with 8 keystream bytes,
and transposed back; a trailing partial block is XOR-ed without the
permutation so ciphertext length always equals plaintext length. The
transpose T is linear over GF(2) and its own inverse, so a full block is
computed as c = T(T(p) ^ k) = p ^ T(k): only the keystream is transposed.
XOR is self-inverse, so the whole transform is an involution: running it
twice with the same key is the identity, and decryption is the same
operation as encryption.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import bitperm, keystream
from .errors import DimensionMismatch
from .keystream import KeyMaterial, KeystreamState

# Extra iterates skipped per frame index in PER_FRAME mode, so every frame
# starts from its own point on the trajectory. The constant is arbitrary;
# it only has to be fixed.
PER_FRAME_STRIDE = 17


class ReseedMode(Enum):
    """How the keystream is keyed across a frame sequence."""

    CONTINUOUS = "continuous"  # one keystream spans all frames in order
    PER_FRAME = "per-frame"    # frame i seeded at burn_in + 17*i iterates


@dataclass(frozen=True)
class Frame:
    """A width x height x channels byte image, channel-planar, row-major."""

    width: int
    height: int
    channels: int
    data: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels!r}")
        object.__setattr__(self, "data", bytes(self.data))
        expected = self.width * self.height * self.channels
        if len(self.data) != expected:
            raise ValueError(f"data holds {len(self.data)} bytes, expected {expected}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.width, self.height, self.channels)

    def plane(self, channel: int) -> bytes:
        """Bytes of one channel plane."""
        if not 0 <= channel < self.channels:
            raise IndexError(f"channel {channel} out of range for {self.channels}-channel frame")
        size = self.width * self.height
        return self.data[channel * size : (channel + 1) * size]


def process_block(block, key_bytes) -> bytes:
    """Permute, XOR with 8 key bytes in block order, permute back.

    Computed as block ^ T(key_bytes), which equals T(T(block) ^ key_bytes).
    """
    if len(block) != bitperm.BLOCK_SIZE or len(key_bytes) != bitperm.BLOCK_SIZE:
        raise ValueError(f"need a {bitperm.BLOCK_SIZE}-byte block and {bitperm.BLOCK_SIZE} key "
                         f"bytes, got {len(block)} and {len(key_bytes)}")
    return bytes(p ^ k for p, k in zip(block, bitperm.forward_permute(key_bytes)))


def transform_plane(data: bytes, state: KeystreamState) -> tuple[bytes, KeystreamState]:
    """Encrypt/decrypt a byte plane, consuming one key byte per data byte.

    Full 8-byte blocks are XOR-ed with the bit-transposed keystream; a
    final partial block is XOR-ed with the keystream as drawn.
    """
    key, state = keystream.take_bytes(state, len(data))
    ks = np.frombuffer(key, dtype=np.uint8)
    full = len(ks) - len(ks) % bitperm.BLOCK_SIZE
    mask = np.concatenate([bitperm._transpose8(ks[:full]), ks[full:]])
    return (np.frombuffer(data, dtype=np.uint8) ^ mask).tobytes(), state


def encrypt_image(frame: Frame, key: KeyMaterial) -> Frame:
    """Encrypt one frame: burn in, then one keystream over all planes."""
    data, _ = transform_plane(frame.data, keystream.seed(key))
    return Frame(frame.width, frame.height, frame.channels, data)


def decrypt_image(frame: Frame, key: KeyMaterial) -> Frame:
    """Decrypt one frame. The pipeline is an involution, so this is
    the same transform as encrypt_image; the name exists for callers."""
    return encrypt_image(frame, key)


def _check_same_shape(frames: Sequence[Frame]) -> None:
    first = frames[0].shape
    for f in frames[1:]:
        if f.shape != first:
            raise DimensionMismatch(f"frame shapes differ: {first} vs {f.shape}")


def process_stream(
    frames: Iterable[Frame], key: KeyMaterial, mode: ReseedMode = ReseedMode.CONTINUOUS
) -> list[Frame]:
    """Encrypt/decrypt a frame sequence under the chosen reseed mode."""
    frames = list(frames)
    if not frames:
        return []
    _check_same_shape(frames)
    out = []
    start = keystream.seed(key)
    for f in frames:
        data, end = transform_plane(f.data, start)
        out.append(Frame(f.width, f.height, f.channels, data))
        if mode is ReseedMode.CONTINUOUS:
            start = end
        else:  # frame i starts PER_FRAME_STRIDE iterates past frame i-1's start
            start = keystream.skip(start, PER_FRAME_STRIDE)
    return out
