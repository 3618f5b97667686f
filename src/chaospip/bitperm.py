"""Bit-level scramble of 8-byte pixel blocks: the 8x8 bit-matrix transpose.

A block of 8 consecutive 8-bit pixels is viewed as an 8x8 bit matrix
(row = pixel index i, column = bit index j, j = 0 being the most
significant bit). The scramble moves input bit (i, j) to output bit
(j, i), so every output pixel collects exactly one bit from each input
pixel: maximal inter-pixel diffusion. The transpose is its own inverse,
which keeps the surrounding cipher an involution.
"""

import numpy as np

BLOCK_SIZE = 8

# Hacker's Delight transpose8: three masked swaps exchange the 1x1, 2x2 and
# 4x4 sub-blocks across the diagonal.
_SWAPS = [(np.uint64(shift), np.uint64(mask)) for shift, mask in
          ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))]


def _transpose8(blocks: np.ndarray) -> np.ndarray:
    """Transpose every 8-byte block of a contiguous uint8 array.

    Each block is read as one big-endian uint64, so pixel i is byte i from
    the top and bit j of a pixel sits at position 8*(7-i) + (7-j).
    """
    x = blocks.view(">u8").astype(np.uint64)
    for shift, mask in _SWAPS:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x.astype(">u8").view(np.uint8)


def forward_permute(block) -> bytes:
    """Transpose the block's 8x8 bit matrix."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must hold exactly {BLOCK_SIZE} bytes, got {len(block)}")
    return _transpose8(np.frombuffer(bytes(block), dtype=np.uint8)).tobytes()


# The transpose is an involution, so undoing it is the same operation.
inverse_permute = forward_permute
