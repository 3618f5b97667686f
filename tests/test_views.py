"""Every bytes-like input is read as its bytes (`keystream._view`): the
readers, `transform_plane` and analysis' bytes-like arguments give for any
view of a blob what they give for the blob itself."""

from array import array

import numpy as np
import pytest

from chaospip import (
    Frame,
    KeyMaterial,
    ReseedMode,
    container_mode_for,
    corr2d,
    histogram256,
    read_container,
    read_pnm,
    seed,
    shannon_entropy,
    transform_plane,
    write_container,
)
from chaospip.io import read_raw
from chaospip.keystream import _view

KEY = KeyMaterial(mu=3.934, x0=0.5250, burn_in=10)


def _strided(blob) -> memoryview:
    """A view of every other byte of a buffer twice as long, which holds `blob` there."""
    spread = bytearray(2 * len(blob))
    spread[::2] = blob
    return memoryview(spread)[::2]


# Every blob is a whole number of four-byte items, so it also fills an
# array('I') and four rows of a 2-D view.
KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "2-D": lambda blob: memoryview(blob).cast("B", (4, len(blob) // 4)),
    "array-I": lambda blob: memoryview(array("I", blob)),
    "strided": _strided,
}
kinds = pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())

PGM = b"P5\n5 1\n255\n" + bytes([9, 200, 3, 77, 0])  # 16 bytes
PPM = b"P6\n5 3\n255\n" + bytes(i * 37 % 256 for i in range(45))  # 56 bytes
RAW = bytes(i * 11 % 253 for i in range(24))  # two 2x2 RGB frames
BOX = write_container(read_raw(RAW, 2, 2, 3), container_mode_for(3, video=True),
                      ReseedMode.PER_FRAME)  # 44 bytes
PLANE = bytes(i * 13 % 256 for i in range(40))


@kinds
def test_view_is_a_flat_view_of_the_bytes(kind):
    view = _view(kind(PPM))
    assert type(view) is memoryview
    assert (view.format, view.ndim, view.c_contiguous) == ("B", 1, True)
    assert view.tobytes() == PPM


def test_view_of_contiguous_bytes_reads_them_in_place():
    assert _view(PPM).obj is PPM
    assert _view(memoryview(PPM)[11:]).obj is PPM


@kinds
def test_readers_read_any_bytes_like_input_as_its_bytes(kind):
    assert read_pnm(kind(PGM)) == read_pnm(PGM) == Frame(5, 1, 1, PGM[11:])
    assert read_pnm(kind(PPM)) == read_pnm(PPM)
    assert read_container(kind(BOX)) == read_container(BOX)
    assert read_raw(kind(RAW), 2, 2, 3) == read_raw(RAW, 2, 2, 3)


@pytest.mark.parametrize("frame_bytes,stride", [(None, None), (20, 17), (8, 13)])
@kinds
def test_plane_reads_any_bytes_like_input_as_its_bytes(kind, frame_bytes, stride):
    # One frame, overlapping windows with a tail, and windows with gaps.
    out, state = transform_plane(kind(PLANE), seed(KEY), frame_bytes, stride)
    assert type(out) is bytes
    assert (out, state) == transform_plane(PLANE, seed(KEY), frame_bytes, stride)


def test_analysis_reads_strided_views_as_their_bytes():
    reverse = PLANE[::-1]
    assert histogram256(_strided(PLANE)).tolist() == histogram256(PLANE).tolist()
    assert shannon_entropy(_strided(PLANE)) == shannon_entropy(PLANE)
    want = corr2d(PLANE, reverse)
    assert corr2d(_strided(PLANE), _strided(reverse)) == want
    assert corr2d(_strided(PLANE), reverse) == corr2d(PLANE, _strided(reverse)) == want
