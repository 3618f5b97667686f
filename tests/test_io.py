from array import array

import numpy as np
import pytest

from chaospip import (
    ContainerMode,
    DimensionMismatch,
    FormatError,
    Frame,
    ReseedMode,
    container_mode_for,
    read_container,
    read_pnm,
    write_container,
    write_pnm,
)
from chaospip.io import HEADER_SIZE, read_raw


# ---------------------------------------------------------------- PNM


def test_minimal_pgm():
    frame = read_pnm(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert frame == Frame(2, 2, 1, bytes([1, 2, 3, 4]))


def test_ppm_becomes_planar():
    interleaved = bytes([10, 20, 30, 11, 21, 31, 12, 22, 32, 13, 23, 33])
    frame = read_pnm(b"P6\n2 2\n255\n" + interleaved)
    assert frame.channels == 3
    assert frame.plane(0) == bytes([10, 11, 12, 13])
    assert frame.plane(1) == bytes([20, 21, 22, 23])
    assert frame.plane(2) == bytes([30, 31, 32, 33])


def test_header_comments_and_odd_whitespace():
    raw = b"P5 # a comment\n # another\n 3\t1 #x\n255 " + bytes([9, 8, 7])
    frame = read_pnm(raw)
    assert frame == Frame(3, 1, 1, bytes([9, 8, 7]))
    assert read_pnm(b"P5#x\n3\x0b1\r\x0c255\t" + bytes([9, 8, 7])) == frame


@pytest.mark.parametrize(
    "blob",
    [
        b"P4\n2 2\n255\n" + bytes(4),          # unsupported magic
        b"Px\n2 2\n255\n" + bytes(4),
        b"",                                    # empty
        b"P6\n2 2\n65535\n" + bytes(24),        # 16-bit depth unsupported
        b"P5\n2 2\n255\n" + bytes(3),           # truncated payload
        b"P5\n2 2\n255\n" + bytes(5),           # trailing bytes
        b"P5\n2 x\n255\n" + bytes(4),           # malformed dimension
        b"P5\n0 2\n255\n",                      # zero dimension
        b"P5\n2 2\n255",                        # missing payload separator
        b"P5\n2 2",                             # truncated header
        b"P5\n2 2\n255# comment with no newline",
        b"P5 " + b"9" * 5000 + b" 1 255\n",   # more digits than int() accepts
        b"P52 2\n255\n" + bytes(4),            # no separator after the magic
        b"P5\n+2 2\n255\n" + bytes(4),         # signed dimension
        b"P5\n2 2\n255#c\n" + bytes(4),        # comment where the one whitespace byte goes
        b"P5" + b" " * 64 + b"x",               # exponential on a nested-repeat pattern
    ],
)
def test_malformed_pnm_rejected(blob):
    with pytest.raises(FormatError):
        read_pnm(blob)


def test_write_pnm_canonical_header():
    frame = Frame(2, 3, 1, bytes(6))
    assert write_pnm(frame).startswith(b"P5\n2 3\n255\n")
    rgb = Frame(2, 3, 3, bytes(18))
    assert write_pnm(rgb).startswith(b"P6\n2 3\n255\n")


@pytest.mark.parametrize(
    "width,height,channels,rng_seed",
    [(1, 1, 1, 50), (3, 2, 3, 51), (512, 512, 1, 52)],
)
def test_pnm_round_trip(width, height, channels, rng_seed):
    rng = np.random.default_rng(rng_seed)
    data = rng.integers(0, 256, size=width * height * channels, dtype=np.uint8).tobytes()
    frame = Frame(width, height, channels, data)
    assert read_pnm(write_pnm(frame)) == frame


@pytest.mark.parametrize(
    "width,height,channels",
    [(True, 2, 1), (3, True, 3), (np.uint8(200), np.int8(2), 1), (np.uint16(2), np.uint8(255), 3)],
)
def test_pnm_header_prints_integer_dimensions(width, height, channels):
    # Frame takes any operator.index type; the header must still read back.
    size = int(width) * int(height) * channels
    frame = Frame(width, height, channels, bytes(i % 251 for i in range(size)))
    blob = write_pnm(frame)
    assert blob.startswith(b"P%d\n%d %d\n255\n" % (5 if channels == 1 else 6, width, height))
    assert read_pnm(blob) == frame


def test_ppm_write_interleaves():
    frame = Frame(2, 1, 3, bytes([1, 2, 3, 4, 5, 6]))  # planar R=[1,2] G=[3,4] B=[5,6]
    assert write_pnm(frame) == b"P6\n2 1\n255\n" + bytes([1, 3, 5, 2, 4, 6])


# ---------------------------------------------------------------- container


def test_golden_header_for_single_gray_image():
    frame = Frame(512, 512, 1, bytes(512 * 512))
    blob = write_container([frame], ContainerMode.GRAY_IMAGE, ReseedMode.CONTINUOUS)
    expected = bytes.fromhex("43504950" "01" "00" "00" "00" "00000200" "00000200" "00000001")
    assert blob[:HEADER_SIZE] == expected
    assert len(expected) == 20


def test_container_round_trip_two_frame_gray_video():
    rng = np.random.default_rng(53)
    frames = [
        Frame(6, 4, 1, rng.integers(0, 256, size=24, dtype=np.uint8).tobytes())
        for _ in range(2)
    ]
    blob = write_container(frames, ContainerMode.GRAY_VIDEO, ReseedMode.PER_FRAME)
    got_frames, mode, reseed = read_container(blob)
    assert got_frames == frames
    assert mode is ContainerMode.GRAY_VIDEO
    assert reseed is ReseedMode.PER_FRAME


def test_container_round_trip_rgb_image():
    rng = np.random.default_rng(54)
    frame = Frame(5, 7, 3, rng.integers(0, 256, size=105, dtype=np.uint8).tobytes())
    blob = write_container([frame], ContainerMode.RGB_IMAGE, ReseedMode.CONTINUOUS)
    got_frames, mode, reseed = read_container(blob)
    assert got_frames == [frame]
    assert mode is ContainerMode.RGB_IMAGE
    assert reseed is ReseedMode.CONTINUOUS


def test_read_raw_counts_bytes_whatever_the_item_format():
    # 8 four-byte items are 32 bytes: two 4x4 gray frames, however viewed.
    words = array("I", range(8))
    want = [words.tobytes()[:16], words.tobytes()[16:]]
    spread = bytearray(64)
    spread[::2] = words.tobytes()
    for buffer in (words, memoryview(words), memoryview(words.tobytes()).cast("B", (4, 8)),
                   memoryview(spread)[::2]):
        assert [f.data for f in read_raw(buffer, 4, 4, 1)] == want
    with pytest.raises(FormatError):
        read_raw(memoryview(array("I", range(5))), 4, 4, 1)  # 20 bytes


def test_read_raw_sizes_numpy_dimensions_exactly():
    # uint8 200 * 200 used to wrap to 64: OverflowError or ValueError, not frames.
    size = np.uint8(200)
    frames = read_raw(bytes(range(200)) * 200, size, size, np.uint8(1))
    assert frames == [Frame(200, 200, 1, bytes(range(200)) * 200)]
    assert type(frames[0].width) is int
    with pytest.raises(FormatError):
        read_raw(bytes(128), size, size, 1)


@pytest.mark.parametrize("reseed", list(ReseedMode))
def test_write_container_reads_a_reseed_value_as_its_mode(reseed):
    frames = [Frame(2, 2, 1, bytes(4))] * 2
    blob = write_container(frames, ContainerMode.GRAY_VIDEO, reseed.value)
    assert blob == write_container(frames, ContainerMode.GRAY_VIDEO, reseed)
    assert read_container(blob)[2] is reseed


@pytest.mark.parametrize("frames", [[], [Frame(2, 2, 1, bytes(4))]], ids=["empty", "one"])
def test_write_container_rejects_an_unknown_reseed_mode(frames):
    with pytest.raises(ValueError, match="ReseedMode"):
        write_container(frames, ContainerMode.GRAY_VIDEO, "bogus")


def _valid_container() -> bytes:
    return write_container(
        [Frame(2, 2, 1, bytes(4))], ContainerMode.GRAY_IMAGE, ReseedMode.CONTINUOUS
    )


def test_container_rejects_bad_magic():
    blob = bytearray(_valid_container())
    blob[:4] = b"NOPE"
    with pytest.raises(FormatError):
        read_container(bytes(blob))


def test_container_rejects_unknown_version():
    blob = bytearray(_valid_container())
    blob[4] = 9
    with pytest.raises(FormatError):
        read_container(bytes(blob))


def test_container_rejects_unknown_mode_and_reseed():
    blob = bytearray(_valid_container())
    blob[5] = 4
    with pytest.raises(FormatError):
        read_container(bytes(blob))
    blob = bytearray(_valid_container())
    blob[6] = 2
    with pytest.raises(FormatError):
        read_container(bytes(blob))


def test_container_rejects_length_mismatch():
    blob = _valid_container()
    with pytest.raises(FormatError):
        read_container(blob[:-1])
    with pytest.raises(FormatError):
        read_container(blob + b"\x00")
    with pytest.raises(FormatError):
        read_container(blob[:10])


def test_container_rejects_multi_frame_image_mode():
    frames = [Frame(2, 2, 1, bytes(4)) for _ in range(2)]
    with pytest.raises(ValueError):
        write_container(frames, ContainerMode.GRAY_IMAGE, ReseedMode.CONTINUOUS)
    # and the same shape crafted on the wire
    import struct

    header = struct.pack(">4sBBBBIII", b"CPIP", 1, 0, 0, 0, 2, 2, 2)
    with pytest.raises(FormatError):
        read_container(header + bytes(8))


def test_write_container_validates_frames():
    with pytest.raises(ValueError):
        write_container([], ContainerMode.GRAY_IMAGE, ReseedMode.CONTINUOUS)
    with pytest.raises(ValueError):
        write_container([Frame(2, 2, 3, bytes(12))], ContainerMode.GRAY_IMAGE, ReseedMode.CONTINUOUS)
    with pytest.raises(DimensionMismatch):
        write_container(
            [Frame(2, 2, 1, bytes(4)), Frame(2, 3, 1, bytes(6))],
            ContainerMode.GRAY_VIDEO,
            ReseedMode.CONTINUOUS,
        )


def test_container_mode_mapping():
    assert container_mode_for(1, video=False) is ContainerMode.GRAY_IMAGE
    assert container_mode_for(3, video=False) is ContainerMode.RGB_IMAGE
    assert container_mode_for(1, video=True) is ContainerMode.GRAY_VIDEO
    assert container_mode_for(3, video=True) is ContainerMode.RGB_VIDEO
    assert ContainerMode.RGB_VIDEO.channels == 3
    assert ContainerMode.GRAY_IMAGE.channels == 1
    with pytest.raises(ValueError):
        container_mode_for(2, video=False)
