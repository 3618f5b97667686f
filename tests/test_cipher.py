import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaospip import (
    DimensionMismatch,
    Frame,
    KeyMaterial,
    KeystreamState,
    ReseedMode,
    corr2d,
    decrypt_image,
    derive_key_from_hex,
    encrypt_image,
    inverse_permute,
    process_block,
    process_stream,
    read_pnm,
    seed,
    skip,
    take_bytes,
    transform_plane,
    write_pnm,
)
from chaospip import cipher, keystream
from chaospip.cipher import PER_FRAME_STRIDE

from refcipher import reference_transform
from synthimg import synthetic_gray

KEY = KeyMaterial(mu=3.934, x0=0.5250, burn_in=10)


# ---------------------------------------------------------------- frames


def test_frame_validates_geometry():
    with pytest.raises(ValueError):
        Frame(0, 4, 1, b"")
    with pytest.raises(ValueError):
        Frame(2, 2, 2, bytes(8))
    with pytest.raises(ValueError):
        Frame(2, 2, 1, bytes(5))


@pytest.mark.parametrize("width, height, channels", [(8.0, 2, 1), (8, 2.0, 1), (8, 2, 1.0),
                                                     (2.5, 2, 1), ("8", 2, 1), (None, 2, 1)])
def test_frame_refuses_dimensions_that_are_not_integers(width, height, channels):
    # A float width would reach a PNM header as "8.0" and the container
    # header as a struct.error; ValueError is what the CLI maps to exit 2.
    with pytest.raises(ValueError, match="integers"):
        Frame(width, height, channels, bytes(16))


def test_frame_accepts_numpy_integer_dimensions():
    frame = Frame(np.int64(8), np.uint16(2), np.int8(3), bytes(48))
    assert frame.plane(2) == bytes(16)
    assert read_pnm(write_pnm(frame)) == Frame(8, 2, 3, bytes(48))


def test_frame_sizes_narrow_numpy_dimensions_without_wrapping():
    # 200 * 200 is 64 in uint8; the product must be taken in Python ints,
    # with no overflow warning (which the test config turns into an error).
    side = np.uint8(200)
    with pytest.raises(ValueError, match="expected 40000"):
        Frame(side, side, 1, bytes(64))
    frame = Frame(side, side, np.uint8(1), bytes(40_000))
    assert frame.plane(0) == bytes(40_000)
    assert read_pnm(write_pnm(frame)) == Frame(200, 200, 1, bytes(40_000))


def test_frame_planes():
    frame = Frame(2, 2, 3, bytes(range(12)))
    assert frame.plane(0) == bytes([0, 1, 2, 3])
    assert frame.plane(2) == bytes([8, 9, 10, 11])
    with pytest.raises(IndexError):
        frame.plane(3)


# ---------------------------------------------------------------- blocks


def test_process_block_with_zero_key_is_identity():
    rng = np.random.default_rng(1)
    for row in rng.integers(0, 256, size=(100, 8), dtype=np.uint8):
        block = bytes(row)
        assert process_block(block, bytes(8)) == block


def test_process_block_is_an_involution():
    rng = np.random.default_rng(2)
    for _ in range(100):
        block, key = (bytes(r) for r in rng.integers(0, 256, size=(2, 8), dtype=np.uint8))
        assert process_block(process_block(block, key), key) == block


def test_process_block_zero_plaintext_reveals_unpermuted_key():
    key = bytes([0xFF, 0, 0, 0, 0, 0, 0, 0])
    assert process_block(bytes(8), key) == inverse_permute(key)
    assert process_block(bytes(8), key) == bytes([0x80] * 8)


def test_process_block_needs_eight_key_bytes():
    with pytest.raises(ValueError):
        process_block(bytes(8), bytes(7))


# ---------------------------------------------------------------- planes


def test_empty_plane_passes_through():
    state = seed(KEY)
    out, new_state = transform_plane(b"", state)
    assert out == b""
    assert new_state == state


def test_tail_rule_on_nine_bytes():
    data = bytes(range(9))
    state = seed(KEY)
    key_bytes, _ = take_bytes(state, 9)
    expected = process_block(data[:8], key_bytes[:8]) + bytes([data[8] ^ key_bytes[8]])
    out, _ = transform_plane(data, state)
    assert out == expected


def test_plane_transform_is_an_involution():
    rng = np.random.default_rng(3)
    for n in [1, 7, 8, 9, 16, 17, 255, 1024]:
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        once, _ = transform_plane(data, seed(KEY))
        twice, _ = transform_plane(once, seed(KEY))
        assert twice == data


def test_exactly_one_key_byte_per_data_byte():
    state = seed(KEY)
    for n in [0, 1, 5, 8, 21]:
        _, state_after = transform_plane(bytes(n), state)
        assert state_after.n == state.n + n
        state = state_after


def test_length_preserved():
    rng = np.random.default_rng(4)
    for n in [1, 3, 8, 100, 1001]:
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        out, _ = transform_plane(data, seed(KEY))
        assert len(out) == n


# ---------------------------------------------------------------- images


def test_image_round_trip_exercises_tail(make_frame):
    frame = make_frame(np.random.default_rng(5), 31, 17, 3)
    assert decrypt_image(encrypt_image(frame, KEY), KEY) == frame


def test_single_pixel_is_xor_with_first_key_byte():
    frame = Frame(1, 1, 1, bytes([0xA7]))
    key_bytes, _ = take_bytes(seed(KEY), 1)
    assert encrypt_image(frame, KEY).data == bytes([0xA7 ^ key_bytes[0]])


def test_decrypt_equals_encrypt_on_random_frames(make_frame):
    rng = np.random.default_rng(6)
    key = KeyMaterial(mu=3.91, x0=0.2468, burn_in=2)
    for _ in range(1000):
        frame = make_frame(rng, int(rng.integers(1, 13)), int(rng.integers(1, 13)),
                           int(rng.choice([1, 3])))
        assert encrypt_image(frame, key) == decrypt_image(frame, key)


def test_wrong_key_decrypt_is_decorrelated_noise():
    plain = synthetic_gray(256, 256, 7.3, seed=77)
    cipher = encrypt_image(plain, KEY)
    wrong = KeyMaterial(mu=3.934, x0=0.52500000000001, burn_in=10)
    garbage = decrypt_image(cipher, wrong)
    assert garbage != plain
    assert abs(corr2d(garbage.data, plain.data)) < 0.05


@pytest.mark.parametrize("length,burn_in", [(65535, 0), (65536, 1), (65537, 255), (131077, 1000)])
def test_plane_matches_reference_across_keystream_chunks(length, burn_in):
    # the lengths straddle 16384-state chunks of the keystream kernel,
    # and the burn-ins start the wrapping iterate counter at different phases
    mu, x0 = math.nextafter(4.0, 0.0), math.nextafter(1.0, 0.0)  # hex-key extremes
    data = np.random.default_rng(length).integers(0, 256, size=length, dtype=np.uint8).tobytes()
    out, state = transform_plane(data, seed(KeyMaterial(mu=mu, x0=x0, burn_in=burn_in)))
    assert out == reference_transform(data, mu, x0, burn_in)
    assert state.n == burn_in + length


def test_matches_straight_line_reference_up_to_three_blocks(make_frame):
    rng = np.random.default_rng(8)
    key = KeyMaterial(mu=3.934, x0=0.5250, burn_in=25)
    for width, height, channels in [(1, 1, 1), (3, 1, 1), (8, 1, 1), (3, 3, 1),
                                    (4, 2, 3), (2, 4, 1), (8, 3, 1), (2, 2, 3)]:
        for _ in range(3):
            frame = make_frame(rng, width, height, channels)
            expected = reference_transform(frame.data, key.mu, key.x0, key.burn_in)
            assert encrypt_image(frame, key).data == expected


# ---------------------------------------------------------------- streams


def test_empty_stream():
    assert process_stream([], KEY, ReseedMode.CONTINUOUS) == []


@pytest.mark.parametrize("mode", list(ReseedMode))
def test_stream_reads_a_reseed_value_as_its_mode(make_frame, mode):
    rng = np.random.default_rng(12)
    frames = [make_frame(rng, 6, 4, 1) for _ in range(3)]
    assert process_stream(frames, KEY, mode.value) == process_stream(frames, KEY, mode)


@pytest.mark.parametrize("frames", [[], [Frame(2, 2, 1, bytes(4))]], ids=["empty", "one"])
def test_stream_rejects_an_unknown_reseed_mode(frames):
    with pytest.raises(ValueError):
        process_stream(frames, KEY, "bogus")


def test_continuous_single_frame_equals_encrypt_image(make_frame):
    frame = make_frame(np.random.default_rng(9), 10, 6, 1)
    assert process_stream([frame], KEY, ReseedMode.CONTINUOUS) == [encrypt_image(frame, KEY)]


@pytest.mark.parametrize("kernel", ["loaded", "python"])
def test_one_frame_batch_keeps_the_masks_own_bytes(monkeypatch, make_frame, kernel):
    # A 320x240 gray frame exceeds a batch, so each batch is one frame, and
    # cutting the mask's output must not copy it.
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    masks, mask = [], keystream._mask

    def recording(*args):
        masks.append(mask(*args))
        return masks[-1]

    monkeypatch.setattr(keystream, "_mask", recording)
    frame = make_frame(np.random.default_rng(24), 320, 240, 1)
    assert process_stream([frame], KEY)[0].data is masks[-1]
    assert encrypt_image(frame, KEY).data is masks[-1]
    assert len(masks) == 2


def test_continuous_keystream_spans_frames(make_frame):
    rng = np.random.default_rng(10)
    frames = [make_frame(rng, 6, 4, 1) for _ in range(3)]
    out = process_stream(frames, KEY, ReseedMode.CONTINUOUS)
    # same as transforming the concatenated planar data with one state
    joined, _ = transform_plane(b"".join(f.data for f in frames), seed(KEY))
    assert b"".join(f.data for f in out) == joined


def test_per_frame_ciphertext_depends_only_on_content_and_index(make_frame):
    rng = np.random.default_rng(11)
    a, b, c = (make_frame(rng, 8, 8, 1) for _ in range(3))
    first = process_stream([a, b], KEY, ReseedMode.PER_FRAME)
    second = process_stream([a, c], KEY, ReseedMode.PER_FRAME)
    assert first[0] == second[0]  # later frames cannot affect earlier ones
    # and each frame matches a standalone transform at its indexed offset
    for index, frame in enumerate([a, b]):
        state = skip(KeystreamState(x=KEY.x0, mu=KEY.mu, n=0),
                     KEY.burn_in + PER_FRAME_STRIDE * index)
        expected, _ = transform_plane(frame.data, state)
        assert first[index].data == expected


def test_per_frame_offsets_hold_over_hundreds_of_frames(make_frame):
    rng = np.random.default_rng(14)
    frames = [make_frame(rng, 8, 8, 1) for _ in range(301)]
    last = len(frames) - 1
    out = process_stream(frames, KEY, ReseedMode.PER_FRAME)
    state = skip(KeystreamState(x=KEY.x0, mu=KEY.mu, n=0), KEY.burn_in + PER_FRAME_STRIDE * last)
    expected, _ = transform_plane(frames[last].data, state)
    assert out[last].data == expected
    # frame i's keystream is the single stream shifted by 17*i bytes
    assert expected == reference_transform(frames[last].data, KEY.mu, KEY.x0,
                                           KEY.burn_in + PER_FRAME_STRIDE * last)


def test_stream_round_trips_in_both_modes(make_frame):
    rng = np.random.default_rng(12)
    frames = [make_frame(rng, 9, 5, 3) for _ in range(4)]
    for mode in ReseedMode:
        assert process_stream(process_stream(frames, KEY, mode), KEY, mode) == frames


def assert_frames_match_reference(frames, key, mode):
    # The oracle is refcipher alone: frame i starts 17*i (per-frame) or
    # i*frame_bytes (continuous) iterates past the burn-in.
    out = process_stream(frames, key, mode)
    assert len(out) == len(frames)
    for i, (frame, got) in enumerate(zip(frames, out)):
        offset = PER_FRAME_STRIDE * i if mode is ReseedMode.PER_FRAME else len(frame.data) * i
        assert got.shape == frame.shape
        assert got.data == reference_transform(frame.data, key.mu, key.x0, key.burn_in + offset)


# (mu, x0) of a 256-bit hex key, or drawn straight from the open key intervals.
KEY_POINTS = st.one_of(
    st.binary(min_size=32, max_size=32).map(lambda raw: derive_key_from_hex(raw.hex())).map(
        lambda key: (key.mu, key.x0)),
    st.tuples(st.floats(3.57, 4.0, exclude_min=True, exclude_max=True),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)).filter(
        lambda point: point[1] != 1.0 - 1.0 / point[0]))


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 12), height=st.integers(1, 12), channels=st.sampled_from([1, 3]),
       count=st.integers(1, 40), mode=st.sampled_from(list(ReseedMode)), point=KEY_POINTS,
       burn_in=st.integers(0, 40), seed_=st.integers(0, 2**32 - 1))
@example(width=17, height=1, channels=1, count=40, mode=ReseedMode.PER_FRAME,
         point=(3.97, 0.371), burn_in=3, seed_=0)
@example(width=3, height=3, channels=1, count=40, mode=ReseedMode.PER_FRAME,
         point=(3.97, 0.371), burn_in=0, seed_=1)
@example(width=7, height=5, channels=1, count=23, mode=ReseedMode.CONTINUOUS,
         point=(3.97, 0.371), burn_in=9, seed_=2)
@example(width=7, height=5, channels=3, count=31, mode=ReseedMode.PER_FRAME,
         point=(3.97, 0.371), burn_in=17, seed_=3)
@example(width=1, height=1, channels=1, count=40, mode=ReseedMode.PER_FRAME,
         point=(3.97, 0.371), burn_in=1, seed_=4)
@example(width=9, height=2, channels=3, count=5, mode=ReseedMode.CONTINUOUS,
         point=(math.nextafter(4.0, 0.0), math.nextafter(1.0, 0.0)), burn_in=0, seed_=5)
def test_stream_matches_straight_line_reference(width, height, channels, count, mode, point,
                                                burn_in, seed_):
    rng = np.random.default_rng(seed_)
    frames = [Frame(width, height, channels,
                    rng.integers(0, 256, size=width * height * channels, dtype=np.uint8).tobytes())
              for _ in range(count)]
    key = KeyMaterial(*point, burn_in=burn_in)
    assert_frames_match_reference(frames, key, mode)
    assert process_stream(process_stream(frames, key, mode), key, mode) == frames


@pytest.mark.parametrize("mode", list(ReseedMode))
@pytest.mark.parametrize("side", [41, 160])
def test_stream_matches_reference_across_batches(make_frame, mode, side):
    # 41x41 RGB frames (5043 bytes, a 3-byte tail) fill batches of several
    # frames and the last one starts a new batch; 160x160 RGB frames are
    # larger than a batch, so each is a batch of its own.
    rng = np.random.default_rng(15)
    count = max(2, cipher._BATCH_BYTES // (side * side * 3) + 1)
    frames = [make_frame(rng, side, side, 3) for _ in range(count)]
    assert_frames_match_reference(frames, KEY, mode)


def test_per_frame_stream_matches_reference_across_a_batch_seam_of_one_iterate():
    # 3x6 gray frames are 18 bytes, one more than PER_FRAME_STRIDE, so a
    # batch's last window ends one iterate after the next batch's first
    # frame starts. 3,642 frames make a batch of 3,640 and one of 2.
    rng = np.random.default_rng(17)
    per_batch = cipher._BATCH_BYTES // 18
    frames = [Frame(3, 6, 1, rng.integers(0, 256, 18, dtype=np.uint8).tobytes())
              for _ in range(per_batch + 2)]
    out = process_stream(frames, KEY, ReseedMode.PER_FRAME)
    for i in range(per_batch - 1, per_batch + 2):
        assert out[i].data == reference_transform(frames[i].data, KEY.mu, KEY.x0,
                                                  KEY.burn_in + PER_FRAME_STRIDE * i), i


@pytest.mark.parametrize("mode", list(ReseedMode))
def test_every_stream_byte_goes_through_one_transform_plane_call_per_batch(
        monkeypatch, make_frame, mode):
    # perfbench --trace divides by transform_plane's byte count, and only
    # public functions are traced, so no byte may bypass it.
    seen = []

    def counting(data, *args, **kwargs):
        seen.append(len(data))
        return transform_plane(data, *args, **kwargs)

    monkeypatch.setattr(cipher, "transform_plane", counting)
    rng = np.random.default_rng(16)
    frames = [make_frame(rng, 8, 8, 1) for _ in range(2000)]
    process_stream(frames, KEY, mode)
    assert sum(seen) == 2000 * 64
    assert len(seen) == math.ceil(2000 / (cipher._BATCH_BYTES // 64))


def test_batched_plane_state_lands_where_the_next_frame_starts():
    data = bytes(range(200)) * 3  # 20 frames of 30 bytes
    for stride in (1, 17, 30, 45):
        _, state = transform_plane(data, seed(KEY), 30, stride)
        assert state == skip(seed(KEY), 20 * stride)


@pytest.mark.parametrize("stride", [8, PER_FRAME_STRIDE])
def test_plane_state_lands_where_the_next_frame_starts_at_the_seam(stride):
    # Windows with a gap of one, back to back, and overlapping by one: there
    # frame n starts one iterate before the draw ends, so the state comes
    # from a skip, not from the draw.
    for frame_bytes in (stride - 1, stride, stride + 1):
        for n in range(1, 5):
            _, state = transform_plane(bytes(frame_bytes * n), seed(KEY), frame_bytes, stride)
            assert state == skip(seed(KEY), stride * n), (frame_bytes, n)


@pytest.mark.parametrize("frame_bytes,stride", [(None, None), (21, 17), (105, 200)])
def test_plane_reads_any_contiguous_byte_buffer(frame_bytes, stride):
    # One frame, overlapping windows and windows with gaps, all with tails.
    data = bytes(range(210)) * 2  # 420 bytes
    want = transform_plane(data, seed(KEY), frame_bytes, stride)
    # Lengths count bytes, also in buffers of 105 four-byte items or 20 rows.
    for buffer in (bytearray(data), memoryview(data), memoryview(bytearray(data)),
                   array("I", data), memoryview(data).cast("B", (20, 21))):
        got = transform_plane(buffer, seed(KEY), frame_bytes, stride)
        assert type(got[0]) is bytes
        assert got == want


NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("kernel", ["loaded", "python"])
@pytest.mark.parametrize("kind", NUMPY_INTEGERS, ids=lambda kind: kind.__name__)
def test_plane_uses_numpy_integer_sizes_exactly(monkeypatch, kernel, kind):
    # In a narrow type, 3 frames of 64 bytes 100 apart used to wrap the key
    # span of 264 (uint8: 8), so the mask read past its key and the state
    # landed at the wrong iterate.
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    data = bytes(range(64)) * 3
    for frame_bytes, stride in [(64, 100), (64, 17), (64, 64), (32, 127)]:
        want = transform_plane(data, seed(KEY), frame_bytes, stride)
        assert transform_plane(data, seed(KEY), kind(frame_bytes), kind(stride)) == want
        assert transform_plane(data, seed(KEY), kind(frame_bytes)) == \
            transform_plane(data, seed(KEY), frame_bytes)


@pytest.mark.parametrize("kernel", ["loaded", "python"])
def test_plane_repro_with_uint8_sizes(monkeypatch, kernel):
    # uint8 200 * 2 + 64 wrapped to a 208-byte key and a state at n = 88.
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    state = seed(KeyMaterial(3.9, 0.4, burn_in=0))
    out, after = transform_plane(bytes(192), state, np.uint8(64), np.uint8(200))
    assert (out, after) == transform_plane(bytes(192), state, 64, 200)
    assert len(out) == 192 and after.n == 600


@pytest.mark.parametrize("frame_bytes,stride", [(0, 1), (7, 7), (10, 0), (10, -3)])
def test_plane_rejects_frames_that_do_not_tile(frame_bytes, stride):
    with pytest.raises(ValueError):
        transform_plane(bytes(20), seed(KEY), frame_bytes, stride)


def test_mismatched_frames_rejected(make_frame):
    rng = np.random.default_rng(13)
    with pytest.raises(DimensionMismatch):
        process_stream([make_frame(rng, 4, 4, 1), make_frame(rng, 4, 5, 1)], KEY)
    with pytest.raises(DimensionMismatch):
        process_stream([make_frame(rng, 4, 4, 1), make_frame(rng, 4, 4, 3)], KEY)
