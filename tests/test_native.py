"""The native keystream kernel against the pure-Python oracle, `_orbit`.

The differential tests run only when the native kernel is in use; the
domain, count-bound and fallback tests run under either backend.
`tests/refcipher.py` stays the final oracle through the other suites.
"""

import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaospip import (
    Frame,
    forward_permute,
    keystream,
    process_block,
    read_pnm,
    transform_plane,
    write_pnm,
)
from chaospip.analysis import corr2d, histogram256, keystream_histogram
from chaospip.cli import run
from chaospip.errors import RangeError
from chaospip.keystream import (
    KeyMaterial,
    KeystreamState,
    derive_key_from_hex,
    derive_key_from_params,
    seed,
    skip,
    take_bytes,
)

native_only = pytest.mark.skipif(keystream.BACKEND != "native", reason="native kernel not in use")

LENGTHS = [0, 1, 7, 8, 9, 16383, 16384, 16385, 70001]
BURN_INS = [0, 1, 255, 1000]
COUNTERS = [0, 255, 256, 2**64 - 3]  # the low byte wraps inside a call
BINS = [1, 97, 100]


def both(monkeypatch, fn, *args):
    """`fn(*args)` with the kernel the package picks, then with the oracle."""
    result = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
        return result, fn(*args)


def assert_kernels_agree(monkeypatch, key: KeyMaterial, n: int, length: int, bins: int):
    start, start_oracle = both(monkeypatch, seed, key)
    assert start == start_oracle, (key, "seed")
    state = KeystreamState(x=start.x, mu=start.mu, n=n)
    got, want = both(monkeypatch, take_bytes, state, length)
    assert got == want, (key, n, length, "take_bytes")
    got, want = both(monkeypatch, skip, state, length)
    assert got == want, (key, n, length, "skip")
    got, want = both(monkeypatch, keystream_histogram, key, max(length, bins), bins)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist(), (key, length, bins, "keystream_histogram")


@native_only
def test_random_keys_match_oracle(monkeypatch):
    rng = random.Random(20201)
    for case in range(200):
        mu = rng.uniform(3.5701, 4.0)
        x0 = rng.uniform(1e-9, 1.0 - 1e-9)
        key = KeyMaterial(mu=mu, x0=x0, burn_in=BURN_INS[case % len(BURN_INS)])
        assert_kernels_agree(monkeypatch, key, rng.choice(COUNTERS), LENGTHS[case % len(LENGTHS)],
                             BINS[case % len(BINS)])


@native_only
@pytest.mark.parametrize("burn_in", BURN_INS)
@pytest.mark.parametrize(
    "key",
    [
        derive_key_from_hex("0" * 64),
        derive_key_from_hex("f" * 64),
        derive_key_from_params("3.5701", "0.123456789"),
    ],
    ids=["hex-zero", "hex-max", "3.5701"],
)
def test_extreme_keys_match_oracle(monkeypatch, key, burn_in):
    key = KeyMaterial(mu=key.mu, x0=key.x0, burn_in=burn_in)
    for i, length in enumerate(LENGTHS):
        assert_kernels_agree(monkeypatch, key, COUNTERS[i % len(COUNTERS)], length,
                             BINS[i % len(BINS)])


class CountingLib:
    """Stands in for the compiled library and records each call's arguments."""

    def __init__(self):
        self.calls = []

    def chaospip_bytes(self, x, mu, low, count, out):
        self.calls.append((low, count))
        return x / 2.0

    def chaospip_bins(self, x, mu, count, bins, addr):
        self.calls.append((count, bins))
        return x / 2.0

    def chaospip_mask(self, key, data, n, frame_bytes, stride, out):
        self.calls.append((n, frame_bytes, stride))

    def chaospip_moments(self, a, b, n, out, counts):
        self.calls.append(("moments", n))


@pytest.fixture
def counting_lib(monkeypatch) -> CountingLib:
    lib = CountingLib()
    monkeypatch.setattr(keystream, "_loaded", lambda: keystream._native_kernel(lib))
    return lib


def test_largest_skip_is_one_kernel_call(counting_lib):
    state = skip(KeystreamState(x=0.4, mu=3.9, n=7), 2**63 - 1)
    assert counting_lib.calls == [(2**63 - 1, 1)]
    assert state == KeystreamState(x=0.2, mu=3.9, n=7 + 2**63 - 1)


@pytest.mark.parametrize("count", [2**63, 2**64])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: skip(KeystreamState(x=0.4, mu=3.9), n),
        lambda n: take_bytes(KeystreamState(x=0.4, mu=3.9), n),
        lambda n: keystream_histogram(derive_key_from_params("3.9", "0.4"), n, 10),
    ],
    ids=["skip", "take_bytes", "keystream_histogram"],
)
def test_counts_past_int64_never_reach_the_kernel(counting_lib, call, count):
    # ctypes would wrap 2**64 to 0, leaving x unchanged while n advanced.
    with pytest.raises(ValueError, match=r"2\*\*63"):
        call(count)
    assert counting_lib.calls == []


@pytest.mark.parametrize("bins", [10.0, 2.5, "10", None])
def test_bins_that_are_not_integers_never_reach_the_kernel(counting_lib, bins):
    # 10.0 used to run the burn-in and then fail inside numpy.
    with pytest.raises(TypeError):
        keystream_histogram(derive_key_from_params("3.9", "0.4"), 10**6, bins)
    assert counting_lib.calls == []


@pytest.mark.parametrize("bins, same", [(np.uint8(100), 100), (True, 1)], ids=["uint8", "bool"])
def test_integer_bins_count_as_python_ints(bins, same):
    key = derive_key_from_params("3.9", "0.4")
    assert keystream_histogram(key, 10_000, bins).tolist() == \
        keystream_histogram(key, 10_000, same).tolist()


def test_kernel_gets_the_counter_as_its_low_byte(counting_lib):
    take_bytes(KeystreamState(x=0.4, mu=3.9, n=2**64 - 3), 5)
    assert counting_lib.calls == [((2**64 - 3) & 0xFF, 5)]


def test_zero_bins_never_reach_c():
    # C writes counts[bins - 1].
    lib = CountingLib()
    with pytest.raises(ValueError):
        keystream._native_kernel(lib).bins(0.4, 3.9, 8, 0)
    assert lib.calls == []


@pytest.mark.parametrize(
    "key_len,data_len,frame_bytes,stride",
    [(0, 0, 8, 8),      # no frame
     (7, 20, 7, 7),     # frames do not tile the data
     (68, 20, 10, 1),   # key one byte too long
     (10, 20, 10, 0),   # stride 0
     (7, 20, 10, -3),   # negative stride, key sized to match
     (20, 20, 0, 1),    # empty frames
     (26, 20, 10, 17),  # key one byte too short
     # Key spans that wrap in the caller's type (464, 65544, 4294967302):
     (208, 192, np.uint8(64), np.uint8(200)),
     (8, 24, np.uint16(8), np.uint16(32768)),
     (6, 24, np.int32(8), np.int32(2**31 - 1))],
)
def test_bad_mask_geometry_never_reaches_c(counting_lib, key_len, data_len, frame_bytes, stride):
    # C reads key[stride * i + j] and data[frame_bytes * i + j] unchecked.
    with pytest.raises(ValueError):
        keystream._mask(bytes(key_len), bytes(data_len), frame_bytes, stride)
    assert counting_lib.calls == []
    keystream._mask(bytes(27), bytes(20), 10, 17)
    assert counting_lib.calls == [(2, 10, 17)]


def test_mask_hands_c_python_int_sizes(counting_lib):
    # ctypes converts a numpy size exactly; the checks before it must too.
    keystream._mask(bytes(27), bytes(20), np.uint8(10), np.uint8(17))
    assert counting_lib.calls == [(2, 10, 17)]
    assert all(type(size) is int for size in counting_lib.calls[0])


def test_moments_hand_c_equal_byte_pairs_only(counting_lib):
    # C reads n bytes from the start of each buffer and counts them as
    # bytes, so a wider pair is refused; corr2d takes such a pair, mixed
    # dtypes included, to the oracle.
    ramp = np.arange(24, dtype=np.uint8)
    for a, b in [(ramp, ramp[:-1]), (ramp[:0], ramp[:0]), (ramp.reshape(4, 6),) * 2]:
        with pytest.raises(ValueError):
            keystream._moments(a, b)
    for other in (ramp.astype(np.int64), ramp.astype(np.float64)):
        with pytest.raises(ValueError):
            keystream._moments(ramp, other)
        with pytest.raises(ValueError):
            keystream._moments(other, ramp)
        assert corr2d(ramp, other) == corr2d(other, ramp) == 1.0
    assert counting_lib.calls == []
    keystream._moments(ramp[::2], ramp[1::2])
    assert counting_lib.calls == [("moments", 12)]


def untransposed(key, data, frame_bytes, stride):
    n = len(data) // frame_bytes
    windows = np.stack([key[stride * i:stride * i + frame_bytes] for i in range(n)])
    return (data.reshape(n, frame_bytes) ^ windows).tobytes()


def back_to_back(key, data, frame_bytes, stride):
    return keystream._py_mask(np.resize(key, len(data)), data, frame_bytes, frame_bytes)


def odd_block_untransposed(key, data, frame_bytes, stride):
    # What a two-block loop without its one-block step leaves to the byte tail.
    n, full = len(data) // frame_bytes, frame_bytes - frame_bytes % 8
    odd = slice(full - full % 16, full)
    out = np.frombuffer(keystream._py_mask(key, data, frame_bytes, stride), dtype=np.uint8)
    out = out.reshape(n, frame_bytes).copy()
    for i in range(n):
        out[i, odd] = data[frame_bytes * i:][odd] ^ key[stride * i:][odd]
    return out.tobytes()


@pytest.mark.parametrize("mask", [untransposed, back_to_back, odd_block_untransposed])
def test_probe_rejects_a_wrong_mask(mask):
    assert keystream._agrees(keystream._PYTHON)
    assert not keystream._agrees(keystream._PYTHON._replace(mask=mask))


def test_probe_rejects_moments_summed_in_another_order():
    def sequential(a, b):
        _sums, counts = keystream._PYTHON.moments(a, b)
        sa, sb = float(a.sum()), float(b.sum())
        x, y = a - sa / len(a), b - sb / len(b)
        return (sa, sb, *(float(np.cumsum(p)[-1]) for p in (x * x, y * y, x * y))), counts

    assert not keystream._agrees(keystream._PYTHON._replace(moments=sequential))


def tailless_counts(a, b):
    """Counts that skip the terms summed one by one after the eight-term
    steps, as a count loop missing from the sequential tail would. numpy's
    tree splits at multiples of 8, so those are the last n % 8 terms."""
    moments, counts = keystream._PYTHON.moments(a, b)
    skipped = slice(len(a) - len(a) % 8, None)
    counts[0] -= np.bincount(a[skipped], minlength=256)
    counts[1] -= np.bincount(b[skipped], minlength=256)
    return moments, counts


def swapped_counts(a, b):
    moments, counts = keystream._PYTHON.moments(a, b)
    return moments, counts[::-1].copy()


@pytest.mark.parametrize("moments", [tailless_counts, swapped_counts])
def test_probe_rejects_wrong_counts_with_the_moments(moments):
    assert not keystream._agrees(keystream._PYTHON._replace(moments=moments))


# Every path of numpy's pairwise sum: fewer than 8 terms, one block of 8 to
# 128 with and without a tail, one split, and a tree ten splits deep.
MOMENT_LENGTHS = st.one_of(st.integers(1, 9), st.integers(120, 136), st.integers(248, 264),
                           st.just(98_309))


@native_only
@settings(max_examples=200, deadline=None)
@given(n=MOMENT_LENGTHS, spread_a=st.sampled_from([1, 2, 16, 256]),
       spread_b=st.sampled_from([1, 3, 256]), seed_=st.integers(0, 2**32 - 1))
@example(n=1, spread_a=1, spread_b=1, seed_=0)
@example(n=136, spread_a=1, spread_b=256, seed_=1)
@example(n=98_309, spread_a=256, spread_b=1, seed_=2)
@example(n=32_767, spread_a=256, spread_b=256, seed_=3)
@example(n=32_769, spread_a=2, spread_b=256, seed_=4)
@example(n=32_771, spread_a=256, spread_b=16, seed_=5)
@example(n=65_543, spread_a=256, spread_b=256, seed_=6)
@example(n=163_853, spread_a=16, spread_b=256, seed_=7)
@example(n=1_000_003, spread_a=256, spread_b=256, seed_=8)
def test_native_moments_match_oracle(n, spread_a, spread_b, seed_):
    """The native moments against numpy's own sums, the oracle, bit for bit,
    past the load probe's 999 bytes: a numpy release that splits its pairwise
    tree elsewhere fails the probe (and CI's backend check) or this test."""
    # A spread of 1 makes a constant plane, whose deviations are all zero.
    rng = np.random.default_rng(seed_)
    a, b = (rng.integers(0, 257 - spread, dtype=np.uint8)
            + rng.integers(0, spread, n, dtype=np.uint8) for spread in (spread_a, spread_b))
    got, got_counts = keystream._loaded().moments(a, b)
    want, want_counts = keystream._PYTHON.moments(a, b)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got_counts.tolist() == want_counts.tolist()


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(1, 17), st.integers(120, 136), st.integers(248, 264),
                   st.integers(4088, 4104), st.integers(1, 20_000)),
       spread_a=st.sampled_from([1, 2, 16, 256]), spread_b=st.sampled_from([1, 3, 256]),
       seed_=st.integers(0, 2**32 - 1))
@example(n=1, spread_a=256, spread_b=256, seed_=0)
@example(n=7, spread_a=256, spread_b=256, seed_=1)
@example(n=8, spread_a=256, spread_b=16, seed_=2)
@example(n=127, spread_a=2, spread_b=256, seed_=3)
@example(n=128, spread_a=256, spread_b=3, seed_=4)
@example(n=129, spread_a=256, spread_b=256, seed_=5)
@example(n=999, spread_a=256, spread_b=256, seed_=6)
@example(n=4095, spread_a=16, spread_b=256, seed_=7)
@example(n=4097, spread_a=256, spread_b=1, seed_=8)
def test_counted_moments_match_bincount_and_oracle(n, spread_a, spread_b, seed_):
    """The moments pass of the kernel in use against `np.bincount` and
    `_PYTHON.moments`: lengths across the tree's splits at 128 and 256
    bytes, the sum pass's 4096-byte blocks and every tail of an eight-term
    step."""
    rng = np.random.default_rng(seed_)
    a, b = (rng.integers(0, 257 - spread, dtype=np.uint8)
            + rng.integers(0, spread, n, dtype=np.uint8) for spread in (spread_a, spread_b))
    moments, counts = keystream._moments(a, b)
    assert counts.dtype == np.int64 and counts.shape == (2, 256)
    assert counts[0].tolist() == np.bincount(a, minlength=256).tolist()
    assert counts[1].tolist() == np.bincount(b, minlength=256).tolist()
    want, _counts = keystream._PYTHON.moments(a, b)
    assert [v.hex() for v in moments] == [v.hex() for v in want]


@settings(max_examples=300, deadline=None)
@given(length=st.integers(0, 10_000), step=st.integers(1, 3), offset=st.integers(0, 3),
       dtype=st.sampled_from([np.uint8, np.int8, np.uint16, np.int32, np.int64, np.uint64]),
       seed_=st.integers(0, 2**32 - 1))
@example(length=0, step=1, offset=0, dtype=np.uint8, seed_=0)
@example(length=1, step=1, offset=1, dtype=np.uint8, seed_=1)
@example(length=2, step=2, offset=0, dtype=np.uint8, seed_=2)
@example(length=3, step=1, offset=3, dtype=np.int32, seed_=3)
@example(length=4, step=1, offset=0, dtype=np.uint8, seed_=4)
def test_histogram_matches_bincount(length, step, offset, dtype, seed_):
    # Strided views and wider integer dtypes holding byte values, uint64
    # included, which np.bincount refuses to cast safely.
    top = 128 if dtype == np.int8 else 256
    values = np.random.default_rng(seed_).integers(0, top, offset + length * step).astype(dtype)
    values = values[offset::step]
    got = histogram256(values)
    assert got.dtype == np.int64
    assert got.tolist() == np.bincount(values.astype(np.int64), minlength=256).tolist()


@native_only
@settings(max_examples=300, deadline=None)
@given(frame_bytes=st.integers(1, 200), stride=st.integers(1, 300), n=st.integers(1, 40),
       seed_=st.integers(0, 2**32 - 1))
@example(frame_bytes=64, stride=17, n=40, seed_=0)   # overlapping, no tail
@example(frame_bytes=13, stride=17, n=3, seed_=1)    # gaps, a 5-byte tail
@example(frame_bytes=7, stride=1, n=40, seed_=2)     # only tails
@example(frame_bytes=200, stride=300, n=1, seed_=3)  # one frame
def test_native_mask_matches_oracle(frame_bytes, stride, n, seed_):
    # Arrays, not bytes: a bytes object's data ends in a NUL that is part of
    # its allocation, so a sanitizer would not see the kernel read one byte
    # past a key or a frame.
    rng = np.random.default_rng(seed_)
    key = rng.integers(0, 256, stride * (n - 1) + frame_bytes, dtype=np.uint8)
    data = rng.integers(0, 256, n * frame_bytes, dtype=np.uint8)
    got = keystream._mask(key, data, frame_bytes, stride)
    want = keystream._py_mask(key, data, frame_bytes, stride)
    assert type(got) is bytes
    assert got == want


@pytest.mark.parametrize("name", ["take_bytes", "transform_plane", "read_pnm", "write_pnm"])
def test_results_are_new_bytes_that_later_calls_leave_alone(monkeypatch, name):
    # Frame-sized results are written in place into new bytes objects. Each
    # equals the oracle's, is handed out once and is never written again.
    rng = np.random.default_rng(15)
    start = seed(KeyMaterial(mu=3.934, x0=0.525, burn_in=10))

    def pixels(n):
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()

    cases = {
        "take_bytes": (lambda i, n: take_bytes(skip(start, i), n)[0],
                       [(i, n) for i, n in enumerate([1, 1, 925, 925, 2775])]),
        "transform_plane": (lambda data: transform_plane(data, start, 43, 37)[0],
                            [(pixels(43),), (pixels(129),), (pixels(129),)]),
        "read_pnm": (lambda blob: read_pnm(blob).data,
                     [(b"P6\n37 25\n255\n" + pixels(2775),), (b"P6\n37 25\n255\n" + pixels(2775),),
                      (b"P6\n1 1\n255\n" + pixels(3),)]),
        "write_pnm": (write_pnm, [(Frame(37, 25, 3, pixels(2775)),), (Frame(37, 25, 3, pixels(2775)),),
                                  (Frame(1, 1, 3, pixels(3)),)]),
    }
    fn, inputs = cases[name]
    results = []
    for args in inputs:
        got, want = both(monkeypatch, fn, *args)
        assert type(got) is bytes and type(want) is bytes
        assert got == want
        results.append((got, bytes(bytearray(got))))
    assert len({id(got) for got, _ in results}) == len(results)
    for got, snapshot in results:
        assert got == snapshot


def test_block_api_runs_one_mask_call(counting_lib):
    # A wrong length is refused before C; a block is one 8-byte frame.
    with pytest.raises(ValueError):
        process_block(bytes(8), bytes(7))
    with pytest.raises(ValueError):
        forward_permute(bytes(9))
    assert counting_lib.calls == []
    forward_permute(bytes(8))
    process_block(bytes(8), bytes(8))
    assert counting_lib.calls == [(1, 8, 8), (1, 8, 8)]


@native_only
def test_block_api_matches_oracle(monkeypatch):
    # All 64 single-bit blocks, each also as its own key, then random pairs.
    bits = [bytes(0x80 >> j if k == i else 0 for k in range(8)) for i in range(8) for j in range(8)]
    pairs = np.random.default_rng(14).integers(0, 256, (500, 2, 8), dtype=np.uint8)
    for block, key in [(b, b) for b in bits] + [(bytes(p), bytes(k)) for p, k in pairs]:
        got, want = both(monkeypatch, forward_permute, block)
        assert got == want, block
        got, want = both(monkeypatch, process_block, block, key)
        assert got == want, (block, key)


@pytest.mark.parametrize(
    "x,mu",
    [(1.5, 3.9), (0.5, 4.5), (-0.25, 3.9), (float("nan"), 3.9), (0.5, float("nan")),
     (float("inf"), 3.9), (0.5, -3.9)],
)
def test_out_of_domain_state_is_rejected(x, mu):
    with pytest.raises(RangeError):
        KeystreamState(x=x, mu=mu, n=3)


def assert_one_step_stays_in_domain(x, mu):
    for kernel in (keystream._loaded(), keystream._PYTHON):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(keystream, "_loaded", lambda: kernel)
            assert 0.0 <= skip(KeystreamState(x=x, mu=mu), 1).x <= 1.0


@given(x=st.floats(0.0, 1.0), mu=st.floats(0.0, 4.0))
def test_map_keeps_the_domain_invariant(x, mu):
    assert_one_step_stays_in_domain(x, mu)


def test_map_keeps_the_domain_near_the_peak(monkeypatch):
    # Just below 0.5, 1 - x = 0.5 + k * 2**-54 rounds on a tie for odd k and
    # may round up, so x * (1 - x) can exceed 0.25 before its own rounding.
    for mu in (4.0, math.nextafter(4.0, 0.0)):
        for k in range(5000):
            assert_one_step_stays_in_domain(0.5 - k * 2**-54, mu)
            assert_one_step_stays_in_domain(0.5 + k * 2**-53, mu)
    # 0.5 -> 1.0 -> 0.0: x * 1 = 1 is bin index 1, which the clamp must put
    # in bin 0 of the one-bin count that `skip` makes.
    start = KeystreamState(x=0.5, mu=4.0, n=5)
    for count, x in [(1, 1.0), (2, 0.0), (3, 0.0)]:
        (counts, state), (counts_oracle, state_oracle) = both(monkeypatch, keystream._bins, start,
                                                              count, 1)
        assert counts.tolist() == counts_oracle.tolist() == [count]
        assert state == state_oracle == KeystreamState(x=x, mu=4.0, n=5 + count)


@native_only
def test_one_long_count_equals_two_calls_that_split_it():
    # Past the load probe's 1,000 iterates and every other test's counts: a
    # kernel that miscounted only far into a call would pass them all.
    state = seed(KeyMaterial(mu=3.934, x0=0.5250))
    counts, end = keystream._bins(state, 5_000_001, 97)
    first, middle = keystream._bins(state, 2_500_000, 97)
    second, split_end = keystream._bins(middle, 2_500_001, 97)
    assert (first + second).tolist() == counts.tolist()
    assert split_end == end and end.n == state.n + 5_000_001


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_compiler_on_path_means_native_backend():
    # A broken build would fall back silently and lose the speed-up.
    assert keystream.BACKEND == "native"


def test_without_compiler_falls_back_to_identical_output(tmp_path, make_frame):
    frame = make_frame(np.random.default_rng(6), 160, 120, 3)  # crosses 16384-byte chunks
    plain = tmp_path / "plain.ppm"
    plain.write_bytes(write_pnm(frame))
    argv = ["encrypt", "--in", str(plain), "--mu", "3.934", "--x0", "0.5250", "--out"]
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(keystream.__file__).resolve().parents[1]))
    script = ("import sys; from chaospip import cli, keystream; code = cli.run(sys.argv[1:]); "
              "print(keystream.BACKEND); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, *argv, str(tmp_path / "fallback.cpip")],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["python"]
    assert run([*argv, str(tmp_path / "default.cpip")]) == 0
    assert (tmp_path / "fallback.cpip").read_bytes() == (tmp_path / "default.cpip").read_bytes()


def blocked_home(tmp_path, monkeypatch) -> Path:
    """Point HOME at a directory where ~/.cache/chaospip cannot be made."""
    home = tmp_path / "home"
    (home / ".cache").mkdir(parents=True)
    (home / ".cache" / "chaospip").write_bytes(b"")
    monkeypatch.setenv("HOME", str(home))
    return home


def test_shared_cache_directory_is_not_used(tmp_path, monkeypatch):
    shared = tmp_path / "xdg" / "chaospip"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    blocked_home(tmp_path, monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    private = keystream._cache_dir()
    assert private == tmp_path / "tmp" / f"chaospip-{os.getuid()}"
    assert private.stat().st_mode & 0o777 == 0o700


def test_symlinked_cache_directory_is_not_used(tmp_path, monkeypatch):
    # Another user could create the shared-temp name first as a symlink and
    # repoint it after the check, so even a link to a private directory of
    # ours is refused.
    target = tmp_path / "ours"
    target.mkdir(mode=0o700)
    (tmp_path / "tmp").mkdir()
    (tmp_path / "tmp" / f"chaospip-{os.getuid()}").symlink_to(target)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    blocked_home(tmp_path, monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    with pytest.raises(OSError, match="no private writable cache directory"):
        keystream._cache_dir()


def test_relative_xdg_cache_home_falls_back_to_home_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    assert keystream._cache_dir() == tmp_path / "home" / ".cache" / "chaospip"
    assert not (tmp_path / "tmp").exists()


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_cold_build_leaves_only_the_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernel = keystream._native_kernel(keystream._load_library())
    assert keystream._agrees(kernel)
    assert [p.suffix for p in (tmp_path / "chaospip").iterdir()] == [".so"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_cold_build_removes_only_stale_siblings(tmp_path, monkeypatch):
    # A build killed mid-compile leaves its sibling; one older than the compile
    # timeout is stale, a fresh one may belong to a build still running, and
    # another kernel's sibling and other files are not this build's to remove.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    name = keystream._library_path().name
    cache = tmp_path / "chaospip"
    stale, fresh = cache / f"{name}.0123456789ab.tmp", cache / f"{name}.ba9876543210.tmp"
    other, unrelated = cache / "kernel-0000.so.0123456789ab.tmp", cache / "notes.tmp"
    for path in (stale, fresh, other, unrelated):
        path.write_bytes(b"half a library")
        os.utime(path, (time.time() - 301,) * 2)
    os.utime(fresh)
    keystream._load_library()
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [name, fresh.name, other.name, unrelated.name])


@pytest.mark.parametrize("error", [subprocess.CalledProcessError(1, "cc", stderr=b"error"),
                                   subprocess.TimeoutExpired("cc", 300)], ids=["fails", "hangs"])
def test_failed_build_leaves_nothing_in_the_cache(tmp_path, monkeypatch, error):
    def compile_(argv, **kwargs):
        Path(argv[argv.index("-o") + 1]).write_bytes(b"half a library")
        raise error

    monkeypatch.setattr(subprocess, "run", compile_)
    with pytest.raises(OSError, match="cannot compile _kernel.c"):
        keystream._build(keystream._SOURCE, tmp_path / "kernel.so")
    assert list(tmp_path.iterdir()) == []
