import math
import threading
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from chaospip import (
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    Frame,
    KeyMaterial,
    compare_frames,
    corr2d,
    encrypt_image,
    entropy_of_counts,
    histogram256,
    key_sensitivity,
    keystream_histogram,
    shannon_entropy,
)
from chaospip import analysis
from chaospip.cli import _format_report

from synthimg import synthetic_gray, synthetic_rgb


# ---------------------------------------------------------------- histogram


def test_histogram_constant_bytes():
    counts = histogram256(bytes(100))
    assert counts[0] == 100
    assert counts[1:].sum() == 0


def test_histogram_each_value_once():
    counts = histogram256(bytes(range(256)))
    assert (counts == 1).all()


def test_histogram_empty():
    assert (histogram256(b"") == 0).all()


@pytest.mark.parametrize("values", [[256], [-1], [300.2], [1.7]], ids=str)
def test_histogram_rejects_values_that_are_not_bytes(values):
    with pytest.raises(ValueError):
        histogram256(np.array(values))


def test_histogram_sums_to_input_length():
    rng = np.random.default_rng(20)
    data = rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes()
    assert histogram256(data).sum() == 5000


# ---------------------------------------------------------------- entropy


def test_entropy_constant_is_zero():
    assert shannon_entropy(bytes([42] * 1000)) == 0.0


@pytest.mark.parametrize("compute", [lambda: shannon_entropy(b"\x07" * 10),
                                     lambda: entropy_of_counts([4, 0])], ids=["bytes", "counts"])
def test_entropy_of_one_value_is_positive_zero(compute):
    result = compute()
    assert result == 0.0 and math.copysign(1.0, result) == 1.0 and repr(result) == "0.0"


def test_entropy_uniform_is_eight():
    assert shannon_entropy(bytes(range(256)) * 3) == 8.0


def test_entropy_empty_rejected():
    with pytest.raises(EmptyInput):
        shannon_entropy(b"")
    with pytest.raises(EmptyInput):
        entropy_of_counts([0] * 256)


@pytest.mark.parametrize("counts", [[3, -3, 1], [1, -1, 2], [-0.5, 0, 0], [math.inf, 1], [-math.inf, 1],
                                    [math.inf, -math.inf], [math.nan, 1], [0, math.nan], [1e308, 1e308]])
def test_entropy_rejects_negative_or_non_finite_counts(counts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(ValueError, match="finite and non-negative") as info:
            entropy_of_counts(counts)
    assert not isinstance(info.value, EmptyInput)


def test_entropy_takes_fractional_weights():
    assert entropy_of_counts([0.25, 0.25, 0.0]) == 1.0
    assert entropy_of_counts(np.array([-0.0, 2.5])) == 0.0


def test_entropy_matches_direct_frequency_table():
    # oracle: explicit frequency table, plain math.log2, <= 16 distinct values
    rng = np.random.default_rng(21)
    for _ in range(20):
        values = rng.choice(256, size=rng.integers(1, 17), replace=False)
        data = rng.choice(values, size=2000).astype(np.uint8).tobytes()
        table = Counter(data)
        expected = -sum((c / 2000) * math.log2(c / 2000) for c in table.values())
        assert abs(shannon_entropy(data) - expected) <= 1e-12


def test_entropy_bounds_on_random_data():
    rng = np.random.default_rng(22)
    for n in [1, 2, 10, 1000]:
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        assert 0.0 <= shannon_entropy(data) <= 8.0


def test_entropy_from_histogram_matches_one_pass():
    rng = np.random.default_rng(23)
    data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
    assert shannon_entropy(data) == entropy_of_counts(histogram256(data))


def test_plain_stand_in_matches_published_value(table1_frames):
    frame, _source = table1_frames["lena"]
    assert abs(shannon_entropy(frame.data) - 7.4254) <= 0.05


# ---------------------------------------------------------------- corr2d


def test_corr_of_plane_with_itself_is_one():
    rng = np.random.default_rng(24)
    a = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
    assert abs(corr2d(a, a) - 1.0) <= 1e-12


def test_corr_with_inverted_plane_is_minus_one():
    rng = np.random.default_rng(25)
    a = rng.integers(0, 256, size=(32, 48), dtype=np.uint8)
    assert abs(corr2d(a, 255 - a) + 1.0) <= 1e-12


def test_corr_is_symmetric():
    rng = np.random.default_rng(26)
    a, b = rng.integers(0, 256, size=(2, 40, 40), dtype=np.uint8)
    assert corr2d(a, b) == corr2d(b, a)


def test_corr_scale_shift_affects_only_sign():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((50, 50))
    b = rng.standard_normal((50, 50))
    r = corr2d(a, b)
    for alpha, beta in [(2.5, 10.0), (-0.75, -3.0), (1e-3, 0.0), (-4.0, 100.0)]:
        assert abs(corr2d(a, alpha * b + beta) - math.copysign(1.0, alpha) * r) <= 1e-9


def test_corr_leaves_float_inputs_unmodified():
    rng = np.random.default_rng(28)
    a, b = rng.standard_normal((2, 30, 30))
    a0, b0 = a.copy(), b.copy()
    corr2d(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_corr_rejects_shape_mismatch_and_constants():
    with pytest.raises(DimensionMismatch):
        corr2d(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(DegenerateInput):
        corr2d(np.full((4, 4), 7), np.arange(16).reshape(4, 4))
    with pytest.raises(EmptyInput):
        corr2d(b"", b"")


def _corr2d_oracle(a, b) -> float:
    """The plane-sized float64 form corr2d must reproduce bit for bit."""
    a = analysis._as_array(a).astype(np.float64)
    b = analysis._as_array(b).astype(np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"plane shapes differ: {a.shape} vs {b.shape}")
    if not a.size:
        raise EmptyInput("correlation of empty planes is undefined")
    a -= a.mean()  # astype made fresh copies, so centring in place is safe
    b -= b.mean()
    den = float(np.sqrt((a * a).sum() * (b * b).sum()))
    if den == 0.0:
        raise DegenerateInput("correlation is undefined for a constant plane")
    return float((a * b).sum() / den)


def _outcome(fn, a, b):
    """The result as hex (so -0.0 and 0.0 differ), or the exception type."""
    try:
        return fn(a, b).hex()
    except Exception as exc:
        return type(exc)


_LENGTHS = [1, 7, 129, 32_767, 32_768, 32_769, 98_309]
_DTYPES = [np.uint8, np.int64, np.float32, np.float64]
_LAYOUTS = ["C", "F", "reversed", "stepped"]


def _values(rng, shape, dtype):
    if np.dtype(dtype).kind == "f":
        return (rng.standard_normal(shape) * 1e3 + 17.0).astype(dtype)
    high = 256 if dtype == np.uint8 else 1 << 60
    return rng.integers(-high if dtype == np.int64 else 0, high, size=shape).astype(dtype)


def _laid_out(values, layout):
    """A view of `values` (1-D or 2-D) with the given memory layout."""
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "reversed":
        flipped = np.ascontiguousarray(values[(slice(None, None, -1),) * values.ndim])
        return flipped[(slice(None, None, -1),) * values.ndim]
    if layout == "stepped":
        wide = np.zeros(tuple(2 * s for s in values.shape), values.dtype)
        view = wide[(slice(None, None, 2),) * values.ndim]
        view[...] = values
        return view
    return np.ascontiguousarray(values)


@st.composite
def _operands(draw):
    n = draw(st.sampled_from(_LENGTHS))
    if draw(st.booleans()):
        shape = (n,)
    else:
        rows = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        shape = (rows, n // rows)
    dtype = draw(st.sampled_from(_DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _values(rng, shape, dtype)
    # b mixes a scaled copy of a with fresh values, so |corr| spans (0, 1).
    b = a.astype(np.float64) * draw(st.sampled_from([0.0, 0.5, -3.0])) + _values(rng, shape, dtype)
    if dtype == np.uint8:
        b %= 256
    return a, b.astype(dtype)


@settings(max_examples=120, deadline=None)
@given(_operands(), st.sampled_from(_LAYOUTS))
def test_corr2d_matches_plane_sized_oracle_bit_for_bit(operands, layout):
    a, b = (_laid_out(v, layout) for v in operands)
    assert _outcome(corr2d, a, b) == _outcome(_corr2d_oracle, a, b)


@settings(max_examples=60, deadline=None)
@given(_operands(), st.sampled_from(_LAYOUTS), st.sampled_from(_LAYOUTS))
def test_corr2d_with_different_layouts_agrees_within_1e12(operands, layout_a, layout_b):
    """Operands laid out differently may not match bit for bit.

    corr2d reads both in `a`'s memory order, while the oracle sums each
    plane in its own; the two agree within 1e-12 relative.
    """
    a, b = _laid_out(operands[0], layout_a), _laid_out(operands[1], layout_b)
    got, want = _outcome(corr2d, a, b), _outcome(_corr2d_oracle, a, b)
    if isinstance(want, type):
        assert got is want
    else:
        assert float.fromhex(got) == pytest.approx(float.fromhex(want), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [7, 129, 98_309])
@pytest.mark.parametrize("other", [np.int64, np.float64])
@pytest.mark.parametrize("uint8_first", [True, False])
def test_corr2d_of_mixed_dtypes_matches_oracle_bit_for_bit(n, other, uint8_first):
    """A byte plane against a wider one is summed as the oracle sums it:
    read as bytes, the wider plane would give another result."""
    rng = np.random.default_rng(n)
    plane = rng.integers(0, 256, n, dtype=np.uint8)
    wide = (plane * 0.5 + rng.standard_normal(n) * 40.0).astype(other)
    a, b = (plane, wide) if uint8_first else (wide, plane)
    assert _outcome(corr2d, a, b) == _outcome(_corr2d_oracle, a, b)


@pytest.mark.parametrize("a, b", [
    (b"", b""),
    (np.zeros((0, 3)), np.zeros((0, 3))),
    (np.full((4, 4), 7), np.arange(16).reshape(4, 4)),
    (np.arange(16.0), np.full(16, 2.5)),
    (np.zeros((2, 3)), np.zeros((3, 2))),
    (np.arange(32_769), np.arange(32_768)),
    (b"\x01", b"\x02"),
])
def test_corr2d_raises_what_the_oracle_raises(a, b):
    want = _outcome(_corr2d_oracle, a, b)
    assert isinstance(want, type)
    assert _outcome(corr2d, a, b) is want


def test_plain_versus_cipher_correlation_is_negligible(table1_frames):
    frame, _source = table1_frames["lena"]
    cipher = encrypt_image(frame, KeyMaterial(mu=3.934, x0=0.5250))
    assert abs(corr2d(frame.data, cipher.data)) <= 0.02


# ---------------------------------------------------------------- key sensitivity


def test_same_key_gives_correlation_one():
    frame = synthetic_gray(64, 64, 7.2, seed=30)
    key = KeyMaterial(mu=3.934, x0=0.5250, burn_in=20)
    assert key_sensitivity(frame, key, key) == 1.0


def test_adjacent_keys_decorrelate():
    frame = synthetic_gray(128, 128, 7.2, seed=31)
    a = KeyMaterial(mu=3.934, x0=0.919666837573, burn_in=20)
    b = KeyMaterial(mu=3.934, x0=0.919666837572, burn_in=20)
    assert abs(key_sensitivity(frame, a, b)) <= 0.05


def test_key_sensitivity_averages_rgb_channels():
    frame = synthetic_rgb(32, 32, 7.0, seed=32)
    a = KeyMaterial(mu=3.934, x0=0.41, burn_in=20)
    b = KeyMaterial(mu=3.934, x0=0.42, burn_in=20)
    ca, cb = encrypt_image(frame, a), encrypt_image(frame, b)
    per_channel = [corr2d(ca.plane(c), cb.plane(c)) for c in range(3)]
    assert key_sensitivity(frame, a, b) == pytest.approx(np.mean(per_channel), abs=0)


@pytest.mark.parametrize("kernel", ["loaded", "python"])
@pytest.mark.parametrize("frame", [synthetic_gray(37, 29, 7.1, seed=33),
                                   synthetic_rgb(41, 23, 7.0, seed=34)], ids=["gray", "rgb"])
def test_key_sensitivity_is_compare_frames_correlation(monkeypatch, kernel, frame):
    # One per-channel pass gives the paper's three claims; it must equal the
    # mean of corr2d over each channel's planes, bit for bit.
    if kernel == "python":
        monkeypatch.setattr(analysis.keystream, "_loaded", lambda: analysis.keystream._PYTHON)
    a = KeyMaterial(mu=3.934, x0=0.41, burn_in=20)
    b = KeyMaterial(mu=3.934, x0=0.42, burn_in=20)
    ca, cb = encrypt_image(frame, a), encrypt_image(frame, b)
    per_channel = [corr2d(ca.plane(c), cb.plane(c)) for c in range(frame.channels)]
    got = key_sensitivity(frame, a, b)
    assert got.hex() == float(np.mean(per_channel)).hex() == compare_frames(ca, cb).corr.hex()


# ---------------------------------------------------------------- keystream histogram


def test_keystream_histogram_degenerate_case():
    key = KeyMaterial(mu=3.934, x0=0.5250, burn_in=0)
    counts = keystream_histogram(key, 1, 1)
    assert counts.tolist() == [1]


def test_keystream_histogram_conserves_iterations():
    key = KeyMaterial(mu=3.934, x0=0.22101986)
    assert keystream_histogram(key, 10_000, 100).sum() == 10_000


def test_keystream_histogram_needs_one_iteration_per_bin():
    key = KeyMaterial(mu=3.934, x0=0.5250)
    with pytest.raises(ValueError):
        keystream_histogram(key, 99, 100)
    assert keystream_histogram(key, 100, 100).sum() == 100


def test_keystream_histogram_preconditions():
    key = KeyMaterial(mu=3.934, x0=0.5250)
    with pytest.raises(ValueError):
        keystream_histogram(key, 5, 10)
    with pytest.raises(ValueError):
        keystream_histogram(key, 5, 0)


@pytest.mark.parametrize(
    "mu,x0,burn_in,bins",
    [
        (3.934, 0.22101986, 1000, 100),
        (math.nextafter(4.0, 0.0), math.nextafter(1.0, 0.0), 0, 7),  # hex-key extremes
        (3.58, 0.123456789, 3, 1000),
    ],
)
def test_keystream_histogram_matches_float_loop(mu, x0, burn_in, bins):
    iterations = 70_001  # several 16384-state chunks of the keystream kernel
    x = x0
    for _ in range(burn_in):
        x = mu * (x * (1.0 - x))
    expected = [0] * bins
    for _ in range(iterations):
        x = mu * (x * (1.0 - x))
        expected[min(int(x * bins), bins - 1)] += 1
    counts = keystream_histogram(KeyMaterial(mu=mu, x0=x0, burn_in=burn_in), iterations, bins)
    assert counts.tolist() == expected


def test_keystream_histogram_shows_attractor_bias():
    key = KeyMaterial(mu=3.934, x0=0.22101986, burn_in=1000)
    counts = keystream_histogram(key, 100_000, 100)
    ordered = np.sort(counts)
    median = 0.5 * (ordered[49] + ordered[50])
    assert counts.max() >= 2 * median


# ---------------------------------------------------------------- reports


def test_compare_frames_grayscale():
    frame = synthetic_gray(64, 64, 7.1, seed=33)
    key = KeyMaterial(mu=3.934, x0=0.5250, burn_in=20)
    cipher = encrypt_image(frame, key)
    report = compare_frames(frame, cipher)
    assert report.channels is None
    assert report.hist_plain == (tuple(histogram256(frame.data).tolist()),)
    assert report.hist_cipher == (tuple(histogram256(cipher.data).tolist()),)
    assert 0.0 <= report.entropy_plain <= 8.0
    assert report.entropy_cipher > report.entropy_plain
    assert abs(report.corr) < 0.2


def test_compare_frames_rgb_carries_per_channel_metrics():
    frame = synthetic_rgb(32, 32, 7.0, seed=34)
    key = KeyMaterial(mu=3.934, x0=0.5250, burn_in=20)
    cipher = encrypt_image(frame, key)
    report = compare_frames(frame, cipher)
    assert report.channels is not None and len(report.channels) == 3
    assert report.hist_plain == tuple(tuple(histogram256(frame.plane(c)).tolist()) for c in range(3))
    assert report.hist_cipher == tuple(tuple(histogram256(cipher.plane(c)).tolist()) for c in range(3))
    assert report.corr == pytest.approx(np.mean([m.corr for m in report.channels]), abs=0)


@pytest.mark.parametrize("channels, calls", [(1, 2), (3, 8)])
def test_compare_frames_takes_each_entropy_once(monkeypatch, channels, calls):
    # Whole-frame plain and cipher entropies, plus both per channel for RGB
    # only: a gray frame's one channel is the whole frame.
    make = synthetic_gray if channels == 1 else synthetic_rgb
    frame = make(16, 16, 7.0, seed=36)
    cipher = encrypt_image(frame, KeyMaterial(mu=3.934, x0=0.5250, burn_in=20))
    want = compare_frames(frame, cipher)
    seen = []

    def counted(counts):
        seen.append(counts)
        return entropy_of_counts(counts)

    monkeypatch.setattr(analysis, "entropy_of_counts", counted)
    assert compare_frames(frame, cipher) == want
    assert len(seen) == calls


def _counting(calls, concurrently=analysis.keystream._concurrently):
    """`keystream._concurrently` that appends its number of calls to `calls`
    whenever one of them ran on another thread than the caller's."""
    def counted(size, *args):
        here, idents = threading.get_ident(), []

        def noting(call):
            def run():
                try:
                    return call()
                finally:
                    idents.append(threading.get_ident())
            return run

        try:
            return concurrently(size, *map(noting, args))
        finally:
            if any(ident != here for ident in idents):
                calls.append(len(args))
    return counted


def _outcome_of(call):
    try:
        return call()
    except DegenerateInput as exc:
        return type(exc)


# width, height, number of byte values, seed
_pixels = st.tuples(st.integers(1, 24), st.integers(1, 24), st.sampled_from([2, 3, 256]),
                    st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("oracle", [False, True], ids=["kernel-in-use", "oracle"])
@settings(max_examples=60, deadline=None)
@given(shape=_pixels, share=st.booleans())
def test_two_threads_give_the_serial_report(oracle, shape, share):
    """An RGB pair at or above `keystream._CONCURRENT_BYTES` runs its channel
    passes on two threads; the report, and its text, match the serial path's.
    Few byte values make constant planes (DegenerateInput) likely too."""
    width, height, values, seed_ = shape
    rng = np.random.default_rng(seed_)
    size = width * height * 3
    plain, cipher = (Frame(width, height, 3, rng.integers(0, values, size, dtype=np.uint8).tobytes())
                     for _ in range(2))
    if share:  # equal planes correlate fully
        cipher = plain
    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            mp.setattr(analysis.keystream, "_loaded", lambda: analysis.keystream._PYTHON)
        outcomes, calls = [], []
        mp.setattr(analysis.keystream, "_concurrently", _counting(calls))
        for limit in (len(plain.data) + 1, len(plain.data)):  # serial, then two threads
            mp.setattr(analysis.keystream, "_CONCURRENT_BYTES", limit)
            outcomes.append(_outcome_of(lambda: compare_frames(plain, cipher)))
        assert calls == [3]
    serial, together = outcomes
    assert serial == together
    if serial is not DegenerateInput:
        assert _format_report(serial) == _format_report(together)


@pytest.mark.parametrize("oracle", [False, True], ids=["kernel-in-use", "oracle"])
@pytest.mark.parametrize("constant", ["plain", "cipher"])
@pytest.mark.parametrize("channel", [0, 1, 2])
def test_two_threads_reject_a_constant_plane_in_any_channel(monkeypatch, oracle, constant, channel):
    # Channel 0 runs on this thread, channels 1 and 2 on the helper.
    if oracle:
        monkeypatch.setattr(analysis.keystream, "_loaded", lambda: analysis.keystream._PYTHON)
    calls = []
    monkeypatch.setattr(analysis.keystream, "_CONCURRENT_BYTES", 3 * 13 * 11)
    monkeypatch.setattr(analysis.keystream, "_concurrently", _counting(calls))
    rng = np.random.default_rng(36)
    planes = {name: rng.integers(0, 256, (3, 13 * 11), dtype=np.uint8) for name in ("plain", "cipher")}
    planes[constant][channel] = 200
    plain, cipher = (Frame(13, 11, 3, planes[name].tobytes()) for name in ("plain", "cipher"))
    with pytest.raises(DegenerateInput):
        compare_frames(plain, cipher)
    assert calls == [3]


@pytest.mark.parametrize("oracle", [False, True], ids=["kernel-in-use", "oracle"])
@pytest.mark.parametrize("channels, limit", [(1, 13 * 11), (3, 3 * 13 * 11 + 1)],
                         ids=["gray-at-the-rule", "rgb-one-byte-below"])
def test_compare_frames_starts_no_helper_for_gray_or_below_the_rule(monkeypatch, oracle, channels, limit):
    rng = np.random.default_rng(37)
    plain, cipher = (Frame(13, 11, channels, rng.integers(0, 256, 13 * 11 * channels, dtype=np.uint8).tobytes())
                     for _ in range(2))
    want = compare_frames(plain, cipher)

    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    if oracle:
        monkeypatch.setattr(analysis.keystream, "_loaded", lambda: analysis.keystream._PYTHON)
    monkeypatch.setattr(analysis.keystream, "_CONCURRENT_BYTES", limit)
    monkeypatch.setattr(analysis.keystream, "threading", SimpleNamespace(Thread=no_thread))
    assert compare_frames(plain, cipher) == want


def test_compare_frames_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        compare_frames(Frame(2, 2, 1, bytes(4)), Frame(2, 3, 1, bytes(6)))


@pytest.mark.parametrize("oracle", [False, True], ids=["kernel-in-use", "oracle"])
@pytest.mark.parametrize("constant", ["plain", "cipher"])
@pytest.mark.parametrize("channels", [1, 3])
def test_compare_frames_rejects_a_constant_plane(monkeypatch, oracle, constant, channels):
    # The last channel's plane is constant in one frame only, so the
    # correlation of that channel has a zero denominator.
    if oracle:
        monkeypatch.setattr(analysis.keystream, "_loaded", lambda: analysis.keystream._PYTHON)
    rng = np.random.default_rng(35)
    planes = {name: rng.integers(0, 256, (channels, 13 * 11), dtype=np.uint8)
              for name in ("plain", "cipher")}
    planes[constant][-1] = 200
    plain, cipher = (Frame(13, 11, channels, planes[name].tobytes()) for name in ("plain", "cipher"))
    with pytest.raises(DegenerateInput):
        compare_frames(plain, cipher)
