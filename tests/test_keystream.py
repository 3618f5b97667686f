import math
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaospip import (
    FixedPointError,
    KeyMaterial,
    KeystreamState,
    ParseError,
    RangeError,
    derive_key_from_hex,
    derive_key_from_params,
    encrypt_image,
    logistic_step,
    next_key_byte,
    seed,
    skip,
    take_bytes,
)
from chaospip import keystream
from chaospip.analysis import keystream_histogram

from synthimg import synthetic_gray


# A hex key whose x0 rounds onto the fixed point 1 - 1/mu of its mu = 3.9.
FIXED_POINT_HEX_KEY = "0" * 32 + "be5be5be5be5c0000000000000000000"


def oracle_step(x: float, mu: float) -> float:
    """One iterate via exact rationals, each operation rounded once.

    float(Fraction) rounds to nearest-even, so this reproduces binary64
    semantics without relying on hardware arithmetic ordering.
    """
    t = float(Fraction(1) - Fraction(x))
    u = float(Fraction(x) * Fraction(t))
    return float(Fraction(mu) * Fraction(u))


# ---------------------------------------------------------------- keys


def test_published_parameters_accepted():
    key = derive_key_from_params("3.934", "0.5250", 1000)
    assert key == KeyMaterial(mu=3.934, x0=0.5250, burn_in=1000)


@pytest.mark.parametrize(
    "mu,x0",
    [
        ("4.0", "0.5"),     # upper mu boundary excluded
        ("3.57", "0.5"),    # lower mu boundary excluded
        ("3.2", "0.5"),     # periodic regime
        ("4.5", "0.5"),
        ("3.934", "0.0"),   # x0 must be in the open interval
        ("3.934", "1.0"),
        ("3.934", "-0.25"),
    ],
)
def test_out_of_range_parameters_rejected(mu, x0):
    with pytest.raises(RangeError):
        derive_key_from_params(mu, x0, 0)


def test_negative_burn_in_rejected():
    with pytest.raises(RangeError):
        derive_key_from_params("3.934", "0.5250", -1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: KeyMaterial(mu=3.9, x0=0.4, burn_in=1.5),
        lambda: derive_key_from_params("3.9", "0.4", 1.9),  # not truncated to 1
        lambda: derive_key_from_params("3.9", "0.4", "1000"),
        lambda: KeyMaterial(mu=3.9, x0=0.4, burn_in=None),
    ],
    ids=["float", "float-params", "str-params", "none"],
)
def test_non_integer_burn_in_rejected(make):
    with pytest.raises(RangeError):
        make()


@pytest.mark.parametrize("burn_in", [np.int64(5), np.uint8(5)])
def test_numpy_integer_burn_in_is_stored_as_int(burn_in):
    key = KeyMaterial(mu=3.9, x0=0.4, burn_in=burn_in)
    assert type(key.burn_in) is int
    assert key == KeyMaterial(mu=3.9, x0=0.4, burn_in=5)
    assert type(seed(key).n) is int


REAL_KINDS = [np.float16, np.float32, np.float64, np.longdouble, Fraction]


@pytest.mark.parametrize("kernel", ["loaded", "python"])
@pytest.mark.parametrize("kind", REAL_KINDS, ids=lambda kind: kind.__name__)
def test_key_and_state_values_iterate_as_python_floats(monkeypatch, kernel, kind):
    # A numpy float32 mu used to run the oracle in single precision while
    # ctypes handed C its binary64 value, so the ciphertext hung on the kernel.
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    if kind is Fraction:
        mu, x0 = Fraction(393, 100), Fraction(41, 100)
    else:
        mu, x0 = kind(3.93), kind(0.41)
    key = KeyMaterial(mu=mu, x0=x0, burn_in=40)
    plain = KeyMaterial(mu=float(mu), x0=float(x0), burn_in=40)
    assert type(key.mu) is type(key.x0) is float
    assert seed(key) == seed(plain)
    assert take_bytes(seed(key), 4096) == take_bytes(seed(plain), 4096)
    state = KeystreamState(x=x0, mu=mu, n=7)
    assert type(state.x) is type(state.mu) is float
    assert take_bytes(state, 4096) == take_bytes(KeystreamState(float(x0), float(mu), 7), 4096)


@pytest.mark.parametrize("bad", ["3.9", b"3.9", None, 3.9j, np.array(3.9), 10**400],
                         ids=["str", "bytes", "none", "complex", "array", "huge"])
def test_key_and_state_values_that_are_not_real_floats_rejected(bad):
    for make in (lambda: KeyMaterial(mu=bad, x0=0.4), lambda: KeyMaterial(mu=3.9, x0=bad),
                 lambda: KeystreamState(x=bad, mu=3.9), lambda: KeystreamState(x=0.4, mu=bad)):
        with pytest.raises(RangeError):
            make()


@pytest.mark.parametrize("n,count", [(np.int64(2**63 - 1), 2), (np.uint64(2**64 - 3), 4),
                                     (np.uint8(255), 3)])
def test_numpy_integer_counter_is_stored_as_int(n, count):
    # A numpy counter used to overflow in `n + count` after the kernel ran.
    state = KeystreamState(x=0.4, mu=3.9, n=n)
    assert type(state.n) is int
    keys, after = take_bytes(state, count)
    assert (keys, after) == take_bytes(KeystreamState(x=0.4, mu=3.9, n=int(n)), count)
    assert after.n == int(n) + count


NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("kernel", ["loaded", "python"])
@pytest.mark.parametrize("kind", NUMPY_INTEGERS, ids=lambda kind: kind.__name__)
def test_numpy_integer_counts_advance_the_counter_exactly(monkeypatch, kernel, kind):
    # `n + count` used to take the count's type: 100 + uint8 200 wrapped to 44,
    # so every later key byte was whitened with the wrong counter.
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    for n in (100, int(np.iinfo(kind).max), 2**64 + 1):
        state = KeystreamState(x=0.4, mu=3.9, n=n)
        keys, after = take_bytes(state, kind(100))
        assert (keys, after) == take_bytes(state, 100)
        assert type(after.n) is int and after.n == n + 100
        assert skip(state, kind(100)) == skip(state, 100) == after


@pytest.mark.parametrize("n", [1.0, -1, "3", None])
def test_non_integer_or_negative_counter_rejected(n):
    with pytest.raises(RangeError):
        KeystreamState(x=0.4, mu=3.9, n=n)


def test_fixed_point_seed_rejected():
    fixed = 1.0 - 1.0 / 3.934
    with pytest.raises(FixedPointError):
        derive_key_from_params("3.934", repr(fixed), 0)


@pytest.mark.parametrize("bad", ["abc", "", "nan", "inf", "-inf", "1,5", "0x1p-2"])
def test_unparseable_decimals_rejected(bad):
    with pytest.raises(ParseError):
        derive_key_from_params(bad, "0.5", 0)
    with pytest.raises(ParseError):
        derive_key_from_params("3.9", bad, 0)


def test_hex_key_all_zero():
    key = derive_key_from_hex("0" * 64)
    assert key.mu == 3.9
    assert key.x0 == 1.0 / (2.0**128 + 2.0)
    assert key.x0 == 2.0**-128
    assert key.burn_in == 1000


def test_hex_key_all_f_clamped_into_open_intervals():
    # At the top of the key space the formulas round onto the excluded
    # endpoints mu = 4.0 and x0 = 1.0; the derivation must pull both back
    # by one ulp so that every 64-digit key is usable.
    key = derive_key_from_hex("f" * 64)
    assert key.mu == math.nextafter(4.0, 0.0)
    assert key.x0 == math.nextafter(1.0, 0.0)
    assert 3.57 < key.mu < 4.0
    assert 0.0 < key.x0 < 1.0


def test_hex_key_on_the_fixed_point_steps_one_ulp_off_it():
    # k1 = 0 gives mu = 3.9, and this k2 rounds x0 exactly onto 1 - 1/mu,
    # which KeyMaterial refuses with FixedPointError.
    k2 = int(FIXED_POINT_HEX_KEY[32:], 16)
    assert (float(k2) + 1.0) / (2.0**128 + 2.0) == 1.0 - 1.0 / 3.9
    key = derive_key_from_hex(FIXED_POINT_HEX_KEY)
    assert key.mu == 3.9
    assert key.x0 == math.nextafter(1.0 - 1.0 / 3.9, 0.0)


def test_hex_key_midrange_formula():
    k1 = 0x8000_0000_0000_0000_0000_0000_0000_0000
    key = derive_key_from_hex("8" + "0" * 31 + "4" + "2" * 31)
    assert key.mu == 3.9 + 0.1 * (float(k1) / 2.0**128)
    k2 = int("4" + "2" * 31, 16)
    assert key.x0 == (float(k2) + 1.0) / (2.0**128 + 2.0)


@pytest.mark.parametrize(
    "bad",
    [
        "f" * 63,            # too short
        "f" * 65,            # too long
        "g" + "0" * 63,      # non-hex digit
        "+" + "f" * 63,      # int() would tolerate the sign
        " " + "f" * 63,
        "",
    ],
)
def test_hex_key_shape_rejected(bad):
    with pytest.raises(ParseError):
        derive_key_from_hex(bad)


def test_hex_derivation_deterministic():
    hex_key = "00112233445566778899aabbccddeeff" * 2
    assert derive_key_from_hex(hex_key) == derive_key_from_hex(hex_key)


# ---------------------------------------------------------------- map


def test_step_matches_frozen_reference_point():
    got = logistic_step(0.5250, 3.934)
    assert got == float.fromhex("0x1.f64b09e98dcdbp-1")
    assert got == 0.98104125  # exact decimal 3.934 * 0.525 * 0.475
    assert got == oracle_step(0.5250, 3.934)


def test_step_matches_exact_oracle_on_many_points():
    x, mu = 0.22101986, 3.934
    for _ in range(200):
        stepped = logistic_step(x, mu)
        assert stepped == oracle_step(x, mu)
        x = stepped


def test_step_half_point():
    assert logistic_step(0.5, 3.934) == 0.9835
    assert logistic_step(0.5, 3.934) == oracle_step(0.5, 3.934)


def test_step_fixed_point_at_mu_four():
    assert logistic_step(0.75, 4.0) == 0.75


@pytest.mark.parametrize("kind", [np.float16, np.float32], ids=lambda kind: kind.__name__)
def test_step_of_narrow_numpy_floats_runs_in_binary64(kind):
    # float32 0.3 and 3.9 used to step to float32 0.81900007 in single precision.
    x, mu = kind(0.3), kind(3.9)
    stepped = logistic_step(x, mu)
    assert type(stepped) is float
    assert stepped == skip(KeystreamState(x, mu), 1).x == oracle_step(float(x), float(mu))


# ---------------------------------------------------------------- bytes


def test_first_byte_is_251():
    state = seed(KeyMaterial(mu=3.934, x0=0.5250, burn_in=0))
    byte, state = next_key_byte(state)
    assert byte == 251  # floor(0.98104125 * 256)
    assert state.n == 1
    assert state.x == 0.98104125


def test_byte_for_state_landing_on_half():
    # x = 0.5 maps to itself under mu = 2, so the next state is exactly 0.5
    byte, state = next_key_byte(KeystreamState(x=0.5, mu=2.0, n=0))
    assert byte == 128
    assert state.x == 0.5


def test_identical_seeds_agree_for_ten_thousand_bytes():
    key = KeyMaterial(mu=3.934, x0=0.5250, burn_in=5)
    a, _ = take_bytes(seed(key), 10_000)
    b, _ = take_bytes(seed(key), 10_000)
    assert a == b


def test_take_bytes_equals_repeated_next_key_byte():
    state = seed(KeyMaterial(mu=3.97, x0=0.371, burn_in=7))
    bulk, bulk_state = take_bytes(state, 300)
    singles = bytearray()
    for _ in range(300):
        byte, state = next_key_byte(state)
        singles.append(byte)
    assert bulk == bytes(singles)
    assert bulk_state == state


def test_skip_identity_and_composition():
    state = KeystreamState(x=0.41, mu=3.81, n=0)
    assert skip(state, 0) == state
    assert skip(skip(state, 13), 29) == skip(state, 42)


def test_skip_one_matches_step_oracle():
    state = skip(KeystreamState(x=0.5250, mu=3.934, n=0), 1)
    assert state.x == 0.98104125
    assert state.n == 1


@pytest.mark.parametrize("count", [16383, 16384, 16385, 70001])
def test_skip_matches_float_loop_across_chunks(count):
    # the counts cross the 16384-state chunk edges of the keystream kernel
    mu, x = 3.934, 0.5250
    state = skip(KeystreamState(x=x, mu=mu, n=5), count)
    for _ in range(count):
        x = mu * (x * (1.0 - x))
    assert state == KeystreamState(x=x, mu=mu, n=5 + count)


@pytest.mark.parametrize("kernel", ["loaded", "python"])
def test_window_of_a_longer_draw_equals_a_draw_after_skip(monkeypatch, kernel):
    # Frame batches rely on this: key byte n is whitened with the absolute
    # count n, so a window depends only on where it starts.
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    state = seed(KeyMaterial(mu=3.934, x0=0.5250, burn_in=250))
    for i in (0, 1, 2, 15, 16, 300):
        for m in (1, 5, 8, 16, 17, 18, 64, 300):
            window, after = take_bytes(skip(state, 17 * i), m)
            whole, end = take_bytes(state, 17 * i + m)
            assert window == whole[17 * i:]
            assert after == end


def test_skip_rejects_negative():
    with pytest.raises(ValueError):
        skip(KeystreamState(x=0.5, mu=3.9, n=0), -1)


# ---------------------------------------------------------------- invariants


@pytest.mark.parametrize(
    "mu,x0",
    [
        (3.934, 0.5250),
        (math.nextafter(4.0, 0.0), math.nextafter(1.0, 0.0)),  # hex-key extremes
        (3.58, 0.123456789),
    ],
)
def test_trajectory_stays_in_open_interval(mu, x0):
    x = x0
    for _ in range(1_000_000):
        x = mu * (x * (1.0 - x))
        if not 0.0 < x < 1.0:
            pytest.fail(f"trajectory escaped (0,1): x={x!r} for mu={mu!r}, x0={x0!r}")


def test_density_is_biased_toward_attractor_endpoints():
    key = KeyMaterial(mu=3.934, x0=0.22101986, burn_in=1000)
    counts = keystream_histogram(key, 100_000, 100)
    ordered = sorted(counts)
    median = 0.5 * (ordered[49] + ordered[50])
    assert max(counts) >= 2 * median
    hi_bin = int(key.mu / 4.0 * 100)                       # 98
    lo_bin = int(key.mu * key.mu * (4.0 - key.mu) / 16.0 * 100)  # 6
    assert abs(int(counts.argmax()) - hi_bin) <= 1
    assert max(counts[lo_bin - 1 : lo_bin + 2]) >= 2 * median


def test_nearby_seeds_decorrelate_to_chance_agreement():
    base = 0.5250
    a, _ = take_bytes(seed(KeyMaterial(3.934, base, 1000)), 100_000)
    b, _ = take_bytes(seed(KeyMaterial(3.934, base + 1e-12, 1000)), 100_000)
    agreement = sum(x == y for x, y in zip(a, b)) / 100_000
    assert abs(agreement - 1.0 / 256.0) <= 0.05


@pytest.mark.parametrize("oracle", [False, True], ids=["kernel-in-use", "oracle"])
@settings(max_examples=100, deadline=None)
@given(mu=st.floats(3.57, 4.0, exclude_min=True, exclude_max=True), x0=st.floats(0.5, 1.0, exclude_max=True))
def test_twin_keys_give_the_same_keystream_and_ciphertext(oracle, mu, x0):
    """For x0 in [0.5, 1), 1 - x0 is exact and so is 1 - (1 - x0) (Sterbenz), so
    the keys (mu, x0) and (mu, 1 - x0) make the same first iterate, the same
    double, and encrypt every frame alike."""
    assume(x0 != 1.0 - 1.0 / mu)  # a fixed point is refused as a key
    twin = 1.0 - x0
    assert 1.0 - twin == x0
    frame = synthetic_gray(16, 8, 6.0, seed=12)
    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            mp.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
        for burn_in in (0, 1000):
            key, twin_key = KeyMaterial(mu, x0, burn_in), KeyMaterial(mu, twin, burn_in)
            assert take_bytes(seed(key), 256)[0] == take_bytes(seed(twin_key), 256)[0]
            assert encrypt_image(frame, key).data == encrypt_image(frame, twin_key).data


# ---------------------------------------------------------------- fork-join helper


# A task size at which `_concurrently` starts a helper.
LARGE = keystream._CONCURRENT_BYTES


def test_concurrently_returns_results_in_call_order():
    # The helper's calls finish after the calling thread's, and in turn.
    def after(seconds, value):
        return lambda: time.sleep(seconds) or value

    assert keystream._concurrently(LARGE, after(0, "a"), after(0.03, "b"), after(0.01, "c")) == ["a", "b", "c"]
    assert keystream._concurrently(LARGE, lambda: 1, lambda: 2) == [1, 2]


def test_concurrently_runs_the_first_call_here_and_the_others_on_one_helper():
    idents = [None] * 3

    def call(i):
        def record():
            idents[i] = threading.get_ident()
        return record

    keystream._concurrently(LARGE, call(0), call(1), call(2))
    assert idents[0] == threading.get_ident()
    assert idents[1] == idents[2] != idents[0]


@pytest.mark.parametrize("size, calls", [(LARGE - 1, 3), (LARGE, 1), (LARGE, 0)],
                         ids=["below-the-rule", "one-call", "no-calls"])
def test_concurrently_runs_a_small_task_or_one_call_here_in_turn(monkeypatch, size, calls):
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(keystream, "threading", SimpleNamespace(Thread=no_thread))
    idents = []
    assert keystream._concurrently(size, *(lambda i=i: idents.append(threading.get_ident()) or i
                                           for i in range(calls))) == list(range(calls))
    assert idents == [threading.get_ident()] * calls


@pytest.mark.parametrize("failing", [[0, 2], [1, 2], [1], [2], [0, 1]])
def test_concurrently_raises_the_first_failure_in_call_order(failing):
    # The calling thread's failure is raised even when a helper's call fails
    # sooner, and calls after a failed one still run.
    ran = []

    def call(i):
        def run():
            time.sleep(0.02 if i == 0 else 0)
            ran.append(i)
            if i in failing:
                raise KeyError(i)
            return i
        return run

    with pytest.raises(KeyError) as info:
        keystream._concurrently(LARGE, call(0), call(1), call(2))
    assert info.value.args == (min(failing),)
    assert sorted(ran) == [0, 1, 2]


@pytest.mark.parametrize("error", [ValueError("here"), KeyboardInterrupt()], ids=["error", "interrupt"])
def test_concurrently_joins_its_helper_when_this_threads_call_raises(error):
    threads, done = threading.active_count(), []

    def slow():
        time.sleep(0.05)
        done.append(True)

    def fail():
        raise error

    with pytest.raises(type(error)):
        keystream._concurrently(LARGE, fail, slow)
    assert done == [True]
    assert threading.active_count() == threads


def test_concurrently_loads_the_kernel_on_the_calling_thread(monkeypatch):
    loaded, original = [], keystream._loaded
    monkeypatch.setattr(keystream, "_loaded", lambda: loaded.append(threading.get_ident()) or original())
    keystream._concurrently(LARGE, lambda: None, lambda: None)
    assert loaded == [threading.get_ident()]
