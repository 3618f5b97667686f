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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaospip import keystream, write_pnm
from chaospip.analysis import keystream_histogram
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

    def chaospip_advance(self, x, mu, count):
        self.calls.append(count)
        return x / 2.0

    def chaospip_bytes(self, x, mu, low, count, out):
        self.calls.append((low, count))
        return x / 2.0

    def chaospip_bins(self, x, mu, count, bins, addr):
        self.calls.append((count, bins))
        return x / 2.0


@pytest.fixture
def counting_lib(monkeypatch) -> CountingLib:
    lib = CountingLib()
    monkeypatch.setattr(keystream, "_loaded", lambda: keystream._native_kernel(lib))
    return lib


def test_largest_skip_is_one_kernel_call(counting_lib):
    state = skip(KeystreamState(x=0.4, mu=3.9, n=7), 2**63 - 1)
    assert counting_lib.calls == [2**63 - 1]
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


def test_map_keeps_the_domain_near_the_peak():
    # Just below 0.5, 1 - x = 0.5 + k * 2**-54 rounds on a tie for odd k and
    # may round up, so x * (1 - x) can exceed 0.25 before its own rounding.
    for mu in (4.0, math.nextafter(4.0, 0.0)):
        for k in range(5000):
            assert_one_step_stays_in_domain(0.5 - k * 2**-54, mu)
            assert_one_step_stays_in_domain(0.5 + k * 2**-53, mu)


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
