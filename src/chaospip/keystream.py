"""Chaotic keystream generation from the 1-D logistic map.

The map x -> mu * x * (1 - x) is iterated in binary64 with a fixed
three-operation evaluation order (t = 1 - x, u = x * t, result = mu * u),
so trajectories are reproducible bit for bit on any IEEE-754 platform.
Key byte n is extracted from the fresh state as floor(x * 256), the first
8 bits of the binary fraction, XOR-ed with the low byte of the iterate
counter n. The counter whitening matters: the map's stationary density
piles up near the attractor endpoints (see `analysis.keystream_histogram`),
which skews the raw fraction bits badly (the most significant one comes up
1 about 63% of the time near mu = 3.934), and XOR-ing such biased bytes
into an image leaves measurable plaintext correlation in the ciphertext.
The cycling counter balances every bit position without touching
determinism, seed sensitivity, or the cipher's involution.

Every reader of map states (`skip`, `take_bytes`,
`analysis.keystream_histogram`) goes through one kernel of three
operations: advance the state, make key bytes, or count states into
histogram bins. There are two kernels. The pure-Python one reads states
from `_orbit`, the single Python definition of the recurrence, and
extracts bytes or bins with numpy, which is exact: numpy's binary64
multiply and truncation of positive values match Python's. It is the
oracle. The native one is the C loop in `_kernel.c`, compiled on first use
with `cc -O2 -ffp-contract=off -shared -fPIC` into a per-user cache
directory and loaded through ctypes. It must match the oracle bit for bit,
so the compiler may not change a single rounding: `-ffp-contract=off`
forbids fused multiply-adds, which round once where Python rounds twice,
and `-ffast-math`, `-march=native` and any other flag that lets the
compiler reassociate or change precision are never used.
A short probe against the oracle guards each load. If the library cannot
be built, loaded or agree with the probe, the oracle runs instead;
`BACKEND` names the kernel in use ("native" or "python").

The C loop needs x in [0, 1], mu in [0, 4] and counts below 2**63, and
these hold by construction: `KeystreamState` refuses other states, the
binary64 map keeps [0, 1] invariant for such mu, and every reader of map
states refuses larger counts, which no kernel could finish anyway.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import stat
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import FixedPointError, ParseError, RangeError

# Chaotic band of the logistic map. Below ~3.57 (the period-doubling
# accumulation point) orbits are periodic; at 4.0 the open interval (0,1)
# is no longer invariant. Both bounds are excluded.
MU_MIN = 3.57
MU_MAX = 4.0

# Iterations discarded before the first key byte, so the state settles
# onto the attractor before any of it leaks into the keystream.
DEFAULT_BURN_IN = 1000

_TWO_128 = 2.0**128

# Most states `_orbit` holds at once, so memory stays bounded for any count.
_CHUNK = 16384


@dataclass(frozen=True)
class KeyMaterial:
    """Cipher key: control parameter, initial state, burn-in count."""

    mu: float
    x0: float
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if not MU_MIN < self.mu < MU_MAX:
            raise RangeError(
                f"mu must lie in the open interval ({MU_MIN}, {MU_MAX}), got {self.mu!r}"
            )
        if not 0.0 < self.x0 < 1.0:
            raise RangeError(f"x0 must lie in the open interval (0, 1), got {self.x0!r}")
        if self.x0 == 1.0 - 1.0 / self.mu:
            raise FixedPointError(
                f"x0 = 1 - 1/mu = {self.x0!r} is a fixed point and would yield a constant keystream"
            )
        if not 0 <= self.burn_in < 2**63:
            raise RangeError(f"burn_in must lie in [0, 2**63), got {self.burn_in!r}")


@dataclass(frozen=True)
class KeystreamState:
    """Current map state plus the number of iterates applied so far.

    States are plain values: advancing returns a new state, so a state can
    be handed between execution contexts but never mutates under anyone.
    Only x in [0, 1] and mu in [0, 4] are states (NaN is neither); the map
    never leaves that domain, and the native kernel relies on it.
    """

    x: float
    mu: float
    n: int = 0

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.mu <= 4.0):
            raise RangeError(
                f"a state needs 0 <= x <= 1 and 0 <= mu <= 4, got x={self.x!r}, mu={self.mu!r}"
            )


def _orbit(x: float, mu: float, count: int) -> Iterator[list[float]]:
    """The `count` map states after `x`, as lists of <= _CHUNK floats.

    The parentheses fix the evaluation order t = 1-x, u = x*t, mu*u, which
    keeps trajectories bit-exact; do not reassociate them.
    """
    while count > 0:
        size = min(count, _CHUNK)
        yield [x := mu * (x * (1.0 - x)) for _ in range(size)]
        count -= size


def logistic_step(x: float, mu: float) -> float:
    """One map iterate, evaluated exactly as t = 1-x, u = x*t, mu*u."""
    return next(_orbit(x, mu, 1))[0]


def _parse_decimal(text: str, name: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ParseError(f"{name} is not a decimal number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{name} must be finite, got {text!r}")
    return value


def derive_key_from_params(mu: str, x0: str, burn_in: int = DEFAULT_BURN_IN) -> KeyMaterial:
    """Build a key from decimal strings (round-to-nearest binary64)."""
    return KeyMaterial(
        mu=_parse_decimal(mu, "mu"), x0=_parse_decimal(x0, "x0"), burn_in=int(burn_in)
    )


def derive_key_from_hex(key_hex: str) -> KeyMaterial:
    """Map a 256-bit hex key onto (mu, x0).

    The high 128 bits select mu = 3.9 + 0.1 * k1 / 2^128 and the low 128
    bits select x0 = (k2 + 1) / (2^128 + 2); both are evaluated in binary64
    after converting the integers to reals. At the extreme top of the key
    space the rounded results land exactly on the excluded endpoints
    (mu = 4.0, x0 = 1.0), so they are pulled back by one ulp to keep every
    64-digit key valid.
    """
    if len(key_hex) != 64 or not all(c in string.hexdigits for c in key_hex):
        raise ParseError("key must be exactly 64 hex digits")
    k1 = int(key_hex[:32], 16)
    k2 = int(key_hex[32:], 16)
    mu = 3.9 + 0.1 * (float(k1) / _TWO_128)
    x0 = (float(k2) + 1.0) / (_TWO_128 + 2.0)
    if mu >= MU_MAX:
        mu = math.nextafter(MU_MAX, 0.0)
    if x0 >= 1.0:
        x0 = math.nextafter(1.0, 0.0)
    if x0 == 1.0 - 1.0 / mu:
        x0 = math.nextafter(x0, 0.0)
    return KeyMaterial(mu=mu, x0=x0, burn_in=DEFAULT_BURN_IN)


def seed(key: KeyMaterial) -> KeystreamState:
    """Fresh generator state for `key`, with its burn-in already applied."""
    return skip(KeystreamState(x=key.x0, mu=key.mu, n=0), key.burn_in)


def next_key_byte(state: KeystreamState) -> tuple[int, KeystreamState]:
    """Advance one iterate, then extract the whitened key byte.

    The byte is floor(x * 256) of the advanced state (clamped to 255,
    unreachable while x stays below 1), XOR-ed with the low byte of the
    pre-advance iterate count. Advancing first means the seed itself never
    appears in the keystream.
    """
    key, state = take_bytes(state, 1)
    return key[0], state


def _check_count(count: int) -> None:
    """Refuse counts outside [0, 2**63): C counts iterates in int64, and
    ctypes wraps larger integers without an error."""
    if not 0 <= operator.index(count) < 2**63:
        raise ValueError(f"count must lie in [0, 2**63), got {count!r}")


def skip(state: KeystreamState, count: int) -> KeystreamState:
    """State after `count` extra iterates (burn-in, frame offsets)."""
    _check_count(count)
    x = _loaded().advance(state.x, state.mu, count)
    return KeystreamState(x=x, mu=state.mu, n=state.n + count)


def take_bytes(state: KeystreamState, count: int) -> tuple[bytes, KeystreamState]:
    """`count` key bytes at once; identical to `count` next_key_byte calls."""
    _check_count(count)
    keys, x = _loaded().bytes(state.x, state.mu, state.n & 0xFF, count)
    return keys, KeystreamState(x=x, mu=state.mu, n=state.n + count)


# ---------------------------------------------------------------- kernels


def _py_advance(x: float, mu: float, count: int) -> float:
    for states in _orbit(x, mu, count):
        x = states[-1]
    return x


def _py_bytes(x: float, mu: float, low: int, count: int) -> tuple[bytes, float]:
    out = np.empty(count, dtype=np.uint8)
    pos = 0
    for states in _orbit(x, mu, count):
        # Rebinding frees the list before `_orbit` builds the next one.
        x, states = states[-1], np.fromiter(states, np.float64, len(states))
        end = pos + len(states)
        raw = np.minimum((states * 256.0).astype(np.int64), 255)
        out[pos:end] = raw ^ ((np.arange(pos, end) + low) & 0xFF)
        pos = end
    return out.tobytes(), x


def _py_bins(x: float, mu: float, count: int, bins: int) -> tuple[np.ndarray, float]:
    counts = np.zeros(bins, dtype=np.int64)
    for states in _orbit(x, mu, count):
        x, states = states[-1], np.fromiter(states, np.float64, len(states))
        counts += np.bincount(np.minimum((states * bins).astype(np.int64), bins - 1), minlength=bins)
    return counts, x


class _Kernel(NamedTuple):
    """The three operations on map states; each returns the last state.

    advance(x, mu, count); bytes(x, mu, low, count) -> (keys, x), key byte i
    whitened with (low + i) & 0xFF; bins(x, mu, count, bins) -> (int64 counts,
    x). Callers pass a `KeystreamState`'s x and mu and a count below 2**63.
    """

    name: str
    advance: Callable[[float, float, int], float]
    bytes: Callable[[float, float, int, int], tuple[bytes, float]]
    bins: Callable[[float, float, int, int], tuple[np.ndarray, float]]


_PYTHON = _Kernel("python", _py_advance, _py_bytes, _py_bins)


def _native_kernel(lib) -> _Kernel:
    """The C functions of `lib` behind the `_Kernel` interface."""
    import ctypes

    def bytes_(x, mu, low, count):
        # numpy allocates, as in the oracle: a bytearray or create_string_buffer
        # changed glibc's heap reuse and slowed repeated 1080p calls by 8-40%.
        out = np.empty(count, dtype=np.uint8)
        x = lib.chaospip_bytes(x, mu, low, count, (ctypes.c_char * count).from_buffer(out))
        return out.tobytes(), x

    def bins(x, mu, count, bins):
        if bins < 1:  # C writes counts[bins - 1]
            raise ValueError(f"bins must be >= 1, got {bins!r}")
        counts = np.zeros(bins, dtype=np.int64)
        x = lib.chaospip_bins(x, mu, count, bins, counts.ctypes.data)
        return counts, x

    return _Kernel("native", lib.chaospip_advance, bytes_, bins)


_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _cache_dirs() -> Iterator[Path]:
    # Relative bases (or an unresolved "~") are skipped, as XDG asks.
    for base in (os.environ.get("XDG_CACHE_HOME", ""), os.path.expanduser("~/.cache")):
        if os.path.isabs(base):
            yield Path(base, "chaospip")
    import tempfile

    yield Path(tempfile.gettempdir(), f"chaospip-{os.getuid()}")


def _cache_dir() -> Path:
    """The first candidate directory that is ours, writable and not shared.

    A symlink is refused: in a sticky shared directory such as /tmp another
    user could create it first and repoint it after the check, but a real
    directory this user owns there cannot be swapped out.
    """
    for directory in _cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = directory.lstat()
        except OSError:
            continue
        if (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022
                and os.access(directory, os.W_OK)):
            return directory
    raise OSError("no private writable cache directory")


def _build(source: Path, target: Path) -> None:
    """Compile `source` to `target`, published whole with os.replace."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(["cc", *_FLAGS, "-o", tmp, str(source)], check=True, capture_output=True,
                       timeout=300)
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile {source.name}: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load_library():
    """The compiled kernel, built into the cache first if it is not there."""
    import ctypes
    import hashlib
    import sysconfig

    source = Path(__file__).with_name("_kernel.c")
    tag = hashlib.sha256(b"\0".join(
        [source.read_bytes(), " ".join(_FLAGS).encode(), sysconfig.get_platform().encode()]
    )).hexdigest()[:20]
    path = _cache_dir() / f"kernel-{tag}.so"
    if not path.exists():
        _build(source, path)
    lib = ctypes.CDLL(str(path))
    f64, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    for name, argtypes in [("chaospip_advance", [f64, f64, i64]),
                           ("chaospip_bytes", [f64, f64, i64, i64, ptr]),
                           ("chaospip_bins", [f64, f64, i64, i64, ptr])]:
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, f64
    return lib


def _agrees(kernel: _Kernel) -> bool:
    """Whether `kernel` reproduces the oracle on a short probe orbit.

    This catches a compiler that fuses or widens float operations in spite
    of the flags, which would change every keystream after a few iterates.
    """
    x, mu, count, bins = 0.4, 3.99, 1000, 97

    def probe(k: _Kernel):
        counts, end = k.bins(x, mu, count, bins)
        return k.advance(x, mu, count), k.bytes(x, mu, 7, count), counts.tolist(), end

    return probe(kernel) == probe(_PYTHON)


@functools.cache
def _loaded() -> _Kernel:
    """The native kernel, or the oracle when it fails to build, load or
    agree with the oracle."""
    if os.name != "posix":
        return _PYTHON
    try:
        kernel = _native_kernel(_load_library())
    except (OSError, AttributeError):  # AttributeError: a symbol is missing
        return _PYTHON
    return kernel if _agrees(kernel) else _PYTHON


def __getattr__(name: str):
    # BACKEND is looked up on first use, so importing this module builds nothing.
    if name == "BACKEND":
        return _loaded().name
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
