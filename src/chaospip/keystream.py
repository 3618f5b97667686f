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

The package's loops run in one kernel of four operations. Every reader
of map states (`skip`, `take_bytes`, `analysis.keystream_histogram`) uses
the first two: make key bytes, or count states into histogram bins. `skip`
counts into a single bin and keeps only the last state. The third, `_mask`,
is integer-only: it XORs frames with bit-transposed windows of a drawn
keystream, the cipher's block transform. The fourth, `_moments`, serves
all byte-plane analysis: one pass over two byte planes gives their sums
and centred second moments, bit for bit as numpy sums them, and counts
both planes' byte values. `analysis.compare_frames` takes a channel's two
histograms and its correlation from one call, and `analysis.corr2d` uses
the same pass and ignores the counts. There are two kernels. The
pure-Python one reads states from `_orbit`, the single Python definition
of the recurrence, and extracts bytes or bins with numpy, which is exact:
numpy's binary64 multiply and truncation of positive values match
Python's. It masks with `_py_transpose8` over strided windows and takes
moments as numpy's literal sums of float64 copies (`_py_moments`) and
counts as `np.bincount`. It is the oracle. The native one, `_kernel.c`, is
compiled on first use with `cc -O2 -ffp-contract=off -shared -fPIC` into a
per-user cache directory and loaded through ctypes. Both kernels write
their key bytes and masks, and `io` its PNM conversions, straight into
new bytes objects from `_new_bytes`, so a frame-sized result is never
copied out of a numpy buffer. Every bytes-like input is read through
`_view`, one flat memoryview of its bytes. The native kernel must match
the oracle bit for bit, so the compiler may not change a single rounding:
`-ffp-contract=off` forbids fused multiply-adds, which round once where
Python rounds twice, and `-ffast-math`, `-march=native` and any other flag
that lets the compiler reassociate or change precision are never used. A
short probe against the oracle, masks and moments with their byte counts
included, guards each load. If the library cannot be built, loaded or
agree with the probe, the oracle runs instead; `BACKEND` names the kernel
in use ("native" or "python"). The native moments copy numpy's pairwise
summation order, so a numpy release that changes that order fails the
probe, and the oracle, numpy itself, runs instead.

The C loops need x in [0, 1], mu in [0, 4] and counts below 2**63, and
these hold by construction: `KeystreamState` refuses other states, the
binary64 map keeps [0, 1] invariant for such mu, and readers of map states
refuse larger counts. Sizes become Python ints (`_check_count`, `_windows`)
before any arithmetic, so no numpy type wraps them. The mask loop indexes
its buffers unchecked; `_mask` refuses any geometry they do not fit, and
`_moments` hands C only two contiguous byte arrays of one length, and a
(2, 256) int64 array it made for the counts.

The kernel's operations keep no shared state: each reads its arguments and
writes only buffers it made. So work may run on a helper thread, and one
size rule, `_helped` (`_CONCURRENT_BYTES`), decides when, in two forms.
`_concurrently` runs independent calls: `compare_frames` hands it an RGB
pair's channel passes, and the CLI's `analyze` its two reads. `_pipeline`
runs a stream: the frame loop (`cipher._transform`) draws and masks on the
calling thread while the helper makes the loop's next input and writes its
last output (the CLI's `encrypt` and `decrypt` of an input file the rule
passes; `process_stream` stays on one thread). One key's keystream is a
serial chain, each state made from the one before, so no helper can share
the draw; it can only take the other work off the calling thread. Helpers
run private code only, so every public function runs on the calling
thread, and one helper runs at a time.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import math
import numbers
import operator
import os
import queue
import stat
import string
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def _real(value, name: str) -> float:
    """`value` as a Python float, so both kernels iterate it in binary64: a
    numpy float32 would run the oracle in single precision."""
    if isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):  # an int or Fraction past binary64
            return float(value)
    raise RangeError(f"{name} must be a real number that a float can hold, got {value!r}")


def _natural(value, name: str) -> int:
    """`value` as a non-negative Python int, which never wraps as a numpy integer can."""
    try:
        value = operator.index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise RangeError(f"{name} must not be negative, got {value!r}")
    return value


@dataclass(frozen=True)
class KeyMaterial:
    """Cipher key: control parameter, initial state, burn-in count."""

    mu: float
    x0: float
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        object.__setattr__(self, "mu", _real(self.mu, "mu"))
        object.__setattr__(self, "x0", _real(self.x0, "x0"))
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
        object.__setattr__(self, "burn_in", _natural(self.burn_in, "burn_in"))
        if self.burn_in >= 2**63:
            raise RangeError(f"burn_in must lie in [0, 2**63), got {self.burn_in!r}")


@dataclass(frozen=True)
class KeystreamState:
    """Current map state plus the number of iterates applied so far.

    States are plain values: advancing returns a new state, so a state can
    be handed between execution contexts but never mutates under anyone.
    Only x in [0, 1] and mu in [0, 4] are states (NaN is neither); the map
    never leaves that domain, and the native kernel relies on it. x and mu
    are kept as Python floats and n as a non-negative Python int.
    """

    x: float
    mu: float
    n: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", _real(self.x, "x"))
        object.__setattr__(self, "mu", _real(self.mu, "mu"))
        object.__setattr__(self, "n", _natural(self.n, "n"))
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
    """One map iterate in binary64, evaluated exactly as t = 1-x, u = x*t, mu*u."""
    return next(_orbit(_real(x, "x"), _real(mu, "mu"), 1))[0]


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
    return KeyMaterial(mu=_parse_decimal(mu, "mu"), x0=_parse_decimal(x0, "x0"), burn_in=burn_in)


def derive_key_from_hex(key_hex: str) -> KeyMaterial:
    """Map a 256-bit hex key onto (mu, x0).

    The high 128 bits select mu = 3.9 + 0.1 * k1 / 2^128 and the low 128 bits
    select x0 = (k2 + 1) / (2^128 + 2); both are evaluated in binary64 after
    converting the integers to reals, where 2^128 + 2 rounds to 2^128, so
    the "+ 2" has no effect. At the extreme top of the key space the
    rounded results land exactly on the excluded endpoints (mu = 4.0,
    x0 = 1.0), so they are pulled back by one ulp to keep every 64-digit key valid.
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


def _check_count(count: int) -> int:
    """`count` as a Python int, refused outside [0, 2**63): C counts iterates
    in int64, and ctypes wraps larger integers without an error."""
    if not 0 <= (count := operator.index(count)) < 2**63:
        raise ValueError(f"count must lie in [0, 2**63), got {count!r}")
    return count


def skip(state: KeystreamState, count: int) -> KeystreamState:
    """State after `count` extra iterates (burn-in, frame offsets)."""
    return _bins(state, count, 1)[1]


def take_bytes(state: KeystreamState, count: int) -> tuple[bytes, KeystreamState]:
    """`count` key bytes at once; identical to `count` next_key_byte calls."""
    count = _check_count(count)
    keys, x = _loaded().bytes(state.x, state.mu, state.n & 0xFF, count)
    return keys, KeystreamState(x=x, mu=state.mu, n=state.n + count)


def _bins(state: KeystreamState, count: int, bins: int) -> tuple[np.ndarray, KeystreamState]:
    """Counts of the next `count` states in `bins` bins of [0, 1], and the state after."""
    count = _check_count(count)
    counts, x = _loaded().bins(state.x, state.mu, count, bins)
    return counts, KeystreamState(x=x, mu=state.mu, n=state.n + count)


def _windows(size: int, frame_bytes: int, stride: int) -> tuple[int, int, int, int]:
    """Python ints `frame_bytes`, `stride`, span and end of n = size // frame_bytes frames
    keyed `stride` apart: frame i by key[stride * i : stride * i + frame_bytes], so the
    windows span stride * (n - 1) + frame_bytes key bytes and frame n starts at stride * n.
    Refuses a `size` that is not n >= 1 whole frames, or a `stride` below 1."""
    frame_bytes, stride = operator.index(frame_bytes), operator.index(stride)
    if size < 1 or frame_bytes < 1 or size % frame_bytes or stride < 1:
        raise ValueError(f"cannot cut {size} bytes into frames of {frame_bytes} bytes "
                         f"keyed {stride} iterates apart")
    n = size // frame_bytes
    return frame_bytes, stride, stride * (n - 1) + frame_bytes, stride * n


def _mask(key, data, frame_bytes: int, stride: int) -> bytes:
    """`data` as n frames of `frame_bytes` bytes, frame i XOR-ed with the
    bit-transposed window key[stride * i : stride * i + frame_bytes].

    Full 8-byte blocks align to the frame's start; a partial tail is XOR-ed
    untransposed. `key` and `data` are bytes-like, and the geometry must
    hold exactly: `_windows` of len(data) must accept it, and len(key) must
    be its span, else C would read or write out of bounds.
    """
    key, data = np.frombuffer(key, dtype=np.uint8), np.frombuffer(data, dtype=np.uint8)
    frame_bytes, stride, span, _end = _windows(len(data), frame_bytes, stride)
    if len(key) != span:
        raise ValueError(f"frames {stride} apart need a key of {span} bytes, got {len(key)}")
    return _loaded().mask(key, data, frame_bytes, stride)


_Moments = tuple[float, float, float, float, float]


def _moments(a: np.ndarray, b: np.ndarray) -> tuple[_Moments, np.ndarray]:
    """(sa, sb, sxx, syy, sxy) of two equal-length, non-empty 1-D uint8
    arrays, and int64 counts[2, 256] of each byte value in `a` (row 0) and
    in `b` (row 1), from one kernel pass.

    sa and sb are the sums, ma = sa / n and mb = sb / n the means, and
    sxx, syy and sxy the sums of (a - ma)**2, (b - mb)**2 and
    (a - ma) * (b - mb), all in binary64 and bit for bit what numpy's
    `sum` gives on float64 copies: `_py_moments` is that formula, and it
    takes any other pair.
    """
    if a.ndim != 1 or a.shape != b.shape or not len(a):
        raise ValueError(f"cannot take moments of arrays shaped {a.shape} and {b.shape}")
    if not a.dtype == b.dtype == np.uint8:
        raise ValueError(f"cannot count {a.dtype} and {b.dtype} values as bytes")
    return _loaded().moments(np.ascontiguousarray(a), np.ascontiguousarray(b))


# The smallest task worth a helper thread in `_concurrently` and `_pipeline`: a thread
# costs 0.1-0.3 ms on a 2-vCPU Xeon, and analyze's passes and reads both gain from
# 1 MB up. video-perframe-8x8's 128 KB streams stay on one thread.
_CONCURRENT_BYTES = 1 << 20


def _helped(size: int) -> bool:
    """Whether a task of `size` bytes takes a helper thread: the one size rule."""
    return size >= _CONCURRENT_BYTES


def _join(helper: threading.Thread) -> None:
    """Join `helper`, and on Linux wait until its thread is gone. join()
    returns as the helper's Python code ends; glibc puts the thread's arena
    back for the next thread only as the thread exits, just after. A helper
    started before that gets a new arena, whose pages fault in afresh: on a
    2-vCPU guest, 4 of 14 runs of the command sequence of
    test_cli_calls_reuse_heap_pages_after_warm_up did so."""
    helper.join()
    task = f"/proc/self/task/{helper.native_id}"
    for _ in range(1000):  # a bound, should another thread take the id at once
        if not os.path.exists(task):
            break
        os.sched_yield()


def _concurrently(size: int, *calls: Callable[[], object]) -> list:
    """The results of `calls`, functions of no arguments, in call order. Two or more calls
    for a task of `size` bytes that `_helped` passes (the rule `_pipeline` and the CLI's
    `encrypt` and `decrypt` apply too) run the first here and the others in turn on one helper thread, joined before this
    returns or raises the first failure in call order; else all run here in turn. Helpers may
    run kernel operations, which keep no shared state; the kernel is loaded here first, as
    `functools.cache` has no lock. One helper at a time reuses its predecessor's glibc arena
    and pages, where two would fault in a second's."""
    if not _helped(size) or len(calls) < 2:
        return [call() for call in calls]
    _loaded()
    results, errors = [None] * len(calls), {}

    def run(indices) -> None:
        for i in indices:
            try:
                results[i] = calls[i]()
            except BaseException as exc:  # raised on the calling thread, after the join
                errors[i] = exc

    helper = threading.Thread(target=run, args=(range(1, len(calls)),))
    helper.start()
    try:
        run([0])
    finally:
        _join(helper)
    if errors:
        raise errors[min(errors)]
    return results


# Items `_pipeline`'s helper reads ahead of the transform: the next one is
# ready when the transform asks for it, and few are held at once. The
# calling thread also holds this many of its results that the sink may
# still be using.
_AHEAD = 2
_END, _STOP = object(), object()  # what the transform hands the helper last


class _Stopped(Exception):
    """Raised into a pipeline's sink when its transform failed, so that it publishes nothing."""


def _pipeline(size: int, source: Iterable, transform: Callable[[Iterator], Iterator],
              sink: Callable[[Iterator], object]):
    """sink(transform(source)), where `transform` gives one item out per item in.

    For a task of `size` bytes that `_helped` passes, `transform` runs here
    and `source` and `sink` on one helper thread, which reads _AHEAD items
    ahead of the transform and gives the sink each result once it is made.
    Else all runs here, one item through at a time. Both run the same code
    on each item in the same order, and raise the same failure: the
    helper's if it failed first (this thread then stops at the next item),
    else the transform's, with `_Stopped` raised into the sink. The helper
    is joined before this returns or raises, and the kernel is loaded here
    first, as in `_concurrently`.

    Each result is freed here, at a fixed point of the transform: this
    thread keeps it until the sink has asked for the item _AHEAD results
    later. Freed on the helper, as soon as the sink let it go, a result
    went back to this thread's heap at a point that depended on timing,
    which left that heap's free space in a layout that the next command's
    buffers sometimes outgrew (test_cli_calls_reuse_heap_pages_after_warm_up).
    """
    if not _helped(size):
        return sink(transform(source))
    _loaded()
    inbox, outbox, spent, done, failed = (queue.SimpleQueue(), queue.SimpleQueue(), queue.SimpleQueue(),
                                          [], [])

    def fed() -> Iterator:  # the sink's items, with the source read ahead
        items = iter(source)
        for _ in range(_AHEAD):
            inbox.put(next(items, _END))
        while (item := outbox.get()) is not _END:
            if item is _STOP:
                raise _Stopped("the transform failed")
            inbox.put(next(items, _END))
            yield item
            del item  # so that the calling thread's reference is the last
            spent.put(None)

    def serve() -> None:
        try:
            done.append(sink(fed()))
        except BaseException as exc:  # raised on the calling thread, after the join
            failed.append(exc)
        finally:
            inbox.put(_END)  # the transform may wait for an item
            spent.put(_END)  # or for the sink to let a result go

    def taken() -> Iterator:
        while (item := inbox.get()) is not _END:
            yield item

    helper = threading.Thread(target=serve)
    helper.start()
    last, held, served = _STOP, collections.deque(), True
    try:
        for item in transform(taken()):
            outbox.put(item)
            held.append(item)
            if len(held) > _AHEAD:
                served = served and spent.get() is not _END
                held.popleft()
        last = _END
    finally:
        outbox.put(last)
        _join(helper)
    if failed:
        raise failed[0]
    return done[0]


# ---------------------------------------------------------------- kernels


def _py_bytes(x: float, mu: float, low: int, count: int) -> tuple[bytes, float]:
    out, view = _new_array(count)
    pos = 0
    for states in _orbit(x, mu, count):
        # Rebinding frees the list before `_orbit` builds the next one.
        x, states = states[-1], np.fromiter(states, np.float64, len(states))
        end = pos + len(states)
        raw = np.minimum((states * 256.0).astype(np.int64), 255)
        view[pos:end] = raw ^ ((np.arange(pos, end) + low) & 0xFF)
        pos = end
    return out, x


def _py_bins(x: float, mu: float, count: int, bins: int) -> tuple[np.ndarray, float]:
    counts = np.zeros(bins, dtype=np.int64)
    for states in _orbit(x, mu, count):
        x, states = states[-1], np.fromiter(states, np.float64, len(states))
        counts += np.bincount(np.minimum((states * bins).astype(np.int64), bins - 1), minlength=bins)
    return counts, x


# Hacker's Delight transpose8: three masked swaps exchange the 1x1, 2x2 and
# 4x4 sub-blocks across the diagonal.
_SWAPS = [(np.uint64(shift), np.uint64(mask)) for shift, mask in
          ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))]


def _py_transpose8(blocks: np.ndarray) -> np.ndarray:
    """Bit-transpose every 8-byte block of a contiguous uint8 array (`cipher`'s layout).

    Each block is read as one big-endian uint64, so pixel i is byte i from
    the top and bit j of a pixel sits at position 8*(7-i) + (7-j).
    """
    x = blocks.view(">u8").astype(np.uint64)
    for shift, mask in _SWAPS:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x.astype(">u8").view(np.uint8)


def _py_mask(key: np.ndarray, data: np.ndarray, frame_bytes: int, stride: int) -> bytes:
    n = len(data) // frame_bytes
    # Row i is key[stride * i : stride * i + frame_bytes]; the last row ends at
    # len(key). This is sliding_window_view(...)[::stride] without its checks,
    # which cost about 15 us a call (4% of a 320x240 frame on a 2-core Xeon).
    windows = as_strided(key, (n, frame_bytes), (stride, 1), writeable=False)
    full = frame_bytes - frame_bytes % 8
    transposed = _py_transpose8(np.ascontiguousarray(windows[:, :full]))
    out, view = _new_array(len(data))  # after the transpose: before it, 1080p peaks 6 MB higher
    data, view = data.reshape(n, frame_bytes), view.reshape(n, frame_bytes)
    np.bitwise_xor(data[:, :full], transposed, out=view[:, :full])
    np.bitwise_xor(data[:, full:], windows[:, full:], out=view[:, full:])
    return out


def _py_moments(a: np.ndarray, b: np.ndarray) -> _Moments:
    """`_moments`' sums of two equal-length, non-empty 1-D arrays of any dtype.

    This is the reference `analysis.corr2d` states, literally: numpy's own
    sums of float64 copies, each centred in place on its mean, and of their
    products. It holds at most three array-sized float64 arrays at once.
    """
    n = len(a)
    # Copy, then centre in place: under numpy 1.x value-based casting,
    # uint8 data minus a float64 scalar would compute in float16.
    x, y = a.astype(np.float64), b.astype(np.float64)
    sa, sb = np.add.reduce(x), np.add.reduce(y)
    x -= sa / n  # float64, as ndarray.mean divides
    y -= sb / n
    sxy = np.add.reduce(x * y)
    # np.square gives the same products as x * x, with no new array.
    sxx, syy = np.add.reduce(np.square(x, out=x)), np.add.reduce(np.square(y, out=y))
    return tuple(float(v) for v in (sa, sb, sxx, syy, sxy))


def _py_counted_moments(a: np.ndarray, b: np.ndarray) -> tuple[_Moments, np.ndarray]:
    # The counts first: made after `_py_moments`' array-sized temporaries, the
    # count array could lie in a heap above them, and a later call's
    # temporaries, not fitting where they did, would take fresh pages.
    counts = np.array([np.bincount(a, minlength=256), np.bincount(b, minlength=256)], dtype=np.int64)
    return _py_moments(a, b), counts


class _Kernel(NamedTuple):
    """The four operations; the two on map states return the last state.

    bytes(x, mu, low, count) -> (keys, x), key byte i whitened with
    (low + i) & 0xFF; bins(x, mu, count, bins) -> (int64 counts, x).
    Callers pass a `KeystreamState`'s x and mu and a count below 2**63.
    mask(key, data, frame_bytes, stride) -> bytes is `_mask` on uint8
    arrays whose geometry `_mask` has checked. moments(a, b) -> (sums,
    counts) is `_moments` of two contiguous, equal-length, non-empty 1-D
    uint8 arrays: the five sums as Python floats, and a new int64 array of
    shape (2, 256) with the byte counts of `a` and `b`. Its oracle is
    numpy's own sums (`_py_moments`) and `np.bincount`, so the load probe
    checks the native moments against numpy itself.
    """

    name: str
    bytes: Callable[[float, float, int, int], tuple[bytes, float]]
    bins: Callable[[float, float, int, int], tuple[np.ndarray, float]]
    mask: Callable[[np.ndarray, np.ndarray, int, int], bytes]
    moments: Callable[[np.ndarray, np.ndarray], tuple[_Moments, np.ndarray]]


_PYTHON = _Kernel("python", _py_bytes, _py_bins, _py_mask, _py_counted_moments)


@functools.cache
def _bytes_api():
    """CPython's PyBytes_FromStringAndSize and PyBytes_AsString, as private
    ctypes functions (`pythonapi[name]` makes a new one, so no other user's
    argtypes are touched)."""
    make, data = ctypes.pythonapi["PyBytes_FromStringAndSize"], ctypes.pythonapi["PyBytes_AsString"]
    make.argtypes, make.restype = [ctypes.c_void_p, ctypes.c_ssize_t], ctypes.py_object
    data.argtypes, data.restype = [ctypes.py_object], ctypes.c_void_p
    return make, data


def _new_bytes(size: int) -> tuple[bytes, int]:
    """A new bytes object of `size` bytes, not yet filled, and the address of its data.

    CPython lets the creator of PyBytes_FromStringAndSize(NULL, size) write
    its data until the object is shared, so a frame-sized result is built
    once in its final bytes, with no buffer to copy it out of. Every result
    buffer of the package comes from here. The caller fills all `size`
    bytes before any other code sees the object, and never writes to it
    after.
    """
    make, data = _bytes_api()
    out = make(None, size)
    return out, data(out)


def _new_array(size: int) -> tuple[bytes, np.ndarray]:
    """`_new_bytes`, with a writable uint8 array over the data for numpy to
    fill; the array does not keep the bytes alive. The native kernel takes
    the bare address: the array costs about 2 us a call (2-core Xeon), 3-6%
    of a native call on a 64 KiB batch."""
    out, address = _new_bytes(size)
    return out, np.frombuffer((ctypes.c_char * size).from_address(address), dtype=np.uint8)


def _view(data) -> memoryview:
    """`data`, any bytes-like object, as a flat, C-contiguous memoryview of unsigned
    bytes. Lengths count bytes, whatever the item format; a strided view is copied once."""
    if not (view := memoryview(data)).ndim:  # a numpy scalar is a number, as an int is
        raise TypeError(f"memoryview: a bytes-like object is required, not {type(data).__name__!r}")
    return (view if view.c_contiguous else memoryview(view.tobytes())).cast("B")


def _native_kernel(lib) -> _Kernel:
    """The C functions of `lib` behind the `_Kernel` interface."""

    def bytes_(x, mu, low, count):
        out, address = _new_bytes(count)
        return out, lib.chaospip_bytes(x, mu, low, count, address)

    def bins(x, mu, count, bins):
        if bins < 1:  # C writes counts[bins - 1]
            raise ValueError(f"bins must be >= 1, got {bins!r}")
        counts = np.zeros(bins, dtype=np.int64)
        x = lib.chaospip_bins(x, mu, count, bins, counts.ctypes.data)
        return counts, x

    def mask(key, data, frame_bytes, stride):
        out, address = _new_bytes(len(data))
        lib.chaospip_mask(key.ctypes.data, data.ctypes.data, len(data) // frame_bytes, frame_bytes,
                          stride, address)
        return out

    def moments(a, b):
        out, counts = np.empty(5), np.empty((2, 256), dtype=np.int64)
        lib.chaospip_moments(a.ctypes.data, b.ctypes.data, len(a), out.ctypes.data,
                             counts.ctypes.data)
        return tuple(out.tolist()), counts

    return _Kernel("native", bytes_, bins, mask, moments)


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


@contextlib.contextmanager
def _publish(target) -> Iterator[str]:
    """A fresh sibling of `target` for the block to create (O_EXCL), renamed over `target`
    if the block succeeds and removed if it fails, so no part-written file is published."""
    head, name = os.path.split(os.fspath(target))  # a Path adds ~15 us to a CLI call (2-vCPU Xeon)
    while len(os.fsencode(name)) > 238:  # the 17-byte suffix must fit NAME_MAX, commonly 255
        name = name[:-1]  # whole characters, so a UTF-8 name stays valid
    tmp = os.path.join(head, f"{name}.{os.urandom(6).hex()}.tmp")
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


_BUILD_SECONDS = 300  # a compile that runs longer is killed


def _build(source: Path, target: Path) -> None:
    """Compile `source` to `target`, published whole by `_publish`."""
    import subprocess

    with _publish(target) as tmp:
        try:
            subprocess.run(["cc", *_FLAGS, "-o", tmp, source], check=True, capture_output=True,
                           timeout=_BUILD_SECONDS)
        except subprocess.SubprocessError as exc:
            raise OSError(f"cannot compile {source.name}: {exc}") from exc


_SOURCE = Path(__file__).with_name("_kernel.c")


def _library_path() -> Path:
    """Where the kernel built from this `_kernel.c` with `_FLAGS` on this
    platform is cached."""
    import hashlib
    import sysconfig

    tag = hashlib.sha256(b"\0".join(
        [_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), sysconfig.get_platform().encode()]
    )).hexdigest()[:20]
    return _cache_dir() / f"kernel-{tag}.so"


def _load_library():
    """The compiled kernel, built into the cache first if it is not there."""
    path = _library_path()
    if not path.exists():
        # A build killed mid-compile leaves its `_publish` sibling; one older than the
        # compile timeout belongs to no running build.
        for sibling in path.parent.glob(f"{path.name}.*.tmp"):
            with contextlib.suppress(OSError):
                if sibling.lstat().st_mtime < time.time() - _BUILD_SECONDS:
                    sibling.unlink()
        _build(_SOURCE, path)
    lib = ctypes.CDLL(str(path))
    f64, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    for name, argtypes, restype in [("chaospip_bytes", [f64, f64, i64, i64, ptr], f64),
                                    ("chaospip_bins", [f64, f64, i64, i64, ptr], f64),
                                    ("chaospip_mask", [ptr, ptr, i64, i64, i64, ptr], None),
                                    ("chaospip_moments", [ptr, ptr, i64, ptr, ptr], None)]:
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def _agrees(kernel: _Kernel) -> bool:
    """Whether `kernel` reproduces the oracle on a short probe orbit, its
    mask on overlapping windows, windows with gaps and partial tails, and
    its moments and byte counts of pairs of 999 and of 7 bytes, bit for
    bit.

    This catches a compiler that fuses or widens float operations in spite
    of the flags, which would change every keystream after a few iterates,
    a mask that reads blocks in the wrong byte order or gets a two-block
    step, the one-block step after it or the tail wrong, moments summed in
    another order than numpy's (the tree splits 999 terms down to parts of
    64 to 128, one of them 71, a block of 64 and a tail of 7) and counts
    that drop such a tail or swap the two planes.
    """
    x, mu, count, bins = 0.4, 3.99, 1000, 97
    # (frame_bytes, stride, n): overlap with a tail, a gap with a tail, no tail,
    # and overlap with two two-block steps, a one-block step and a tail.
    geometries = [(21, 17, 5), (13, 20, 4), (24, 24, 3), (43, 37, 3)]

    def probe(k: _Kernel):
        counts, end = k.bins(x, mu, count, bins)
        keys, _ = k.bytes(x, mu, 7, count)
        key = np.frombuffer(keys, dtype=np.uint8)
        masks = [k.mask(key[:_windows(size * n, size, stride)[2]], key[::-1][:size * n].copy(),
                        size, stride) for size, stride, n in geometries]
        moments = []
        for n in (8, 1000):  # plane b differs from a in its counts, too
            sums, pair_counts = k.moments(key[1:n], key[1:n][::-1] >> 1)
            moments += [[v.hex() for v in sums], pair_counts.tolist()]
        return keys, counts.tolist(), end, masks, moments

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
