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

`_orbit` is the single definition of the recurrence; every other reader
of map states (`skip`, `take_bytes`, `analysis.keystream_histogram`) takes
them from it and extracts bytes or bins with numpy, which is exact: numpy's
binary64 multiply and truncation of positive values match Python's.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Iterator

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
        if self.burn_in < 0:
            raise RangeError(f"burn_in must be >= 0, got {self.burn_in!r}")


@dataclass(frozen=True)
class KeystreamState:
    """Current map state plus the number of iterates applied so far.

    States are plain values: advancing returns a new state, so a state can
    be handed between execution contexts but never mutates under anyone.
    """

    x: float
    mu: float
    n: int = 0


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


def skip(state: KeystreamState, count: int) -> KeystreamState:
    """State after `count` extra iterates (burn-in, frame offsets)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    x = state.x
    for states in _orbit(x, state.mu, count):
        x = states[-1]
    return KeystreamState(x=x, mu=state.mu, n=state.n + count)


def take_bytes(state: KeystreamState, count: int) -> tuple[bytes, KeystreamState]:
    """`count` key bytes at once; identical to `count` next_key_byte calls."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    out = np.empty(count, dtype=np.uint8)
    x, pos, low = state.x, 0, state.n & 0xFF
    for states in _orbit(x, state.mu, count):
        # Rebinding frees the list before `_orbit` builds the next one.
        x, states = states[-1], np.fromiter(states, np.float64, len(states))
        end = pos + len(states)
        raw = np.minimum((states * 256.0).astype(np.int64), 255)
        out[pos:end] = raw ^ ((np.arange(pos, end) + low) & 0xFF)
        pos = end
    return out.tobytes(), KeystreamState(x=x, mu=state.mu, n=state.n + count)
