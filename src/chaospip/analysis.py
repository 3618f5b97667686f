"""Statistical evaluation of plain/encrypted data.

Histograms, Shannon entropy over the 256 byte values, the 2-D (Pearson)
correlation coefficient between pixel planes, key-sensitivity
correlation, and the raw-map value histogram that exposes the logistic
map's density bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import keystream
from .cipher import Frame, encrypt_image
from .errors import DegenerateInput, DimensionMismatch, EmptyInput
from .keystream import KeyMaterial


def _as_array(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(data, dtype=np.uint8)
    return np.asarray(data)


def histogram256(data) -> np.ndarray:
    """Counts of each byte value 0..255; empty input gives all zeros.

    Raises ValueError for a non-integer dtype or a value outside 0..255.
    """
    values = _as_array(data).ravel()
    if values.dtype != np.uint8 and values.size:
        if values.dtype.kind not in "iu" or values.min() < 0 or values.max() > 255:
            raise ValueError(f"histogram256 needs byte values 0..255, got {values.dtype} data")
    return np.bincount(values.astype(np.uint8, copy=False), minlength=256).astype(np.int64)


def entropy_of_counts(counts) -> float:
    """Shannon entropy in bits of a histogram; 0*log(0) taken as 0."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        raise EmptyInput("entropy of an empty histogram is undefined")
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def shannon_entropy(data) -> float:
    """Entropy of a byte sequence, in [0, 8] bits."""
    return entropy_of_counts(histogram256(data))


def corr2d(a, b) -> float:
    """Pearson correlation between two equal-shape pixel planes.

    Matches the usual 2-D correlation coefficient: sums run over every
    pixel, means and products in binary64. Byte strings are compared as
    flat planes by length.
    """
    a = _as_array(a).astype(np.float64)
    b = _as_array(b).astype(np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"plane shapes differ: {a.shape} vs {b.shape}")
    a -= a.mean()  # astype made fresh copies, so centring in place is safe
    b -= b.mean()
    den = float(np.sqrt((a * a).sum() * (b * b).sum()))
    if den == 0.0:
        raise DegenerateInput("correlation is undefined for a constant plane")
    return float((a * b).sum() / den)


def key_sensitivity(frame: Frame, key_a: KeyMaterial, key_b: KeyMaterial) -> float:
    """Correlation between the two encryptions of `frame` under each key.

    Per-channel correlations are averaged for RGB frames.
    """
    ca = encrypt_image(frame, key_a)
    cb = encrypt_image(frame, key_b)
    rs = [corr2d(ca.plane(c), cb.plane(c)) for c in range(frame.channels)]
    return float(np.mean(rs))


def keystream_histogram(key: KeyMaterial, iterations: int, bins: int) -> np.ndarray:
    """Histogram of raw map values (no byte extraction) after burn-in.

    `iterations` post-burn-in values are binned uniformly over [0, 1];
    the counts sum to `iterations`.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins!r}")
    if iterations < bins:
        raise ValueError(f"iterations ({iterations!r}) must be >= bins ({bins!r})")
    keystream._check_count(iterations)
    counts, _x = keystream._loaded().bins(keystream.seed(key).x, key.mu, iterations, bins)
    return counts


@dataclass(frozen=True)
class ChannelMetrics:
    """Per-channel slice of a plain/cipher comparison."""

    entropy_plain: float
    entropy_cipher: float
    corr: float


@dataclass(frozen=True)
class MetricsReport:
    """Plain/cipher comparison: entropies, their correlation, histograms.

    For RGB frames `corr` is the mean of the per-channel coefficients and
    `channels` carries the per-channel breakdown; for grayscale frames
    `channels` is None. `hist_plain` and `hist_cipher` hold one tuple of
    256 byte-value counts per channel, the histograms the entropies come
    from.
    """

    entropy_plain: float
    entropy_cipher: float
    corr: float
    channels: Optional[list[ChannelMetrics]] = None
    hist_plain: tuple[tuple[int, ...], ...] = field(default=(), repr=False)
    hist_cipher: tuple[tuple[int, ...], ...] = field(default=(), repr=False)


def compare_frames(plain: Frame, cipher: Frame) -> MetricsReport:
    """Metrics between a plain frame and its encrypted counterpart."""
    if plain.shape != cipher.shape:
        raise DimensionMismatch(f"frame shapes differ: {plain.shape} vs {cipher.shape}")
    # Zero-copy plane views; one histogram per plane, and the whole-frame
    # counts are their exact integer sum.
    pv = np.frombuffer(plain.data, np.uint8).reshape(plain.channels, -1)
    cv = np.frombuffer(cipher.data, np.uint8).reshape(plain.channels, -1)
    hp = [histogram256(plane) for plane in pv]
    hc = [histogram256(plane) for plane in cv]
    per = [
        ChannelMetrics(
            entropy_plain=entropy_of_counts(hp[c]),
            entropy_cipher=entropy_of_counts(hc[c]),
            corr=corr2d(pv[c], cv[c]),
        )
        for c in range(plain.channels)
    ]
    return MetricsReport(
        entropy_plain=entropy_of_counts(sum(hp)),
        entropy_cipher=entropy_of_counts(sum(hc)),
        corr=float(np.mean([m.corr for m in per])),
        channels=per if plain.channels == 3 else None,
        hist_plain=tuple(tuple(h.tolist()) for h in hp),
        hist_cipher=tuple(tuple(h.tolist()) for h in hc),
    )
