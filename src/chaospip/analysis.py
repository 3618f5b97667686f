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
    """int64 counts of each byte value 0..255; empty input gives all zeros.

    Raises ValueError for a non-integer dtype or a value outside 0..255.
    """
    values = _as_array(data).ravel()
    if values.dtype != np.uint8 and values.size:
        if values.dtype.kind not in "iu" or values.min() < 0 or values.max() > 255:
            raise ValueError(f"histogram256 needs byte values 0..255, got {values.dtype} data")
    # np.bincount refuses uint64 under safe casting; byte values fit uint8.
    counts = np.bincount(values.astype(np.uint8, copy=False), minlength=256)
    return counts.astype(np.int64, copy=False)


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

    Summation contract: the result is bit for bit what converting both
    planes to float64 with `astype`, centring each on its `mean()` and
    taking `sum()` of the three products gives, as long as both planes
    have the same memory order. Elements are read in the order of `a`'s
    float64 copy (axes by decreasing stride; `keystream._moments`). Two
    uint8 planes are summed by the kernel's moments operation, which
    follows numpy's pairwise tree over that order with no plane-sized
    float64 temporary; the byte counts it also takes are not used here.
    Any other pair, mixed dtypes included, goes to its oracle,
    `keystream._py_moments`, which is the reference itself on flat float64
    copies. If `b` is laid out differently, its sums take `a`'s order and
    may differ from that reference in the last bits.
    """
    a = _as_array(a)
    b = _as_array(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"plane shapes differ: {a.shape} vs {b.shape}")
    if not a.size:
        raise EmptyInput("correlation of empty planes is undefined")
    order = sorted(range(a.ndim), key=lambda i: (-abs(a.strides[i]), i))
    fa = a.transpose(order).reshape(-1)  # views unless the layout needs a copy
    fb = b.transpose(order).reshape(-1)
    if fa.dtype == fb.dtype == np.uint8:
        return _pearson(keystream._moments(fa, fb)[0])
    return _pearson(keystream._py_moments(fa, fb))


def _pearson(moments: tuple[float, float, float, float, float]) -> float:
    """The correlation coefficient of `keystream._moments`' sums."""
    _sa, _sb, sxx, syy, sxy = moments
    den = float(np.sqrt(sxx * syy))
    if den == 0.0:
        raise DegenerateInput("correlation is undefined for a constant plane")
    return float(sxy / den)


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
    keystream._check_count(iterations)  # before the burn-in runs
    return keystream._bins(keystream.seed(key), iterations, bins)[0]


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
    """Metrics between a plain frame and its encrypted counterpart.

    Each channel's plain and cipher planes go through one kernel pass,
    `keystream._moments`, which gives both planes' byte counts
    and the moments of their correlation: the same histograms as
    `histogram256` and the same coefficient as `corr2d`, bit for bit.
    Raises DegenerateInput if any plane is constant.
    """
    if plain.shape != cipher.shape:
        raise DimensionMismatch(f"frame shapes differ: {plain.shape} vs {cipher.shape}")
    # Zero-copy plane views and one kernel pass per channel. counts[c] holds
    # channel c's plain and cipher histograms, and the whole-frame counts
    # are their exact integer sum: a gray frame's one array as it is.
    pv = np.frombuffer(plain.data, np.uint8).reshape(plain.channels, -1)
    cv = np.frombuffer(cipher.data, np.uint8).reshape(plain.channels, -1)
    moments, counts = zip(*map(keystream._moments, pv, cv))
    corrs = [_pearson(sums) for sums in moments]
    whole = sum(counts[1:], counts[0])
    # A gray frame's entropies are the whole-frame ones below, so
    # per-channel metrics are built for RGB only.
    per = None
    if plain.channels == 3:
        per = [
            ChannelMetrics(
                entropy_plain=entropy_of_counts(hp),
                entropy_cipher=entropy_of_counts(hc),
                corr=corr,
            )
            for (hp, hc), corr in zip(counts, corrs)
        ]
    # One tuple of 256 counts per channel, for each side.
    hist_plain, hist_cipher = zip(*(map(tuple, c.tolist()) for c in counts))
    return MetricsReport(
        entropy_plain=entropy_of_counts(whole[0]),
        entropy_cipher=entropy_of_counts(whole[1]),
        corr=float(np.add.reduce(corrs)) / len(corrs),  # np.mean, without its Python overhead
        channels=per,
        hist_plain=hist_plain,
        hist_cipher=hist_cipher,
    )
