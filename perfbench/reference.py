"""Expected outputs, computed without the package under test.

Everything here follows the cipher's specification directly: the
logistic-map key bytes from a plain float loop, the transpose/XOR/
transpose block transform with numpy bit unpacking, the container header
from its documented layout, and the analysis values from exact integer
sums. The benchmark compares every timed command's output against these.
"""

from __future__ import annotations

import math
import struct

import numpy as np

PER_FRAME_STRIDE = 17
HEADER = struct.Struct(">4sBBBBIII")
_CHUNK = 1 << 20  # bytes per transform step, bounds the bit-array memory


def key_bytes(mu: float, x0: float, start: int, count: int) -> np.ndarray:
    """Whitened key bytes for absolute iterate indices start .. start+count-1."""
    x = x0
    for _ in range(start):
        x = mu * (x * (1.0 - x))
    out = bytearray(count)
    for i in range(count):
        x = mu * (x * (1.0 - x))
        b = int(x * 256.0)
        out[i] = (b if b < 256 else 255) ^ ((start + i) & 0xFF)
    return np.frombuffer(bytes(out), dtype=np.uint8)


def _transpose(blocks: np.ndarray) -> np.ndarray:
    bits = np.unpackbits(blocks.reshape(-1, 8), axis=1).reshape(-1, 8, 8)
    return np.packbits(bits.transpose(0, 2, 1).reshape(-1, 64), axis=1).ravel()


def transform(data: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Transpose, XOR and transpose each full 8-byte block; XOR the tail."""
    out = data ^ keys
    full = len(data) - len(data) % 8
    for lo in range(0, full, _CHUNK):
        hi = min(lo + _CHUNK, full)
        out[lo:hi] = _transpose(_transpose(data[lo:hi]) ^ keys[lo:hi])
    return out


def container(payload: bytes, width: int, height: int, channels: int,
              frames: int, per_frame: bool, mu: float, x0: float, burn_in: int) -> bytes:
    """The full container the encrypt command must write."""
    frame_bytes = width * height * channels
    data = np.frombuffer(payload, dtype=np.uint8)
    if per_frame:
        stream = key_bytes(mu, x0, burn_in, PER_FRAME_STRIDE * (frames - 1) + frame_bytes)
        offsets = [PER_FRAME_STRIDE * i for i in range(frames)]
    else:
        stream = key_bytes(mu, x0, burn_in, frames * frame_bytes)
        offsets = [frame_bytes * i for i in range(frames)]
    parts = [
        transform(data[i * frame_bytes:(i + 1) * frame_bytes], stream[o:o + frame_bytes])
        for i, o in enumerate(offsets)
    ]
    mode = (1 if channels == 3 else 0) + (2 if frames > 1 else 0)
    header = HEADER.pack(b"CPIP", 1, mode, int(per_frame), 0, width, height, frames)
    return header + np.concatenate(parts).tobytes()


def keystream_hist_csv(mu: float, x0: float, burn_in: int, n: int, bins: int) -> str:
    """The CSV the keystream-hist command must write."""
    x = x0
    for _ in range(burn_in):
        x = mu * (x * (1.0 - x))
    counts = [0] * bins
    top = bins - 1
    for _ in range(n):
        x = mu * (x * (1.0 - x))
        idx = int(x * bins)
        counts[min(idx, top)] += 1
    return "\n".join(f"{i / bins!r},{(i + 1) / bins!r},{c}" for i, c in enumerate(counts)) + "\n"


def _entropy(counts: np.ndarray) -> float:
    total = int(counts.sum())
    return -math.fsum(c / total * math.log2(c / total) for c in counts.tolist() if c)


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation from exact integer moments."""
    n = a.size
    a = a.astype(np.int64)
    b = b.astype(np.int64)
    sa, sb = int(a.sum()), int(b.sum())
    num = n * int((a * b).sum()) - sa * sb
    va = n * int((a * a).sum()) - sa * sa
    vb = n * int((b * b).sum()) - sb * sb
    return num / math.sqrt(va * vb)


def analysis_report(plain: bytes, cipher: bytes, channels: int) -> tuple[dict, dict]:
    """Histograms and key=value floats the analyze report must contain.

    Returns ({(label, channel): [(value, count), ...]}, {key: float}).
    """
    p = np.frombuffer(plain, dtype=np.uint8).reshape(channels, -1)
    c = np.frombuffer(cipher, dtype=np.uint8).reshape(channels, -1)
    hists = {}
    for label, planes in (("plain", p), ("cipher", c)):
        for ch in range(channels):
            counts = np.bincount(planes[ch], minlength=256).tolist()
            hists[(label, ch)] = list(enumerate(counts))
    corrs = [_corr(p[ch], c[ch]) for ch in range(channels)]
    values = {
        "entropy_plain": _entropy(np.bincount(p.ravel(), minlength=256)),
        "entropy_cipher": _entropy(np.bincount(c.ravel(), minlength=256)),
        "corr": math.fsum(corrs) / channels,
    }
    if channels == 3:
        for ch in range(channels):
            values[f"entropy_plain_ch{ch}"] = _entropy(np.bincount(p[ch], minlength=256))
            values[f"entropy_cipher_ch{ch}"] = _entropy(np.bincount(c[ch], minlength=256))
            values[f"corr_ch{ch}"] = corrs[ch]
    return hists, values


def parse_report(text: str) -> tuple[dict, dict]:
    """Split an analyze report into histograms and key=value floats."""
    hists: dict = {}
    values: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# histogram "):
            _, _, label, _, ch = line.split()
            current = hists.setdefault((label, int(ch)), [])
        elif "=" in line:
            key, value = line.split("=", 1)
            values[key] = float(value)
        else:
            value, count = line.split(",")
            current.append((int(value), int(count)))
    return hists, values
