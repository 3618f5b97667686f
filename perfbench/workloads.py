"""Seeded inputs, command lines and expected outputs for each workload.

Every workload drives the same four commands (encrypt, decrypt, analyze,
keystream-hist) so that each end-to-end metric exists on each workload;
what differs is the input shape, which decides the layer that dominates.
The key comes from `derive_key_from_hex` on seeded bytes, the pixels from
smooth synthetic fields (gratings plus 1/f noise, like tests/synthimg.py)
so that analyze sees image-like statistics. The program only ever sees
the files written here.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import reference
from chaospip import derive_key_from_hex

KEYHIST_N = 1_000_000
KEYHIST_BINS = 100
# Video workloads analyze their first frames, stacked into one tall gray
# image, up to this many bytes; the whole video would make analyze's
# float64 temporaries, not the cipher, set the process's peak memory.
ANALYZE_VIDEO_BYTES = 128_000
HEAD_BYTES = 4096  # ciphertext prefix checked against tests/refcipher.py

# Shapes only; why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "image-rgb-1080p": dict(width=1920, height=1080, channels=3, frames=1, per_frame=False),
    "video-perframe-8x8": dict(width=8, height=8, channels=1, frames=2000, per_frame=True),
    "video-continuous-qvga": dict(width=320, height=240, channels=1, frames=64, per_frame=False),
}


@dataclass
class Op:
    """One timed command with what its output must be."""

    metric: str
    argv: list[str]
    units: float  # plaintext bytes, or map iterates for keystream-hist
    out: Path
    expect_digest: Optional[str] = None
    ranges: list[tuple[int, int]] = field(default_factory=list)  # (offset, length)
    expect_ranges: list[str] = field(default_factory=list)
    expect_report: Optional[tuple[dict, dict]] = None

    def job(self) -> dict:
        return {
            "metric": self.metric, "argv": self.argv, "units": self.units,
            "out": str(self.out), "ranges": self.ranges,
            "text": self.expect_report is not None,
        }


@dataclass
class Plan:
    ops: list[Op]
    warmup: list[list[str]]

    def digests(self) -> dict:
        """The output digests that pinned.json records for a seed."""
        ops = {op.metric: op for op in self.ops}
        return {"container": ops["encrypt_mb_s"].expect_digest,
                "keyhist": ops["keyhist_miter_s"].expect_digest}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def smooth_plane(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """A photograph-like uint8 plane: low-frequency gratings plus 1/f noise."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    plane = np.zeros((height, width))
    for _ in range(4):
        fx, fy = rng.uniform(0.5, 4.0, 2)
        phx, phy = rng.uniform(0, 2 * np.pi, 2)
        plane += rng.uniform(0.4, 1.0) * np.cos(2 * np.pi * fx * xx / width + phx) * np.cos(
            2 * np.pi * fy * yy / height + phy)
    spectrum = np.fft.rfft2(rng.standard_normal((height, width)))
    spectrum /= (0.02 + np.hypot(np.fft.fftfreq(height)[:, None], np.fft.rfftfreq(width)[None, :])) ** 1.5
    noise = np.fft.irfft2(spectrum, s=(height, width))
    plane += 1.2 * noise / noise.std()
    plane -= plane.min()
    return np.round(plane * (255.0 / plane.max())).astype(np.uint8)


def panning_video(rng: np.random.Generator, width: int, height: int, frames: int) -> bytes:
    """Frames cropped from one smooth field along a slow wrapping pan."""
    big_w, big_h = 2 * width + 64, 2 * height + 64
    scene = smooth_plane(rng, big_w, big_h)
    dx, dy = (int(v) for v in rng.integers(1, 4, 2))
    crops = []
    for t in range(frames):
        x, y = (t * dx) % (big_w - width), (t * dy) % (big_h - height)
        crops.append(scene[y:y + height, x:x + width])
    return np.stack(crops).tobytes()


def pnm(width: int, height: int, channels: int, planar: bytes) -> bytes:
    """Binary PGM/PPM of a planar payload (PPM interleaves the channels)."""
    magic = b"P5" if channels == 1 else b"P6"
    data = np.frombuffer(planar, dtype=np.uint8).reshape(channels, height, width)
    return magic + b"\n%d %d\n255\n" % (width, height) + data.transpose(1, 2, 0).tobytes()


def build(name: str, seed: int, work: Path, refcipher) -> Plan:
    """Write the workload's inputs under `work` and return its timed commands."""
    spec = WORKLOADS[name]
    w, h, c, frames, per_frame = (spec[k] for k in ("width", "height", "channels", "frames", "per_frame"))
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    key = derive_key_from_hex(rng.bytes(32).hex())
    mu, x0, burn_in = key.mu, key.x0, key.burn_in
    key_args = ["--mu", repr(mu), "--x0", repr(x0)]
    frame_bytes = w * h * c

    if frames == 1:
        payload = b"".join(smooth_plane(rng, w, h).tobytes() for _ in range(c))
        plain_in = work / "plain.pnm"
        plain_in.write_bytes(pnm(w, h, c, payload))
        enc_args = ["--in", str(plain_in)]
    else:
        payload = panning_video(rng, w, h, frames)
        plain_in = work / "plain.raw"
        plain_in.write_bytes(payload)
        enc_args = ["--in", str(plain_in), "--width", str(w), "--height", str(h),
                    "--channels", str(c)]
    if per_frame:
        enc_args += ["--reseed", "per-frame"]

    box = reference.container(payload, w, h, c, frames, per_frame, mu, x0, burn_in)
    ref_box = work / "reference.cpip"
    ref_box.write_bytes(box)

    # Ciphertext slices checked against the straight-line reference cipher:
    # the first bytes of a continuous stream, or frames 0, 1 and the last
    # one of a per-frame stream, each seeded at burn_in + 17 * index.
    header = reference.HEADER.size
    if per_frame:
        checked = sorted({0, 1, frames - 1})
        ranges = [(header + i * frame_bytes, frame_bytes) for i in checked]
        burn_ins = [burn_in + reference.PER_FRAME_STRIDE * i for i in checked]
    else:
        ranges = [(header, min(HEAD_BYTES, frame_bytes))]
        burn_ins = [burn_in]
    expect_ranges = [
        sha256(refcipher.reference_transform(payload[off - header:off - header + n], mu, x0, b))
        for (off, n), b in zip(ranges, burn_ins)
    ]

    if frames == 1:
        analyze_plain, analyze_cipher = plain_in, ref_box
        plain_part, cipher_part = payload, box[header:]
    else:
        # Video frames are gray, so stacking them gives a valid tall plane.
        k = min(frames, max(1, ANALYZE_VIDEO_BYTES // frame_bytes))
        plain_part, cipher_part = payload[:k * frame_bytes], box[header:header + k * frame_bytes]
        analyze_plain, analyze_cipher = work / "stack.pgm", work / "stack-cipher.pgm"
        analyze_plain.write_bytes(pnm(w, h * k, c, plain_part))
        analyze_cipher.write_bytes(pnm(w, h * k, c, cipher_part))

    csv = reference.keystream_hist_csv(mu, x0, burn_in, KEYHIST_N, KEYHIST_BINS)
    dec_out = work / ("decrypted" + plain_in.suffix)
    ops = [
        Op("encrypt_mb_s", ["encrypt", *enc_args, "--out", str(work / "out.cpip"), *key_args],
           len(payload), work / "out.cpip", sha256(box), ranges, expect_ranges),
        Op("decrypt_mb_s", ["decrypt", "--in", str(ref_box), "--out", str(dec_out), *key_args]
           + (["--as-pnm"] if frames == 1 else []),
           len(payload), dec_out, sha256(plain_in.read_bytes())),
        Op("analyze_mb_s", ["analyze", "--plain", str(analyze_plain), "--cipher",
                            str(analyze_cipher), "--report", str(work / "report.txt")],
           len(plain_part), work / "report.txt",
           expect_report=reference.analysis_report(plain_part, cipher_part, c)),
        Op("keyhist_miter_s", ["keystream-hist", *key_args, "--n", str(KEYHIST_N), "--bins",
                               str(KEYHIST_BINS), "--out", str(work / "hist.csv")],
           burn_in + KEYHIST_N, work / "hist.csv", sha256(csv.encode())),
    ]

    tiny = work / "tiny.ppm"
    tiny.write_bytes(pnm(8, 8, 3, rng.integers(0, 256, 192, dtype=np.uint8).tobytes()))
    tiny_box = str(work / "tiny.cpip")
    warmup = [
        ["encrypt", "--in", str(tiny), "--out", tiny_box, *key_args],
        ["decrypt", "--in", tiny_box, "--out", str(work / "tiny-out.ppm"), "--as-pnm", *key_args],
        ["analyze", "--plain", str(tiny), "--cipher", tiny_box, "--report", str(work / "tiny.txt")],
        ["keystream-hist", *key_args, "--n", "1000", "--bins", "10", "--out", str(work / "tiny.csv")],
    ]
    return Plan(ops, warmup)
