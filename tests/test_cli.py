import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaospip import (
    Frame,
    KeyMaterial,
    ReseedMode,
    container_mode_for,
    corr2d,
    derive_key_from_hex,
    derive_key_from_params,
    encrypt_image,
    histogram256,
    read_container,
    read_pnm,
    write_container,
    write_pnm,
)
from chaospip import analysis, cli, keystream
from chaospip.cli import run

from synthimg import synthetic_gray, synthetic_rgb
from test_io_properties import _frames, _mutants

KEY_FLAGS = ["--mu", "3.934", "--x0", "0.5250", "--burn-in", "50"]


def write_test_pgm(path, seed=60, width=32, height=24):
    frame = synthetic_gray(width, height, 7.0, seed=seed)
    path.write_bytes(write_pnm(frame))
    return frame


# ---------------------------------------------------------------- keygen


def test_keygen_from_hex_prints_parseable_key(capsys):
    hex_key = "00112233445566778899aabbccddeeff" * 2
    assert run(["keygen", "--from-hex", hex_key]) == 0
    out = capsys.readouterr().out
    match = re.fullmatch(r"mu=(\S+) x0=(\S+) burn_in=(\d+)\n", out)
    assert match
    expected = derive_key_from_hex(hex_key)
    reparsed = derive_key_from_params(match[1], match[2], int(match[3]))
    assert reparsed == expected


def test_keygen_random_yields_valid_key(capsys):
    assert run(["keygen", "--random"]) == 0
    out = capsys.readouterr().out
    match = re.fullmatch(r"mu=(\S+) x0=(\S+) burn_in=(\d+)\n", out)
    key = derive_key_from_params(match[1], match[2], int(match[3]))
    assert 3.57 < key.mu < 4.0


def test_keygen_bad_hex_exits_3(capsys):
    assert run(["keygen", "--from-hex", "zz"]) == 3
    assert "key error" in capsys.readouterr().err


# ---------------------------------------------------------------- encrypt/decrypt


def test_encrypt_then_decrypt_round_trips_pgm(tmp_path, capsys):
    source = tmp_path / "plain.pgm"
    frame = write_test_pgm(source)
    container = tmp_path / "cipher.cpip"
    assert run(["encrypt", "--in", str(source), "--out", str(container), *KEY_FLAGS]) == 0

    blob = container.read_bytes()
    assert blob[:4] == b"CPIP"
    frames, mode, _reseed = read_container(blob)
    assert mode.name == "GRAY_IMAGE"
    assert frames[0].data != frame.data

    recovered = tmp_path / "back.pgm"
    assert run(["decrypt", "--in", str(container), "--out", str(recovered),
                "--as-pnm", *KEY_FLAGS]) == 0
    assert recovered.read_bytes() == source.read_bytes()


def test_decrypt_without_as_pnm_writes_raw_planes(tmp_path):
    source = tmp_path / "plain.pgm"
    frame = write_test_pgm(source, seed=61)
    container = tmp_path / "c.cpip"
    run(["encrypt", "--in", str(source), "--out", str(container), *KEY_FLAGS])
    raw = tmp_path / "back.raw"
    assert run(["decrypt", "--in", str(container), "--out", str(raw), *KEY_FLAGS]) == 0
    assert raw.read_bytes() == frame.data


def test_encrypt_as_pnm_exports_ciphertext_render(tmp_path):
    source = tmp_path / "plain.pgm"
    write_test_pgm(source, seed=62)
    container = tmp_path / "c.cpip"
    assert run(["encrypt", "--in", str(source), "--out", str(container),
                "--as-pnm", *KEY_FLAGS]) == 0
    render = tmp_path / "c.cpip.pgm"
    assert render.exists()
    frames, _, _ = read_container(container.read_bytes())
    assert read_pnm(render.read_bytes()) == frames[0]


def test_video_round_trip_per_frame_reseed(tmp_path):
    paths = []
    originals = []
    for i in range(3):
        p = tmp_path / f"frame-{i:06d}.pgm"
        originals.append(write_test_pgm(p, seed=70 + i, width=16, height=16))
        paths.append(str(p))
    container = tmp_path / "clip.cpip"
    assert run(["encrypt", "--in", *paths, "--out", str(container),
                "--reseed", "per-frame", *KEY_FLAGS]) == 0
    frames, mode, reseed = read_container(container.read_bytes())
    assert mode.name == "GRAY_VIDEO" and reseed.name == "PER_FRAME" and len(frames) == 3

    out_dir = tmp_path / "decoded"
    assert run(["decrypt", "--in", str(container), "--out", str(out_dir),
                "--as-pnm", *KEY_FLAGS]) == 0
    for i, original in enumerate(originals):
        recovered = read_pnm((out_dir / f"frame-{i:06d}.pgm").read_bytes())
        assert recovered == original


def test_raw_planar_video_input(tmp_path):
    rng = np.random.default_rng(74)
    frames = [rng.integers(0, 256, size=4 * 3, dtype=np.uint8).tobytes() for _ in range(2)]
    blob_path = tmp_path / "clip.raw"
    blob_path.write_bytes(b"".join(frames))
    container = tmp_path / "clip.cpip"
    assert run(["encrypt", "--in", str(blob_path), "--out", str(container),
                "--width", "4", "--height", "3", *KEY_FLAGS]) == 0
    parsed, mode, _ = read_container(container.read_bytes())
    assert mode.name == "GRAY_VIDEO" and len(parsed) == 2
    back = tmp_path / "back.raw"
    assert run(["decrypt", "--in", str(container), "--out", str(back), *KEY_FLAGS]) == 0
    assert back.read_bytes() == blob_path.read_bytes()


@pytest.mark.parametrize(
    "size,flags,extra_in",
    [
        (12, ["--width", "4"], False),                    # --width without --height
        (12, ["--width", "4", "--height", "3"], True),    # two --in paths
        (13, ["--width", "4", "--height", "3"], False),   # not a whole number of frames
        (12, ["--width", "0", "--height", "3"], False),   # zero width
        (12, ["--width", "-4", "--height", "3"], False),  # negative width
        (12, ["--width", "-4", "--height", "-3"], False), # negative product of both
    ],
)
def test_raw_input_mistakes_exit_2(tmp_path, size, flags, extra_in):
    blob_path = tmp_path / "clip.raw"
    blob_path.write_bytes(bytes(size))
    inputs = [str(blob_path)] * (2 if extra_in else 1)
    container = tmp_path / "clip.cpip"
    assert run(["encrypt", "--in", *inputs, "--out", str(container), *flags, *KEY_FLAGS]) == 2
    assert not container.exists()


def test_rgb_ppm_flow(tmp_path):
    frame = synthetic_rgb(16, 12, 7.0, seed=75)
    source = tmp_path / "plain.ppm"
    source.write_bytes(write_pnm(frame))
    container = tmp_path / "c.cpip"
    assert run(["encrypt", "--in", str(source), "--out", str(container), *KEY_FLAGS]) == 0
    _, mode, _ = read_container(container.read_bytes())
    assert mode.name == "RGB_IMAGE"
    recovered = tmp_path / "back.ppm"
    assert run(["decrypt", "--in", str(container), "--out", str(recovered),
                "--as-pnm", *KEY_FLAGS]) == 0
    assert recovered.read_bytes() == source.read_bytes()


def test_wrong_key_produces_decorrelated_noise(tmp_path):
    source = tmp_path / "plain.pgm"
    frame = write_test_pgm(source, seed=63, width=128, height=128)
    container = tmp_path / "c.cpip"
    run(["encrypt", "--in", str(source), "--out", str(container), *KEY_FLAGS])
    garbled = tmp_path / "garbled.pgm"
    # --x0 differs from the encryption key in the 12th decimal
    assert run(["decrypt", "--in", str(container), "--out", str(garbled), "--as-pnm",
                "--mu", "3.934", "--x0", "0.525000000001", "--burn-in", "50"]) == 0
    result = read_pnm(garbled.read_bytes())
    assert result.data != frame.data
    assert abs(corr2d(result.data, frame.data)) <= 0.05


def test_identical_invocations_are_bit_reproducible(tmp_path):
    source = tmp_path / "plain.pgm"
    write_test_pgm(source, seed=69)
    first, second = tmp_path / "a.cpip", tmp_path / "b.cpip"
    for out in (first, second):
        assert run(["encrypt", "--in", str(source), "--out", str(out), *KEY_FLAGS]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_outputs_carry_no_key_material(tmp_path, capsys):
    source = tmp_path / "plain.pgm"
    write_test_pgm(source, seed=71)
    container = tmp_path / "c.cpip"
    run(["encrypt", "--in", str(source), "--out", str(container), *KEY_FLAGS])
    assert b"3.934" not in container.read_bytes()
    assert b"0.5250" not in container.read_bytes()
    capsys.readouterr()
    run(["analyze", "--plain", str(source), "--cipher", str(container)])
    out = capsys.readouterr().out
    assert "3.934" not in out and "0.5250" not in out


# ---------------------------------------------------------------- analyze


def test_analyze_report_format_gray(tmp_path, capsys):
    plain_path = tmp_path / "plain.pgm"
    frame = write_test_pgm(plain_path, seed=64, width=64, height=64)
    container = tmp_path / "c.cpip"
    run(["encrypt", "--in", str(plain_path), "--out", str(container), *KEY_FLAGS])
    capsys.readouterr()

    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(container)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines.count("# histogram plain channel 0") == 1
    assert lines.count("# histogram cipher channel 0") == 1
    csv_rows = [l for l in lines if re.fullmatch(r"\d+,\d+", l)]
    assert len(csv_rows) == 2 * 256

    values = dict(l.split("=", 1) for l in lines if "=" in l)
    assert abs(float(values["entropy_plain"]) - 7.0) < 0.05  # generator target
    assert float(values["entropy_cipher"]) > 7.8
    assert abs(float(values["corr"])) < 0.2


def analyze_counting_passes(tmp_path, monkeypatch, frame):
    """Analyze `frame` against its encryption through the CLI, and return
    the report and the number of kernel moments passes, each of which
    counts both planes' bytes. `histogram256` and `corr2d` must not be
    called at all."""
    suffix = ".ppm" if frame.channels == 3 else ".pgm"
    plain_path = tmp_path / f"plain{suffix}"
    plain_path.write_bytes(write_pnm(frame))
    cipher = encrypt_image(frame, KeyMaterial(3.934, 0.5250, 50))
    cipher_path = tmp_path / f"cipher{suffix}"
    cipher_path.write_bytes(write_pnm(cipher))
    report_path = tmp_path / "report.txt"
    kernel, passes = keystream._loaded(), []

    def counting_moments(a, b):
        passes.append(len(a))
        return kernel.moments(a, b)

    def forbidden(*args):
        raise AssertionError("compare_frames reads its counts and moments from the kernel")

    monkeypatch.setattr(keystream, "_loaded", lambda: kernel._replace(moments=counting_moments))
    monkeypatch.setattr(analysis, "histogram256", forbidden)
    monkeypatch.setattr(analysis, "corr2d", forbidden)
    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(cipher_path),
                "--report", str(report_path)]) == 0
    return report_path.read_text(), cipher, len(passes)


def test_analyze_rgb_report_has_per_channel_lines(tmp_path, monkeypatch):
    frame = synthetic_rgb(24, 24, 7.0, seed=65)
    text, cipher, passes = analyze_counting_passes(tmp_path, monkeypatch, frame)
    assert passes == 3  # one pass per channel over its plain and cipher planes
    for c in range(3):
        assert f"# histogram plain channel {c}" in text
        assert f"entropy_cipher_ch{c}=" in text
        assert f"corr_ch{c}=" in text
    blocks = re.findall(r"# histogram (\w+) channel (\d)\n((?:\d+,\d+\n){256})", text)
    assert len(blocks) == 6
    for label, c, rows in blocks:
        source = frame if label == "plain" else cipher
        expected = "".join(f"{v},{n}\n" for v, n in enumerate(histogram256(source.plane(int(c)))))
        assert rows == expected


def test_analyze_gray_report_takes_one_counting_pass(tmp_path, monkeypatch):
    frame = synthetic_gray(61, 37, 7.0, seed=66)
    text, cipher, passes = analyze_counting_passes(tmp_path, monkeypatch, frame)
    assert passes == 1
    blocks = re.findall(r"# histogram (\w+) channel 0\n((?:\d+,\d+\n){256})", text)
    assert [label for label, _rows in blocks] == ["plain", "cipher"]
    for (_label, rows), source in zip(blocks, (frame, cipher)):
        assert rows == "".join(f"{v},{n}\n" for v, n in enumerate(histogram256(source.data)))
    assert "corr_ch0=" not in text


def test_analyze_full_size_image_reaches_target_entropy(tmp_path, capsys, table1_frames):
    frame, _source = table1_frames["lena"]
    plain_path = tmp_path / "lena.pgm"
    plain_path.write_bytes(write_pnm(frame))
    container = tmp_path / "lena.cpip"
    run(["encrypt", "--in", str(plain_path), "--out", str(container),
         "--mu", "3.934", "--x0", "0.5250"])
    capsys.readouterr()
    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(container)]) == 0
    values = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    assert float(values["entropy_cipher"]) >= 7.99
    assert abs(float(values["corr"])) <= 0.02


def test_analyze_rejects_mismatched_images(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    write_test_pgm(a, seed=66, width=8, height=8)
    b = tmp_path / "b.pgm"
    write_test_pgm(b, seed=67, width=9, height=8)
    assert run(["analyze", "--plain", str(a), "--cipher", str(b)]) == 2


# sha256 of the analyze report for synthetic_rgb(640, 480, 7.4, seed=5)
# under mu=3.934, x0=0.5250, pinned from the plane-sized float64 corr2d;
# numpy's pairwise tree splits each 307,200-pixel plane many times over.
GOLDEN_REPORT_SHA256 = "10a56a0cbe02ea24d7f354c476a21901b01c2588d824ff4f15304ba1205569d2"
# The same for synthetic_gray(512, 256, 7.2, seed=9), pinned from the report
# writer that built each histogram row with its own str and concatenation.
GOLDEN_GRAY_REPORT_SHA256 = "4ba80ea180aae4dc87b0ae5dd645db27a22efd23e27af7e052f766112599a06a"

KERNELS = [
    pytest.param("native", marks=pytest.mark.skipif(keystream.BACKEND != "native",
                                                     reason="native kernel not in use")),
    "python",
]


def assert_report_pinned(tmp_path, monkeypatch, kernel, frame, digest):
    # The oracle's report is checked on every host, not only on one without cc.
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    assert frame.width * frame.height >= 131_072
    plain_path = tmp_path / ("plain.ppm" if frame.channels == 3 else "plain.pgm")
    plain_path.write_bytes(write_pnm(frame))
    container = tmp_path / "c.cpip"
    assert run(["encrypt", "--in", str(plain_path), "--out", str(container),
                "--mu", "3.934", "--x0", "0.5250"]) == 0
    report_path = tmp_path / "report.txt"
    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(container),
                "--report", str(report_path)]) == 0
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == digest
    cipher = encrypt_image(frame, derive_key_from_params("3.934", "0.5250"))
    text = cli._format_report(analysis.compare_frames(frame, cipher))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("kernel", KERNELS)
def test_analyze_report_bytes_are_pinned(tmp_path, monkeypatch, kernel):
    assert_report_pinned(tmp_path, monkeypatch, kernel, synthetic_rgb(640, 480, 7.4, seed=5),
                         GOLDEN_REPORT_SHA256)


@pytest.mark.parametrize("kernel", KERNELS)
def test_analyze_gray_report_bytes_are_pinned(tmp_path, monkeypatch, kernel):
    assert_report_pinned(tmp_path, monkeypatch, kernel, synthetic_gray(512, 256, 7.2, seed=9),
                         GOLDEN_GRAY_REPORT_SHA256)


def reference_report(report):
    """The report text built row by row, as the writer did before it formatted
    each histogram block in one step."""
    lines = []
    for label, hists in (("plain", report.hist_plain), ("cipher", report.hist_cipher)):
        for c, counts in enumerate(hists):
            lines.append(f"# histogram {label} channel {c}")
            lines.extend(f"{value},{count}" for value, count in enumerate(counts))
    lines.append(f"entropy_plain={report.entropy_plain!r}")
    lines.append(f"entropy_cipher={report.entropy_cipher!r}")
    lines.append(f"corr={report.corr!r}")
    if report.channels is not None:
        for c, m in enumerate(report.channels):
            lines.append(f"entropy_plain_ch{c}={m.entropy_plain!r}")
            lines.append(f"entropy_cipher_ch{c}={m.entropy_cipher!r}")
            lines.append(f"corr_ch{c}={m.corr!r}")
    return "\n".join(lines) + "\n"


_metric = st.floats(allow_nan=False, allow_infinity=False)
_histogram = st.lists(st.integers(0, 2**45 - 1), min_size=256, max_size=256).map(tuple)


@st.composite
def metrics_reports(draw):
    channels = draw(st.sampled_from([1, 3]))
    per = None
    if channels == 3:
        per = [analysis.ChannelMetrics(draw(_metric), draw(_metric), draw(_metric))
               for _ in range(3)]
    return analysis.MetricsReport(
        entropy_plain=draw(_metric), entropy_cipher=draw(_metric), corr=draw(_metric),
        channels=per,
        hist_plain=tuple(draw(_histogram) for _ in range(channels)),
        hist_cipher=tuple(draw(_histogram) for _ in range(channels)),
    )


@example(analysis.MetricsReport(-0.0, 5e-324, -2.2250738585072014e-308, None,
                                ((2**45 - 1,) * 256,), ((0,) * 256,)))
@given(metrics_reports())
@settings(max_examples=150, deadline=None)
def test_format_report_matches_row_by_row_reference(report):
    assert cli._format_report(report) == reference_report(report)


def test_analyze_rejects_multi_frame_container(tmp_path):
    paths = []
    for i in range(2):
        p = tmp_path / f"f{i}.pgm"
        write_test_pgm(p, seed=72 + i, width=8, height=8)
        paths.append(str(p))
    container = tmp_path / "clip.cpip"
    run(["encrypt", "--in", *paths, "--out", str(container), *KEY_FLAGS])
    assert run(["analyze", "--plain", paths[0], "--cipher", str(container)]) == 2


# ---------------------------------------------------------------- keystream-hist


# sha256 of test_keystream_hist_csv's CSV, pinned from the writer that took
# the repr of each interior bin edge twice.
KEYSTREAM_HIST_CSV_SHA256 = "0818f3b693dc89cd8064e0e94c3c8b3a2b54a2b5bf58dac9966081dd5338fb67"


def test_keystream_hist_csv(tmp_path, monkeypatch):
    out = tmp_path / "hist.csv"
    argv = ["keystream-hist", "--mu", "3.934", "--x0", "0.22101986",
            "--burn-in", "1000", "--n", "5000", "--bins", "50", "--out", str(out)]
    assert run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == KEYSTREAM_HIST_CSV_SHA256
    monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)
    assert run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == KEYSTREAM_HIST_CSV_SHA256
    rows = out.read_text().splitlines()
    assert len(rows) == 50
    total = 0
    for i, row in enumerate(rows):
        low, high, count = row.split(",")
        assert float(low) == i / 50 and float(high) == (i + 1) / 50
        total += int(count)
    assert total == 5000


def test_keystream_hist_rejects_bad_shape(tmp_path):
    out = tmp_path / "hist.csv"
    assert run(["keystream-hist", "--mu", "3.934", "--x0", "0.5", "--n", "5",
                "--bins", "50", "--out", str(out)]) == 2


@pytest.mark.parametrize("n,bins", [("10", "0"), ("-1", "1")])
def test_keystream_hist_rejects_non_positive_sizes(tmp_path, n, bins):
    out = tmp_path / "hist.csv"
    assert run(["keystream-hist", "--mu", "3.934", "--x0", "0.5", "--n", n,
                "--bins", bins, "--out", str(out)]) == 2
    assert not out.exists()


def test_run_does_not_rebuild_the_parser(tmp_path, monkeypatch):
    def no_rebuild():
        raise AssertionError("run built a new parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    assert run(["keystream-hist", *KEY_FLAGS, "--n", "10", "--bins", "2",
                "--out", str(tmp_path / "hist.csv")]) == 0


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["encrypt", "--out", "x"]) == 1  # missing --in/--mu/--x0
    assert run([]) == 1
    assert capsys.readouterr().err.count("usage: chaospip") == 3


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "chaospip" in capsys.readouterr().out


def test_invalid_key_exits_3(tmp_path, capsys):
    source = tmp_path / "plain.pgm"
    write_test_pgm(source, seed=68)
    code = run(["encrypt", "--in", str(source), "--out", str(tmp_path / "c"),
                "--mu", "4.0", "--x0", "0.5"])
    assert code == 3


@pytest.mark.parametrize(
    "flags,code",
    [(["keystream-hist", "--n", str(2**63), "--bins", "50"], 2),
     (["encrypt", "--in", "plain.pgm", "--burn-in", str(2**63)], 3)],
    ids=["n", "burn-in"],
)
def test_counts_past_int64_exit_at_once(tmp_path, monkeypatch, flags, code):
    # No kernel could finish 2**63 iterates, so both must fail before one runs.
    monkeypatch.chdir(tmp_path)
    write_test_pgm(tmp_path / "plain.pgm", seed=69)
    assert run([*flags, "--mu", "3.934", "--x0", "0.5", "--out", "out"]) == code
    assert not (tmp_path / "out").exists()


def test_unallocatable_bins_exit_2_with_one_line(tmp_path, capsys):
    # 2**47 int64 counts are 1 PiB, beyond any address space, so the
    # allocation fails at once whatever the overcommit setting.
    out = tmp_path / "hist.csv"
    assert run(["keystream-hist", "--mu", "3.99", "--x0", "0.4", "--n", str(2**47),
                "--bins", str(2**47), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_missing_input_exits_2(tmp_path):
    assert run(["encrypt", "--in", str(tmp_path / "nope.pgm"),
                "--out", str(tmp_path / "c"), *KEY_FLAGS]) == 2


def test_not_a_container_exits_2(tmp_path):
    bogus = tmp_path / "bogus.cpip"
    bogus.write_bytes(b"NOPE" + bytes(32))
    assert run(["decrypt", "--in", str(bogus), "--out", str(tmp_path / "d"), *KEY_FLAGS]) == 2


def _files(valid):
    """Arbitrary bytes, a valid file, or a valid file with one byte changed and its length too."""
    return st.one_of(st.binary(max_size=96), valid, _mutants(valid))


_pnm_files = _files(_frames.map(write_pnm))
_container_files = _files(st.builds(
    lambda frame, count, reseed: write_container(
        [frame] * count, container_mode_for(frame.channels, video=count > 1), reseed),
    _frames, st.integers(1, 3), st.sampled_from(list(ReseedMode))))
_sizes = st.none() | st.integers(-2, 12) | st.integers(-2**70, 2**70)


@st.composite
def _malformed_calls(draw):
    """(argv with IN, CIPHER and OUT for paths, {name: file content})."""
    command = draw(st.sampled_from(["encrypt-pnm", "encrypt-raw", "decrypt", "analyze"]))
    as_pnm = ["--as-pnm"] if draw(st.booleans()) else []
    if command == "analyze":
        return (["analyze", "--plain", "IN", "--cipher", "CIPHER", "--report", "OUT"],
                {"IN": draw(_pnm_files), "CIPHER": draw(_pnm_files | _container_files)})
    if command == "decrypt":
        return ["decrypt", "--in", "IN", "--out", "OUT", *KEY_FLAGS, *as_pnm], \
            {"IN": draw(_container_files)}
    argv = ["encrypt", "--in", "IN", "--out", "OUT", *KEY_FLAGS, *as_pnm,
            "--reseed", draw(st.sampled_from([m.value for m in ReseedMode]))]
    if command == "encrypt-pnm":
        return argv, {"IN": draw(_pnm_files)}
    width, height, channels = draw(_sizes), draw(_sizes), draw(st.sampled_from([None, 1, 3]))
    for flag, value in [("--width", width), ("--height", height), ("--channels", channels)]:
        argv += [] if value is None else [flag, str(value)]
    raw = st.binary(max_size=160)
    if all(value is not None and 0 < value <= 12 for value in (width, height)):
        raw |= st.integers(1, 3).map(bytes(width * height * (channels or 1)).__mul__)  # whole frames
    return argv, {"IN": draw(raw)}


@settings(max_examples=250, deadline=None)
@given(_malformed_calls())
def test_malformed_input_exits_0_or_2_and_a_failure_writes_nothing(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: os.path.join(directory, name.lower()) for name in ("IN", "CIPHER", "OUT")}
        for name, content in files.items():
            Path(paths[name]).write_bytes(content)
        code = run([paths.get(arg, arg) for arg in argv])
        assert code in (0, 2)
        if code == 2:
            assert sorted(os.listdir(directory)) == sorted(name.lower() for name in files)


# ---------------------------------------------------------------- allocator policy


_FAULT_PROBE = """
import json, resource, sys
from chaospip import cli
encrypt, analyze = json.loads(sys.argv[1])
faults = []
for argv in [encrypt, analyze, encrypt, encrypt, analyze, encrypt, encrypt, analyze]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.run(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the CLI's allocator policy is glibc's mallopt")
def test_cli_calls_reuse_heap_pages_after_warm_up(tmp_path):
    """Frame-sized buffers come from pages the process already holds.

    A fresh process runs encrypt and analyze through cli.run on a 4.1 MB
    PPM; once each command has run, no call faults in fresh pages.
    Without the CLI's fixed thresholds, glibc served some of those
    buffers from fresh pages, at one minor fault per 4 KiB touched.
    """
    rng = np.random.default_rng(61)
    frame = Frame(1280, 1080, 3, rng.integers(0, 256, 1280 * 1080 * 3, dtype=np.uint8).tobytes())
    plain_path = tmp_path / "plain.ppm"
    plain_path.write_bytes(write_pnm(frame))
    container = tmp_path / "c.cpip"
    encrypt = ["encrypt", "--in", str(plain_path), "--out", str(container), *KEY_FLAGS]
    analyze = ["analyze", "--plain", str(plain_path), "--cipher", str(container),
               "--report", str(tmp_path / "report.txt")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, json.dumps([encrypt, analyze])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert max(faults[2:]) <= 100, faults


def test_fix_allocator_sets_both_glibc_thresholds():
    calls = []

    class FakeLibc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    cli._fix_allocator(FakeLibc())
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    cli._fix_allocator(object())  # no mallopt (musl, macOS): nothing to do


_ALLOCATOR_PROBE = """
import ctypes, sys
real_cdll, calls = ctypes.CDLL, []

class Libc:
    def __init__(self, with_mallopt):
        if with_mallopt:
            self.mallopt = lambda param, value: calls.append(param) or 1

def cdll(name, *args, **kwargs):
    return Libc(sys.argv[1] == "mallopt") if name is None else real_cdll(name, *args, **kwargs)

ctypes.CDLL = cdll
import chaospip
chaospip.encrypt_image(chaospip.Frame(2, 2, 1, bytes(4)), chaospip.KeyMaterial(3.934, 0.525))
library_calls = list(calls)
from chaospip import cli
code = cli.run(sys.argv[2:])
print(library_calls, calls)
sys.exit(code)
"""


@pytest.mark.parametrize("libc", ["mallopt", "no-mallopt"])
def test_allocator_policy_is_the_clis_alone(tmp_path, libc):
    """Importing the library leaves malloc alone; cli sets it if it can."""
    plain_path = tmp_path / "plain.pgm"
    frame = write_test_pgm(plain_path)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["decrypt", "--in", str(tmp_path / "c.cpip"), "--out", str(tmp_path / "back.raw"), *KEY_FLAGS]
    assert run(["encrypt", "--in", str(plain_path), "--out", str(tmp_path / "c.cpip"), *KEY_FLAGS]) == 0
    proc = subprocess.run([sys.executable, "-c", _ALLOCATOR_PROBE, libc, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = "[] [-3, -1]" if libc == "mallopt" else "[] []"
    assert proc.stdout.split("\n")[0] == expected
    assert (tmp_path / "back.raw").read_bytes() == frame.data
