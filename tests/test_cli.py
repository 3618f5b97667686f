import re

import numpy as np
import pytest

from chaospip import (
    Frame,
    KeyMaterial,
    corr2d,
    derive_key_from_hex,
    derive_key_from_params,
    encrypt_image,
    histogram256,
    read_container,
    read_pnm,
    write_pnm,
)
from chaospip import analysis
from chaospip.cli import run

from synthimg import synthetic_gray, synthetic_rgb

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


def test_analyze_rgb_report_has_per_channel_lines(tmp_path, monkeypatch):
    frame = synthetic_rgb(24, 24, 7.0, seed=65)
    plain_path = tmp_path / "plain.ppm"
    plain_path.write_bytes(write_pnm(frame))
    cipher_path = tmp_path / "cipher.ppm"
    key = KeyMaterial(3.934, 0.5250, 50)
    cipher = encrypt_image(frame, key)
    cipher_path.write_bytes(write_pnm(cipher))
    report_path = tmp_path / "report.txt"
    calls = []

    def counting_histogram256(data):
        calls.append(1)
        return histogram256(data)

    monkeypatch.setattr(analysis, "histogram256", counting_histogram256)
    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(cipher_path),
                "--report", str(report_path)]) == 0
    assert len(calls) == 6  # one histogram per plane, plain and cipher
    text = report_path.read_text()
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


def test_keystream_hist_csv(tmp_path):
    out = tmp_path / "hist.csv"
    assert run(["keystream-hist", "--mu", "3.934", "--x0", "0.22101986",
                "--burn-in", "1000", "--n", "5000", "--bins", "50", "--out", str(out)]) == 0
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


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["encrypt", "--out", "x"]) == 1  # missing --in/--mu/--x0
    assert run([]) == 1


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


def test_missing_input_exits_2(tmp_path):
    assert run(["encrypt", "--in", str(tmp_path / "nope.pgm"),
                "--out", str(tmp_path / "c"), *KEY_FLAGS]) == 2


def test_not_a_container_exits_2(tmp_path):
    bogus = tmp_path / "bogus.cpip"
    bogus.write_bytes(b"NOPE" + bytes(32))
    assert run(["decrypt", "--in", str(bogus), "--out", str(tmp_path / "d"), *KEY_FLAGS]) == 2
