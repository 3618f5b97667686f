"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error (including an
input too large to allocate), 3 key error.
Diagnostics go to stderr; data goes to files or stdout only, and key
material is never written into any output file.
"""

from __future__ import annotations

import argparse
import ctypes
import secrets
import sys
from pathlib import Path

from . import analysis
from .cipher import Frame, ReseedMode, process_stream
from .errors import FixedPointError, FormatError, ParseError, RangeError
from .io import MAGIC, _container_parts, container_mode_for, read_container, read_pnm, read_raw, write_pnm
from .keystream import DEFAULT_BURN_IN, KeyMaterial, derive_key_from_hex, derive_key_from_params

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_KEY = 3

# glibc serves blocks above its mmap threshold from fresh pages and hands
# heap tops above its trim threshold back to the kernel, and it raises both
# thresholds as large blocks are freed. Left alone, whether a frame-sized
# buffer reuses pages the process already holds depends on what earlier
# commands happened to free: a 1080p encrypt takes either 0 or about 5,600
# minor page faults (about 12 ms). The CLI fixes both thresholds once per
# process; the library alone leaves the allocator as it finds it.
_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # the largest value 64-bit glibc accepts
_TRIM_THRESHOLD = 128 << 20


def _fix_allocator(libc) -> None:
    """Fix glibc's mmap and trim thresholds; a libc without mallopt is left alone."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


try:
    _fix_allocator(ctypes.CDLL(None))
except (OSError, TypeError):  # no handle on the process's own symbols (Windows)
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaospip",
        description="Chaotic logistic-map cipher for images and raw video, "
        "with statistical analysis of the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="derive or generate key parameters")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--random", action="store_true", help="fresh key from OS entropy (default)")
    g.add_argument("--from-hex", metavar="HEX", help="derive from a 64-hex-digit key")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt PNM frames or a raw planar file")
    p.add_argument("--in", dest="inputs", metavar="PATH", nargs="+", required=True,
                   help="PGM/PPM file(s), or one raw planar file with --width/--height")
    p.add_argument("--out", required=True, help="output container path")
    _add_key_flags(p)
    p.add_argument("--reseed", choices=[m.value for m in ReseedMode],
                   default=ReseedMode.CONTINUOUS.value,
                   help="keystream handling across frames (default: continuous)")
    p.add_argument("--width", type=int, help="raw input: frame width")
    p.add_argument("--height", type=int, help="raw input: frame height")
    p.add_argument("--channels", type=int, choices=[1, 3], default=1,
                   help="raw input: channels per frame (default: 1)")
    p.add_argument("--as-pnm", action="store_true",
                   help="also export the ciphertext as viewable PNM next to the container")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a container")
    p.add_argument("--in", dest="inputs", metavar="PATH", required=True, help="container path")
    p.add_argument("--out", required=True,
                   help="output path (a directory for multi-frame --as-pnm output)")
    _add_key_flags(p)
    p.add_argument("--as-pnm", action="store_true", help="write PGM/PPM instead of raw planar bytes")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("analyze", help="histograms, entropy, and plain/cipher correlation")
    p.add_argument("--plain", required=True, help="plain image (PGM/PPM)")
    p.add_argument("--cipher", required=True, help="encrypted counterpart (container or PGM/PPM)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("keystream-hist", help="histogram of raw map values after burn-in")
    _add_key_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of iterates")
    p.add_argument("--bins", type=int, required=True, help="number of uniform bins over [0,1]")
    p.add_argument("--out", required=True, help="output CSV path ('bin_low,bin_high,count' rows)")
    p.set_defaults(func=_cmd_keystream_hist)

    return parser


def _add_key_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", required=True, help="control parameter, a decimal in (3.57, 4.0)")
    p.add_argument("--x0", required=True, help="initial map state, a decimal in (0, 1)")
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN,
                   help=f"iterates discarded before the first key byte (default: {DEFAULT_BURN_IN})")


def _key_from_args(args: argparse.Namespace) -> KeyMaterial:
    return derive_key_from_params(args.mu, args.x0, args.burn_in)


def _cmd_keygen(args: argparse.Namespace) -> int:
    if args.from_hex is not None:
        key = derive_key_from_hex(args.from_hex)
    else:
        key = derive_key_from_hex(secrets.token_hex(32))
    print(f"mu={key.mu!r} x0={key.x0!r} burn_in={key.burn_in}")
    return EXIT_OK


def _read(path: str) -> bytes:
    """The whole file at `path`, read without pathlib or a buffered reader:
    9 against 19 us for a 76.8 KB PGM (2-vCPU Xeon, Python 3.11.7)."""
    with open(path, "rb", buffering=0) as file:
        return file.read()


def _load_input_frames(args: argparse.Namespace) -> list[Frame]:
    if args.width is not None or args.height is not None:
        if args.width is None or args.height is None:
            raise FormatError("raw input needs both --width and --height")
        if len(args.inputs) != 1:
            raise FormatError("raw input takes exactly one --in path")
        return read_raw(_read(args.inputs[0]), args.width, args.height, args.channels)
    return [read_pnm(_read(path)) for path in args.inputs]


def _cmd_encrypt(args: argparse.Namespace) -> int:
    key = _key_from_args(args)
    reseed = ReseedMode(args.reseed)
    encrypted = process_stream(_load_input_frames(args), key, reseed)
    mode = container_mode_for(encrypted[0].channels, video=len(encrypted) > 1)
    out = Path(args.out)
    parts = _container_parts(encrypted, mode, reseed)
    with out.open("wb") as file:  # the frames' own bytes, with no container-sized join
        file.writelines(parts)
    if args.as_pnm:
        for i, f in enumerate(encrypted):
            suffix = ".pgm" if f.channels == 1 else ".ppm"
            name = out.name + (suffix if len(encrypted) == 1 else f".frame-{i:06d}{suffix}")
            out.with_name(name).write_bytes(write_pnm(f))
    print(f"encrypted {len(encrypted)} frame(s) -> {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_decrypt(args: argparse.Namespace) -> int:
    key = _key_from_args(args)
    frames, _mode, reseed = read_container(_read(args.inputs))
    decrypted = process_stream(frames, key, reseed)
    del frames  # so the output below is built while only one other copy is alive
    out = Path(args.out)
    if args.as_pnm:
        if len(decrypted) == 1:
            out.write_bytes(write_pnm(decrypted[0]))
        else:
            out.mkdir(parents=True, exist_ok=True)
            suffix = ".pgm" if decrypted[0].channels == 1 else ".ppm"
            for i, f in enumerate(decrypted):
                (out / f"frame-{i:06d}{suffix}").write_bytes(write_pnm(f))
    else:
        with out.open("wb") as file:
            file.writelines(f.data for f in decrypted)
    print(f"decrypted {len(decrypted)} frame(s) -> {out}", file=sys.stderr)
    return EXIT_OK


def _load_cipher_file(path: str) -> Frame:
    data = _read(path)
    if data[:4] == MAGIC:
        frames, _mode, _reseed = read_container(data)
        if len(frames) != 1:
            raise FormatError("analyze expects a single-frame container")
        return frames[0]
    return read_pnm(data)


# The 256 rows of one histogram block, "0,%d\n1,%d\n...\n255,%d": one
# %-format turns a channel's counts into its block.
_HISTOGRAM_ROWS = "\n".join(f"{value},%d" for value in range(256))


def _format_report(report: analysis.MetricsReport) -> str:
    lines = []
    for label, hists in (("plain", report.hist_plain), ("cipher", report.hist_cipher)):
        for c, counts in enumerate(hists):
            lines.append(f"# histogram {label} channel {c}")
            lines.append(_HISTOGRAM_ROWS % tuple(counts))
    lines.append(f"entropy_plain={report.entropy_plain!r}")
    lines.append(f"entropy_cipher={report.entropy_cipher!r}")
    lines.append(f"corr={report.corr!r}")
    if report.channels is not None:
        for c, m in enumerate(report.channels):
            lines.append(f"entropy_plain_ch{c}={m.entropy_plain!r}")
            lines.append(f"entropy_cipher_ch{c}={m.entropy_cipher!r}")
            lines.append(f"corr_ch{c}={m.corr!r}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    plain = read_pnm(_read(args.plain))
    cipher = _load_cipher_file(args.cipher)
    text = _format_report(analysis.compare_frames(plain, cipher))
    if args.report:
        with open(args.report, "w") as file:
            file.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_keystream_hist(args: argparse.Namespace) -> int:
    key = _key_from_args(args)
    counts = analysis.keystream_histogram(key, args.n, args.bins)
    edges = [repr(i / args.bins) for i in range(args.bins + 1)]  # row i spans edges i and i + 1
    rows = map("{},{},{}".format, edges, edges[1:], counts.tolist())
    Path(args.out).write_text("\n".join(rows) + "\n")
    return EXIT_OK


# Built once per process: parse_args leaves it unchanged, and argparse looks
# up sys.stdout/sys.stderr only when it prints.
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, RangeError, FixedPointError) as exc:
        print(f"key error: {exc}", file=sys.stderr)
        return EXIT_KEY
    except (OSError, ValueError) as exc:  # every package data error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # an input too large for this machine, such as huge --bins
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
