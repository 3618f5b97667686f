"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error (including an
input too large to allocate), 3 key error.
Diagnostics go to stderr; data goes to files or stdout only, and key
material is never written into any output file. `_write` writes each output
whole, through a sibling renamed over the target (so a new file takes default
permissions); a symlink, FIFO or device such as /dev/stdout is written in place.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import secrets
import stat
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import analysis, keystream
from .cipher import (Frame, ReseedMode, _check_same_shape, _frame_parts, _pieces, _plan, _Stream, _transform,
                     process_stream)
from .errors import FixedPointError, FormatError, ParseError, RangeError
from .io import (HEADER_SIZE, MAGIC, _container_parts, _parse_container, _parse_pnm, _parse_raw, _planes,
                 _pnm_parts, container_mode_for, read_container, read_pnm, read_raw)
from .keystream import DEFAULT_BURN_IN, KeyMaterial, _publish, derive_key_from_hex, derive_key_from_params

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
    key = derive_key_from_hex(secrets.token_hex(32) if args.from_hex is None else args.from_hex)
    print(f"mu={key.mu!r} x0={key.x0!r} burn_in={key.burn_in}")
    return EXIT_OK


def _read(path: str) -> bytes:
    """The whole file at `path`, read without pathlib or a buffered reader:
    9 against 19 us for a 76.8 KB PGM (2-vCPU Xeon, Python 3.11.7)."""
    with open(path, "rb", buffering=0) as file:
        return file.read()


def _write(path, parts) -> None:
    """Write `parts`, bytes-like objects, to `path`: whole through `keystream._publish`,
    or in place if `path` exists and is not a regular file, or is a symlink."""
    whole = not os.path.lexists(path) or os.path.isfile(path) and not os.path.islink(path)
    with _publish(path) if whole else contextlib.nullcontext(path) as target, \
            open(target, "xb" if whole else "wb") as file:
        file.writelines(parts)


def _size(file) -> int:
    """The size of the open `file` if it is a regular file, else -1."""
    status = os.fstat(file.fileno())
    return status.st_size if stat.S_ISREG(status.st_mode) else -1


# The first bytes of an input that `_read_ahead` reads at once, for its header.
_HEAD_BYTES = 1 << 16


def _read_ahead(file) -> tuple[object, Callable[[int], None]]:
    """The bytes of `file` in one buffer of its size, made on this thread, and
    upto(n), which reads on until the first n of them are in. The first
    _HEAD_BYTES are read at once and the rest as upto asks, which a helper
    does ahead of the frame loop; a file no larger, or not regular, is read
    whole at once."""
    if (size := _size(file)) <= _HEAD_BYTES:
        return file.read(), lambda n: None
    data, filled = np.empty(size, np.uint8), 0

    def upto(n: int) -> None:
        nonlocal filled
        while filled < n:
            if not (got := file.readinto(data[filled:n])):
                raise FormatError(f"the input ended after {filled} of its {size} bytes")
            filled += got

    upto(_HEAD_BYTES)
    return data, upto


def _parse_pnm_ahead(data, upto: Callable[[int], None]) -> tuple:
    """`_parse_pnm` of a buffer from `_read_ahead`: of its first bytes if they
    hold the header, else of the whole file once it is read."""
    with contextlib.suppress(FormatError):
        if len(data) - len((pnm := _parse_pnm(data))[3]) <= _HEAD_BYTES:
            return pnm
    upto(len(data))
    return _parse_pnm(data)


def _views(data, stream: _Stream, upto: Callable[[int], None], offset: int = 0) -> Iterator:
    """The inputs of `_plan` for `stream`, as views into `data`, which holds its
    frames back to back; the file is read up to each before it is handed on."""
    for start, stop in _plan(stream.size, stream.count, cut=True):
        upto(offset + stop)
        yield data[start:stop]


def _kept(items, kept: list) -> Iterator:
    """`items`, each also appended to `kept`."""
    for item in items:
        kept.append(item)
        yield item


# `encrypt` and `decrypt` take one of two paths, by their input file's size
# against keystream's size rule. Below it (video-perframe-8x8's 128 KB, say)
# the input is read whole into Frames, which `process_stream` transforms. At
# or above it, the input is streamed: its header is checked, here, before any
# output is opened, then cipher's frame loop, `_transform`, runs here between
# the input's pieces and a sink, and `keystream._pipeline` runs the pieces'
# making (the rest of the read, then PPM de-interleaving or views) and the sink
# on a helper thread. Both call only private functions, so every public one
# runs here. The input's buffers (`_read_ahead`'s, and `_planes`' for RGB) are
# made here too, so they come from this thread's glibc arena, whose pages the
# next call reuses, and not from the helper's. Both paths write through the
# same sink and give the same bytes; the streamed one makes no object per
# frame, which ROADMAP item 7 extends to small inputs.


def _cmd_encrypt(args: argparse.Namespace) -> int:
    key = _key_from_args(args)
    reseed = ReseedMode(args.reseed)
    raw = args.width is not None or args.height is not None
    if raw and (args.width is None or args.height is None):
        raise FormatError("raw input needs both --width and --height")
    if raw and len(args.inputs) != 1:
        raise FormatError("raw input takes exactly one --in path")
    with open(args.inputs[0], "rb", buffering=0) as file:
        frames = None
        if not keystream._helped(size := _size(file) * len(args.inputs)):
            data = file.read()
            frames = process_stream(read_raw(data, args.width, args.height, args.channels) if raw else
                                    [read_pnm(data), *(read_pnm(_read(path)) for path in args.inputs[1:])],
                                    key, reseed)
            stream = _Stream(*frames[0].shape, len(frames), reseed)
        elif raw:
            data, upto = _read_ahead(file)
            view, width, height, channels = _parse_raw(data, args.width, args.height, args.channels)
            stream = _Stream(width, height, channels, len(view) // (width * height * channels), reseed)
            inputs = _views(view, stream, upto)
        else:
            data, upto = _read_ahead(file)
            pnms = [_parse_pnm_ahead(data, upto), *(_parse_pnm(_read(path)) for path in args.inputs[1:])]
            _check_same_shape([pnm[:3] for pnm in pnms])
            stream = _Stream(*pnms[0][:3], len(pnms), reseed)
            header = len(data) - len(pnms[0][3])
            inputs = _pieces(stream, _planes([pnm[3] for pnm in pnms], stream.channels,
                                             lambda i, n: upto(header + n) if i == 0 else None))
        mode = container_mode_for(stream.channels, video=stream.count > 1)
        out = Path(args.out)

        def sink(outputs: Iterator) -> None:
            kept = []
            _write(out, _container_parts(stream, mode, _kept(outputs, kept) if args.as_pnm else outputs))
            suffix = ".pgm" if stream.channels == 1 else ".ppm"
            for i, parts in enumerate(_frame_parts(kept, stream.size)):
                name = out.name + (suffix if stream.count == 1 else f".frame-{i:06d}{suffix}")
                _write(out.with_name(name), _pnm_parts(parts, *stream[:3]))

        if frames is not None:
            sink(f.data for f in frames)
        else:
            keystream._pipeline(size, inputs, lambda items: _transform(items, key, stream, cut=True), sink)
    print(f"encrypted {stream.count} frame(s) -> {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_decrypt(args: argparse.Namespace) -> int:
    key = _key_from_args(args)
    with open(args.inputs, "rb", buffering=0) as file:
        frames = None
        if not keystream._helped(size := _size(file)):
            frames, _mode, reseed = read_container(file.read())
            stream = _Stream(*frames[0].shape, len(frames), reseed)
            frames = process_stream(frames, key, reseed)
        else:
            data, upto = _read_ahead(file)
            stream, _mode, payload = _parse_container(data)
        out = Path(args.out)

        def sink(outputs: Iterator) -> None:
            if not args.as_pnm:
                _write(out, outputs)
            elif stream.count == 1:
                _write(out, _pnm_parts(outputs, *stream[:3]))
            else:  # every frame first, so that a failure in the loop writes none
                kept = list(_frame_parts(outputs, stream.size))
                out.mkdir(parents=True, exist_ok=True)
                suffix = ".pgm" if stream.channels == 1 else ".ppm"
                for i, parts in enumerate(kept):
                    _write(out / f"frame-{i:06d}{suffix}", _pnm_parts(parts, *stream[:3]))

        if frames is not None:
            sink(f.data for f in frames)
        else:
            keystream._pipeline(size, _views(payload, stream, upto, HEADER_SIZE),
                                lambda items: _transform(items, key, stream, cut=True), sink)
    print(f"decrypted {stream.count} frame(s) -> {out}", file=sys.stderr)
    return EXIT_OK


def _parse_cipher(data: bytes) -> Frame:
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
            lines += [f"# histogram {label} channel {c}", _HISTOGRAM_ROWS % tuple(counts)]
    # The whole frame's metrics, then each channel's, under the same three names.
    for tag, m in [("", report), *((f"_ch{c}", m) for c, m in enumerate(report.channels or ()))]:
        lines += [f"entropy_plain{tag}={m.entropy_plain!r}",
                  f"entropy_cipher{tag}={m.entropy_cipher!r}", f"corr{tag}={m.corr!r}"]
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    # The plain file is read first, here, so its error wins; a missing or special
    # cipher file (size -1) is read here too, after it.
    size = os.path.getsize(args.cipher) if os.path.isfile(args.cipher) else -1
    plain, data = keystream._concurrently(size, lambda: read_pnm(_read(args.plain)),
                                          lambda: _read(args.cipher))
    cipher = _parse_cipher(data)
    text = _format_report(analysis.compare_frames(plain, cipher))
    if args.report:
        _write(args.report, [text.encode()])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_keystream_hist(args: argparse.Namespace) -> int:
    key = _key_from_args(args)
    counts = analysis.keystream_histogram(key, args.n, args.bins)
    edges = [repr(i / args.bins) for i in range(args.bins + 1)]  # row i spans edges i and i + 1
    rows = map("{},{},{}".format, edges, edges[1:], counts.tolist())
    _write(args.out, [("\n".join(rows) + "\n").encode()])
    return EXIT_OK


# Built once per process: parse_args leaves it unchanged, and argparse looks
# up sys.stdout/sys.stderr only when it prints.
_PARSER = build_parser()
# Each command's own parser, by name (the choices of _PARSER's subparsers action).
_COMMANDS = next(a.choices for a in _PARSER._actions if a.dest == "command")


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)`. A known command's arguments go straight to its own
    parser, which halves the parse: _PARSER would first scan them all itself. _PARSER
    still parses whatever that parser leaves unrecognized, so its error names `chaospip`."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _COMMANDS[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
