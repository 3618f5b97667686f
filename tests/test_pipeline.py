"""The frame loop on two threads gives the serial path's bytes and failures,
whatever the timing.

`keystream._pipeline` runs `cipher._transform` on the calling thread, and its
source (the rest of the input's read, then PPM de-interleaving or views) and
its sink (the output's writer) on one helper thread, for a stream of
`keystream._CONCURRENT_BYTES` bytes or more; the CLI's `encrypt` and
`decrypt` of a large input run it so. These tests lower that rule, and
`cipher._PIECE_BYTES`, `_BATCH_BYTES` and `cli._HEAD_BYTES`, so that small
streams take the helper, cut frames into pieces that straddle planes, fill
many batches and read their input in steps. They slow one side of every
handoff between the two threads (the pipeline's two queues) by random sleeps,
and compare each output with the serial path's and with tests/refcipher.py,
on both kernels. The serial path is `process_stream` (whole frames, one
thread), and for the CLI the list path that an input file below the rule
takes (read whole into Frames, then `process_stream`), or, for a failure
only streaming can meet, the streamed path on one thread.
"""

import errno
import os
import queue
import random
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chaospip import Frame, KeyMaterial, ReseedMode, cipher, cli, io, keystream, process_stream, write_pnm
from chaospip.cli import run
from chaospip.io import HEADER_SIZE

from refcipher import reference_transform

KEY = KeyMaterial(mu=3.934, x0=0.5250, burn_in=50)
KEY_FLAGS = ["--mu", "3.934", "--x0", "0.5250", "--burn-in", "50"]


class _Delayed:
    """queue.SimpleQueue whose puts, or gets (`side`), each first sleep up to
    1 ms; it notes each thread that uses it in `threads`."""

    def __init__(self, side: str, rng: random.Random, threads: set):
        self._queue, self._side, self._rng, self._threads = queue.SimpleQueue(), side, rng, threads

    def _nap(self, side: str) -> None:
        self._threads.add(threading.get_ident())
        if side == self._side:
            time.sleep(self._rng.random() / 1000)

    def put(self, item) -> None:
        self._nap("put")
        self._queue.put(item)

    def get(self):
        self._nap("get")
        return self._queue.get()

    def get_nowait(self):
        self._nap("get")
        return self._queue.get_nowait()


def _overlapped(monkeypatch, side: str, seed: int = 0) -> set:
    """Every stream takes the helper from here on, with one side of each handoff
    slowed; returns the set of threads that hand items over."""
    threads = set()
    rng = random.Random(seed)
    monkeypatch.setattr(keystream, "_CONCURRENT_BYTES", 0)
    monkeypatch.setattr(keystream, "queue",
                        SimpleNamespace(SimpleQueue=lambda: _Delayed(side, rng, threads)))
    return threads


@pytest.fixture
def small(monkeypatch):
    """Pieces of at most 64 bytes, batches of at most 256, and input read in
    steps past its first 32 bytes."""
    monkeypatch.setattr(cipher, "_PIECE_BYTES", 64)
    monkeypatch.setattr(cipher, "_BATCH_BYTES", 256)
    monkeypatch.setattr(cli, "_HEAD_BYTES", 32)


KERNELS = [
    pytest.param("native", marks=pytest.mark.skipif(keystream.BACKEND != "native",
                                                     reason="native kernel not in use")),
    "python",
]


def _kernel(monkeypatch, kernel: str) -> None:
    if kernel == "python":
        monkeypatch.setattr(keystream, "_loaded", lambda: keystream._PYTHON)


def _frames(width: int, height: int, channels: int, count: int, seed: int = 0) -> list[Frame]:
    rng = np.random.default_rng(seed)
    size = width * height * channels
    return [Frame(width, height, channels, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            for _ in range(count)]


def _assert_reference(plain: list[Frame], cipher_frames: list[bytes], mode: ReseedMode) -> None:
    for i, (frame, data) in enumerate(zip(plain, cipher_frames, strict=True)):
        offset = cipher.PER_FRAME_STRIDE * i if mode is ReseedMode.PER_FRAME else len(frame.data) * i
        assert data == reference_transform(frame.data, KEY.mu, KEY.x0, KEY.burn_in + offset), i


# (width, height, channels, frames, reseed) under `small`.
STREAMS = {
    # 273 bytes: pieces of 56, 56, 56, 56 and 49 bytes, a tail of one byte;
    # the second and fourth cross the 91-byte planes.
    "rgb-frame-with-a-tail": (13, 7, 3, 1, ReseedMode.CONTINUOUS),
    # Frames cut into pieces, each frame keyed 17 iterates past the last.
    "per-frame-pieces": (13, 7, 3, 6, ReseedMode.PER_FRAME),
    # 75 batches of four 64-byte frames.
    "continuous-video": (8, 8, 1, 300, ReseedMode.CONTINUOUS),
    # Batches of eight 30-byte frames keyed 17 apart, so their windows overlap.
    "per-frame-overlapping-batches": (6, 5, 1, 41, ReseedMode.PER_FRAME),
    # Batches of seventeen 15-byte frames keyed 17 apart, with gaps.
    "per-frame-batches-with-gaps": (5, 3, 1, 90, ReseedMode.PER_FRAME),
}


def _looped(frames: list[Frame], mode: ReseedMode) -> list[bytes]:
    """Each frame's output of the frame loop on `frames` cut into pieces, run
    through `keystream._pipeline` as the CLI runs it."""
    stream = cipher._Stream(*frames[0].shape, len(frames), mode)
    datas = [f.data for f in frames]
    inputs = cipher._pieces(stream, lambda i, start, stop: memoryview(datas[i])[start:stop])
    outputs = keystream._pipeline(stream.size * len(frames), inputs,
                                  lambda items: cipher._transform(items, KEY, stream, cut=True), list)
    return [b"".join(parts) for parts in cipher._frame_parts(outputs, stream.size)]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("side", ["put", "get", "switch"])
@pytest.mark.parametrize("stream", list(STREAMS))
def test_two_threads_give_the_serial_bytes(monkeypatch, small, kernel, side, stream):
    # "switch" sleeps nowhere but makes the interpreter switch threads every microsecond.
    _kernel(monkeypatch, kernel)
    width, height, channels, count, mode = STREAMS[stream]
    frames = _frames(width, height, channels, count)
    serial = [f.data for f in process_stream(frames, KEY, mode)]
    _assert_reference(frames, serial, mode)
    threads = _overlapped(monkeypatch, side)
    before, interval = threading.active_count(), sys.getswitchinterval()
    try:
        if side == "switch":
            sys.setswitchinterval(1e-6)
        assert _looped(frames, mode) == serial
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 2 and threading.active_count() == before


def test_process_stream_keeps_whole_frames_on_this_thread(monkeypatch):
    # One transform_plane call per frame larger than a batch, and no helper,
    # however large the stream: only the CLI's streamed path cuts and overlaps.
    frames = _frames(40, 40, 3, 3, seed=7)
    monkeypatch.setattr(cipher, "_PIECE_BYTES", 1200)
    monkeypatch.setattr(cipher, "_BATCH_BYTES", 1200)
    monkeypatch.setattr(keystream, "_CONCURRENT_BYTES", 0)
    monkeypatch.setattr(keystream, "threading", SimpleNamespace(Thread=None))  # any helper fails
    calls, transform_plane = [], cipher.transform_plane
    monkeypatch.setattr(cipher, "transform_plane",
                        lambda data, *args: calls.append(len(data)) or transform_plane(data, *args))
    out = process_stream(frames, KEY)
    assert calls == [4800] * 3
    _assert_reference(frames, [f.data for f in out], ReseedMode.CONTINUOUS)


def _files(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# Each command with its input, as words that `_cli_inputs` writes.
COMMANDS = {
    "encrypt-ppm": ["encrypt", "--in", "rgb.ppm", "--out", "out.cpip"],
    "encrypt-ppm-as-pnm": ["encrypt", "--in", "rgb.ppm", "--out", "out.cpip", "--as-pnm"],
    "encrypt-commented-pgm": ["encrypt", "--in", "commented.pgm", "--out", "out.cpip"],
    "encrypt-raw-per-frame": ["encrypt", "--in", "video.raw", "--width", "13", "--height", "7",
                              "--channels", "3", "--reseed", "per-frame", "--out", "out.cpip"],
    "encrypt-pnm-video": ["encrypt", "--in", "rgb.ppm", "rgb2.ppm", "--out", "out.cpip"],
    "decrypt-raw": ["decrypt", "--in", "video.cpip", "--out", "out.raw"],
    "decrypt-as-pnm": ["decrypt", "--in", "rgb.cpip", "--out", "out.ppm", "--as-pnm"],
    "decrypt-video-as-pnm": ["decrypt", "--in", "video.cpip", "--out", "frames", "--as-pnm"],
}
VIDEO = _frames(13, 7, 3, 5, seed=1)
RGB, RGB2 = _frames(13, 7, 3, 2, seed=2)
GRAY = _frames(23, 11, 1, 1, seed=3)[0]


def _cli_inputs(directory: Path) -> None:
    (directory / "rgb.ppm").write_bytes(write_pnm(RGB))
    (directory / "rgb2.ppm").write_bytes(write_pnm(RGB2))
    # A header longer than the first read: it is parsed once the whole file is in.
    (directory / "commented.pgm").write_bytes(b"P5\n# " + b"x" * 40 + b"\n23 11\n255\n" + GRAY.data)
    (directory / "video.raw").write_bytes(b"".join(f.data for f in VIDEO))
    for name, frames, reseed in [("video.cpip", VIDEO, ReseedMode.PER_FRAME),
                                 ("rgb.cpip", [RGB], ReseedMode.CONTINUOUS)]:
        mode = io.container_mode_for(3, video=len(frames) > 1)
        (directory / name).write_bytes(io.write_container(process_stream(frames, KEY, reseed), mode, reseed))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("side", ["put", "get"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_two_threads_write_the_serial_files(tmp_path, monkeypatch, small, kernel, side, command):
    _kernel(monkeypatch, kernel)
    written = []
    for threaded in (False, True):
        directory = tmp_path / ("threaded" if threaded else "serial")
        directory.mkdir()
        _cli_inputs(directory)
        if threaded:
            threads = _overlapped(monkeypatch, side)
        before = threading.active_count()
        assert run([str(directory / word) if "." in word or word == "frames" else word
                    for word in COMMANDS[command]] + KEY_FLAGS) == 0
        assert threading.active_count() == before
        written.append(_files(directory))
    assert written[0] == written[1]
    assert len(threads) == 2
    files = written[0]
    if command.startswith("encrypt"):
        frames = {"encrypt-raw-per-frame": VIDEO, "encrypt-pnm-video": [RGB, RGB2],
                  "encrypt-commented-pgm": [GRAY]}.get(command, [RGB])
        mode = ReseedMode.PER_FRAME if "per-frame" in command else ReseedMode.CONTINUOUS
        payload = files["out.cpip"][HEADER_SIZE:]
        size = len(frames[0].data)
        _assert_reference(frames, [payload[i:i + size] for i in range(0, len(payload), size)], mode)
    if command == "encrypt-ppm-as-pnm":
        assert files["out.cpip.ppm"] == write_pnm(Frame(13, 7, 3, files["out.cpip"][HEADER_SIZE:]))
    if command == "decrypt-raw":
        assert files["out.raw"] == files["video.raw"]
    if command == "decrypt-as-pnm":
        assert files["out.ppm"] == files["rgb.ppm"]
    if command == "decrypt-video-as-pnm":
        assert [files[f"frames/frame-{i:06d}.ppm"] for i in range(5)] == [write_pnm(f) for f in VIDEO]


def _shrinking(monkeypatch, path: Path, parser: str = "_parse_pnm_ahead") -> None:
    """The input at `path` loses its last 100 bytes once `parser` has checked its header."""
    parse = getattr(cli, parser)

    def parse_then_truncate(*args):
        parsed = parse(*args)
        os.truncate(path, path.stat().st_size - 100)
        return parsed

    monkeypatch.setattr(cli, parser, parse_then_truncate)


def _call_fails(monkeypatch, module, name: str, error: Exception, n: int = 3) -> None:
    """Call n of module.name raises `error`."""
    calls, original = [], getattr(module, name)

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


def _last_draw_fails(monkeypatch, route: str) -> None:
    """The frame loop's last `transform_plane` call of a 4,800-byte frame
    raises: the list path's one call, or the fourth of its 1,200-byte pieces."""
    _call_fails(monkeypatch, cipher, "transform_plane", ValueError("bad draw"), 1 if route == "list" else 4)


def _disk_fills(monkeypatch) -> None:
    """The output's writer takes its first part, then meets a full disk."""
    write = cli._write

    def short(parts):
        yield next(iter(parts))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_write", lambda path, parts: write(path, short(parts)))


def _streamed_serially(monkeypatch) -> None:
    """Every input takes the CLI's streamed path from here on, with the frame
    loop and both of its ends on this thread."""
    pipeline = keystream._pipeline
    monkeypatch.setattr(keystream, "_CONCURRENT_BYTES", 0)
    monkeypatch.setattr(keystream, "_pipeline", lambda size, *rest: pipeline(-1, *rest))


# Each failure, the message that every path that can meet it gives, and
# whether the list path (an input read whole into Frames) can meet it too.
FAILURES = {
    "truncated-ppm": (None, "error: truncated payload: 4700 bytes, expected 4800\n", True),
    "ppm-truncated-while-read": (lambda mp, path, route: _shrinking(mp, path),
                                 "error: the input ended after 4713 of its 4813 bytes\n", False),
    "de-interleave-fails": (
        lambda mp, path, route: _call_fails(mp, io, "_deinterleave", ValueError("bad piece")),
        "error: bad piece\n", False),
    "disk-full": (lambda mp, path, route: _disk_fills(mp),
                  f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n", True),
    "loop-fails": (lambda mp, path, route: _last_draw_fails(mp, route), "error: bad draw\n", True),
}


@pytest.mark.parametrize("side", ["put", "get"])
@pytest.mark.parametrize("old", [b"old container", None], ids=["over-a-file", "new-file"])
@pytest.mark.parametrize("failure", list(FAILURES))
def test_a_failure_reads_as_on_the_serial_path(tmp_path, monkeypatch, capsys, side, old, failure):
    """A failure on either thread exits with the serial path's code and message,
    joins the helper, and leaves the old output, or none, and no sibling."""
    inject, message, listed = FAILURES[failure]
    frame = _frames(40, 40, 3, 1, seed=4)[0]  # 4,800 bytes: pieces of 1,200 and reads in steps
    outcomes = []
    for path in ["list", "streamed", "threaded"] if listed else ["streamed", "threaded"]:
        directory = tmp_path / path
        directory.mkdir()
        plain, out = directory / "plain.ppm", directory / "out.cpip"
        plain.write_bytes(write_pnm(frame)[:-100] if failure == "truncated-ppm" else write_pnm(frame))
        if old is not None:
            out.write_bytes(old)
        before = _files(directory)
        with monkeypatch.context() as mp:
            mp.setattr(cipher, "_PIECE_BYTES", 1200)
            mp.setattr(cli, "_HEAD_BYTES", 64)
            if path == "streamed":
                _streamed_serially(mp)
            if path == "threaded":
                threads = _overlapped(mp, side)
            if inject is not None:
                inject(mp, plain, path)
            count = threading.active_count()
            code = run(["encrypt", "--in", str(plain), "--out", str(out), *KEY_FLAGS])
            assert threading.active_count() == count
        after = _files(directory)
        if failure == "ppm-truncated-while-read":
            after.pop("plain.ppm")
            before.pop("plain.ppm")
        assert after == before
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes == [(2, message)] * len(outcomes)
    # The truncated file fails before the loop, on this thread; the others on the helper or here.
    assert len(threads) == (0 if failure == "truncated-ppm" else 2)


# Each failure of a multi-frame `decrypt --as-pnm`, its message, and whether
# the list path can meet it. The loop fails at its one call on the list path,
# and at the third piece of the fourth frame on the others.
EXPORT_FAILURES = {
    "container-truncated-while-read": (lambda mp, path, route: _shrinking(mp, path, "_parse_container"),
                                       "error: the input ended after 23920 of its 24020 bytes\n", False),
    "loop-fails": (lambda mp, path, route: _call_fails(mp, cipher, "transform_plane", ValueError("bad draw"),
                                                      1 if route == "list" else 15),
                   "error: bad draw\n", True),
}


@pytest.mark.parametrize("side", ["put", "get"])
@pytest.mark.parametrize("old", [True, False], ids=["into-a-directory", "new-directory"])
@pytest.mark.parametrize("failure", list(EXPORT_FAILURES))
def test_a_failed_frame_export_writes_no_frame(tmp_path, monkeypatch, capsys, side, old, failure):
    """A multi-frame `decrypt --as-pnm` that fails writes no frame file, on every path."""
    inject, message, listed = EXPORT_FAILURES[failure]
    frames = _frames(40, 40, 3, 5, seed=8)  # 24,000 bytes: four pieces a frame, read in steps
    mode = io.container_mode_for(3, video=True)
    outcomes = []
    for path in ["list", "streamed", "threaded"] if listed else ["streamed", "threaded"]:
        directory = tmp_path / path
        directory.mkdir()
        container, out = directory / "video.cpip", directory / "frames"
        container.write_bytes(io.write_container(process_stream(frames, KEY), mode, ReseedMode.CONTINUOUS))
        if old:
            out.mkdir()
            (out / "frame-000000.ppm").write_bytes(b"old frame")
        before = _files(directory)
        with monkeypatch.context() as mp:
            mp.setattr(cipher, "_PIECE_BYTES", 1200)
            mp.setattr(cli, "_HEAD_BYTES", 64)
            if path == "streamed":
                _streamed_serially(mp)
            if path == "threaded":
                threads = _overlapped(mp, side)
            inject(mp, container, path)
            count = threading.active_count()
            code = run(["decrypt", "--in", str(container), "--out", str(out), "--as-pnm", *KEY_FLAGS])
            assert threading.active_count() == count
        after = _files(directory)
        if failure == "container-truncated-while-read":
            after.pop("video.cpip")
            before.pop("video.cpip")
        assert after == before and out.exists() == old
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes == [(2, message)] * len(outcomes)
    assert len(threads) == 2


def test_the_size_rule_takes_the_helper_from_concurrent_bytes_on(monkeypatch):
    # A stream of exactly _CONCURRENT_BYTES bytes takes the helper; one byte fewer runs here.
    threads = _overlapped(monkeypatch, "put")
    monkeypatch.setattr(keystream, "_CONCURRENT_BYTES", 100)

    def squares(items):
        return (item * item for item in items)

    assert keystream._pipeline(100, range(5), squares, list) == [0, 1, 4, 9, 16]
    assert len(threads) == 2

    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(keystream, "threading", SimpleNamespace(Thread=no_thread))
    assert keystream._pipeline(99, range(5), squares, list) == [0, 1, 4, 9, 16]


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_the_cli_streams_an_input_file_from_concurrent_bytes_on(tmp_path, monkeypatch, command):
    # The CLI applies the rule to its input file's size: a file of exactly
    # _CONCURRENT_BYTES bytes streams past the helper, one byte more of rule
    # reads it whole into Frames on this thread; both write the same bytes.
    frame = _frames(40, 40, 3, 1, seed=6)[0]
    plain, container = tmp_path / "plain.ppm", tmp_path / "c.cpip"
    plain.write_bytes(write_pnm(frame))
    container.write_bytes(io.write_container(process_stream([frame], KEY), io.ContainerMode.RGB_IMAGE,
                                             ReseedMode.CONTINUOUS))
    source = plain if command == "encrypt" else container
    size, written = source.stat().st_size, []
    for limit in (size, size + 1):
        out = tmp_path / f"out-{limit}"
        with monkeypatch.context() as mp:
            threads = _overlapped(mp, "put")
            mp.setattr(keystream, "_CONCURRENT_BYTES", limit)
            assert run([command, "--in", str(source), "--out", str(out), *KEY_FLAGS]) == 0
        assert len(threads) == (2 if limit == size else 0)
        written.append(out.read_bytes())
    assert written == [container.read_bytes() if command == "encrypt" else frame.data] * 2


def test_the_pipeline_runs_the_transform_here_and_its_ends_on_one_helper(monkeypatch):
    monkeypatch.setattr(keystream, "_CONCURRENT_BYTES", 1)
    loaded, original = [], keystream._loaded
    monkeypatch.setattr(keystream, "_loaded", lambda: loaded.append(threading.get_ident()) or original())
    here, ran = threading.get_ident(), {"source": set(), "transform": set(), "sink": set()}

    def source():
        for i in range(10):
            ran["source"].add(threading.get_ident())
            yield i

    def transform(items):
        for item in items:
            ran["transform"].add(threading.get_ident())
            yield item * item

    def sink(items):
        ran["sink"].add(threading.get_ident())
        return list(items)

    assert keystream._pipeline(1, source(), transform, sink) == [i * i for i in range(10)]
    assert ran["transform"] == {here} and loaded == [here]
    assert len(ran["source"] | ran["sink"]) == 1 and here not in ran["source"] | ran["sink"]


@pytest.mark.parametrize("failing", ["source", "transform", "sink"])
@pytest.mark.parametrize("size", [0, 1], ids=["serial", "threaded"])
def test_the_pipeline_raises_the_first_failure_and_stops_the_sink(monkeypatch, failing, size):
    # A failed transform raises _Stopped into the sink, which then publishes nothing.
    monkeypatch.setattr(keystream, "_CONCURRENT_BYTES", 1)
    seen, outcome = [], []

    def source():
        for i in range(10):
            if failing == "source" and i == 4:
                raise KeyError("source")
            yield i

    def transform(items):
        for item in items:
            if failing == "transform" and item == 4:
                raise KeyError("transform")
            yield item

    def sink(items):
        try:
            for item in items:
                if failing == "sink" and item == 4:
                    raise KeyError("sink")
                seen.append(item)
        except BaseException as exc:
            outcome.append(type(exc))
            raise

    count = threading.active_count()
    with pytest.raises(KeyError) as info:
        keystream._pipeline(size, source(), transform, sink)
    assert info.value.args == (failing,)
    assert threading.active_count() == count
    # The sink got every item before the failure, or, as the helper reads on
    # before it hands on a result, a prefix of them when the source failed.
    assert seen == [0, 1, 2, 3] or failing == "source" and seen == list(range(len(seen)))
    assert outcome == [keystream._Stopped if failing == "transform" and size else KeyError]


def test_plan_tiles_the_stream_in_whole_frames_or_aligned_pieces(monkeypatch):
    monkeypatch.setattr(cipher, "_PIECE_BYTES", 64)
    monkeypatch.setattr(cipher, "_BATCH_BYTES", 256)
    for size in [1, 7, 8, 15, 63, 64, 65, 71, 72, 127, 129, 273, 1000]:
        for count in (1, 2, 5, 41):
            for cut in (False, True):
                ranges = list(cipher._plan(size, count, cut))
                assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
                assert ranges[-1][1] == size * count
                for start, stop in ranges:
                    if cut and size > 64:  # pieces of one frame, all but its last a multiple of 8
                        assert start // size == (stop - 1) // size and stop - start <= 64
                        assert (stop - start) % 8 == 0 or stop % size == 0
                    else:  # whole frames, as many as fit in a batch
                        assert start % size == stop % size == 0
                        assert stop - start == min(max(1, 256 // size) * size, size * count - start)
