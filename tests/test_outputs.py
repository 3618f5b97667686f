"""Every file the package writes reaches its final name whole.

The kernel cache and each CLI output are written into a fresh sibling that
`keystream._publish` renames over the target once the write succeeds, so a
write that fails or is killed part-way leaves the old file, or none, under
the target's name.
"""

import errno
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chaospip import Frame, cli, keystream, write_pnm
from chaospip.cli import run

KEY_FLAGS = ["--mu", "3.934", "--x0", "0.5250", "--burn-in", "50"]

# Each writing command, with the outputs it writes, in order. IN is a 16x12
# PGM, VIDEO two raw 100x100 gray frames, BOX IN's container, VIDEO_BOX
# VIDEO's and DIR a directory; all of them and the outputs share a directory.
COMMANDS = {
    "encrypt": (["encrypt", "--in", "IN", "--out", "OUT.cpip"], ["OUT.cpip"]),
    "encrypt-as-pnm": (["encrypt", "--in", "IN", "--out", "OUT.cpip", "--as-pnm"],
                       ["OUT.cpip", "OUT.cpip.pgm"]),
    "encrypt-video-as-pnm": (
        ["encrypt", "--in", "VIDEO", "--width", "100", "--height", "100", "--out", "OUT.cpip",
         "--as-pnm"],
        ["OUT.cpip", "OUT.cpip.frame-000000.pgm", "OUT.cpip.frame-000001.pgm"]),
    "decrypt-raw": (["decrypt", "--in", "VIDEO_BOX", "--out", "OUT.raw"], ["OUT.raw"]),
    "decrypt-as-pnm": (["decrypt", "--in", "BOX", "--out", "OUT.pgm", "--as-pnm"], ["OUT.pgm"]),
    "decrypt-video-as-pnm": (["decrypt", "--in", "VIDEO_BOX", "--out", "DIR", "--as-pnm"],
                             ["DIR/frame-000000.pgm", "DIR/frame-000001.pgm"]),
}
COMMANDS = {name: ([*argv, *KEY_FLAGS], outputs) for name, (argv, outputs) in COMMANDS.items()}
COMMANDS["analyze"] = (["analyze", "--plain", "IN", "--cipher", "BOX", "--report", "REPORT.txt"],
                       ["REPORT.txt"])
COMMANDS["keystream-hist"] = (["keystream-hist", *KEY_FLAGS, "--n", "1000", "--bins", "10",
                               "--out", "HIST.csv"], ["HIST.csv"])


def _inputs(directory: Path) -> dict:
    """Writes the inputs into `directory`; returns the path of each word of COMMANDS."""
    rng = np.random.default_rng(27)
    (directory / "in.pgm").write_bytes(write_pnm(
        Frame(16, 12, 1, rng.integers(0, 256, 16 * 12, dtype=np.uint8).tobytes())))
    (directory / "video.raw").write_bytes(rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes())
    (directory / "DIR").mkdir()
    paths = {word: str(directory / word) for _, outputs in COMMANDS.values() for word in outputs}
    paths.update(IN=str(directory / "in.pgm"), VIDEO=str(directory / "video.raw"),
                 BOX=str(directory / "box.cpip"), VIDEO_BOX=str(directory / "video.cpip"),
                 DIR=str(directory / "DIR"))
    assert run(["encrypt", "--in", paths["IN"], "--out", paths["BOX"], *KEY_FLAGS]) == 0
    assert run(["encrypt", "--in", paths["VIDEO"], "--width", "100", "--height", "100",
                "--out", paths["VIDEO_BOX"], *KEY_FLAGS]) == 0
    return paths


def _argv(name: str, paths: dict) -> list:
    return [paths.get(word, word) for word in COMMANDS[name][0]]


def _files(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _cut_short(parts):
    """The first half of the first part, then the error of a full disk."""
    first = bytes(next(iter(parts)))
    yield first[:len(first) // 2]
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("name, failing", [(name, i) for name, (_, outputs) in COMMANDS.items()
                                           for i in range(len(outputs))])
def test_a_write_that_fails_part_way_leaves_the_old_file_and_no_sibling(tmp_path, monkeypatch,
                                                                       name, failing):
    paths = _inputs(tmp_path)
    assert run(_argv(name, paths)) == 0
    written = _files(tmp_path)  # each output, written whole
    outputs = [paths[word] for word in COMMANDS[name][1]]
    for path in outputs:
        Path(path).write_bytes(b"old " + path.encode())
    before = _files(tmp_path)
    calls, cli_write = [], cli._write

    def write(path, parts):  # the real writer, fed a short stream on output `failing`
        calls.append(str(path))
        cli_write(path, _cut_short(parts) if len(calls) - 1 == failing else parts)

    monkeypatch.setattr(cli, "_write", write)
    assert run(_argv(name, paths)) == 2
    assert calls == outputs[:failing + 1]
    after = _files(tmp_path)
    assert after.keys() == before.keys()  # no sibling left behind
    for i, path in enumerate(outputs):
        key = str(Path(path).relative_to(tmp_path))
        assert after[key] == (written[key] if i < failing else before[key])


_KILLED_MID_WRITE = """
import os, signal, sys
from chaospip import cli

def parts(*args):
    header, first, *rest = container_parts(*args)
    yield header
    yield first
    os.kill(os.getpid(), signal.SIGKILL)

container_parts, cli._container_parts = cli._container_parts, parts
cli.run(sys.argv[1:])
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("old", [b"old container", None], ids=["over-a-file", "new-file"])
def test_a_kill_mid_write_leaves_the_old_file_or_none(tmp_path, old):
    paths = _inputs(tmp_path)
    target = Path(paths["OUT.cpip"])
    argv = ["encrypt", "--in", paths["VIDEO"], "--width", "100", "--height", "100",
            "--out", str(target), *KEY_FLAGS]
    if old is not None:
        target.write_bytes(old)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _KILLED_MID_WRITE, *argv], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert (target.read_bytes() if target.exists() else None) == old
    # The kill came after the header and the first frame reached the sibling.
    leftover, = tmp_path.glob("OUT.cpip.*.tmp")
    assert run(argv) == 0
    assert len(leftover.read_bytes()) > 20
    assert target.read_bytes().startswith(leftover.read_bytes())


@pytest.mark.parametrize("name", COMMANDS)
def test_new_outputs_take_the_default_mode(tmp_path, name):
    paths = _inputs(tmp_path)
    umask = os.umask(0o027)
    try:
        assert run(_argv(name, paths)) == 0
    finally:
        os.umask(umask)
    for word in COMMANDS[name][1]:
        assert stat.S_IMODE(os.stat(paths[word]).st_mode) == 0o666 & ~0o027


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_fifo_is_written_in_place(tmp_path):
    paths = _inputs(tmp_path)
    argv = _argv("keystream-hist", paths)
    assert run(argv) == 0
    csv = Path(paths["HIST.csv"]).read_bytes()
    fifo = tmp_path / "hist.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        assert run([str(fifo) if arg == paths["HIST.csv"] else arg for arg in argv]) == 0
        assert os.read(reader, 2 * len(csv)) == csv
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_a_symlink_is_written_through_in_place(tmp_path):
    paths = _inputs(tmp_path)
    real, link = tmp_path / "real.cpip", tmp_path / "link.cpip"
    real.write_bytes(b"old")
    link.symlink_to(real)
    assert run(["encrypt", "--in", paths["IN"], "--out", str(link), *KEY_FLAGS]) == 0
    assert link.is_symlink()
    assert real.read_bytes() == Path(paths["BOX"]).read_bytes()


def test_publish_renames_a_fresh_sibling_over_the_target(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    siblings = []
    for content in (b"new", b"newer"):
        with keystream._publish(target) as tmp:
            tmp = Path(tmp)
            assert tmp.parent == tmp_path and tmp.name.startswith("out.bin.")
            assert not tmp.exists()
            with open(tmp, "xb") as file:
                file.write(content)
            siblings.append(tmp)
        assert target.read_bytes() == content
        assert list(tmp_path.iterdir()) == [target]
    assert siblings[0] != siblings[1]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_publish_removes_the_sibling_when_the_block_fails(tmp_path, error):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(error):
        with keystream._publish(target) as tmp:
            Path(tmp).write_bytes(b"part")
            raise error
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old"


def test_publish_removes_the_sibling_when_the_rename_fails(tmp_path):
    target = tmp_path / "out"
    (target / "inside").mkdir(parents=True)  # a rename cannot replace a non-empty directory
    with pytest.raises(OSError):
        with keystream._publish(target) as tmp:
            Path(tmp).write_bytes(b"whole")
    assert list(tmp_path.iterdir()) == [target]


LONG_NAMES = {"ascii-250": "o" * 250, "ascii-255": "o" * 255, "utf8-240": "é" * 120}


@pytest.mark.parametrize("name", LONG_NAMES.values(), ids=LONG_NAMES)
def test_a_long_output_name_is_written_whole(tmp_path, name):
    # <name>.<12 hex>.tmp would pass the 255-byte name limit, so the sibling's
    # copy of the name is cut, by whole characters.
    paths = _inputs(tmp_path)
    before = set(tmp_path.iterdir())
    short, long = tmp_path / "short.cpip", tmp_path / name
    for out in (short, long):
        assert run(["encrypt", "--in", paths["IN"], "--out", str(out), *KEY_FLAGS]) == 0
    assert long.read_bytes() == short.read_bytes()
    assert set(tmp_path.iterdir()) - before == {short, long}


@pytest.mark.parametrize("name", [*LONG_NAMES.values(), "o" + "é" * 120],
                         ids=[*LONG_NAMES, "utf8-241"])
def test_publish_cuts_a_long_name_by_whole_characters(tmp_path, name):
    with keystream._publish(tmp_path / name) as tmp:
        tmp = Path(tmp)
        sibling = os.fsencode(tmp.name)
        assert tmp.parent == tmp_path and tmp.name.endswith(".tmp")
        assert 255 - 4 < len(sibling) <= 255  # as long as fits, less at most one character
        assert name.startswith(sibling[:-17].decode("utf-8"))  # strict: no character split
        tmp.write_bytes(b"whole")
    assert list(tmp_path.iterdir()) == [tmp_path / name]
