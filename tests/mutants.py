"""A catalogue of mutants that tier-1 must kill, and the runner that checks it.

Each entry changes one piece of text, `old`, that occurs exactly once in one
file of the package, into `new`. The runner copies the tree to a temporary
directory, applies one entry there and runs tier-1 on the copy with `-x -q`
and a private `XDG_CACHE_HOME`, so each mutant builds its own kernel. A
mutant is killed when tier-1 fails; the first failing test is reported. An
entry whose `old` text no longer occurs exactly once fails the run, so the
catalogue cannot rot unseen.

The native kernel's load probe guards every load, and a C mutant it refuses
falls back to the oracle, where tier-1 would pass with the native-only tests
skipped. So for a `_kernel.c` entry the runner first reads `keystream.BACKEND`
in the copy: "python" means the probe refused the mutant ("killed by the
probe"). Every other run checks that the backend is the one it means to test.

Every entry runs on the native kernel, and every Python entry also on the
oracle, with no compiler on PATH. An equivalent mutant stays in the
catalogue, marked, with its reason, and must survive: all of tier-1 runs on
it, on both kernels. Those runs are the control. A copy in which tier-1
fails for a reason unrelated to the mutant (a file the copy lacks, an
environment it does not suit) reads every other entry as killed; the
equivalent entries then fail the run, so the catalogue must keep one of
Python code. Tier-1 runs each copy's test files in full, the ones named after the
mutated module first, so a mutant is usually killed early. pytest does not
collect this file. Run it from the repository root:

    python tests/mutants.py --jobs 2    # two copies at a time
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    equivalent: bool = False


CATALOGUE = [
    # Item 17's first five: two equivalent, three once-surviving gaps now closed.
    Mutant("src/chaospip/io.py",
           "if width < 1 or height < 1 or count < 1:",
           "if width < 1 or height < 1 or count < 0:",
           "a container of 0 frames still fails: read_raw refuses the empty payload",
           equivalent=True),
    Mutant("src/chaospip/keystream.py",
           "x0 = (float(k2) + 1.0) / (_TWO_128 + 2.0)",
           "x0 = (float(k2) + 1.0) / (_TWO_128 + 4.0)",
           "2^128 + 2 and 2^128 + 4 both round to 2^128 in binary64",
           equivalent=True),
    Mutant("src/chaospip/cipher.py",
           "if end < span:",
           "if end < span - 1:",
           "a per-frame batch seam at stride = frame_bytes - 1 hands on a state one iterate late"),
    Mutant("src/chaospip/analysis.py",
           "if iterations < bins:",
           "if iterations < bins - 1:",
           "keystream_histogram accepts one iteration fewer than its bins"),
    Mutant("src/chaospip/_kernel.c",
           "counts[b < bins - 1 ? b : bins - 1] += 1;",
           "counts[i == 5000000 ? 0 : (b < bins - 1 ? b : bins - 1)] += 1;",
           "bins miscounts one state, only at iterate 5,000,000"),
    Mutant("src/chaospip/_kernel.c",
           "out[i] = (uint8_t)((b < 255 ? b : 255) ^ ((low + i) & 0xFF));",
           "out[i] = (uint8_t)((b < 255 ? b : 255) ^ ((low + i + 1) & 0xFF));",
           "key bytes are whitened with the next counter value"),
    # The size rule and the fork-join helper that carries it out.
    Mutant("src/chaospip/keystream.py",
           "return size >= _CONCURRENT_BYTES",
           "return size > _CONCURRENT_BYTES",
           "a task of exactly _CONCURRENT_BYTES runs serially"),
    Mutant("src/chaospip/keystream.py",
           "if not _helped(size) or len(calls) < 2:",
           "if not _helped(size) or len(calls) < 1:",
           "a single call, such as a gray frame's one pass, starts an idle helper"),
    Mutant("src/chaospip/keystream.py",
           "raise errors[min(errors)]",
           "raise errors[max(errors)]",
           "the last failure in call order is raised, not the first"),
    Mutant("src/chaospip/keystream.py",
           "args=(range(1, len(calls)),)",
           "args=(range(2, len(calls)),)",
           "the helper skips the second call"),
    Mutant("src/chaospip/keystream.py",
           "    _loaded()\n    results, errors",
           "    results, errors",
           "the kernel may first be loaded on the helper, behind functools.cache with no lock"),
    Mutant("src/chaospip/cli.py",
           "plain, data = keystream._concurrently(size, lambda: read_pnm(_read(args.plain)),\n"
           "                                          lambda: _read(args.cipher))",
           "data, plain = keystream._concurrently(size, lambda: _read(args.cipher),\n"
           "                                          lambda: read_pnm(_read(args.plain)))",
           "analyze reads the cipher file first and read_pnm runs on the helper"),
    Mutant("src/chaospip/cli.py",
           "size = os.path.getsize(args.cipher) if os.path.isfile(args.cipher) else -1",
           "size = os.path.getsize(args.cipher)",
           "a missing cipher file fails before the plain file is read"),
    # The frame loop on two threads (keystream._pipeline) and the pieces it hands on.
    Mutant("src/chaospip/cipher.py",
           "yield start, min(start + piece, frame + size)",
           "yield start, min(start + piece + 8, frame + size)",
           "each piece of a frame is 8 bytes too long, so pieces overlap"),
    Mutant("src/chaospip/keystream.py",
           "    if not _helped(size):\n        return sink(transform(source))",
           "    if not _helped(size - 1):\n        return sink(transform(source))",
           "the loop's call applies the size rule with <= : a stream of exactly _CONCURRENT_BYTES runs serially"),
    Mutant("src/chaospip/cli.py",
           "if not keystream._helped(size := _size(file)):",
           "if not keystream._helped((size := _size(file)) - 1):",
           "decrypt reads a container of exactly _CONCURRENT_BYTES whole into Frames, with no helper"),
    Mutant("src/chaospip/keystream.py",
           "while (item := inbox.get()) is not _END:",
           "while (item := inbox.get_nowait()) is not _END:",
           "the loop reads a piece without waiting for the helper to hand it in"),
    Mutant("src/chaospip/cipher.py",
           "key += keystream.take_bytes(after, span - end)[0]",
           "key += keystream.take_bytes(after, span - end - 1)[0]",
           "the split draw of overlapping windows draws one key byte too few after frame n's start"),
    Mutant("src/chaospip/cipher.py",
           "state = keystream.skip(first, stride)",
           "state = keystream.skip(state, stride)",
           "a per-frame frame cut into pieces keys the next frame from its end, not its start"),
    Mutant("src/chaospip/io.py",
           "upto(i, 3 * min(stop, len(planar[i]) // 3))",
           "upto(i, min(stop, len(planar[i]) // 3))",
           "a red-plane piece is de-interleaved before its pixels are read"),
    Mutant("src/chaospip/cli.py",
           "        upto(offset + stop)",
           "        upto(stop)",
           "a container's pieces are handed on before their last header-size bytes are read"),
    Mutant("src/chaospip/io.py",
           "if (whole := 3 * (filled - 2 * n)) > written:",
           "if (whole := 3 * (filled - n)) > written:",
           "a PPM's pixels are written before their blue bytes are in"),
    Mutant("src/chaospip/cli.py",
           "kept = list(_frame_parts(outputs, stream.size))",
           "kept = _frame_parts(outputs, stream.size)",
           "a multi-frame --as-pnm export writes frames before the loop has finished"),
    Mutant("src/chaospip/cipher.py",
           "for start, stop in _plan(size, len(datas)))",
           "for start, stop in _plan(size, len(datas), True))",
           "process_stream cuts a large frame into pieces"),
    # entropy_of_counts' refusal of invalid histograms.
    Mutant("src/chaospip/analysis.py",
           "counts.min(initial=0.0) < 0 or",
           "counts.min(initial=0.0) < -1 or",
           "a count between -1 and 0 is accepted"),
    Mutant("src/chaospip/analysis.py",
           "not math.isfinite(total := counts.sum())",
           "math.isnan(total := counts.sum())",
           "an infinite count gives nan bits instead of ValueError"),
    Mutant("src/chaospip/analysis.py",
           'with np.errstate(over="ignore"):',
           'with np.errstate(over="warn"):',
           "finite counts whose sum overflows warn before ValueError"),
]

# pytest's exit codes for failed tests and for an interrupted (collection) run.
_KILLED = (1, 2)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _mutated(tree: Path, mutant: Mutant) -> str:
    """The text of `mutant.file` under `tree` with the mutant applied."""
    text = (tree / mutant.file).read_text()
    if (count := text.count(mutant.old)) != 1:
        raise LookupError(f"{mutant.file}: the old text occurs {count} times, not once: {mutant.old!r}")
    return text.replace(mutant.old, mutant.new)


def _env(tree: Path, kernel: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH="src", XDG_CACHE_HOME=str(tree / "cache"))
    if kernel == "python":  # no compiler on PATH, as CI's no-compiler step runs
        env["PATH"] = ""
    return env


def _test_files(tree: Path, mutant: Mutant) -> list[str]:
    stem = Path(mutant.file).stem
    first = "test_native" if stem == "_kernel" else f"test_{stem}"
    files = sorted((tree / "tests").glob("test_*.py"))
    return [str(f.relative_to(tree)) for f in sorted(files, key=lambda f: not f.stem.startswith(first))]


def run_one(mutant: Mutant, kernel: str) -> tuple[str, str]:
    """('killed' | 'survived' | 'error', detail) for `mutant` on `kernel`."""
    with tempfile.TemporaryDirectory(prefix="chaospip-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        (tree / mutant.file).write_text(_mutated(tree, mutant))
        env = _env(tree, kernel)
        probe = subprocess.run([sys.executable, "-c", "from chaospip import keystream; print(keystream.BACKEND)"],
                               cwd=tree, env=env, capture_output=True, text=True)
        backend = probe.stdout.strip()
        if probe.returncode != 0:
            return "killed", f"by the import: {probe.stderr.strip().splitlines()[-1:]}"
        if backend != kernel:
            if mutant.file.endswith(".c"):
                return "killed", "by the probe"
            return "error", f"backend is {backend!r}, expected {kernel!r}"
        tests = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors", *_test_files(tree, mutant)],
                               cwd=tree, env=env, capture_output=True, text=True)
        if tests.returncode == 0:
            return "survived", tests.stdout.strip().splitlines()[-1]
        if tests.returncode in _KILLED:
            failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", tests.stdout, re.M)
            return "killed", f"by {failed[0] if failed else tests.stdout.strip().splitlines()[-1]}"
        return "error", f"pytest exited {tests.returncode}: {tests.stdout.strip().splitlines()[-1:]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at a time (default: 1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if not any(m.equivalent and not m.file.endswith(".c") for m in CATALOGUE):
        parser.error("the catalogue needs an equivalent Python entry: it is the control run on both kernels")

    failed = False
    for i, mutant in enumerate(CATALOGUE):  # every entry's text, before any run
        try:
            _mutated(ROOT, mutant)
        except LookupError as exc:
            print(f"[{i}] stale: {exc}")
            failed = True
    if failed:
        return 1

    runs = [(i, kernel) for kernel in ("native", "python") for i, mutant in enumerate(CATALOGUE)
            if kernel == "native" or not mutant.file.endswith(".c")]
    start = time.perf_counter()

    def timed(run):
        began = time.perf_counter()
        return (*run_one(CATALOGUE[run[0]], run[1]), time.perf_counter() - began)

    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for (i, kernel), (outcome, detail, seconds) in zip(runs, pool.map(timed, runs)):
            mutant = CATALOGUE[i]
            wanted = "survived" if mutant.equivalent else "killed"
            failed |= outcome != wanted
            mark = "ok  " if outcome == wanted else "FAIL"
            print(f"{mark} [{i}] {kernel:6} {seconds:5.1f}s {outcome} {detail}\n"
                  f"         {mutant.file}: {mutant.reason}", flush=True)
    print(f"{len(runs)} run(s) in {time.perf_counter() - start:.1f}s, "
          f"{sum(m.equivalent for m in CATALOGUE)} entries equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
