"""Child process: runs one workload's commands and records what they did.

    python3 perfbench/worker.py JOB.json RESULT.json [--setup-only]

The job (written by run.py) names the source tree, the warm-up and timed
command lines, and how long to run. After importing chaospip and running
every warm-up command once, --setup-only prints time.monotonic() and the
host speed, and exits, so the parent can time a cold start. Otherwise
the timed commands run in a closed loop with one client: each pass runs
every command in order, each at least once and again until it has taken
`min_op_s`, and passes repeat while another one still fits in `seconds`.
The host speed is sampled before the loop and after every command batch.
Outputs are hashed after each call, outside the timed region; the parent
checks them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def observe(op: dict, texts_seen: set) -> dict:
    """Digests of the output file and of its checked byte ranges.

    A text output is returned too, once per distinct digest, so repeated
    identical reports neither cost memory here nor need re-checking.
    """
    h = hashlib.sha256()
    with open(op["out"], "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
        ranges = []
        for offset, length in op["ranges"]:
            f.seek(offset)
            ranges.append(hashlib.sha256(f.read(length)).hexdigest())
    seen = {"digest": h.hexdigest(), "ranges": ranges}
    if op["text"] and seen["digest"] not in texts_seen:
        texts_seen.add(seen["digest"])
        seen["text"] = Path(op["out"]).read_text()
    return seen


CAL_ITERATES = 200_000


def host_speed() -> float:
    """Seconds per iterate of a fixed pure-Python logistic-map loop.

    The parent scales timed figures by the run's time-weighted mean of
    this, so that drift in the shared host's speed does not read as a
    program change.
    """
    x = 0.3
    t0 = time.perf_counter()
    for _ in range(CAL_ITERATES):
        x = 3.9 * (x * (1.0 - x))
    return (time.perf_counter() - t0) / CAL_ITERATES


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    from chaospip import cli

    # The program's diagnostics are dropped: an error message may quote a key.
    with contextlib.redirect_stderr(io.StringIO()):
        failed = [argv[0] for argv in job["warmup"] if cli.run(argv) != 0]
    if failed:
        sys.exit(f"warm-up failed: {failed}")
    if "--setup-only" in sys.argv:
        print(time.monotonic(), host_speed())
        return

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = cli.run  # looked up after install, so a traced run gets the wrapper

    records: list[dict] = []
    speeds = [host_speed()]
    batch_seconds: list[float] = []  # one per command batch, between two speed samples
    texts_seen: set[str] = set()
    rates: dict[str, list[float]] = {op["metric"]: [] for op in job["ops"]}
    start = time.monotonic()
    passes = 0
    with contextlib.redirect_stderr(io.StringIO()):
        while True:
            pass_start = time.monotonic()
            for op in job["ops"]:
                spent, calls = 0.0, 0
                while calls == 0 or spent < job["min_op_s"]:
                    Path(op["out"]).unlink(missing_ok=True)
                    if tracer:
                        tracer.run_id = len(records)
                    t0 = time.perf_counter()
                    try:
                        rc = run(op["argv"])
                    except Exception:  # an uncaught error fails this call, not the run
                        rc = -1
                    seconds = time.perf_counter() - t0
                    spent += seconds
                    calls += 1
                    record = {"metric": op["metric"], "rc": rc, "seconds": seconds}
                    if rc == 0:
                        with contextlib.suppress(OSError):  # a missing output fails the check
                            record.update(observe(op, texts_seen))
                    records.append(record)
                rates[op["metric"]].append(calls * op["units"] / spent)
                batch_seconds.append(spent)
                speeds.append(host_speed())
            passes += 1
            now = time.monotonic()
            if now - start + (now - pass_start) > job["seconds"]:
                break

    result = {
        "passes": passes,
        "rates": rates,
        "host_s_per_iterate": speeds,
        "batch_seconds": batch_seconds,
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
