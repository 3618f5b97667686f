"""chaospip benchmark: CLI throughput, memory, set-up time and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workloads and metrics are
declared in BENCHMARK.json; workloads.py builds each workload's inputs
from the seed. One child process (worker.py) imports the package from
src/, warms up, and drives `chaospip.cli.run(argv)` in a closed loop with
one client for S seconds; this process then checks every output against
expected values computed without the package (reference.py, the
straight-line tests/refcipher.py and digests pinned from the seed commit
in pinned.json).

--trace 0 reports the end-to-end metrics: per-command throughput (work
over time, pooled over all of the run's calls), the worker's peak RSS,
and set-up time (median of several cold starts: interpreter, import, one
tiny call of each command). Throughput and set-up time are scaled to a
reference host speed measured by a fixed loop in the worker (NOTES.md,
"Host speed"); the raw figures are printed too.
--trace 1 runs the loop once untraced and once with spans.Tracer
installed, and reports per-layer self times and work counts per pass
(each command once), plus the tracing overhead. Self times and rates are
scaled to the reference host speed like the end-to-end figures.

Human-readable lines (environment, error rate, sample counts, per-command
span breakdown) come first; the last stdout line is one JSON object with
correct/attempted/failed/metrics. Exit code 2 means the checkout is not
usable and nothing was measured.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 15
# Reference host speed, in seconds per iterate of worker.host_speed()'s
# loop. Timed figures are scaled to it, because a shared host's speed can
# drift by 1.5x between runs (NOTES.md, "Host speed").
REF_S_PER_ITERATE = 50e-9
# Within a pass a short command repeats until it has run this long, so the
# short commands do not crowd out the long ones in the loop.
MIN_OP_S = 0.5
# Children are killed once the run has taken (1 + trace) loops of
# --seconds plus LOOP_SLACK_S each (a loop overruns by up to one pass),
# plus SETUP_SLACK_S for the inputs, the reference and the cold starts.
LOOP_SLACK_S = 40
SETUP_SLACK_S = 30
FLOAT_TOL = 1e-9  # analyze entropy/corr values against the reference

LAYER_TIMES = [
    "keystream.take_bytes", "keystream.skip", "cipher.transform_plane",
    "cipher.process_stream", "io.read_pnm", "io.write_pnm", "io.read_container",
    "io.write_container", "analysis.compare_frames", "analysis.histogram256",
    "analysis.corr2d", "analysis.keystream_histogram", "cli.run",
]


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def load_refcipher():
    spec = importlib.util.spec_from_file_location("refcipher", ROOT / "tests" / "refcipher.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu,
        "nproc": os.cpu_count(), "loadavg": [round(v, 2) for v in os.getloadavg()],
        "commit": commit,
    }


def run_child(args: list[str], deadline: float) -> str:
    """Run worker.py to completion (or kill it at the deadline); return its stdout."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(job_path: Path, deadline: float) -> tuple[list[float], list[float]]:
    """Cold-start seconds of SETUP_RUNS fresh workers, and the host speed after each."""
    times, speeds = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        done, speed = map(float, run_child([str(job_path), os.devnull, "--setup-only"], deadline).split())
        times.append(done - t0)
        speeds.append(speed)
    return times, speeds


def run_loop(job: dict, work: Path, trace: bool, deadline: float) -> dict:
    job = dict(job, trace=trace)
    job_path, result_path = work / f"job-{int(trace)}.json", work / f"result-{int(trace)}.json"
    job_path.write_text(json.dumps(job))
    run_child([str(job_path), str(result_path)], deadline)
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def check_report(text: str, expected: tuple[dict, dict]):
    """Why an analyze report is wrong, or None if it is right."""
    try:
        hists, values = reference.parse_report(text)
    except (ValueError, AttributeError, TypeError):
        return "report does not parse"
    want_hists, want_values = expected
    if hists != want_hists:
        return "report histogram rows differ"
    if values.keys() != want_values.keys() or any(
            abs(values[k] - v) > FLOAT_TOL for k, v in want_values.items()):
        return "report entropy/corr values differ"
    return None


def verify(ops, records: list[dict]) -> list[str]:
    """One line per timed call whose output is wrong."""
    by_metric = {op.metric: op for op in ops}
    report_verdicts = {}  # report digest -> reason or None; the worker sends each text once
    for r in records:
        if "text" in r:
            report_verdicts[r["digest"]] = check_report(r["text"], by_metric[r["metric"]].expect_report)
    failures = []
    for r in records:
        op = by_metric[r["metric"]]
        if r["rc"] != 0 or "digest" not in r:
            why = f"exit code {r['rc']} or no output"
        elif op.expect_digest is not None and r["digest"] != op.expect_digest:
            why = "output differs from the expected digest"
        elif r["ranges"] != op.expect_ranges:
            why = "ciphertext differs from tests/refcipher.py"
        elif op.expect_report is not None:
            why = report_verdicts.get(r["digest"], "report text missing")
        else:
            why = None
        if why:
            failures.append(f"{r['metric']}: {why}")
    return failures


def host_s_per_iterate(result: dict) -> float:
    """The run's host speed: the mean of its speed samples, weighted by time.

    Each command batch's time is weighted by the mean of the samples taken
    just before and just after it. Throughput pools its calls' times in the
    same way, so a run that spends a third of its time in a slow regime
    gives that regime a third of the weight, whatever its share of the
    samples.
    """
    speeds, batches = result["host_s_per_iterate"], result["batch_seconds"]
    return math.fsum(t * (a + b) / 2 for t, a, b in zip(batches, speeds, speeds[1:])) / math.fsum(batches)


def host_factor(result: dict) -> float:
    """How much slower than the reference host the run's host was."""
    return host_s_per_iterate(result) / REF_S_PER_ITERATE


def layer_metrics(traced: dict, untraced: dict, ops) -> tuple[dict, list[str], list[str]]:
    """Per-pass layer figures from spans, the span-sum check, and a breakdown.

    Times and rates are scaled by the traced run's host speed, and the
    overhead ratio compares the two runs' scaled call times.
    """
    spans, records = traced["spans"], traced["records"]
    self_s = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    per_call = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))  # run -> layer -> [s, count, calls]
    roots = defaultdict(float)
    for i, (name, start, end, parent, run_id, count) in enumerate(spans):
        acc = per_call[run_id][name]
        acc[0] += self_s[i]
        acc[1] += count
        acc[2] += 1
        if parent < 0:
            roots[run_id] += end - start

    problems, remainders = [], []
    for run_id, record in enumerate(records):
        total = sum(acc[0] for acc in per_call[run_id].values())
        remainder = record["seconds"] - total
        remainders.append(remainder)
        if (abs(total - roots[run_id]) > 1e-6 or remainder < -1e-6
                or remainder > 1e-3 + 0.01 * record["seconds"]):
            problems.append(f"{record['metric']}: span self times sum to {total:.6f} s "
                            f"of {record['seconds']:.6f} s wall")

    # One pass = every command once: average each command's calls, then sum.
    per_pass = defaultdict(lambda: [0.0, 0.0, 0.0])
    breakdown, remainder_pass = [], 0.0
    for op in ops:
        ids = [i for i, r in enumerate(records) if r["metric"] == op.metric]
        wall = statistics.fmean(records[i]["seconds"] for i in ids)
        remainder_pass += statistics.fmean(remainders[i] for i in ids)
        shares = defaultdict(float)
        for i in ids:
            for name, acc in per_call[i].items():
                for k in range(3):
                    per_pass[name][k] += acc[k] / len(ids)
                shares[name] += acc[0] / len(ids)
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
        breakdown.append(f"# {op.argv[0]}: {wall:.4f} s per call; self time "
                         + ", ".join(f"{n} {100 * s / wall:.1f}%" for n, s in top))

    def scaled_pass_wall(result):
        return sum(statistics.median(r["seconds"] for r in result["records"] if r["metric"] == op.metric)
                   for op in ops) / host_factor(result)

    host = host_factor(traced)
    take, skip, plane = per_pass["keystream.take_bytes"], per_pass["keystream.skip"], \
        per_pass["cipher.transform_plane"]
    metrics = {f"{name}.self_s": (per_pass[name][0] / host, "s") for name in LAYER_TIMES}
    metrics.update({
        "keystream.take_bytes.bytes": (take[1], "bytes"),
        "keystream.take_bytes.mb_s": (take[1] / take[0] * host / 1e6, "MB/s"),
        "keystream.skip.iterates": (skip[1], "count"),
        "cipher.iterates_per_key_byte": ((skip[1] + take[1]) / plane[1], "ratio"),
        "cipher.transform_plane.calls": (plane[2], "count"),
        "trace.overhead_ratio": (scaled_pass_wall(traced) / scaled_pass_wall(untraced), "ratio"),
        "trace.remainder_s": (remainder_pass / host, "s"),
    })
    return metrics, problems, breakdown


def throughput(result: dict, op) -> float:
    """Work per second over all of the run's calls of `op`."""
    seconds = [r["seconds"] for r in result["records"] if r["metric"] == op.metric]
    return op.units * len(seconds) / math.fsum(seconds)


def end_to_end(result: dict, ops, setup: list[float], setup_speeds: list[float]) -> dict:
    host = host_factor(result)
    metrics = {op.metric: (throughput(result, op) * host / 1e6,
                           "Miter/s" if op.metric == "keyhist_miter_s" else "MB/s") for op in ops}
    metrics["peak_rss_mb"] = (result["peak_rss_kb"] * 1024 / 1e6, "MB")
    metrics["setup_s"] = (statistics.median(setup) * REF_S_PER_ITERATE / statistics.median(setup_speeds), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + (1 + args.trace) * (args.seconds + LOOP_SLACK_S) + SETUP_SLACK_S

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    for needed in ("src/chaospip/__init__.py", "tests/refcipher.py"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} is missing; run from the root of a chaospip checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    declared = manifest["per_layer" if args.trace else "end_to_end"]
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state))
    try:
        plan = workloads.build(args.workload, args.seed, work, load_refcipher())
        pinned = json.loads((HERE / "pinned.json").read_text()).get(f"{args.workload}/{args.seed}")
        if pinned and pinned != plan.digests():
            raise BenchError("reference outputs disagree with the digests pinned from the seed commit")
        job = {"src": str(ROOT / "src"), "seconds": args.seconds, "min_op_s": MIN_OP_S,
               "warmup": plan.warmup, "ops": [op.job() for op in plan.ops]}
        env = environment()
        untraced = run_loop(job, work, False, deadline)
        records = list(untraced["records"])
        notes = []
        if args.trace:
            traced = run_loop(job, work, True, deadline)
            records += traced["records"]
            metrics, problems, notes = layer_metrics(traced, untraced, plan.ops)
        else:
            setup, setup_speeds = measure_setup(work / "job-0.json", deadline)
            metrics, problems = end_to_end(untraced, plan.ops, setup, setup_speeds), []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = verify(plan.ops, records)
    for line in (failures + problems)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    wrong_unit = [m["name"] for m in declared if m["unit"] != metrics[m["name"]][1]]
    if wrong_unit:
        raise BenchError(f"units differ from BENCHMARK.json: {wrong_unit}")
    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"passes={untraced['passes']}")
    print(f"# env {json.dumps(env)}")
    for label, loop in [("", untraced)] + ([("traced ", traced)] if args.trace else []):
        print(f"# {label}host speed: {host_s_per_iterate(loop) * 1e9:.2f} ns per calibration iterate, "
              f"time-weighted over {len(loop['host_s_per_iterate'])} samples")
    for op in plan.ops:
        rates = [r / 1e6 for r in untraced["rates"][op.metric]]
        calls = sum(r["metric"] == op.metric for r in untraced["records"])
        print(f"# {op.metric}: {throughput(untraced, op) / 1e6:.4g} over {calls} calls; "
              f"per pass [{' '.join(f'{r:.4g}' for r in rates)}]")
    if not args.trace:
        print(f"# setup_s: raw median {statistics.median(setup):.4g}, host "
              f"{statistics.median(setup_speeds) * 1e9:.2f} ns, of {len(setup)} cold starts "
              f"[{' '.join(f'{t:.4g}' for t in setup)}]")
    for line in notes:
        print(line)
    # error_rate is printed here, not in the JSON: it reads 0 on a correct program.
    metrics["error_rate"] = (len(failures) / len(records), f"ratio ({len(failures)} of {len(records)} calls)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": not failures and not problems, "attempted": len(records),
              "failed": len(failures), "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
