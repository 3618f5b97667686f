"""Regenerate pinned.json: the program's output digests for seeds 0 to 31.

    python3 perfbench/pin.py

For every workload and seed in SEEDS it builds the inputs, runs `encrypt` and
`keystream-hist` once through `chaospip.cli.run`, and records the digests
of the container and the CSV after checking that they equal the
benchmark's own reference outputs. Run it only at a commit whose outputs
are known to be right; the file committed with the benchmark was made at
the seed commit, and run.py refuses to measure a pinned seed whose
reference outputs no longer match it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, load_refcipher

SEEDS = range(32)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from chaospip import cli

    refcipher = load_refcipher()
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    pinned = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            work = Path(tempfile.mkdtemp(prefix="pin-", dir=state))
            try:
                plan = workloads.build(name, seed, work, refcipher)
                ops = {op.metric: op for op in plan.ops}
                digests = {}
                for key, op in (("container", ops["encrypt_mb_s"]), ("keyhist", ops["keyhist_miter_s"])):
                    with contextlib.redirect_stderr(io.StringIO()):
                        if cli.run(op.argv) != 0:
                            sys.exit(f"{name}/{seed}: {op.argv[0]} failed")
                    digests[key] = hashlib.sha256(op.out.read_bytes()).hexdigest()
                if digests != plan.digests():
                    sys.exit(f"{name}/{seed}: program and reference outputs differ")
                pinned[f"{name}/{seed}"] = digests
                print(f"{name}/{seed}", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
