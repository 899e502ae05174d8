"""Long-lived experiment process: whole passes of one workload through
``nmhl.cli.main`` in a single interpreter, one pass per request.

The harness writes ``pass <index>`` lines to stdin; for each the worker runs
every experiment once, in the order the seed gives that pass, and answers
with one JSON line: the pass's start and end, and per experiment its name,
exit code, seconds and output digests.  Only the ``main(argv)`` call is
timed.  After each call the output files are stored by content hash, so the
harness can check each distinct output once.  When stdin closes the worker
writes its recorded spans (with ``--spans``) and exits.  Anything nmhl
prints goes to stderr, which the harness keeps as a log.

Run by ``run.py``; it expects ``src`` of the checkout on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads


def store_outputs(out_dir: Path, store: Path) -> dict:
    """{file name: sha256} of a finished experiment, copied into ``store``."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        target = store / digest
        if not target.exists():
            target.write_bytes(data)
        digests[path.name] = digest
    return digests


def call_main(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1


def run_pass(main, experiments, seed, index, out_root: Path, store: Path):
    ops = []
    for exp in workloads.pass_order(experiments, seed, "warm", index):
        out_dir = out_root / exp.name.split("/")[1]
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = exp.argv(out_dir)
        start = time.perf_counter()
        rc = call_main(main, argv)
        seconds = time.perf_counter() - start
        ops.append([exp.name, rc, seconds, store_outputs(out_dir, store)])
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path,
                        help="record spans around the public nmhl functions "
                        "and write them here at exit")
    args = parser.parse_args()

    # answers go to the original stdout; nmhl's own prints go to stderr
    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    experiments = workloads.load(args.workload)
    import nmhl.cli

    recorder = None
    if args.spans:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    store = args.out / "store"
    store.mkdir(parents=True, exist_ok=True)

    reply.write(json.dumps({"nmhl": nmhl.__file__}) + "\n")
    reply.flush()
    for line in sys.stdin:
        command, _, index = line.partition(" ")
        if command != "pass":
            raise SystemExit(f"unknown request {line!r}")
        start = time.perf_counter()
        ops = run_pass(nmhl.cli.main, experiments, args.seed, int(index),
                       args.out, store)
        reply.write(json.dumps({"index": int(index), "start": start,
                                "end": time.perf_counter(), "ops": ops}) + "\n")
        reply.flush()

    if recorder is not None:
        args.spans.write_text(json.dumps(recorder.spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
