"""qfilter benchmark: one run of one workload.

    python3 perfbench/run.py --workload train-sweep --seed 1 --seconds 15 --trace 0

Workloads: train-sweep, classify-stream, selftest (see perfbench/README.md).
The run builds its inputs from --seed, loops the workload for at least
--seconds, checks every output, and prints two JSON lines on stdout: a stamp
(machine, problem sizes, sample counts), then the result
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the same schedule runs under the span
tracer, the metrics are per layer, and the spans are written to
perfbench/out/spans-<workload>-seed<seed>.json.

The library is imported from src/ of the checkout this file sits in, never
from an installed copy. Exit codes: 0 every gate passed, 1 a gate or
operation failed (the result line is still printed), 2 no qfilter sources
next to the benchmark or bad arguments.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_qfilter() -> None:
    if not (SRC / "qfilter" / "__init__.py").is_file():
        raise SystemExit(f"error: no qfilter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qfilter

    if Path(qfilter.__file__).resolve().parent != SRC / "qfilter":
        raise SystemExit(f"error: qfilter imported from {qfilter.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-sweep", "classify-stream", "selftest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_qfilter()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import harness

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result, stamp = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), str(workdir),
            spans_path=str(spans) if spans else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
