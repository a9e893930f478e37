"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/record.py --runs 10 --out perfbench/BENCH_0.json

Each run is a fresh process of perfbench/run.py with its own seed (seed0,
seed0 + 1, ...); workloads are interleaved run by run so slow phases of the
machine fall on all of them alike. For every workload and end-to-end metric
the summary holds the values, their median and quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median, and
the bound from BENCHMARK.json. The exit code is 1 if any run failed or any
spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    stamps: dict[str, dict] = {}
    failed_runs = 0
    for i in range(args.runs):
        seed = args.seed0 + i
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            wall = time.perf_counter() - t0
            if proc.returncode != 0 or not lines:
                failed_runs += 1
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            stamps.setdefault(w, json.loads(lines[-2])["stamp"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)

    summary = {w: {name: summarise(v, bounds.get(name)) for name, v in sorted(ms.items())}
               for w, ms in values.items() if all(len(v) >= 2 for v in ms.values())}
    too_wide = []
    for w, ms in summary.items():
        for name, s in ms.items():
            flag = ""
            if s["bound"] is not None and s["spread"] > s["bound"]:
                too_wide.append(f"{w}/{name}")
                flag = "  > bound"
            elif s["bound"] and s["spread"] > s["bound"] / 3:
                flag = "  > bound/3"
            print(f"{w:16s} {name:26s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.out:
        record = {
            "runs_per_workload": args.runs, "seeds": [args.seed0, args.seed0 + args.runs - 1],
            "seconds": args.seconds, "command": bench["command"],
            "machine": next(iter(stamps.values()))["machine"] if stamps else None,
            "problem": next(iter(stamps.values()))["problem"] if stamps else None,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if failed_runs or too_wide:
        print(f"failed runs: {failed_runs}; spreads over bound: {too_wide}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
