#!/usr/bin/env python3
"""Repeat each workload and report how steady its end-to-end metrics are.

Run from the root of a checkout:

    python3 benchmarks/steady.py --runs 10 [--workload explore]

Each run is ``benchmarks/run.py`` with seeds 1..runs and the
``run_seconds`` of BENCHMARK.json, one run at a time.  For every
end-to-end metric of BENCHMARK.json, and for the per-command times that
make up ``wall_s``, it prints the median of the runs and the quartile
spread (Q3 - Q1, from ``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound.  A metric is steady when its
spread is below a third of its bound.  It also prints each run's share
of failed operations, which must be the same in every run.  The last
line is a JSON object with the same figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Steadiness of the end-to-end metrics.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default every workload")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values, commands, shares = {}, {}, []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith("commands "):
                    for name, v in json.loads(line[len("commands "):]).items():
                        commands.setdefault(name, []).append(v)
            shares.append(f"{result['failed']}/{result['attempted']}")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items())
                + f", failed {shares[-1]}", flush=True)
        report[workload] = {"failed": shares, "metrics": {}}
        print(f"{workload}: {args.runs} runs")
        for name, vals in list(values.items()) + list(commands.items()):
            med, sp = spread(vals)
            bound = bounds.get(name)
            verdict = "-" if bound is None else (
                "steady" if sp < bound / 3 else "within bound" if sp <= bound else "TOO WIDE")
            shown = f"{bound:.2f}" if bound is not None else "  - "
            print(f"  {name:14s} median {med:10.4f}  spread {sp:6.3f}  bound {shown}  {verdict}")
            report[workload]["metrics"][name] = {"median": med, "spread": sp, "bound": bound}
        fractions = {Fraction(*map(int, s.split("/"))) for s in shares}
        print(f"  failed share {'identical' if len(fractions) == 1 else 'DIFFERS'}: {shares[0]}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
