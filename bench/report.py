#!/usr/bin/env python3
"""Run every workload untraced and traced, and print the figures as Markdown.

    python3 bench/report.py --seed 1 --seconds 30

Each run is a separate ``bench/run.py`` process, one after the other, so
peak memory and timings belong to one workload.  Prints the host facts,
every end-to-end metric by name and unit with the operations attempted and
failed, the per-family times, and the per-layer figures of the traced run
with the tracing overhead.  Exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{workload}: exit code {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1]), "failures": []}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("host", "families"):
            out[tag] = json.loads(rest)
        elif tag == "failed":
            out["failures"].append(json.loads(rest))
    return out


def figure(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    failed = 0
    layers: dict[str, dict] = {}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        if workload == next(iter(WORKLOADS)):
            print("host: " + json.dumps(plain["host"]) + "\n")
        res = plain["result"]
        failed += res["failed"] + traced["result"]["failed"]
        print(f"### {workload}\n")
        print(f"attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {str(res['correct']).lower()}\n")
        print("| metric | value | unit |\n|---|---|---|")
        for name, m in res["metrics"].items():
            print(f"| {name} | {figure(m['value'])} | {m['unit']} |")
        for name, value in plain["families"].items():
            unit = "1/s" if name.endswith("_per_s") else "s"
            print(f"| {name} | {figure(value)} | {unit} |")
        print()
        for failure in plain["failures"] + traced["failures"]:
            print("failed: " + json.dumps(failure))
        layers[workload] = traced["result"]["metrics"]
    names = list(next(iter(layers.values())))
    print("### per layer, traced, per round\n")
    print("| metric | " + " | ".join(layers) + " |")
    print("|---" * (len(layers) + 1) + "|")
    for name in names:
        cells = [figure(layers[w][name]["value"]) for w in layers]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
