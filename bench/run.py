#!/usr/bin/env python3
"""Benchmark of descentpoly: one workload per run, closed loop, one process.

    python3 bench/run.py --workload frontier-queries --seed 1 --seconds 30 --trace 0

Runs from the root of a source tree and imports the package from its
``src``.  A run repeats whole rounds of the workload's operations until
``--seconds`` have passed, checks every output against the benchmark's own
references, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the operations run
under cProfile after one untraced round, and the metrics are per layer.
Lines before the last describe the families of the workload, the host and
any failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
from layers import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Failure  # noqa: E402

SRC = HERE.parent / "src"
SETUP_REPEATS = 5
SHOWN_FAILURES = 5
# Calibrated times are in ms of a host on which one calibration kernel run
# takes KERNEL_MS, about this host's speed when no other tenant interferes.
KERNEL_MS = 2.5
KERNEL_RUNS = 4  # per sample, which takes about 10 ms
SAMPLE_EVERY_S = 0.25
# Calibrated set-up times are in s of a host on which BASELINE_IMPORTS
# takes BASELINE_S in a fresh interpreter.
BASELINE_S = 0.1
BASELINE_IMPORTS = (
    "import time; start = time.perf_counter(); "
    "import argparse, dataclasses, fractions, json, numpy; "
    "print(time.perf_counter() - start)"
)
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "calibrated_ms_per_item": "ms"}


def kernel():
    """The fixed pure-Python calibration kernel.  It is the unit of every
    calibrated time: changing it changes every figure."""
    ref.insertion_poly(90, lambda z: z % 3 != 1, lambda z: z % 2 == 0)
    ref.brute_poly(6, lambda a, b: a > b and a % 2 == 0)


class Calibration:
    """Samples the kernel between operations.  Other tenants of this host
    slow a running thread by up to 2x for seconds at a time, the kernel as
    much as the package, so a time divided by the kernel time around it
    stays steady where the raw time does not."""

    def __init__(self):
        self.samples: list[float] = []
        self.at = -1.0

    def sample(self) -> float:
        times = []
        for _ in range(KERNEL_RUNS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.at = time.perf_counter()
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def due(self) -> bool:
        return time.perf_counter() - self.at >= SAMPLE_EVERY_S


def calibrated_ms(seconds: float, kernel_s: float) -> float:
    return seconds * KERNEL_MS / kernel_s


def load_package():
    """Import descentpoly from this tree's src, or stop with exit code 1."""
    if not (SRC / "descentpoly" / "__init__.py").is_file():
        sys.exit(f"bench: no package sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from descentpoly import cli, closed_forms, configurations, sets

    if Path(cli.__file__).resolve().parent != (SRC / "descentpoly").resolve():
        sys.exit(f"bench: descentpoly imported from {cli.__file__}, not {SRC}")
    return types.SimpleNamespace(
        cli=cli, closed_forms=closed_forms, configurations=configurations, sets=sets
    )


def setup_probe(workload: str, seed: int) -> float:
    """Import the package and build the workload's inputs, in this process."""
    start = time.perf_counter()
    WORKLOADS[workload](load_package(), seed)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Median calibrated set-up time over fresh interpreters, so that no
    import is cached.  Each probe is paired with a baseline interpreter that
    imports numpy and the stdlib modules the package uses: set-up is import
    work, which other tenants slow unlike the kernel, but like this."""
    ratios = []
    for _ in range(SETUP_REPEATS):
        probe = _child_seconds([str(HERE / "run.py"), "--setup-probe",
                                "--workload", workload, "--seed", str(seed)])
        ratios.append(probe / _child_seconds(["-c", BASELINE_IMPORTS]))
    return BASELINE_S * statistics.median(ratios)


def _child_seconds(args) -> float:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        sys.exit(f"bench: set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def host_facts(calibration: Calibration) -> dict:
    import numpy

    def first(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            return None
        return None

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu": first("/proc/cpuinfo", "model name"),
        "loadavg": first("/proc/loadavg"),
        "kernel_ms_median": 1000 * statistics.median(calibration.samples),
        "kernel_ms_min": 1000 * min(calibration.samples),
        "kernel_samples": len(calibration.samples),
    }


class Runner:
    """Runs whole rounds of operations and keeps the failure accounting.

    Each operation's wall time is also divided by the mean of the kernel
    samples taken just before and just after it."""

    def __init__(self, ops, calibration: Calibration):
        self.ops = ops
        self.calibration = calibration
        self.times = [[] for _ in ops]
        self.calibrated = [[] for _ in ops]
        self.observed: dict[str, int] = {}
        self.attempted = self.failed = 0
        self.correct = True
        self.failures: list[dict] = []

    def round(self, call):
        gc.collect()
        before = self.calibration.sample()
        pending = []
        for k, op in enumerate(self.ops):
            if pending and self.calibration.due():
                before = self._close(pending, before)
            self.attempted += 1
            start = time.perf_counter()
            try:
                output = call(op)
            except Exception as err:  # the package raised: one failed operation
                pending.append((k, time.perf_counter() - start))
                self._fail(op, {"check": "raised", "error": repr(err),
                                "traceback": traceback.format_exc(limit=4)})
                continue
            pending.append((k, time.perf_counter() - start))
            try:
                for key, value in op.check(output).items():
                    self.observed[key] = self.observed.get(key, 0) + value
            except Failure as err:
                self._fail(op, err.payload)
            except ref.Mismatch as err:
                self.correct = False
                self._fail(op, err.payload)
            except (KeyError, TypeError, ValueError) as err:  # unreadable output
                self.correct = False
                self._fail(op, {"check": "output is readable", "error": repr(err)})
        self._close(pending, before)

    def _close(self, pending, before) -> float:
        after = self.calibration.sample()
        for k, seconds in pending:
            self.times[k].append(seconds)
            self.calibrated[k].append(calibrated_ms(seconds, (before + after) / 2))
        pending.clear()
        return after

    def _fail(self, op, payload):
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append({"op": op.label, **payload})


def medians(series) -> list[float]:
    return [statistics.median(values) for values in series]


def run(args) -> dict:
    calibration = Calibration()
    setup_s = setup_seconds(args.workload, args.seed)
    pkg = load_package()
    ops = WORKLOADS[args.workload](pkg, args.seed, wrong=args.wrong_reference)
    runner = Runner(ops, calibration)

    rounds = 0
    if args.trace:
        runner.round(lambda op: op.run())
        untraced_s = sum(t[0] for t in runner.times)
        tracer = Tracer(SRC / "descentpoly")
        runner.observed.clear()
        start = time.perf_counter()
        with tracer.record_terms(pkg.closed_forms):
            while rounds == 0 or time.perf_counter() - start < args.seconds:
                runner.round(tracer.run)
                rounds += 1
        values = tracer.metrics(rounds, untraced_s, runner.observed)
        metrics = {name: _layer_metric(name, values[name]) for name in PER_LAYER}
    else:
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            runner.round(lambda op: op.run())
            rounds += 1
        items = sum(op.items() for op in ops)
        calibrated = medians(runner.calibrated)
        families: dict[str, float] = {}
        for op, ms in zip(ops, calibrated):
            name = op.family.replace("-", "_") + "_s"
            families[name] = families.get(name, 0.0) + ms / 1000
        if "configs_s" in families:
            families = {"configs_per_s": items / families["configs_s"]}
        wall_ms = 1000 * sum(medians(runner.times)) / items
        print("families " + json.dumps(families))
        print(f"rounds {rounds} operations {len(ops)} items {items} "
              f"wall_ms_per_item {wall_ms:.6g}")
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "calibrated_ms_per_item": sum(calibrated) / items,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print("host " + json.dumps(host_facts(calibration)))
    for failure in runner.failures:
        print("failed " + json.dumps(failure, default=str))
    return {"correct": runner.correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def _layer_metric(name: str, value: float) -> dict:
    """Seconds and ratios as measured; counts per round, whole when they are."""
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return {"value": value, "unit": unit}
    unit = next((u for u in ("bits", "bytes") if name.endswith("_" + u)), "count")
    return {"value": int(value) if float(value).is_integer() else value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="add one to the first reference, to see its "
                             "operations counted as failed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
