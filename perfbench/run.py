"""End-to-end benchmark of the cepdist command line.

Usage, from the root of a cepdist checkout:

    python3 perfbench/run.py --workload cluster-cepstral --seed 1 --seconds 30 --trace 0

The run writes the workload's seeded input files under ``perfbench/work/``,
then calls ``cepdist.cli.main`` on them in fresh processes, one after the
other, for about ``--seconds`` seconds, and checks every output against the
benchmark's own closed-form references (``workloads.py``). It removes its
files when it ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are end to end: median set-up time and median call time, both
scaled to a reference machine speed, median peak memory, and the cepstral
route's deviation from the closed form. With
``--trace 1`` untraced and traced calls alternate, and the metrics are the
per-layer calls, self times and counters of ``worker.py`` per CLI call, plus
the tracing overhead. The line before it records the machine and library
versions. See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from worker import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# One BLAS thread: the machines this runs on are small and shared, and a
# single thread keeps the timings steady. The load is one process.
BLAS_THREADS = 1
# At least this many timed calls per run (per side in a traced run), so
# medians exist even when one call takes most of --seconds.
MIN_CALLS = 4
# Set-up-only worker starts after each timed call, so that set-up time is a
# median over many starts even on workloads with few, long calls. Each also
# times worker.calibrate().
SETUPS_PER_CALL = 2
# Median of worker.calibrate() on the reference machine (see README.md).
# Times are reported in seconds at that machine's speed: the run's median
# time times REF_CALIBRATION_S over the run's median calibration time. On
# small shared machines the speed of a fixed computation moves by up to a
# third within minutes, and the scaling about halves the spread this
# causes between runs.
REF_CALIBRATION_S = 0.15
# Every run ends within this many seconds of its start; a call still going
# then is a hang, not a measurement.
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


class Launcher:
    """Starts worker processes from the checkout root, one at a time."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = str(BLAS_THREADS)

    def invoke(self, mode: str, argv: list[str]) -> dict:
        """Start a fresh worker in ``mode``, wait for it and return its report."""
        spawned = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, WORKER, mode, *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(
                f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
        src = os.path.join(self.root, "src", "cepdist")
        if os.path.realpath(report["module"]) != os.path.realpath(src):
            raise BenchmarkError(f"worker imported cepdist from {report['module']}, not {src}")
        report["setup_s"] = (report["ready_ns"] - spawned) / 1e9
        return report


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def run(args: argparse.Namespace, launcher: Launcher, work: str) -> dict:
    workload = workloads.make(args.workload)
    workload.generate(work, np.random.default_rng([args.seed, 0]))
    problems: list[str] = []
    attempted = failed = 0
    plain, traced, setups = [], [], []
    modes = ("run", "trace") if args.trace else ("run",)
    start = time.monotonic()
    while True:
        for mode in modes:
            # A failed call must not leave the previous call's outputs to check.
            for path in workload.outputs():
                if os.path.exists(path):
                    os.remove(path)
            report = launcher.invoke(mode, workload.argv())
            (traced if mode == "trace" else plain).append(report)
            attempted += workload.ops_per_call
            failed += workload.failed_ops(report["exit"])
            if report["exit"] == 0:
                try:
                    found = workload.check()
                except (OSError, ValueError, KeyError) as exc:
                    found = [f"unreadable output: {exc}"]
                problems += [p for p in found if p not in problems]
        if not args.trace:
            setups += [launcher.invoke("setup", []) for _ in range(SETUPS_PER_CALL)]
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if len(plain) >= MIN_CALLS and elapsed + per_round > args.seconds:
            break

    if args.trace:
        metrics = layer_metrics(plain, traced)
    else:
        probe = workloads.CepstralProbe()
        probe.generate(work, np.random.default_rng([args.seed, 1]))
        if launcher.invoke("run", probe.argv())["exit"] != 0:
            raise BenchmarkError("the cepstral probe call failed")
        found, deviation = probe.measure()
        problems += found
        calibration_s = median(setups, "calibration_s")
        speed = REF_CALIBRATION_S / calibration_s
        raw = {"setup_s": median(plain + setups, "setup_s"), "run_s": median(plain, "run_s")}
        metrics = {
            "setup_s": {"value": raw["setup_s"] * speed, "unit": "s"},
            "run_s": {"value": raw["run_s"] * speed, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["maxrss_kb"] * 1024 / 1e6 for r in plain),
                "unit": "MB",
            },
            "cepstral_rel_dev": {"value": deviation, "unit": "ratio"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "calls": len(plain) + len(traced),
        "unscaled": {} if args.trace else dict(raw, calibration_s=calibration_s),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
    }}))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def median(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per CLI call: calls and self time of each layer, and the counters."""
    metrics = {}
    for name in LAYERS:
        # median_low keeps counts whole numbers.
        metrics[f"{name}.calls"] = {
            "value": statistics.median_low(r["calls"][name] for r in traced), "unit": "count"}
        metrics[f"{name}.self_ms"] = {
            "value": statistics.median(r["self_ms"][name] for r in traced), "unit": "ms"}
    units = {"subspace.projected_bases.kept_cols": "count",
             "subspace.hankel_mb": "MB-computed",
             "sigio.bytes_read": "B", "sigio.bytes_written": "B"}
    for name, unit in units.items():
        metrics[name] = {
            "value": statistics.median_low(r["counters"][name] for r in traced), "unit": unit}
    metrics["trace.overhead_ms"] = {
        "value": (median(traced, "run_s") - median(plain, "run_s")) * 1e3, "unit": "ms"}
    return metrics


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cepdist", "cli.py")):
        print("error: run from the root of a cepdist checkout (src/cepdist/cli.py not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args, Launcher(root), work)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
