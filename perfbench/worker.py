"""One cepdist CLI call in a fresh process, timed, optionally traced.

Usage (from the root of a cepdist checkout):

    python3 perfbench/worker.py MODE [ARG...]

The worker imports ``cepdist.cli`` from ``src/`` and prints one JSON line
with the monotonic clock reading taken right after the import. MODE
``setup`` then times ``calibrate()`` and stops. MODE ``run`` instead calls
``cepdist.cli.main([ARG...])``
once and adds the wall time of the call, its exit code and the peak
resident memory of the process. MODE ``trace`` first wraps the layer
functions listed in LAYERS and also adds their call counts, self times and
the counters below.

A wrapper is installed under every name a cepdist module binds the
function to, so ``cepdist.cli.distance_matrix`` and
``cepdist.cluster.projected_bases`` are both caught. A layer's self time is
its wall time minus the wall time of the wrapped layers it called.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

LAYERS = (
    "cli.main",
    "sigio.read_signal_csv",
    "sigio.format_pair_csv",
    "sigio.format_matrix_csv",
    "lti.simulate",
    "spectral.transfer_cepstrum_from_io",
    "phase.classify_from_io",
    "subspace.projected_bases",
    "subspace.subspace_distance_from_bases",
    "metrics.weighted_cepstral_distance",
    "cluster.distance_matrix",
    "cluster.agglomerative_cluster",
)


class Tracer:
    """Calls and self time per layer, plus byte and column counters."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in LAYERS}
        self.self_ns = {name: 0 for name in LAYERS}
        self.counters = {
            "subspace.projected_bases.kept_cols": 0,
            "subspace.hankel_mb": 0.0,
            "sigio.bytes_read": 0,
            "sigio.bytes_written": 0,
        }
        # One entry per open span: the wall time of its wrapped callees.
        self.stack: list[list[int]] = []

    def wrap(self, name, func, count):
        def traced(*args, **kwargs):
            child = [0]
            self.stack.append(child)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += elapsed - child[0]
                if self.stack:
                    self.stack[-1][0] += elapsed
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced


def _count_read(counters, args, kwargs, result):
    counters["sigio.bytes_read"] += os.path.getsize(args[0])


def _count_written(counters, args, kwargs, result):
    counters["sigio.bytes_written"] += len(result.encode("utf-8"))


def _count_bases(counters, args, kwargs, result):
    counters["subspace.projected_bases.kept_cols"] += sum(b.shape[1] for b in result)
    # Computed, not measured: the input and output Hankel blocks, rows x cols
    # float64 each, with the program's default column count n - rows + 1.
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    cols = args[3] if len(args) > 3 and args[3] is not None else len(args[0]) - rows + 1
    counters["subspace.hankel_mb"] += 2 * rows * cols * 8 / 1e6


COUNTS = {
    "sigio.read_signal_csv": _count_read,
    "sigio.format_pair_csv": _count_written,
    "sigio.format_matrix_csv": _count_written,
    "subspace.projected_bases": _count_bases,
}


def calibrate() -> float:
    """Seconds for a fixed mix of interpreted and BLAS work that uses no
    cepdist code. It reads the machine's speed at the moment: on small
    shared machines that speed moves by a third within minutes."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for k in range(600_000):
        total += k * k
    block = np.random.default_rng(0).standard_normal((4000, 150))
    np.linalg.svd(block, full_matrices=False)
    return time.perf_counter() - start


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items() if n == "cepdist" or n.startswith("cepdist.")]
    for name in LAYERS:
        module_name, func_name = name.split(".")
        original = getattr(sys.modules["cepdist." + module_name], func_name)
        wrapped = tracer.wrap(name, original, COUNTS.get(name))
        for module in modules:
            if getattr(module, func_name, None) is original:
                setattr(module, func_name, wrapped)


def main() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cepdist.cli  # the import is what set-up time measures

    ready_ns = time.monotonic_ns()
    mode, argv = sys.argv[1], sys.argv[2:]
    result = {"ready_ns": ready_ns, "module": os.path.dirname(cepdist.cli.__file__)}
    if mode == "setup":
        result["calibration_s"] = calibrate()
        sys.stdout.write(json.dumps(result) + "\n")
        return
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install(tracer)
    start = time.perf_counter()
    code = cepdist.cli.main(argv)
    result["run_s"] = time.perf_counter() - start
    result["exit"] = code
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["calls"] = tracer.calls
        result["self_ms"] = {k: v / 1e6 for k, v in tracer.self_ns.items()}
        result["counters"] = tracer.counters
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
