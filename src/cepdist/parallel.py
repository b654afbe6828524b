"""One function over contiguous runs of items, in forked worker processes
(``map_runs``, the entry of every fork), and the one rule for how many
(``worker_count``): inside a chunk of ``map_chunks`` it gives one worker,
so a worker never forks again.

The first chunk runs in the calling process and every other chunk in a
child forked for it, so a call over one chunk is a plain call. A child
sends back, pickled through a pipe, its result or the exception it raised,
and the warnings it raised; the parent issues those warnings again under
its own filters, in chunk order, so the output reads as if one process had
run the chunks in order. A child never returns into the caller: it ends
with os._exit. Every child is reaped before the call returns, and killed
first when the call fails.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import warnings
from contextvars import ContextVar
from typing import Callable, Sequence

# Work on files of fewer bytes, or formatting of fewer rows, runs in one
# process: below these a fork costs more than it saves (see the README).
FORK_MIN_BYTES = 1 << 20
FORK_MIN_ROWS = 1 << 15
# True while ``map_chunks`` runs, and so in every chunk it runs.
_IN_CHUNK = ContextVar("in_chunk", default=False)


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, capped by a cgroup v2 CPU quota."""
    count = len(os.sched_getaffinity(0))
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
            quota, period = fh.read().split()
        if quota != "max":
            count = min(count, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):
        pass  # no readable quota: the mask alone
    return count


def worker_count(size: int, min_size: int, items: int) -> int:
    """Worker processes for ``items`` independent items of work of total ``size``.

    There is one worker per usable CPU, at most one per item, and one in
    all off Linux, when ``size`` is below ``min_size``, where a fork costs
    more than it saves, or inside a chunk of ``map_chunks``.
    """
    if not sys.platform.startswith("linux") or size < min_size or _IN_CHUNK.get():
        return 1
    return min(usable_cpus(), items)


def ranges(count: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous ranges of nearly equal length covering ``range(count)``."""
    bounds = [count * k // parts for k in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def map_runs(func: Callable, items: Sequence, size: int, min_size: int) -> list:
    """``map_chunks`` of ``func`` over contiguous runs of ``items`` in order,
    one per worker (``worker_count(size, min_size, len(items))``). A run is
    a slice of ``items``, so the runs of a ``range`` are ranges; no items
    give no runs."""
    if not items:
        return []
    workers = worker_count(size, min_size, len(items))
    return map_chunks(func, [items[a:b] for a, b in ranges(len(items), workers)])


def map_chunks(func: Callable, chunks: Sequence) -> list:
    """``[func(chunk) for chunk in chunks]``, each chunk after the first in a child.

    Raises the exception of the first chunk in order that raised one,
    after the warnings of the chunks before it and of that chunk itself.
    """
    children = []
    finished = False
    in_chunk = _IN_CHUNK.set(True)  # in the children too, forked with it set
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(func, chunk, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = [func(chunk) for chunk in chunks[:1]]
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"worker process {pid} ended without sending a result")
            (done, value), caught = pickle.loads(data)
            for text, category, filename, lineno in caught:
                _warn_again(text, category, filename, lineno)
            if not done:
                raise value
            results.append(value)
        finished = True
        return results
    finally:
        _IN_CHUNK.reset(in_chunk)
        for pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(func: Callable, chunk, write_fd: int) -> None:
    """In a forked child: send the outcome of ``func(chunk)`` and end the process."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = (True, func(chunk))
            except Exception as exc:  # raised again by the parent
                outcome = (False, exc)
        report = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        try:
            data = pickle.dumps((outcome, report), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            failure = RuntimeError(f"a worker process could not send its result: {exc!r}")
            data = pickle.dumps(((False, failure), report), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _warn_again(text: str, category: type, filename: str, lineno: int) -> None:
    """Issue a child's warning as ``warnings.warn`` issued it, with the
    registry of the module that raised it, so a repeat shows only once."""
    scope: dict = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            scope = vars(module)
            break
    warnings.warn_explicit(
        text,
        category,
        filename,
        lineno,
        module=scope.get("__name__"),
        registry=scope.setdefault("__warningregistry__", {}),
        module_globals=scope or None,
    )
