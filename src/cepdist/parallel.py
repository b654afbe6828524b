"""One function over contiguous chunks of work, in forked worker processes.

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
from typing import Callable, Sequence


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


def map_chunks(func: Callable, chunks: Sequence) -> list:
    """``[func(chunk) for chunk in chunks]``, each chunk after the first in a child.

    Raises the exception of the first chunk in order that raised one,
    after the warnings of the chunks before it and of that chunk itself.
    """
    children = []
    finished = False
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
