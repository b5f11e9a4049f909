"""Independent work spread over the usable CPUs by forked processes.

``_fan_out(fn, items, workers)`` is ``[fn(x) for x in items]`` with the
items shared out round-robin between this process and forked children,
which pickle their results back over a pipe. Its callers are the fold
loop and the lambda1 grid in :mod:`enetpipe.pipeline`, the feature-CSV
writer in :mod:`enetpipe.data` and the ``extract`` command's volumes in
:mod:`enetpipe.cli`. Each caller but ``extract`` gates on a property of
its input, and the results do not depend on the worker count. A fan-out
inside another one's share runs in one process, so a forked child never
forks again. No process forks beside another OS thread (a BLAS pool that
is not pinned is one): there everything stays in one process.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

# usable CPUs: the processes of a fan-out, this one among them
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# True while this process computes a share of a fan-out, and for the whole
# life of a forked child: a fan-out inside that share runs in one process,
# so the processes never outnumber the workers
_sharing = False


def _share(fn, items, first: int, step: int) -> dict:
    """{i: fn(items[i])} for i in range(first, len(items), step), up to
    the first call that raises; _fan_out makes that call again."""
    results = {}
    try:
        for i in range(first, len(items), step):
            results[i] = fn(items[i])
    except Exception:
        pass
    return results


def _fork_share(fn, items, first: int, step: int):
    """(pid, pipe) of a forked child that computes _share(fn, items,
    first, step) and pickles it into the pipe; None if no child starts."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except Exception:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(_share(fn, items, first, step),
                                pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:                    # never unwind into the caller's frames
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _one_thread() -> bool:
    """Whether this process runs one thread: the OS threads Linux lists,
    BLAS pools included, else the threads the threading module knows."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return threading.active_count() == 1


def _processes(workers: int) -> int:
    """How many processes _fan_out would use for `workers` workers: one
    unless os.fork exists, this process runs one thread and computes no
    fan-out's share. A child gets no copy of the other threads, and could
    wait forever on a lock one of them held."""
    if workers > 1 and (_sharing or not hasattr(os, "fork")
                        or not _one_thread()):
        return 1
    return max(1, workers)


def _fan_out(fn, items, workers: int) -> list:
    """[fn(x) for x in items], item i computed by worker i % workers.

    Worker 0 is this process, the others forked children that pickle
    their results back over a pipe. There are at most len(items) workers,
    and _processes decides whether there is more than one. The children's
    results are a cache: the items are walked in order and any item
    without one (its child raised, died or did not start, or the result
    would not pickle) is computed here, so an exception is the plain
    loop's, from the earliest item that raises. No child outlives the call.
    """
    global _sharing
    workers = _processes(min(workers, len(items)))
    if workers == 1:
        return [fn(x) for x in items]
    _sharing, children = True, []       # the children inherit it
    try:
        for first in range(1, workers):
            child = _fork_share(fn, items, first, workers)
            if child is not None:
                children.append(child)
        done = _share(fn, items, 0, workers)
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status == 0 and data:
                done.update(pickle.loads(data))
    finally:
        _sharing = False
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [done[i] if i in done else fn(x) for i, x in enumerate(items)]
