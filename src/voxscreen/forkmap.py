"""One fork-map helper: cross-validation folds and clip extraction run a
function over their tasks in forked one-BLAS-thread workers, or serially."""

from __future__ import annotations

import functools
import os

from .errors import WorkerDiedError

_WORKER_FN = None  # the function mapped; set only in a forked worker


def _start_worker(fn) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _call(task):
    return _WORKER_FN(task)


@functools.cache
def _blas_threads():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, wheel or
    system; None where it or /proc is missing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    import ctypes
    for lib in map(ctypes.CDLL, paths):
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def fork_map(fn, tasks, stage: str, pooled: bool):
    """fn(task) for every task, in task order.

    When pooled and this process may run on several CPUs, the tasks run in
    min(len(tasks), usable CPUs) workers forked from this process, each with
    one BLAS thread, in chunks of max(1, len(tasks) // (4 * workers)) tasks:
    a pool of 2 mapped 200 no-op tasks in 25 to 33 ms one by one, and in 9 to
    10 ms in chunks of 25, its start and shutdown included. fn, and all it
    reads, reaches them through fork, so only the tasks and their results are
    pickled. A task's exception reaches the caller with its own type, and the
    chunks not yet started are cancelled. A worker that dies raises
    WorkerDiedError, naming the stage ("fold", "clip"). Otherwise fn runs in
    this process, one task at a time as the caller iterates: on one CPU, and
    where os.sched_getaffinity is missing (only Linux has it, and it has fork).

    OpenBLAS is set to one thread here, just before the workers fork, and set
    back when they are done: two workers with two BLAS threads each trained no
    faster than one process on two CPUs. Set inside each worker instead, the
    call started an OpenBLAS helper thread there, which spun on the other CPU:
    two workers extracted 48 melspec_image clips of 2 s in a median 0.17 to
    0.20 s that way, and 0.10 to 0.14 s with the count inherited from this
    process (3 runs of 5 maps each, 2 CPUs).
    """
    tasks = list(tasks)
    cpus = len(os.sched_getaffinity(0)) if pooled and hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cpus)
    if workers < 2:
        return map(fn, tasks)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    get_threads, set_threads = _blas_threads() or (lambda: None, lambda n: None)
    previous = get_threads()
    set_threads(1)  # before the fork: each worker inherits one thread, and starts no helper
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _start_worker, (fn,))
    try:
        return list(pool.map(_call, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    except BrokenProcessPool:
        raise WorkerDiedError(
            f"a {stage} worker died before returning its result (killed, or out of "
            f"memory?); on one CPU (taskset -c 0) the {stage}s run serially in this "
            "process") from None
    finally:
        pool.shutdown(cancel_futures=True)
        set_threads(previous)
