"""One fork-map helper: cross-validation folds and clip extraction run a
function over their tasks in forked one-BLAS-thread workers, or serially."""

from __future__ import annotations

import os

from .errors import WorkerDiedError

_WORKER_FN = None  # the function mapped; set only in a forked worker


def _start_worker(fn) -> None:
    """Keep the forked function, and run BLAS on one thread: two workers with
    two BLAS threads each trained no faster than one process on two CPUs."""
    global _WORKER_FN
    _WORKER_FN = fn
    try:  # the OpenBLAS numpy loaded, wheel or system
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    import ctypes
    for lib in map(ctypes.CDLL, paths):
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                return


def _call(task):
    return _WORKER_FN(task)


def fork_map(fn, tasks, stage: str, pooled: bool):
    """fn(task) for every task, in task order.

    When pooled and this process may run on several CPUs, the tasks run in
    min(len(tasks), usable CPUs) workers forked from this process, each with
    one BLAS thread. fn, and all it reads, reaches them through fork, so only
    the tasks and their results are pickled. A task's exception reaches the
    caller with its own type, and the tasks not yet started are cancelled. A
    worker that dies raises WorkerDiedError, naming the stage ("fold",
    "clip"). Otherwise fn runs in this process, one task at a time as the
    caller iterates: on one CPU, and where os.sched_getaffinity is missing
    (only Linux has it, and it has fork).
    """
    tasks = list(tasks)
    cpus = len(os.sched_getaffinity(0)) if pooled and hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cpus)
    if workers < 2:
        return map(fn, tasks)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _start_worker, (fn,))
    try:
        return list(pool.map(_call, tasks))
    except BrokenProcessPool:
        raise WorkerDiedError(
            f"a {stage} worker died before returning its result (killed, or out of "
            f"memory?); on one CPU (taskset -c 0) the {stage}s run serially in this "
            "process") from None
    finally:
        pool.shutdown(cancel_futures=True)
