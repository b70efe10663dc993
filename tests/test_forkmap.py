"""fork_map's workers: one OS thread each, because this process sets OpenBLAS
to one thread before they fork, and sets its count back however the map ends."""

import os
import signal

import numpy as np
import pytest

from test_layers import run_check, usable_cpus
from voxscreen import forkmap
from voxscreen.errors import WorkerDiedError

pytestmark = pytest.mark.skipif(
    forkmap._blas_threads() is None or not os.path.isdir("/proc/self/task"),
    reason="needs /proc and an OpenBLAS whose thread count can be set")


def _threads_after_a_product(task):
    """This process's OS thread count, after a product that OpenBLAS would
    thread on two threads."""
    a = np.random.default_rng(task).normal(size=(400, 400))
    a @ a
    return len(os.listdir("/proc/self/task"))


def _fail_on_three(task):
    if task == 3:
        raise ValueError("task 3")
    return task


def _die(task):
    os.kill(os.getpid(), signal.SIGKILL)


def test_each_worker_runs_one_thread(monkeypatch):
    usable_cpus(monkeypatch, 2)
    assert forkmap.fork_map(_threads_after_a_product, range(8), "test", True) == [1] * 8


def check_blas_count_restored():
    """Two OpenBLAS threads in this process, before and after a map that ends
    normally, with a task's exception, and with a dead worker."""
    get, set_ = forkmap._blas_threads()
    set_(2)
    if get() != 2:
        return  # this OpenBLAS runs one thread at most: nothing to restore
    with pytest.MonkeyPatch.context() as mp:
        usable_cpus(mp, 2)
        assert forkmap.fork_map(abs, range(-4, 4), "test", True) == [4, 3, 2, 1, 0, 1, 2, 3]
        assert get() == 2
        with pytest.raises(ValueError, match="task 3"):
            forkmap.fork_map(_fail_on_three, range(8), "test", True)
        assert get() == 2
        with pytest.raises(WorkerDiedError, match="a test worker died"):
            forkmap.fork_map(_die, range(4), "test", True)
        assert get() == 2


def test_parent_blas_count_is_restored():
    run_check("import test_forkmap; test_forkmap.check_blas_count_restored()", {}, timeout=60)
