"""The one job queue, worked by this process and forked helpers, and the OpenBLAS pin."""

from __future__ import annotations

import ctypes
import signal
from collections.abc import Callable
from contextlib import contextmanager
from functools import cache

import numpy as np

# Thread-count getter and setter of numpy's OpenBLAS, by build: scipy-openblas wheels,
# 64-bit-integer builds, then plain builds
_BLAS_THREAD_CALLS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@cache
def _blas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None.

    Looked up once, in numpy's own extension module: a symbol lookup there also
    searches the libraries numpy links, its BLAS among them.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None
    for name in _BLAS_THREAD_CALLS:
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread(jobs: int = 1):
    """numpy's OpenBLAS on one thread inside the block, and its previous count restored
    after; yields how many helpers each queue inside the block may fork:
    max(jobs, 2) - 1, or 0 where the count cannot be set.

    The CNNs' GEMMs (9 to 144 columns) are too small to share among BLAS threads, so
    a second core pays only when it runs other work. The count is process-wide:
    only the thread that enters the block may set it, and processes forked inside
    the block start with one thread. A count already at one is neither set nor
    restored, so a pin nested in another, or entered in a forked helper, never calls
    the setter: after a fork, any call to it (even to one thread) starts a new
    OpenBLAS worker, which spins for about 128 ms of CPU on the other core.
    """
    threads = _blas_threads()
    if threads is None:
        yield 0
        return
    helpers = max(jobs, 2) - 1
    get, set_ = threads
    before = get()
    if before == 1:
        yield helpers
        return
    set_(1)
    try:
        yield helpers
    finally:
        set_(before)


def _fork_context():
    """multiprocessing's fork context, or None where the platform has no fork."""
    import multiprocessing  # here, so that runs that fork no helper do not load it

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _next_job(order: list, state, lock):
    """The next job of the queue `order` that may start, or None once it is empty;
    state = [next position in order, first failed job] is shared by every worker of
    the queue, under lock. A job after a failed one in serial order does not start."""
    with lock:
        while state[0] < len(order):
            i = order[state[0]]
            state[0] += 1
            if i < state[1]:
                return i
    return None


def _take_jobs(order: list, state, lock, run: Callable, i=None) -> dict:
    """{job: (True, result) or (False, error)} of the jobs this worker takes from the
    queue (see _next_job), starting with job i if it has taken that one already."""
    done = {}
    if i is None:
        i = _next_job(order, state, lock)
    while i is not None:
        try:
            done[i] = (True, run(i))
        except Exception as exc:  # raised by run_jobs once every worker is done
            done[i] = (False, exc)
            with lock:
                state[1] = min(state[1], i)
        i = _next_job(order, state, lock)
    return done


def _helper_main(order, state, lock, run, send) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt and ends this
    send.send(_take_jobs(order, state, lock, run))


def run_jobs(run: Callable, count: int, helpers: int, key: Callable | None = None) -> list:
    """[run(0), ..., run(count - 1)]: the jobs of one queue, taken in the order `key`
    sorts them by this process and min(helpers, count - 1) forked helper processes.
    With no helper, or where none can be forked, every job runs here in serial
    order (0, 1, ...).

    This process takes the first job before any helper starts, so it runs at least
    one. Each helper's results come back through its own pipe once the queue is
    empty, and every helper has exited before this returns or raises. If jobs fail,
    the error serial order meets first is raised; once a job has failed, no job
    after it in serial order starts.
    """
    helpers = min(helpers, count - 1)
    context = _fork_context() if helpers > 0 else None
    if context is None:
        return [run(i) for i in range(count)]
    import mmap  # here, so that runs that fork no helper do not load it

    order = sorted(range(count), key=key)
    state = np.ndarray(2, dtype=np.int64, buffer=mmap.mmap(-1, 16))  # shared with the helpers
    state[:] = 1, count
    lock = context.Lock()
    started = []  # (helper, the read end of its pipe)
    try:
        for _ in range(helpers):
            receive, send = context.Pipe(duplex=False)
            helper = context.Process(target=_helper_main, name="job-queue", daemon=True,
                                     args=(order, state, lock, run, send))
            helper.start()
            started.append((helper, receive))
            send.close()  # before the next fork, so that this helper's exit alone ends receive
        done = _take_jobs(order, state, lock, run, order[0])
        for helper, receive in started:
            try:
                done.update(receive.recv())
            except EOFError:  # it died before sending
                helper.join()
                raise RuntimeError(f"a queue helper exited with code {helper.exitcode}") from None
    except BaseException:
        for helper, _ in started:
            helper.terminate()  # an interrupt here: the helpers' current jobs are dropped
        raise
    finally:
        for helper, receive in started:
            helper.join()
            helper.close()  # its pipe ends, which a raised error's traceback would keep open
            receive.close()
    failed = [i for i in sorted(done) if not done[i][0]]
    if failed:
        raise done[failed[0]][1]
    return [done[i][1] for i in range(count)]
