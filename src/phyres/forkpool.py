"""Independent jobs in forked worker processes, one per CPU and at most one per
job; jobs of about equal cost (``even``) get one each while that makes fewer
than two per CPU, so 3 such jobs on 2 CPUs, which the OS shares, end after 1.5
job-times, not 2 (the bound caps memory; no timing set it).  Workers inherit the
function, its jobs and phyres as imported, so only results are pickled; the
executor forks them all before it starts its own thread.  Each holds numpy's
OpenBLAS to one thread: the workers already fill the CPUs, and a GEMM split
across threads would oversubscribe them.  ``cli.main`` does so for a command."""

import functools
import os

_held: list = []  # in a worker: the function and its jobs


def _hold(fn, jobs: list[tuple]) -> None:
    _held[:] = [fn, jobs]
    blas_threads(1)


def blas_threads(n: int | None) -> int | None:
    """Set numpy's OpenBLAS to ``n`` threads and return the count it had; with
    ``n`` None or no library found, set nothing and return None."""
    if n is None or (blas := _openblas()) is None:
        return None
    had = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(n)
    return had


@functools.cache  # looked up on first use, once per process
def _openblas():
    """numpy's bundled OpenBLAS through ctypes, with its thread-count setter
    and getter declared, or None when it is not found."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                  "libscipy_openblas64_-*.so"))
    if len(libs) != 1:
        return None
    lib = ctypes.CDLL(libs[0])
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    return lib


def _run_held(index: int):
    fn, jobs = _held
    return fn(*jobs[index])


def workers(n_jobs: int, even: bool = False) -> int:
    cpus = len(os.sched_getaffinity(0))
    return n_jobs if even and n_jobs < 2 * cpus else min(cpus, n_jobs)


def completed(fn, jobs: list[tuple], even: bool = False):
    """Yield ``(i, future)`` as ``fn(*jobs[i])`` comes back from
    ``workers(len(jobs), even)`` forked processes.  A worker that dies fails each
    job whose result had not come back: its future raises BrokenProcessPool."""
    if not jobs:  # the executor takes no fewer than one worker
        return
    import multiprocessing  # here, so that a command that forks no pool does not import it
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(workers(len(jobs), even), initializer=_hold, initargs=(fn, jobs),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {pool.submit(_run_held, i): i for i in range(len(jobs))}
        for future in as_completed(futures):
            yield futures[future], future
