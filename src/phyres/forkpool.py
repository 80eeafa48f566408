"""Independent jobs in forked worker processes, at most one per CPU.  They
inherit the function, its jobs and phyres as imported, so only results are
pickled; the executor forks them all before it starts its own thread."""

import os

_held: list = []  # in a worker: the function and its jobs


def _hold(fn, jobs: list[tuple]) -> None:
    _held[:] = [fn, jobs]


def _run_held(index: int):
    fn, jobs = _held
    return fn(*jobs[index])


def workers(n_jobs: int) -> int:
    return min(len(os.sched_getaffinity(0)), n_jobs)


def completed(fn, jobs: list[tuple]):
    """Yield ``(i, future)`` as ``fn(*jobs[i])`` comes back from
    ``workers(len(jobs))`` forked processes.  A worker that dies fails each
    job whose result had not come back: its future raises BrokenProcessPool."""
    if not jobs:  # the executor takes no fewer than one worker
        return
    import multiprocessing  # here, so that a command that forks no pool does not import it
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(workers(len(jobs)), mp_context=multiprocessing.get_context("fork"),
                             initializer=_hold, initargs=(fn, jobs)) as pool:
        futures = {pool.submit(_run_held, i): i for i in range(len(jobs))}
        for future in as_completed(futures):
            yield futures[future], future
