import os

import pytest

from conftest import run_fresh
from phyres import cli, forkpool

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


def _blas_threads(_):
    return forkpool._openblas().scipy_openblas_get_num_threads64_()


@pytest.mark.parametrize("jobs, cpus, expected", [
    (1, 2, 1), (2, 2, 2), (3, 2, 3), (4, 2, 2), (6, 2, 2), (5, 1, 1), (7, 4, 7), (8, 4, 4),
])
def test_even_jobs_get_one_worker_each_while_fewer_than_two_per_cpu(monkeypatch, jobs, cpus,
                                                                   expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert forkpool.workers(jobs, even=True) == expected


@pytest.mark.parametrize("jobs, cpus, expected", [
    (1, 2, 1), (2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 1, 1), (7, 4, 4), (8, 4, 4),
])
def test_other_jobs_get_one_worker_per_cpu(monkeypatch, jobs, cpus, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert forkpool.workers(jobs) == expected


def test_worker_uses_one_blas_thread():
    lib = forkpool._openblas()
    if lib is None:
        pytest.skip("numpy bundles no scipy-openblas64 library here")
    before = lib.scipy_openblas_get_num_threads64_()
    results = {i: f.result() for i, f in forkpool.completed(_blas_threads, [(0,), (1,)])}
    assert results == {0: 1, 1: 1}
    assert lib.scipy_openblas_get_num_threads64_() == before  # the caller keeps its own


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_train_weights_do_not_depend_on_blas_threads(tmp_path, cell):
    # a time-batched weight-gradient GEMM is large enough for OpenBLAS to
    # split across threads; the split must leave the weights' bits alone
    corpus, samples = tmp_path / "c.csv", tmp_path / "s.jsonl"
    assert cli.main(["synth", "--out", str(corpus), "--seed", "11", "--platoons", "4"]) == 0
    assert cli.main(["extract", "--input", str(corpus), "--out", str(samples)]) == 0
    default = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    weights = []
    for threads, environ in (("1", dict(default, OPENBLAS_NUM_THREADS="1")),
                             ("default", default)):
        out = tmp_path / threads
        run_fresh("import sys; from phyres.cli import main; sys.exit(main(sys.argv[1:]))",
                  "train", "--samples", str(samples), "--out", str(out), "--seed", "1",
                  "--variant", "nn", "--cell", cell, "--max-epochs", "3", environ=environ)
        weights.append((out / "weights.json").read_bytes())
    assert weights[0] == weights[1]


def test_command_runs_on_one_blas_thread(tmp_path, monkeypatch):
    # cli.main holds the command's own process to one thread and then gives
    # the caller back its count; the weights do not change
    lib = forkpool._openblas()
    if lib is None:
        pytest.skip("numpy bundles no scipy-openblas64 library here")
    corpus, samples = tmp_path / "c.csv", tmp_path / "s.jsonl"
    assert cli.main(["synth", "--out", str(corpus), "--seed", "11", "--platoons", "4"]) == 0
    assert cli.main(["extract", "--input", str(corpus), "--out", str(samples)]) == 0
    seen, train = [], cli.train

    def spy(*args):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return train(*args)

    monkeypatch.setattr(cli, "train", spy)
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    caller = lib.scipy_openblas_get_num_threads64_()
    try:
        weights = []
        for pinned in (True, False):
            if not pinned:  # the caller's own count runs the command
                monkeypatch.setattr(forkpool, "blas_threads", lambda n: None)
            out = tmp_path / str(pinned)
            assert cli.main(["train", "--samples", str(samples), "--out", str(out), "--seed", "1",
                             "--variant", "nn", "--max-epochs", "3"]) == 0
            assert lib.scipy_openblas_get_num_threads64_() == caller
            weights.append((out / "weights.json").read_bytes())
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert seen == [1, caller]
    assert weights[0] == weights[1]
