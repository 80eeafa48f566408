"""Shared fixtures and sample builders for the test suite."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phyres
from phyres.domain import DatasetConfig, TrajectorySample
from phyres.physics import IdmParams

# Reference parameter set used across calibration and generation tests.
IDM_TRUE = IdmParams(v_free=22.495, a_max=0.911, b_comf=2.859,
                     s0=1.627, t_gap=1.132)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_fresh(script: str, *args: str, cwd=None, environ=None) -> str:
    """Run ``script`` with ``args`` in a new interpreter that imports this
    phyres, in ``environ`` (default: this one's environment); returns its
    stdout, and fails the test unless it exits 0."""
    src = str(Path(phyres.__file__).resolve().parent.parent)
    environ = os.environ if environ is None else environ
    env = dict(environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def make_sample(sample_id=0, k=3, tb=6, tf=4, seed=0, delta=0.1):
    """A structurally valid random sample (not dynamically consistent)."""
    rng = np.random.default_rng(seed)
    speed = rng.uniform(3.0, 10.0, size=(k, tb))
    accel = rng.uniform(-1.0, 1.0, size=(k, tb))
    # build positions back to front so gaps stay positive
    pos = np.empty((k, tb))
    pos[k - 1] = np.cumsum(speed[k - 1]) * delta
    for i in range(k - 2, -1, -1):
        pos[i] = pos[i + 1] + rng.uniform(5.0, 15.0)
    return TrajectorySample(
        sample_id=sample_id,
        hist_accel=accel,
        hist_speed=speed,
        hist_position=pos,
        ego_future_accel=rng.uniform(-1.0, 1.0, size=tf),
        ego_speed_at_t0=float(speed[k - 1, -1]),
        leader_future_accel=rng.uniform(-1.0, 1.0, size=(k - 1, tf)),
    )


def make_samples(n, **kwargs):
    return [make_sample(sample_id=i, seed=1000 + i, **kwargs) for i in range(n)]


class Allocations:
    """Stands in for numpy in a module such as ``neuralnet``: records the
    dtype and shape of every array that np.zeros, np.zeros_like, np.empty,
    np.empty_like and np.ones return while ``on``."""

    def __init__(self):
        self.on, self.dtypes, self.shapes = False, [], []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("zeros", "zeros_like", "empty", "empty_like", "ones"):
            return fn

        def allocate(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.on:
                self.dtypes.append(out.dtype)
                self.shapes.append(out.shape)
            return out
        return allocate


@pytest.fixture
def dataset_config():
    return DatasetConfig(delta=0.1, k_vehicles=3, t_back=6, t_fwd=4,
                         omega_train=0.6, omega_val=0.2, seed=0)


@pytest.fixture(scope="session")
def small_idm_corpus(tmp_path_factory):
    """Zero-noise generated corpus, extracted with the default geometry."""
    from phyres.ingest import extract_samples, parse_trajectory_csv
    from phyres.synth import SynthConfig, generate_corpus

    root = tmp_path_factory.mktemp("small_idm")
    csv_path = root / "corpus.csv"
    cfg = SynthConfig(generator="idm", params=IDM_TRUE, n_platoons=4,
                      vehicles_per_platoon=4, duration_steps=80, delta=0.1,
                      noise_sigma=0.0, seed=11)
    generate_corpus(cfg, csv_path)
    dcfg = DatasetConfig(delta=0.1, k_vehicles=4, t_back=20, t_fwd=5,
                         omega_train=0.6, omega_val=0.2, seed=0)
    samples = extract_samples(parse_trajectory_csv(csv_path, 0.1), dcfg)
    return samples, dcfg, csv_path


def _spacing_nudge(m, k, tb):
    m = m.copy()
    m[1, 1 + 2 * k * tb] += 1e-3  # the first hist_spacing column, 1 mm off
    return m


def _zero_spacing(m, k, tb):
    m = m.copy()
    pos = 1 + (3 * k - 1) * tb  # the first hist_position column
    m[1, pos] = m[1, pos + tb]  # the lead vehicle at its follower's position
    m[1, 1 + 2 * k * tb] = 0.0  # and the hist_spacing to match
    return m


def _set(m, index, value):
    m = m.copy()
    m[index] = value
    return m


# Ways to spoil a sample file's sidecar, each a DataError on read: a function
# of (matrix, K, t_back) giving the new matrix, or None for a truncated file.
SIDECAR_CORRUPTIONS = {
    "truncated": None,
    "float32": lambda m, k, tb: np.zeros(m.shape, dtype=np.float32),
    "3-d": lambda m, k, tb: m[None],
    "wrong-width": lambda m, k, tb: m[:, :-1],
    "wrong-rows": lambda m, k, tb: m[:-1],
    "fractional-id": lambda m, k, tb: _set(m, (0, 0), 0.5),
    "infinite-id": lambda m, k, tb: _set(m, (0, 0), np.inf),
    "nan-value": lambda m, k, tb: _set(m, (1, 5), np.nan),
    "spacing-off": _spacing_nudge,
    "negative-speed": lambda m, k, tb: _set(m, (1, 1 + k * tb), -2.0),  # the first hist_speed
    # the ego's last hist_speed, 1 m/s off its ego_speed_at_t0
    "ego-speed": lambda m, k, tb: _set(m, (1, 2 * k * tb), m[1, 2 * k * tb] + 1.0),
    "zero-spacing": _zero_spacing,
    "repeated-id": lambda m, k, tb: _set(m, (1, 0), m[0, 0]),
    "huge-id": lambda m, k, tb: _set(m, (0, 0), 1e30),  # integral, beyond 2**53
    "id-2**53": lambda m, k, tb: _set(m, (0, 0), 2.0 ** 53),  # where 2**53 + 1 rounds to
}


def _line_spacing_nudge(obj):
    spacing = obj["hist_spacing"]
    return dict(obj, hist_spacing=[[spacing[0][0] + 1e-3, *spacing[0][1:]], *spacing[1:]])


def _line_zero_spacing(obj):
    pos, spacing = obj["hist_position"], obj["hist_spacing"]
    return dict(obj, hist_position=[[pos[1][0], *pos[0][1:]], *pos[1:]],
                hist_spacing=[[0.0, *spacing[0][1:]], *spacing[1:]])


# Ways to spoil a sample line of a sample file, each a DataError naming the
# line: a function of (the line's object, the object of the line before)
# giving the new object.  The first six are the JSON-lines counterparts of
# SIDECAR_CORRUPTIONS' cases of the same names.
LINE_CORRUPTIONS = {
    "fractional-id": lambda obj, prev: dict(obj, sample_id=obj["sample_id"] + 0.5),
    "spacing-off": lambda obj, prev: _line_spacing_nudge(obj),
    "negative-speed": lambda obj, prev: dict(
        obj, hist_speed=[[-2.0, *obj["hist_speed"][0][1:]], *obj["hist_speed"][1:]]),
    "zero-spacing": lambda obj, prev: _line_zero_spacing(obj),
    "ego-speed": lambda obj, prev: dict(obj, ego_speed_at_t0=-2.0),
    "repeated-id": lambda obj, prev: dict(obj, sample_id=prev["sample_id"]),
    "id-1.5": lambda obj, prev: dict(obj, sample_id=1.5),
    "id-true": lambda obj, prev: dict(obj, sample_id=True),
    "id-string": lambda obj, prev: dict(obj, sample_id="1"),
    "id-10**30": lambda obj, prev: dict(obj, sample_id=10 ** 30),
    "id-2**53+1": lambda obj, prev: dict(obj, sample_id=2 ** 53 + 1),  # float64 rounds it
    # values that float() reads as numbers but no sidecar can hold
    "string-value": lambda obj, prev: dict(obj, ego_speed_at_t0=str(obj["ego_speed_at_t0"])),
    "bool-value": lambda obj, prev: dict(
        obj, hist_accel=[[True, *obj["hist_accel"][0][1:]], *obj["hist_accel"][1:]]),
}


def corrupt_line(path, case, lineno):
    """Rewrite line ``lineno`` (1-based) of the sample file ``path`` as
    LINE_CORRUPTIONS[case] says."""
    lines = Path(path).read_text().splitlines()
    obj, prev = json.loads(lines[lineno - 1]), json.loads(lines[lineno - 2])
    lines[lineno - 1] = json.dumps(LINE_CORRUPTIONS[case](obj, prev))
    Path(path).write_text("\n".join(lines) + "\n")


def corrupt_sidecar(sidecar, case, k, tb):
    """Rewrite ``sidecar`` in place as SIDECAR_CORRUPTIONS[case] says."""
    if SIDECAR_CORRUPTIONS[case] is None:
        data = Path(sidecar).read_bytes()
        Path(sidecar).write_bytes(data[:len(data) // 2])
        return
    matrix = SIDECAR_CORRUPTIONS[case](np.load(sidecar), k, tb)
    with open(sidecar, "wb") as fh:
        np.save(fh, matrix, allow_pickle=False)
