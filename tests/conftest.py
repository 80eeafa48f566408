"""Shared fixtures and sample builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from phyres.domain import DatasetConfig, TrajectorySample
from phyres.physics import IdmParams

# Reference parameter set used across calibration and generation tests.
IDM_TRUE = IdmParams(v_free=22.495, a_max=0.911, b_comf=2.859,
                     s0=1.627, t_gap=1.132)


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
