import numpy as np
import pytest

from conftest import IDM_TRUE
from phyres.domain import DatasetConfig, SampleBatch
from phyres.errors import ConfigError
from phyres.ingest import extract_samples, parse_trajectory_csv
from phyres.physics import NewellParams, idm_accel, one_step_batch, rollout_batch
from phyres.synth import LeadProfile, SynthConfig, generate_corpus

DELTA = 0.1


def _idm_config(**kw):
    base = dict(generator="idm", params=IDM_TRUE, n_platoons=2,
                vehicles_per_platoon=3, duration_steps=80, delta=DELTA,
                noise_sigma=0.0, seed=11)
    base.update(kw)
    return SynthConfig(**base)


def _newell_config(**kw):
    base = dict(generator="newell_shift", params=NewellParams(w=4.0),
                n_platoons=2, vehicles_per_platoon=3, duration_steps=200,
                delta=DELTA, noise_sigma=0.0, seed=5, initial_gap=8.0,
                profile=LeadProfile(segment_steps=120, osc_amp=0.3,
                                    accel_cap=1.0, base_jump_max=0.8))
    base.update(kw)
    return SynthConfig(**base)


class TestConfig:
    def test_unknown_generator_rejected(self):
        with pytest.raises(ConfigError):
            _idm_config(generator="gipps")

    def test_param_type_must_match_generator(self):
        with pytest.raises(ConfigError):
            _idm_config(params=NewellParams(w=4.0))
        with pytest.raises(ConfigError):
            _newell_config(params=IDM_TRUE)

    @pytest.mark.parametrize("n_platoons", [0, -3])
    def test_no_platoons_rejected(self, n_platoons):
        with pytest.raises(ConfigError, match="at least 1 platoon"):
            _idm_config(n_platoons=n_platoons)

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_non_positive_delta_rejected(self, delta):
        with pytest.raises(ConfigError, match="^delta must be positive$"):
            _idm_config(delta=delta)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            _idm_config(vehicles_per_platoon=1)
        with pytest.raises(ConfigError):
            _idm_config(duration_steps=1)
        with pytest.raises(ConfigError):
            _idm_config(noise_sigma=-0.1)


class TestGeneratedCorpus:
    def test_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_corpus(_idm_config(noise_sigma=0.1), p1)
        generate_corpus(_idm_config(noise_sigma=0.1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_corpus(_idm_config(), p1)
        generate_corpus(_idm_config(seed=12), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_diagnostics_and_parseable(self, tmp_path):
        path = tmp_path / "c.csv"
        info = generate_corpus(_idm_config(), path)
        assert info == {"platoons": 2, "vehicles": 6, "rows": 6 * 80}
        series = parse_trajectory_csv(path, DELTA)
        assert len(series) == 6
        # leader chain within each platoon
        by_id = {s.vehicle_id: s for s in series}
        assert by_id[1].leader_id is None
        assert by_id[2].leader_id == 1
        assert by_id[1002].leader_id == 1001

    def test_gaps_stay_positive(self, tmp_path):
        for sigma in (0.0, 0.1):
            path = tmp_path / f"c{sigma}.csv"
            generate_corpus(_idm_config(noise_sigma=sigma, n_platoons=4), path)
            series = parse_trajectory_csv(path, DELTA)
            by_id = {s.vehicle_id: s for s in series}
            for s in series:
                if s.leader_id is None:
                    continue
                gap = by_id[s.leader_id].position - s.position
                assert np.all(gap > 0)

    def test_kinematic_consistency(self, tmp_path):
        path = tmp_path / "c.csv"
        generate_corpus(_idm_config(), path)
        for s in parse_trajectory_csv(path, DELTA):
            np.testing.assert_allclose(
                s.speed[1:], s.speed[:-1] + DELTA * s.accel[1:], atol=1e-12)
            np.testing.assert_allclose(
                s.position[1:], s.position[:-1] + DELTA * s.speed[1:], atol=1e-9)


class TestSelfConsistency:
    def _samples(self, tmp_path, cfg, t_back, t_fwd):
        path = tmp_path / "c.csv"
        generate_corpus(cfg, path)
        dcfg = DatasetConfig(delta=DELTA, k_vehicles=cfg.vehicles_per_platoon,
                             t_back=t_back, t_fwd=t_fwd, omega_train=0.6,
                             omega_val=0.2, seed=0)
        return extract_samples(parse_trajectory_csv(path, DELTA), dcfg)

    def test_zero_noise_idm_matches_model_one_step(self, tmp_path):
        samples = self._samples(tmp_path, _idm_config(), t_back=20, t_fwd=5)
        assert len(samples) > 0
        preds = one_step_batch(SampleBatch.of(samples), IDM_TRUE, DELTA)
        targets = np.array([s.ego_future_accel[0] for s in samples])
        assert float(np.max(np.abs(preds - targets))) < 1e-9

    def test_zero_noise_shift_generator_matches_predictor(self, tmp_path):
        samples = self._samples(tmp_path, _newell_config(), t_back=50, t_fwd=1)
        assert len(samples) > 0
        batch = SampleBatch.of(samples)
        preds, _ = rollout_batch(batch, NewellParams(w=4.0), DELTA)
        assert float(np.max(np.abs(preds - batch.ego_future_accel))) < 1e-9

    def test_noise_breaks_exactness(self, tmp_path):
        samples = self._samples(tmp_path, _idm_config(noise_sigma=0.1),
                                t_back=20, t_fwd=5)
        preds = one_step_batch(SampleBatch.of(samples), IDM_TRUE, DELTA)
        targets = np.array([s.ego_future_accel[0] for s in samples])
        assert float(np.max(np.abs(preds - targets))) > 1e-3


class TestSpeedClamp:
    def test_negative_speed_clamped_with_consistent_accel(self, tmp_path):
        # at this noise and seed, noisy braking would take a follower below 0
        # on five rows; the clamp stops it there instead
        path = tmp_path / "c.csv"
        generate_corpus(_idm_config(noise_sigma=2.0, n_platoons=1, seed=15), path)
        clamped = 0
        for s in parse_trajectory_csv(path, DELTA):
            assert np.all(s.speed >= 0.0)
            clamped += int(np.sum(s.speed[1:] == 0.0))
            assert np.array_equal(s.speed[1:], s.speed[:-1] + s.accel[1:] * DELTA)
        assert clamped == 5

    def test_follower_that_stops_keeps_exact_kinematics(self, tmp_path):
        # 1 m behind its leader at the leader's speed, a follower brakes to a stop
        path = tmp_path / "c.csv"
        generate_corpus(_idm_config(n_platoons=1, initial_gap=1.0), path)
        stops = 0
        for s in parse_trajectory_csv(path, DELTA):
            assert np.all(s.speed >= 0.0)
            stops += int(np.sum((s.speed[1:] == 0.0) & (s.speed[:-1] > 0.0)))
            # the recurrence the generator runs, bit for bit, clamped rows included
            assert np.array_equal(s.speed[1:], s.speed[:-1] + s.accel[1:] * DELTA)
        assert stops >= 1
