import numpy as np
import pytest

from conftest import IDM_TRUE
from phyres import synth
from phyres.domain import DatasetConfig, SampleBatch
from phyres.errors import ConfigError, NumericError
from phyres.ingest import extract_samples, parse_trajectory_csv
from phyres.physics import IdmParams, NewellParams, idm_accel, one_step_batch, rollout_batch
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


def _numpy_scalar_corpus(cfg: SynthConfig) -> bytes:
    """Reference: the generator that steps on numpy scalars in (n_veh, steps)
    arrays and formats each CSV field with ``format``, which the Python-float
    recurrences replaced."""
    def integrate_lead(v_des, delta, x0, accel_cap):
        n = len(v_des)
        a, v, x = np.zeros(n), np.empty(n), np.empty(n)
        v[0], x[0] = v_des[0], x0
        for t in range(1, n):
            a[t] = np.clip((v_des[t] - v[t - 1]) / delta, -accel_cap, accel_cap)
            v[t] = v[t - 1] + a[t] * delta
            x[t] = x[t - 1] + v[t] * delta
        return a, v, x

    def platoon(rng):
        n_veh, steps, delta = cfg.vehicles_per_platoon, cfg.duration_steps, cfg.delta
        v_des = synth._lead_speed_profile(cfg, rng)
        noise_rng = np.random.default_rng(rng.integers(2 ** 63))
        for attempt in range(10):
            a, v, x = np.zeros((3, n_veh, steps))
            a[0], v[0], x[0] = integrate_lead(v_des, delta, 0.0, cfg.profile.accel_cap)
            ok = True
            for k in range(1, n_veh):
                v[k, 0] = v[0, 0]
                if cfg.initial_gap is not None:
                    gap0 = cfg.initial_gap
                elif isinstance(cfg.params, IdmParams):
                    p = cfg.params
                    gap0 = (p.s0 + p.t_gap * v[k, 0]) / np.sqrt(
                        max(1.0 - (v[k, 0] / p.v_free) ** 4, 1e-3))
                else:
                    gap0 = 2.0 * cfg.params.w
                x[k, 0] = x[k - 1, 0] - gap0 * (1.0 + 0.5 * attempt)
                for t in range(1, steps):
                    gap = x[k - 1, t - 1] - x[k, t - 1]
                    if gap <= 0:
                        ok = False
                        break
                    if cfg.generator == "idm":
                        acc = float(idm_accel(v[k, t - 1], v[k, t - 1] - v[k - 1, t - 1], gap,
                                              cfg.params))
                    else:
                        src = np.clip(t - gap / (cfg.params.w * delta), 0.0, steps - 1.0)
                        lo = int(np.floor(src))
                        frac = src - lo
                        acc = (1.0 - frac) * a[k - 1, lo] + frac * a[k - 1, min(lo + 1, steps - 1)]
                    if cfg.noise_sigma > 0:
                        acc += cfg.noise_sigma * noise_rng.standard_normal()
                    if not np.isfinite(acc):
                        raise NumericError("non-finite acceleration during generation")
                    v_new = v[k, t - 1] + acc * delta
                    if v_new < 0.0:
                        acc = -v[k, t - 1] / delta
                        while v[k, t - 1] + acc * delta < 0.0:
                            acc = np.nextafter(acc, 0.0)
                        v_new = v[k, t - 1] + acc * delta
                    a[k, t], v[k, t] = acc, v_new
                    x[k, t] = x[k, t - 1] + v_new * delta
                if not ok or x[k - 1, -1] - x[k, -1] <= 0:
                    ok = False
                    break
            if ok:
                return a, v, x
        raise NumericError("persistent gap violation; could not generate platoon")

    rng = np.random.default_rng(cfg.seed)
    platoons = [platoon(rng) for _ in range(cfg.n_platoons)]
    lines = ["vehicle_id,time,position,speed,accel,leader_id\n"]
    for p, (a, v, x) in enumerate(platoons):
        for k in range(cfg.vehicles_per_platoon):
            lid = "" if k == 0 else str(p * 1000 + k)
            lines += [f"{p * 1000 + k + 1},{format(t * cfg.delta, '.17g')},"
                      f"{format(x[k, t], '.17g')},{format(v[k, t], '.17g')},"
                      f"{format(a[k, t], '.17g')},{lid}\n" for t in range(cfg.duration_steps)]
    return "".join(lines).encode()


class TestMatchesNumpyScalarReference:
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("make, initial_gap", [
        (_idm_config, None),
        (_idm_config, 1.0),  # followers brake to a stop: the zero-speed clamp
        (_idm_config, 3.0),  # gaps close, and platoons are retried wider
        (_newell_config, 8.0),
        (_newell_config, 1.0),  # retried platoons, clamped rows at sigma 2
    ], ids=["idm", "idm-gap1", "idm-gap3", "newell", "newell-gap1"])
    def test_bytes_equal(self, tmp_path, make, initial_gap, sigma):
        cfg = make(noise_sigma=sigma, initial_gap=initial_gap)
        generate_corpus(cfg, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == _numpy_scalar_corpus(cfg)

    @pytest.mark.parametrize("cfg", [
        # the corpus of test_negative_speed_clamped_with_consistent_accel
        _idm_config(noise_sigma=2.0, n_platoons=1, seed=15),
        # a clamp where -v / delta * delta passes 0, so the accel steps one ulp back
        _idm_config(noise_sigma=2.0, initial_gap=1.0, seed=33),
    ], ids=["seed15", "one-ulp-back"])
    def test_bytes_equal_on_the_clamp_cases(self, tmp_path, cfg):
        generate_corpus(cfg, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == _numpy_scalar_corpus(cfg)

    def test_same_error_when_every_retry_fails(self, tmp_path):
        cfg = _newell_config(noise_sigma=2.0, initial_gap=1.0, seed=0)
        with pytest.raises(NumericError, match="^persistent gap violation"):
            _numpy_scalar_corpus(cfg)
        with pytest.raises(NumericError, match="^persistent gap violation"):
            generate_corpus(cfg, tmp_path / "c.csv")
        assert not (tmp_path / "c.csv").exists()

    def test_same_error_when_a_speed_overflows(self, tmp_path):
        # noise drives a follower 1e300 m behind its leader past 1e77 m/s, where
        # (v / v_free) ** 4 overflows: inf for a numpy float64, OverflowError for a float
        cfg = _idm_config(noise_sigma=1e100, initial_gap=1e300)
        with pytest.raises(NumericError, match="^non-finite acceleration during generation$"):
            with np.errstate(over="ignore"):
                _numpy_scalar_corpus(cfg)
        with pytest.raises(NumericError, match="^non-finite acceleration during generation$"):
            generate_corpus(cfg, tmp_path / "c.csv")
        assert not (tmp_path / "c.csv").exists()

    def test_bytes_equal_when_w_times_delta_underflows(self, tmp_path):
        # a numpy float64 divided by 0.0 is inf, a float raises: the delay is then infinite
        cfg = _newell_config(params=NewellParams(w=1e-200), delta=1e-200, n_platoons=1)
        with np.errstate(divide="ignore"):
            want = _numpy_scalar_corpus(cfg)
        generate_corpus(cfg, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == want
