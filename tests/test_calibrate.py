import multiprocessing
import os

import numpy as np
import pytest

from conftest import IDM_TRUE, make_sample, time_limit
from phyres import calibrate, cli, forkpool, serialize
from phyres.calibrate import (CalibrationConfig, calibration_objective,
                              fit_physics, make_params, monte_carlo_calibrate,
                              params_to_dict, DEFAULT_BOUNDS)
from phyres.domain import DatasetConfig, SampleBatch
from phyres.errors import CalibrationError, ConfigError, NumericError
from phyres.ingest import extract_samples, parse_trajectory_csv
from phyres.physics import (FvdParams, IdmParams, NewellParams, OneStepInputs, fvd_accel,
                            idm_accel, newell_predict_batch, one_step_batch)
from phyres.synth import LeadProfile, SynthConfig, generate_corpus

DELTA = 0.1


@pytest.fixture(scope="module")
def newell_samples(tmp_path_factory):
    root = tmp_path_factory.mktemp("newell")
    csv_path = root / "corpus.csv"
    cfg = SynthConfig(
        generator="newell_shift", params=NewellParams(w=4.0), n_platoons=4,
        vehicles_per_platoon=4, duration_steps=200, delta=DELTA,
        noise_sigma=0.0, seed=5, initial_gap=8.0,
        profile=LeadProfile(segment_steps=120, v_min=5.0, v_max=12.0,
                            osc_amp=0.3, accel_cap=1.0, base_jump_max=0.8),
    )
    generate_corpus(cfg, csv_path)
    dcfg = DatasetConfig(delta=DELTA, k_vehicles=4, t_back=50, t_fwd=1,
                         omega_train=0.6, omega_val=0.2, seed=0)
    return extract_samples(parse_trajectory_csv(csv_path, DELTA), dcfg)


class TestConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(model="gipps", sample_size=10)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(model="idm", sample_size=0)
        with pytest.raises(ConfigError):
            CalibrationConfig(model="idm", sample_size=10, repetitions=0)


class TestObjective:
    def test_perfect_fit_is_zero(self):
        s = make_sample(k=2, tb=6, tf=3, seed=1)
        pred = one_step_batch(SampleBatch.of([s]), IDM_TRUE, DELTA)
        s.ego_future_accel[0] = pred[0]
        assert calibration_objective([s], IDM_TRUE, DELTA) == 0.0

    def test_mean_squared_error(self):
        samples = [make_sample(k=2, tb=6, tf=3, seed=i) for i in range(4)]
        preds = one_step_batch(SampleBatch.of(samples), IDM_TRUE, DELTA)
        targets = np.array([s.ego_future_accel[0] for s in samples])
        expected = float(np.mean((preds - targets) ** 2))
        assert calibration_objective(samples, IDM_TRUE, DELTA) == expected

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_prediction_gives_inf(self):
        s = make_sample(k=2, tb=6, tf=3, seed=2)
        s.hist_speed[-1, -1] = 1e9
        s.ego_speed_at_t0 = 1e9
        bad = FvdParams(kappa=1e300, lam=1e300, v1=1e300, v2=1.0, c1=1.0,
                        c2=0.0, l_c=5.0)
        assert calibration_objective([s], bad, DELTA) == float("inf")
        assert calibration_objective(SampleBatch.of([s]), bad, DELTA) == float("inf")
        assert calibration_objective(OneStepInputs.of([s]), bad, DELTA) == float("inf")

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_nan_prediction_gives_inf(self):
        s = make_sample(k=2, tb=6, tf=3, seed=2)
        s.hist_speed[-2, -1] = 1e9  # the leader: kappa * (V - v) is inf, lam * dv -inf
        bad = FvdParams(kappa=1e300, lam=1e300, v1=1e300, v2=1.0, c1=1.0,
                        c2=0.0, l_c=5.0)
        assert np.isnan(one_step_batch([s], bad, DELTA)[0])
        assert calibration_objective([s], bad, DELTA) == float("inf")
        assert calibration_objective(OneStepInputs.of([s]), bad, DELTA) == float("inf")

    @pytest.mark.parametrize("model", ["newell", "idm", "fvd"])
    def test_inputs_batch_and_mean_bit_equal(self, model):
        batch = SampleBatch.of([make_sample(k=3, tb=20, tf=3, seed=i) for i in range(40)])
        inputs = OneStepInputs.of(batch)
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = make_params(model, {name: rng.uniform(lo, hi) for name, (lo, hi)
                                         in DEFAULT_BOUNDS[model].items()})
            # the one-step prediction and the mean, written out from the batch
            pos_t0 = batch.hist_position[:, :, -1]
            if model == "newell":
                dist = pos_t0[:, :-1] - pos_t0[:, -1:]
                preds = newell_predict_batch(batch.hist_accel[:, :-1], dist / params.w, 1,
                                             DELTA)[:, 0]
            else:
                v = batch.ego_speed_at_t0
                preds = (idm_accel if model == "idm" else fvd_accel)(
                    v, v - batch.hist_speed[:, -2, -1], pos_t0[:, -2] - pos_t0[:, -1], params)
            err = preds - batch.ego_future_accel[:, 0]
            expected = float(np.mean(err * err))
            assert np.isfinite(expected)
            assert calibration_objective(inputs, params, DELTA) == expected
            assert calibration_objective(batch, params, DELTA) == expected

    def test_idm_gap_checked_when_inputs_are_built(self):
        samples = [make_sample(k=2, tb=6, tf=3, seed=i) for i in range(4)]
        assert not OneStepInputs.of(samples).gap_closed
        samples[2].hist_position[0, -1] = samples[2].hist_position[1, -1]  # zero t0 gap
        inputs = OneStepInputs.of(samples)
        assert inputs.gap_closed
        for given in (samples, SampleBatch.of(samples), inputs):
            with pytest.raises(NumericError, match="^IDM requires a positive gap$"):
                one_step_batch(given, IDM_TRUE, DELTA)
        fvd = make_params("fvd", {"kappa": 0.4, "lam": 0.6})
        assert np.isfinite(one_step_batch(inputs, fvd, DELTA)).all()

    @pytest.mark.parametrize("params", [
        IDM_TRUE, make_params("fvd", {"kappa": 0.4, "lam": 0.6}), NewellParams(w=4.0)])
    def test_list_and_batch_bit_equal(self, params):
        samples = [make_sample(k=3, tb=20, tf=3, seed=i) for i in range(30)]
        from_list = calibration_objective(samples, params, DELTA)
        assert calibration_objective(SampleBatch.of(samples), params, DELTA) == from_list
        assert np.isfinite(from_list)


class TestWaveSpeedFit:
    def test_recovers_true_value(self, newell_samples):
        cfg = CalibrationConfig(model="newell", sample_size=200, seed=3)
        params, mse = fit_physics(newell_samples[:200], cfg, DELTA)
        assert abs(params.w - 4.0) < 1e-3
        assert mse < 1e-10

    def test_agrees_with_brute_force_grid(self, newell_samples):
        subset = newell_samples[:200]
        cfg = CalibrationConfig(model="newell", sample_size=200, seed=3)
        _, fitted_obj = fit_physics(subset, cfg, DELTA)
        grid = np.arange(1.0, 10.0 + 1e-9, 0.01)
        grid_best = min(calibration_objective(subset, NewellParams(w=w), DELTA)
                        for w in grid)
        assert grid_best >= fitted_obj - 1e-6

    def test_empty_sample_set_rejected(self):
        cfg = CalibrationConfig(model="newell", sample_size=1, seed=0)
        with pytest.raises(ConfigError):
            fit_physics([], cfg, DELTA)


class TestSimplexFit:
    def _self_consistent(self, n, params, seed=0):
        """Samples whose first future accel is the model's own prediction."""
        out = []
        for i in range(n):
            s = make_sample(k=2, tb=6, tf=3, seed=seed * 1000 + i)
            s.ego_future_accel[0] = one_step_batch(SampleBatch.of([s]), params, DELTA)[0]
            out.append(s)
        return out

    def test_idm_recovery_on_self_consistent_data(self):
        samples = self._self_consistent(200, IDM_TRUE)
        cfg = CalibrationConfig(model="idm", sample_size=200, seed=1)
        params, mse = fit_physics(samples, cfg, DELTA)
        fitted = params_to_dict(params)
        truth = params_to_dict(IDM_TRUE)
        for name, true_val in truth.items():
            assert abs(fitted[name] - true_val) / true_val < 0.05, name
        assert mse < 1e-10

    def test_fvd_recovery_on_self_consistent_data(self):
        true = make_params("fvd", {"kappa": 0.4, "lam": 0.6})
        samples = self._self_consistent(200, true, seed=2)
        cfg = CalibrationConfig(model="fvd", sample_size=200, seed=1)
        params, _ = fit_physics(samples, cfg, DELTA)
        assert abs(params.kappa - 0.4) < 0.02
        assert abs(params.lam - 0.6) < 0.02

    def test_idm_fit_on_non_positive_gap_raises(self):
        samples = [make_sample(k=2, tb=6, tf=3, seed=i) for i in range(5)]
        samples[3].hist_position[0, -1] = samples[3].hist_position[1, -1]  # zero t0 gap
        cfg = CalibrationConfig(model="idm", sample_size=5, seed=0)
        with pytest.raises(NumericError, match="positive gap"):
            fit_physics(SampleBatch.of(samples), cfg, DELTA)

    def test_fitted_params_inside_bounds(self):
        samples = [make_sample(k=2, tb=6, tf=3, seed=i) for i in range(50)]
        cfg = CalibrationConfig(model="idm", sample_size=50, seed=4,
                                nm_restarts=2, nm_maxiter=200)
        params, _ = fit_physics(samples, cfg, DELTA)
        for name, val in params_to_dict(params).items():
            lo, hi = DEFAULT_BOUNDS["idm"][name]
            assert lo <= val <= hi

    def test_fit_no_worse_than_random_candidates(self):
        samples = [make_sample(k=2, tb=6, tf=3, seed=100 + i) for i in range(50)]
        cfg = CalibrationConfig(model="fvd", sample_size=50, seed=5)
        _, fitted_obj = fit_physics(samples, cfg, DELTA)
        rng = np.random.default_rng(0)
        for _ in range(20):
            cand = make_params("fvd", {"kappa": rng.uniform(0.001, 2),
                                       "lam": rng.uniform(0, 2)})
            assert calibration_objective(samples, cand, DELTA) >= fitted_obj - 1e-12


class TestMonteCarlo:
    def test_report_structure_and_statistics(self, newell_samples):
        cfg = CalibrationConfig(model="newell", sample_size=100,
                                repetitions=3, seed=6)
        report = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        assert report.repetitions == 3
        assert len(report.per_repetition) == 3
        ws = [r["params"]["w"] for r in report.per_repetition]
        assert report.param_mean["w"] == pytest.approx(float(np.mean(ws)))
        # variance is the population variance over repetitions
        assert report.param_variance["w"] == pytest.approx(
            float(np.var(ws)), abs=1e-15)

    def test_deterministic(self, newell_samples):
        cfg = CalibrationConfig(model="newell", sample_size=50,
                                repetitions=2, seed=7)
        a = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        b = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        assert a.to_dict() == b.to_dict()

    def test_too_few_samples_rejected(self, newell_samples):
        cfg = CalibrationConfig(model="newell", sample_size=10 ** 6, seed=0)
        with pytest.raises(ConfigError, match="at least"):
            monte_carlo_calibrate(newell_samples, cfg, DELTA)

    def test_report_serializes(self, newell_samples, tmp_path):
        cfg = CalibrationConfig(model="newell", sample_size=50,
                                repetitions=2, seed=8)
        report = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        path = tmp_path / "report.json"
        report.write_json(path)
        import json
        obj = json.loads(path.read_text())
        assert obj["model"] == "newell"
        assert len(obj["per_repetition"]) == 2


def _draw_ids(samples, cfg, rep):
    """The sample ids of repetition ``rep``'s draw."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep]))
    return sorted(samples.sample_ids[rng.choice(len(samples), size=cfg.sample_size,
                                                replace=False)].tolist())


class TestCalibrationPool:
    """IDM and FVD repetitions run in forked workers when two CPUs are free;
    the report does not depend on it."""

    @pytest.fixture(autouse=True)
    def no_worker_outlives_the_case(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("model", ["idm", "fvd"])
    def test_report_does_not_depend_on_cpus(self, newell_samples, monkeypatch, model):
        cfg = CalibrationConfig(model=model, sample_size=40, repetitions=3, seed=9,
                                nm_restarts=2, nm_maxiter=40)
        pools = []
        completed = forkpool.completed

        def spy(fn, jobs):
            pools.append(len(jobs))
            return completed(fn, jobs)

        monkeypatch.setattr(forkpool, "completed", spy)
        reports = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            reports.append(serialize.dumps(
                monte_carlo_calibrate(newell_samples, cfg, DELTA).to_dict()))
        assert pools == [3]
        assert reports[0] == reports[1]

    def test_lowest_failing_repetition_raises(self, newell_samples, monkeypatch):
        cfg = CalibrationConfig(model="fvd", sample_size=30, repetitions=3, seed=4,
                                nm_restarts=1, nm_maxiter=20)
        failing = {tuple(_draw_ids(newell_samples, cfg, rep)): rep for rep in (1, 2)}
        fit = calibrate.fit_physics

        def fit_or_fail(samples, *args, **kwargs):
            rep = failing.get(tuple(sorted(samples.sample_ids.tolist())))
            if rep is not None:
                raise CalibrationError(f"fit {rep} failed")
            return fit(samples, *args, **kwargs)

        monkeypatch.setattr(calibrate, "fit_physics", fit_or_fail)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            with pytest.raises(CalibrationError) as caught:
                monte_carlo_calibrate(newell_samples, cfg, DELTA)
            assert str(caught.value) == "repetition 1: fit 1 failed"

    def test_non_positive_gap_is_numeric_error(self, monkeypatch):
        samples = [make_sample(sample_id=i, k=2, tb=6, tf=3, seed=i) for i in range(6)]
        samples[3].hist_position[0, -1] = samples[3].hist_position[1, -1]  # zero t0 gap
        cfg = CalibrationConfig(model="idm", sample_size=6, repetitions=2, seed=0)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            with pytest.raises(NumericError) as caught:
                monte_carlo_calibrate(SampleBatch.of(samples), cfg, DELTA)
            assert type(caught.value) is NumericError
            assert str(caught.value) == "IDM requires a positive gap"

    def test_dead_worker_names_its_repetition(self, newell_samples, tmp_path, capsys,
                                              monkeypatch):
        parent = os.getpid()

        def die(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("an idm repetition ran in the calling process")
            os._exit(9)

        monkeypatch.setattr(calibrate, "fit_physics", die)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = CalibrationConfig(model="idm", sample_size=20, repetitions=3, seed=0)
        with time_limit(60), pytest.raises(CalibrationError,
                                           match=r"^repetition 0: .*terminated abruptly"):
            monte_carlo_calibrate(newell_samples, cfg, DELTA)
        assert multiprocessing.active_children() == []

        corpus, samples = tmp_path / "corpus.csv", tmp_path / "samples.jsonl"
        assert cli.main(["synth", "--out", str(corpus), "--seed", "2",
                         "--platoons", "3"]) == 0
        assert cli.main(["extract", "--input", str(corpus), "--out", str(samples)]) == 0
        capsys.readouterr()
        with time_limit(60):
            assert cli.main(["calibrate", "--samples", str(samples), "--seed", "0",
                             "--out", str(tmp_path / "c.json"), "--model", "idm",
                             "--sample-size", "20"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: repetition 0: "), err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("model, repetitions", [("newell", 3), ("idm", 1)])
    def test_no_pool(self, newell_samples, monkeypatch, model, repetitions):
        def no_pool(fn, jobs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(forkpool, "completed", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = CalibrationConfig(model=model, sample_size=30, repetitions=repetitions,
                                seed=1, nm_restarts=1, nm_maxiter=20)
        report = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        assert len(report.per_repetition) == repetitions
