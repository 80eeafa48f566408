import json
import multiprocessing
import os
from dataclasses import asdict

import numpy as np
import pytest

from conftest import IDM_TRUE, make_sample, run_fresh, time_limit
from phyres import calibrate, cli, forkpool, serialize
from phyres.calibrate import (CalibrationConfig, calibration_objective,
                              fit_physics, make_params, monte_carlo_calibrate,
                              params_to_dict, DEFAULT_BOUNDS)
from phyres.domain import DatasetConfig, SampleBatch
from phyres.errors import CalibrationError, ConfigError, NumericError
from phyres.ingest import extract_samples, parse_trajectory_csv, write_samples
from phyres.physics import (FVD_FIXED, Candidates, FvdParams, IdmParams, NewellParams,
                            OneStepInputs, fvd_accel, idm_accel, newell_predict_batch,
                            one_step_batch)
from phyres.synth import LeadProfile, SynthConfig, generate_corpus

DELTA = 0.1
NEWELL_DCFG = DatasetConfig(delta=DELTA, k_vehicles=4, t_back=50, t_fwd=1,
                            omega_train=0.6, omega_val=0.2, seed=0)


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
    return extract_samples(parse_trajectory_csv(csv_path, DELTA), NEWELL_DCFG)


class TestConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(model="gipps", sample_size=10)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(model="idm", sample_size=0)
        with pytest.raises(ConfigError):
            CalibrationConfig(model="idm", sample_size=10, repetitions=0)

    @pytest.mark.parametrize("nm_maxiter", [0, -5])
    def test_no_simplex_iteration_is_config_error(self, nm_maxiter):
        # not a fit that found no optimum: the config allows no step
        samples = [make_sample(k=2, tb=6, tf=3, seed=i) for i in range(50)]
        with pytest.raises(ConfigError, match="^nm_maxiter must be >= 1$"):
            fit_physics(samples, CalibrationConfig(model="idm", sample_size=50,
                                                   nm_maxiter=nm_maxiter), DELTA)


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
                                nm_maxiter=200)
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


def _two_polish_fit(samples, config, delta, rng):
    """Reference: ``fit_physics`` for idm and fvd as it was when both polishes
    always ran, the second from the same start when the first did not improve."""
    lo, hi = np.array(list(DEFAULT_BOUNDS[config.model].values())).T
    inputs = OneStepInputs.of(samples)

    def search(u0):
        def f(u):
            x = lo + (hi - lo) * calibrate._expit(u)
            return calibration_objective(inputs, calibrate.PARAMS_OF[config.model](*x), delta)
        return calibrate._nelder_mead(f, u0, calibrate.NM_XATOL, config.nm_maxiter,
                                      4 * config.nm_maxiter)

    best_u, best_f = None, float("inf")
    for _ in range(calibrate.NM_RESTARTS):
        u, fu = search(calibrate._box_to_unbounded(rng.uniform(lo, hi), lo, hi))
        if np.isfinite(fu) and fu < best_f:
            best_f, best_u = float(fu), u
    for _ in range(2):
        u, fu = search(best_u)
        if np.isfinite(fu) and fu < best_f:
            best_f, best_u = float(fu), u
    return calibrate.PARAMS_OF[config.model](*(lo + (hi - lo) * calibrate._expit(best_u))), best_f


def _serial_fit(minimize, expit):
    """Reference: ``fit_physics`` for idm and fvd on scipy's ``minimize`` and
    ``expit``, its searches run one after another, each drawing its start when
    it begins, and each point scored by its own params."""
    def fit(samples, config, delta, rng):
        lo, hi = np.array(list(DEFAULT_BOUNDS[config.model].values())).T
        inputs = OneStepInputs.of(samples)

        def to_box(u):
            return (lo + (hi - lo) * expit(np.asarray(u, dtype=float))).tolist()

        def search(u0):
            res = minimize(lambda u: calibration_objective(
                inputs, calibrate.PARAMS_OF[config.model](*to_box(u)), delta),
                u0, method="Nelder-Mead", options={
                    "xatol": calibrate.NM_XATOL, "fatol": np.inf,
                    "maxiter": config.nm_maxiter, "maxfev": 4 * config.nm_maxiter})
            return res.x, float(res.fun)

        best_u, best_f = None, float("inf")
        for _ in range(calibrate.NM_RESTARTS):
            u, fu = search(calibrate._box_to_unbounded(rng.uniform(lo, hi), lo, hi))
            if np.isfinite(fu) and fu < best_f:
                best_f, best_u = fu, u
        for _ in range(2):
            u, fu = search(best_u)
            if not (np.isfinite(fu) and fu < best_f):
                break
            best_f, best_u = fu, u
        return calibrate.PARAMS_OF[config.model](*to_box(best_u)), best_f

    return fit


class TestPolish:
    def test_no_search_repeats_and_report_unchanged(self, newell_samples, monkeypatch):
        # uncapped idm fits, in-process; on these draws each first polish
        # finds nothing better, so the two-polish loop repeats it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = CalibrationConfig(model="idm", sample_size=40, repetitions=2, seed=0)
        fits, search = [], calibrate._search

        def fit(*args, **kw):
            fits.append([])
            return fit_physics(*args, **kw)

        def spy(x0, *args):  # every search starts here, restart or polish
            fits[-1].append(np.asarray(x0).tobytes())
            return search(x0, *args)

        monkeypatch.setattr(calibrate, "fit_physics", fit)
        monkeypatch.setattr(calibrate, "_search", spy)
        got = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        assert len(fits) == 2
        for starts in fits:
            assert len(set(starts)) == len(starts) == calibrate.NM_RESTARTS + 1
        monkeypatch.setattr(calibrate, "fit_physics", _two_polish_fit)
        assert asdict(got) == asdict(monte_carlo_calibrate(newell_samples, cfg, DELTA))


def _in_box(model, rng, k):
    """k random points inside the model's box, as lists of floats."""
    return [[rng.uniform(lo, hi) for lo, hi in DEFAULT_BOUNDS[model].values()]
            for _ in range(k)]


def _logged(search, log):
    """``search``, a ``_search`` generator, with each point it yields appended to ``log``."""
    value = None
    while True:
        try:
            x = search.send(value)
        except StopIteration as done:
            return done.value
        log.append(_bits(x))
        value = yield x


class TestLockstep:
    """Restarts in lockstep score their points together; each search still
    sees the values, and takes the steps, that it would alone."""

    @pytest.mark.parametrize("n", [1, 7, 37, 101, 257])
    @pytest.mark.parametrize("model", ["idm", "fvd"])
    def test_batched_scores_are_one_point_objectives(self, newell_samples, model, n):
        # numpy's elementwise loops and row sums give an element the same bits
        # wherever it sits in a (k, n) array as in an (n,) one
        inputs = OneStepInputs.of(SampleBatch.of(newell_samples, np.arange(n)))
        rng = np.random.default_rng(n)
        for k in (1, 3, 5, 7):
            for _ in range(4):
                points = _in_box(model, rng, k)
                one = [calibration_objective(inputs, calibrate.PARAMS_OF[model](*p), DELTA)
                       for p in points]
                got = calibration_objective(inputs, calibrate._candidates(model, points), DELTA)
                assert _bits(got) == _bits(one)
                assert all(type(v) is float for v in got)
                # the columns of a single point score as its floats do
                cols = Candidates(model=model, **dict(zip(
                    calibrate.PARAM_ORDER[model], np.array(points[:1]).T[:, :, None])),
                    **(FVD_FIXED if model == "fvd" else {}))
                assert _bits(calibration_objective(inputs, cols, DELTA)) == _bits(one[:1])

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_non_finite_candidate_scores_inf_alone(self):
        s = make_sample(k=2, tb=6, tf=3, seed=2)
        s.hist_speed[-2, -1] = 1e9
        got = calibration_objective([s], calibrate._candidates(
            "fvd", [[0.4, 0.6], [1e300, 1e300], [0.1, 0.2]]), DELTA)
        assert got[1] == float("inf")
        assert got[0] == calibration_objective([s], make_params("fvd", {"kappa": 0.4, "lam": 0.6}),
                                               DELTA)

    @pytest.mark.parametrize("model, maxiter", [("idm", 200), ("idm", 2000), ("fvd", 2000)])
    def test_search_alone_and_with_four_others(self, newell_samples, model, maxiter):
        inputs = OneStepInputs.of(SampleBatch.of(newell_samples, np.arange(60)))
        lo, hi = np.array(list(DEFAULT_BOUNDS[model].values())).T
        rng = np.random.default_rng(3)
        starts = [calibrate._box_to_unbounded(rng.uniform(lo, hi), lo, hi) for _ in range(5)]

        def f(u):  # one point, scored by its params, as before the lockstep
            x = (lo + (hi - lo) * calibrate._expit(u)).tolist()
            return calibration_objective(inputs, calibrate.PARAMS_OF[model](*x), DELTA)

        def score(points):
            return calibration_objective(inputs, calibrate._candidates(
                model, [(lo + (hi - lo) * calibrate._expit(u)).tolist() for u in points]), DELTA)

        def search(u0, log):
            return _logged(calibrate._search(u0, calibrate.NM_XATOL, maxiter, 4 * maxiter), log)

        alone = [[] for _ in starts]
        results = [calibrate._nelder_mead(f, u0, calibrate.NM_XATOL, maxiter, 4 * maxiter)
                   for u0 in starts]
        assert [calibrate._lockstep([search(u0, log)], score)[0]
                for u0, log in zip(starts, alone)] == results
        together = [[] for _ in starts]
        got = calibrate._lockstep([search(u0, log) for u0, log in zip(starts, together)], score)
        assert together == alone
        assert len({len(log) for log in alone}) > 1  # the searches end in different rounds
        for (x, fx), (y, fy) in zip(got, results):
            assert _bits(x) == _bits(y) and _bits(fx) == _bits(fy)

    @pytest.mark.parametrize("model", ["idm", "fvd"])
    def test_restarts_share_kernel_calls(self, newell_samples, monkeypatch, model):
        sizes, objective = [], calibrate.calibration_objective

        def spy(samples, params, delta):
            got = objective(samples, params, delta)
            sizes.append(len(got))
            return got

        monkeypatch.setattr(calibrate, "calibration_objective", spy)
        cfg = CalibrationConfig(model=model, sample_size=40, seed=1, nm_maxiter=50)
        fit_physics(newell_samples[:40], cfg, DELTA)
        assert sizes[0] == calibrate.NM_RESTARTS  # each restart's first vertex
        assert max(sizes) == calibrate.NM_RESTARTS and sizes[-1] == 1  # a polish's
        assert sum(sizes) > 2 * len(sizes)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _boxed_sphere(x):
    """A sphere, inf outside the box [-1, 1]^n."""
    return float(np.sum((x + 0.5) ** 2)) if np.max(np.abs(x)) <= 1 else float("inf")


def _steps(x):
    """Rosenbrock rounded down to an integer: flat steps, so trial points tie."""
    return float(np.floor(_rosenbrock(x)))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestScipyParity:
    """``_nelder_mead`` and ``_expit`` give the bits of the scipy functions
    they port, on the options that ``fit_physics`` passes."""

    def _assert_same(self, f, x0, maxiter=2000, maxfev=8000):
        """Both evaluate ``f`` at the same points, in the same order, and
        return the same bits."""
        minimize = pytest.importorskip("scipy.optimize").minimize
        points = {"scipy": [], "port": []}

        def logged(side):  # the port hands f a list, scipy an array
            return lambda x: points[side].append(_bits(x)) or f(np.asarray(x, dtype=float))

        res = minimize(logged("scipy"), x0, method="Nelder-Mead", options={
            "xatol": 1e-6, "fatol": np.inf, "maxiter": maxiter, "maxfev": maxfev})
        x, fun = calibrate._nelder_mead(logged("port"), x0, 1e-6, maxiter, maxfev)
        assert points["port"] == points["scipy"]
        assert _bits(x) == _bits(res.x)
        assert _bits(fun) == _bits(res.fun)
        return res

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rosenbrock_5d(self, seed):
        res = self._assert_same(_rosenbrock, np.random.default_rng(seed).uniform(-2, 2, 5))
        assert res.nfev > 100

    def test_objective_inf_over_part_of_its_domain(self):
        res = self._assert_same(_boxed_sphere, np.array([0.98, 0.97, 0.99]))
        assert res.fun < 1e-10

    def test_objective_inf_everywhere(self):
        # every simplex is all inf, whose f spread (inf - inf) is nan, so
        # only the budget ends the search
        with np.errstate(invalid="ignore"):
            res = self._assert_same(lambda x: float("inf"), np.array([0.5, -1.0]),
                                    maxfev=200)
        assert res.nfev == 200

    def test_piecewise_constant_objective(self):
        # ties between trial points decide the contraction steps
        self._assert_same(_steps, np.array([-1.2, 1.0, 0.5]))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [4, 5])
    def test_tied_vertices_keep_numpy_order(self, dim, seed):
        # numpy's argsort may order ties of 4 or more entries unstably (as it
        # does on AVX-512 hosts); a port that sorts stably leaves scipy's path
        self._assert_same(_steps, np.random.default_rng(seed).uniform(-2, 2, dim))

    def test_zero_entry_in_x0(self):
        self._assert_same(_rosenbrock, np.array([0.0, 1.3, -0.7]))

    def test_budget_below_the_simplex_size(self):
        res = self._assert_same(_rosenbrock, np.array([-1.2, 1.0, 0.5, 0.0, 2.0]), maxfev=3)
        assert res.nfev == 3

    @pytest.mark.parametrize("f, x0, maxfev", [
        (_boxed_sphere, [0.98, 0.97, 0.99], 7),
        (_steps, [-1.2, 1.0, 0.5], 29),
    ], ids=["boxed-sphere", "steps"])
    def test_budget_out_in_the_middle_of_a_shrink(self, f, x0, maxfev):
        res = self._assert_same(f, np.array(x0), maxfev=maxfev)
        sim, fsim = res.final_simplex
        # a shrink cut short leaves a moved vertex with its old value
        assert any(f(v) != fv for v, fv in zip(sim, fsim))

    def test_one_iteration(self):
        res = self._assert_same(_rosenbrock, np.array([-1.2, 1.0]), maxiter=1)
        assert res.nfev == 3

    @pytest.mark.parametrize("model", ["idm", "fvd"])
    def test_reports_equal_with_scipy_swapped_in(self, newell_samples, monkeypatch, model):
        # scipy's minimize and expit drive every search, restarts and polishes,
        # one after another, and score one point at a time
        minimize = pytest.importorskip("scipy.optimize").minimize
        expit = pytest.importorskip("scipy.special").expit
        cfg = CalibrationConfig(model=model, sample_size=40, repetitions=2, seed=12)
        port = serialize.dumps(asdict(monte_carlo_calibrate(newell_samples, cfg, DELTA)))
        monkeypatch.setattr(calibrate, "fit_physics", _serial_fit(minimize, expit))
        assert serialize.dumps(asdict(monte_carlo_calibrate(newell_samples, cfg, DELTA))) == port

    def test_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        rng = np.random.default_rng(0)
        u = np.concatenate([rng.normal(0.0, 20.0, 20_000), rng.uniform(-800, 800, 20_000),
                            [-800.0, -745.0, -709.8, 0.0, 800.0, np.inf, -np.inf, np.nan]])
        assert _bits(calibrate._expit(u)) == expit(u).tobytes()


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
        assert asdict(a) == asdict(b)

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
                                nm_maxiter=40)
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
                asdict(monte_carlo_calibrate(newell_samples, cfg, DELTA))))
        assert pools == [3]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("repetitions", [3, 6])
    def test_repetitions_on_two_cpus_fork_two_workers(self, newell_samples, monkeypatch,
                                                      pool_sizes, repetitions):
        # repetitions are not even jobs: 3 FVD fits on 3 workers ran slower than on 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = CalibrationConfig(model="idm", sample_size=20, repetitions=repetitions, seed=9,
                                nm_maxiter=10)
        report = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        assert pool_sizes == [2]
        assert len(report.per_repetition) == repetitions

    def test_lowest_failing_repetition_raises(self, newell_samples, monkeypatch):
        cfg = CalibrationConfig(model="fvd", sample_size=30, repetitions=3, seed=4,
                                nm_maxiter=20)
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

    @pytest.mark.parametrize("model", ["idm", "fvd"])
    def test_pooled_fits_load_no_scipy(self, newell_samples, tmp_path, monkeypatch, model):
        # a new interpreter, in which any import of scipy fails
        cfg = dict(model=model, sample_size=30, repetitions=2, seed=3, nm_maxiter=20)
        write_samples(newell_samples, tmp_path / "s.jsonl", NEWELL_DCFG)
        got = run_fresh(NO_SCIPY_POOL_SCRIPT, str(tmp_path / "s.jsonl"), json.dumps(cfg))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert got.splitlines() == ["pools: 1", serialize.dumps(asdict(
            monte_carlo_calibrate(newell_samples, CalibrationConfig(**cfg), DELTA)))]

    @pytest.mark.parametrize("model, repetitions", [("newell", 3), ("idm", 1)])
    def test_no_pool(self, newell_samples, monkeypatch, model, repetitions):
        def no_pool(fn, jobs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(forkpool, "completed", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = CalibrationConfig(model=model, sample_size=30, repetitions=repetitions,
                                seed=1, nm_maxiter=20)
        report = monte_carlo_calibrate(newell_samples, cfg, DELTA)
        assert len(report.per_repetition) == repetitions


# Calibrates the samples file argv[1] as the CalibrationConfig fields argv[2]
# say, on two CPUs, with scipy made unimportable; prints the number of pools
# started, then the report.
NO_SCIPY_POOL_SCRIPT = """
import json, os, sys
from dataclasses import asdict
from phyres import forkpool, serialize
from phyres.calibrate import CalibrationConfig, monte_carlo_calibrate
from phyres.ingest import read_samples

sys.modules["scipy"] = None  # an import of scipy, or of any part of it, now fails
os.sched_getaffinity = lambda pid: {0, 1}
pools, completed = [], forkpool.completed

def spy(fn, jobs):
    pools.append(fn)
    return completed(fn, jobs)

forkpool.completed = spy
samples, header = read_samples(sys.argv[1])
cfg = CalibrationConfig(**json.loads(sys.argv[2]))
report = monte_carlo_calibrate(samples, cfg, header["delta"])
print(f"pools: {len(pools)}")
print(serialize.dumps(asdict(report)))
"""
