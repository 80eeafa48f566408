import csv
import json
import multiprocessing
import os
from dataclasses import asdict

import numpy as np
import pytest

from conftest import make_samples
from phyres import evaluation
from phyres.calibrate import CalibrationConfig, monte_carlo_calibrate
from phyres.domain import DatasetConfig, split_dataset
from phyres.errors import CalibrationError, ConfigError, DataError
from phyres.evaluation import (SweepCell, SweepConfig, emit_plot_data,
                               mse_metrics, run_sweep, write_sweep_outputs)
from phyres.physics import NewellParams
from phyres.predictors import PredictionRecord, predict_many

DELTA = 0.1


def _record(sample, accel, speed):
    return PredictionRecord(sample_id=sample.sample_id,
                            predicted_accel=np.asarray(accel, dtype=float),
                            predicted_speed=np.asarray(speed, dtype=float))


class TestMseMetrics:
    def test_hand_computed(self):
        samples = make_samples(2, k=2, tb=4, tf=2)
        for s in samples:
            s.ego_future_accel = np.zeros(2)
            s.ego_speed_at_t0 = 5.0
        # truth speed stays at 5; predictions offset by known amounts
        recs = [
            _record(samples[0], [0.1, 0.0], [5.0, 5.0]),   # a-sq: 0.01, 0
            _record(samples[1], [0.0, -0.2], [5.3, 5.0]),  # a-sq: 0, 0.04; v-sq: 0.09
        ]
        mse_a, mse_v = mse_metrics(recs, samples, DELTA)
        assert mse_a == pytest.approx((0.01 + 0.04) / 4)
        assert mse_v == pytest.approx(0.09 / 4)

    def test_perfect_prediction_is_zero(self):
        samples = make_samples(3, k=2, tb=4, tf=3)
        recs = predict_many("physics", samples, delta=DELTA,
                            params=NewellParams(w=4.0))
        for r, s in zip(recs, samples):
            s.ego_future_accel = r.predicted_accel.copy()
        mse_a, _ = mse_metrics(recs, samples, DELTA)
        assert mse_a == 0.0

    def test_misaligned_ids_rejected(self):
        samples = make_samples(2, k=2, tb=4, tf=2)
        recs = [_record(samples[0], [0.0, 0.0], [0.0, 0.0])]
        with pytest.raises(DataError, match="misaligned"):
            mse_metrics(recs, samples, DELTA)


@pytest.fixture(scope="module")
def sweep_result(small_idm_corpus):
    samples, dcfg, _ = small_idm_corpus
    sweep = SweepConfig(variants=("physics", "nn"), data_sizes=(20, 40),
                        seeds=(0, 1), physics_model="idm", cell="gru",
                        units1=6, units2=4, dense_units=6, max_epochs=3,
                        batch_size=16, patience=3)
    return run_sweep(samples, dcfg, sweep), sweep


class TestSweep:
    def test_full_grid_present_and_sorted(self, sweep_result):
        cells, sweep = sweep_result
        keys = [(c.data_size, c.variant, c.seed) for c in cells]
        assert keys == sorted(keys)
        assert len(cells) == 2 * 2 * 2
        assert all(c.error is None for c in cells), [c.error for c in cells]

    def test_physics_cells_identical_across_nesting(self, sweep_result):
        # the test split is shared, so a physics cell's score depends only
        # on the calibrated parameters
        cells, _ = sweep_result
        phys = [c for c in cells if c.variant == "physics"]
        assert all(c.calib_report is not None for c in phys)
        assert all(c.eval_report is not None for c in phys)

    def test_oversized_request_rejected(self, small_idm_corpus):
        samples, dcfg, _ = small_idm_corpus
        sweep = SweepConfig(variants=("physics",), data_sizes=(10 ** 6,),
                            seeds=(0,), physics_model="idm")
        with pytest.raises(ConfigError, match="exceeds"):
            run_sweep(samples, dcfg, sweep)

    @pytest.mark.parametrize("size", [0, -5])
    def test_non_positive_size_rejected(self, size):
        with pytest.raises(ConfigError, match=f"^data size {size} is below 1$"):
            SweepConfig(variants=("physics",), data_sizes=(20, size), seeds=(0,))

    @pytest.mark.parametrize("lists, message", [
        ({"variants": ("physics", "nn", "x")}, "unknown variant 'x'"),
        ({"variants": ("physics", "nn", "physics")}, "repeated variant 'physics'"),
        ({"data_sizes": (20, 40, 20)}, "repeated data size 20"),
        ({"seeds": (1, 2, 1)}, "repeated seed 1"),
        ({"variants": ()}, "the variant list is empty"),
        ({"data_sizes": ()}, "the data size list is empty"),
        ({"seeds": ()}, "the seed list is empty"),
    ], ids=["unknown-variant", "variant", "data-size", "seed", "no-variant", "no-data-size",
            "no-seed"])
    def test_bad_list_value_rejected(self, lists, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SweepConfig(**lists)

    def test_failed_cell_recorded_not_raised(self, small_idm_corpus, monkeypatch):
        samples, dcfg, _ = small_idm_corpus

        def failing(*args):
            raise RuntimeError("training diverged")

        # the forked workers inherit the patched module
        monkeypatch.setattr(evaluation, "train", failing)
        sweep = SweepConfig(variants=("nn",), data_sizes=(20,), seeds=(0,),
                            physics_model="idm", max_epochs=1)
        cells = run_sweep(samples, dcfg, sweep)
        assert len(cells) == 1
        assert "RuntimeError: training diverged" in cells[0].error
        assert cells[0].eval_report is None
        assert cells[0].seconds > 0.0

    @pytest.mark.parametrize("setting", [{"max_epochs": 0}, {"mu": 2.0}, {"patience": 0},
                                         {"units1": 0}])
    def test_bad_training_setting_raised_before_any_fit(self, small_idm_corpus,
                                                        monkeypatch, setting):
        samples, dcfg, _ = small_idm_corpus
        fits = []
        monkeypatch.setattr(evaluation, "monte_carlo_calibrate", lambda *a: fits.append(a))
        sweep = SweepConfig(variants=("physics", "perl"), data_sizes=(20,), seeds=(0,),
                            physics_model="idm", **setting)
        with pytest.raises(ConfigError):
            run_sweep(samples, dcfg, sweep)
        assert fits == []

    def test_physics_only_sweep_ignores_training_settings(self, small_idm_corpus):
        samples, dcfg, _ = small_idm_corpus
        sweep = SweepConfig(variants=("physics",), data_sizes=(20,), seeds=(0,),
                            physics_model="idm", max_epochs=0)
        [cell] = run_sweep(samples, dcfg, sweep)
        assert cell.error is None


def _sweep_subset(samples, dcfg, seed, size):
    """The training subset a sweep cell of this (seed, size) uses."""
    train_ids = sorted(split_dataset([s.sample_id for s in samples], dcfg).train_ids)
    order = np.random.default_rng(seed).permutation(len(train_ids))
    by_id = {s.sample_id: s for s in samples}
    return [by_id[train_ids[i]] for i in order[:size]]


def _four_variant_sweep(samples, dcfg, **kwargs):
    sweep = SweepConfig(variants=("physics", "nn", "pinn", "perl"),
                        data_sizes=(20, 40), seeds=(3,), physics_model="idm",
                        cell="gru", units1=4, units2=3, dense_units=4,
                        max_epochs=1, batch_size=16)
    return run_sweep(samples, dcfg, sweep, **kwargs)


class TestSweepCalibration:
    def test_one_fit_per_size_and_seed(self, small_idm_corpus, monkeypatch):
        samples, dcfg, _ = small_idm_corpus
        fits = []

        def counting(subset, cfg, delta):
            fits.append((len(subset), cfg.seed))
            return monte_carlo_calibrate(subset, cfg, delta)

        monkeypatch.setattr(evaluation, "monte_carlo_calibrate", counting)
        cells = _four_variant_sweep(samples, dcfg)
        assert fits == [(20, 3), (40, 3)]
        assert all(c.error is None for c in cells), [c.error for c in cells]
        for size in (20, 40):
            subset = [c for c in cells if c.data_size == size]
            reports = {c.variant: c.calib_report for c in subset}
            assert reports["nn"] is None
            fresh = monte_carlo_calibrate(
                _sweep_subset(samples, dcfg, 3, size),
                CalibrationConfig(model="idm", sample_size=size, repetitions=1, seed=3),
                dcfg.delta)
            for variant in ("physics", "pinn", "perl"):
                assert asdict(reports[variant]) == asdict(fresh), variant

    def test_failed_fit_is_each_physics_cells_error(self, small_idm_corpus, monkeypatch):
        samples, dcfg, _ = small_idm_corpus

        def failing(subset, cfg, delta):
            raise CalibrationError("repetition 0: no finite optimum found")

        monkeypatch.setattr(evaluation, "monte_carlo_calibrate", failing)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            cells = _four_variant_sweep(samples, dcfg)
            assert len(cells) == 8
            for c in cells:
                if c.variant == "nn":
                    assert c.error is None and c.eval_report is not None
                else:
                    assert "CalibrationError: repetition 0: no finite optimum" in c.error
                    assert c.calib_report is None and c.eval_report is None


class TestSweepPool:
    def test_outputs_do_not_depend_on_workers(self, small_idm_corpus, tmp_path,
                                              monkeypatch):
        samples, dcfg, _ = small_idm_corpus
        outputs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            cells = _four_variant_sweep(samples, dcfg)
            out = tmp_path / str(len(cpus))
            write_sweep_outputs(cells, out)
            emit_plot_data(cells, out)
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in out.rglob("*") if p.is_file()})
        assert len(outputs[0]) == 8 + 4
        assert outputs[0] == outputs[1]

    def test_no_worker_outlives_the_sweep(self, small_idm_corpus, monkeypatch):
        samples, dcfg, _ = small_idm_corpus
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        finished = []
        cells = _four_variant_sweep(samples, dcfg, on_cell=finished.append)
        assert multiprocessing.active_children() == []
        assert all(c.error is None for c in cells), [c.error for c in cells]
        assert sorted(map(id, finished)) == sorted(map(id, cells))
        assert all(c.seconds > 0.0 for c in cells)


class TestOutputs:
    def test_written_files_parse(self, sweep_result, tmp_path):
        cells, _ = sweep_result
        paths = write_sweep_outputs(cells, tmp_path)
        report = json.loads((tmp_path / "sweep" / "nn" / "20" / "0" /
                             "report.json").read_text())
        assert report["variant"] == "nn"
        assert report["eval"]["mse_a_test"] >= 0.0
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert len(agg) == len(cells)
        with open(tmp_path / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(cells)
        assert float(rows[0]["mse_a_test"]) >= 0.0
        assert all(str(p).startswith(str(tmp_path)) for p in paths)

    def test_plot_data(self, sweep_result, tmp_path):
        cells, _ = sweep_result
        emit_plot_data(cells, tmp_path)
        with open(tmp_path / "summary_long.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(cells)
        assert {r["metric"] for r in rows} == {"mse_a_test", "mse_v_test"}
        with open(tmp_path / "convergence.csv", newline="") as fh:
            conv = list(csv.DictReader(fh))
        nn_cells = [c for c in cells if c.train_report is not None]
        assert len(conv) == sum(len(c.train_report.per_epoch) for c in nn_cells)

    def test_all_failed_cells_write_headers_only(self, tmp_path):
        cells = [SweepCell(variant="nn", data_size=10, seed=0, error="boom")]
        emit_plot_data(cells, tmp_path)
        assert (tmp_path / "summary_long.csv").read_text().splitlines() == [
            "variant,data_size,seed,metric,value"]
        assert (tmp_path / "convergence.csv").read_text().splitlines() == [
            "variant,data_size,seed,epoch,mse_a_val,mse_v_val"]
