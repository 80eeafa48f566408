from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IDM_TRUE, make_sample, make_samples
from phyres import predictors
from phyres.domain import SampleBatch, SplitIndex
from phyres.errors import ConfigError
from phyres.neuralnet import EVAL_ROWS, NetConfig, load_net, save_net
from phyres.physics import NewellParams, physics_rollout
from phyres.predictors import (PredictionBatch, PredictionRecord, TrainConfig, compose_prediction,
                               make_residual_targets, predict_many,
                               reconstruct_speed, train, train_nn, train_perl,
                               train_pinn)

DELTA = 0.1


def _net_config(**kw):
    base = dict(cell="lstm", units1=4, units2=3, dense_units=4, output_dim=4,
                input_dim=9, dropout=0.1, seed=2)
    base.update(kw)
    return NetConfig(**base)


def _split(n):
    ids = list(range(n))
    cut1, cut2 = int(0.6 * n), int(0.8 * n)
    return SplitIndex(frozenset(ids[:cut1]), frozenset(ids[cut1:cut2]),
                      frozenset(ids[cut2:]))


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="boost", seed=0)
        with pytest.raises(ConfigError):
            TrainConfig(variant="nn", seed=0, batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(variant="pinn", seed=0, mu=1.5)
        for max_epochs in (0, -1):
            with pytest.raises(ConfigError, match="max_epochs"):
                TrainConfig(variant="nn", seed=0, max_epochs=max_epochs)


class TestReconstructSpeed:
    def test_hand_arithmetic(self):
        accel = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(
            reconstruct_speed(10.0, accel, 0.1),
            np.array([10.1, 9.9, 9.95]))

    def test_zero_accel_keeps_speed(self):
        out = reconstruct_speed(7.0, np.zeros(5), 0.1)
        np.testing.assert_array_equal(out, np.full(5, 7.0))

    @given(v0=st.floats(min_value=0, max_value=40),
           accel=st.lists(st.floats(min_value=-5, max_value=5),
                          min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_stepwise_integration(self, v0, accel):
        accel = np.array(accel)
        got = reconstruct_speed(v0, accel, 0.1)
        v = v0
        for j, a in enumerate(accel):
            v = v + 0.1 * a
            assert got[j] == pytest.approx(v, rel=1e-12, abs=1e-12)


class TestResidualTargets:
    def test_residual_is_truth_minus_rollout(self):
        samples = make_samples(5, k=2, tb=6, tf=4)
        params = NewellParams(w=4.0)
        residuals, phys, flags = make_residual_targets(samples, params, DELTA)
        assert residuals.shape == (5, 4)
        for i, s in enumerate(samples):
            expected, collided = physics_rollout(s, params, DELTA)
            np.testing.assert_array_equal(phys[i], expected)
            np.testing.assert_array_equal(residuals[i], s.ego_future_accel - expected)
            assert flags[i] == collided

    def test_list_and_batch_bit_equal(self):
        samples = make_samples(12, k=3, tb=6, tf=4)
        samples[2].hist_position[-2, -1] = samples[2].hist_position[-1, -1] - 1.0
        for params in (NewellParams(w=4.0), IDM_TRUE):
            from_list = make_residual_targets(samples, params, DELTA)
            from_batch = make_residual_targets(SampleBatch.of(samples), params, DELTA)
            for a, b in zip(from_list, from_batch):
                np.testing.assert_array_equal(a, b)
            assert from_batch[2][2] == (params is IDM_TRUE)


class TestComposition:
    @given(st.lists(st.tuples(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100)), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_decomposition_is_bit_exact_both_orders(self, pairs):
        phys = np.array([p for p, _ in pairs])
        resid = np.array([r for _, r in pairs])
        total, p_stored, r_stored = compose_prediction(phys, resid)
        np.testing.assert_array_equal(total, phys + resid)
        assert np.all(total - p_stored - r_stored == 0.0)
        assert np.all(total - r_stored - p_stored == 0.0)

    def test_stored_parts_stay_close_to_inputs(self):
        phys = np.array([0.1, -2.0, 3.5])
        resid = np.array([0.2, 0.001, -3.5])
        total, p_stored, r_stored = compose_prediction(phys, resid)
        np.testing.assert_allclose(p_stored, phys, atol=1e-15)
        np.testing.assert_allclose(r_stored, resid, atol=1e-15)


class TestTraining:
    def _data(self, n=40):
        return make_samples(n, k=3, tb=6, tf=4), _split(n)

    def test_nn_training_report(self):
        samples, split = self._data()
        tconf = TrainConfig(variant="nn", seed=1, max_epochs=5, batch_size=8)
        net, report = train_nn(samples, split, tconf, _net_config(), DELTA)
        assert len(report.per_epoch) == 5
        assert {"epoch", "train_loss", "mse_a_val", "mse_v_val"} <= set(report.per_epoch[0])
        assert 1 <= report.best_epoch <= 5
        assert net.norm_stats is not None

    def test_training_deterministic(self):
        samples, split = self._data()
        tconf = TrainConfig(variant="nn", seed=1, max_epochs=3)
        net1, r1 = train_nn(samples, split, tconf, _net_config(), DELTA)
        net2, r2 = train_nn(samples, split, tconf, _net_config(), DELTA)
        assert r1.per_epoch == r2.per_epoch
        for k in net1.params:
            np.testing.assert_array_equal(net1.params[k], net2.params[k])

    def test_pinn_mu_one_reproduces_nn(self):
        samples, split = self._data()
        nconf = _net_config()
        t_nn = TrainConfig(variant="nn", seed=3, max_epochs=4)
        t_pinn = TrainConfig(variant="pinn", seed=3, max_epochs=4, mu=1.0)
        _, r_nn = train_nn(samples, split, t_nn, nconf, DELTA)
        _, r_pinn = train_pinn(samples, split, t_pinn, nconf,
                               NewellParams(w=4.0), DELTA)
        for a, b in zip(r_nn.per_epoch, r_pinn.per_epoch):
            assert a["train_loss"] == b["train_loss"]
            assert a["mse_a_val"] == b["mse_a_val"]

    def test_pinn_mu_zero_ignores_targets(self):
        samples, split = self._data()
        nconf = _net_config()
        params = NewellParams(w=4.0)
        tconf = TrainConfig(variant="pinn", seed=3, max_epochs=3, mu=0.0)
        altered = [s for s in samples]
        _, r1 = train_pinn(samples, split, tconf, nconf, params, DELTA)
        for s in altered:
            s.ego_future_accel = s.ego_future_accel + 100.0
        _, r2 = train_pinn(altered, split, tconf, nconf, params, DELTA)
        for a, b in zip(r1.per_epoch, r2.per_epoch):
            assert a["train_loss"] == b["train_loss"]

    def test_early_stopping_restores_best_weights(self):
        samples, split = self._data()
        tconf = TrainConfig(variant="nn", seed=5, max_epochs=50, patience=3)
        net, report = train_nn(samples, split, tconf, _net_config(), DELTA)
        best = min(report.per_epoch, key=lambda r: r["mse_a_val"])
        assert report.best_epoch == best["epoch"]
        assert len(report.per_epoch) <= 50

    def test_physics_has_no_training_step(self):
        samples, split = self._data(10)
        tconf = TrainConfig(variant="physics", seed=0, max_epochs=1)
        with pytest.raises(ConfigError, match="no training step"):
            train(samples, split, tconf, _net_config(), DELTA, NewellParams(w=4.0))

    @pytest.mark.parametrize("variant", ["pinn", "perl"])
    def test_physics_variant_without_params_rejected(self, variant):
        samples, split = self._data(10)
        tconf = TrainConfig(variant=variant, seed=0, max_epochs=1)
        with pytest.raises(ConfigError, match="needs calibrated params"):
            train(samples, split, tconf, _net_config(), DELTA)

    def test_aliases_match_train(self):
        samples, split = self._data()
        nconf, params = _net_config(), NewellParams(w=4.0)
        for variant, alias, args in (("nn", train_nn, ()),
                                     ("pinn", train_pinn, (params,)),
                                     ("perl", train_perl, (params,))):
            tconf = TrainConfig(variant=variant, seed=2, max_epochs=2)
            _, r_alias = alias(samples, split, tconf, nconf, *args, DELTA)
            _, r_train = train(samples, split, tconf, nconf, DELTA, *args)
            assert asdict(r_alias) == asdict(r_train)

    def test_empty_split_rejected(self):
        samples, _ = self._data(10)
        bad = SplitIndex(frozenset(range(10)), frozenset(), frozenset())
        tconf = TrainConfig(variant="nn", seed=0, max_epochs=1)
        with pytest.raises(ConfigError):
            train_nn(samples, bad, tconf, _net_config(), DELTA)


class TestPredict:
    def _trained(self):
        samples = make_samples(30, k=3, tb=6, tf=4)
        split = _split(30)
        params = NewellParams(w=4.0)
        tconf = TrainConfig(variant="perl", seed=1, max_epochs=3)
        net, _ = train_perl(samples, split, tconf, _net_config(), params, DELTA)
        return samples, params, net

    def test_physics_record(self):
        samples, params, _ = self._trained()
        rec = predict_many("physics", [samples[0]], delta=DELTA, params=params)[0]
        expected, _ = physics_rollout(samples[0], params, DELTA)
        np.testing.assert_array_equal(rec.predicted_accel, expected)
        np.testing.assert_array_equal(
            rec.predicted_speed,
            reconstruct_speed(samples[0].ego_speed_at_t0, expected, DELTA))
        assert rec.physics_component is None

    def test_residual_variant_decomposition(self):
        samples, params, net = self._trained()
        rec = predict_many("perl", [samples[0]], delta=DELTA, params=params, net=net)[0]
        assert rec.physics_component is not None
        assert np.all(rec.predicted_accel - rec.physics_component
                      - rec.residual_component == 0.0)

    def test_missing_artifacts_rejected(self):
        samples, params, net = self._trained()
        with pytest.raises(ConfigError):
            predict_many("physics", [samples[0]], delta=DELTA)
        with pytest.raises(ConfigError):
            predict_many("nn", [samples[0]], delta=DELTA)
        with pytest.raises(ConfigError):
            predict_many("perl", [samples[0]], delta=DELTA, params=params)
        with pytest.raises(ConfigError):
            predict_many("warp", [samples[0]], delta=DELTA)

    def test_predict_many_preserves_order(self):
        samples, params, _ = self._trained()
        recs = predict_many("physics", samples[:5], delta=DELTA, params=params)
        assert [r.sample_id for r in recs] == [s.sample_id for s in samples[:5]]

    def test_horizon_mismatch_rejected(self):
        _, params, net = self._trained()
        short = make_sample(k=3, tb=6, tf=3)
        for variant in ("nn", "perl"):
            with pytest.raises(ConfigError, match="horizon"):
                predict_many(variant, [short], delta=DELTA, params=params, net=net)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("variant", ["nn", "perl"])
def test_trained_and_saved_net_predict_same_bits(variant, cell, tmp_path):
    """A sweep cell scores the float32 net that train returns; predict reads
    weights.json back as float64.  Both must give the same records."""
    samples = make_samples(30, k=3, tb=6, tf=4)
    params = NewellParams(w=4.0)
    tconf = TrainConfig(variant=variant, seed=3, max_epochs=3)
    net, _ = train(samples, _split(30), tconf, _net_config(cell=cell), DELTA, params)
    save_net(net, tmp_path / "weights.json")
    loaded = load_net(tmp_path / "weights.json")
    assert {p.dtype for p in net.params.values()} == {np.dtype(np.float32)}
    assert {p.dtype for p in loaded.params.values()} == {np.dtype(np.float64)}
    got = predict_many(variant, samples, delta=DELTA, params=params, net=net)
    want = predict_many(variant, samples, delta=DELTA, params=params, net=loaded)
    for a, b in zip(got, want, strict=True):
        for field in ("predicted_accel", "predicted_speed", "physics_component",
                      "residual_component"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or x.tobytes() == y.tobytes(), field


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("variant", ["physics", "nn", "pinn", "perl"])
def test_batch_matches_one_row_calls(variant, cell):
    samples = make_samples(24, k=3, tb=6, tf=4)
    for s in samples[::3]:  # leader behind the ego: the IDM rollout collides
        s.hist_position[-2, -1] = s.hist_position[-1, -1] - 1.0
    tconf = TrainConfig(variant="perl", seed=1, max_epochs=2)
    net, _ = train_perl(samples, _split(24), tconf, _net_config(cell=cell),
                        IDM_TRUE, DELTA)
    batch = predict_many(variant, samples, delta=DELTA, params=IDM_TRUE, net=net)
    rows = [predict_many(variant, [s], delta=DELTA, params=IDM_TRUE, net=net)[0]
            for s in samples]
    assert [r.sample_id for r in batch] == [s.sample_id for s in samples]
    flags = [r.collision_in_rollout for r in batch]
    assert flags == [r.collision_in_rollout for r in rows]
    assert any(flags) == (variant in ("physics", "perl"))
    tol = 0.0 if variant == "physics" else 1e-15
    for b, r in zip(batch, rows):
        np.testing.assert_allclose(b.predicted_accel, r.predicted_accel, rtol=0, atol=tol)
        np.testing.assert_allclose(b.predicted_speed, r.predicted_speed, rtol=tol, atol=0)
        if variant == "perl":
            assert np.all(b.predicted_accel - b.physics_component
                          - b.residual_component == 0.0)
        else:
            assert b.physics_component is None and b.residual_component is None
    assert len(predict_many(variant, [], delta=DELTA, params=IDM_TRUE, net=net)) == 0


@pytest.fixture(scope="module")
def chunk_edge_samples():
    return SampleBatch.of(make_samples(2 * EVAL_ROWS + 1, k=3, tb=6, tf=4))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("variant", ["nn", "pinn", "perl"])
def test_chunk_edges_match_one_row_calls(variant, cell, chunk_edge_samples):
    """The eval forward runs EVAL_ROWS rows at a time.  Batches of 1,
    EVAL_ROWS + 1 and 2 * EVAL_ROWS + 1 rows each end in a chunk of one row,
    and every row predicts the bits of a call on that row alone."""
    samples = chunk_edge_samples
    tconf = TrainConfig(variant="perl", seed=1, max_epochs=2)
    net, _ = train_perl(samples[:24], _split(24), tconf, _net_config(cell=cell), IDM_TRUE, DELTA)
    # every seventh row, and the rows on each side of a chunk edge
    rows = sorted({*range(0, len(samples), 7), EVAL_ROWS - 1, EVAL_ROWS, 2 * EVAL_ROWS - 1,
                   2 * EVAL_ROWS})
    alone = {i: predict_many(variant, samples[i:i + 1], delta=DELTA, params=IDM_TRUE,
                             net=net)[0] for i in rows}
    for n in (1, EVAL_ROWS + 1, 2 * EVAL_ROWS + 1):
        batch = predict_many(variant, samples[:n], delta=DELTA, params=IDM_TRUE, net=net)
        for i in (i for i in rows if i < n):
            for field in ("predicted_accel", "predicted_speed", "physics_component",
                          "residual_component"):
                x, y = getattr(batch[i], field), getattr(alone[i], field)
                assert (x is None and y is None) or x.tobytes() == y.tobytes(), (n, i, field)


def test_net_inputs_built_one_chunk_at_a_time(chunk_edge_samples, monkeypatch):
    # the whole batch's features would be n x t_back x 3K float64 at once
    samples = chunk_edge_samples
    tconf = TrainConfig(variant="nn", seed=1, max_epochs=1)
    net, _ = train_nn(samples[:24], _split(24), tconf, _net_config(), DELTA)
    rows, features = [], predictors.sample_features
    monkeypatch.setattr(predictors, "sample_features",
                        lambda batch, stats: rows.append(len(batch)) or features(batch, stats))
    assert len(predict_many("nn", samples, delta=DELTA, net=net)) == len(samples)
    assert rows == [EVAL_ROWS, EVAL_ROWS, 1]


def test_prediction_batch_is_a_sequence_of_records():
    samples = make_samples(3, k=3, tb=6, tf=4)
    preds = predict_many("physics", samples, delta=DELTA, params=NewellParams(w=4.0))
    assert preds and len(preds) == 3
    assert not predict_many("physics", [], delta=DELTA, params=NewellParams(w=4.0))
    records = list(preds)
    assert all(type(r) is PredictionRecord for r in records)
    assert [r.sample_id for r in records] == [0, 1, 2]
    assert records[2].predicted_speed.tobytes() == preds.predicted_speed[2].tobytes()
    assert records[1].physics_component is None
    assert PredictionBatch.of(preds) is preds
    again = PredictionBatch.of(records)
    for name, col in vars(preds).items():
        got = getattr(again, name)
        assert (col is None and got is None) or got.tobytes() == col.tobytes(), name
