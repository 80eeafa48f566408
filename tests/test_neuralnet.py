from dataclasses import asdict

import numpy as np
import pytest

from phyres import neuralnet
from phyres.errors import ConfigError, DataError
from phyres.neuralnet import (AdamState, NetConfig, adam_step, backward,
                              forward_batch, gradient_check, init_net,
                              load_net, make_dropout_masks, save_net)


def small_config(**overrides):
    base = dict(cell="lstm", units1=4, units2=3, dense_units=4, output_dim=3,
                input_dim=6, dropout=0.0, output_activation="linear", seed=7)
    base.update(overrides)
    return NetConfig(**base)


class TestConfigAndInit:
    @pytest.mark.parametrize("overrides", [
        {"cell": "rnn"}, {"output_activation": "softmax"}, {"units1": 0},
        {"dropout": 1.0}, {"dropout": -0.1},
    ])
    def test_invalid_config(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    def test_round_trip(self):
        cfg = small_config()
        assert NetConfig.from_dict(asdict(cfg)) == cfg

    def test_init_shapes_and_bounds(self):
        cfg = small_config()
        net = init_net(cfg)
        assert net.params["l1_W"].shape == (6, 16)
        assert net.params["l2_W"].shape == (4, 12)
        assert net.params["dense_W"].shape == (3, 4)
        assert net.params["out_W"].shape == (4, 3)
        for name, p in net.params.items():
            if not name.endswith("_b"):
                bound = np.sqrt(1.0 / p.shape[0])
                assert np.all(np.abs(p) <= bound)

    def test_lstm_forget_bias_one(self):
        net = init_net(small_config())
        assert np.all(net.params["l1_b"][4:8] == 1.0)
        assert np.all(net.params["l1_b"][:4] == 0.0)

    def test_gru_biases_zero(self):
        net = init_net(small_config(cell="gru"))
        assert np.all(net.params["l1_b"] == 0.0)

    def test_init_deterministic(self):
        a = init_net(small_config())
        b = init_net(small_config())
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])


class TestForward:
    def test_eval_deterministic_and_rng_free(self):
        net = init_net(small_config(dropout=0.5))
        x = np.random.default_rng(0).standard_normal((2, 5, 6))
        y1, _ = forward_batch(net, x, "eval")
        y2, _ = forward_batch(net, x, "eval", dropout_rng=np.random.default_rng(99))
        np.testing.assert_array_equal(y1, y2)

    def test_zero_dropout_train_equals_eval(self):
        net = init_net(small_config(dropout=0.0))
        x = np.random.default_rng(1).standard_normal((2, 5, 6))
        y_train, _ = forward_batch(net, x, "train", dropout_rng=np.random.default_rng(0))
        y_eval, _ = forward_batch(net, x, "eval")
        np.testing.assert_array_equal(y_train, y_eval)

    def test_train_mode_requires_rng_or_masks(self):
        net = init_net(small_config(dropout=0.3))
        x = np.zeros((1, 3, 6))
        with pytest.raises(ConfigError):
            forward_batch(net, x, "train")

    def test_relu_output_non_negative(self):
        net = init_net(small_config(output_activation="relu"))
        x = np.random.default_rng(2).standard_normal((4, 5, 6))
        y, _ = forward_batch(net, x, "eval")
        assert np.all(y >= 0.0)

    def test_bad_input_shape_rejected(self):
        net = init_net(small_config())
        with pytest.raises(ConfigError):
            forward_batch(net, np.zeros((2, 5, 7)), "eval")

    def test_dropout_masks_inverted_scaling(self):
        cfg = small_config(dropout=0.5)
        masks = make_dropout_masks(cfg, 200, 4, np.random.default_rng(0))
        vals = np.unique(masks["m1"])
        assert set(vals.tolist()) == {0.0, 2.0}
        # inverted dropout keeps the expectation near 1
        assert np.mean(masks["m1"]) == pytest.approx(1.0, abs=0.05)


def _train_cache(net, x):
    # small_config has dropout=0.0, so this forward equals the eval forward
    _, cache = forward_batch(net, x, "train", dropout_rng=np.random.default_rng(0))
    return cache


class TestBackward:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_zero_output_grad_gives_zero_grads(self, cell):
        net = init_net(small_config(cell=cell))
        x = np.random.default_rng(4).standard_normal((2, 5, 6))
        grads = backward(net, _train_cache(net, x), np.zeros((2, 3)))
        for g in grads.values():
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_doubling_output_grad_doubles_grads(self, cell):
        net = init_net(small_config(cell=cell))
        x = np.random.default_rng(5).standard_normal((2, 5, 6))
        cache = _train_cache(net, x)
        og = np.random.default_rng(6).standard_normal((2, 3))
        g1 = backward(net, cache, og)
        g2 = backward(net, cache, 2.0 * og)
        for k in g1:
            np.testing.assert_array_equal(2.0 * g1[k], g2[k])

    def test_grad_shape_mismatch_rejected(self):
        net = init_net(small_config())
        cache = _train_cache(net, np.zeros((2, 5, 6)))
        with pytest.raises(ConfigError):
            backward(net, cache, np.zeros((2, 4)))

    def test_eval_forward_keeps_no_cache(self):
        net = init_net(small_config())
        _, cache = forward_batch(net, np.zeros((2, 5, 6)), "eval")
        assert cache is None
        with pytest.raises(ConfigError, match="train-mode"):
            backward(net, cache, np.zeros((2, 3)))

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_matches_finite_differences(self, cell, dropout, activation):
        cfg = small_config(cell=cell, dropout=dropout,
                           output_activation=activation)
        assert gradient_check(cfg, t_steps=5) < 1e-4

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_skipped_input_grad_leaves_grads_bit_equal(self, cell, monkeypatch):
        cfg = small_config(cell=cell, dropout=0.2, units1=8, units2=5)
        net = init_net(cfg)
        x = np.random.default_rng(8).standard_normal((7, 6, 6))
        _, cache = forward_batch(net, x, "train", dropout_rng=np.random.default_rng(9))
        og = np.random.default_rng(10).standard_normal((7, 3))
        got = backward(net, cache, og)
        name = f"_{cell}_layer_backward"
        layer_bwd = getattr(neuralnet, name)
        # the reference computes every layer's input gradient, as layer 1 once did
        monkeypatch.setattr(neuralnet, name, lambda *args, input_grad=True:
                            layer_bwd(*args, input_grad=True))
        want = backward(net, cache, og)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k
        assert layer_bwd(np.zeros((7, 6, 8)), cache["steps1"], net.params["l1_W"],
                         net.params["l1_U"], 8, input_grad=False)[0] is None
        monkeypatch.undo()
        assert gradient_check(small_config(cell=cell, dropout=0.2), t_steps=5) < 1e-4

    def test_gradient_check_rejects_large_nets(self):
        with pytest.raises(ConfigError):
            gradient_check(small_config(units1=64))


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        net = init_net(small_config())
        before = net.copy_params()
        state = AdamState.for_net(net)
        zero = {k: np.zeros_like(p) for k, p in net.params.items()}
        adam_step(net, zero, state)
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])
        assert state.step == 1

    def test_first_step_closed_form(self):
        # from zero moments: update = lr * g / (|g| + eps) elementwise
        net = init_net(small_config())
        before = net.copy_params()
        state = AdamState.for_net(net, lr=0.01)
        rng = np.random.default_rng(8)
        grads = {k: rng.standard_normal(p.shape) for k, p in net.params.items()}
        adam_step(net, grads, state)
        for k, g in grads.items():
            expected = before[k] - 0.01 * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(net.params[k], expected, rtol=1e-12)

    def test_two_identical_runs_identical(self):
        runs = []
        for _ in range(2):
            net = init_net(small_config())
            state = AdamState.for_net(net)
            rng = np.random.default_rng(9)
            for _ in range(5):
                grads = {k: rng.standard_normal(p.shape)
                         for k, p in net.params.items()}
                adam_step(net, grads, state)
            runs.append(net.copy_params())
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])

    def test_moments_decay_on_zero_grads(self):
        net = init_net(small_config())
        state = AdamState.for_net(net)
        grads = {k: np.ones_like(p) for k, p in net.params.items()}
        adam_step(net, grads, state)
        m_before = state.m["out_W"].copy()
        zero = {k: np.zeros_like(p) for k, p in net.params.items()}
        adam_step(net, zero, state)
        np.testing.assert_allclose(state.m["out_W"], 0.9 * m_before)

    def test_shape_mismatch_rejected(self):
        net = init_net(small_config())
        state = AdamState.for_net(net)
        grads = {k: np.zeros_like(p) for k, p in net.params.items()}
        grads["out_W"] = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            adam_step(net, grads, state)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_net(small_config())
        path = tmp_path / "weights.json"
        save_net(net, path)
        restored = load_net(path)
        assert restored.config == net.config
        for k in net.params:
            np.testing.assert_array_equal(restored.params[k], net.params[k])
        x = np.random.default_rng(10).standard_normal((2, 5, 6))
        y1, _ = forward_batch(net, x, "eval")
        y2, _ = forward_batch(restored, x, "eval")
        np.testing.assert_array_equal(y1, y2)

    def test_version_mismatch_rejected(self, tmp_path):
        net = init_net(small_config())
        path = tmp_path / "weights.json"
        save_net(net, path)
        text = path.read_text().replace('"format_version":1', '"format_version":9')
        path.write_text(text)
        with pytest.raises(DataError, match="format_version"):
            load_net(path)

    def test_shape_corruption_rejected(self, tmp_path):
        net = init_net(small_config())
        path = tmp_path / "weights.json"
        save_net(net, path)
        import json
        obj = json.loads(path.read_text())
        obj["tensors"]["out_b"]["shape"] = [2]
        obj["tensors"]["out_b"]["values"] = [0.0, 0.0]
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="shape"):
            load_net(path)
