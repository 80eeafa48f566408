from dataclasses import asdict

import numpy as np
import pytest

from conftest import make_samples, run_fresh
from phyres import neuralnet, predictors
from phyres.domain import SplitIndex
from phyres.errors import ConfigError, DataError
from phyres.physics import NewellParams
from phyres.neuralnet import (EVAL_ROWS, AdamState, NetConfig, adam_step, backward,
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
        assert layer_bwd(np.zeros((6, 7, 8)), cache["l1"], net.params["l1_W"],
                         net.params["l1_U"], 8, input_grad=False)[0] is None
        monkeypatch.undo()
        assert gradient_check(small_config(cell=cell, dropout=0.2), t_steps=5) < 1e-4

    def test_gradient_check_rejects_large_nets(self):
        with pytest.raises(ConfigError):
            gradient_check(small_config(units1=64))


def _arrays(obj):
    """Every array in nested dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (dict, list, tuple)):
        for v in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(v)


class _Allocations:
    """Stands in for numpy in ``neuralnet``: records the dtype and shape of
    every array that np.zeros, np.zeros_like, np.empty, np.empty_like and
    np.ones return while ``on``."""

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


class TestDtype:
    """One stray float64 buffer promotes a whole layer's backward to float64,
    and an in-place update into a float32 array hides it from the results."""

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("variant", ["nn", "pinn", "perl"])
    def test_training_step_is_float32(self, variant, cell, monkeypatch):
        seen = []
        allocations = _Allocations()

        def spy_forward(net, x, mode="eval", **kwargs):
            # the val forward runs float64 features through the float32 net
            allocations.on = mode == "train"
            return forward_batch(net, x, mode, **kwargs)

        def spy_backward(net, cache, output_grad):
            grads = backward(net, cache, output_grad)
            seen.append([cache["l1"], cache["l2"], cache["masks"], grads])
            return grads

        def spy_adam_step(net, grads, state):
            adam_step(net, grads, state)
            seen[-1] += [state.m, state.v, net.params]

        monkeypatch.setattr(neuralnet, "np", allocations)
        monkeypatch.setattr(predictors, "forward_batch", spy_forward)
        monkeypatch.setattr(predictors, "backward", spy_backward)
        monkeypatch.setattr(predictors, "adam_step", spy_adam_step)
        samples = make_samples(20, k=3, tb=6, tf=4)
        split = SplitIndex(frozenset(range(12)), frozenset(range(12, 16)),
                           frozenset(range(16, 20)))
        net, _ = predictors.train(
            samples, split, predictors.TrainConfig(variant=variant, seed=0, max_epochs=1,
                                                   batch_size=8),
            small_config(cell=cell, input_dim=9, output_dim=4, dropout=0.2), 0.1,
            NewellParams(w=4.0))
        assert len(seen) == 2  # two minibatches of the 12 train samples
        arrays = list(_arrays(seen)) + list(net.params.values())
        assert len(arrays) > 100 and {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert len(allocations.dtypes) > 20
        assert set(allocations.dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_gradient_check_is_float64(self, cell, monkeypatch):
        seen = []

        def spy_backward(net, cache, output_grad):
            grads = backward(net, cache, output_grad)
            seen.append([cache["l1"], cache["l2"], cache["masks"], grads, net.params])
            return grads

        monkeypatch.setattr(neuralnet, "backward", spy_backward)
        assert gradient_check(small_config(cell=cell, dropout=0.2), t_steps=5) < 1e-4
        arrays = list(_arrays(seen))
        assert len(arrays) > 30 and {a.dtype for a in arrays} == {np.dtype(np.float64)}


# A stepwise reference BPTT: each step's gradients and its weight-gradient
# GEMMs inside the time loop, over a list of per-step caches.  The kernel
# batches all but the recurrence over the T*B rows.

def _reference_lstm_forward(x_seq, W, U, b, units, steps):
    batch, t_steps, _ = x_seq.shape
    h = np.zeros((batch, units), x_seq.dtype)
    c = np.zeros((batch, units), x_seq.dtype)
    h_seq = np.empty((batch, t_steps, units), x_seq.dtype)
    for t in range(t_steps):
        x = x_seq[:, t, :]
        a = x @ W + h @ U + b
        s = neuralnet._sigmoid(a)
        i, f, o = s[:, :units], s[:, units:2 * units], s[:, 3 * units:]
        g = np.tanh(a[:, 2 * units:3 * units])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        steps.append((x, h, c, i, f, g, o, c_new))
        h, c = h_new, c_new
        h_seq[:, t, :] = h
    return h_seq


def _reference_lstm_backward(dh_seq, steps, W, U, units):
    batch = dh_seq.shape[0]
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros(W.shape[1], W.dtype)
    dx_seq = np.empty((batch, len(steps), W.shape[0]), dh_seq.dtype)
    dh_next = np.zeros((batch, units), dh_seq.dtype)
    dc_next = np.zeros((batch, units), dh_seq.dtype)
    for t in reversed(range(len(steps))):
        x, h_prev, c_prev, i, f, g, o, c_new = steps[t]
        dh = dh_seq[:, t, :] + dh_next
        tc = np.tanh(c_new)
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        da = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f),
                             dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        dW += x.T @ da
        dU += h_prev.T @ da
        db += da.sum(axis=0)
        dx_seq[:, t, :] = da @ W.T
        dh_next = da @ U.T
    return dx_seq, dW, dU, db


def _reference_gru_forward(x_seq, W, U, b, units, steps):
    batch, t_steps, _ = x_seq.shape
    h = np.zeros((batch, units), x_seq.dtype)
    h_seq = np.empty((batch, t_steps, units), x_seq.dtype)
    for t in range(t_steps):
        x = x_seq[:, t, :]
        azr = x @ W[:, :2 * units] + h @ U[:, :2 * units] + b[:2 * units]
        zr = neuralnet._sigmoid(azr)
        z, r = zr[:, :units], zr[:, units:]
        rh = r * h
        an = x @ W[:, 2 * units:] + rh @ U[:, 2 * units:] + b[2 * units:]
        n = np.tanh(an)
        h_new = (1.0 - z) * h + z * n
        steps.append((x, h, z, r, n, rh))
        h = h_new
        h_seq[:, t, :] = h
    return h_seq


def _reference_gru_backward(dh_seq, steps, W, U, units):
    batch = dh_seq.shape[0]
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros(W.shape[1], W.dtype)
    dx_seq = np.empty((batch, len(steps), W.shape[0]), dh_seq.dtype)
    dh_next = np.zeros((batch, units), dh_seq.dtype)
    for t in reversed(range(len(steps))):
        x, h_prev, z, r, n, rh = steps[t]
        dh = dh_seq[:, t, :] + dh_next
        dz = dh * (n - h_prev)
        dn = dh * z
        dh_prev = dh * (1.0 - z)
        dan = dn * (1.0 - n * n)
        drh = dan @ U[:, 2 * units:].T
        dr = drh * h_prev
        dh_prev += drh * r
        daz = dz * z * (1.0 - z)
        dar = dr * r * (1.0 - r)
        dW[:, :units] += x.T @ daz
        dW[:, units:2 * units] += x.T @ dar
        dW[:, 2 * units:] += x.T @ dan
        dU[:, :units] += h_prev.T @ daz
        dU[:, units:2 * units] += h_prev.T @ dar
        dU[:, 2 * units:] += rh.T @ dan
        db[:units] += daz.sum(axis=0)
        db[units:2 * units] += dar.sum(axis=0)
        db[2 * units:] += dan.sum(axis=0)
        dx_seq[:, t, :] = daz @ W[:, :units].T + dar @ W[:, units:2 * units].T \
            + dan @ W[:, 2 * units:].T
        dh_next = dh_prev + daz @ U[:, :units].T + dar @ U[:, units:2 * units].T
    return dx_seq, dW, dU, db


_REFERENCE = {"lstm": (_reference_lstm_forward, _reference_lstm_backward),
              "gru": (_reference_gru_forward, _reference_gru_backward)}


def _layer_case(cell, batch, t_steps, dtype=np.float64, units=5, input_dim=3):
    rng = np.random.default_rng([batch, t_steps])
    width = (4 if cell == "lstm" else 3) * units
    W, U = rng.uniform(-1, 1, (input_dim, width)), rng.uniform(-1, 1, (units, width))
    b = rng.uniform(-0.5, 0.5, width)
    x = rng.standard_normal((batch, t_steps, input_dim))
    dh = rng.standard_normal((batch, t_steps, units))
    return [a.astype(dtype) for a in (x, W, U, b, dh)]


class TestTimeBatchedBPTT:
    """The layer kernels against the stepwise reference above."""

    SHAPES = [(6, 7), (1, 7), (6, 1), (1, 1)]

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("batch,t_steps", SHAPES)
    def test_backward_matches_stepwise_reference(self, cell, batch, t_steps):
        x, W, U, b, dh = _layer_case(cell, batch, t_steps)
        ref_forward, ref_backward = _REFERENCE[cell]
        steps = []
        ref_forward(x, W, U, b, 5, steps)
        want = ref_backward(dh, steps, W, U, 5)
        _, cache = getattr(neuralnet, f"_{cell}_layer_forward")(x, W, U, b, 5, train=True)
        dx, dW, dU, db = getattr(neuralnet, f"_{cell}_layer_backward")(
            dh.transpose(1, 0, 2).copy(), cache, W, U, 5)
        for name, got, ref in zip(("dx", "dW", "dU", "db"),
                                  (dx.transpose(1, 0, 2), dW, dU, db), want):
            assert got.shape == ref.shape and got.dtype == ref.dtype, name
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("batch,t_steps", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_train_and_eval_forwards_bit_equal_reference(self, cell, batch, t_steps, dtype):
        x, W, U, b, _ = _layer_case(cell, batch, t_steps, dtype)
        want = _REFERENCE[cell][0](x, W, U, b, 5, [])
        layer_forward = getattr(neuralnet, f"_{cell}_layer_forward")
        h_train, cache = layer_forward(x, W, U, b, 5, train=True)
        h_eval, no_cache = layer_forward(x, W, U, b, 5)
        assert no_cache is None
        assert h_train.tobytes() == want.tobytes() and h_eval.tobytes() == want.tobytes()
        assert h_train.dtype == h_eval.dtype == dtype
        assert cache["h"][1:].transpose(1, 0, 2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_eval_forward_allocates_no_per_step_buffer(self, cell, monkeypatch):
        # a per-step buffer over predict's thousands of rows once raised the
        # pipeline's peak RSS by two thirds
        net = init_net(small_config(cell=cell, units1=8, units2=5))
        x = np.random.default_rng(3).standard_normal((7, 6, 6))
        allocations = _Allocations()
        monkeypatch.setattr(neuralnet, "np", allocations)
        allocations.on = True
        forward_batch(net, x, "eval")
        # the states (B, units) and each layer's hidden sequence (B, T, units)
        assert set(allocations.shapes) == {(7, 8), (7, 6, 8), (7, 5), (7, 6, 5)}
        # past EVAL_ROWS rows, no buffer grows with the batch but the output
        allocations.shapes.clear()
        rows = 2 * EVAL_ROWS + 1
        y, _ = forward_batch(net, np.zeros((rows, 6, 6)), "eval")
        assert y.shape == (rows, 3)
        assert {s for s in allocations.shapes if s[0] > EVAL_ROWS} <= {(rows, 3)}
        assert (2, 6, 8) in allocations.shapes  # the last chunk, a lone row, runs as two
        allocations.shapes.clear()
        forward_batch(net, x, "train", dropout_rng=np.random.default_rng(0))
        gates = 4 if cell == "lstm" else 3
        assert {(6, 7, gates * 8), (6, 7, gates * 5)} <= set(allocations.shapes)


@pytest.mark.filterwarnings("error")
def test_sigmoid_saturates_without_overflow_warning():
    assert neuralnet._sigmoid(np.float32(-100.0)) == 0.0
    assert neuralnet._sigmoid(np.full(3, -800.0)).tolist() == [0.0, 0.0, 0.0]


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


def test_weights_format_loads_no_sample_file_code():
    # a new interpreter, as this one has imported phyres.ingest already
    run_fresh("import sys, phyres.neuralnet\n"
              "assert 'phyres.ingest' not in sys.modules, sorted(sys.modules)")
