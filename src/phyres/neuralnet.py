"""From-scratch recurrent network kernel: LSTM/GRU cells, two stacked
recurrent layers, three dropout sites, a dense head, exact BPTT gradients,
Adam, and a finite-difference gradient check.

Every kernel computes in the dtype of its inputs: ``predictors.train``
runs the net in float32, while ``gradient_check``, the train loss, the val
scores, prediction and perl's composition run in float64 (float32 weights
upcast exactly against float64 features).  Cell recurrences are the
canonical forms:

LSTM:  i,f,o = sigmoid(...), g = tanh(...);  c' = f*c + i*g;  h = o*tanh(c')
GRU:   z,r = sigmoid(...); n = tanh(Wn x + Un (r*h) + bn);
       h' = (1-z)*h + z*n

The head reads the final time step's top hidden state:
dropout -> dense(eta3, linear) -> dropout -> output layer -> activation.
Dropout is inverted (train activations scaled by 1/(1-p)); eval mode
applies none.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import serialize
from .errors import ConfigError, DataError, NumericError
from .ingest import NormStats

WEIGHTS_FORMAT_VERSION = 1
GRADCHECK_FD_STEP = 1e-5    # central-difference step of gradient_check
GRADCHECK_SEED = 12345      # draws gradient_check's input, target and masks
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
CELLS = ("lstm", "gru")
ACTIVATIONS = ("linear", "relu")  # of the output layer


@dataclass(frozen=True)
class NetConfig:
    cell: str              # "lstm" | "gru"
    units1: int
    units2: int
    dense_units: int
    output_dim: int
    input_dim: int
    dropout: float = 0.2
    output_activation: str = "linear"  # "linear" | "relu"
    seed: int = 0

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ConfigError(f"unknown cell {self.cell!r}")
        if self.output_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.output_activation!r}")
        for name in ("units1", "units2", "dense_units", "output_dim", "input_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0 <= self.dropout < 1):
            raise ConfigError("dropout must be in [0, 1)")

    @classmethod
    def from_dict(cls, d: dict, what: str = "net_config") -> "NetConfig":
        """The config of ``asdict``; ``what`` names ``d`` in a DataError."""
        ints = {k: serialize.number(d[k], f"{what}.{k}", int) for k in
                ("units1", "units2", "dense_units", "output_dim", "input_dim", "seed")}
        return cls(cell=d["cell"], dropout=serialize.number(d["dropout"], f"{what}.dropout"),
                   output_activation=d["output_activation"], **ints)


@dataclass
class RecurrentNet:
    config: NetConfig
    params: dict[str, np.ndarray]
    norm_stats: NormStats | None = None

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def _tensor_shapes(cfg: NetConfig) -> dict[str, tuple[int, ...]]:
    gates = 4 if cfg.cell == "lstm" else 3
    return {
        "l1_W": (cfg.input_dim, gates * cfg.units1),
        "l1_U": (cfg.units1, gates * cfg.units1),
        "l1_b": (gates * cfg.units1,),
        "l2_W": (cfg.units1, gates * cfg.units2),
        "l2_U": (cfg.units2, gates * cfg.units2),
        "l2_b": (gates * cfg.units2,),
        "dense_W": (cfg.units2, cfg.dense_units),
        "dense_b": (cfg.dense_units,),
        "out_W": (cfg.dense_units, cfg.output_dim),
        "out_b": (cfg.output_dim,),
    }


def init_net(cfg: NetConfig, norm_stats: NormStats | None = None) -> RecurrentNet:
    """Seeded init: weights ~ U(-sqrt(1/fan_in), +sqrt(1/fan_in)), biases
    zero, LSTM forget-gate bias 1."""
    rng = np.random.default_rng(cfg.seed)
    params = {}
    for name, shape in _tensor_shapes(cfg).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            bound = np.sqrt(1.0 / shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
    if cfg.cell == "lstm":
        for layer, units in (("l1", cfg.units1), ("l2", cfg.units2)):
            params[f"{layer}_b"][units:2 * units] = 1.0  # forget gate
    return RecurrentNet(config=cfg, params=params, norm_stats=norm_stats)


def _sigmoid(x):
    with np.errstate(over="ignore"):  # exp(-x) = inf below about -88.7 in float32; 1/inf = 0
        return 1.0 / (1.0 + np.exp(-x))


def make_dropout_masks(cfg: NetConfig, batch: int, t_steps: int,
                       rng: np.random.Generator, dtype=np.float64) -> dict[str, np.ndarray]:
    """Sample the three inverted-dropout masks for a train-mode forward, as
    ``dtype`` arrays; the draws are float64 whatever ``dtype`` is."""
    p = cfg.dropout
    shapes = {"m1": (batch, t_steps, cfg.units1), "m2": (batch, cfg.units2),
              "m3": (batch, cfg.dense_units)}
    if p == 0.0:
        return {key: np.ones(shape, dtype) for key, shape in shapes.items()}
    scale = 1.0 / (1.0 - p)
    return {key: (rng.random(shape) >= p).astype(dtype) * scale
            for key, shape in shapes.items()}


def _lstm_layer_forward(x_seq, W, U, b, units, steps=None):
    """Hidden sequence (B, T, units); appends each step's BPTT cache to
    ``steps`` when one is given."""
    batch, t_steps, _ = x_seq.shape
    dtype = np.result_type(x_seq, W)
    h = np.zeros((batch, units), dtype)
    c = np.zeros((batch, units), dtype)
    h_seq = np.empty((batch, t_steps, units), dtype)
    for t in range(t_steps):
        x = x_seq[:, t, :]
        a = x @ W + h @ U + b
        s = _sigmoid(a)  # one call for the i, f and o gates; g's block goes unused
        i, f, o = s[:, :units], s[:, units:2 * units], s[:, 3 * units:]
        g = np.tanh(a[:, 2 * units:3 * units])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        if steps is not None:
            steps.append((x, h, c, i, f, g, o, c_new))
        h, c = h_new, c_new
        h_seq[:, t, :] = h
    return h_seq


def _lstm_layer_backward(dh_seq, steps, W, U, units, input_grad=True):
    """dh_seq: (B, T, units) upstream grads on every output step.  Returns
    (dx_seq, dW, dU, db); dx_seq is None unless ``input_grad``."""
    batch = dh_seq.shape[0]
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(W.shape[1], W.dtype)
    dx_seq = np.empty((batch, len(steps), W.shape[0]), dh_seq.dtype) if input_grad else None
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
        da = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        # gate order in the weight matrix is [i, f, g, o]
        dW += x.T @ da
        dU += h_prev.T @ da
        db += da.sum(axis=0)
        if input_grad:
            dx_seq[:, t, :] = da @ W.T
        dh_next = da @ U.T
    return dx_seq, dW, dU, db


def _gru_layer_forward(x_seq, W, U, b, units, steps=None):
    batch, t_steps, _ = x_seq.shape
    dtype = np.result_type(x_seq, W)
    h = np.zeros((batch, units), dtype)
    h_seq = np.empty((batch, t_steps, units), dtype)
    for t in range(t_steps):
        x = x_seq[:, t, :]
        azr = x @ W[:, :2 * units] + h @ U[:, :2 * units] + b[:2 * units]
        zr = _sigmoid(azr)
        z, r = zr[:, :units], zr[:, units:]
        rh = r * h
        an = x @ W[:, 2 * units:] + rh @ U[:, 2 * units:] + b[2 * units:]
        n = np.tanh(an)
        h_new = (1.0 - z) * h + z * n
        if steps is not None:
            steps.append((x, h, z, r, n, rh))
        h = h_new
        h_seq[:, t, :] = h
    return h_seq


def _gru_layer_backward(dh_seq, steps, W, U, units, input_grad=True):
    batch = dh_seq.shape[0]
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(W.shape[1], W.dtype)
    dx_seq = np.empty((batch, len(steps), W.shape[0]), dh_seq.dtype) if input_grad else None
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
        if input_grad:
            dx_seq[:, t, :] = daz @ W[:, :units].T + dar @ W[:, units:2 * units].T \
                + dan @ W[:, 2 * units:].T
        dh_next = dh_prev + daz @ U[:, :units].T + dar @ U[:, units:2 * units].T
    return dx_seq, dW, dU, db


def forward_batch(net: RecurrentNet, x: np.ndarray, mode: str = "eval",
                  dropout_rng: np.random.Generator | None = None,
                  masks: dict[str, np.ndarray] | None = None):
    """Batched forward pass; x has shape (B, T, input_dim).

    Returns (output (B, output_dim), cache).  In train mode dropout masks
    are sampled from ``dropout_rng`` unless ``masks`` pins them (used by
    the gradient check), and the cache holds what ``backward`` needs.  Eval
    mode applies no dropout and returns no cache.
    """
    cfg = net.config
    if x.ndim != 3 or x.shape[2] != cfg.input_dim:
        raise ConfigError(f"input shape {x.shape} does not match input_dim {cfg.input_dim}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    p = net.params
    batch, t_steps, _ = x.shape
    train = mode == "train"
    if train and masks is None:
        if dropout_rng is None:
            raise ConfigError("train-mode forward needs dropout_rng or masks")
        masks = make_dropout_masks(cfg, batch, t_steps, dropout_rng, x.dtype)

    def drop(a, key):
        return a * masks[key] if train else a

    steps1, steps2 = ([], []) if train else (None, None)
    layer_fwd = _lstm_layer_forward if cfg.cell == "lstm" else _gru_layer_forward
    h1_seq = layer_fwd(x, p["l1_W"], p["l1_U"], p["l1_b"], cfg.units1, steps1)
    h1_drop = drop(h1_seq, "m1")
    h2_seq = layer_fwd(h1_drop, p["l2_W"], p["l2_U"], p["l2_b"], cfg.units2, steps2)
    h2_drop = drop(h2_seq[:, -1, :], "m2")
    z3_drop = drop(h2_drop @ p["dense_W"] + p["dense_b"], "m3")
    y_lin = z3_drop @ p["out_W"] + p["out_b"]
    y = np.maximum(y_lin, 0.0) if cfg.output_activation == "relu" else y_lin
    for name, val in (("l1 hidden", h1_seq), ("l2 hidden", h2_seq), ("output", y)):
        if not np.all(np.isfinite(val)):
            raise NumericError(f"non-finite values in {name}")
    if not train:
        return y, None
    cache = {
        "x": x, "masks": masks, "steps1": steps1, "steps2": steps2,
        "h1_drop": h1_drop, "h2_drop": h2_drop, "z3_drop": z3_drop,
        "y_lin": y_lin,
    }
    return y, cache


def backward(net: RecurrentNet, cache: dict, output_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the forward map w.r.t. every parameter.

    cache: from a train-mode ``forward_batch``; output_grad: (B, output_dim)
    upstream gradient on the activated output.
    """
    if cache is None:
        raise ConfigError("backward needs the cache of a train-mode forward")
    cfg = net.config
    p = net.params
    if output_grad.shape != cache["y_lin"].shape:
        raise ConfigError(
            f"output_grad shape {output_grad.shape} != {cache['y_lin'].shape}")
    masks = cache["masks"]
    if cfg.output_activation == "relu":
        dy = output_grad * (cache["y_lin"] > 0)
    else:
        dy = output_grad
    grads = {}
    grads["out_W"] = cache["z3_drop"].T @ dy
    grads["out_b"] = dy.sum(axis=0)
    dz3 = (dy @ p["out_W"].T) * masks["m3"]
    grads["dense_W"] = cache["h2_drop"].T @ dz3
    grads["dense_b"] = dz3.sum(axis=0)
    dh2 = (dz3 @ p["dense_W"].T) * masks["m2"]

    layer_bwd = _lstm_layer_backward if cfg.cell == "lstm" else _gru_layer_backward
    batch, t_steps = dh2.shape[0], cache["x"].shape[1]
    dh2_seq = np.zeros((batch, t_steps, cfg.units2), dh2.dtype)
    dh2_seq[:, -1, :] = dh2
    dh1_drop, dW2, dU2, db2 = layer_bwd(dh2_seq, cache["steps2"], p["l2_W"], p["l2_U"], cfg.units2)
    grads["l2_W"], grads["l2_U"], grads["l2_b"] = dW2, dU2, db2
    dh1_seq = dh1_drop * masks["m1"]
    # nothing reads the gradient on the network input
    _, dW1, dU1, db1 = layer_bwd(dh1_seq, cache["steps1"], p["l1_W"], p["l1_U"], cfg.units1,
                                 input_grad=False)
    grads["l1_W"], grads["l1_U"], grads["l1_b"] = dW1, dU1, db1
    return grads


@dataclass
class AdamState:
    lr: float
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_net(cls, net: RecurrentNet, lr: float = 1e-3) -> "AdamState":
        return cls(lr=lr, m={k: np.zeros_like(p) for k, p in net.params.items()},
                   v={k: np.zeros_like(p) for k, p in net.params.items()})


def adam_step(net: RecurrentNet, grads: dict[str, np.ndarray], state: AdamState):
    """Bias-corrected Adam update, in place; returns (net, state)."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name, param in net.params.items():
        g = grads[name]
        if g.shape != param.shape:
            raise ConfigError(f"gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        param -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return net, state


def gradient_check(cfg: NetConfig, t_steps: int = 5) -> float:
    """Compare BPTT gradients against central finite differences.

    Builds a small net from ``cfg``, one random input and target, a frozen
    set of dropout masks, and a squared-error loss; returns the worst
    relative gradient error over all parameters.
    """
    if max(cfg.units1, cfg.units2) > 10 or t_steps > 8:
        raise ConfigError("gradient check is restricted to small configurations")
    rng = np.random.default_rng(GRADCHECK_SEED)
    net = init_net(cfg)
    x = rng.standard_normal((1, t_steps, cfg.input_dim))
    target = rng.standard_normal((1, cfg.output_dim))
    masks = make_dropout_masks(cfg, 1, t_steps, rng)

    if cfg.output_activation == "relu":
        # push output pre-activations away from the relu kink so the
        # finite-difference interval cannot straddle it
        _, cache = forward_batch(net, x, "train", masks=masks)
        z = cache["y_lin"][0]
        nudge = np.where(z >= 0.0, 1.0, -1.0) * np.maximum(0.0, 0.1 - np.abs(z))
        net.params["out_b"] = net.params["out_b"] + nudge

    def loss_and_grad():
        y, cache = forward_batch(net, x, "train", masks=masks)
        return 0.5 * float(np.sum((y - target) ** 2)), backward(net, cache, y - target)

    def loss_only():
        y, _ = forward_batch(net, x, "train", masks=masks)
        return 0.5 * float(np.sum((y - target) ** 2))

    _, grads = loss_and_grad()
    worst = 0.0
    for name, param in net.params.items():
        flat = param.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + GRADCHECK_FD_STEP
            lp = loss_only()
            flat[idx] = orig - GRADCHECK_FD_STEP
            lm = loss_only()
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * GRADCHECK_FD_STEP)
            # floor absorbs central-difference roundoff (~1e-11 absolute)
            # on near-zero gradients without masking real errors
            denom = max(abs(fd) + abs(gflat[idx]), 1e-6)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst


def save_net(net: RecurrentNet, path) -> None:
    serialize.write_json(path, {
        "format_version": WEIGHTS_FORMAT_VERSION,
        "net_config": asdict(net.config),
        "norm_stats": asdict(net.norm_stats) if net.norm_stats else None,
        "tensors": {
            name: {"shape": list(t.shape), "values": t.reshape(-1)}
            for name, t in net.params.items()
        },
    })


def load_net(path) -> RecurrentNet:
    obj = serialize.read_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: a weights file must be a JSON object")
    version = serialize.number(obj.get("format_version"), f"{path}: weight format_version", int)
    if version != WEIGHTS_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported weight format_version {version}")
    try:
        cfg = NetConfig.from_dict(obj["net_config"], f"{path}: net_config")
        params = {}
        for name, t in obj["tensors"].items():
            shape = [serialize.number(n, f"{path}: tensor {name} shape", int) for n in t["shape"]]
            params[name] = serialize.numbers(t["values"], 1, f"{path}: tensor {name}").reshape(shape)
        stats = (NormStats.from_dict(obj["norm_stats"], f"{path}: norm_stats")
                 if obj.get("norm_stats") else None)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad weights file: {exc!r}") from exc
    expected = _tensor_shapes(cfg)
    if set(params) != set(expected) or any(params[k].shape != expected[k] for k in expected):
        raise DataError(f"{path}: tensor set/shape mismatch with net_config")
    return RecurrentNet(config=cfg, params=params, norm_stats=stats)
