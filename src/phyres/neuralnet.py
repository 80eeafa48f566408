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

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import serialize
from .errors import ConfigError, DataError, NumericError

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


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics of a net's inputs, pooled over vehicle
    slots; the weights file keeps them under ``norm_stats``."""

    accel_mean: float
    accel_std: float
    speed_mean: float
    speed_std: float
    spacing_mean: float
    spacing_std: float

    @classmethod
    def from_dict(cls, d: dict, what: str = "norm_stats") -> "NormStats":
        return cls(**{f.name: serialize.number(d[f.name], f"{what}.{f.name}") for f in fields(cls)})


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


def _lstm_layer_forward(x_seq, W, U, b, units, train=False):
    """Hidden sequence (B, T, units) and, in train mode, the BPTT cache: the
    input, each step's gates [i, f, g, o] in a time-major (T, B, 4 * units)
    buffer, and the hidden and cell states at every step boundary,
    (T + 1, B, units) with the zero initial state first.  Eval mode
    allocates no per-step buffer and returns no cache."""
    batch, t_steps, _ = x_seq.shape
    dtype = np.result_type(x_seq, W)
    h = np.zeros((batch, units), dtype)
    c = np.zeros((batch, units), dtype)
    h_seq = np.empty((batch, t_steps, units), dtype)
    if train:
        gates = np.empty((t_steps, batch, 4 * units), dtype)
        hs = np.zeros((t_steps + 1, batch, units), dtype)
        cs = np.zeros((t_steps + 1, batch, units), dtype)
    for t in range(t_steps):
        x = x_seq[:, t, :]
        a = x @ W + h @ U + b
        s = _sigmoid(a)  # one call for the i, f and o gates; g's block goes unused
        i, f, o = s[:, :units], s[:, units:2 * units], s[:, 3 * units:]
        g = np.tanh(a[:, 2 * units:3 * units])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        if train:
            gates[t] = s
            gates[t, :, 2 * units:3 * units] = g
            hs[t + 1], cs[t + 1] = h_new, c_new
        h, c = h_new, c_new
        h_seq[:, t, :] = h
    if not train:
        return h_seq, None
    return h_seq, {"x": x_seq, "gates": gates, "h": hs, "c": cs}


def _input_grads(da, x_seq, W, input_grad):
    """dW, db and the input gradient (T, B, input_dim) (None unless
    ``input_grad``) from the gate gradients ``da`` (T, B, gates), each as one
    GEMM or sum over the T*B rows."""
    t_steps, batch = da.shape[:2]
    da = da.reshape(t_steps * batch, -1)
    dW = x_seq.transpose(1, 0, 2).reshape(t_steps * batch, -1).T @ da
    dx_seq = (da @ W.T).reshape(t_steps, batch, -1) if input_grad else None
    return dx_seq, dW, da.sum(axis=0)


def _lstm_layer_backward(dh_seq, cache, W, U, units, input_grad=True):
    """dh_seq: (T, B, units) upstream grads on every output step.  Returns
    (dx_seq, dW, dU, db), dx_seq time-major like dh_seq.  The time loop
    carries only the recurrence; the gate derivatives come before it and the
    parameter and input gradients after it."""
    gates, hs, cs = cache["gates"], cache["h"], cache["c"]
    t_steps, batch, _ = gates.shape
    i, f, g, o = (gates[:, :, k * units:(k + 1) * units] for k in range(4))
    tc = np.tanh(cs[1:])
    # gate order in the weight matrix is [i, f, g, o]; a step's gate gradient
    # is dc * fac[:3] for i, f and g, and dh * fac[3] for o
    fac = np.empty((t_steps, batch, 4, units), gates.dtype)
    fac[:, :, 0] = g * i * (1.0 - i)
    fac[:, :, 1] = cs[:-1] * f * (1.0 - f)
    fac[:, :, 2] = i * (1.0 - g * g)
    fac[:, :, 3] = tc * o * (1.0 - o)
    dc_dh = o * (1.0 - tc * tc)
    da = np.empty((t_steps, batch, 4, units), dh_seq.dtype)
    dh_next = np.zeros((batch, units), dh_seq.dtype)
    dc_next = np.zeros((batch, units), dh_seq.dtype)
    for t in reversed(range(t_steps)):
        dh = dh_seq[t] + dh_next
        dc = dh * dc_dh[t] + dc_next
        np.multiply(fac[t, :, :3], dc[:, None, :], out=da[t, :, :3])
        np.multiply(fac[t, :, 3], dh, out=da[t, :, 3])
        dc_next = dc * f[t]
        dh_next = da[t].reshape(batch, 4 * units) @ U.T
    da = da.reshape(t_steps, batch, 4 * units)
    dU = hs[:-1].reshape(t_steps * batch, units).T @ da.reshape(t_steps * batch, -1)
    dx_seq, dW, db = _input_grads(da, cache["x"], W, input_grad)
    return dx_seq, dW, dU, db


def _gru_layer_forward(x_seq, W, U, b, units, train=False):
    """As ``_lstm_layer_forward``; the cache holds the gates [z, r, n] and
    r * h of each step, and the hidden states."""
    batch, t_steps, _ = x_seq.shape
    dtype = np.result_type(x_seq, W)
    h = np.zeros((batch, units), dtype)
    h_seq = np.empty((batch, t_steps, units), dtype)
    if train:
        gates = np.empty((t_steps, batch, 3 * units), dtype)
        rhs = np.empty((t_steps, batch, units), dtype)
        hs = np.zeros((t_steps + 1, batch, units), dtype)
    for t in range(t_steps):
        x = x_seq[:, t, :]
        azr = x @ W[:, :2 * units] + h @ U[:, :2 * units] + b[:2 * units]
        zr = _sigmoid(azr)
        z, r = zr[:, :units], zr[:, units:]
        rh = r * h
        an = x @ W[:, 2 * units:] + rh @ U[:, 2 * units:] + b[2 * units:]
        n = np.tanh(an)
        h_new = (1.0 - z) * h + z * n
        if train:
            gates[t, :, :2 * units], gates[t, :, 2 * units:] = zr, n
            rhs[t], hs[t + 1] = rh, h_new
        h = h_new
        h_seq[:, t, :] = h
    if not train:
        return h_seq, None
    return h_seq, {"x": x_seq, "gates": gates, "rh": rhs, "h": hs}


def _gru_layer_backward(dh_seq, cache, W, U, units, input_grad=True):
    """As ``_lstm_layer_backward``, for the GRU."""
    gates, h_prev = cache["gates"], cache["h"][:-1]
    t_steps, batch, _ = gates.shape
    z, r, n = (gates[:, :, k * units:(k + 1) * units] for k in range(3))
    # a step's gate gradients: daz = dh * kz, dan = dh * kn, dar = drh * kr
    # with drh = dan @ Un.T; dh reaches the previous step as dh * (1 - z),
    # drh * r and [daz, dar] @ [Uz, Ur].T
    kz = (n - h_prev) * z * (1.0 - z)
    kn = z * (1.0 - n * n)
    kr = h_prev * r * (1.0 - r)
    keep = 1.0 - z
    uzr_t, un_t = U[:, :2 * units].T, U[:, 2 * units:].T
    da = np.empty((t_steps, batch, 3, units), dh_seq.dtype)
    dh_next = np.zeros((batch, units), dh_seq.dtype)
    for t in reversed(range(t_steps)):
        dh = dh_seq[t] + dh_next
        np.multiply(dh, kz[t], out=da[t, :, 0])
        np.multiply(dh, kn[t], out=da[t, :, 2])
        drh = da[t, :, 2] @ un_t
        np.multiply(drh, kr[t], out=da[t, :, 1])
        dh_next = dh * keep[t] + drh * r[t] + da[t, :, :2].reshape(batch, 2 * units) @ uzr_t
    rows = t_steps * batch
    da = da.reshape(t_steps, batch, 3 * units)
    dU = np.empty_like(U)
    dU[:, :2 * units] = h_prev.reshape(rows, units).T @ da[..., :2 * units].reshape(rows, -1)
    dU[:, 2 * units:] = cache["rh"].reshape(rows, units).T @ da[..., 2 * units:].reshape(rows, -1)
    dx_seq, dW, db = _input_grads(da, cache["x"], W, input_grad)
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
    if not train and batch == 1:
        # numpy multiplies a lone row as a matrix-vector product, which rounds
        # otherwise than the matrix product: one row runs as two, so that it
        # gets the bits it would in any batch
        return forward_batch(net, np.concatenate([x, x]))[0][:1], None
    if train and masks is None:
        if dropout_rng is None:
            raise ConfigError("train-mode forward needs dropout_rng or masks")
        masks = make_dropout_masks(cfg, batch, t_steps, dropout_rng, x.dtype)

    def drop(a, key):
        return a * masks[key] if train else a

    layer_fwd = _lstm_layer_forward if cfg.cell == "lstm" else _gru_layer_forward
    h1_seq, l1 = layer_fwd(x, p["l1_W"], p["l1_U"], p["l1_b"], cfg.units1, train)
    h2_seq, l2 = layer_fwd(drop(h1_seq, "m1"), p["l2_W"], p["l2_U"], p["l2_b"], cfg.units2,
                           train)
    h2_drop = drop(h2_seq[:, -1, :], "m2")
    z3_drop = drop(h2_drop @ p["dense_W"] + p["dense_b"], "m3")
    y_lin = z3_drop @ p["out_W"] + p["out_b"]
    y = np.maximum(y_lin, 0.0) if cfg.output_activation == "relu" else y_lin
    for name, val in (("l1 hidden", h1_seq), ("l2 hidden", h2_seq), ("output", y)):
        if not np.all(np.isfinite(val)):
            raise NumericError(f"non-finite values in {name}")
    if not train:
        return y, None
    return y, {"masks": masks, "l1": l1, "l2": l2, "h2_drop": h2_drop, "z3_drop": z3_drop,
               "y_lin": y_lin}


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
    # the layers' backwards run time-major: (T, B, ·)
    dh2_seq = np.zeros((cache["l1"]["x"].shape[1], *dh2.shape), dh2.dtype)
    dh2_seq[-1] = dh2
    dh1_drop, dW2, dU2, db2 = layer_bwd(dh2_seq, cache["l2"], p["l2_W"], p["l2_U"], cfg.units2)
    grads["l2_W"], grads["l2_U"], grads["l2_b"] = dW2, dU2, db2
    dh1_seq = dh1_drop * masks["m1"].transpose(1, 0, 2)
    # nothing reads the gradient on the network input
    _, dW1, dU1, db1 = layer_bwd(dh1_seq, cache["l1"], p["l1_W"], p["l1_U"], cfg.units1,
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


def adam_step(net: RecurrentNet, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Bias-corrected Adam update, in place."""
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

    y, cache = forward_batch(net, x, "train", masks=masks)
    grads = backward(net, cache, y - target)

    def loss_only():
        y, _ = forward_batch(net, x, "train", masks=masks)
        return 0.5 * float(np.sum((y - target) ** 2))

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
