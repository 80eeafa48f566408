"""The four predictor variants and their one training loop.

* physics: calibrated car-following rollout, no learning;
* nn: recurrent net trained on ground-truth future accelerations;
* pinn: same net, loss blends data error and deviation from the (frozen)
  physics prediction with weight mu;
* perl: net trained on residuals (truth minus physics), final prediction
  is physics + residual.

All training runs are bit-deterministic given (config, seeds): one RNG
drives both batch shuffling and dropout, so variants sharing a seed
consume the stream identically (pinn with mu=1 reproduces nn exactly).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import serialize
from .domain import SampleBatch, SplitIndex
from .errors import ConfigError, NumericError
from .ingest import compute_norm_stats, sample_features
from .neuralnet import AdamState, NetConfig, RecurrentNet, adam_step, forward_batch, backward, init_net
# physics_rollout is unused here: perfbench/tracing.py wraps this module's attribute
from .physics import PhysicsParams, physics_rollout, rollout_batch

VARIANTS = ("physics", "nn", "pinn", "perl")
PHYSICS_VARIANTS = ("physics", "pinn", "perl")   # need calibrated params


@dataclass(frozen=True)
class TrainConfig:
    variant: str
    seed: int
    max_epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    patience: int = 20
    mu: float = 0.5   # pinn loss weight on the data term

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not (0.0 <= self.mu <= 1.0):
            raise ConfigError("mu must be in [0, 1]")


@dataclass
class TrainReport:
    config: dict
    net_config: dict
    per_epoch: list[dict]   # {epoch, train_loss, mse_a_val, mse_v_val}
    best_epoch: int

    def write_json(self, path) -> None:
        serialize.write_json(path, asdict(self))


@dataclass
class PredictionRecord:
    sample_id: int
    predicted_accel: np.ndarray     # (t_fwd,)
    predicted_speed: np.ndarray     # (t_fwd,)
    physics_component: np.ndarray | None = None   # perl only
    residual_component: np.ndarray | None = None  # perl only
    collision_in_rollout: bool = False


def reconstruct_speed(v0: float, accel: np.ndarray, delta: float) -> np.ndarray:
    """Cumulative speed from predicted accelerations: v_j = v0 + delta*sum."""
    return v0 + delta * np.cumsum(accel, axis=-1)


def make_residual_targets(samples, params: PhysicsParams,
                          delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual targets r = truth - physics prediction, per sample of a
    batch (or a list); returns (residuals (n, t_fwd), physics predictions
    (n, t_fwd), collision flags (n,))."""
    batch = SampleBatch.of(samples)
    phys, flags = rollout_batch(batch, params, delta)
    return batch.ego_future_accel - phys, phys, flags


def compose_prediction(phys: np.ndarray, resid: np.ndarray):
    """Sum physics + residual so the decomposition is bit-exact.

    Returns (total, phys_stored, resid_stored) with the smaller-magnitude
    component recomputed as total - larger (Fast2Sum), which makes both
    total - phys_stored - resid_stored and total - resid_stored -
    phys_stored exactly zero in float64.
    """
    total = phys + resid
    phys_big = np.abs(phys) >= np.abs(resid)
    small = total - np.where(phys_big, phys, resid)
    return total, np.where(phys_big, phys, small), np.where(phys_big, small, resid)


def squared_errors(accel: np.ndarray, speed: np.ndarray, true_accel: np.ndarray,
                   v0: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The squared acceleration and speed errors of predictions ``accel`` and
    ``speed``, a row per sample and a column per horizon step; the true
    speed is reconstructed from ``true_accel`` and the speeds ``v0`` at t0."""
    v_true = reconstruct_speed(v0[:, None], true_accel, delta)
    return (true_accel - accel) ** 2, (v_true - speed) ** 2


def train(samples, split: SplitIndex, tconf: TrainConfig, nconf: NetConfig, delta: float,
          params: PhysicsParams | None = None) -> tuple[RecurrentNet, TrainReport]:
    """Adam/BPTT loop for the learned variant ``tconf.variant`` on the train
    and val rows of ``samples``, a batch (or a list).

    The net regresses on the truth (nn, pinn) or on the physics residual
    (perl); pinn blends a data term with weight mu and a term anchored on
    the frozen physics prediction; perl adds the physics prediction to the
    net's validation output before scoring.

    The net trains in float32: its features, targets, pinn's anchor and its
    weights.  The train loss is averaged in float64, and the val scores come
    from an eval forward on float64 features, as in ``predict_many``; the
    returned net holds float32 weights.
    """
    variant = tconf.variant
    if variant == "physics":
        raise ConfigError("variant 'physics' has no training step; use calibrate")
    if variant in PHYSICS_VARIANTS and params is None:
        raise ConfigError(f"{variant} variant needs calibrated params")
    batch = SampleBatch.of(samples)
    train_batch, val_batch = batch.select(split.train_ids), batch.select(split.val_ids)
    if not len(train_batch) or not len(val_batch):
        raise ConfigError("train and val splits must be non-empty")
    stats = compute_norm_stats(train_batch)
    x_train = sample_features(train_batch, stats).astype(np.float32)
    x_val = sample_features(val_batch, stats)
    targets = train_batch.ego_future_accel
    pinn_phys = val_phys = None
    if variant == "pinn":
        _, pinn_phys, _ = make_residual_targets(train_batch, params, delta)
        pinn_phys = pinn_phys.astype(np.float32)
    elif variant == "perl":
        targets, _, _ = make_residual_targets(train_batch, params, delta)
        _, val_phys, _ = make_residual_targets(val_batch, params, delta)
    targets = targets.astype(np.float32)

    n, t_fwd = targets.shape
    net = init_net(nconf, norm_stats=stats)
    net.params = {name: p.astype(np.float32) for name, p in net.params.items()}
    state = AdamState.for_net(net, tconf.lr)
    rng = np.random.default_rng(tconf.seed)
    mu = tconf.mu
    best = (float("inf"), -1, net.copy_params())
    per_epoch = []
    bad = 0
    for epoch in range(1, tconf.max_epochs + 1):
        perm = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, tconf.batch_size):
            idx = perm[start:start + tconf.batch_size]
            xb, tb = x_train[idx], targets[idx]
            y, cache = forward_batch(net, xb, "train", dropout_rng=rng)
            scale = y.shape[0] * t_fwd
            if pinn_phys is None:
                loss = float(np.mean((y - tb) ** 2, dtype=np.float64))
                grad = 2.0 * (y - tb) / scale
            else:
                pb = pinn_phys[idx]
                loss = mu * float(np.mean((y - tb) ** 2, dtype=np.float64)) \
                    + (1.0 - mu) * float(np.mean((y - pb) ** 2, dtype=np.float64))
                grad = (2.0 * mu * (y - tb) + 2.0 * (1.0 - mu) * (y - pb)) / scale
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {start // tconf.batch_size}")
            grads = backward(net, cache, grad)
            adam_step(net, grads, state)
            epoch_losses.append(loss)
        y_val, _ = forward_batch(net, x_val, "eval")
        pred_val = y_val if val_phys is None else val_phys + y_val
        v0 = val_batch.ego_speed_at_t0
        sq_a, sq_v = squared_errors(pred_val, reconstruct_speed(v0[:, None], pred_val, delta),
                                    val_batch.ego_future_accel, v0, delta)
        mse_a = float(np.mean(sq_a))
        per_epoch.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "mse_a_val": mse_a,
            "mse_v_val": float(np.mean(sq_v)),
        })
        if mse_a < best[0]:
            best = (mse_a, epoch, net.copy_params())
            bad = 0
        else:
            bad += 1
            if bad >= tconf.patience:
                break
    net.params = best[2]
    report = TrainReport(config=asdict(tconf), net_config=asdict(nconf),
                         per_epoch=per_epoch, best_epoch=best[1])
    return net, report


# train() under the per-variant names and positional signatures that
# acceptance gate 5 (tests/test_acceptance.py) calls
def train_nn(samples, split, tconf, nconf, delta):
    return train(samples, split, tconf, nconf, delta)


def train_pinn(samples, split, tconf, nconf, params, delta):
    return train(samples, split, tconf, nconf, delta, params)


def train_perl(samples, split, tconf, nconf, params, delta):
    return train(samples, split, tconf, nconf, delta, params)


def predict_many(variant: str, samples, *, delta: float,
                 params: PhysicsParams | None = None,
                 net: RecurrentNet | None = None) -> list[PredictionRecord]:
    """Prediction records for ``samples`` (a batch or a list), in order, from
    one batched pass:
    one physics rollout over all samples (physics, perl) and one eval-mode
    forward over all samples (nn, pinn, perl)."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant in ("physics", "perl") and params is None:
        raise ConfigError(f"{variant} variant needs calibrated params")
    if variant != "physics" and (net is None or net.norm_stats is None):
        raise ConfigError(f"{variant} variant needs a trained net with norm stats")
    if not samples:
        return []
    batch = SampleBatch.of(samples)
    n, t_fwd = batch.ego_future_accel.shape
    if variant != "physics" and net.config.output_dim != t_fwd:
        raise ConfigError(f"net predicts {net.config.output_dim} steps but the "
                          f"samples have a {t_fwd}-step horizon")
    phys_parts = resid_parts = None
    flags = np.zeros(n, dtype=bool)
    if variant in ("physics", "perl"):
        accel, flags = rollout_batch(batch, params, delta)
    if variant != "physics":
        y, _ = forward_batch(net, sample_features(batch, net.norm_stats), "eval")
        if variant == "perl":
            accel, phys_parts, resid_parts = compose_prediction(accel, y)
        else:
            accel = y
    speed = reconstruct_speed(batch.ego_speed_at_t0[:, None], accel, delta)
    return [PredictionRecord(
        sample_id=sid,
        predicted_accel=accel[i],
        predicted_speed=speed[i],
        physics_component=None if phys_parts is None else phys_parts[i],
        residual_component=None if resid_parts is None else resid_parts[i],
        collision_in_rollout=bool(flags[i]),
    ) for i, sid in enumerate(batch.sample_ids.tolist())]

