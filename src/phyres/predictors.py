"""The four predictor variants, their one training loop, and their
predictions: made, scored, and written to and read from a records file.

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

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import serialize
from .domain import DatasetConfig, SampleBatch, SplitIndex
from .errors import ConfigError, DataError, NumericError
from .neuralnet import (AdamState, NetConfig, NormStats, RecurrentNet, adam_step,
                        forward_batch, backward, init_net)
# physics_rollout is unused here: perfbench/tracing.py wraps this module's attribute
from .physics import PhysicsParams, physics_rollout, rollout_batch

VARIANTS = ("physics", "nn", "pinn", "perl")
PHYSICS_VARIANTS = ("physics", "pinn", "perl")   # need calibrated params
LR_MAX = float(np.finfo(np.float32).max)  # float32 training would hold a larger lr as inf
EVAL_ROWS = 1024   # rows per chunk of predict_many's net inputs and eval forward


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
        for name in ("max_epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 < self.lr <= LR_MAX:
            raise ConfigError(f"lr must be > 0 and at most {LR_MAX!r}, got {self.lr}")
        if not (0.0 <= self.mu <= 1.0):
            raise ConfigError("mu must be in [0, 1]")


def training_configs(settings, dcfg: DatasetConfig, variant: str,
                     seed: int) -> tuple[TrainConfig, NetConfig]:
    """The training and net configs of ``variant`` at ``seed``, from the
    training settings of ``settings`` (the CLI's parsed flags, or a
    ``SweepConfig``), read by name; the net takes its input and output
    widths from the sample geometry ``dcfg``."""
    s = settings
    nconf = NetConfig(cell=s.cell, units1=s.units1, units2=s.units2, dense_units=s.dense_units,
                      output_dim=dcfg.t_fwd, input_dim=3 * dcfg.k_vehicles, dropout=s.dropout,
                      output_activation=s.activation, seed=seed)
    tconf = TrainConfig(variant=variant, seed=seed, max_epochs=s.max_epochs,
                        batch_size=s.batch_size, patience=s.patience, lr=s.lr, mu=s.mu)
    return tconf, nconf


def compute_norm_stats(batch: SampleBatch) -> NormStats:
    """Channel statistics over a batch's history inputs (the training split),
    pooled over vehicle slots; the lead vehicle has no spacing and adds
    nothing to the spacing channel."""
    stats = {}
    for name, vals in (("accel", batch.hist_accel), ("speed", batch.hist_speed),
                       ("spacing", batch.spacing)):
        vals = vals.ravel()
        std = float(np.std(vals))
        if std <= 0:
            raise DataError(f"zero-variance {name} channel in training data")
        stats[f"{name}_mean"] = float(np.mean(vals))
        stats[f"{name}_std"] = std
    return NormStats(**stats)


def sample_features(batch: SampleBatch, stats: NormStats) -> np.ndarray:
    """Normalized network input, shape (n, t_back, 3K).

    Columns are per-vehicle blocks [accel, speed, spacing], the layout of
    ``training_configs``'s ``input_dim``.  The lead vehicle has no observed
    leader, so its spacing slot is a constant 0.
    """
    n, k, tb = batch.hist_accel.shape
    out = np.zeros((n, tb, 3 * k))
    out[:, :, 0::3] = ((batch.hist_accel - stats.accel_mean) / stats.accel_std).transpose(0, 2, 1)
    out[:, :, 1::3] = ((batch.hist_speed - stats.speed_mean) / stats.speed_std).transpose(0, 2, 1)
    out[:, :, 5::3] = ((batch.spacing - stats.spacing_mean) / stats.spacing_std).transpose(0, 2, 1)
    return out


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


@dataclass(frozen=True)
class PredictionBatch:
    """Many samples' predictions, stored once, column by column, along a
    leading axis n: a read-only sequence of ``PredictionRecord`` rows, whose
    arrays are views of the batch's."""

    sample_ids: np.ndarray                  # (n,)
    predicted_accel: np.ndarray             # (n, t_fwd)
    predicted_speed: np.ndarray             # (n, t_fwd)
    physics_component: np.ndarray | None    # (n, t_fwd), perl only
    residual_component: np.ndarray | None   # (n, t_fwd), perl only
    collision_in_rollout: np.ndarray        # (n,) bool

    @classmethod
    def of(cls, records) -> "PredictionBatch":
        """``records`` as a batch: a batch as it is, a list of records of one
        layout stacked."""
        if isinstance(records, PredictionBatch):
            return records
        return cls.of_columns(**{f.name: [getattr(r, f.name) for r in records]
                                 for f in fields(PredictionRecord)})

    @classmethod
    def of_columns(cls, sample_id, collision_in_rollout, **arrays) -> "PredictionBatch":
        """A batch of per-record columns, a list of one layout's values per
        ``PredictionRecord`` field; a record's array may be a list."""
        return cls(sample_ids=np.array(sample_id, dtype=np.int64),
                   collision_in_rollout=np.array(collision_in_rollout, dtype=bool),
                   **{name: None if col and col[0] is None else np.array(col, dtype=float)
                      for name, col in arrays.items()})

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __getitem__(self, i) -> PredictionRecord:
        """Row ``i`` as a ``PredictionRecord`` of views."""
        row = {name: None if col is None else col[i] for name, col in vars(self).items()}
        return PredictionRecord(sample_id=int(row.pop("sample_ids")),
                                collision_in_rollout=bool(row.pop("collision_in_rollout")), **row)


_RECORD_ARRAYS = ("predicted_accel", "predicted_speed", "physics_component",
                  "residual_component")
_REQUIRED = _RECORD_ARRAYS[:2]  # the components may be null


def write_records(preds: PredictionBatch, path) -> None:
    """One JSON line per prediction of the batch ``preds``: the bytes of
    ``serialize.dumps``, formatted from one (n, width) matrix of its arrays
    through one line template.  Every prediction is checked before the file
    is made."""
    arrays = [getattr(preds, name) for name in _RECORD_ARRAYS]
    matrix = np.hstack([a for a in arrays if a is not None])
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite prediction for sample {preds.sample_ids[finite.argmin()]}")
    slots = ("null" if a is None else serialize.json_slots(a.shape[1:]) for a in arrays)
    template = ('{"sample_id":%d,' + "".join(f'"{k}":{v},' for k, v in zip(_RECORD_ARRAYS, slots))
                + '"collision_in_rollout":%s}\n')
    with serialize.create(path) as fh:
        fh.writelines(template % (sid, *row, "true" if hit else "false") for sid, row, hit in
                      zip(preds.sample_ids.tolist(), matrix.tolist(),
                          preds.collision_in_rollout.tolist()))


def read_records(path) -> PredictionBatch:
    """The records of a records file, as a batch built column by column.  A
    DataError names the line that is no record (and its field), whose layout
    differs from the first record's, or whose sample_id repeats an earlier line's."""
    cols = {name: [] for name in ("sample_id", "collision_in_rollout", *_RECORD_ARRAYS)}
    seen, first = {}, None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            bad = f"{path}:{lineno}: malformed record: "
            try:  # JSONDecodeError is a ValueError
                obj = serialize.DECODER.decode(line)
                sid, collided = obj["sample_id"], obj["collision_in_rollout"]
                sid = serialize.number(sid, bad + "sample_id")
                if sid % 1 or abs(sid) >= 2 ** 53:  # an id that a float holds exactly
                    raise ValueError(f"sample_id {sid!r} is not an integer below 2**53")
                if type(collided) is not bool:
                    raise ValueError(f"collision_in_rollout {collided!r} is not true or false")
                # a variant without a physics or a residual part writes null; the
                # arrays are checked at once, field by field only to name a fault
                arrays = {name: obj.get(name) for name in _RECORD_ARRAYS}
                lists = [a for name, a in arrays.items() if a is not None or name in _REQUIRED]
                if not (obj.keys() >= arrays.keys() and all(type(a) is list for a in lists)
                        and serialize.finite_leaves(sum(lists, []))):
                    arrays = {name: None if obj[name] is None and name not in _REQUIRED
                              else serialize.finite_numbers(obj[name], 1, bad + name)
                              for name in _RECORD_ARRAYS}
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{bad}{exc!r}") from exc
            layout = {name: "null" if a is None else f"{len(a)} numbers" for name, a in arrays.items()}
            first = first or (lineno, layout)
            for name, held in layout.items():
                if held != first[1][name]:
                    raise DataError(f"{bad}{name} is {held}, line {first[0]}'s is {first[1][name]}")
            sid = int(sid)
            if sid in seen:
                raise DataError(f"{path}:{lineno}: sample_id {sid} repeats line {seen[sid]}")
            seen[sid] = lineno
            cols["sample_id"].append(sid)
            cols["collision_in_rollout"].append(collided)
            for name, a in arrays.items():
                cols[name].append(a)
    return PredictionBatch.of_columns(**cols)


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
    with np.errstate(over="ignore", invalid="ignore"):  # an inf is the caller's to report
        v_true = reconstruct_speed(v0[:, None], true_accel, delta)
        return (true_accel - accel) ** 2, (v_true - speed) ** 2


def train(samples, split: SplitIndex, tconf: TrainConfig, nconf: NetConfig, delta: float,
          params: PhysicsParams | None = None) -> tuple[RecurrentNet, TrainReport]:
    """Adam/BPTT loop for the learned variant ``tconf.variant`` on the train
    and val rows of ``samples``, a batch (or a list).

    The net regresses on the truth (nn, pinn) or on the physics residual
    (perl); pinn blends a data term with weight mu and a term anchored on
    the frozen physics prediction.  Each epoch's val scores are the squared
    errors of the variant's ``predict_many`` predictions on the val rows.

    The net trains in float32: its features, targets, pinn's anchor and its
    weights.  The train loss is averaged in float64; the returned net holds
    float32 weights.
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
    targets = train_batch.ego_future_accel
    pinn_phys = None
    if variant == "pinn":
        _, pinn_phys, _ = make_residual_targets(train_batch, params, delta)
        pinn_phys = pinn_phys.astype(np.float32)
    elif variant == "perl":
        targets, _, _ = make_residual_targets(train_batch, params, delta)
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
    # a diverging run overflows float32: the finite checks on the loss and in
    # forward_batch report it as one error, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
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
            val = predict_many(variant, val_batch, delta=delta, params=params, net=net)
            sq_a, sq_v = squared_errors(val.predicted_accel, val.predicted_speed,
                                        val_batch.ego_future_accel, val_batch.ego_speed_at_t0,
                                        delta)
            mse_a = float(np.mean(sq_a))
            per_epoch.append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses)),
                              "mse_a_val": mse_a, "mse_v_val": float(np.mean(sq_v))})
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
                 net: RecurrentNet | None = None) -> PredictionBatch:
    """The predictions for ``samples`` (a batch or a list), in order, from
    one physics rollout over all samples (physics, perl) and an eval-mode
    forward (nn, pinn, perl) over each ``EVAL_ROWS`` of them, whose net
    inputs are built one chunk at a time, so that no buffer grows with the
    batch but the outputs."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant in ("physics", "perl") and params is None:
        raise ConfigError(f"{variant} variant needs calibrated params")
    if variant != "physics" and (net is None or net.norm_stats is None):
        raise ConfigError(f"{variant} variant needs a trained net with norm stats")
    if not samples:
        return PredictionBatch.of([])
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
        y = np.concatenate([
            forward_batch(net, sample_features(batch[start:start + EVAL_ROWS], net.norm_stats))[0]
            for start in range(0, n, EVAL_ROWS)])
    with np.errstate(over="ignore", invalid="ignore"):  # the records' writer names an inf
        if variant == "perl":
            accel, phys_parts, resid_parts = compose_prediction(accel, y)
        elif variant != "physics":
            accel = y
        speed = reconstruct_speed(batch.ego_speed_at_t0[:, None], accel, delta)
    return PredictionBatch(batch.sample_ids, accel, speed, phys_parts, resid_parts, flags)
