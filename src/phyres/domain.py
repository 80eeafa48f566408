"""Core data types and the train/val/test split.

Conventions used everywhere in the package:

* positions are front-of-vehicle longitudinal coordinates increasing
  downstream (a leader has a larger position than its follower);
* spacing is the front-position difference to the immediate predecessor
  and ignores vehicle length.  It is not a sample field:
  ``SampleBatch.spacing`` derives it from positions as
  ``hist_position[:-1] - hist_position[1:]``, whose row k-1 is vehicle k's
  spacing; the lead vehicle has none;
* vehicle index 0 is the most-downstream observed leader, index
  ``k_vehicles - 1`` is the ego whose future acceleration is predicted;
* all time series live on a uniform grid with step ``delta`` seconds and
  the last history point is the prediction origin t0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class DatasetConfig:
    """Sample-extraction geometry and split fractions."""

    delta: float
    k_vehicles: int
    t_back: int
    t_fwd: int
    omega_train: float
    omega_val: float
    seed: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.k_vehicles < 2:
            raise ConfigError("k_vehicles must be at least 2")
        if self.t_back < 1 or self.t_fwd < 1:
            raise ConfigError("t_back and t_fwd must be at least 1")
        if not (0 < self.omega_train):
            raise ConfigError("omega_train must be positive")
        if self.omega_val < 0:
            raise ConfigError("omega_val must be non-negative")
        if self.omega_train + self.omega_val >= 1:
            raise ConfigError("omega_train + omega_val must be < 1")


@dataclass
class TrajectorySample:
    """One training/evaluation unit, as ``SampleBatch`` yields its rows.

    History arrays have shape (K, t_back) and cover times
    t0-(t_back-1)*delta .. t0; future arrays have length t_fwd and cover
    t0+delta .. t0+t_fwd*delta.
    """

    sample_id: int
    hist_accel: np.ndarray       # (K, t_back)
    hist_speed: np.ndarray       # (K, t_back)
    hist_position: np.ndarray    # (K, t_back) absolute positions, m
    ego_future_accel: np.ndarray   # (t_fwd,)
    ego_speed_at_t0: float
    leader_future_accel: np.ndarray  # (K-1, t_fwd)


@dataclass(frozen=True)
class SampleBatch:
    """Many samples, stored once, field by field, along a leading axis n.

    A read-only sequence of ``TrajectorySample`` rows, whose arrays are
    views of the batch's.  Spacing is not stored: ``spacing`` derives it
    from positions.
    """

    sample_ids: np.ndarray           # (n,)
    hist_accel: np.ndarray           # (n, K, t_back)
    hist_speed: np.ndarray           # (n, K, t_back)
    hist_position: np.ndarray        # (n, K, t_back)
    ego_future_accel: np.ndarray     # (n, t_fwd)
    ego_speed_at_t0: np.ndarray      # (n,)
    leader_future_accel: np.ndarray  # (n, K-1, t_fwd)

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False

    @classmethod
    def of(cls, samples, index=None) -> "SampleBatch":
        """``samples`` as a batch: a batch as it is, a list stacked.  With
        ``index``, only those rows; of a list, only those items are stacked."""
        if isinstance(samples, SampleBatch):
            return samples if index is None else samples.take(index)
        if index is not None:
            samples = [samples[i] for i in index]
        if not samples:
            raise ConfigError("cannot batch an empty sample list")
        stacked = {f.name: np.array([getattr(s, f.name) for s in samples])
                   for f in fields(TrajectorySample)}
        return cls(sample_ids=stacked.pop("sample_id"), **stacked)

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __getitem__(self, i):
        """Row ``i`` as a ``TrajectorySample`` of views; a slice as a batch."""
        if isinstance(i, slice):
            return self.take(i)
        row = {name: arr[i] for name, arr in vars(self).items()}
        return TrajectorySample(sample_id=int(row.pop("sample_ids")),
                                ego_speed_at_t0=float(row.pop("ego_speed_at_t0")), **row)

    def take(self, index) -> "SampleBatch":
        """The rows ``index``: views for a slice, a copy for an integer array."""
        return SampleBatch(**{name: arr[index] for name, arr in vars(self).items()})

    def select(self, ids) -> "SampleBatch":
        """The rows whose id is in ``ids``, in batch order."""
        return self.take(np.flatnonzero(np.isin(self.sample_ids, list(ids))))

    @property
    def spacing(self) -> np.ndarray:
        """(n, K-1, t_back): each follower's spacing to its predecessor."""
        return self.hist_position[:, :-1] - self.hist_position[:, 1:]


@dataclass(frozen=True)
class SplitIndex:
    """Disjoint train/val/test sample-id sets."""

    train_ids: frozenset
    val_ids: frozenset
    test_ids: frozenset

    def __post_init__(self):
        if self.train_ids & self.val_ids or self.train_ids & self.test_ids \
                or self.val_ids & self.test_ids:
            raise ConfigError("split sets must be pairwise disjoint")


def split_dataset(ids, config: DatasetConfig) -> SplitIndex:
    """Randomly partition sample ids into train/val/test.

    Deterministic in (ids, config.seed).  Sizes follow the floor rule:
    |train| = floor(omega_train*I), |val| = floor(omega_val*I), test gets
    the remainder.
    """
    ids = sorted(ids)
    n = len(ids)
    if n < 3:
        raise ConfigError("need at least 3 samples to split")
    n_train = int(np.floor(config.omega_train * n))
    n_val = int(np.floor(config.omega_val * n))
    n_test = n - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise ConfigError(f"split of {n} samples with fractions ({config.omega_train}, "
                          f"{config.omega_val}) leaves an empty set")
    perm = np.random.default_rng(config.seed).permutation(n)
    shuffled = [ids[i] for i in perm]
    return SplitIndex(train_ids=frozenset(shuffled[:n_train]),
                      val_ids=frozenset(shuffled[n_train:n_train + n_val]),
                      test_ids=frozenset(shuffled[n_train + n_val:]))
