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

from dataclasses import dataclass

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
    """One training/evaluation unit: K chained vehicles over a window.

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

    @property
    def k_vehicles(self) -> int:
        return self.hist_accel.shape[0]

    @property
    def t_back(self) -> int:
        return self.hist_accel.shape[1]

    @property
    def t_fwd(self) -> int:
        return self.ego_future_accel.shape[0]

    def validate(self) -> None:
        """Check the structural invariants; raises DataError on violation."""
        from .errors import DataError

        k, tb = self.hist_accel.shape
        for name in ("hist_speed", "hist_position"):
            if getattr(self, name).shape != (k, tb):
                raise DataError(f"{name} shape mismatch in sample {self.sample_id}")
        if self.leader_future_accel.shape != (k - 1, self.t_fwd):
            raise DataError(f"leader_future_accel shape mismatch in sample {self.sample_id}")
        if np.any(self.hist_speed < 0):
            raise DataError(f"negative speed in sample {self.sample_id}")
        if np.any(self.hist_position[:-1] - self.hist_position[1:] <= 0):
            raise DataError(f"non-positive spacing in sample {self.sample_id}")


@dataclass(frozen=True)
class SampleBatch:
    """The arrays of many samples, stacked once along a leading axis n.

    Built with ``SampleBatch.of(samples)``; the arrays are read-only
    copies.  Spacing is not stacked: ``spacing`` derives it from positions.
    """

    sample_ids: np.ndarray           # (n,)
    hist_accel: np.ndarray           # (n, K, t_back)
    hist_speed: np.ndarray           # (n, K, t_back)
    hist_position: np.ndarray        # (n, K, t_back)
    ego_future_accel: np.ndarray     # (n, t_fwd)
    ego_speed_at_t0: np.ndarray      # (n,)
    leader_future_accel: np.ndarray  # (n, K-1, t_fwd)

    @classmethod
    def of(cls, samples: list[TrajectorySample]) -> "SampleBatch":
        if not samples:
            raise ConfigError("cannot batch an empty sample list")
        batch = cls(
            sample_ids=np.array([s.sample_id for s in samples]),
            hist_accel=np.stack([s.hist_accel for s in samples]),
            hist_speed=np.stack([s.hist_speed for s in samples]),
            hist_position=np.stack([s.hist_position for s in samples]),
            ego_future_accel=np.stack([s.ego_future_accel for s in samples]),
            ego_speed_at_t0=np.array([s.ego_speed_at_t0 for s in samples], dtype=float),
            leader_future_accel=np.stack([s.leader_future_accel for s in samples]),
        )
        for arr in vars(batch).values():
            arr.flags.writeable = False
        return batch

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

    @property
    def all_ids(self) -> frozenset:
        return self.train_ids | self.val_ids | self.test_ids


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
        raise ConfigError(
            f"split of {n} samples with fractions "
            f"({config.omega_train}, {config.omega_val}) leaves an empty set"
        )
    perm = np.random.default_rng(config.seed).permutation(n)
    shuffled = [ids[i] for i in perm]
    return SplitIndex(
        train_ids=frozenset(shuffled[:n_train]),
        val_ids=frozenset(shuffled[n_train:n_train + n_val]),
        test_ids=frozenset(shuffled[n_train + n_val:]),
    )
