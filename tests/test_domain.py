import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sample, make_samples
from phyres.domain import DatasetConfig, SampleBatch, SplitIndex, split_dataset
from phyres.errors import ConfigError, DataError
from phyres.ingest import read_samples, write_samples


def _config(**overrides):
    base = dict(delta=0.1, k_vehicles=3, t_back=6, t_fwd=4,
                omega_train=0.6, omega_val=0.2, seed=0)
    base.update(overrides)
    return DatasetConfig(**base)


class TestDatasetConfig:
    def test_valid(self):
        _config()

    @pytest.mark.parametrize("overrides", [
        {"delta": 0.0}, {"delta": -0.1}, {"k_vehicles": 1},
        {"t_back": 0}, {"t_fwd": 0}, {"omega_train": 0.0},
        {"omega_val": -0.1}, {"omega_train": 0.8, "omega_val": 0.2},
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ConfigError):
            _config(**overrides)


class TestTrajectorySample:
    def test_shapes_and_properties(self):
        s = make_sample(k=3, tb=6, tf=4)
        assert s.hist_accel.shape == s.hist_speed.shape == s.hist_position.shape == (3, 6)
        assert s.ego_future_accel.shape == (4,) and s.leader_future_accel.shape == (2, 4)

    # the sample checks run where samples are written and read (ingest)
    def test_validate_rejects_negative_speed(self, tmp_path):
        s = make_sample()
        s.hist_speed[1, 2] = -0.5
        with pytest.raises(DataError, match="^row 1, sample 0: negative speed$"):
            write_samples([s], tmp_path / "s.jsonl", _config())

    def test_validate_rejects_non_positive_gap(self, tmp_path):
        s = make_sample()
        s.hist_position[0] = s.hist_position[1] - 1.0
        with pytest.raises(DataError, match="^row 1, sample 0: non-positive spacing$"):
            write_samples([s], tmp_path / "s.jsonl", _config())

    def test_writer_rejects_ego_speed_off_its_last_hist_speed(self, tmp_path):
        s = make_sample()
        s.ego_speed_at_t0 = s.hist_speed[-1, -1] + 1.0
        with pytest.raises(DataError, match="^row 1, sample 0: ego_speed_at_t0 is not "
                                            "the ego's last hist_speed$"):
            write_samples([s], tmp_path / "new" / "s.jsonl", _config())
        assert list(tmp_path.iterdir()) == []


class TestSampleBatch:
    FIELDS = ("hist_accel", "hist_speed", "hist_position", "ego_future_accel",
              "ego_speed_at_t0", "leader_future_accel")

    def test_round_trips_every_field(self):
        samples = make_samples(5, k=3, tb=6, tf=4)
        batch = SampleBatch.of(samples)
        assert batch.sample_ids.tolist() == [s.sample_id for s in samples]
        assert batch.hist_accel.shape == (5, 3, 6)
        assert batch.leader_future_accel.shape == (5, 2, 4)
        for i, s in enumerate(samples):
            for name in self.FIELDS:
                np.testing.assert_array_equal(getattr(batch, name)[i], getattr(s, name))

    def test_arrays_are_read_only_copies(self):
        samples = make_samples(2)
        batch = SampleBatch.of(samples)
        samples[0].hist_accel[0, 0] += 1.0
        assert batch.hist_accel[0, 0, 0] != samples[0].hist_accel[0, 0]
        with pytest.raises(ValueError):
            batch.hist_speed[0, 0, 0] = 0.0

    def test_spacing_is_position_difference(self):
        samples = make_samples(4, k=3, tb=6)
        spacing = SampleBatch.of(samples).spacing
        assert spacing.shape == (4, 2, 6)
        for i, s in enumerate(samples):
            for k in (1, 2):  # vehicle k's spacing to vehicle k-1
                np.testing.assert_array_equal(
                    spacing[i, k - 1], s.hist_position[k - 1] - s.hist_position[k])
        assert np.all(spacing > 0)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SampleBatch.of([])

    @staticmethod
    def _unordered(n=6):
        """A batch whose ids are not in ascending order."""
        return SampleBatch.of([make_sample(sample_id=sid, seed=sid)
                               for sid in (7, 2, 9, 4, 0, 5)[:n]])

    def _assert_row(self, batch, i, row):
        assert type(row.sample_id) is int and row.sample_id == batch.sample_ids[i]
        assert type(row.ego_speed_at_t0) is float
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(row, name), getattr(batch, name)[i])

    def test_rows_iteration_and_slices_are_views(self):
        batch = self._unordered()
        assert len(batch) == 6 and bool(batch)
        rows = list(batch)
        assert len(rows) == 6
        for i, row in enumerate(rows):
            self._assert_row(batch, i, row)
            self._assert_row(batch, i, batch[i])
        self._assert_row(batch, 5, batch[-1])
        assert np.shares_memory(batch[2].hist_accel, batch.hist_accel)
        with pytest.raises(IndexError):
            batch[6]
        part = batch[1:4]
        assert isinstance(part, SampleBatch) and part.sample_ids.tolist() == [2, 9, 4]
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(part, name), getattr(batch, name)[1:4])
            assert np.shares_memory(getattr(part, name), getattr(batch, name))

    def test_take_copies_rows_in_the_given_order(self):
        batch = self._unordered()
        taken = batch.take(np.array([3, 0, 3]))
        assert taken.sample_ids.tolist() == [4, 7, 4]
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(taken, name),
                                          getattr(batch, name)[[3, 0, 3]])
            assert not np.shares_memory(getattr(taken, name), getattr(batch, name))
        with pytest.raises(ValueError):
            taken.hist_accel[0, 0, 0] = 1.0

    def test_select_keeps_batch_order(self):
        batch = self._unordered()
        assert batch.select(frozenset({0, 9, 7})).sample_ids.tolist() == [7, 9, 0]
        assert batch.select({5, 2}).sample_ids.tolist() == [2, 5]
        assert len(batch.select(set())) == 0

    def test_of_keeps_a_batch_and_stacks_only_the_indexed_items(self):
        samples = make_samples(5)
        batch = SampleBatch.of(samples)
        assert SampleBatch.of(batch) is batch
        assert SampleBatch.of(batch, [4, 1]).sample_ids.tolist() == [4, 1]
        drawn = SampleBatch.of(samples, np.array([4, 1]))
        assert drawn.sample_ids.tolist() == [4, 1]
        np.testing.assert_array_equal(drawn.hist_speed, batch.hist_speed[[4, 1]])

    @pytest.mark.parametrize("bad", [{1: "spacing", 3: "speed"}, {1: "speed", 3: "spacing"}])
    def test_validate_names_the_first_bad_sample(self, tmp_path, bad):
        """The writer names the first bad sample and leaves no file or folder."""
        samples = make_samples(5)
        for i, what in bad.items():
            if what == "speed":
                samples[i].hist_speed[0, 2] = -0.5
            else:
                samples[i].hist_position[1, 3] = samples[i].hist_position[2, 3]
        message = {"speed": "negative speed", "spacing": "non-positive spacing"}[bad[1]]
        path = tmp_path / "new" / "s.jsonl"
        with pytest.raises(DataError, match=f"^row 2, sample 1: {message}$"):
            write_samples(samples, path, _config())
        assert list(tmp_path.iterdir()) == []
        write_samples(samples[4:], path, _config())
        assert read_samples(path)[0].sample_ids.tolist() == [4]


class TestSplitIndex:
    def test_disjointness_enforced(self):
        with pytest.raises(ConfigError):
            SplitIndex(train_ids=frozenset({1, 2}), val_ids=frozenset({2}),
                       test_ids=frozenset())


class TestSplitDataset:
    def test_floor_sizes(self):
        split = split_dataset(range(100), _config())
        assert len(split.train_ids) == 60
        assert len(split.val_ids) == 20
        assert len(split.test_ids) == 20

    def test_deterministic_and_seed_sensitive(self):
        ids = list(range(50))
        a = split_dataset(ids, _config(seed=7))
        b = split_dataset(ids, _config(seed=7))
        c = split_dataset(ids, _config(seed=8))
        assert a == b
        assert a != c

    def test_order_insensitive(self):
        ids = list(range(50))
        shuffled = list(reversed(ids))
        assert split_dataset(ids, _config()) == split_dataset(shuffled, _config())

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(range(4), _config(omega_train=0.9, omega_val=0.05))

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            split_dataset([1, 2], _config())

    @given(n=st.integers(min_value=10, max_value=300),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, seed):
        ids = list(range(n))
        split = split_dataset(ids, _config(seed=seed))
        assert split.train_ids | split.val_ids | split.test_ids == set(ids)
        total = len(split.train_ids) + len(split.val_ids) + len(split.test_ids)
        assert total == n
        assert len(split.train_ids) == int(np.floor(0.6 * n))
        assert len(split.val_ids) == int(np.floor(0.2 * n))


def test_make_samples_have_unique_ids():
    samples = make_samples(10)
    assert len({s.sample_id for s in samples}) == 10
    batch = SampleBatch.of(samples)
    assert (batch.hist_speed >= 0).all() and (batch.spacing > 0).all()
