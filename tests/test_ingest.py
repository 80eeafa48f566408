import json

import numpy as np
import pytest

from conftest import make_samples
from phyres.domain import DatasetConfig, SplitIndex
from phyres.errors import DataError
from phyres.ingest import (compute_norm_stats, extract_samples, NormStats,
                           parse_trajectory_csv, read_samples, sample_features,
                           write_samples)


def _write_csv(path, rows, header="vehicle_id,time,position,speed,accel,leader_id"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def _linear_platoon(n_veh=3, steps=30, delta=0.1, v=5.0, gap=10.0):
    """Constant-speed platoon rows; vehicle i leads vehicle i+1."""
    rows = []
    for k in range(n_veh):
        lid = "" if k == 0 else str(k)
        x0 = (n_veh - 1 - k) * gap
        for t in range(steps):
            rows.append(f"{k + 1},{t * delta:.6f},{x0 + v * t * delta:.6f},{v},0.0,{lid}")
    return rows


class TestParseCsv:
    def test_parses_platoon(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", _linear_platoon())
        series = parse_trajectory_csv(path, 0.1)
        assert [s.vehicle_id for s in series] == [1, 2, 3]
        assert series[0].leader_id is None
        assert series[1].leader_id == 1
        assert len(series[0]) == 30

    def test_bad_header(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", [], header="a,b,c")
        with pytest.raises(DataError, match="bad header"):
            parse_trajectory_csv(path, 0.1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no rows"):
            parse_trajectory_csv(path, 0.1)

    def test_header_only(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", [])
        with pytest.raises(DataError, match="no rows"):
            parse_trajectory_csv(path, 0.1)

    def test_bad_column_count_names_row(self, tmp_path):
        rows = _linear_platoon()
        rows[4] = "1,2,3"
        path = _write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(DataError, match=":6:"):
            parse_trajectory_csv(path, 0.1)

    def test_non_numeric_value_names_row(self, tmp_path):
        rows = _linear_platoon()
        rows[0] = "1,0.0,zero,5.0,0.0,"
        path = _write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(DataError, match=":2:"):
            parse_trajectory_csv(path, 0.1)

    def test_duplicate_time_rejected(self, tmp_path):
        rows = _linear_platoon(n_veh=1)
        rows.append(rows[3])
        path = _write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(DataError, match="duplicate time"):
            parse_trajectory_csv(path, 0.1)

    def test_non_uniform_grid_rejected(self, tmp_path):
        rows = ["1,0.0,0.0,5.0,0.0,", "1,0.1,0.5,5.0,0.0,", "1,0.35,1.0,5.0,0.0,"]
        path = _write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(DataError, match="non-uniform timestep"):
            parse_trajectory_csv(path, 0.1)

    def test_inconsistent_leader_rejected(self, tmp_path):
        rows = ["2,0.0,0.0,5.0,0.0,1", "2,0.1,0.5,5.0,0.0,3"]
        path = _write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(DataError, match="inconsistent leader_id"):
            parse_trajectory_csv(path, 0.1)


class TestExtractSamples:
    def _config(self, **kw):
        base = dict(delta=0.1, k_vehicles=3, t_back=6, t_fwd=4,
                    omega_train=0.6, omega_val=0.2, seed=0)
        base.update(kw)
        return DatasetConfig(**base)

    def test_window_count_and_ids(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", _linear_platoon(n_veh=3, steps=30))
        series = parse_trajectory_csv(path, 0.1)
        samples = extract_samples(series, self._config())
        # only vehicle 3 has a 3-deep chain: 30 - (6+4) + 1 windows
        assert len(samples) == 21
        assert [s.sample_id for s in samples] == list(range(21))
        for s in samples:
            s.validate()

    def test_sample_contents_constant_speed(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", _linear_platoon(v=4.0, gap=8.0))
        series = parse_trajectory_csv(path, 0.1)
        s = extract_samples(series, self._config())[0]
        assert np.all(s.hist_speed == 4.0)
        assert np.all(s.ego_future_accel == 0.0)
        np.testing.assert_allclose(s.hist_spacing[1:], 8.0)
        assert s.ego_speed_at_t0 == 4.0

    def test_short_series_yields_nothing(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", _linear_platoon(steps=9))
        series = parse_trajectory_csv(path, 0.1)
        assert extract_samples(series, self._config()) == []

    def test_partial_overlap_uses_common_interval(self, tmp_path):
        rows = _linear_platoon(n_veh=2, steps=30)
        # follower 3 appears 5 steps late
        for t in range(5, 30):
            rows.append(f"3,{t * 0.1:.6f},{-20 + 5 * t * 0.1:.6f},5.0,0.0,2")
        path = _write_csv(tmp_path / "c.csv", rows)
        series = parse_trajectory_csv(path, 0.1)
        samples = extract_samples(series, self._config())
        assert len(samples) == 25 - 10 + 1


class TestNormStats:
    def test_train_only_and_sentinel_excluded(self):
        samples = make_samples(10)
        split = SplitIndex(train_ids=frozenset(range(6)),
                           val_ids=frozenset({6, 7}), test_ids=frozenset({8, 9}))
        stats = compute_norm_stats(samples, split)
        train = samples[:6]
        acc = np.concatenate([s.hist_accel.ravel() for s in train])
        assert stats.accel_mean == pytest.approx(float(np.mean(acc)))
        assert np.isfinite(stats.spacing_mean)

    def test_empty_train_rejected(self):
        samples = make_samples(4)
        split = SplitIndex(frozenset(), frozenset({0, 1}), frozenset({2, 3}))
        with pytest.raises(DataError, match="empty"):
            compute_norm_stats(samples, split)

    def test_zero_variance_rejected(self):
        samples = make_samples(4)
        for s in samples:
            s.hist_speed[:] = 5.0
        split = SplitIndex(frozenset({0, 1}), frozenset({2}), frozenset({3}))
        with pytest.raises(DataError, match="zero-variance"):
            compute_norm_stats(samples, split)

    def test_round_trip(self):
        stats = NormStats(accel_mean=0.1, accel_std=1.0, speed_mean=5.0,
                          speed_std=2.0, spacing_mean=10.0, spacing_std=3.0)
        assert NormStats.from_dict(stats.to_dict()) == stats


class TestSampleFeatures:
    def test_layout_and_normalization(self):
        samples = make_samples(5, k=3, tb=6)
        split = SplitIndex(frozenset({0, 1, 2}), frozenset({3}), frozenset({4}))
        stats = compute_norm_stats(samples, split)
        s = samples[0]
        x = sample_features(s, stats)
        assert x.shape == (6, 9)
        np.testing.assert_allclose(
            x[:, 0], (s.hist_accel[0] - stats.accel_mean) / stats.accel_std)
        np.testing.assert_allclose(
            x[:, 4], (s.hist_speed[1] - stats.speed_mean) / stats.speed_std)
        np.testing.assert_allclose(
            x[:, 5], (s.hist_spacing[1] - stats.spacing_mean) / stats.spacing_std)
        # the lead vehicle has no observed spacing; its slot is constant 0
        assert np.all(x[:, 2] == 0.0)
        assert np.all(np.isfinite(x))


class TestSampleFilePersistence:
    def test_round_trip_bit_exact(self, tmp_path, dataset_config):
        samples = make_samples(6)
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path, dataset_config)
        restored, header = read_samples(path)
        assert header["format_version"] == 1
        assert header["delta"] == dataset_config.delta
        assert len(restored) == 6
        for a, b in zip(samples, restored):
            assert a.sample_id == b.sample_id
            np.testing.assert_array_equal(a.hist_accel, b.hist_accel)
            np.testing.assert_array_equal(a.hist_position, b.hist_position)
            np.testing.assert_array_equal(a.hist_spacing[1:], b.hist_spacing[1:])
            assert np.all(np.isnan(b.hist_spacing[0]))
            np.testing.assert_array_equal(a.ego_future_accel, b.ego_future_accel)
            assert a.ego_speed_at_t0 == b.ego_speed_at_t0

    def test_format_version_mismatch(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text('{"format_version": 99, "k_vehicles": 3}\n')
        with pytest.raises(DataError, match="format_version"):
            read_samples(path)

    def test_malformed_line_names_line_number(self, tmp_path, dataset_config):
        samples = make_samples(3)
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path, dataset_config)
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":3:"):
            read_samples(path)

    def test_missing_field_rejected(self, tmp_path, dataset_config):
        samples = make_samples(1)
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path, dataset_config)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("ego_speed_at_t0", "nope")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="bad sample object"):
            read_samples(path)

    @pytest.mark.parametrize("name, edit", [
        ("hist_accel", lambda a: a[:-1]),                  # one vehicle short
        ("hist_position", lambda a: [r[:-1] for r in a]),  # one step short
        ("hist_spacing", lambda a: a + a[:1]),             # a row too many
        ("ego_future_accel", lambda a: a[:-1]),
        ("leader_future_accel", lambda a: [a[0]]),
    ])
    def test_shape_mismatch_names_line(self, tmp_path, dataset_config, name, edit):
        path = tmp_path / "samples.jsonl"
        write_samples(make_samples(3), path, dataset_config)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[3])
        obj[name] = edit(obj[name])
        lines[3] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f":4: {name} has shape"):
            read_samples(path)

    @pytest.mark.parametrize("header", [
        '{"format_version": 1, "delta": 0.1, "t_back": 6, "t_fwd": 4}',
        '{"format_version": 1, "delta": 0.1, "k_vehicles": 3, "t_back": 6, "t_fwd": "x"}',
        '{"format_version": 1, "delta": 0.0, "k_vehicles": 3, "t_back": 6, "t_fwd": 4}',
        '[1]',
    ], ids=["no-k", "bad-t-fwd", "zero-delta", "not-object"])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "samples.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(DataError, match=":1:"):
            read_samples(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_samples(path)
