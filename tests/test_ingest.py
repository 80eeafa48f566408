import copy
import hashlib
import json
import os
import re
from dataclasses import asdict

import numpy as np
import pytest

from conftest import (LINE_CORRUPTIONS, SIDECAR_CORRUPTIONS, corrupt_line, corrupt_sidecar,
                      make_samples)
from phyres import ingest, serialize
from phyres.domain import DatasetConfig, SampleBatch, SplitIndex
from phyres.errors import ConfigError, DataError
from phyres.ingest import (WRITE_CHUNK, extract_samples, parse_trajectory_csv, read_samples,
                           sidecar_path, write_samples)
from phyres.neuralnet import NormStats
from phyres.predictors import compute_norm_stats, sample_features


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

    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_row(self, tmp_path, column, value):
        rows = _linear_platoon()
        cells = rows[4].split(",")
        cells[column] = value
        rows[4] = ",".join(cells)
        path = _write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(DataError, match=":6: non-finite value"):
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
        assert (samples.hist_speed >= 0).all() and (samples.spacing > 0).all()

    def test_sample_contents_constant_speed(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", _linear_platoon(v=4.0, gap=8.0))
        series = parse_trajectory_csv(path, 0.1)
        s = extract_samples(series, self._config())[0]
        assert np.all(s.hist_speed == 4.0)
        assert np.all(s.ego_future_accel == 0.0)
        np.testing.assert_allclose(SampleBatch.of([s]).spacing, 8.0)
        assert s.ego_speed_at_t0 == 4.0

    def test_short_series_yields_nothing(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", _linear_platoon(steps=9))
        series = parse_trajectory_csv(path, 0.1)
        samples = extract_samples(series, self._config())
        assert len(samples) == 0 and samples.sample_ids.shape == (0,)
        assert samples.hist_accel.shape == samples.hist_position.shape == (0, 3, 6)
        assert samples.leader_future_accel.shape == (0, 2, 4)
        assert samples.ego_future_accel.shape == (0, 4)

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
        """Stats of the training batch equal the per-sample pooling of its
        channels; the spacing channel pools the K-1 followers only."""
        train = make_samples(10)[:6]
        stats = compute_norm_stats(SampleBatch.of(train))
        for name, per_sample in (
                ("accel", lambda s: s.hist_accel),
                ("speed", lambda s: s.hist_speed),
                ("spacing", lambda s: s.hist_position[:-1] - s.hist_position[1:])):
            vals = np.concatenate([per_sample(s).ravel() for s in train])
            assert getattr(stats, f"{name}_mean") == float(np.mean(vals))
            assert getattr(stats, f"{name}_std") == float(np.std(vals))

    def test_empty_train_rejected(self):
        samples = make_samples(4)
        split = SplitIndex(frozenset(), frozenset({0, 1}), frozenset({2, 3}))
        train = [s for s in samples if s.sample_id in split.train_ids]
        with pytest.raises(ConfigError, match="empty"):
            compute_norm_stats(SampleBatch.of(train))

    def test_zero_variance_rejected(self):
        samples = make_samples(4)
        for s in samples:
            s.hist_speed[:] = 5.0
        with pytest.raises(DataError, match="zero-variance"):
            compute_norm_stats(SampleBatch.of(samples[:2]))

    def test_round_trip(self):
        stats = NormStats(accel_mean=0.1, accel_std=1.0, speed_mean=5.0,
                          speed_std=2.0, spacing_mean=10.0, spacing_std=3.0)
        assert NormStats.from_dict(asdict(stats)) == stats


class TestSampleFeatures:
    def test_layout_and_normalization(self):
        samples = make_samples(5, k=3, tb=6)
        stats = compute_norm_stats(SampleBatch.of(samples[:3]))
        x = sample_features(SampleBatch.of(samples), stats)
        assert x.shape == (5, 6, 9)
        for i, s in enumerate(samples):
            spacing = s.hist_position[:-1] - s.hist_position[1:]
            for k in range(3):
                np.testing.assert_array_equal(
                    x[i, :, 3 * k], (s.hist_accel[k] - stats.accel_mean) / stats.accel_std)
                np.testing.assert_array_equal(
                    x[i, :, 3 * k + 1], (s.hist_speed[k] - stats.speed_mean) / stats.speed_std)
                if k > 0:
                    np.testing.assert_array_equal(
                        x[i, :, 3 * k + 2],
                        (spacing[k - 1] - stats.spacing_mean) / stats.spacing_std)
        # the lead vehicle has no observed spacing; its slot is constant 0
        assert np.all(x[:, :, 2] == 0.0)
        assert np.all(np.isfinite(x))


def _dumps_writer(samples, path, config):
    """Reference: the per-sample ``serialize.dumps`` writer that the
    template writer replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.dumps({
            "format_version": 1, "delta": config.delta, "k_vehicles": config.k_vehicles,
            "t_back": config.t_back, "t_fwd": config.t_fwd}) + "\n")
        for s in samples:
            fh.write(serialize.dumps({
                "sample_id": s.sample_id,
                "hist_accel": s.hist_accel,
                "hist_speed": s.hist_speed,
                "hist_spacing": s.hist_position[:-1] - s.hist_position[1:],
                "hist_position": s.hist_position,
                "ego_future_accel": s.ego_future_accel,
                "ego_speed_at_t0": s.ego_speed_at_t0,
                "leader_future_accel": s.leader_future_accel,
            }) + "\n")


class TestSampleFilePersistence:
    def test_bytes_match_per_sample_dumps(self, tmp_path, dataset_config):
        samples = make_samples(300)  # more than one chunk, and a partial last one
        edge = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 0.0, 1e-5, 123456789.0]
        for i, s in enumerate(samples[::7]):
            s.hist_accel[i % 3, i % 6] = edge[i % len(edge)]
            s.ego_future_accel[i % 4] = edge[(i + 1) % len(edge)]
            s.leader_future_accel[i % 2, i % 4] = edge[(i + 2) % len(edge)]
            s.hist_speed[0, i % 6] = abs(edge[(i + 3) % len(edge)])  # no speed is negative
            # the ego's last speed is its speed at t0
            s.ego_speed_at_t0 = s.hist_speed[-1, -1] = abs(edge[(i + 4) % len(edge)])
            # nor a spacing non-positive: the lead vehicle stays 1 m or more ahead
            s.hist_position[0] = s.hist_position[1] + 1.0 + abs(edge[(i + 5) % len(edge)])
        samples[3].ego_speed_at_t0 = samples[3].hist_speed[-1, -1] = 8  # an int, as a caller may pass
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        _dumps_writer(samples, want, dataset_config)
        write_samples(samples, got, dataset_config)
        assert got.read_bytes() == want.read_bytes()

    def test_bytes_match_per_sample_dumps_on_real_windows(self, tmp_path, small_idm_corpus):
        samples, dcfg, _ = small_idm_corpus
        assert len(samples) >= 3 * WRITE_CHUNK + 5
        # a partial last chunk; a copy, as the corpus is shared by other tests
        samples = copy.deepcopy(samples[:3 * WRITE_CHUNK + 5])
        # -0.0 and 0.0 in one chunk: equal as floats, "-0" and "0" in the file
        samples[WRITE_CHUNK + 1].hist_accel[0, 0] = -0.0
        samples[WRITE_CHUNK + 2].hist_accel[0, 1] = 0.0
        samples[WRITE_CHUNK + 3].ego_future_accel[2] = -0.0
        # stride-1 windows: a chunk holds each value many times over
        chunk = np.concatenate([s.hist_speed.ravel() for s in samples[:WRITE_CHUNK]])
        assert len(np.unique(chunk)) * 4 < chunk.size
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        _dumps_writer(samples, want, dcfg)
        write_samples(samples, got, dcfg)
        assert got.read_bytes() == want.read_bytes()
        lines = got.read_bytes().splitlines()  # the header, then sample i on line i + 1
        assert b'"hist_accel":[[-0,' in lines[WRITE_CHUNK + 2]
        assert re.search(rb'"hist_accel":\[\[[^,]+,0,', lines[WRITE_CHUNK + 3])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["hist_speed", "hist_position", "ego_future_accel"])
    def test_non_finite_value_rejected(self, tmp_path, dataset_config, field, value):
        samples = make_samples(WRITE_CHUNK + 10)
        getattr(samples[WRITE_CHUNK + 4], field)[-1] = value
        getattr(samples[WRITE_CHUNK + 7], field)[0] = value
        with pytest.raises(DataError, match=f"^row {WRITE_CHUNK + 5}, sample {WRITE_CHUNK + 4}: "
                                            "a number beyond the float range, or NaN$"):
            write_samples(samples, tmp_path / "s.jsonl", dataset_config)

    @pytest.mark.parametrize("ids, message", [
        ([0, 2 ** 53 + 1], "row 2, sample 9007199254740993: bad sample object"),
        ([0, 5, 5], "row 3, sample 5: sample_id 5 repeats row 2"),
    ])
    def test_id_that_reads_back_rejected_is_data_error(self, tmp_path, dataset_config,
                                                        ids, message):
        samples = make_samples(len(ids))
        for s, sid in zip(samples, ids):
            s.sample_id = sid
        with pytest.raises(DataError, match="^" + re.escape(message)):
            write_samples(samples, tmp_path / "s.jsonl", dataset_config)
        assert os.listdir(tmp_path) == []  # neither the file nor a sidecar

    def test_geometry_mismatch_rejected(self, tmp_path, dataset_config):
        with pytest.raises(ConfigError, match="header"):
            write_samples(make_samples(3, tf=5), tmp_path / "s.jsonl", dataset_config)

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
            assert a.ego_speed_at_t0 == b.ego_speed_at_t0
            for name in ("hist_accel", "hist_speed", "hist_position",
                         "ego_future_accel", "leader_future_accel"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_rewrite_is_byte_identical(self, tmp_path, dataset_config):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_samples(make_samples(6), first, dataset_config)
        write_samples(read_samples(first)[0], second, dataset_config)
        assert first.read_bytes() == second.read_bytes()
        # the v1 file still carries the followers' spacing, from positions
        obj = json.loads(first.read_text().splitlines()[1])
        pos = np.array(obj["hist_position"])
        np.testing.assert_array_equal(obj["hist_spacing"], pos[:-1] - pos[1:])

    def test_spacing_position_mismatch_names_line(self, tmp_path, dataset_config):
        path = tmp_path / "samples.jsonl"
        write_samples(make_samples(3), path, dataset_config)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[3])
        obj["hist_spacing"][0][2] += 1e-9  # within the tolerance: accepted
        path.write_text("\n".join(lines[:3] + [json.dumps(obj)]) + "\n")
        read_samples(path)
        obj["hist_spacing"][0][2] += 1e-3
        path.write_text("\n".join(lines[:3] + [json.dumps(obj)]) + "\n")
        with pytest.raises(DataError, match=":4: hist_spacing differs"):
            read_samples(path)

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

    def test_undecodable_line_names_line_number(self, tmp_path, dataset_config):
        path = tmp_path / "samples.jsonl"
        write_samples(make_samples(3), path, dataset_config)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"hist_speed"', b'"hist_\xffspeed"')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match=":3: malformed sample: 'utf-8' codec"):
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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_names_line(self, tmp_path, dataset_config, token):
        path = tmp_path / "samples.jsonl"
        write_samples(make_samples(3), path, dataset_config)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["ego_future_accel"][1] = float(token.replace("Infinity", "inf"))
        lines[2] = json.dumps(obj)  # writes the bare token
        assert token in lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f":3: malformed sample: {token} is not a finite"):
            read_samples(path)

    @pytest.mark.parametrize("field", ["hist_accel", "ego_speed_at_t0", "hist_position"])
    def test_overflowing_literal_names_line(self, tmp_path, dataset_config, field):
        path = tmp_path / "samples.jsonl"
        write_samples(make_samples(3), path, dataset_config)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[3])
        if field == "ego_speed_at_t0":
            obj[field] = "OVERFLOW"
        else:
            obj[field][0][0] = "OVERFLOW"
        lines[3] = json.dumps(obj).replace('"OVERFLOW"', "1e999")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f":4: {field} holds inf, not a finite JSON number"):
            read_samples(path)

    @pytest.mark.parametrize("delta, t_back", [("Infinity", "6"), ("1e999", "6"),
                                                ("0.1", "1e999")])
    def test_non_finite_header_rejected(self, tmp_path, delta, t_back):
        path = tmp_path / "samples.jsonl"
        path.write_text('{"format_version": 1, "delta": %s, "k_vehicles": 3, '
                        '"t_back": %s, "t_fwd": 4}\n' % (delta, t_back))
        with pytest.raises(DataError, match=":1:"):
            read_samples(path)

    def test_infinite_sample_id_rejected(self, tmp_path, dataset_config):
        path = tmp_path / "samples.jsonl"
        write_samples(make_samples(2), path, dataset_config)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"sample_id":1', '"sample_id":1e999')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":3: bad sample object"):
            read_samples(path)

    @pytest.mark.parametrize("case", list(LINE_CORRUPTIONS))
    def test_corrupt_line_is_data_error(self, tmp_path, dataset_config, case):
        path = tmp_path / "samples.jsonl"
        write_samples(make_samples(3), path, dataset_config)
        corrupt_line(path, case, 3)  # sample 1, so an id read as 1 repeats no other
        with pytest.raises(DataError, match="^" + re.escape(f"{path}:3: ")):
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
        '{"format_version": 1, "delta": "0.1", "k_vehicles": 3, "t_back": 6, "t_fwd": 4}',
        '{"format_version": 1, "delta": 0.1, "k_vehicles": 3, "t_back": 6, "t_fwd": "4"}',
        '{"format_version": 1, "delta": 0.1, "k_vehicles": 3, "t_back": true, "t_fwd": 4}',
        '{"format_version": 1, "delta": 0.1, "k_vehicles": 3.0, "t_back": 6, "t_fwd": 4}',
        '{"format_version": 1, "delta": true, "k_vehicles": 3, "t_back": 6, "t_fwd": 4}',
        '{"format_version": 1, "delta": 0.1, "k_vehicles": %d, "t_back": 6, "t_fwd": 4}' % 10**30,
    ], ids=["no-k", "bad-t-fwd", "zero-delta", "not-object", "string-delta",
            "string-t-fwd", "bool-t-back", "float-k", "bool-delta", "huge-k"])
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


SAMPLE_FIELDS = ("hist_accel", "hist_speed", "hist_position", "ego_future_accel",
                 "ego_speed_at_t0", "leader_future_accel")


def _assert_bit_equal(a, b):
    """Equal ids of type int and bit-equal fields (so -0.0 differs from 0.0)."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(y.sample_id) is int and x.sample_id == y.sample_id
        assert type(y.ego_speed_at_t0) is float
        for name in SAMPLE_FIELDS:
            u, v = np.asarray(getattr(x, name), dtype=float), np.asarray(getattr(y, name))
            assert u.shape == v.shape and u.tobytes() == v.tobytes(), name


class TestSampleChecks:
    """A negative speed or a non-positive spacing read back is a DataError
    naming the line or the row (the writer's check is in test_domain)."""

    @pytest.mark.parametrize("case, message", [("negative-speed", "negative speed"),
                                               ("zero-spacing", "non-positive spacing")])
    @pytest.mark.parametrize("route", ["lines", "sidecar"])
    def test_reader_names_the_line_or_the_row(self, tmp_path, dataset_config, case, message,
                                              route):
        path = tmp_path / "s.jsonl"
        sidecar = write_samples(make_samples(3), path, dataset_config)
        if route == "lines":
            corrupt_line(path, case, 3)  # sample 1
            where = f"{path}:3"
        else:
            corrupt_sidecar(sidecar, case, k=3, tb=6)
            where = f"{sidecar}: row 2"
        with pytest.raises(DataError, match="^" + re.escape(f"{where}: {message}") + "$"):
            read_samples(path)


class TestSidecar:
    @pytest.fixture(params=[(3, 6, 4), (4, 20, 5)], ids=["k3-tb6-tf4", "default"])
    def written(self, request, tmp_path):
        """Samples with edge-case floats, written at one geometry."""
        k, tb, tf = request.param
        config = DatasetConfig(delta=0.1, k_vehicles=k, t_back=tb, t_fwd=tf,
                               omega_train=0.6, omega_val=0.2, seed=0)
        samples = make_samples(WRITE_CHUNK + 5, k=k, tb=tb, tf=tf)
        edge = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0]
        for i, s in enumerate(samples[:len(edge)]):
            s.hist_accel[0, 0] = edge[i]
            s.ego_future_accel[-1] = edge[i]
            s.leader_future_accel[0, 0] = edge[-1 - i]
        path = tmp_path / "samples.jsonl"
        sidecar = write_samples(samples, path, config)
        return samples, path, sidecar, (k, tb)

    def test_sidecar_named_by_the_file_digest(self, written):
        _, path, sidecar, _ = written
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert sidecar == sidecar_path(path, digest) == f"{path}.{digest}.npy"
        assert read_samples(path)[1]["sha256"] == digest

    def test_sidecar_and_parse_give_equal_samples(self, written, monkeypatch):
        samples, path, sidecar, _ = written
        with monkeypatch.context() as m:  # the sidecar is read, no line decoded
            m.setattr(ingest, "_parse_lines", None)
            from_sidecar, header_sidecar = read_samples(path)
        _assert_bit_equal(samples, from_sidecar)
        # a deleted sidecar falls back to parsing the lines
        os.remove(sidecar)
        parsed, header_parsed = read_samples(path)
        _assert_bit_equal(samples, parsed)
        assert header_parsed == header_sidecar

    def test_read_samples_are_views_of_one_matrix(self, written):
        _, path, sidecar, _ = written

        def root(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        def check(batch):  # every field, and a row's, is a view of one array
            matrix = root(batch.hist_accel)
            for name in SAMPLE_FIELDS[1:]:
                assert root(getattr(batch, name)) is matrix, name
            assert root(batch[3].hist_speed) is matrix

        check(read_samples(path)[0])  # from the sidecar
        os.remove(sidecar)
        check(read_samples(path)[0])  # parsed from the lines

    def test_edited_file_falls_back_to_parsing(self, written):
        _, path, sidecar, _ = written
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["ego_future_accel"][0] = 12.25
        lines[2] = serialize.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        restored, header = read_samples(path)
        assert restored[1].ego_future_accel[0] == 12.25
        assert header["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert sidecar_path(path, header["sha256"]) != sidecar

    @pytest.mark.parametrize("case", list(SIDECAR_CORRUPTIONS))
    def test_corrupt_sidecar_is_data_error(self, written, case):
        _, path, sidecar, (k, tb) = written
        corrupt_sidecar(sidecar, case, k, tb)
        with pytest.raises(DataError, match="^" + re.escape(sidecar) + ": "):
            read_samples(path)

    def test_rewrite_leaves_one_sidecar(self, tmp_path, dataset_config):
        path = tmp_path / "samples.jsonl"
        # neighbours that are not this file's sidecars stay
        others = [tmp_path / ("other.jsonl." + "0" * 64 + ".npy"),
                  tmp_path / "samples.jsonl.npy", tmp_path / ("samples.jsonl." + "A" * 64 + ".npy")]
        for p in others:
            p.write_bytes(b"")
        first = write_samples(make_samples(5), path, dataset_config)
        second = write_samples(make_samples(7)[2:], path, dataset_config)
        assert first != second
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        sidecars = sorted(p.name for p in tmp_path.glob("samples.jsonl.*.npy")
                          if re.fullmatch(r"samples\.jsonl\.[0-9a-f]{64}\.npy", p.name))
        assert sidecars == [f"samples.jsonl.{digest}.npy"]
        assert all(p.exists() for p in others)
        assert [s.sample_id for s in read_samples(path)[0]] == [2, 3, 4, 5, 6]

    def test_empty_sample_list(self, tmp_path, dataset_config):
        path = tmp_path / "samples.jsonl"
        write_samples([], path, dataset_config)
        samples, header = read_samples(path)
        assert len(samples) == 0 and header["k_vehicles"] == 3
        assert samples.hist_speed.shape == (0, 3, 6) and samples.ego_speed_at_t0.shape == (0,)
        assert samples.leader_future_accel.shape == (0, 2, 4)
