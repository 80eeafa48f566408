"""Raw trajectory CSV parsing, sample extraction, normalization, persistence.

Raw CSV schema: header ``vehicle_id,time,position,speed,accel,leader_id``,
UTF-8, ``leader_id`` empty for no leader.  Chains are built from the
leader_id pointers only; turning noisy source data (e.g. NGSIM) into this
schema is the caller's responsibility.

Sample file: JSON lines.  Line 1 is a header object
``{"format_version": 1, "delta": ..., "k_vehicles": ..., "t_back": ...,
"t_fwd": ...}``; every following line is one sample object.  Floats carry
17 significant digits so the round trip is bit-exact.  A sample object's
``hist_spacing`` ((K-1, t_back), the followers' spacings) is redundant with
its ``hist_position``: it is written for the v1 format, checked against the
positions on read and not kept.

Sidecar: ``write_samples`` also writes ``<file>.<sha256 of its bytes>.npy``,
one float64 matrix with a row per sample: ``sample_id``, then the v1 fields
above in file order, flattened.  ``read_samples`` hashes the file and loads
the sidecar that digest names instead of decoding every line, so an edited
file, or one whose sidecar was deleted, is parsed as JSON lines; both ways
give bit-equal samples.  The sidecar is a cache, safe to delete; the v1 JSON
lines stay the format of record.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import serialize
from .domain import DatasetConfig, SampleBatch
from .errors import ConfigError, DataError

SAMPLE_FORMAT_VERSION = 1
CSV_HEADER = ["vehicle_id", "time", "position", "speed", "accel", "leader_id"]
# samples stacked and formatted at a time: larger chunks share more repeated
# values but raise the peak memory (a pipeline pass peaked about 0.5 MB higher
# at 32 than at 16, and 1.1 MB higher at 64, for a writer under 1% faster)
WRITE_CHUNK = 32
GRID_ATOL = 1e-6  # seconds a CSV timestep may stray from delta


@dataclass
class VehicleSeries:
    """Uniform-grid time series of one vehicle."""

    vehicle_id: int
    leader_id: int | None
    t_start: float
    delta: float
    position: np.ndarray
    speed: np.ndarray
    accel: np.ndarray

    def __len__(self) -> int:
        return len(self.position)

    @property
    def t_end(self) -> float:
        return self.t_start + (len(self) - 1) * self.delta


def parse_trajectory_csv(path, delta: float) -> list[VehicleSeries]:
    """Parse a raw trajectory CSV into per-vehicle series.

    Validates the header, finite numbers, timestep uniformity against
    ``delta`` and duplicate (vehicle, time) pairs; errors name the offending
    row number (1-based, header = row 1).
    """
    rows_by_vehicle: dict[int, list[tuple[int, float, float, float, float, int | None]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: no rows")
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataError(f"{path}: bad header {header!r}, expected {CSV_HEADER}")
        n_rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(CSV_HEADER)} columns, got {len(row)}")
            try:
                vid = int(row[0])
                t = float(row[1])
                pos, spd, acc = float(row[2]), float(row[3]), float(row[4])
                lid = int(row[5]) if row[5].strip() != "" else None
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if not all(map(math.isfinite, (t, pos, spd, acc))):
                raise DataError(f"{path}:{lineno}: non-finite value in {row[1:5]}")
            rows_by_vehicle.setdefault(vid, []).append((lineno, t, pos, spd, acc, lid))
            n_rows += 1
    if n_rows == 0:
        raise DataError(f"{path}: no rows")

    series = []
    for vid, rows in rows_by_vehicle.items():
        rows.sort(key=lambda r: r[1])
        for (ln_a, t_a, *_), (ln_b, t_b, *_) in zip(rows, rows[1:]):
            dt = t_b - t_a
            if abs(dt) <= GRID_ATOL:
                raise DataError(f"{path}:{ln_b}: duplicate time {t_b} for vehicle {vid}")
            if abs(dt - delta) > GRID_ATOL:
                raise DataError(
                    f"{path}:{ln_b}: non-uniform timestep {dt!r} for vehicle {vid} (expected {delta})"
                )
        lids = {r[5] for r in rows}
        if len(lids) != 1:
            raise DataError(f"{path}: vehicle {vid} has inconsistent leader_id values {lids}")
        series.append(VehicleSeries(
            vehicle_id=vid,
            leader_id=rows[0][5],
            t_start=rows[0][1],
            delta=delta,
            position=np.array([r[2] for r in rows]),
            speed=np.array([r[3] for r in rows]),
            accel=np.array([r[4] for r in rows]),
        ))
    series.sort(key=lambda s: s.vehicle_id)
    return series


def _chain_for_ego(ego: VehicleSeries, by_id: dict[int, VehicleSeries], k: int):
    """Walk leader pointers from the ego; returns [lead,...,ego] or None."""
    chain = [ego]
    cur = ego
    for _ in range(k - 1):
        if cur.leader_id is None or cur.leader_id not in by_id:
            return None
        cur = by_id[cur.leader_id]
        chain.append(cur)
    return chain[::-1]


def extract_samples(series: list[VehicleSeries], config: DatasetConfig) -> SampleBatch:
    """Extract K-vehicle sliding-window samples (stride 1 step).

    One chain per ego vehicle that has K-1 chained leaders; one sample per
    window start over the chain's co-presence interval.  Sample ids are
    assigned in (series order, window start) order and are stable.  With no
    window the batch has zero rows and the config's geometry.
    """
    k = config.k_vehicles
    tb, tf = config.t_back, config.t_fwd
    window = tb + tf
    by_id = {s.vehicle_id: s for s in series}
    # a zero-row first part gives each field its shape when no chain has a window
    parts = {name: [np.empty((0, *shape))] for name, shape in
             _sample_shapes(k, tb, tf).items() if name != "hist_spacing"}
    for ego in series:
        chain = _chain_for_ego(ego, by_id, k)
        if chain is None:
            continue
        t_start = max(s.t_start for s in chain)
        t_end = min(s.t_end for s in chain)
        n_common = int(round((t_end - t_start) / config.delta)) + 1
        if n_common < window:
            continue
        # per-vehicle offset of the common interval into its own series
        offsets = [int(round((t_start - s.t_start) / config.delta)) for s in chain]
        # (n_windows, K, window) views, one per channel
        acc, spd, pos = (sliding_window_view(
            np.stack([getattr(s, name)[o:o + n_common] for s, o in zip(chain, offsets)]),
            window, axis=1).transpose(1, 0, 2) for name in ("accel", "speed", "position"))
        parts["hist_accel"].append(acc[:, :, :tb])
        parts["hist_speed"].append(spd[:, :, :tb])
        parts["hist_position"].append(pos[:, :, :tb])
        parts["ego_future_accel"].append(acc[:, -1, tb:])
        parts["ego_speed_at_t0"].append(spd[:, -1, tb - 1])
        parts["leader_future_accel"].append(acc[:, :-1, tb:])
    fields = {name: np.concatenate(views) for name, views in parts.items()}
    return SampleBatch(sample_ids=np.arange(len(fields["ego_speed_at_t0"])), **fields)


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics, pooled over vehicle slots.

    Computed on training-set inputs only; the lead vehicle has no spacing
    and adds nothing to the spacing channel.
    """

    accel_mean: float
    accel_std: float
    speed_mean: float
    speed_std: float
    spacing_mean: float
    spacing_std: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(**{f.name: float(d[f.name]) for f in fields(cls)})


def compute_norm_stats(batch: SampleBatch) -> NormStats:
    """Channel statistics over a batch's history inputs (the training split)."""
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

    Columns are per-vehicle blocks [accel, speed, spacing].  The lead
    vehicle has no observed leader, so its spacing slot is a constant 0.
    """
    n, k, tb = batch.hist_accel.shape
    out = np.zeros((n, tb, 3 * k))
    out[:, :, 0::3] = ((batch.hist_accel - stats.accel_mean) / stats.accel_std).transpose(0, 2, 1)
    out[:, :, 1::3] = ((batch.hist_speed - stats.speed_mean) / stats.speed_std).transpose(0, 2, 1)
    out[:, :, 5::3] = ((batch.spacing - stats.spacing_mean) / stats.spacing_std).transpose(0, 2, 1)
    return out


def _sample_shapes(k: int, tb: int, tf: int) -> dict[str, tuple]:
    """A v1 sample object's float fields, in file order, with their shapes."""
    return {"hist_accel": (k, tb), "hist_speed": (k, tb), "hist_spacing": (k - 1, tb),
            "hist_position": (k, tb), "ego_future_accel": (tf,),
            "ego_speed_at_t0": (), "leader_future_accel": (k - 1, tf)}


def sidecar_path(path, digest: str) -> str:
    """The sidecar of the sample file ``path`` whose bytes hash to ``digest``."""
    return f"{os.fspath(path)}.{digest}.npy"


def write_samples(samples, path, config: DatasetConfig) -> str:
    """Persist a batch (or a list) of samples as JSON lines (see module
    docstring for the schema): the bytes of ``serialize.dumps``, from one
    '%'-format line template.

    The samples go into one matrix in the sidecar's layout, which is
    formatted in row slices of ``WRITE_CHUNK``.  Stride-1 windows repeat
    each trajectory value in many samples, so a slice's distinct doubles,
    told apart by their bits (-0.0 is "-0", 0.0 is "0"), are formatted
    once into a table of strings that fills the template's "%s" float
    slots.  A non-finite value is a DataError naming the first bad sample,
    raised before the file is opened.

    Also writes the file's sidecar and removes its older ones; returns the
    sidecar's path."""
    # an empty list carries no geometry: write the config's
    batch = SampleBatch.of(samples) if len(samples) else extract_samples([], config)
    shapes = _sample_shapes(config.k_vehicles, config.t_back, config.t_fwd)
    fields = dict(vars(batch), hist_spacing=batch.spacing)
    got = {name: fields[name].shape[1:] for name in shapes}
    if got != shapes:
        raise ConfigError(f"sample shapes {got} differ from the header's {shapes}")
    matrix = np.hstack([batch.sample_ids[:, None]] + [
        fields[name].reshape(len(batch), math.prod(shape)) for name, shape in shapes.items()],
        dtype=float)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite value in sample {batch.sample_ids[finite.argmin()]}")
    template = '{"sample_id":%d,' + ",".join(
        f'"{name}":{serialize.json_slots(shape, "%s")}' for name, shape in shapes.items()) + "}\n"
    header = {"format_version": SAMPLE_FORMAT_VERSION, "delta": config.delta,
              "k_vehicles": config.k_vehicles, "t_back": config.t_back, "t_fwd": config.t_fwd}
    ids = batch.sample_ids.tolist()
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text: str) -> None:
            data = text.encode()
            digest.update(data)
            fh.write(data)

        put(serialize.dumps(header) + "\n")
        for start in range(0, len(matrix), WRITE_CHUNK):
            rows = matrix[start:start + WRITE_CHUNK, 1:]
            # format each distinct double, told apart by its bits, once
            bits, slots = np.unique(rows.view(np.int64), return_inverse=True)
            texts = np.array([format(x, ".17g") for x in bits.view(np.float64).tolist()],
                             dtype=object)
            lines = texts[slots.reshape(rows.shape)].tolist()
            put("".join(template % (sid, *line)
                        for sid, line in zip(ids[start:start + WRITE_CHUNK], lines)))
    return _replace_sidecar(path, digest.hexdigest(), matrix)


def _replace_sidecar(path, digest: str, matrix: np.ndarray) -> str:
    """Write the sidecar for ``digest`` and remove the file's other sidecars."""
    folder, name = os.path.split(os.path.abspath(path))
    sidecar_name = re.compile(re.escape(name) + r"\.[0-9a-f]{64}\.npy")
    for entry in os.listdir(folder):
        if sidecar_name.fullmatch(entry):
            os.remove(os.path.join(folder, entry))
    sidecar = sidecar_path(path, digest)
    with open(sidecar + ".tmp", "wb") as fh:  # no reader sees a partial sidecar
        np.save(fh, matrix, allow_pickle=False)
    os.replace(sidecar + ".tmp", sidecar)
    return sidecar


def _scan(path) -> tuple[str, bytes | None, int]:
    """One streaming pass over a sample file: the sha256 of its bytes, its
    first line and the number of non-blank lines after it."""
    digest = hashlib.sha256()
    first, n_lines = None, 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            if first is None:
                first = line
            elif line.strip():
                n_lines += 1
    return digest.hexdigest(), first, n_lines


def _parse_header(path, line: bytes) -> dict:
    """The header object, with its geometry parsed as numbers."""
    try:
        header = serialize.DECODER.decode(line.decode("utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}:1: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}:1: the header is not a JSON object")
    if header.get("format_version") != SAMPLE_FORMAT_VERSION:
        raise DataError(
            f"{path}: format_version {header.get('format_version')!r}, "
            f"expected {SAMPLE_FORMAT_VERSION}"
        )
    try:
        k, tb, tf = (int(header[key]) for key in ("k_vehicles", "t_back", "t_fwd"))
        delta = float(header["delta"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path}:1: bad header: {exc!r}") from exc
    if k < 2 or tb < 1 or tf < 1 or not 0 < delta < math.inf:
        raise DataError(f"{path}:1: bad header geometry {header}")
    return dict(header, delta=delta, k_vehicles=k, t_back=tb, t_fwd=tf)


def _parse_lines(path, shapes: dict, n_lines: int) -> tuple[np.ndarray, list[int]]:
    """Decode the ``n_lines`` sample lines after the header into the
    sidecar's matrix layout; a DataError names the line.  Also returns each
    row's line number."""
    matrix = np.empty((n_lines, 1 + sum(math.prod(shape) for shape in shapes.values())))
    rows, linenos = iter(matrix), []
    with open(path, "rb") as fh:
        next(fh)  # the header
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():  # blank as _scan counts it
                continue
            try:
                obj = serialize.DECODER.decode(line.decode("utf-8"))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed sample: {exc}") from exc
            try:
                arrays = {name: np.array(obj[name], dtype=float) for name in shapes}
                sample_id = int(obj["sample_id"])
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad sample object: {exc!r}") from exc
            for name, shape in shapes.items():
                if arrays[name].shape != shape:
                    raise DataError(f"{path}:{lineno}: {name} has shape "
                                    f"{arrays[name].shape}, the header implies {shape}")
            values = np.concatenate([a.ravel() for a in arrays.values()])
            # json reads an overflowing literal such as 1e999 as infinity
            if not np.isfinite(values).all():
                raise DataError(f"{path}:{lineno}: a number beyond the float range")
            pos = arrays["hist_position"]
            mismatch = abs(arrays["hist_spacing"] - (pos[:-1] - pos[1:])).max()
            if mismatch > 1e-6:  # metres
                raise DataError(f"{path}:{lineno}: hist_spacing differs from the "
                                f"position differences by {mismatch:.3g} m")
            row = next(rows)
            row[0], row[1:] = sample_id, values
            linenos.append(lineno)
    return matrix, linenos


def _load_sidecar(sidecar: str, shapes: dict, n_lines: int) -> np.ndarray:
    """The matrix of a sidecar, checked as the lines would be and against
    the file's number of sample lines; a DataError names the sidecar."""
    try:
        matrix = np.load(sidecar, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"{sidecar}: unreadable sidecar: {exc}") from exc
    width = 1 + sum(math.prod(shape) for shape in shapes.values())
    if matrix.ndim != 2 or matrix.dtype != np.float64:
        raise DataError(f"{sidecar}: a {matrix.ndim}-D {matrix.dtype} array, "
                        f"not a 2-D float64 matrix")
    if matrix.shape[1] != width:
        raise DataError(f"{sidecar}: {matrix.shape[1]} columns, the header implies {width}")
    if len(matrix) != n_lines:
        raise DataError(f"{sidecar}: {len(matrix)} rows for {n_lines} sample lines")
    ids = matrix[:, 0]
    if not (np.isfinite(ids) & (ids == np.floor(ids))).all():
        raise DataError(f"{sidecar}: a sample id that is not a finite integer")
    if not np.isfinite(matrix).all():
        raise DataError(f"{sidecar}: a non-finite value")
    fields = _matrix_fields(matrix, shapes)
    pos = fields["hist_position"]
    mismatch = abs(fields["hist_spacing"] - (pos[:, :-1] - pos[:, 1:])).max(axis=(1, 2))
    bad = np.flatnonzero(mismatch > 1e-6)  # metres
    if bad.size:
        raise DataError(f"{sidecar}: hist_spacing of sample {int(ids[bad[0]])} differs "
                        f"from the position differences by {mismatch[bad[0]]:.3g} m")
    return matrix


def _matrix_fields(matrix: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Each v1 field of a sidecar-layout matrix, as a view shaped (n, *shape)."""
    bounds = np.cumsum([1] + [math.prod(shape) for shape in shapes.values()]).tolist()
    return {name: matrix[:, a:b].reshape((len(matrix), *shape))
            for (name, shape), a, b in zip(shapes.items(), bounds, bounds[1:])}


def read_samples(path) -> tuple[SampleBatch, dict]:
    """Load a sample file; returns (samples, header dict).

    The header's geometry is parsed and returned as numbers, together with
    the sha256 of the file's bytes under ``"sha256"``.  The samples come
    from the sidecar that digest names when it exists, else from the JSON
    lines, parsed into the sidecar's layout; either way the batch's arrays
    are views of that one matrix.  Every sample's array shapes must match
    the header, its stored spacing its positions, and its id no earlier
    sample's, or a DataError names the line or the sidecar.
    """
    digest, first, n_lines = _scan(path)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = _parse_header(path, first)
    shapes = _sample_shapes(header["k_vehicles"], header["t_back"], header["t_fwd"])
    sidecar = sidecar_path(path, digest)
    if os.path.isfile(sidecar):
        matrix, linenos = _load_sidecar(sidecar, shapes, n_lines), None
    else:
        matrix, linenos = _parse_lines(path, shapes, n_lines)
    ids = matrix[:, 0]
    _, first_row, inverse = np.unique(ids, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first_row[inverse] != np.arange(len(ids)))
    if repeats.size:  # rows whose id an earlier row has
        row, sid = int(repeats[0]), int(ids[repeats[0]])
        earlier = int(first_row[inverse[row]])
        raise DataError(f"{sidecar}: sample_id {sid} in rows {earlier + 1} and {row + 1}"
                        if linenos is None else
                        f"{path}:{linenos[row]}: sample_id {sid} repeats line {linenos[earlier]}")
    fields = _matrix_fields(matrix, shapes)
    del fields["hist_spacing"]
    return (SampleBatch(sample_ids=ids.astype(np.int64), **fields),
            dict(header, sha256=digest))
