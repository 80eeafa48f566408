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
its ``hist_position``: it is written for the v1 format and not kept.

Sidecar: ``write_samples`` also writes ``<file>.<sha256 of its bytes>.npy``,
one float64 matrix with a row per sample: ``sample_id``, then the v1 fields
above in file order, flattened.  ``read_samples`` hashes the file and loads
the sidecar that digest names instead of decoding every line, so an edited
file, or one whose sidecar was deleted, is parsed as JSON lines; both ways
give bit-equal samples.  The sidecar is a cache, safe to delete; the v1 JSON
lines stay the format of record.

Either way ``read_samples`` holds the one matrix to one set of rules: each id
an integral JSON number (not a bool or a string) of magnitude below 2**53,
where float64 stops holding every integer, and unique; every value finite;
each ``hist_spacing`` within 1e-6 m of its position differences.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from dataclasses import dataclass, fields

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
# numbers in one sample (id included) that a header may imply: a float64 row
# of this many takes 128 MB; extract's default window has 322
MAX_SAMPLE_WIDTH = 2**24


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

    @classmethod
    def from_dict(cls, d: dict, what: str = "norm_stats") -> "NormStats":
        return cls(**{f.name: serialize.number(d[f.name], f"{what}.{f.name}") for f in fields(cls)})


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


def _sample_width(shapes: dict) -> int:
    """Numbers in one sample of the fields ``shapes``: its id and every value."""
    return 1 + sum(math.prod(shape) for shape in shapes.values())


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
    slots.  A non-finite value, or an id that ``read_samples`` rejects, is a
    DataError naming the first bad sample, raised before the file is opened.

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
    ids = batch.sample_ids.tolist()
    _check_matrix(matrix, fields, lambda row: (f"row {row + 1}, sample {ids[row]}", f"row {row + 1}"))
    template = '{"sample_id":%d,' + ",".join(
        f'"{name}":{serialize.json_slots(shape, "%s")}' for name, shape in shapes.items()) + "}\n"
    header = {"format_version": SAMPLE_FORMAT_VERSION, "delta": config.delta,
              "k_vehicles": config.k_vehicles, "t_back": config.t_back, "t_fwd": config.t_fwd}
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
    bad = f"{path}:1: bad header: "
    version = serialize.number(header.get("format_version"), bad + "format_version", int)
    if version != SAMPLE_FORMAT_VERSION:
        raise DataError(f"{path}: format_version {version}, expected {SAMPLE_FORMAT_VERSION}")
    k, tb, tf = (serialize.number(header.get(key), bad + key, int)
                 for key in ("k_vehicles", "t_back", "t_fwd"))
    delta = serialize.number(header.get("delta"), bad + "delta")
    if k < 2 or tb < 1 or tf < 1 or delta <= 0:
        raise DataError(f"{path}:1: bad header geometry {header}")
    width = _sample_width(_sample_shapes(k, tb, tf))
    if width > MAX_SAMPLE_WIDTH:
        raise DataError(f"{path}:1: bad header: k_vehicles is {k}, t_back is {tb} and t_fwd is "
                        f"{tf}, {width} numbers a sample, more than {MAX_SAMPLE_WIDTH}")
    return dict(header, delta=delta, k_vehicles=k, t_back=tb, t_fwd=tf)


def _parse_lines(path, shapes: dict, n_lines: int):
    """Decode the ``n_lines`` sample lines after the header into the
    sidecar's matrix layout; returns it and its ``where`` for
    ``_check_matrix``.  A DataError names a line that is no JSON object with
    the header's fields and shapes of finite numbers; ids are left to the check."""
    matrix = np.empty((n_lines, _sample_width(shapes)))
    linenos = []
    with open(path, "rb") as fh:
        next(fh)  # the header
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():  # blank as _scan counts it
                continue
            try:
                obj = serialize.DECODER.decode(line.decode("utf-8"))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed sample: {exc}") from exc
            row = matrix[len(linenos)]
            try:
                arrays = {name: serialize.numbers(obj[name], len(shape), f"{path}:{lineno}: {name}")
                          for name, shape in shapes.items()}
                sid = obj["sample_id"]
                # a bool or a string goes in as NaN, which _check_matrix rejects
                row[0] = sid if type(sid) in (int, float) else math.nan
            except (KeyError, OverflowError, TypeError) as exc:  # an id beyond the float range
                raise DataError(f"{path}:{lineno}: bad sample object: {exc!r}") from exc
            for name, shape in shapes.items():
                if arrays[name].shape != shape:
                    raise DataError(f"{path}:{lineno}: {name} has shape "
                                    f"{arrays[name].shape}, the header implies {shape}")
            np.concatenate([a.ravel() for a in arrays.values()], out=row[1:])
            linenos.append(lineno)
    return matrix, lambda row: (f"{path}:{linenos[row]}", f"line {linenos[row]}")


def _load_sidecar(sidecar: str, shapes: dict, n_lines: int):
    """A sidecar's matrix, float64 with a row per sample line and the width
    the header implies, and its ``where`` for ``_check_matrix``."""
    try:
        matrix = np.load(sidecar, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"{sidecar}: unreadable sidecar: {exc}") from exc
    want = (n_lines, _sample_width(shapes))
    if matrix.dtype != np.float64 or matrix.shape != want:
        raise DataError(f"{sidecar}: a {matrix.dtype} array of shape {matrix.shape}, "
                        f"the file implies a float64 matrix of shape {want}")
    return matrix, lambda row: (f"{sidecar}: row {row + 1}", f"row {row + 1}")


def _check_matrix(matrix: np.ndarray, fields: dict, where) -> None:
    """What makes a sample matrix valid, whichever source filled it.
    ``where(row)`` gives a row's location and the name that another row's
    error refers to it by; a DataError names the first bad row."""
    ids = matrix[:, 0]
    pos = fields["hist_position"]
    with np.errstate(invalid="ignore"):  # inf - inf: the finite check names it
        mismatch = abs(fields["hist_spacing"] - (pos[:, :-1] - pos[:, 1:])).max(axis=(1, 2))
    _, first_row, inverse = np.unique(ids, return_index=True, return_inverse=True)
    earlier = first_row[inverse]
    checks = {  # NaN fails the id test; 2**53 + 1 rounds to 2**53, hence the strict bound
        "bad sample object: sample_id is not an integral number of magnitude below 2**53":
            ~(abs(ids) < 2 ** 53) | (ids != np.floor(ids)),
        "a number beyond the float range, or NaN": ~np.isfinite(matrix[:, 1:]).all(axis=1),
        "hist_spacing differs from the position differences by {mismatch:.3g} m":
            mismatch > 1e-6,  # metres
        "sample_id {sid:.0f} repeats {earlier}": earlier != np.arange(len(ids)),
    }
    bad = np.flatnonzero(np.any(list(checks.values()), axis=0))
    if bad.size:
        row = int(bad[0])
        message = next(text for text, rows in checks.items() if rows[row])
        raise DataError(f"{where(row)[0]}: " + message.format(
            mismatch=mismatch[row], sid=ids[row], earlier=where(earlier[row])[1]))


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
    are views of that one matrix, which ``_check_matrix`` checks.  A
    DataError names the line, or the sidecar and its row.
    """
    digest, first, n_lines = _scan(path)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = _parse_header(path, first)
    shapes = _sample_shapes(header["k_vehicles"], header["t_back"], header["t_fwd"])
    sidecar = sidecar_path(path, digest)
    if os.path.isfile(sidecar):
        matrix, where = _load_sidecar(sidecar, shapes, n_lines)
    else:
        matrix, where = _parse_lines(path, shapes, n_lines)
    fields = _matrix_fields(matrix, shapes)
    _check_matrix(matrix, fields, where)
    del fields["hist_spacing"]
    return (SampleBatch(sample_ids=matrix[:, 0].astype(np.int64), **fields),
            dict(header, sha256=digest))
