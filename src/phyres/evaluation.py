"""The training-data-size sweep, its outputs and plot data, and the MSE
of a set of predictions (``predictors.squared_errors`` scores them).

Sweep protocol: per seed the train split is shuffled once and size-s
cells take the first s ids, so smaller training sets are strict subsets
of larger ones; the test split is identical across every cell.
"""

from __future__ import annotations

import csv
import os
import time
import traceback
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import forkpool, serialize
from .calibrate import CalibrationConfig, CalibrationReport, make_params, monte_carlo_calibrate
from .domain import DatasetConfig, SampleBatch, SplitIndex, split_dataset
from .errors import ConfigError
# train_nn, train_pinn and train_perl are unused here: perfbench/tracing.py wraps these attributes
from .predictors import (PHYSICS_VARIANTS, VARIANTS, TrainReport, predict_many,
                         squared_errors, train, train_nn, train_perl, train_pinn,
                         training_configs)

DEFAULT_DATA_SIZES = (300, 500, 1000, 2000, 5000, 10000, 12000)


@dataclass
class EvalReport:
    mse_a_test: float
    mse_v_test: float
    per_sample_mse_a: list[float]
    collision_count: int


def mse_metrics(preds, truth, delta: float) -> tuple[float, float]:
    """Acceleration and speed MSE over all predictions ``preds`` (a batch, or
    a list of records) and horizon steps; the truth is a batch (or a list)
    holding their samples, in any order."""
    sq_a, sq_v = squared_errors(preds, truth, delta)
    return float(np.mean(sq_a)), float(np.mean(sq_v))


@dataclass(frozen=True)
class SweepConfig:
    variants: tuple = ("physics", "nn", "pinn", "perl")
    data_sizes: tuple = DEFAULT_DATA_SIZES
    seeds: tuple = (0,)
    physics_model: str = "newell"
    cell: str = "lstm"
    units1: int = 32
    units2: int = 16
    dense_units: int = 32
    dropout: float = 0.2
    activation: str = "linear"
    max_epochs: int = 200
    batch_size: int = 64
    patience: int = 20
    lr: float = 1e-3
    mu: float = 0.5

    def __post_init__(self):
        for name, values in (("variant", self.variants), ("data size", self.data_sizes),
                             ("seed", self.seeds)):
            if not values:  # a sweep of no cells, or no data size for min() below
                raise ConfigError(f"the {name} list is empty")
            for i, value in enumerate(values):
                if value in values[:i]:  # it would run the same cells twice
                    raise ConfigError(f"repeated {name} {value!r}")
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ConfigError(f"unknown variant {variant!r}")
        least = 2 if set(self.variants) - {"physics"} else 1  # learned: a train and a val sample
        if min(self.data_sizes) < least:
            raise ConfigError(f"data size {min(self.data_sizes)} is below {least}")


@dataclass
class SweepCell:
    variant: str
    data_size: int
    seed: int
    eval_report: EvalReport | None = None
    train_report: TrainReport | None = None
    calib_report: CalibrationReport | None = None
    error: str | None = None
    seconds: float | None = None  # wall time, with any wait for a CPU; written to no output


def _calibrate_subset(subset, model: str, delta: float, seed: int
                      ) -> tuple[CalibrationReport | None, str | None]:
    """The one physics fit that a (size, seed)'s physics-using cells share;
    a failure is returned as its traceback, for each of those cells."""
    try:
        calib_cfg = CalibrationConfig(model=model, sample_size=len(subset), repetitions=1, seed=seed)
        return monte_carlo_calibrate(subset, calib_cfg, delta), None
    except Exception:
        return None, traceback.format_exc()


def _run_cell(batch, test, dcfg: DatasetConfig, sweep: SweepConfig, rows, calibration,
              variant: str, seed: int) -> SweepCell:
    """The cell of ``variant`` and ``seed`` on the train rows ``rows`` of
    ``batch``."""
    started = time.perf_counter()
    cell = SweepCell(variant=variant, data_size=len(rows), seed=seed)
    try:
        subset = batch.take(rows)
        subset_ids = subset.sample_ids.tolist()
        # fixed-size inner split of the subset for validation during training
        n_val = max(1, int(0.2 * len(rows)))
        inner = SplitIndex(train_ids=frozenset(subset_ids[:-n_val]),
                           val_ids=frozenset(subset_ids[-n_val:]),
                           test_ids=frozenset())
        params = net = None
        if variant in PHYSICS_VARIANTS:
            cell.calib_report, cell.error = calibration
            if cell.error is not None:
                return cell
            params = make_params(cell.calib_report.model,
                                 cell.calib_report.per_repetition[0]["params"])
        if variant != "physics":
            net, cell.train_report = train(subset, inner,
                                           *training_configs(sweep, dcfg, variant, seed),
                                           dcfg.delta, params)
        preds = predict_many(variant, test, delta=dcfg.delta, params=params, net=net)
        sq_a, sq_v = squared_errors(preds, test, dcfg.delta)
        cell.eval_report = EvalReport(
            mse_a_test=float(np.mean(sq_a)), mse_v_test=float(np.mean(sq_v)),
            per_sample_mse_a=np.mean(sq_a, axis=1).tolist(),
            collision_count=int(preds.collision_in_rollout.sum()))
    except Exception:
        cell.error = traceback.format_exc()
    finally:
        cell.seconds = time.perf_counter() - started
    return cell


def run_sweep(samples, dcfg: DatasetConfig, sweep: SweepConfig, *,
              on_cell=None) -> list[SweepCell]:
    """Run the (data_size x variant x seed) grid; cells never abort the
    sweep, failures are recorded on the cell.  The net and training
    settings are checked once, before any fit: a bad one is a ConfigError.

    The physics fits and the physics cells run in this process; the learned
    cells run in forked processes (``forkpool``), as jobs of even cost when
    they share one data size.  The cells do not depend on where they ran.
    ``on_cell(cell)`` is called as each finishes."""
    learned = [v for v in sweep.variants if v != "physics"]
    if learned:  # checks the settings before any fit; each cell builds its own
        training_configs(sweep, dcfg, learned[0], sweep.seeds[0])
    batch = SampleBatch.of(samples)
    split = split_dataset(batch.sample_ids.tolist(), dcfg)
    by_id = np.argsort(batch.sample_ids, kind="stable")  # the rows in id order
    train_rows = by_id[np.isin(batch.sample_ids[by_id], list(split.train_ids))]
    if max(sweep.data_sizes) > len(train_rows):
        raise ConfigError(
            f"largest data size {max(sweep.data_sizes)} exceeds the "
            f"{len(train_rows)}-sample train split")
    test = batch.take(by_id[np.isin(batch.sample_ids[by_id], list(split.test_ids))])
    run_cell = partial(_run_cell, batch, test, dcfg, sweep)
    cells, jobs = [], []

    def finish(cell):
        cells.append(cell)
        if on_cell is not None:
            on_cell(cell)

    for seed in sweep.seeds:
        shuffled = train_rows[np.random.default_rng(seed).permutation(len(train_rows))]
        for size in sweep.data_sizes:
            rows = shuffled[:size]
            calibration = (None, None)
            if any(v in PHYSICS_VARIANTS for v in sweep.variants):
                calibration = _calibrate_subset(batch.take(rows), sweep.physics_model,
                                                dcfg.delta, seed)
            for variant in sweep.variants:
                if variant in learned:
                    jobs.append((rows, calibration, variant, seed))
                else:
                    finish(run_cell(rows, calibration, variant, seed))
    # largest first: a large cell handed out last would keep one worker busy alone
    jobs.sort(key=lambda job: -len(job[0]))
    # cells of one data size cost about the same, so each may take its own worker
    for i, future in forkpool.completed(run_cell, jobs, even=len(sweep.data_sizes) == 1):
        try:
            cell = future.result()
        except Exception:  # the result was lost, not the cell's own failure
            rows, _, variant, seed = jobs[i]
            cell = SweepCell(variant=variant, data_size=len(rows), seed=seed,
                             error=traceback.format_exc())
        finish(cell)
    cells.sort(key=lambda c: (c.data_size, c.variant, c.seed))
    return cells


def _write_csv(path, header: list[str], rows) -> None:
    """A CSV file of ``rows`` under ``header``; floats get 17 significant digits."""
    with serialize.create(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_sweep_outputs(cells: list[SweepCell], outdir) -> list[str]:
    """Write per-cell reports plus the aggregate table; returns paths."""
    paths, agg = [], []
    for c in cells:
        report_path = os.path.join(outdir, "sweep", c.variant, str(c.data_size), str(c.seed),
                                   "report.json")
        obj = {
            "variant": c.variant, "data_size": c.data_size, "seed": c.seed,
            "error": c.error,
            "eval": asdict(c.eval_report) if c.eval_report else None,
            "train": asdict(c.train_report) if c.train_report else None,
            "calibration": asdict(c.calib_report) if c.calib_report else None,
        }
        serialize.write_json(report_path, obj)
        paths.append(report_path)
        if c.eval_report:
            agg.append({"variant": c.variant, "data_size": c.data_size,
                        "seed": c.seed, "mse_a_test": c.eval_report.mse_a_test,
                        "mse_v_test": c.eval_report.mse_v_test})
    agg_json = os.path.join(outdir, "aggregate.json")
    serialize.write_json(agg_json, agg)
    agg_csv = os.path.join(outdir, "aggregate.csv")
    _write_csv(agg_csv, ["variant", "data_size", "seed", "mse_a_test", "mse_v_test"],
               [list(row.values()) for row in agg])
    paths.extend([agg_json, agg_csv])
    return paths


def emit_plot_data(cells: list[SweepCell], outdir) -> list[str]:
    """Long-format summary CSV plus per-run convergence CSV."""
    ok = [c for c in cells if c.eval_report is not None]
    summary_path = os.path.join(outdir, "summary_long.csv")
    _write_csv(summary_path, ["variant", "data_size", "seed", "metric", "value"],
               [[c.variant, c.data_size, c.seed, metric, getattr(c.eval_report, metric)]
                for c in ok for metric in ("mse_a_test", "mse_v_test")])
    conv_path = os.path.join(outdir, "convergence.csv")
    _write_csv(conv_path, ["variant", "data_size", "seed", "epoch", "mse_a_val", "mse_v_val"],
               [[c.variant, c.data_size, c.seed, r["epoch"], r["mse_a_val"], r["mse_v_val"]]
                for c in ok if c.train_report is not None for r in c.train_report.per_epoch])
    return [summary_path, conv_path]
