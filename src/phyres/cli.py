"""Command-line entry point.

Subcommands: synth, extract, calibrate, train, predict, evaluate, sweep,
gradcheck.  Every subcommand accepts ``--config FILE`` (a flat JSON object
whose keys are flag names with dashes replaced by underscores); explicit
flags override config values.  Commands that draw random numbers require
``--seed``.  Each run writes a manifest next to its outputs.  ``extract``
takes the sample geometry (delta, K, t_back, t_fwd) from its flags; every
later command reads it from the samples file's header.

Exit codes: 0 success, 1 usage, 2 data/config error, 3 numeric error,
4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, serialize
from .calibrate import (PARAM_ORDER, CalibrationConfig, make_params,
                        monte_carlo_calibrate)
from .domain import DatasetConfig, split_dataset
from .errors import DataError, NumericError, PhyresError
from .evaluation import (SweepConfig, emit_plot_data, mse_metrics, run_sweep,
                         write_sweep_outputs)
from .ingest import (extract_samples, parse_trajectory_csv, read_samples,
                     write_samples)
from .neuralnet import (ACTIVATIONS, CELLS, NetConfig, gradient_check, load_net,
                        save_net)
from .physics import IdmParams, NewellParams
# train_nn, train_pinn and train_perl are unused here: perfbench/tracing.py wraps these attributes
from .predictors import (VARIANTS, PredictionRecord, TrainConfig, predict_many,
                         train, train_nn, train_perl, train_pinn)
from .synth import SynthConfig, generate_corpus


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Errors raise UsageError; flags are never abbreviated, so ``--config``
    is found in argv the way the parser finds it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _checked(kind, holds, rule: str):
    """An argparse type: a ``kind`` value for which ``holds`` is true."""
    def parse(text):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse says "invalid int value" for a non-number
    return parse


def _list_of(item):
    """An argparse type: a comma list of distinct ``item`` values, kept as
    its text."""
    def parse(text):
        values = [item(tok) for tok in text.split(",")]
        for i, value in enumerate(values):
            if value in values[:i]:  # it would run the same sweep cells twice
                raise argparse.ArgumentTypeError(f"repeated value {value!r}")
        return text
    parse.__name__ = f"comma list of {item.__name__}"
    return parse


def _variant(text):
    """An argparse type: a predictor variant."""
    if text not in VARIANTS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(VARIANTS)})")
    return text


_SEED = _checked(int, lambda value: value >= 0, "at least 0")
_SIZE = _checked(int, lambda value: value >= 1, "at least 1")
_FINITE_FLOAT = _checked(float, math.isfinite, "a finite number")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir, command, args, inputs, outputs, started, digests=None):
    """``digests`` maps input paths whose sha256 is already known to it."""
    os.makedirs(outdir, exist_ok=True)
    digests = digests or {}
    resolved = {k: v for k, v in vars(args).items()
                if k not in ("func",) and not callable(v)}
    serialize.write_json(os.path.join(outdir, "manifest.json"), {
        "tool_version": __version__,
        "command": command,
        "config": resolved,
        "input_digests": {os.path.basename(p): digests.get(p) or _sha256(p) for p in inputs},
        "outputs": sorted(os.path.relpath(p, outdir) for p in outputs),
        "wall_clock_s": time.monotonic() - started,
    })


def _out_dir(path) -> str:
    """Make the folder that will hold ``path``; returns it."""
    outdir = os.path.dirname(os.path.abspath(path))
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _dataset_config(args, geometry: dict) -> DatasetConfig:
    """The fixed split shares and ``args.split_seed``, with the delta,
    k_vehicles, t_back and t_fwd of ``geometry``: a samples header, or
    extract's own flags."""
    return DatasetConfig(delta=geometry["delta"], k_vehicles=geometry["k_vehicles"],
                         t_back=geometry["t_back"], t_fwd=geometry["t_fwd"],
                         omega_train=SPLIT_TRAIN, omega_val=SPLIT_VAL, seed=args.split_seed)


def _add_split_seed(p):
    p.add_argument("--split-seed", type=_SEED, default=0)


def _add_training_flags(p, max_epochs, patience):
    p.add_argument("--cell", choices=CELLS, default="lstm")
    p.add_argument("--units1", type=int, default=32)
    p.add_argument("--units2", type=int, default=16)
    p.add_argument("--dense-units", type=int, default=32)
    p.add_argument("--dropout", type=_FINITE_FLOAT, default=0.2)
    p.add_argument("--activation", choices=ACTIVATIONS, default="linear")
    p.add_argument("--max-epochs", type=int, default=max_epochs)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--patience", type=int, default=patience)
    p.add_argument("--lr", type=_FINITE_FLOAT, default=1e-3)
    p.add_argument("--mu", type=_FINITE_FLOAT, default=0.5)


def _load_params(path):
    """Physics params from a calibration report."""
    obj = serialize.read_json(path)
    if not isinstance(obj, dict) or obj.get("model") not in PARAM_ORDER \
            or not isinstance(obj.get("param_mean"), dict):
        raise DataError(f"{path}: not a calibration report (needs a known "
                        f"model and a param_mean object)")
    values = obj["param_mean"]
    missing = [k for k in PARAM_ORDER[obj["model"]] if k not in values]
    if missing:
        raise DataError(f"{path}: param_mean lacks {', '.join(missing)}")
    return make_params(obj["model"], {k: serialize.number(values[k], f"{path}: param_mean.{k}")
                                      for k in PARAM_ORDER[obj["model"]]})


# ---------------------------------------------------------------- synth

# the corpus is a fixture around the method: every platoon has the same size
# and length, the idm followers share one parameter set, and the lead vehicle
# follows synth.LeadProfile's defaults
SYNTH_IDM = IdmParams(v_free=22.495, a_max=0.911, b_comf=2.859, s0=1.627, t_gap=1.132)
SYNTH_VEHICLES = 4
SYNTH_STEPS = 80
SPLIT_TRAIN, SPLIT_VAL = 0.6, 0.2  # shares of the samples; the test split gets the rest


def _cmd_synth(args):
    started = time.monotonic()
    params = SYNTH_IDM if args.generator == "idm" else NewellParams(w=args.wave_speed)
    cfg = SynthConfig(
        generator=args.generator, params=params, n_platoons=args.platoons,
        vehicles_per_platoon=SYNTH_VEHICLES, duration_steps=SYNTH_STEPS,
        delta=args.delta, noise_sigma=args.noise_sigma, seed=args.seed,
        initial_gap=args.initial_gap,
    )
    diag = generate_corpus(cfg, args.out)
    print(f"wrote {diag['rows']} rows ({diag['vehicles']} vehicles) to {args.out}")
    _write_manifest(_out_dir(args.out), "synth", args, [], [args.out], started)
    return 0


# -------------------------------------------------------------- extract

def _cmd_extract(args):
    started = time.monotonic()
    dcfg = _dataset_config(args, vars(args))
    series = parse_trajectory_csv(args.input, dcfg.delta)
    samples = extract_samples(series, dcfg)
    samples.validate()
    outdir = _out_dir(args.out)
    sidecar = write_samples(samples, args.out, dcfg)
    print(f"extracted {len(samples)} samples from {len(series)} vehicle series")
    _write_manifest(outdir, "extract", args, [args.input], [args.out, sidecar], started)
    return 0


# ------------------------------------------------------------ calibrate

def _cmd_calibrate(args):
    started = time.monotonic()
    samples, header = read_samples(args.samples)
    dcfg = _dataset_config(args, header)
    split = split_dataset(samples.sample_ids.tolist(), dcfg)
    ccfg = CalibrationConfig(model=args.model, sample_size=args.sample_size,
                             repetitions=args.repetitions, seed=args.seed)
    report = monte_carlo_calibrate(samples.select(split.train_ids), ccfg, dcfg.delta)
    outdir = _out_dir(args.out)
    report.write_json(args.out)
    print(f"calibrated {args.model}: mean params {report.param_mean}")
    _write_manifest(outdir, "calibrate", args, [args.samples], [args.out], started,
                    {args.samples: header["sha256"]})
    return 0


# ---------------------------------------------------------------- train

def _cmd_train(args):
    started = time.monotonic()
    samples, header = read_samples(args.samples)
    dcfg = _dataset_config(args, header)
    split = split_dataset(samples.sample_ids.tolist(), dcfg)
    nconf = NetConfig(cell=args.cell, units1=args.units1, units2=args.units2,
                      dense_units=args.dense_units,
                      output_dim=dcfg.t_fwd,
                      input_dim=3 * dcfg.k_vehicles,
                      dropout=args.dropout,
                      output_activation=args.activation, seed=args.seed)
    tconf = TrainConfig(variant=args.variant, seed=args.seed,
                        max_epochs=args.max_epochs, batch_size=args.batch_size,
                        patience=args.patience, lr=args.lr, mu=args.mu)
    params = _load_params(args.params_file) if args.params_file else None
    net, report = train(samples, split, tconf, nconf, dcfg.delta, params)
    os.makedirs(args.out, exist_ok=True)
    weights = os.path.join(args.out, "weights.json")
    rpt = os.path.join(args.out, "train_report.json")
    save_net(net, weights)
    report.write_json(rpt)
    last = report.per_epoch[-1]
    print(f"trained {args.variant}: {len(report.per_epoch)} epochs, "
          f"best epoch {report.best_epoch}, final val mse_a {last['mse_a_val']:.6g}")
    inputs = [p for p in (args.samples, args.params_file) if p]
    _write_manifest(args.out, "train", args, inputs, [weights, rpt], started,
                    {args.samples: header["sha256"]})
    return 0


# -------------------------------------------------------------- predict

_RECORD_ARRAYS = ("predicted_accel", "predicted_speed", "physics_component",
                  "residual_component")


def _record_template(lengths) -> str:
    """A record line's '%'-format template; a length of None is a null."""
    slots = ("null" if n is None else serialize.json_slots((n,)) for n in lengths)
    return ('{"sample_id":%d,' + "".join(f'"{k}":{v},' for k, v in zip(_RECORD_ARRAYS, slots))
            + '"collision_in_rollout":%s}\n')


def _write_records(records, path):
    """One JSON line per record: the bytes of ``serialize.dumps``, from one
    line template built from the first record's layout, which the records
    of one ``predict_many`` call share."""
    template = None
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            arrays = [getattr(r, name) for name in _RECORD_ARRAYS]
            values = [v for a in arrays if a is not None for v in a.tolist()]
            if not all(map(math.isfinite, values)):
                raise NumericError(f"non-finite prediction for sample {r.sample_id}")
            if template is None:
                template = _record_template([None if a is None else len(a) for a in arrays])
            fh.write(template % (
                r.sample_id, *values, "true" if r.collision_in_rollout else "false"))


def read_records(path) -> list[PredictionRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            bad = f"{path}:{lineno}: malformed record: "
            try:  # JSONDecodeError is a ValueError
                obj = serialize.DECODER.decode(line)
                sid, collided = obj["sample_id"], obj["collision_in_rollout"]
                if serialize.number(sid, bad + "sample_id") % 1:
                    raise ValueError(f"sample_id {sid!r} is not an integer")
                if type(collided) is not bool:
                    raise ValueError(f"collision_in_rollout {collided!r} is not true or false")
                # a variant without a physics or a residual part writes null
                arrays = {name: None if obj[name] is None and name.endswith("_component")
                          else serialize.numbers(obj[name], 1, bad + name) for name in _RECORD_ARRAYS}
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{bad}{exc!r}") from exc
            records.append(PredictionRecord(sample_id=int(sid), collision_in_rollout=collided,
                                            **arrays))
    return records


def _cmd_predict(args):
    started = time.monotonic()
    samples, header = read_samples(args.samples)
    dcfg = _dataset_config(args, header)
    split = split_dataset(samples.sample_ids.tolist(), dcfg)
    subset = {"train": split.train_ids, "val": split.val_ids,
              "test": split.test_ids, "all": None}[args.subset]
    targets = samples if subset is None else samples.select(subset)
    params = _load_params(args.params_file) if args.params_file else None
    net = load_net(args.weights) if args.weights else None
    records = predict_many(args.variant, targets, delta=dcfg.delta, params=params, net=net)
    outdir = _out_dir(args.out)
    _write_records(records, args.out)
    print(f"wrote {len(records)} prediction records to {args.out}")
    inputs = [p for p in (args.samples, args.params_file, args.weights) if p]
    _write_manifest(outdir, "predict", args, inputs, [args.out], started,
                    {args.samples: header["sha256"]})
    return 0


# ------------------------------------------------------------- evaluate

def _cmd_evaluate(args):
    started = time.monotonic()
    samples, header = read_samples(args.samples)
    records = read_records(args.records)
    truth = samples.select({r.sample_id for r in records})
    mse_a, mse_v = mse_metrics(records, truth, header["delta"])
    outdir = _out_dir(args.out)
    serialize.write_json(args.out, {
        "n_samples": len(records),
        "mse_a_test": mse_a,
        "mse_v_test": mse_v,
        "collision_count": sum(r.collision_in_rollout for r in records),
    })
    print(f"mse_a={mse_a:.6g} mse_v={mse_v:.6g} over {len(records)} samples")
    _write_manifest(outdir, "evaluate", args, [args.samples, args.records],
                    [args.out], started, {args.samples: header["sha256"]})
    return 0


# ---------------------------------------------------------------- sweep

def _print_cell(cell):
    """One stderr line as a sweep cell finishes; a cell whose worker died
    has no time."""
    took = "" if cell.seconds is None else f" in {cell.seconds:.2f} s"
    outcome = ("failed" if cell.error is not None
               else f"mse_a_test {cell.eval_report.mse_a_test:.6g}")
    print(f"cell {cell.variant}/{cell.data_size}/{cell.seed}{took}: {outcome}",
          file=sys.stderr)


def _cmd_sweep(args):
    started = time.monotonic()
    variants = tuple(args.variants.split(","))
    data_sizes = tuple(map(int, args.data_sizes.split(",")))
    seeds = tuple(map(int, args.seeds.split(","))) if args.seeds else (args.seed,)
    samples, header = read_samples(args.samples)
    dcfg = _dataset_config(args, header)
    sweep = SweepConfig(
        variants=variants, data_sizes=data_sizes, seeds=seeds,
        physics_model=args.model, cell=args.cell,
        units1=args.units1, units2=args.units2, dense_units=args.dense_units,
        dropout=args.dropout, output_activation=args.activation,
        max_epochs=args.max_epochs, batch_size=args.batch_size,
        patience=args.patience, lr=args.lr, mu=args.mu,
    )
    cells = run_sweep(samples, dcfg, sweep, on_cell=_print_cell)
    os.makedirs(args.out, exist_ok=True)
    paths = write_sweep_outputs(cells, args.out)
    paths += emit_plot_data(cells, args.out)
    failures = [c for c in cells if c.error is not None]
    print(f"sweep: {len(cells) - len(failures)}/{len(cells)} cells succeeded")
    _write_manifest(args.out, "sweep", args, [args.samples], paths, started,
                    {args.samples: header["sha256"]})
    return 4 if failures else 0


# ------------------------------------------------------------ gradcheck

# the toy net whose gradients gradcheck checks, over 5 time steps
GRADCHECK_NET = NetConfig(cell="lstm", units1=4, units2=3, dense_units=4, output_dim=3,
                          input_dim=6, dropout=0.0, output_activation="linear", seed=12345)


def _cmd_gradcheck(args):
    err = gradient_check(replace(GRADCHECK_NET, cell=args.cell), t_steps=5)
    print(f"max relative gradient error: {err:.3e}")
    return 0 if err < 1e-4 else 3


# ------------------------------------------------------------- dispatch

def build_parser() -> _Parser:
    parser = _Parser(prog="phyres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trajectory corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--generator", choices=["idm", "newell_shift"], default="idm")
    p.add_argument("--platoons", type=_SIZE, default=10)
    p.add_argument("--delta", type=_FINITE_FLOAT, default=0.1)
    p.add_argument("--noise-sigma", type=_FINITE_FLOAT, default=0.0)
    p.add_argument("--wave-speed", type=_FINITE_FLOAT, default=4.0)
    p.add_argument("--initial-gap", type=_FINITE_FLOAT, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="raw CSV -> samples file")
    p.add_argument("--config", default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=_FINITE_FLOAT, default=0.1)
    p.add_argument("--k-vehicles", type=int, default=4)
    p.add_argument("--t-back", type=int, default=20)
    p.add_argument("--t-fwd", type=int, default=5)
    _add_split_seed(p)  # unread; perfbench's pipeline workload passes it
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("calibrate", help="fit physics parameters on the train split")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--model", choices=tuple(PARAM_ORDER), required=True)
    p.add_argument("--sample-size", type=int, default=300)
    p.add_argument("--repetitions", type=int, default=5)
    _add_split_seed(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("train", help="train a predictor variant")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--variant", choices=VARIANTS[1:], required=True)
    p.add_argument("--params-file", default=None,
                   help="calibration report JSON (pinn/perl)")
    _add_training_flags(p, max_epochs=200, patience=20)
    _add_split_seed(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="emit prediction records")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--params-file", default=None)
    p.add_argument("--subset", choices=["train", "val", "test", "all"], default="test")
    _add_split_seed(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score prediction records")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="training-data-size sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--seeds", type=_list_of(_SEED), default=None,
                   help="comma list; overrides --seed")
    p.add_argument("--variants", type=_list_of(_variant), default="physics,nn,pinn,perl")
    p.add_argument("--data-sizes", type=_list_of(_SIZE), default="300,500,1000")
    p.add_argument("--model", choices=tuple(PARAM_ORDER), default="newell")
    _add_training_flags(p, max_epochs=100, patience=15)
    _add_split_seed(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gradcheck", help="verify BPTT gradients vs finite differences")
    p.add_argument("--config", default=None)
    p.add_argument("--cell", choices=CELLS, default="lstm")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _apply_config_file(parser, argv):
    """Load --config JSON (if present) as subcommand defaults."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    try:
        cfg = serialize.read_json(path)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must be a JSON object")
    commands = parser._subparsers._group_actions[0].choices
    sub = commands.get(argv[0])
    if sub is None:
        return  # argparse reports the missing or unknown command
    defaults = {key.replace(".", "_").replace("-", "_"): val for key, val in cfg.items()}
    # a key of another command is allowed, so that one file serves several
    settings = {a.dest for p in commands.values() for a in p._actions if a.dest != "help"}
    for key in defaults:
        if key not in settings:
            raise UsageError(f"config {path}: {key}: no phyres command has this setting")
    for a in sub._actions:
        if a.dest not in defaults:
            continue
        val = defaults[a.dest]
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise UsageError(f"config {path}: {a.dest}: expected a string or a number, "
                             f"got {serialize.dumps(val)}")
        text = str(val)  # read as the flag's text would be
        try:
            val = a.type(text) if a.type else text
        except ValueError:
            raise UsageError(f"config {path}: {a.dest}: invalid {a.type.__name__} value: "
                             f"{text!r}") from None
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"config {path}: {a.dest}: {exc}") from None
        if a.choices is not None and val not in a.choices:
            raise UsageError(f"config {path}: {a.dest}: invalid choice: {val!r} "
                             f"(choose from {', '.join(map(str, a.choices))})")
        sub.set_defaults(**{a.dest: val})
        a.required = False  # a config-supplied seed satisfies the --seed requirement


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (PhyresError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
