"""Command-line entry point.

Subcommands: synth, extract, calibrate, train, predict, evaluate, sweep,
gradcheck.  Every subcommand accepts ``--config FILE`` (a flat JSON object
whose keys are flag names with dashes replaced by underscores); explicit
flags override config values.  Commands that draw random numbers require
``--seed``.  ``main`` runs the command and then writes a manifest in the
folder that holds its outputs.  ``extract``
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

from . import __version__, forkpool, serialize
from .calibrate import PARAM_ORDER, CalibrationConfig, load_params, monte_carlo_calibrate
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
from .predictors import (VARIANTS, predict_many, read_records, train, train_nn,
                         train_perl, train_pinn, training_configs, write_records)
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


# every command's first flag (its ``parents``), and the pre-parse that finds
# the file before the command's own parser runs
_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", default=None)


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


# the flags that name a command's input files, in the manifest's order
INPUT_FLAGS = ("input", "samples", "params_file", "weights", "records")


def _write_manifest(args, outputs, header, started) -> None:
    """The run's manifest, in the folder that holds its ``outputs``: its
    settings, the sha256 of each file an input flag names (the samples
    file's from its ``header``, which already holds it), its outputs and
    its wall time."""
    outdir = os.path.commonpath([os.path.dirname(os.path.abspath(p)) for p in outputs])
    serialize.write_json(os.path.join(outdir, "manifest.json"), {
        "tool_version": __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "input_digests": {
            os.path.basename(path): header["sha256"] if flag == "samples" else _sha256(path)
            for flag in INPUT_FLAGS if (path := getattr(args, flag, None))},
        "outputs": sorted(os.path.relpath(p, outdir) for p in outputs),
        "wall_clock_s": time.monotonic() - started,
    })


def _dataset_config(args, geometry: dict) -> DatasetConfig:
    """The fixed split shares and ``args.split_seed``, with the delta,
    k_vehicles, t_back and t_fwd of ``geometry``: a samples header, or
    extract's own flags."""
    return DatasetConfig(delta=geometry["delta"], k_vehicles=geometry["k_vehicles"],
                         t_back=geometry["t_back"], t_fwd=geometry["t_fwd"],
                         omega_train=SPLIT_TRAIN, omega_val=SPLIT_VAL, seed=args.split_seed)


def _read_split(args):
    """The samples that ``args.samples`` names, their header, the dataset
    config of that header and ``args.split_seed``, and its split."""
    samples, header = read_samples(args.samples)
    dcfg = _dataset_config(args, header)
    return samples, header, dcfg, split_dataset(samples.sample_ids.tolist(), dcfg)


def _add_required(p, *flags):
    """Required flags: ``--seed`` takes a seed, every other one a path."""
    for flag in flags:
        p.add_argument(f"--{flag}", required=True, **({"type": _SEED} if flag == "seed" else {}))


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


# ---------------------------------------------------------------- synth

# the corpus is a fixture around the method: every platoon has the same size
# and length, the idm followers share one parameter set, and the lead vehicle
# follows synth.LeadProfile's defaults
SYNTH_IDM = IdmParams(v_free=22.495, a_max=0.911, b_comf=2.859, s0=1.627, t_gap=1.132)
SYNTH_VEHICLES = 4
SYNTH_STEPS = 80
SPLIT_TRAIN, SPLIT_VAL = 0.6, 0.2  # shares of the samples; the test split gets the rest


# Each command returns its exit code, the paths it wrote and the samples
# header it read (or None): main writes the manifest from them.

def _cmd_synth(args):
    params = SYNTH_IDM if args.generator == "idm" else NewellParams(w=args.wave_speed)
    cfg = SynthConfig(
        generator=args.generator, params=params, n_platoons=args.platoons,
        vehicles_per_platoon=SYNTH_VEHICLES, duration_steps=SYNTH_STEPS,
        delta=args.delta, noise_sigma=args.noise_sigma, seed=args.seed,
        initial_gap=args.initial_gap,
    )
    diag = generate_corpus(cfg, args.out)
    print(f"wrote {diag['rows']} rows ({diag['vehicles']} vehicles) to {args.out}")
    return 0, [args.out], None


# -------------------------------------------------------------- extract

def _cmd_extract(args):
    dcfg = _dataset_config(args, vars(args))
    series = parse_trajectory_csv(args.input, dcfg.delta)
    samples = extract_samples(series, dcfg)
    sidecar = write_samples(samples, args.out, dcfg)
    print(f"extracted {len(samples)} samples from {len(series)} vehicle series")
    return 0, [args.out, sidecar], None


# ------------------------------------------------------------ calibrate

def _cmd_calibrate(args):
    samples, header, dcfg, split = _read_split(args)
    ccfg = CalibrationConfig(model=args.model, sample_size=args.sample_size,
                             repetitions=args.repetitions, seed=args.seed)
    report = monte_carlo_calibrate(samples.select(split.train_ids), ccfg, dcfg.delta)
    report.write_json(args.out)
    print(f"calibrated {args.model}: mean params {report.param_mean}")
    return 0, [args.out], header


# ---------------------------------------------------------------- train

def _cmd_train(args):
    samples, header, dcfg, split = _read_split(args)
    tconf, nconf = training_configs(args, dcfg, args.variant, args.seed)
    params = load_params(args.params_file) if args.params_file else None
    net, report = train(samples, split, tconf, nconf, dcfg.delta, params)
    weights = os.path.join(args.out, "weights.json")
    rpt = os.path.join(args.out, "train_report.json")
    save_net(net, weights)
    report.write_json(rpt)
    last = report.per_epoch[-1]
    print(f"trained {args.variant}: {len(report.per_epoch)} epochs, "
          f"best epoch {report.best_epoch}, final val mse_a {last['mse_a_val']:.6g}")
    return 0, [weights, rpt], header


# -------------------------------------------------------------- predict

def _cmd_predict(args):
    samples, header, dcfg, split = _read_split(args)
    subset = {"train": split.train_ids, "val": split.val_ids,
              "test": split.test_ids, "all": None}[args.subset]
    targets = samples if subset is None else samples.select(subset)
    params = load_params(args.params_file) if args.params_file else None
    net = load_net(args.weights) if args.weights else None
    preds = predict_many(args.variant, targets, delta=dcfg.delta, params=params, net=net)
    write_records(preds, args.out)
    print(f"wrote {len(preds)} prediction records to {args.out}")
    return 0, [args.out], header


# ------------------------------------------------------------- evaluate

def _cmd_evaluate(args):
    samples, header = read_samples(args.samples)
    preds = read_records(args.records)
    truth = samples.select(preds.sample_ids)
    mse_a, mse_v = mse_metrics(preds, truth, header["delta"])
    serialize.write_json(args.out, {
        "n_samples": len(preds),
        "mse_a_test": mse_a,
        "mse_v_test": mse_v,
        "collision_count": int(preds.collision_in_rollout.sum()),
    })
    print(f"mse_a={mse_a:.6g} mse_v={mse_v:.6g} over {len(preds)} samples")
    return 0, [args.out], header


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
    variants = tuple(args.variants.split(","))
    data_sizes = tuple(map(int, args.data_sizes.split(",")))
    seeds = tuple(map(int, args.seeds.split(","))) if args.seeds else (args.seed,)
    samples, header = read_samples(args.samples)
    dcfg = _dataset_config(args, header)
    sweep = SweepConfig(
        variants=variants, data_sizes=data_sizes, seeds=seeds,
        physics_model=args.model, cell=args.cell,
        units1=args.units1, units2=args.units2, dense_units=args.dense_units,
        dropout=args.dropout, activation=args.activation,
        max_epochs=args.max_epochs, batch_size=args.batch_size,
        patience=args.patience, lr=args.lr, mu=args.mu,
    )
    cells = run_sweep(samples, dcfg, sweep, on_cell=_print_cell)
    paths = write_sweep_outputs(cells, args.out)
    paths += emit_plot_data(cells, args.out)
    failures = [c for c in cells if c.error is not None]
    print(f"sweep: {len(cells) - len(failures)}/{len(cells)} cells succeeded")
    return (4 if failures else 0), paths, header


# ------------------------------------------------------------ gradcheck

# the toy net whose gradients gradcheck checks, over 5 time steps
GRADCHECK_NET = NetConfig(cell="lstm", units1=4, units2=3, dense_units=4, output_dim=3,
                          input_dim=6, dropout=0.0, output_activation="linear", seed=12345)


def _cmd_gradcheck(args):
    err = gradient_check(replace(GRADCHECK_NET, cell=args.cell), t_steps=5)
    print(f"max relative gradient error: {err:.3e}")
    return (0 if err < 1e-4 else 3), [], None


# ------------------------------------------------------------- dispatch

def build_parser() -> _Parser:
    parser = _Parser(prog="phyres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[_CONFIG], help="generate a synthetic trajectory corpus")
    _add_required(p, "out", "seed")
    p.add_argument("--generator", choices=["idm", "newell_shift"], default="idm")
    p.add_argument("--platoons", type=_SIZE, default=10)
    p.add_argument("--delta", type=_FINITE_FLOAT, default=0.1)
    p.add_argument("--noise-sigma", type=_FINITE_FLOAT, default=0.0)
    p.add_argument("--wave-speed", type=_FINITE_FLOAT, default=4.0)
    p.add_argument("--initial-gap", type=_FINITE_FLOAT, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", parents=[_CONFIG], help="raw CSV -> samples file")
    _add_required(p, "input", "out")
    p.add_argument("--delta", type=_FINITE_FLOAT, default=0.1)
    p.add_argument("--k-vehicles", type=int, default=4)
    p.add_argument("--t-back", type=int, default=20)
    p.add_argument("--t-fwd", type=int, default=5)
    _add_split_seed(p)  # unread; perfbench's pipeline workload passes it
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("calibrate", parents=[_CONFIG],
                       help="fit physics parameters on the train split")
    _add_required(p, "samples", "out", "seed")
    p.add_argument("--model", choices=tuple(PARAM_ORDER), required=True)
    p.add_argument("--sample-size", type=int, default=300)
    p.add_argument("--repetitions", type=int, default=5)
    _add_split_seed(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("train", parents=[_CONFIG], help="train a predictor variant")
    _add_required(p, "samples", "out", "seed")
    p.add_argument("--variant", choices=VARIANTS[1:], required=True)
    p.add_argument("--params-file", default=None,
                   help="calibration report JSON (pinn/perl)")
    _add_training_flags(p, max_epochs=200, patience=20)
    _add_split_seed(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", parents=[_CONFIG], help="emit prediction records")
    _add_required(p, "samples", "out")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--params-file", default=None)
    p.add_argument("--subset", choices=["train", "val", "test", "all"], default="test")
    _add_split_seed(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", parents=[_CONFIG], help="score prediction records")
    _add_required(p, "samples", "records", "out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", parents=[_CONFIG], help="training-data-size sweep")
    _add_required(p, "samples", "out", "seed")
    p.add_argument("--seeds", type=_list_of(_SEED), default=None,
                   help="comma list; overrides --seed")
    p.add_argument("--variants", type=_list_of(_variant), default="physics,nn,pinn,perl")
    p.add_argument("--data-sizes", type=_list_of(_SIZE), default="300,500,1000")
    p.add_argument("--model", choices=tuple(PARAM_ORDER), default="newell")
    _add_training_flags(p, max_epochs=100, patience=15)
    _add_split_seed(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gradcheck", parents=[_CONFIG],
                       help="verify BPTT gradients vs finite differences")
    p.add_argument("--cell", choices=CELLS, default="lstm")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _apply_config_file(parser, argv):
    """Load --config JSON (if present) as subcommand defaults."""
    path = _CONFIG.parse_known_args(argv)[0].config
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
    # a key of another command is allowed, so that one file serves several; a
    # config file names no other (and set_defaults would edit the shared --config)
    settings = {a.dest for p in commands.values() for a in p._actions
                if a.dest not in ("help", "config")}
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
        started = time.monotonic()
        threads = forkpool.blas_threads(1)  # as in a pool's workers; the caller's count comes back
        try:
            code, outputs, header = args.func(args)
        finally:
            forkpool.blas_threads(threads)
        if outputs:  # gradcheck writes nothing
            _write_manifest(args, outputs, header, started)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (PhyresError, OSError) as exc:  # a missing file, a folder for a file, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
