"""The three workloads: untimed set-up, one timed pass, and output checks.

Every workload draws its inputs from a synthetic corpus with noise (sigma
0.1) of 30 platoons, half the corpus of acceptance criterion 6.  The workload
seed fixes the corpus, split, calibration and training seeds; phyres only
sees the generated inputs.

* ``calib`` fits newell, fvd and idm in-process with
  ``calibrate.monte_carlo_calibrate`` on the train split of an IDM corpus.
* ``sweep`` runs ``phyres sweep --data-sizes 300`` (newell, the CLI's model)
  through ``cli.main`` on a samples file written during set-up.
* ``pipeline`` runs synth, extract, calibrate, train, predict and evaluate
  through ``cli.main``; every stage is timed.

The amount of work in a pass is the same for every seed, so that the time of
a pass shows phyres and the host rather than the seed.  Hence the fixed
epoch counts, the Nelder-Mead iteration caps of calib, and the time-shift
corpus of sweep and pipeline: on it the newell fit (a grid scan, then a
golden section) makes the same calls on every seed and fits down to the
noise.  The quality metrics (``Workload.quality``) use only the fits of the
model that generated the corpus: how well a wrong model fits depends on the
corpus far more than on phyres.

phyres functions are always looked up as module attributes at call time, so
that the tracer sees the calls made from this file too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from phyres import calibrate, cli, domain, evaluation, ingest, physics, synth

DELTA = 0.1
# The CLI's synth defaults, which are also the acceptance suite's IDM.
IDM_TRUE = {"v_free": 22.495, "a_max": 0.911, "b_comf": 2.859, "s0": 1.627,
            "t_gap": 1.132}
NOISE_SIGMA = 0.1
WAVE_SPEED = 4.0  # the CLI's synth default for the time-shift generator
# A 6 m gap puts the 4 m/s wave's delay (15 steps) well inside the 20-step
# history the time-shift predictor reads.
INITIAL_GAP = 6.0
# Nelder-Mead iteration caps for calib.  Every idm run reaches its cap, so
# the idm fits make nearly the same number of objective calls on every seed
# (interquartile range 1% of the median over eight seeds, against 8% when
# they run to convergence).  fvd converges within 50 iterations on most
# draws; the cap only stops the polishing of flat valleys.
NM_MAXITER = {"fvd": 50, "idm": 200}
TRUE_PARAMS = {"idm": IDM_TRUE, "newell": {"w": WAVE_SPEED}}
CALIB_MODELS = ("newell", "fvd", "idm")
SWEEP_VARIANTS = ("nn", "perl", "physics", "pinn")
PIPELINE_STAGES = ("synth", "extract", "calibrate", "train", "predict", "evaluate")


@dataclass(frozen=True)
class Scale:
    """Input sizes; SMOKE shrinks every workload to a fraction of a second."""

    platoons: int = 30
    calib_sample_size: int = 100
    calib_repetitions: int = 6
    sweep_data_size: int = 300
    sweep_epochs: int = 40
    pipeline_calib_size: int = 300
    pipeline_epochs: int = 5
    setup_repeats: int = 3


FULL = Scale()
SMOKE = Scale(platoons=3, calib_sample_size=40, calib_repetitions=1,
              sweep_data_size=40, sweep_epochs=1, pipeline_calib_size=40,
              pipeline_epochs=1, setup_repeats=1)


@dataclass(frozen=True)
class Seeds:
    corpus: int
    split: int
    calib: int
    train: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        state = np.random.SeedSequence(seed).generate_state(4)
        return cls(*(int(s) % 2 ** 31 for s in state))


@dataclass
class Outcome:
    """What the checks found in one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def dataset_config(seeds: Seeds) -> domain.DatasetConfig:
    return domain.DatasetConfig(delta=DELTA, k_vehicles=4, t_back=20, t_fwd=5,
                                omega_train=0.6, omega_val=0.2, seed=seeds.split)


def split_lists(samples, dcfg):
    split = domain.split_dataset([s.sample_id for s in samples], dcfg)
    train = [s for s in samples if s.sample_id in split.train_ids]
    test = [s for s in samples if s.sample_id in split.test_ids]
    return train, test


def _synth_config(generator: str, seeds: Seeds, scale: Scale) -> synth.SynthConfig:
    if generator == "idm":
        params, gap = physics.IdmParams(**IDM_TRUE), None
    else:
        params, gap = physics.NewellParams(w=WAVE_SPEED), INITIAL_GAP
    return synth.SynthConfig(
        generator=generator, params=params, n_platoons=scale.platoons,
        vehicles_per_platoon=4, duration_steps=80, delta=DELTA,
        noise_sigma=NOISE_SIGMA, seed=seeds.corpus, initial_gap=gap)


def _build_samples(work: Path, generator: str, seeds: Seeds, scale: Scale):
    corpus = work / "corpus.csv"
    synth.generate_corpus(_synth_config(generator, seeds, scale), corpus)
    dcfg = dataset_config(seeds)
    samples = ingest.extract_samples(ingest.parse_trajectory_csv(corpus, DELTA), dcfg)
    return samples, dcfg


def _physics_mse(samples, model: str, params: dict) -> float:
    records = evaluation.predict_many("physics", samples, delta=DELTA,
                                      params=calibrate.make_params(model, params))
    return evaluation.mse_metrics(records, samples, DELTA)[0]


def _objective(train, model: str, params: dict) -> float:
    return calibrate.calibration_objective(train, calibrate.make_params(model, params), DELTA)


def _run_cli(argv) -> int:
    # phyres reports progress on stdout; keep stdout for the result line
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file; manifests without their wall clock."""
    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        result[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return result


class Workload:
    """Set-up once, then ``run`` one timed pass and ``check`` its outputs."""

    name = ""

    def __init__(self, work: Path, seeds: Seeds, scale: Scale):
        self.work, self.seeds, self.scale = work, seeds, scale
        self._true_errors = None

    def quality(self, model: str, fits: list[dict], mse_a_test: float,
                train, test) -> dict[str, float]:
        """The quality metrics, each a ratio to what the corpus's generating
        parameters give on the same samples.

        ``mse_a_test`` is the given test MSE over that of the physics
        predictor with the generating parameters on ``test``; ``calib_mse``
        is the median over ``fits`` of the one-step objective on the whole
        ``train`` split, over the objective of the generating parameters.
        Both errors are mostly the corpus's noise, which differs from seed
        to seed by 5-10%; the ratios keep only what phyres adds to it."""
        if self._true_errors is None:  # the samples are the same on every pass
            true = TRUE_PARAMS[model]
            self._true_errors = (_physics_mse(test, model, true),
                                 _objective(train, model, true))
        mse_true, objective_true = self._true_errors
        objective = float(np.median([_objective(train, model, p) for p in fits]))
        return {"mse_a_test": mse_a_test / mse_true,
                "calib_mse": objective / objective_true}


# ------------------------------------------------------------------- calib

class Calib(Workload):
    name = "calib"

    def setup(self) -> None:
        samples, dcfg = _build_samples(self.work, "idm", self.seeds, self.scale)
        self.train, self.test = split_lists(samples, dcfg)

    def run(self, out: Path) -> list[str]:
        errors = []
        for model in CALIB_MODELS:
            cfg = calibrate.CalibrationConfig(
                model=model, sample_size=self.scale.calib_sample_size,
                repetitions=self.scale.calib_repetitions, seed=self.seeds.calib,
                **({"nm_maxiter": NM_MAXITER[model]} if model in NM_MAXITER else {}))
            try:
                report = calibrate.monte_carlo_calibrate(self.train, cfg, DELTA)
            except Exception as exc:  # a failed fit is counted, not fatal
                errors.append(f"{model}: {exc!r}")
                continue
            report.write_json(out / f"calibration_{model}.json")
        return errors

    def check(self, out: Path, errors: list[str]) -> Outcome:
        outcome = Outcome(problems=list(errors))
        reports = {}
        for model in CALIB_MODELS:
            path = out / f"calibration_{model}.json"
            reps = json.loads(path.read_text())["per_repetition"] if path.exists() else []
            if len(reps) != self.scale.calib_repetitions:
                for _ in range(self.scale.calib_repetitions):
                    outcome.op(False, f"{model}: no calibration report")
                continue
            reports[model] = reps
            for i, rep in enumerate(reps):
                inside = all(lo <= rep["params"][name] <= hi for name, (lo, hi)
                             in calibrate.DEFAULT_BOUNDS[model].items())
                outcome.op(inside and math.isfinite(rep["mse"]),
                           f"{model} fit {i}: params {rep['params']} mse {rep['mse']}")
        if "idm" in reports:
            fits = [rep["params"] for rep in reports["idm"]]
            mean = {k: float(np.mean([p[k] for p in fits])) for k in fits[0]}
            outcome.quality = self.quality("idm", fits, _physics_mse(self.test, "idm", mean),
                                           self.train, self.test)
        return outcome


# ------------------------------------------------------------------- sweep

class Sweep(Workload):
    name = "sweep"

    def __init__(self, work: Path, seeds: Seeds, scale: Scale):
        super().__init__(work, seeds, scale)
        self.samples_path = work / "samples.jsonl"

    def setup(self) -> None:
        samples, dcfg = _build_samples(self.work, "newell_shift", self.seeds, self.scale)
        ingest.write_samples(samples, self.samples_path, dcfg)
        self.train, self.test = split_lists(samples, dcfg)

    def run(self, out: Path) -> list[str]:
        epochs = str(self.scale.sweep_epochs)
        code = _run_cli([
            "sweep", "--samples", str(self.samples_path), "--out", str(out),
            "--seed", str(self.seeds.train),
            "--data-sizes", str(self.scale.sweep_data_size),
            "--max-epochs", epochs, "--patience", epochs,
            "--split-seed", str(self.seeds.split)])
        return [] if code == 0 else [f"sweep exited {code}"]

    def check(self, out: Path, errors: list[str]) -> Outcome:
        outcome = Outcome(problems=list(errors))
        agg_path = out / "aggregate.json"
        rows = json.loads(agg_path.read_text()) if agg_path.exists() else []
        whole_ok = not errors and len(rows) == len(SWEEP_VARIANTS)
        if len(rows) != len(SWEEP_VARIANTS):
            outcome.problems.append(f"aggregate.json has {len(rows)} rows")
        fits = []
        for variant in SWEEP_VARIANTS:
            path = (out / "sweep" / variant / str(self.scale.sweep_data_size)
                    / str(self.seeds.train) / "report.json")
            report = json.loads(path.read_text()) if path.exists() else None
            ok = (whole_ok and report is not None and report["error"] is None
                  and math.isfinite(report["eval"]["mse_a_test"]))
            outcome.op(ok, f"cell {variant}: {report and report['error']}")
            if ok and report["calibration"] is not None:
                fits.append(report["calibration"]["per_repetition"][0]["params"])
        perl = [r["mse_a_test"] for r in rows if r["variant"] == "perl"]
        if perl and fits:
            outcome.quality = self.quality("newell", fits, perl[0], self.train, self.test)
        return outcome


# ---------------------------------------------------------------- pipeline

class Pipeline(Workload):
    name = "pipeline"

    def setup(self) -> None:
        """Nothing is built ahead: the pass starts from synth."""

    @staticmethod
    def paths(out: Path) -> dict[str, Path]:
        # one directory per stage, so that every stage keeps its manifest
        return {"corpus": out / "synth" / "corpus.csv",
                "samples": out / "extract" / "samples.jsonl",
                "params": out / "calibrate" / "report.json",
                "train": out / "train",
                "preds": out / "predict" / "preds.jsonl",
                "metrics": out / "evaluate" / "metrics.json"}

    def run(self, out: Path) -> list[str]:
        p = {k: str(v) for k, v in self.paths(out).items()}
        split = ["--split-seed", str(self.seeds.split)]
        stages = [
            ["synth", "--out", p["corpus"], "--seed", str(self.seeds.corpus),
             "--platoons", str(self.scale.platoons),
             "--noise-sigma", str(NOISE_SIGMA), "--generator", "newell_shift",
             "--wave-speed", str(WAVE_SPEED), "--initial-gap", str(INITIAL_GAP)],
            ["extract", "--input", p["corpus"], "--out", p["samples"]] + split,
            ["calibrate", "--samples", p["samples"], "--out", p["params"],
             "--seed", str(self.seeds.calib), "--model", "newell",
             "--sample-size", str(self.scale.pipeline_calib_size)] + split,
            ["train", "--samples", p["samples"], "--out", p["train"],
             "--seed", str(self.seeds.train), "--variant", "perl",
             "--params-file", p["params"],
             "--max-epochs", str(self.scale.pipeline_epochs)] + split,
            ["predict", "--samples", p["samples"], "--out", p["preds"],
             "--variant", "perl", "--weights", p["train"] + "/weights.json",
             "--params-file", p["params"], "--subset", "all"] + split,
            ["evaluate", "--samples", p["samples"], "--records", p["preds"],
             "--out", p["metrics"]],
        ]
        for argv in stages:
            code = _run_cli(argv)
            if code != 0:
                return [f"{argv[0]} exited {code}"]
        return []

    def check(self, out: Path, errors: list[str]) -> Outcome:
        outcome = Outcome(problems=list(errors))
        p = self.paths(out)
        ok = {}
        for stage in PIPELINE_STAGES:
            manifest = out / stage / "manifest.json"
            ok[stage] = (manifest.exists()
                         and json.loads(manifest.read_text())["command"] == stage)
        if ok["predict"]:
            ok["predict"] = _perl_records_compose(p["preds"])
        if ok["evaluate"]:
            ok["evaluate"] = _metrics_match(p["samples"], p["preds"], p["metrics"])
        for stage in PIPELINE_STAGES:
            outcome.op(ok[stage], f"stage {stage} failed its check")
        if all(ok.values()):
            # predict and evaluate ran on every sample (--subset all)
            samples, _ = ingest.read_samples(p["samples"])
            train, _ = split_lists(samples, dataset_config(self.seeds))
            reps = json.loads(p["params"].read_text())["per_repetition"]
            outcome.quality = self.quality(
                "newell", [r["params"] for r in reps],
                json.loads(p["metrics"].read_text())["mse_a_test"], train, samples)
        return outcome


def _read_jsonl(path: Path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _perl_records_compose(preds: Path) -> bool:
    """Every perl record satisfies predicted - physics - residual == 0."""
    for rec in _read_jsonl(preds):
        total = np.array(rec["predicted_accel"])
        rest = total - np.array(rec["physics_component"]) - np.array(rec["residual_component"])
        if not np.all(rest == 0.0):
            return False
    return True


def _metrics_match(samples_path: Path, preds: Path, metrics: Path) -> bool:
    """Recompute metrics.json from the records and samples with plain numpy."""
    header, *rows = _read_jsonl(samples_path)
    truth = {r["sample_id"]: r for r in rows}
    records = _read_jsonl(preds)
    if sorted(r["sample_id"] for r in records) != sorted(truth):
        return False
    a_true = np.array([truth[r["sample_id"]]["ego_future_accel"] for r in records])
    v0 = np.array([truth[r["sample_id"]]["ego_speed_at_t0"] for r in records])
    v_true = v0[:, None] + header["delta"] * np.cumsum(a_true, axis=1)
    mse_a = float(np.mean((a_true - np.array([r["predicted_accel"] for r in records])) ** 2))
    mse_v = float(np.mean((v_true - np.array([r["predicted_speed"] for r in records])) ** 2))
    got = json.loads(metrics.read_text())
    return (got["n_samples"] == len(records)
            and got["collision_count"] == sum(r["collision_in_rollout"] for r in records)
            and math.isclose(got["mse_a_test"], mse_a, rel_tol=1e-12)
            and math.isclose(got["mse_v_test"], mse_v, rel_tol=1e-12))


WORKLOADS = {cls.name: cls for cls in (Calib, Sweep, Pipeline)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
