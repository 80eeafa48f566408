"""Physics-parameter calibration.

Calibration minimizes the mean squared one-step acceleration error over a
set of training samples (the direct model forms; the wave-speed shift,
IDM and FVD all predict the first future step from the t0 state).

* wave-speed model: golden-section search on w in [1, 10] m/s (tolerance
  1e-3), seeded by a coarse bracketing scan so the refinement starts in
  the global basin;
* IDM / FVD: Nelder-Mead on logistic box-transformed parameters with
  seeded random restarts, so the optimizer can never propose invalid
  physics.  FVD fits only (kappa, lambda); the optimal-speed constants
  are fixed at the adopted literature values.

A fit slices the samples' one-step inputs (``physics.OneStepInputs``) once;
each objective call builds the candidate's params positionally and pays for
one kernel call and a mean.

Monte-Carlo repetition draws n samples without replacement per
repetition (repetition-indexed sub-seeds) and reports per-parameter mean
and variance.  IDM and FVD fit them in ``forkpool`` workers, one per CPU
and at most one per repetition, when that makes two or more; a Newell fit
(about 4 ms) stays in-process, as forking a pool costs 11-15 ms.  Neither the report nor the error (that of
the lowest failing repetition) depends on where the repetitions ran.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from . import forkpool, serialize
from .domain import SampleBatch
from .errors import CalibrationError, ConfigError
from .physics import (FVD_FIXED, FvdParams, IdmParams, NewellParams, OneStepInputs,
                      PhysicsParams, model_name, one_step_batch)

__all__ = ["CalibrationConfig", "CalibrationReport", "fit_physics",
           "monte_carlo_calibrate", "calibration_objective", "make_params",
           "params_to_dict", "DEFAULT_BOUNDS", "PARAM_ORDER"]

DEFAULT_BOUNDS = {
    "newell": {"w": (1.0, 10.0)},
    "idm": {
        "v_free": (5.0, 40.0),
        "a_max": (0.1, 4.0),
        "b_comf": (0.5, 6.0),
        "s0": (0.1, 10.0),
        "t_gap": (0.1, 4.0),
    },
    "fvd": {"kappa": (0.001, 2.0), "lam": (0.0, 2.0)},
}

# each model's fitted parameters, in the order of its params' fields
PARAM_ORDER = {model: list(bounds) for model, bounds in DEFAULT_BOUNDS.items()}

NM_XATOL = 1e-6
# golden-section bracket width at termination: well below the 1e-3 m/s
# requirement so held-out error is optimizer-noise free
GSS_TOL = 1e-8


@dataclass(frozen=True)
class CalibrationConfig:
    model: str                    # "newell" | "idm" | "fvd"
    sample_size: int
    repetitions: int = 5
    seed: int = 0
    nm_restarts: int = 5
    nm_maxiter: int = 2000

    def __post_init__(self):
        if self.model not in PARAM_ORDER:
            raise ConfigError(f"unknown physics model {self.model!r}")
        if self.sample_size < 1 or self.repetitions < 1:
            raise ConfigError("sample_size and repetitions must be >= 1")


# each model's params from its values in PARAM_ORDER, positionally
PARAMS_OF = {"newell": NewellParams, "idm": IdmParams,
             "fvd": lambda kappa, lam: FvdParams(kappa, lam, **FVD_FIXED)}


def make_params(model: str, values: dict) -> PhysicsParams:
    return PARAMS_OF[model](*(values[k] for k in PARAM_ORDER[model]))


def params_to_dict(params: PhysicsParams) -> dict:
    return {k: getattr(params, k) for k in PARAM_ORDER[model_name(params)]}


def calibration_objective(samples, params: PhysicsParams, delta: float) -> float:
    """Mean squared one-step acceleration error over a batch (or a list) of
    samples, or their ``OneStepInputs``; inf on non-finite output."""
    inputs = OneStepInputs.of(samples)
    err = one_step_batch(inputs, params, delta) - inputs.target
    # np.mean's own sum and division; a non-finite err makes the mean non-finite
    mse = np.add.reduce(err * err) / len(err)
    return float(mse) if np.isfinite(mse) else float("inf")


def _golden_section(f, lo, hi, tol):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _box_to_unbounded(x, lo, hi):
    frac = np.clip((x - lo) / (hi - lo), 1e-9, 1.0 - 1e-9)
    return np.log(frac / (1.0 - frac))


def _unbounded_to_box(u, lo, hi):
    return lo + (hi - lo) * expit(u)


def fit_physics(samples, config: CalibrationConfig,
                delta: float, rng: np.random.Generator | None = None
                ) -> tuple[PhysicsParams, float]:
    """Fit the model's parameters to a batch (or a list) of samples.

    Returns (params, objective value at the optimum).  ``rng`` seeds the
    Nelder-Mead restart draws; defaults to config.seed.
    """
    if not samples:
        raise ConfigError("cannot calibrate on an empty sample set")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    lo, hi = np.array(list(DEFAULT_BOUNDS[config.model].values())).T
    inputs = OneStepInputs.of(samples)  # read by every objective call
    params_of = PARAMS_OF[config.model]

    def obj_vec(x):
        return calibration_objective(inputs, params_of(*x), delta)

    if config.model == "newell":
        # coarse scan to bracket the global basin, then golden section
        grid = np.linspace(lo[0], hi[0], 46)
        vals = [obj_vec([w]) for w in grid]
        best = int(np.argmin(vals))
        blo = grid[max(best - 1, 0)]
        bhi = grid[min(best + 1, len(grid) - 1)]
        w_star, f_star = _golden_section(lambda w: obj_vec([w]), blo, bhi, GSS_TOL)
        if not np.isfinite(f_star):
            raise CalibrationError("all wave-speed candidates produced non-finite errors")
        return NewellParams(float(w_star)), f_star

    def obj_u(u):
        return obj_vec(_unbounded_to_box(u, lo, hi))

    nm_options = {"xatol": NM_XATOL, "fatol": float("inf"),
                  "maxiter": config.nm_maxiter, "maxfev": 4 * config.nm_maxiter}
    best_u, best_f = None, float("inf")
    for _ in range(config.nm_restarts):
        x0 = rng.uniform(lo, hi)
        res = minimize(obj_u, _box_to_unbounded(x0, lo, hi),
                       method="Nelder-Mead", options=nm_options)
        if np.isfinite(res.fun) and res.fun < best_f:
            best_f, best_u = float(res.fun), res.x
    if best_u is None:
        raise CalibrationError(f"{config.model} calibration: no finite optimum found")
    # polish: restarting the simplex from the incumbent escapes the
    # premature shrinkage Nelder-Mead is prone to in flat valleys
    for _ in range(2):
        res = minimize(obj_u, best_u, method="Nelder-Mead", options=nm_options)
        if np.isfinite(res.fun) and res.fun < best_f:
            best_f, best_u = float(res.fun), res.x
    return params_of(*_unbounded_to_box(best_u, lo, hi)), best_f


@dataclass
class CalibrationReport:
    model: str
    sample_size: int
    repetitions: int
    seed: int
    per_repetition: list[dict]    # [{params: {...}, mse: float}]
    param_mean: dict
    param_variance: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path) -> None:
        serialize.write_json(path, self.to_dict())


def _repetition(train_samples, config: CalibrationConfig, delta: float, rep: int) -> dict:
    """Repetition ``rep``'s fit, on its own draw of ``config.sample_size`` samples."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, rep]))
    idx = rng.choice(len(train_samples), size=config.sample_size, replace=False)
    try:
        params, mse = fit_physics(SampleBatch.of(train_samples, idx), config, delta, rng=rng)
    except CalibrationError as exc:
        raise CalibrationError(f"repetition {rep}: {exc}") from exc
    return {"params": params_to_dict(params), "mse": mse}


def monte_carlo_calibrate(train_samples, config: CalibrationConfig,
                          delta: float) -> CalibrationReport:
    """Repeated calibration on random sub-draws of the training samples, a
    batch or a list; only each repetition's draw is stacked.  IDM and FVD
    repetitions run in forked processes when two or more CPUs are free."""
    n = config.sample_size
    if len(train_samples) < n:
        raise ConfigError(
            f"need at least {n} training samples, have {len(train_samples)}")
    jobs = [(train_samples, config, delta, rep) for rep in range(config.repetitions)]
    if config.model == "newell" or forkpool.workers(len(jobs)) < 2:
        per_rep = [_repetition(*job) for job in jobs]
    else:
        done = dict(forkpool.completed(_repetition, jobs))
        per_rep = []
        for rep in range(config.repetitions):  # in order: the lowest failing one raises
            try:
                per_rep.append(done[rep].result())
            except BrokenExecutor as exc:  # the worker died
                raise CalibrationError(f"repetition {rep}: {exc}") from exc
    names = PARAM_ORDER[config.model]
    mat = np.array([[r["params"][n_] for n_ in names] for r in per_rep])
    return CalibrationReport(
        model=config.model, sample_size=n, repetitions=config.repetitions,
        seed=config.seed, per_repetition=per_rep,
        param_mean={n_: float(m) for n_, m in zip(names, mat.mean(axis=0))},
        param_variance={n_: float(v) for n_, v in zip(names, mat.var(axis=0))},
    )
