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

Monte-Carlo repetition draws n samples without replacement per
repetition (repetition-indexed sub-seeds) and reports per-parameter mean
and variance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from . import serialize
from .domain import SampleBatch
from .errors import CalibrationError, ConfigError
from .physics import (FVD_FIXED, FvdParams, IdmParams, NewellParams,
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

PARAM_ORDER = {
    "newell": ["w"],
    "idm": ["v_free", "a_max", "b_comf", "s0", "t_gap"],
    "fvd": ["kappa", "lam"],
}

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


def make_params(model: str, values: dict) -> PhysicsParams:
    if model == "newell":
        return NewellParams(w=values["w"])
    if model == "idm":
        return IdmParams(**{k: values[k] for k in PARAM_ORDER["idm"]})
    return FvdParams(kappa=values["kappa"], lam=values["lam"], **FVD_FIXED)


def params_to_dict(params: PhysicsParams) -> dict:
    return {k: getattr(params, k) for k in PARAM_ORDER[model_name(params)]}


def calibration_objective(samples, params: PhysicsParams, delta: float) -> float:
    """Mean squared one-step acceleration error over a batch (or a list) of
    samples; inf on non-finite output."""
    batch = SampleBatch.of(samples)
    preds = one_step_batch(batch, params, delta)
    err = preds - batch.ego_future_accel[:, 0]
    if not np.all(np.isfinite(err)):
        return float("inf")
    return float(np.mean(err * err))


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
    names = PARAM_ORDER[config.model]
    lo, hi = np.array([DEFAULT_BOUNDS[config.model][n] for n in names]).T
    batch = SampleBatch.of(samples)  # read by every objective call

    def obj_vec(x):
        return calibration_objective(
            batch, make_params(config.model, dict(zip(names, x))), delta)

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
        return make_params("newell", {"w": float(w_star)}), f_star

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
    best_x = _unbounded_to_box(best_u, lo, hi)
    return make_params(config.model, dict(zip(names, best_x))), best_f


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


def monte_carlo_calibrate(train_samples, config: CalibrationConfig,
                          delta: float) -> CalibrationReport:
    """Repeated calibration on random sub-draws of the training samples, a
    batch or a list; only each repetition's draw is stacked."""
    n = config.sample_size
    if len(train_samples) < n:
        raise ConfigError(
            f"need at least {n} training samples, have {len(train_samples)}")
    per_rep = []
    for rep in range(config.repetitions):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, rep]))
        idx = rng.choice(len(train_samples), size=n, replace=False)
        try:
            params, mse = fit_physics(SampleBatch.of(train_samples, idx), config, delta, rng=rng)
        except CalibrationError as exc:
            raise CalibrationError(f"repetition {rep}: {exc}") from exc
        per_rep.append({"params": params_to_dict(params), "mse": mse})
    names = PARAM_ORDER[config.model]
    mat = np.array([[r["params"][n_] for n_ in names] for r in per_rep])
    return CalibrationReport(
        model=config.model, sample_size=n, repetitions=config.repetitions,
        seed=config.seed, per_repetition=per_rep,
        param_mean={n_: float(m) for n_, m in zip(names, mat.mean(axis=0))},
        param_variance={n_: float(v) for n_, v in zip(names, mat.var(axis=0))},
    )
