"""Physics-parameter calibration.

Calibration minimizes the mean squared one-step acceleration error over a
set of training samples (the direct model forms; the wave-speed shift,
IDM and FVD all predict the first future step from the t0 state).

* wave-speed model: golden-section search on w in [1, 10] m/s down to a
  bracket of ``GSS_TOL`` (1e-8 m/s, far below the 1e-3 m/s requirement),
  seeded by a coarse bracketing scan so the refinement starts in the global
  basin;
* IDM / FVD: Nelder-Mead on logistic box-transformed parameters with
  seeded random restarts, so the optimizer can never propose invalid
  physics.  FVD fits only (kappa, lambda); the optimal-speed constants
  are fixed at the adopted literature values.

A fit slices the samples' one-step inputs (``physics.OneStepInputs``) once.
The restarts run in lockstep: each search is a generator that yields its
trial points, and each round scores every unfinished search's point in one
kernel call, on (k, 1) parameter columns (``physics.Candidates``), with no
params object built or checked per point.  The polishes, which start from
the best point so far, run one at a time.

Monte-Carlo repetition draws n samples without replacement per repetition
(repetition-indexed sub-seeds) and reports per-parameter mean and variance.
IDM and FVD fit them in ``forkpool`` workers, one per CPU and at most one per
repetition, when that makes two or more; a Newell fit (about 4 ms) stays
in-process, as forking a pool costs 11-15 ms.  Neither the report nor the
error (that of the lowest failing repetition) depends on where they ran.

The Nelder-Mead search and the logistic map are ports of scipy's
(``minimize(method="Nelder-Mead")``, ``special.expit``) that give their bits,
without the ~49 MB and ~0.4 s that importing ``scipy.optimize`` costs.  Both
run on Python floats; the simplex is sorted by numpy's argsort, whose order for
ties of 4 or more is no stable sort's.  An IDM kernel call on 100 samples
costs about 5 us a point when it scores five, and 12 us when it scores one.
"""

from __future__ import annotations

import math
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import forkpool, serialize
from .domain import SampleBatch
from .errors import CalibrationError, ConfigError, DataError
from .physics import (FVD_FIXED, Candidates, FvdParams, IdmParams, NewellParams,
                      OneStepInputs, PhysicsParams, model_name, one_step_batch)

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
NM_RESTARTS = 5  # Nelder-Mead starts, each from a seeded uniform draw in the box
# golden-section bracket width at termination: well below the 1e-3 m/s
# requirement so held-out error is optimizer-noise free
GSS_TOL = 1e-8


@dataclass(frozen=True)
class CalibrationConfig:
    model: str                    # "newell" | "idm" | "fvd"
    sample_size: int
    repetitions: int = 5
    seed: int = 0
    nm_maxiter: int = 2000

    def __post_init__(self):
        if self.model not in PARAM_ORDER:
            raise ConfigError(f"unknown physics model {self.model!r}")
        if self.sample_size < 1 or self.repetitions < 1:
            raise ConfigError("sample_size and repetitions must be >= 1")
        if self.nm_maxiter < 1:
            raise ConfigError("nm_maxiter must be >= 1")


# each model's params from its values in PARAM_ORDER, positionally
PARAMS_OF = {"newell": NewellParams, "idm": IdmParams,
             "fvd": lambda kappa, lam: FvdParams(kappa, lam, **FVD_FIXED)}


def make_params(model: str, values: dict) -> PhysicsParams:
    return PARAMS_OF[model](*(values[k] for k in PARAM_ORDER[model]))


def params_to_dict(params: PhysicsParams) -> dict:
    return {k: getattr(params, k) for k in PARAM_ORDER[model_name(params)]}


def calibration_objective(samples, params: PhysicsParams | Candidates,
                          delta: float) -> float | list[float]:
    """Mean squared one-step acceleration error over a batch (or a list) of
    samples, or their ``OneStepInputs``; inf on non-finite output.  A float
    for a model's params; for ``Candidates``, a list of each candidate's mean,
    from one kernel call."""
    inputs = OneStepInputs.of(samples)
    err = one_step_batch(inputs, params, delta) - inputs.target
    # np.mean's own sum and division, row by row; a non-finite err makes its mean non-finite
    mse = (np.add.reduce(err * err, axis=-1) / err.shape[-1]).reshape(-1).tolist()
    mse = [m if math.isfinite(m) else math.inf for m in mse]
    return mse if isinstance(params, Candidates) else mse[0]


def _golden_section(f, lo, hi, tol):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
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


def _expit(u):
    """The logistic 1 / (1 + exp(-x)) of each element, as a list of floats, in
    libm's exp as ``scipy.special.expit`` computes it (numpy's vectorised exp
    rounds some values otherwise); 0.0 where exp(-x) overflows."""
    out = []
    for x in u:
        try:
            out.append(1.0 / (1.0 + math.exp(-x)))
        except OverflowError:
            out.append(0.0)
    return out


class _OutOfEvaluations(Exception):
    pass


def _search(x0, xatol, maxiter, maxfev):
    """scipy 1.17.1's ``minimize(f, x0, method="Nelder-Mead", options={"xatol":
    xatol, "fatol": inf, "maxiter": maxiter, "maxfev": maxfev})``, bit for bit,
    as a generator: it yields each point (a list of floats, not to be kept or
    changed) where scipy calls ``f``, is sent ``f`` of it, and returns (x,
    f(x)).  Its default simplex, steps (not adaptive), evaluation order, sorts
    and evaluation budget, which may run out in the middle of a shrink, are
    scipy's."""
    calls = 0

    def fun(x):
        nonlocal calls
        if calls >= maxfev:
            raise _OutOfEvaluations
        calls += 1
        return (yield x)

    def by_value(sim, fsim):
        # numpy's order, in which ties of 4 or more need not keep their places
        ind = np.array(fsim).argsort().tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * x0[k] if x0[k] != 0 else 0.00025] + x0[k + 1:]
                  for k in range(n)]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = yield from fun(sim[k])
    except _OutOfEvaluations:
        pass
    sim, fsim = by_value(*by_value(sim, fsim))  # scipy sorts twice here
    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            # with fatol = inf, the f test fails only on a nan spread (inf - inf)
            if all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, sim[0])) \
                    and not any(math.isnan(fsim[0] - g) for g in fsim[1:]):
                break
            xbar = sim[0]  # np.add.reduce's column sums, row after row
            for v in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, v)]
            xbar = [a / n for a in xbar]
            xr = [2 * a - b for a, b in zip(xbar, sim[-1])]
            fxr = yield from fun(xr)
            if fxr < fsim[0]:
                xe = [3 * a - 2 * b for a, b in zip(xbar, sim[-1])]
                fxe = yield from fun(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, sim[-1])]
                    fxc = yield from fun(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, sim[-1])]
                    fxc = yield from fun(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (b - a) for a, b in zip(sim[0], sim[j])]
                        fsim[j] = yield from fun(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0], float(np.min(fsim))


def _lockstep(searches, score):
    """Run ``_search`` generators together until each returns; their results,
    in order.  Each round ``score`` gets every unfinished search's pending
    point in one list and gives their values in order."""
    results = [None] * len(searches)
    pending = []  # (index, search, its point), in the searches' order

    def advance(i, search, value):
        try:
            pending.append((i, search, search.send(value)))
        except StopIteration as done:
            results[i] = done.value

    for i, search in enumerate(searches):
        advance(i, search, None)
    while pending:
        batch, pending = pending, []
        for (i, search, _), value in zip(batch, score([x for _, _, x in batch])):
            advance(i, search, value)
    return results


def _nelder_mead(f, x0, xatol, maxiter, maxfev):
    """(x, f(x)) of one ``_search``, which calls ``f`` on each point in turn."""
    return _lockstep([_search(x0, xatol, maxiter, maxfev)], lambda xs: [f(xs[0])])[0]


def _candidates(model: str, points) -> Candidates:
    """The points (lists of the model's PARAM_ORDER values) as one
    ``Candidates``: (k, 1) columns, or a single point's floats."""
    cols = np.array(points).T[:, :, None] if len(points) > 1 else points[0]
    return Candidates(model=model, **dict(zip(PARAM_ORDER[model], cols)),
                      **(FVD_FIXED if model == "fvd" else {}))


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
    lo_, width = lo.tolist(), (hi - lo).tolist()  # to_box's, on floats
    inputs = OneStepInputs.of(samples)  # read by every objective call
    params_of = PARAMS_OF[config.model]

    def obj_vec(x):
        return calibration_objective(inputs, params_of(*x), delta)

    if config.model == "newell":
        # coarse scan to bracket the global basin, then golden section
        grid = np.linspace(lo[0], hi[0], 46).tolist()
        vals = [obj_vec([w]) for w in grid]
        best = int(np.argmin(vals))
        blo = grid[max(best - 1, 0)]
        bhi = grid[min(best + 1, len(grid) - 1)]
        w_star, f_star = _golden_section(lambda w: obj_vec([w]), blo, bhi, GSS_TOL)
        if not math.isfinite(f_star):
            raise CalibrationError("all wave-speed candidates produced non-finite errors")
        return NewellParams(w_star), f_star

    def to_box(u):
        return [a + w * e for a, w, e in zip(lo_, width, _expit(u))]

    def score(points):  # one kernel call for all the points
        return calibration_objective(
            inputs, _candidates(config.model, [to_box(u) for u in points]), delta)

    def searches(starts):
        return _lockstep([_search(u0, NM_XATOL, config.nm_maxiter, 4 * config.nm_maxiter)
                          for u0 in starts], score)

    # the restarts run in lockstep; their starts are drawn first, as no search reads rng
    best_u, best_f = None, float("inf")
    for u, fu in searches([_box_to_unbounded(rng.uniform(lo, hi), lo, hi)
                           for _ in range(NM_RESTARTS)]):
        if math.isfinite(fu) and fu < best_f:
            best_f, best_u = fu, u
    if best_u is None:
        raise CalibrationError(f"{config.model} calibration: no finite optimum found")
    # polish: restarting the simplex from the incumbent escapes the
    # premature shrinkage Nelder-Mead is prone to in flat valleys; a polish
    # that does not improve would be repeated exactly from the same start
    for _ in range(2):
        [(u, fu)] = searches([best_u])
        if not (math.isfinite(fu) and fu < best_f):
            break
        best_f, best_u = fu, u
    return params_of(*to_box(best_u)), best_f


@dataclass
class CalibrationReport:
    model: str
    sample_size: int
    repetitions: int
    seed: int
    per_repetition: list[dict]    # [{params: {...}, mse: float}]
    param_mean: dict
    param_variance: dict

    def write_json(self, path) -> None:
        serialize.write_json(path, asdict(self))


def load_params(path) -> PhysicsParams:
    """The mean physics params of the calibration report at ``path``."""
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
