"""Car-following models as pure acceleration predictors.

Three models are supported:

* time-shift model: the ego's future acceleration is its leader's
  acceleration shifted back in time by (position distance)/(wave speed);
* IDM: continuous acceleration from speed, gap and speed difference with
  a desired-headway term;
* FVD: optimal-speed deficit plus a velocity-difference term.

Multi-step IDM/FVD prediction is an explicit-Euler self-rollout with a
teacher-forced leader (its realized future accelerations are given) and a
free-running ego.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .domain import SampleBatch, TrajectorySample
from .errors import ConfigError, NumericError

ROLLOUT_GAP_FLOOR = 0.1  # m; used when a rollout gap collapses
IDM_GAP_ERROR = "IDM requires a positive gap"


@dataclass(frozen=True)
class NewellParams:
    w: float  # wave speed, m/s

    def __post_init__(self):
        if self.w <= 0:
            raise ConfigError("wave speed must be positive")


@dataclass(frozen=True)
class IdmParams:
    v_free: float   # free-flow speed, m/s
    a_max: float    # maximum acceleration, m/s^2
    b_comf: float   # comfortable deceleration, m/s^2
    s0: float       # minimum spacing, m
    t_gap: float    # desired time gap, s

    def __post_init__(self):
        for name in ("v_free", "a_max", "b_comf", "s0", "t_gap"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"IDM parameter {name} must be positive")


@dataclass(frozen=True)
class FvdParams:
    kappa: float    # 1/s
    lam: float      # 1/s
    v1: float       # m/s
    v2: float       # m/s
    c1: float       # 1/m
    c2: float       # dimensionless
    l_c: float      # m, length offset in the optimal-speed argument

    def __post_init__(self):
        if self.kappa < 0 or self.lam < 0:
            raise ConfigError("FVD sensitivities must be non-negative")
        if self.c1 <= 0:
            raise ConfigError("FVD c1 must be positive")


PhysicsParams = NewellParams | IdmParams | FvdParams

# Reference optimal-speed constants used when only kappa/lambda are fitted.
FVD_FIXED = {"v1": 6.75, "v2": 7.91, "c1": 0.13, "c2": 1.54, "l_c": 5.0}


class Candidates(SimpleNamespace):
    """k parameter sets of one model, ``model``, as attributes named after its
    params' fields: the fitted ones (k, 1) columns, or floats for one set
    (numpy runs scalars faster than (1, 1) columns), the fixed ones floats.
    The one-step formulas broadcast columns against (n,) inputs into (k, n)
    predictions.  Unchecked: a fit's box keeps every value valid."""


def model_name(params: PhysicsParams | Candidates) -> str:
    if isinstance(params, Candidates):
        return params.model
    return {NewellParams: "newell", IdmParams: "idm", FvdParams: "fvd"}[type(params)]


def idm_accel(v, dv, gap, params: IdmParams):
    """IDM acceleration; dv = v_ego - v_leader (positive when closing).

    Accepts scalars or equally-shaped arrays.
    """
    if np.any(np.asarray(gap) <= 0):
        raise NumericError(IDM_GAP_ERROR)
    return _idm_unchecked(v, dv, gap, params)


def _idm_unchecked(v, dv, gap, params: IdmParams):
    """``idm_accel`` for a gap already checked to be positive.  Floats stay
    floats (``math.sqrt``); ``Candidates`` columns take ``np.sqrt``, which
    rounds the same."""
    ab = params.a_max * params.b_comf
    root = np.sqrt(ab) if isinstance(ab, np.ndarray) else math.sqrt(ab)
    s_star = params.s0 + params.t_gap * v - v * dv / (2.0 * root)
    return params.a_max * (1.0 - (v / params.v_free) ** 4 - (s_star / gap) ** 2)


def fvd_accel(v, dv, gap, params: FvdParams):
    """FVD acceleration kappa*(V(gap) - v) + lambda*dv.

    dv follows the same ego-minus-leader convention as idm_accel and
    enters with a positive sign, matching the adopted model form.
    """
    v_opt = params.v1 + params.v2 * np.tanh(params.c1 * (gap - params.l_c) - params.c2)
    return params.kappa * (v_opt - v) + params.lam * dv


def newell_predict_batch(lead_hist_accel: np.ndarray, dist_t0: np.ndarray,
                         t_fwd: int, delta: float) -> np.ndarray:
    """Vectorized time-shift prediction (n, t_fwd) for a batch of samples.

    lead_hist_accel: (n, K-1, t_back) leader acceleration histories
    (row 0 = farthest leader).  dist_t0: (n, K-1) position distances from
    the ego at t0.

    Leader choice: the closest leader whose shifted source times all fall
    inside the observed history window; if none qualifies, the farthest
    leader with source times clamped to the window's endpoints.
    """
    n, n_lead, tb = lead_hist_accel.shape
    shift_steps = dist_t0 / delta  # divided by w by the caller
    ok = (shift_steps >= t_fwd) & (shift_steps <= tb)
    # argmax on the reversed axis finds the largest qualifying index
    rev_ok = ok[:, ::-1]
    chosen = np.where(rev_ok.any(axis=1), n_lead - 1 - rev_ok.argmax(axis=1), 0)
    rows = np.arange(n)
    shift = shift_steps[rows, chosen]  # in steps
    preds = np.empty((n, t_fwd))
    src_series = lead_hist_accel[rows, chosen]  # (n, tb)
    for j in range(1, t_fwd + 1):
        idx = np.clip((tb - 1) + j - shift, 0.0, tb - 1.0)
        lo = np.floor(idx).astype(int)
        hi = np.minimum(lo + 1, tb - 1)
        frac = idx - lo
        preds[:, j - 1] = (1.0 - frac) * src_series[rows, lo] + frac * src_series[rows, hi]
    return preds


def physics_rollout(sample: TrajectorySample, params: PhysicsParams,
                    delta: float) -> tuple[np.ndarray, bool]:
    """One-row call of ``rollout_batch``: (accel (t_fwd,), collision flag)."""
    accel, collided = rollout_batch(SampleBatch.of([sample]), params, delta)
    return accel[0], bool(collided[0])


def rollout_batch(batch: SampleBatch, params: PhysicsParams,
                  delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Every sample's future ego accelerations (n, t_fwd) and collision flags (n,).

    The time-shift model reads the leaders' observed histories at their t0
    distances.  IDM/FVD self-roll the ego while the immediate leader follows
    its realized future accelerations; a closed gap is floored at
    ``ROLLOUT_GAP_FLOOR`` and flags the sample."""
    n, t_fwd = batch.ego_future_accel.shape
    pos_t0 = batch.hist_position[:, :, -1]  # (n, K)
    if isinstance(params, NewellParams):
        dist = pos_t0[:, :-1] - pos_t0[:, -1:]
        return (newell_predict_batch(batch.hist_accel[:, :-1], dist / params.w, t_fwd, delta),
                np.zeros(n, dtype=bool))

    # every gap is floored at ROLLOUT_GAP_FLOOR, so IDM needs no gap check
    accel_fn = _idm_unchecked if isinstance(params, IdmParams) else fvd_accel
    v_e, x_e = batch.ego_speed_at_t0, pos_t0[:, -1]
    v_l, x_l = batch.hist_speed[:, -2, -1], pos_t0[:, -2]
    lead_acc = batch.leader_future_accel[:, -1]
    out = np.empty((n, t_fwd))
    collided = np.zeros(n, dtype=bool)
    for j in range(t_fwd):
        gap = x_l - x_e
        closed = gap <= 0.0
        collided |= closed
        out[:, j] = a = accel_fn(v_e, v_e - v_l, np.where(closed, ROLLOUT_GAP_FLOOR, gap), params)
        v_e = np.maximum(v_e + a * delta, 0.0)
        x_e = x_e + v_e * delta
        v_l = np.maximum(v_l + lead_acc[:, j] * delta, 0.0)
        x_l = x_l + v_l * delta
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise NumericError("non-finite rollout acceleration in sample "
                           f"{batch.sample_ids[bad.argmax()]}")
    return out, collided


@dataclass(frozen=True)
class OneStepInputs:
    """What a first-future-step prediction reads of a batch, sliced once:
    a fit builds them once and every objective call reuses them, IDM's
    positive-gap check included."""

    lead_hist_accel: np.ndarray  # (n, K-1, t_back) the leaders' histories
    dist_t0: np.ndarray          # (n, K-1) each leader's distance ahead of the ego at t0
    v: np.ndarray                # (n,) ego speed at t0
    dv: np.ndarray               # (n,) ego minus immediate-leader speed at t0
    gap: np.ndarray              # (n,) immediate-leader gap at t0
    target: np.ndarray           # (n,) the realized ego_future_accel[:, 0]
    gap_closed: bool             # some gap is not positive: IDM cannot predict

    @classmethod
    def of(cls, samples) -> "OneStepInputs":
        """The inputs of a batch or a list of samples; inputs as they are."""
        if isinstance(samples, cls):
            return samples
        batch = SampleBatch.of(samples)
        pos_t0 = batch.hist_position[:, :, -1]  # (n, K)
        v = batch.ego_speed_at_t0
        gap = pos_t0[:, -2] - pos_t0[:, -1]
        return cls(batch.hist_accel[:, :-1], pos_t0[:, :-1] - pos_t0[:, -1:], v,
                   v - batch.hist_speed[:, -2, -1], gap, batch.ego_future_accel[:, 0],
                   bool(np.any(gap <= 0)))


def one_step_batch(samples, params: PhysicsParams | Candidates, delta: float) -> np.ndarray:
    """First-future-step predictions for a batch, a list of samples or their
    ``OneStepInputs`` (calibration kernel): (n,) for a model's params, (k, n)
    for IDM or FVD ``Candidates`` of columns."""
    x = OneStepInputs.of(samples)
    model = model_name(params)
    if model == "newell":
        return newell_predict_batch(x.lead_hist_accel, x.dist_t0 / params.w, 1, delta)[:, 0]
    if model == "idm":
        if x.gap_closed:
            raise NumericError(IDM_GAP_ERROR)
        return _idm_unchecked(x.v, x.dv, x.gap, params)
    return fvd_accel(x.v, x.dv, x.gap, params)
