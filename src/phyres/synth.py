"""Deterministic synthetic trajectory corpus generator.

Two generators:

* ``idm``: the lead vehicle tracks a piecewise sinusoid-plus-jumps speed
  profile; every follower applies the IDM acceleration of its realized
  state (optionally with Gaussian noise) under the same explicit-Euler
  update used by the physics rollout, so a zero-noise corpus is exactly
  self-consistent;
* ``newell_shift``: every follower's acceleration at each step is its
  leader's acceleration series evaluated at the current
  (position distance)/(wave speed) delay, which makes the one-step
  time-shift predictor exact on the emitted data.

The recurrences run on Python floats, which take the same IEEE binary64
operations as numpy float64 scalars at a fraction of their per-call cost;
``tests/test_synth.py`` keeps a numpy-scalar reference that must give the
same bytes.

Output is the raw CSV schema consumed by ingest.parse_trajectory_csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .ingest import CSV_HEADER
from .errors import ConfigError, NumericError
from .physics import IdmParams, NewellParams, PhysicsParams, _idm_unchecked


@dataclass(frozen=True)
class LeadProfile:
    """Piecewise lead-vehicle speed profile: per-segment base speed jumps
    plus a sinusoidal oscillation with per-segment random phase/period."""

    segment_steps: int = 40
    v_min: float = 5.0
    v_max: float = 12.0
    osc_amp: float = 0.5
    osc_period_min_s: float = 8.0
    osc_period_max_s: float = 25.0
    accel_cap: float = 1.5   # rate limit on the realized lead acceleration
    base_jump_max: float = 1.5  # max base-speed change between segments


@dataclass(frozen=True)
class SynthConfig:
    generator: str                 # "idm" | "newell_shift"
    params: PhysicsParams
    n_platoons: int
    vehicles_per_platoon: int
    duration_steps: int
    delta: float
    noise_sigma: float
    seed: int
    profile: LeadProfile = field(default_factory=LeadProfile)
    initial_gap: float | None = None  # newell_shift: m; idm defaults to equilibrium

    def __post_init__(self):
        if self.generator not in ("idm", "newell_shift"):
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.generator == "idm" and not isinstance(self.params, IdmParams):
            raise ConfigError("idm generator needs IdmParams")
        if self.generator == "newell_shift" and not isinstance(self.params, NewellParams):
            raise ConfigError("newell_shift generator needs NewellParams")
        if not self.delta > 0:
            raise ConfigError("delta must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.n_platoons < 1:
            raise ConfigError("need at least 1 platoon")
        if self.vehicles_per_platoon < 2:
            raise ConfigError("need at least 2 vehicles per platoon")
        if self.duration_steps < 2:
            raise ConfigError("duration_steps too small")


def _lead_speed_profile(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    p = cfg.profile
    t = np.arange(cfg.duration_steps) * cfg.delta
    v = np.empty(cfg.duration_steps)
    start = 0
    base = rng.uniform(p.v_min, p.v_max)
    while start < cfg.duration_steps:
        stop = min(start + p.segment_steps, cfg.duration_steps)
        period = rng.uniform(p.osc_period_min_s, p.osc_period_max_s)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        seg = base + p.osc_amp * np.sin(2.0 * np.pi * t[start:stop] / period + phase)
        v[start:stop] = seg
        start = stop
        # bounded random walk keeps segment-to-segment jumps followable
        base = float(np.clip(base + rng.uniform(-p.base_jump_max, p.base_jump_max),
                             p.v_min, p.v_max))
    return np.maximum(v, 0.3)


def _integrate_lead(v_des: np.ndarray, delta: float, x0: float, accel_cap: float):
    """Realize the desired profile through the shared Euler recurrence, as
    (accel, speed, position) lists.

    Acceleration is rate-limited so base-speed jumps at segment
    boundaries become followable ramps instead of steps."""
    v_des = v_des.tolist()
    a, v, x = [0.0], [v_des[0]], [x0]
    for t in range(1, len(v_des)):
        a.append(min(max((v_des[t] - v[-1]) / delta, -accel_cap), accel_cap))
        v.append(v[-1] + a[-1] * delta)
        x.append(x[-1] + v[-1] * delta)
    return a, v, x


def _generate_platoon(cfg: SynthConfig, rng: np.random.Generator):
    """Returns (accel, speed, position), each a list of n_veh lists of steps floats."""
    n_veh, steps, delta = cfg.vehicles_per_platoon, cfg.duration_steps, cfg.delta
    v_des = _lead_speed_profile(cfg, rng)
    noise_rng = np.random.default_rng(rng.integers(2 ** 63))

    for attempt in range(10):
        gap_scale = 1.0 + 0.5 * attempt
        a, v, x = ([row] for row in _integrate_lead(v_des, delta, 0.0, cfg.profile.accel_cap))
        for k in range(1, n_veh):
            a_lead, v_lead, x_lead = a[-1], v[-1], x[-1]
            if cfg.initial_gap is not None:
                gap0 = cfg.initial_gap
            elif isinstance(cfg.params, IdmParams):
                p = cfg.params
                s_eq = p.s0 + p.t_gap * v_lead[0]
                gap0 = s_eq / math.sqrt(max(1.0 - (v_lead[0] / p.v_free) ** 4, 1e-3))
            else:
                gap0 = 2.0 * cfg.params.w  # 2 s delay at the wave speed
            ak, vk, xk = [0.0], [v_lead[0]], [x_lead[0] - gap0 * gap_scale]
            for t in range(1, steps):
                gap = x_lead[t - 1] - xk[-1]
                if gap <= 0:
                    break
                if cfg.generator == "idm":
                    acc = float(_idm_unchecked(vk[-1], vk[-1] - v_lead[t - 1], gap, cfg.params))
                else:
                    w_delta = cfg.params.w * delta  # may underflow to 0.0: an infinite delay
                    shift = gap / w_delta if w_delta else math.inf  # steps of delay
                    src = min(max(t - shift, 0.0), steps - 1.0)
                    lo = math.floor(src)
                    hi = min(lo + 1, steps - 1)
                    frac = src - lo
                    acc = (1.0 - frac) * a_lead[lo] + frac * a_lead[hi]
                if cfg.noise_sigma > 0:
                    acc += cfg.noise_sigma * noise_rng.standard_normal()
                if not math.isfinite(acc):
                    raise NumericError("non-finite acceleration during generation")
                v_new = vk[-1] + acc * delta
                if v_new < 0.0:
                    # stop at 0, or an ulp above it: the speed comes from the
                    # acceleration, so speed[t-1] + accel[t] * delta is speed[t] exactly
                    acc = -vk[-1] / delta
                    while vk[-1] + acc * delta < 0.0:  # -v / delta * delta can pass 0
                        acc = math.nextafter(acc, 0.0)
                    v_new = vk[-1] + acc * delta
                ak.append(acc)
                vk.append(v_new)
                xk.append(xk[-1] + v_new * delta)
            # a closed gap, or one closed at the final step, which is never the gap source above
            if len(xk) < steps or x_lead[-1] - xk[-1] <= 0:
                break
            a.append(ak)
            v.append(vk)
            x.append(xk)
        else:
            return a, v, x
    raise NumericError("persistent gap violation; could not generate platoon")


def generate_corpus(cfg: SynthConfig, path) -> dict:
    """Generate a corpus and write it as a raw trajectory CSV.

    Byte-identical output for identical configs; a failed platoon leaves
    no file and no new folder.  Returns diagnostics (vehicle and row counts).
    """
    rng = np.random.default_rng(cfg.seed)
    try:
        platoons = [_generate_platoon(cfg, rng) for _ in range(cfg.n_platoons)]
    except OverflowError as exc:  # a Python float's ** raises where a numpy float64's gives inf
        raise NumericError("non-finite acceleration during generation") from exc
    times = [t * cfg.delta for t in range(cfg.duration_steps)]
    with serialize.create(path) as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for p, (a, v, x) in enumerate(platoons):
            for k in range(cfg.vehicles_per_platoon):
                line = f"{p * 1000 + k + 1},%.17g,%.17g,%.17g,%.17g,{'' if k == 0 else p * 1000 + k}\n"
                fh.write("".join([line % row for row in zip(times, x[k], v[k], a[k])]))
    return {
        "platoons": cfg.n_platoons,
        "vehicles": cfg.n_platoons * cfg.vehicles_per_platoon,
        "rows": cfg.n_platoons * cfg.vehicles_per_platoon * cfg.duration_steps,
    }
