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

Output is the raw CSV schema consumed by ingest.parse_trajectory_csv.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .physics import IdmParams, NewellParams, PhysicsParams, idm_accel


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
    """Realize the desired profile through the shared Euler recurrence.

    Acceleration is rate-limited so base-speed jumps at segment
    boundaries become followable ramps instead of steps."""
    n = len(v_des)
    a = np.zeros(n)
    v = np.empty(n)
    x = np.empty(n)
    v[0] = v_des[0]
    x[0] = x0
    for t in range(1, n):
        a[t] = np.clip((v_des[t] - v[t - 1]) / delta, -accel_cap, accel_cap)
        v[t] = v[t - 1] + a[t] * delta
        x[t] = x[t - 1] + v[t] * delta
    return a, v, x


def _generate_platoon(cfg: SynthConfig, rng: np.random.Generator):
    """Returns (accel, speed, position) arrays of shape (n_veh, steps)."""
    n_veh, steps, delta = cfg.vehicles_per_platoon, cfg.duration_steps, cfg.delta
    v_des = _lead_speed_profile(cfg, rng)
    noise_rng = np.random.default_rng(rng.integers(2 ** 63))

    for attempt in range(10):
        gap_scale = 1.0 + 0.5 * attempt
        a = np.zeros((n_veh, steps))
        v = np.zeros((n_veh, steps))
        x = np.zeros((n_veh, steps))
        a[0], v[0], x[0] = _integrate_lead(v_des, delta, 0.0, cfg.profile.accel_cap)
        ok = True
        for k in range(1, n_veh):
            v[k, 0] = v[0, 0]
            if cfg.initial_gap is not None:
                gap0 = cfg.initial_gap
            elif isinstance(cfg.params, IdmParams):
                p = cfg.params
                s_eq = p.s0 + p.t_gap * v[k, 0]
                gap0 = s_eq / np.sqrt(max(1.0 - (v[k, 0] / p.v_free) ** 4, 1e-3))
            else:
                gap0 = 2.0 * cfg.params.w  # 2 s delay at the wave speed
            x[k, 0] = x[k - 1, 0] - gap0 * gap_scale
            for t in range(1, steps):
                gap = x[k - 1, t - 1] - x[k, t - 1]
                if gap <= 0:
                    ok = False
                    break
                if cfg.generator == "idm":
                    acc = float(idm_accel(v[k, t - 1], v[k, t - 1] - v[k - 1, t - 1], gap,
                                          cfg.params))
                else:
                    shift = gap / (cfg.params.w * delta)  # steps of delay
                    src = np.clip(t - shift, 0.0, steps - 1.0)
                    lo = int(np.floor(src))
                    hi = min(lo + 1, steps - 1)
                    frac = src - lo
                    acc = (1.0 - frac) * a[k - 1, lo] + frac * a[k - 1, hi]
                if cfg.noise_sigma > 0:
                    acc += cfg.noise_sigma * noise_rng.standard_normal()
                if not np.isfinite(acc):
                    raise NumericError("non-finite acceleration during generation")
                v_new = v[k, t - 1] + acc * delta
                if v_new < 0.0:
                    v_new = 0.0
                    acc = (v_new - v[k, t - 1]) / delta  # keep kinematic consistency
                a[k, t] = acc
                v[k, t] = v_new
                x[k, t] = x[k, t - 1] + v_new * delta
            if not ok:
                break
            if x[k - 1, -1] - x[k, -1] <= 0:  # final step is never the gap source above
                ok = False
                break
        if ok:
            return a, v, x
    raise NumericError("persistent gap violation; could not generate platoon")


def generate_corpus(cfg: SynthConfig, path) -> dict:
    """Generate a corpus and write it as a raw trajectory CSV.

    Byte-identical output for identical configs; a failed platoon leaves
    no file and no new folder.  Returns diagnostics (vehicle and row counts).
    """
    rng = np.random.default_rng(cfg.seed)
    platoons = [_generate_platoon(cfg, rng) for _ in range(cfg.n_platoons)]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    n_rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vehicle_id,time,position,speed,accel,leader_id\n")
        for p, (a, v, x) in enumerate(platoons):
            for k in range(cfg.vehicles_per_platoon):
                vid = p * 1000 + k + 1
                lid = "" if k == 0 else str(p * 1000 + k)
                for t in range(cfg.duration_steps):
                    fh.write(
                        f"{vid},{format(t * cfg.delta, '.17g')},"
                        f"{format(x[k, t], '.17g')},{format(v[k, t], '.17g')},"
                        f"{format(a[k, t], '.17g')},{lid}\n"
                    )
                    n_rows += 1
    return {
        "platoons": cfg.n_platoons,
        "vehicles": cfg.n_platoons * cfg.vehicles_per_platoon,
        "rows": n_rows,
    }
