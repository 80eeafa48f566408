import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import IDM_TRUE, make_sample
from phyres.domain import SampleBatch
from phyres.errors import ConfigError, NumericError
from phyres.physics import (FVD_FIXED, ROLLOUT_GAP_FLOOR, FvdParams, IdmParams,
                            NewellParams, fvd_accel, idm_accel, model_name,
                            newell_predict_batch, one_step_batch,
                            physics_rollout, rollout_batch)

FVD_REF = FvdParams(kappa=0.5, lam=0.3, **FVD_FIXED)


# ------------------------------------------------------------------ oracles
# Independent re-derivations written straight from the model definitions,
# using the math module and summation via fsum so the operation order
# differs from the library implementation.

def oracle_idm(v, dv, gap, p: IdmParams):
    s = math.fsum([p.s0, p.t_gap * v, -(v * dv) / (2.0 * math.sqrt(p.a_max * p.b_comf))])
    return p.a_max * math.fsum([1.0, -math.pow(v / p.v_free, 4), -math.pow(s / gap, 2)])


def oracle_fvd(v, dv, gap, p: FvdParams):
    v_opt = p.v1 + p.v2 * math.tanh(p.c1 * (gap - p.l_c) - p.c2)
    return math.fsum([p.kappa * v_opt, -p.kappa * v, p.lam * dv])


def oracle_time_shift(sample, w, delta):
    """Per-sample shift prediction via np.interp on grid times."""
    tb = sample.hist_accel.shape[1]
    tf = len(sample.ego_future_accel)
    ego_pos = sample.hist_position[-1, -1]
    dists = sample.hist_position[:-1, -1] - ego_pos
    shifts = dists / (w * delta)
    qualifying = [i for i, s in enumerate(shifts) if tf <= s <= tb]
    chosen = max(qualifying) if qualifying else 0
    grid = np.arange(tb, dtype=float)
    out = np.empty(tf)
    for j in range(1, tf + 1):
        src = np.clip((tb - 1) + j - shifts[chosen], 0.0, tb - 1.0)
        out[j - 1] = np.interp(src, grid, sample.hist_accel[chosen])
    return out


class TestIdmAccel:
    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            v = rng.uniform(0.0, 30.0)
            dv = rng.uniform(-5.0, 5.0)
            gap = rng.uniform(1.0, 100.0)
            p = IdmParams(v_free=rng.uniform(10, 40), a_max=rng.uniform(0.3, 3),
                          b_comf=rng.uniform(1, 5), s0=rng.uniform(0.5, 5),
                          t_gap=rng.uniform(0.5, 3))
            assert idm_accel(v, dv, gap, p) == pytest.approx(
                oracle_idm(v, dv, gap, p), abs=1e-10)

    def test_stationary_unbounded_gap_gives_max_accel(self):
        assert idm_accel(0.0, 0.0, 1e9, IDM_TRUE) == pytest.approx(
            IDM_TRUE.a_max, abs=1e-9)

    def test_free_flow_equilibrium(self):
        assert idm_accel(IDM_TRUE.v_free, 0.0, 1e9, IDM_TRUE) == pytest.approx(
            0.0, abs=1e-9)

    def test_non_positive_gap_rejected(self):
        with pytest.raises(NumericError):
            idm_accel(5.0, 0.0, 0.0, IDM_TRUE)
        with pytest.raises(NumericError):
            idm_accel(5.0, 0.0, np.array([3.0, -1.0]), IDM_TRUE)

    def test_monotone_decreasing_in_speed(self):
        speeds = np.linspace(0.0, IDM_TRUE.v_free, 60)
        vals = idm_accel(speeds, 0.0, 25.0, IDM_TRUE)
        assert np.all(np.diff(vals) < 0)

    def test_vectorized_matches_scalar(self):
        v = np.array([2.0, 8.0])
        dv = np.array([0.5, -0.5])
        gap = np.array([10.0, 20.0])
        vec = idm_accel(v, dv, gap, IDM_TRUE)
        for i in range(2):
            assert vec[i] == idm_accel(v[i], dv[i], gap[i], IDM_TRUE)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            IdmParams(v_free=-1, a_max=1, b_comf=1, s0=1, t_gap=1)


@pytest.mark.parametrize("make, message", [
    (lambda: NewellParams(w=0.0), "wave speed must be positive"),
    (lambda: replace(FVD_REF, kappa=-0.1), "FVD sensitivities must be non-negative"),
    (lambda: replace(FVD_REF, lam=-0.1), "FVD sensitivities must be non-negative"),
    (lambda: replace(FVD_REF, c1=0.0), "FVD c1 must be positive"),
], ids=["newell-w-zero", "fvd-kappa-negative", "fvd-lam-negative", "fvd-c1-zero"])
def test_invalid_newell_and_fvd_params_rejected(make, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        make()


class TestFvdAccel:
    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            v = rng.uniform(0.0, 30.0)
            dv = rng.uniform(-5.0, 5.0)
            gap = rng.uniform(1.0, 100.0)
            p = FvdParams(kappa=rng.uniform(0.01, 2), lam=rng.uniform(0, 2),
                          **FVD_FIXED)
            assert fvd_accel(v, dv, gap, p) == pytest.approx(
                oracle_fvd(v, dv, gap, p), abs=1e-10)

    def test_equilibrium_is_exactly_zero(self):
        gap = 25.0
        v_opt = FVD_REF.v1 + FVD_REF.v2 * np.tanh(
            FVD_REF.c1 * (gap - FVD_REF.l_c) - FVD_REF.c2)
        assert fvd_accel(v_opt, 0.0, gap, FVD_REF) == 0.0

    def test_degenerate_coefficients(self):
        p = FvdParams(kappa=0.0, lam=1.0, **FVD_FIXED)
        assert fvd_accel(8.0, -0.5, 25.0, p) == -0.5

    @given(dv=st.floats(min_value=-10, max_value=10),
           v=st.floats(min_value=0, max_value=30),
           gap=st.floats(min_value=1, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_linear_in_speed_difference(self, dv, v, gap):
        base = fvd_accel(v, 0.0, gap, FVD_REF)
        assert fvd_accel(v, dv, gap, FVD_REF) - base == pytest.approx(
            FVD_REF.lam * dv, rel=1e-12, abs=1e-12)


class TestTimeShiftPrediction:
    def test_matches_interpolation_oracle(self):
        for seed in range(20):
            s = make_sample(k=3, tb=10, tf=3, seed=seed)
            params = NewellParams(w=3.0)
            got = physics_rollout(s, params, delta=0.5)[0]
            want = oracle_time_shift(s, 3.0, 0.5)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_hand_computed_case(self):
        # one leader 4 m ahead, w=2, delta=0.5: shift = 4 steps
        s = make_sample(k=2, tb=8, tf=2, seed=1)
        s.hist_accel[0] = np.arange(8.0)  # leader accel = its grid index
        s.hist_position[0] = s.hist_position[1] + 4.0
        got = physics_rollout(s, NewellParams(w=2.0), delta=0.5)[0]
        # sources: (7 + j) - 4 for j=1,2
        np.testing.assert_allclose(got, [4.0, 5.0], atol=1e-12)

    def test_fractional_shift_interpolates(self):
        s = make_sample(k=2, tb=8, tf=1, seed=2)
        s.hist_accel[0] = np.arange(8.0) ** 2
        s.hist_position[0] = s.hist_position[1] + 3.5  # shift = 3.5 steps
        got = physics_rollout(s, NewellParams(w=2.0), delta=0.5)[0]
        # source 4.5 -> midpoint of 16 and 25
        assert got[0] == pytest.approx(20.5, abs=1e-12)

    def test_closest_qualifying_leader_wins(self):
        s = make_sample(k=3, tb=10, tf=2, seed=3)
        s.hist_accel[0] = np.full(10, 100.0)
        s.hist_accel[1] = np.full(10, 7.0)
        # both leaders qualify; the immediate one (index 1) must be used
        s.hist_position[1] = s.hist_position[2] + 2.0   # shift 4 steps
        s.hist_position[0] = s.hist_position[1] + 2.0   # shift 8 steps
        got = physics_rollout(s, NewellParams(w=1.0), delta=0.5)[0]
        np.testing.assert_allclose(got, [7.0, 7.0])

    def test_falls_back_to_farthest_leader_with_clamping(self):
        s = make_sample(k=3, tb=10, tf=2, seed=4)
        s.hist_accel[0] = np.linspace(1.0, 2.0, 10)
        # both shifts below t_fwd: no leader qualifies
        s.hist_position[1] = s.hist_position[2] + 0.05
        s.hist_position[0] = s.hist_position[1] + 0.05
        got = physics_rollout(s, NewellParams(w=10.0), delta=0.5)[0]
        # sources beyond the window clamp to the last history value
        np.testing.assert_allclose(got, [2.0, 2.0], atol=1e-9)


class TestRollout:
    def _equilibrium_sample(self, v, tf=5):
        gap = brentq(lambda g: idm_accel(v, 0.0, g, IDM_TRUE), 0.5, 500.0)
        s = make_sample(k=2, tb=4, tf=tf, seed=5)
        s.hist_speed[:, -1] = v
        s.hist_position[1, -1] = 100.0
        s.hist_position[0, -1] = 100.0 + gap
        s.ego_speed_at_t0 = v
        s.leader_future_accel = np.zeros((1, tf))
        return s, gap

    def test_single_step_horizon_equals_direct_formula(self):
        s = make_sample(k=2, tb=4, tf=1, seed=6)
        v = s.ego_speed_at_t0
        v_l = s.hist_speed[0, -1]
        gap = s.hist_position[0, -1] - s.hist_position[1, -1]
        accel, collided = physics_rollout(s, IDM_TRUE, delta=0.1)
        assert not collided
        assert accel[0] == idm_accel(v, v - v_l, gap, IDM_TRUE)

    def test_equilibrium_rollout_stays_at_rest(self):
        s, _ = self._equilibrium_sample(v=8.0)
        accel, collided = physics_rollout(s, IDM_TRUE, delta=0.1)
        assert not collided
        np.testing.assert_allclose(accel, 0.0, atol=1e-9)

    def test_gap_collapse_sets_collision_flag(self):
        s = make_sample(k=2, tb=4, tf=5, seed=7)
        s.hist_position[0, -1] = s.hist_position[1, -1] + 0.05
        s.hist_speed[0, -1] = 0.0
        s.ego_speed_at_t0 = 10.0
        s.leader_future_accel = np.zeros((1, 5))
        accel, collided = physics_rollout(s, FVD_REF, delta=0.1)
        assert collided
        assert np.all(np.isfinite(accel))

    def test_time_shift_rollout_never_collides(self):
        s = make_sample(k=2, tb=6, tf=3, seed=8)
        accel, collided = physics_rollout(s, NewellParams(w=4.0), delta=0.1)
        assert not collided
        assert accel.shape == (3,)

    def test_gap_floor_constant(self):
        assert ROLLOUT_GAP_FLOOR == 0.1


def _scalar_rollout(sample, params, delta):
    """Reference: the per-sample rollout that ``rollout_batch`` replaced."""
    if isinstance(params, NewellParams):
        dist = sample.hist_position[:-1, -1] - sample.hist_position[-1, -1]
        preds = newell_predict_batch(sample.hist_accel[None, :-1, :], dist[None, :] / params.w,
                                     len(sample.ego_future_accel), delta)
        return preds[0], False
    v_e = sample.ego_speed_at_t0
    x_e = sample.hist_position[-1, -1]
    v_l = sample.hist_speed[-2, -1]
    x_l = sample.hist_position[-2, -1]
    lead_acc = sample.leader_future_accel[-1]
    out = np.empty(len(sample.ego_future_accel))
    collided = False
    for j in range(len(sample.ego_future_accel)):
        gap = x_l - x_e
        if gap <= 0.0:
            gap = ROLLOUT_GAP_FLOOR
            collided = True
        dv = v_e - v_l
        if isinstance(params, IdmParams):
            a = float(idm_accel(v_e, dv, gap, params))
        else:
            a = float(fvd_accel(v_e, dv, gap, params))
        if not np.isfinite(a):
            raise NumericError(f"non-finite rollout acceleration in sample {sample.sample_id}")
        out[j] = a
        v_e = max(v_e + a * delta, 0.0)
        x_e = x_e + v_e * delta
        v_l = max(v_l + lead_acc[j] * delta, 0.0)
        x_l = x_l + v_l * delta
    return out, collided


def _rollout_samples():
    """40 samples; every fifth starts with the leader behind the ego and
    every fifth (offset one) closes its gap during the rollout."""
    samples = [make_sample(sample_id=100 + i, k=3, tb=10, tf=6, seed=i) for i in range(40)]
    for s in samples[::5]:
        s.hist_position[-2, -1] = s.hist_position[-1, -1] - 1.0
    for s in samples[1::5]:
        s.hist_position[-2, -1] = s.hist_position[-1, -1] + 0.5
        s.hist_speed[-2, -1] = 0.0
        s.ego_speed_at_t0 = 10.0
        s.leader_future_accel[-1] = 0.0
    return samples


class TestRolloutBatch:
    @pytest.mark.parametrize("params", [FVD_REF, NewellParams(w=4.0)])
    def test_bit_equal_to_scalar_reference(self, params):
        samples = _rollout_samples()
        accel, collided = rollout_batch(SampleBatch.of(samples), params, delta=0.1)
        ref = [_scalar_rollout(s, params, 0.1) for s in samples]
        np.testing.assert_array_equal(accel, np.stack([a for a, _ in ref]))
        assert collided.tolist() == [c for _, c in ref]
        if isinstance(params, FvdParams):  # from the start, and during the rollout
            assert collided[::5].all() and collided[1::5].all()
        else:
            assert not collided.any()

    def test_idm_within_ulp_bound(self):
        # numpy's array ``** 4`` and the scalar pow round differently, so IDM
        # rollouts move by an ulp or so of the acceleration scale: measured
        # 1.4 ulp of max(|a|, a_max) here, with 1.4% of the values changed
        rng = np.random.default_rng(0)
        free = [make_sample(sample_id=i, k=3, tb=10, tf=6, seed=i) for i in range(300)]
        for s in free:
            s.ego_speed_at_t0 = rng.uniform(0.0, 30.0)
            s.hist_speed[-2, -1] = rng.uniform(0.0, 30.0)
            s.hist_position[-2, -1] = s.hist_position[-1, -1] + rng.uniform(2.0, 60.0)
        samples = _rollout_samples() + free
        accel, collided = rollout_batch(SampleBatch.of(samples), IDM_TRUE, delta=0.1)
        ref = [_scalar_rollout(s, IDM_TRUE, 0.1) for s in samples]
        want = np.stack([a for a, _ in ref])
        ulp = np.finfo(float).eps * np.maximum(np.abs(want), IDM_TRUE.a_max)
        assert np.all(np.abs(accel - want) <= 4 * ulp)
        assert collided.tolist() == [c for _, c in ref]
        assert collided[:40:5].all()

    @pytest.mark.parametrize("params", [IDM_TRUE, FVD_REF])
    def test_non_finite_names_first_bad_sample(self, params):
        samples = _rollout_samples()[:10]
        samples[6].ego_speed_at_t0 = float("nan")     # bad from the first step
        samples[3].leader_future_accel[-1, 1] = np.nan  # bad from the third step
        with pytest.raises(NumericError, match="in sample 103$"):
            rollout_batch(SampleBatch.of(samples), params, delta=0.1)
        with pytest.raises(NumericError, match="in sample 103$"):
            for s in samples:
                _scalar_rollout(s, params, 0.1)

    def test_one_row_call(self):
        s = _rollout_samples()[0]
        accel, collided = physics_rollout(s, FVD_REF, delta=0.1)
        assert collided is True
        np.testing.assert_array_equal(accel, _scalar_rollout(s, FVD_REF, 0.1)[0])


def _one_step_from_list(samples, params, delta):
    """Reference: the one-step kernel with arrays gathered per sample."""
    if isinstance(params, NewellParams):
        lead_hist = np.stack([s.hist_accel[:-1] for s in samples])
        dist = np.stack([s.hist_position[:-1, -1] - s.hist_position[-1, -1] for s in samples])
        return newell_predict_batch(lead_hist, dist / params.w, 1, delta)[:, 0]
    v = np.array([s.ego_speed_at_t0 for s in samples])
    v_l = np.array([s.hist_speed[-2, -1] for s in samples])
    gap = np.array([s.hist_position[-2, -1] - s.hist_position[-1, -1] for s in samples])
    accel = idm_accel if isinstance(params, IdmParams) else fvd_accel
    return accel(v, v - v_l, gap, params)


class TestOneStepBatch:
    @pytest.mark.parametrize("params", [IDM_TRUE, FVD_REF, NewellParams(w=4.0)])
    def test_matches_per_sample_rollout_first_step(self, params):
        samples = [make_sample(k=3, tb=10, tf=4, seed=s) for s in range(8)]
        batch = one_step_batch(SampleBatch.of(samples), params, delta=0.1)
        for i, s in enumerate(samples):
            single, _ = physics_rollout(s, params, delta=0.1)
            assert batch[i] == pytest.approx(single[0], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("params", [IDM_TRUE, FVD_REF, NewellParams(w=4.0)])
    def test_bit_equal_to_per_sample_gather(self, params):
        samples = [make_sample(k=4, tb=20, tf=3, seed=s) for s in range(40)]
        np.testing.assert_array_equal(
            one_step_batch(SampleBatch.of(samples), params, delta=0.1),
            _one_step_from_list(samples, params, 0.1))


def test_model_name():
    assert model_name(IDM_TRUE) == "idm"
    assert model_name(FVD_REF) == "fvd"
    assert model_name(NewellParams(w=2.0)) == "newell"
