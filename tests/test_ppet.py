import numpy as np
import pytest

from crossrisk.ppet import ArrivalEstimateSet, ConflictScenario, PPetVector, pet, ppet


def eq10_oracle(est: ArrivalEstimateSet):
    """Independent re-evaluation of the four-component definition."""
    def diff(a, b):
        return None if a is None or b is None else a - b

    return (
        diff(est.veh_closer_enter, est.ped_q1),
        diff(est.ped_q0, est.veh_closer_leave),
        diff(est.veh_further_enter, est.ped_q2),
        diff(est.ped_q1, est.veh_further_leave),
    )


def random_estimate_set(rng) -> ArrivalEstimateSet:
    q0 = float(rng.uniform(0, 10))
    q1 = q0 + float(rng.uniform(0, 5))
    q2 = q1 + float(rng.uniform(0, 5))
    return ArrivalEstimateSet(
        ped_q0=q0,
        ped_q1=q1,
        ped_q2=q2,
        veh_closer_enter=float(rng.uniform(0, 20)),
        veh_closer_leave=float(rng.uniform(0, 20)),
        veh_further_enter=float(rng.uniform(0, 20)),
        veh_further_leave=float(rng.uniform(0, 20)),
    )


class TestPet:
    def test_pedestrian_first_example(self):
        pf, _ = pet(t_p_enter=7.0, t_p_leave=8.5, t_v_enter=10.0, t_v_leave=10.6)
        assert pf == 1.5

    def test_vehicle_first_zero_gap(self):
        _, vf = pet(t_p_enter=12.0, t_p_leave=13.0, t_v_enter=10.0, t_v_leave=12.0)
        assert vf == 0.0

    def test_randomized_against_subtraction_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            tpe, tpl, tve, tvl = rng.uniform(0, 100, 4)
            pf, vf = pet(tpe, tpl, tve, tvl)
            assert pf == tve - tpl
            assert vf == tpe - tvl

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            pet(0.0, 1.0, float("nan"), 2.0)


class TestPpet:
    def test_closer_pedestrian_first_example(self):
        est = ArrivalEstimateSet(ped_q0=3.5, ped_q1=4.2, ped_q2=5.0, veh_closer_enter=3.0, veh_closer_leave=3.4)
        vec = ppet(est)
        assert vec.c_pf == pytest.approx(-1.2)

    def test_missing_further_vehicle_leaves_components_unavailable(self):
        est = ArrivalEstimateSet(ped_q0=1.0, ped_q1=2.0, ped_q2=3.0, veh_closer_enter=2.5, veh_closer_leave=3.0)
        vec = ppet(est)
        assert vec.f_pf is None
        assert vec.f_vf is None
        assert vec.c_pf is not None

    def test_full_set_matches_independent_equation_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            est = random_estimate_set(rng)
            vec = ppet(est)
            assert (vec.c_pf, vec.c_vf, vec.f_pf, vec.f_vf) == eq10_oracle(est)

    def test_time_shift_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            est = random_estimate_set(rng)
            base = ppet(est)
            shift = float(rng.uniform(0, 50))
            shifted = ArrivalEstimateSet(
                ped_q0=est.ped_q0 + shift,
                ped_q1=est.ped_q1 + shift,
                ped_q2=est.ped_q2 + shift,
                veh_closer_enter=est.veh_closer_enter + shift,
                veh_closer_leave=est.veh_closer_leave + shift,
                veh_further_enter=est.veh_further_enter + shift,
                veh_further_leave=est.veh_further_leave + shift,
            )
            out = ppet(shifted)
            for name in ("c_pf", "c_vf", "f_pf", "f_vf"):
                assert abs(getattr(out, name) - getattr(base, name)) < 1e-12

    def test_hindsight_consistency_with_observed_pet(self):
        """With predictions replaced by true event times, the closer-area
        pedestrian-first component reproduces the observed PET for that
        area's events (the alternative published orientation is its
        negation)."""
        rng = np.random.default_rng(41)
        for _ in range(100):
            t_q0 = float(rng.uniform(0, 10))
            t_q1 = t_q0 + float(rng.uniform(0.5, 3))
            t_q2 = t_q1 + float(rng.uniform(0.5, 3))
            t_ve = float(rng.uniform(0, 15))
            t_vl = t_ve + float(rng.uniform(0.2, 1.0))
            vec = ppet(
                ArrivalEstimateSet(
                    ped_q0=t_q0, ped_q1=t_q1, ped_q2=t_q2,
                    veh_closer_enter=t_ve, veh_closer_leave=t_vl,
                )
            )
            pet_pf, pet_vf = pet(t_p_enter=t_q0, t_p_leave=t_q1, t_v_enter=t_ve, t_v_leave=t_vl)
            assert vec.c_pf == pet_pf
            assert vec.c_vf == pet_vf

    def test_component_lookup(self):
        vec = PPetVector(c_pf=1.0, c_vf=None, f_pf=-2.0, f_vf=0.5)
        assert vec.component("closer", ConflictScenario.PEDESTRIAN_FIRST) == 1.0
        assert vec.component("closer", ConflictScenario.VEHICLE_FIRST) is None
        assert vec.component("further", ConflictScenario.PEDESTRIAN_FIRST) == -2.0


class TestEstimateSetInvariants:
    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            ArrivalEstimateSet(ped_q0=-1.0)

    def test_unordered_pedestrian_estimates_rejected(self):
        with pytest.raises(ValueError):
            ArrivalEstimateSet(ped_q0=5.0, ped_q1=4.0, ped_q2=6.0)

    def test_partial_estimates_allowed(self):
        est = ArrivalEstimateSet(ped_q1=4.0)
        assert est.ped_q0 is None and est.ped_q1 == 4.0
