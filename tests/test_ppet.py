import numpy as np
import pytest

from crossrisk.ppet import AREA_LINES, PPetVector, pet, ppet

NO_VEHICLE = (None, None)


def eq10_oracle(est):
    """Independent re-evaluation of the four-component definition of
    ppet's arguments (pedestrian q0-q2, closer and further vehicle
    (enter, leave))."""
    def diff(a, b):
        return None if a is None or b is None else a - b

    (ped_q0, ped_q1, ped_q2), ((closer_enter, closer_leave), (further_enter, further_leave)) = est
    return (
        diff(closer_enter, ped_q1),
        diff(ped_q0, closer_leave),
        diff(further_enter, ped_q2),
        diff(ped_q1, further_leave),
    )


def random_estimate_set(rng):
    """Random ppet arguments with every time known."""
    q0 = float(rng.uniform(0, 10))
    q1 = q0 + float(rng.uniform(0, 5))
    q2 = q1 + float(rng.uniform(0, 5))
    closer = (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
    further = (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
    return [q0, q1, q2], [closer, further]


def shifted(est, shift):
    """ppet arguments with every time moved by shift seconds."""
    ped, vehicles = est
    return [t + shift for t in ped], [(enter + shift, leave + shift) for enter, leave in vehicles]


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
        with pytest.raises(ValueError):
            pet(0.0, None, 1.0, float("inf"))

    def test_unknown_time_leaves_its_components_unavailable(self):
        assert pet(None, 8.5, 10.0, 10.6) == (1.5, None)
        assert pet(7.0, 8.5, None, 10.6) == (None, 7.0 - 10.6)
        assert pet(None, None, None, None) == (None, None)


class TestPpet:
    def test_closer_pedestrian_first_example(self):
        vec = ppet([3.5, 4.2, 5.0], [(3.0, 3.4), NO_VEHICLE])
        assert vec.c_pf == pytest.approx(-1.2)

    def test_missing_further_vehicle_leaves_components_unavailable(self):
        vec = ppet([1.0, 2.0, 3.0], [(2.5, 3.0), NO_VEHICLE])
        assert vec.f_pf is None
        assert vec.f_vf is None
        assert vec.c_pf is not None

    def test_full_set_matches_independent_equation_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            est = random_estimate_set(rng)
            vec = ppet(*est)
            assert (vec.c_pf, vec.c_vf, vec.f_pf, vec.f_vf) == eq10_oracle(est)

    def test_time_shift_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            est = random_estimate_set(rng)
            base = ppet(*est)
            shift = float(rng.uniform(0, 50))
            out = ppet(*shifted(est, shift))
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
            vec = ppet([t_q0, t_q1, t_q2], [(t_ve, t_vl), NO_VEHICLE])
            pet_pf, pet_vf = pet(t_p_enter=t_q0, t_p_leave=t_q1, t_v_enter=t_ve, t_v_leave=t_vl)
            assert vec.c_pf == pet_pf
            assert vec.c_vf == pet_vf

    def test_component_lookup(self):
        vec = PPetVector(c_pf=1.0, c_vf=None, f_pf=-2.0, f_vf=0.5)
        assert vec.area(0)[0] == 1.0
        assert vec.area(0)[1] is None
        assert vec.area(1)[0] == -2.0
        assert vec.area(1) == (-2.0, 0.5)

    def test_each_area_is_pet_of_the_lines_that_bound_it(self):
        """Area i's components are pet of the pedestrian's times at
        AREA_LINES[i] and area i's vehicle times, bit for bit."""
        rng = np.random.default_rng(43)
        for _ in range(200):
            ped, vehicles = random_estimate_set(rng)
            vec = ppet(ped, vehicles)
            for i, (enter, leave) in enumerate(AREA_LINES):
                assert vec.area(i) == pet(ped[enter], ped[leave], *vehicles[i])


class TestEstimateSetInvariants:
    """ppet's checks of its arguments: each raises ValueError."""

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            ppet([-1.0, None, None], [NO_VEHICLE, NO_VEHICLE])
        with pytest.raises(ValueError):
            ppet([1.0, 2.0, 3.0], [NO_VEHICLE, (None, -0.5)])

    def test_non_finite_estimate_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ppet([1.0, bad, None], [NO_VEHICLE, NO_VEHICLE])
            with pytest.raises(ValueError):
                ppet([1.0, 2.0, 3.0], [(bad, 4.0), NO_VEHICLE])

    def test_unordered_pedestrian_estimates_rejected(self):
        with pytest.raises(ValueError):
            ppet([5.0, 4.0, 6.0], [NO_VEHICLE, NO_VEHICLE])
        # known times must be ordered across an unknown one too
        with pytest.raises(ValueError):
            ppet([5.0, None, 4.0], [NO_VEHICLE, NO_VEHICLE])

    def test_partial_estimates_allowed(self):
        vec = ppet([None, 4.0, None], [(5.0, None), NO_VEHICLE])
        assert vec == PPetVector(c_pf=5.0 - 4.0)
