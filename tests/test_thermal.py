import math

import numpy as np
import pytest

from conftest import doe_thermal

from doesim import ThermalParams, comfort_power_interval, step_temperature
from doesim.thermal import thermostat_power


def test_step_hand_value():
    # T=23, T_out=30, R=2, C=2, eta=2.5, dt=5 min, P=0
    params = doe_thermal()
    t_next = step_temperature(23.0, params, 30.0, 0.0)
    a = math.exp(-1.0 / 48.0)
    assert t_next == pytest.approx(a * 23.0 + (1.0 - a) * 30.0, abs=0.0)
    assert t_next == pytest.approx(23.14432473068132, abs=1e-12)


def test_fixed_point_of_affine_map():
    # P such that T_out - eta R P = T keeps the temperature exactly
    params = doe_thermal()
    assert step_temperature(23.0, params, 30.0, 1.4) == pytest.approx(23.0, abs=1e-12)


def test_dt_to_zero_limit():
    params = ThermalParams(r_c_per_kw=2.0, c_kwh_per_c=2.0, cop=2.5, dt_h=1e-9)
    assert step_temperature(23.0, params, 40.0, 2.0) == pytest.approx(23.0, abs=1e-6)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        step_temperature(23.0, doe_thermal(), 30.0, -0.1)


def test_monotone_decreasing_in_power():
    params = doe_thermal()
    powers = np.linspace(0.0, 3.0, 50)
    temps = [step_temperature(23.0, params, 32.0, p) for p in powers]
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_contraction_to_equilibrium():
    params = doe_thermal()
    target = 30.0 - 2.5 * 2.0 * 1.0  # T_out - eta R P = 25
    t = 23.0
    gaps = []
    for _ in range(40):
        t = step_temperature(t, params, 30.0, 1.0)
        gaps.append(abs(t - target))
    ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])]
    assert all(abs(r - params.decay) < 1e-9 for r in ratios)


def test_comfort_interval_against_grid_scan():
    params = doe_thermal()
    band = (22.0, 24.0)
    p_max = 3.0
    lo, hi = comfort_power_interval(23.0, params, 32.0, band, p_max)
    assert lo <= hi
    grid = np.linspace(0.0, p_max, 10_000)
    inside = np.array(
        [band[0] <= step_temperature(23.0, params, 32.0, p) <= band[1] for p in grid])
    eps = p_max / 10_000 * 1.01
    for p, ok in zip(grid, inside):
        if lo + eps < p < hi - eps:
            assert ok
        if p < lo - eps or p > hi + eps:
            assert not ok


def test_interval_contains_zero_when_outdoor_in_band():
    params = doe_thermal()
    lo, hi = comfort_power_interval(23.0, params, 23.5, (22.0, 24.0), 3.0)
    assert lo <= hi
    assert lo == 0.0


def test_empty_interval_extreme_heat():
    params = doe_thermal()
    lo, hi = comfort_power_interval(23.9, params, 60.0, (22.0, 24.0), 0.5)
    assert lo > hi


def test_interval_correctness_randomized():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(1000):
        params = ThermalParams(
            r_c_per_kw=rng.uniform(1.0, 3.0),
            c_kwh_per_c=rng.uniform(1.0, 3.0),
            cop=rng.uniform(2.0, 4.0),
            dt_h=rng.uniform(0.02, 0.5),
        )
        t_in = rng.uniform(20.0, 26.0)
        t_out = rng.uniform(15.0, 45.0)
        p_max = rng.uniform(0.5, 4.0)
        lo, hi = comfort_power_interval(t_in, params, t_out, (22.0, 24.0), p_max)
        margin = p_max * 1e-9
        for frac in grid:
            p = frac * p_max
            t_next = step_temperature(t_in, params, t_out, p)
            in_band = 22.0 <= t_next <= 24.0
            if lo > hi:
                assert not in_band
            else:
                if lo + margin < p < hi - margin:
                    assert in_band
                elif p < lo - margin or p > hi + margin:
                    assert not in_band


def test_array_forms_equal_scalar_calls():
    """One call over a roster of households equals one call per household, bit for bit."""
    from types import SimpleNamespace

    rng = np.random.default_rng(8)
    n = 400
    params = [ThermalParams(*rng.uniform(1.0, 3.0, 2), rng.uniform(2.0, 4.0), 1.0 / 12.0)
              for _ in range(n)]
    roster = SimpleNamespace(decay=np.array([p.decay for p in params]),
                             gain=np.array([p.gain for p in params]))
    t_in = rng.uniform(19.0, 27.0, n)
    t_out = rng.uniform(10.0, 45.0, n)
    p_ac = rng.uniform(0.0, 3.0, n)
    p_max = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.3, 3.5, n))
    band = (np.full(n, 22.0), np.full(n, 24.0))

    got = {
        "step": step_temperature(t_in, roster, t_out, p_ac),
        "thermostat": thermostat_power(t_in, roster, t_out, 23.0, p_max),
        "comfort lo": comfort_power_interval(t_in, roster, t_out, band, p_max)[0],
        "comfort hi": comfort_power_interval(t_in, roster, t_out, band, p_max)[1],
    }
    for i, prm in enumerate(params):
        args = (float(t_in[i]), prm, float(t_out[i]))
        lo, hi = comfort_power_interval(*args, (22.0, 24.0), float(p_max[i]))
        want = {
            "step": step_temperature(*args, float(p_ac[i])),
            "thermostat": thermostat_power(*args, 23.0, float(p_max[i])),
            "comfort lo": lo,
            "comfort hi": hi,
        }
        for key, value in want.items():
            assert repr(float(got[key][i])) == repr(float(value)), (key, i)
    # every clamp is taken somewhere
    assert (got["thermostat"] == 0.0).any() and (got["thermostat"] == p_max).any()
    assert (got["comfort lo"] > got["comfort hi"]).any()
    assert (got["comfort lo"] == 0.0).any() and (got["comfort hi"] == p_max).any()


def test_scalar_forms_match_the_closed_form():
    """A scalar call keeps the scalar arithmetic and its clamps (max/min semantics)."""
    params = doe_thermal()
    a, gain = params.decay, params.cop * params.r_c_per_kw

    def power_for(target, t_in, t_out):
        return (t_out - (target - a * t_in) / (1.0 - a)) / gain

    for t_in, t_out in ((23.0, 32.0), (23.9, 60.0), (20.0, 5.0), (23.0, 23.5)):
        lo, hi = comfort_power_interval(t_in, params, t_out, (22.0, 24.0), 2.0)
        assert float(lo) == max(0.0, power_for(24.0, t_in, t_out))
        assert float(hi) == min(2.0, power_for(22.0, t_in, t_out))
        assert float(thermostat_power(t_in, params, t_out, 23.0, 2.0)) == \
            min(max(power_for(23.0, t_in, t_out), 0.0), 2.0)
