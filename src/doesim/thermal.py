"""First-order equivalent-thermal-parameter model of a conditioned space.

Indoor temperature follows the affine map
    T' = a * T + (1 - a) * (T_out - cop * r * p_ac),  a = exp(-dt / (r * c)),
with cooling power p_ac in kW. The map is strictly decreasing in p_ac, so
the set of powers that keeps T' inside a comfort band is a closed interval
obtainable in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ThermalParams:
    r_c_per_kw: float    # thermal resistance, degC/kW
    c_kwh_per_c: float   # thermal capacitance, kWh/degC
    cop: float           # coefficient of performance
    dt_h: float          # control step, hours

    def __post_init__(self):
        for name in ("r_c_per_kw", "c_kwh_per_c", "cop", "dt_h"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def decay(self) -> float:
        return math.exp(-self.dt_h / (self.r_c_per_kw * self.c_kwh_per_c))


def step_temperature(t_in: float, params: ThermalParams, t_out: float, p_ac: float) -> float:
    """One control step of the indoor-temperature map; p_ac >= 0 kW."""
    if p_ac < 0.0:
        raise ValueError("air-conditioner power must be non-negative")
    a = params.decay
    return a * t_in + (1.0 - a) * (t_out - params.cop * params.r_c_per_kw * p_ac)


def comfort_power_interval(t_in: float, params: ThermalParams, t_out: float,
                           band: tuple[float, float], p_max: float):
    """AC powers within [0, p_max] that land the next temperature in the band.

    Returns (lo, hi) or None when no feasible power exists.  Solved in
    closed form from the affine map: the power hitting a target T* is
        p = (t_out - (T* - a * t_in) / (1 - a)) / (cop * r).
    """
    t_lo, t_hi = band
    if not t_lo < t_hi:
        raise ValueError(f"comfort band must satisfy lo < hi, got [{t_lo}, {t_hi}]")
    a = params.decay
    gain = params.cop * params.r_c_per_kw

    def power_for(target):
        return (t_out - (target - a * t_in) / (1.0 - a)) / gain

    # T' decreasing in p: upper temperature bound gives the lower power bound.
    lo = max(0.0, power_for(t_hi))
    hi = min(p_max, power_for(t_lo))
    if lo > hi:
        return None
    return (lo, hi)


def thermostat_power(t_in: float, params: ThermalParams, t_out: float,
                     setpoint: float, p_max: float) -> float:
    """Power a simple thermostat would draw to steer T' to the setpoint, boxed."""
    a = params.decay
    p = (t_out - (setpoint - a * t_in) / (1.0 - a)) / (params.cop * params.r_c_per_kw)
    return min(max(p, 0.0), p_max)
