"""First-order equivalent-thermal-parameter model of a conditioned space.

Indoor temperature follows the affine map
    T' = a * T + (1 - a) * (T_out - gain * p_ac),  a = exp(-dt / (r * c)),  gain = cop * r,
with cooling power p_ac in kW. The map is strictly decreasing in p_ac, so
the set of powers that keeps T' inside a comfort band is a closed interval
obtainable in closed form.

The functions read only ``params.decay`` and ``params.gain``, so they take
one household's ThermalParams or a table of DOE households (a Roster), and
every argument broadcasts.
Clamps use ``np.where``, which keeps a zero's sign as ``max``/``min`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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

    @property
    def gain(self) -> float:
        """Steady-state temperature drop per kW of cooling, degC/kW."""
        return self.cop * self.r_c_per_kw


def step_temperature(t_in, params, t_out, p_ac):
    """One control step of the indoor-temperature map; p_ac >= 0 kW."""
    if np.any(np.less(p_ac, 0.0)):
        raise ValueError("air-conditioner power must be non-negative")
    a = params.decay
    return a * t_in + (1.0 - a) * (t_out - params.gain * p_ac)


def _power_for(t_in, params, t_out, target):
    """Power that lands the next temperature exactly on ``target``."""
    a = params.decay
    return (t_out - (target - a * t_in) / (1.0 - a)) / params.gain


def comfort_power_interval(t_in, params, t_out, band, p_max):
    """AC powers within [0, p_max] that land the next temperature in the band.

    Returns (lo, hi); lo > hi means no feasible power exists.  Solved in
    closed form from the affine map: the power hitting a target T* is
        p = (t_out - (T* - a * t_in) / (1 - a)) / gain.
    """
    t_lo, t_hi = band
    if not np.all(np.less(t_lo, t_hi)):
        raise ValueError(f"comfort band must satisfy lo < hi, got [{t_lo}, {t_hi}]")
    # T' decreasing in p: upper temperature bound gives the lower power bound.
    lo = _power_for(t_in, params, t_out, t_hi)
    hi = _power_for(t_in, params, t_out, t_lo)
    return np.where(lo > 0.0, lo, 0.0), np.where(hi < p_max, hi, p_max)


def thermostat_power(t_in, params, t_out, setpoint, p_max):
    """Power a simple thermostat would draw to steer T' to the setpoint, boxed."""
    p = _power_for(t_in, params, t_out, setpoint)
    p = np.where(p < 0.0, 0.0, p)
    return np.where(p > p_max, p_max, p)
