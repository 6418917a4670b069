"""Hierarchical set-point tracking over envelope-constrained air-conditioners.

The aggregator problem is the ADMM form of the resource-sharing problem:
each household minimises forgone export revenue plus a proximity penalty
(a one-dimensional clamped quadratic, solved exactly), the coordinator
solves the scalar tracking problem for the shared average, and a single
scaled dual price couples the two.  Every household constraint (AC power
box, thermal comfort, envelope rows) is affine in the AC power, so the
local feasible set is always a closed interval; ``feasible_intervals``
finds all of them at once from the roster and the stacked envelope rows,
as one table with a row per household: ``lo``, ``hi`` and ``source``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import EnvelopePolytope, Roster, poc_injection
from .thermal import comfort_power_interval, step_temperature

CONSTANT_ROW_TOL = 1e-9


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 1.0
    eps_prim: float = 1e-3
    eps_dual: float = 1e-3
    maxiter: int = 15

    def __post_init__(self):
        # NaN fails every rule; the keys are the study file's [admm] keys.
        rules = (
            ("rho", self.rho, 0.0 < self.rho < math.inf, "> 0 and finite"),
            ("eps_prim", self.eps_prim, self.eps_prim > 0.0, "> 0"),
            ("eps_dual", self.eps_dual, self.eps_dual > 0.0, "> 0"),
            ("maxiter", self.maxiter, self.maxiter >= 1, ">= 1"),
        )
        for key, value, ok, rule in rules:
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {value}")


def feasible_intervals(roster: Roster, pv, ul, envelopes: dict[str, EnvelopePolytope],
                       t_in, t_out: float) -> np.recarray:
    """Intersect box, comfort and envelope constraints on each household's AC power.

    pv, ul and t_in hold one value per roster household; a household
    missing from ``envelopes`` is bounded by box and comfort alone.
    Returns a record array with one row per household: ``lo`` and ``hi``
    in kW and ``source``, "" for an interval that keeps every constraint.
    Comfort outranks the envelope: when the envelope would empty the
    intersection, or holds a row no AC power satisfies, the comfort
    interval is kept and tagged "envelope".  When even box-and-comfort is
    empty the comfort violation is minimised inside the box and the
    interval collapses to that point, tagged "comfort".
    """
    n = len(roster.ids)
    lo, hi = comfort_power_interval(t_in, roster, t_out,
                                    (roster.comfort_lo, roster.comfort_hi), roster.ac_kw_rating)
    empty = lo > hi
    # The affine temperature map is decreasing in power, so the least
    # violating point sits at whichever box end is nearer the band.
    t_off = step_temperature(t_in, roster, t_out, 0.0)
    p_star = np.where(t_off < roster.comfort_lo, 0.0, roster.ac_kw_rating)

    # Every household's rows stacked; row k belongs to household owner[k].
    # Each row a . (P_inj, Q_inj) <= b is affine in p_ac:
    #   coef * p_ac <= rhs with coef = -(a_p + a_q * tan_ac).
    envs = [envelopes[hid] for hid in roster.ids if hid in envelopes]
    counts = np.array([len(envelopes[hid].b) if hid in envelopes else 0 for hid in roster.ids])
    owner = np.repeat(np.arange(n), counts)
    a = np.concatenate([np.zeros((0, 2))] + [e.a for e in envs])
    b = np.concatenate([np.zeros(0)] + [e.b for e in envs])
    p0, q0 = poc_injection(pv, 0.0, ul, roster.tan_pv, roster.tan_ac, roster.tan_ul)
    coef = -(a[:, 0] + a[:, 1] * roster.tan_ac[owner])
    rhs = b - (a[:, 0] * p0[owner] + a[:, 1] * q0[owner])
    constant = np.abs(coef) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = rhs / coef

    # Per household, the comfort end in column 0 and its rows' bounds after
    # it.  argmin/argmax pick the first extreme entry, so ties (0.0 against
    # -0.0 included) resolve as a running min/max over the rows would.
    col = 1 + np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    upper = np.full((n, counts.max(initial=0) + 1), np.inf)
    lower = np.full(upper.shape, -np.inf)
    upper[:, 0], lower[:, 0] = hi, lo
    is_hi, is_lo = ~constant & (coef > 0.0), ~constant & (coef < 0.0)
    upper[owner[is_hi], col[is_hi]] = bound[is_hi]
    lower[owner[is_lo], col[is_lo]] = bound[is_lo]
    env_hi = upper[np.arange(n), upper.argmin(axis=1)]
    env_lo = lower[np.arange(n), lower.argmax(axis=1)]

    unsatisfiable = np.zeros(n, dtype=bool)
    unsatisfiable[owner[constant & (rhs < -CONSTANT_ROW_TOL)]] = True
    relaxed = ~empty & (unsatisfiable | (env_lo > env_hi))
    out_lo = np.where(empty, p_star, np.where(relaxed, lo, env_lo))
    out_hi = np.where(empty, p_star, np.where(relaxed, hi, env_hi))
    source = np.where(empty, "comfort", np.where(relaxed, "envelope", ""))
    return np.rec.fromarrays([out_lo, out_hi, source], names="lo,hi,source")


def coordinator_update(p_avg_next: float, theta: float, p_ref: float, n: int,
                       cfg: AdmmConfig) -> float:
    """Scalar tracking update for the shared variable.

    Minimises (n p - p_ref)^2 + (n rho / 2) (p - d)^2 with
    d = theta + p_avg_next; stationarity gives p = (2 p_ref + rho d) / (2 n + rho).
    """
    if n < 1:
        raise ValueError("household count must be >= 1")
    d = theta + p_avg_next
    return (2.0 * p_ref + cfg.rho * d) / (2.0 * n + cfg.rho)


@dataclass
class AdmmResult:
    p_ac: np.ndarray            # (n,) dispatched kW per household
    iterations: int
    stop_reason: str            # "residual" | "maxiter"
    r_norm: float
    s_norm: float
    tracking_error_kw: float
    p_ref_kw: float
    intervals: np.recarray      # feasible_intervals' table, as passed in


def admm_track(intervals: np.recarray, price, p_ref: float, cfg: AdmmConfig,
               warm_start: np.ndarray | None = None) -> AdmmResult:
    """Iterate local solves, averaging, coordinator and dual updates.

    A local solve minimises price * p + (rho/2) (p - c)^2 over the household's
    row of ``intervals``, a clamp to [lo, hi]; ``price`` is one coefficient for
    all households or one each.  Initialisation: shared variable at p_ref / n,
    zero dual, household powers from the warm start (previous step's
    dispatch) or zero.
    Terminates when both residual norms pass their tolerances or at the
    iteration cap, whichever first; hitting the cap is a recorded outcome.
    """
    n = len(intervals)
    if n == 0:
        raise ValueError("need at least one household")
    # Read the columns once: a record array's field lookup costs microseconds.
    lo, hi = intervals.lo, intervals.hi

    p_ac = np.zeros(n) if warm_start is None else np.array(warm_start, dtype=float)
    if p_ac.shape != (n,):
        raise ValueError("warm start must have one entry per household")
    p_shared = p_ref / n
    theta = 0.0
    p_avg = float(p_ac.mean())

    stop_reason = "maxiter"
    iterations = 0
    r = p_ac - p_shared
    s = 0.0
    for nu in range(1, cfg.maxiter + 1):
        centre = p_ac - p_avg + p_shared - theta
        p_ac = np.clip(centre - price / cfg.rho, lo, hi)
        p_avg = float(p_ac.mean())
        p_shared_next = coordinator_update(p_avg, theta, p_ref, n, cfg)
        theta = theta + p_avg - p_shared_next
        r = p_ac - p_shared_next
        s = p_shared_next - p_shared
        p_shared = p_shared_next
        iterations = nu
        if np.linalg.norm(r) <= cfg.eps_prim and abs(s) <= cfg.eps_dual:
            stop_reason = "residual"
            break

    total = float(p_ac.sum())
    return AdmmResult(
        p_ac=p_ac,
        iterations=iterations,
        stop_reason=stop_reason,
        r_norm=float(np.linalg.norm(r)),
        s_norm=abs(s),
        tracking_error_kw=abs(total - p_ref),
        p_ref_kw=p_ref,
        intervals=intervals,
    )
