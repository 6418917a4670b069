"""Hierarchical set-point tracking over envelope-constrained air-conditioners.

The aggregator problem is the ADMM form of the resource-sharing problem:
each household minimises forgone export revenue plus a proximity penalty
(a one-dimensional clamped quadratic, solved exactly), the coordinator
solves the scalar tracking problem for the shared average, and a single
scaled dual price couples the two.  Every household constraint (AC power
box, thermal comfort, envelope rows) is affine in the AC power, so the
local feasible set is always a closed interval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .envelopes import EnvelopePolytope, HouseholdSpec, pf_tangent, poc_injection
from .thermal import comfort_power_interval, step_temperature

log = logging.getLogger(__name__)

CONSTANT_ROW_TOL = 1e-9


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 1.0
    eps_prim: float = 1e-3
    eps_dual: float = 1e-3
    maxiter: int = 15

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be > 0")
        if self.eps_prim <= 0.0 or self.eps_dual <= 0.0:
            raise ValueError("residual tolerances must be > 0")
        if self.maxiter < 1:
            raise ValueError("maxiter must be >= 1")


@dataclass
class AdmmState:
    """Iterate snapshot; p_avg is the arithmetic mean of p_ac."""

    iteration: int
    p_ac: np.ndarray      # (n,) kW
    p_avg: float
    p_shared: float       # auxiliary shared variable
    theta: float          # scaled dual
    r: np.ndarray         # primal residual vector, p_ac - p_shared
    s: float              # dual residual, change in p_shared


@dataclass(frozen=True)
class FeasibleInterval:
    lo: float
    hi: float
    empty: bool = False
    source: str = ""            # "comfort" | "envelope" | "box" when empty/relaxed
    dropped_rows: int = 0       # envelope rows discarded in favour of comfort

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)


@dataclass
class LocalProblemData:
    """Everything one household's controller needs for one control step."""

    spec: HouseholdSpec
    price: float                 # linear cost coefficient on AC power
    pv_avail_kw: float
    ul_kw: float
    envelope: EnvelopePolytope | None
    t_in_c: float
    t_out_c: float

    def injection_at(self, p_ac: float) -> tuple[float, float]:
        """Affine POC injection maps P(p_ac), Q(p_ac)."""
        spec = self.spec
        return poc_injection(self.pv_avail_kw, p_ac, self.ul_kw, pf_tangent(spec.pf_pv),
                             pf_tangent(spec.pf_ac), pf_tangent(spec.pf_ul))


def feasible_interval(data: LocalProblemData) -> FeasibleInterval:
    """Intersect box, comfort and envelope constraints on the AC power.

    Comfort outranks the envelope: when the envelope would empty the
    intersection, the conflicting rows are dropped, counted, and the
    comfort interval kept.  When even box-and-comfort is empty the comfort
    violation is minimised inside the box and the interval collapses to
    that point, tagged "comfort".
    """
    spec = data.spec
    p_rated = spec.ac_kw_rating
    comfort = comfort_power_interval(
        data.t_in_c, spec.thermal, data.t_out_c,
        (spec.comfort_lo_c, spec.comfort_hi_c), p_rated)

    if comfort is None:
        # The affine temperature map is decreasing in power, so the least
        # violating point sits at whichever box end is nearer the band.
        t_off = step_temperature(data.t_in_c, spec.thermal, data.t_out_c, 0.0)
        p_star = 0.0 if t_off < spec.comfort_lo_c else p_rated
        return FeasibleInterval(p_star, p_star, empty=True, source="comfort")

    lo, hi = comfort
    if data.envelope is None:
        return FeasibleInterval(lo, hi)

    # Each envelope row a . (P_inj, Q_inj) <= b is affine in p_ac:
    #   coef * p_ac <= rhs with coef = -(a_p + a_q * tan_ac).
    p0, q0 = data.injection_at(0.0)
    tan_ac = pf_tangent(spec.pf_ac)
    coef = -(data.envelope.a[:, 0] + data.envelope.a[:, 1] * tan_ac)
    rhs = data.envelope.b - (data.envelope.a[:, 0] * p0 + data.envelope.a[:, 1] * q0)

    env_lo, env_hi = lo, hi
    dropped = 0
    for c, r in zip(coef, rhs):
        if abs(c) < 1e-12:
            if r < -CONSTANT_ROW_TOL:
                dropped += 1  # row unsatisfiable regardless of p_ac
            continue
        bound = r / c
        if c > 0.0:
            env_hi = min(env_hi, bound)
        else:
            env_lo = max(env_lo, bound)
    if dropped or env_lo > env_hi:
        # Keep comfort; count every row that actually cuts into it.
        dropped = int(dropped + np.sum(_rows_conflicting(coef, rhs, lo, hi)))
        log.debug("household %s: %d envelope rows conflict with comfort, relaxed",
                  spec.id, dropped)
        return FeasibleInterval(lo, hi, source="envelope", dropped_rows=dropped)
    return FeasibleInterval(env_lo, env_hi)


def _rows_conflicting(coef, rhs, lo, hi):
    """Rows that exclude the whole comfort interval [lo, hi]."""
    with np.errstate(divide="ignore"):
        bound = rhs / coef
    out = np.zeros(coef.shape, dtype=bool)
    pos = coef > 1e-12
    neg = coef < -1e-12
    out[pos] = bound[pos] < lo
    out[neg] = bound[neg] > hi
    return out


def local_solve(data: LocalProblemData, interval: FeasibleInterval,
                p_ac_prev: float, p_avg: float, p_shared: float, theta: float,
                cfg: AdmmConfig) -> float:
    """Exact minimiser of price * p + (rho/2) (p - c)^2 over the interval."""
    c = p_ac_prev - p_avg + p_shared - theta
    return interval.clamp(c - data.price / cfg.rho)


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


def dual_update(theta: float, p_avg_next: float, p_next: float) -> float:
    return theta + p_avg_next - p_next


@dataclass
class AdmmResult:
    p_ac: np.ndarray            # (n,) dispatched kW per household
    iterations: int
    stop_reason: str            # "residual" | "maxiter"
    r_norm: float
    s_norm: float
    tracking_error_kw: float
    p_ref_kw: float
    intervals: list[FeasibleInterval]
    history: list[AdmmState] = field(default_factory=list)


def admm_track(problems: list[LocalProblemData], p_ref: float, cfg: AdmmConfig,
               warm_start: np.ndarray | None = None,
               record_history: bool = False) -> AdmmResult:
    """Iterate local solves, averaging, coordinator and dual updates.

    Initialisation: shared variable at p_ref / n, zero dual, household
    powers from the warm start (previous step's dispatch) or zero.
    Terminates when both residual norms pass their tolerances or at the
    iteration cap, whichever first; hitting the cap is a recorded outcome.
    """
    n = len(problems)
    if n == 0:
        raise ValueError("need at least one household")
    intervals = [feasible_interval(d) for d in problems]
    prices = np.array([d.price for d in problems])
    los = np.array([iv.lo for iv in intervals])
    his = np.array([iv.hi for iv in intervals])

    p_ac = np.zeros(n) if warm_start is None else np.array(warm_start, dtype=float)
    if p_ac.shape != (n,):
        raise ValueError("warm start must have one entry per household")
    p_shared = p_ref / n
    theta = 0.0
    p_avg = float(p_ac.mean())

    history: list[AdmmState] = []
    stop_reason = "maxiter"
    iterations = 0
    r = p_ac - p_shared
    s = 0.0
    for nu in range(1, cfg.maxiter + 1):
        centre = p_ac - p_avg + p_shared - theta
        p_ac = np.clip(centre - prices / cfg.rho, los, his)
        p_avg = float(p_ac.mean())
        p_shared_next = coordinator_update(p_avg, theta, p_ref, n, cfg)
        theta = dual_update(theta, p_avg, p_shared_next)
        r = p_ac - p_shared_next
        s = p_shared_next - p_shared
        p_shared = p_shared_next
        iterations = nu
        if record_history:
            history.append(AdmmState(nu, p_ac.copy(), p_avg, p_shared, theta, r.copy(), s))
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
        history=history,
    )
