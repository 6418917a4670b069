from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    doe_thermal,
    household,
    household_table,
    golden_section,
    grid_minimize,
    polygon_envelope,
    refine_product_minimize,
    scalar_feasible_interval,
)

from doesim import (
    AdmmConfig,
    ThermalParams,
    admm_track,
    coordinator_update,
    feasible_intervals,
)
from doesim.envelopes import segment_envelopes


def make_spec(hid="h1", ac=2.0, comfort=(22.0, 24.0), thermal=None):
    return household(
        hid, True, pv_kw_rating=3.0, pf_pv=0.8, pf_ul=0.95, ac_kw_rating=ac, pf_ac=0.95,
        thermal=thermal or doe_thermal(), comfort_lo_c=comfort[0], comfort_hi_c=comfort[1])


def interval(spec=None, pv=3.0, ul=0.5, envelope=None, t_in=23.0, t_out=23.0):
    """One household's feasible interval: its row of the interval table."""
    spec = spec or make_spec()
    envelopes = {} if envelope is None else {spec.id: envelope}
    return feasible_intervals(household_table(spec), np.array([pv]), np.array([ul]),
                              envelopes, np.array([t_in]), t_out)[0]


def loose_spec(hid="h1", ac=2.0):
    # comfort band so wide it never binds inside the box
    return make_spec(hid, ac=ac, comfort=(-100.0, 200.0))


def table(*rows):
    """An interval table from (lo, hi, source) rows, as feasible_intervals returns it."""
    return np.rec.fromrecords([tuple(row) for row in rows], names="lo,hi,source")


def loose_intervals(n, ac=2.0):
    return table(*(interval(loose_spec(f"h{i}", ac=ac)) for i in range(n)))


# ---------------------------------------------------------------------------
# feasible_intervals
# ---------------------------------------------------------------------------

def test_interval_box_when_nothing_binds():
    iv = interval(loose_spec())
    assert (iv.lo, iv.hi, iv.source) == (0.0, 2.0, "")


def test_interval_single_row_forces_export_nonnegative():
    # row -P_inj <= 0 with pv = 3.0, ul = 0.5 induces P_AC <= 2.5
    env = segment_envelopes(["h1"], 0, np.zeros((1, 1, 2)), sampled=1)["h1"]
    env.a = np.array([[-1.0, 0.0]])
    env.b = np.array([0.0])
    iv = interval(loose_spec(ac=3.0), envelope=env)
    assert iv.lo == 0.0
    assert iv.hi == pytest.approx(2.5, abs=1e-12)


def test_interval_empty_comfort_tagged():
    # outdoor heat far beyond what a 0.3 kW unit can remove
    iv = interval(make_spec(ac=0.3), t_in=23.9, t_out=60.0)
    assert iv.source == "comfort"
    assert iv.lo == iv.hi == 0.3  # full power is the least violating point


def test_interval_empty_comfort_cold_side():
    iv = interval(make_spec(ac=2.0), t_in=20.0, t_out=5.0)
    assert iv.source == "comfort"
    assert iv.lo == iv.hi == 0.0  # off is the least violating point


def test_interval_envelope_conflict_relaxed_in_favor_of_comfort():
    env = segment_envelopes(["h1"], 0, np.zeros((1, 1, 2)), sampled=1)["h1"]
    env.a = np.array([[1.0, 0.0]])
    env.b = np.array([-10.0])  # P_inj <= -10: impossible for this household
    iv = interval(loose_spec(), envelope=env)
    assert iv.source == "envelope"
    assert (iv.lo, iv.hi) == (0.0, 2.0)


def test_interval_intersects_comfort_and_box():
    spec = make_spec(ac=3.0)
    iv = interval(spec, t_in=23.0, t_out=32.0)
    from doesim import comfort_power_interval

    lo, hi = comfort_power_interval(23.0, spec.thermal, 32.0, (22.0, 24.0), 3.0)
    assert iv.lo == pytest.approx(lo)
    assert iv.hi == pytest.approx(hi)


def _reference_cases(rng):
    """Households, inputs and envelopes that reach every branch of the interval."""
    specs, pv, ul, t_in, envs = {}, [], [], [], {}
    for i in range(120):
        hid = f"h{i:03d}"
        spec = household(
            hid, True, pv_kw_rating=6.0,
            pf_pv=float(rng.uniform(0.7, 1.0)), pf_ul=float(rng.uniform(0.7, 1.0)),
            ac_kw_rating=float(rng.choice([0.0, rng.uniform(0.3, 3.5)], p=[0.1, 0.9])),
            pf_ac=float(rng.uniform(0.7, 1.0)),
            thermal=ThermalParams(*rng.uniform(1.0, 3.0, 2), 2.5, 1.0 / 12.0),
            comfort_lo_c=22.0, comfort_hi_c=24.0)
        specs[hid] = spec
        pv.append(float(rng.uniform(0.0, 6.0)) if i % 7 else 0.0)
        ul.append(float(rng.uniform(0.0, 2.0)) if i % 7 else 0.0)
        t_in.append(float(rng.uniform(21.0, 25.0)))
        kind = i % 6
        if kind == 5:
            continue  # no envelope: box and comfort only
        pts = rng.uniform(-6.0, 6.0, (int(rng.integers(1, 12)), 2))
        env = polygon_envelope(hid, pts)   # general P-Q rows, as a file may hold
        tan_ac = float(np.tan(np.arccos(spec.pf_ac)))
        if kind == 1:
            # rows whose coefficient on p_ac is (next to) zero, with a right-hand
            # side just either side of the tolerance
            row = np.array([-tan_ac + 5e-13, 1.0])
            p0, q0 = pv[-1] - ul[-1], pv[-1] * np.tan(np.arccos(spec.pf_pv)) - ul[-1] * np.tan(
                np.arccos(spec.pf_ul))
            env.a = np.vstack([env.a, row, [0.0, 0.0]])
            env.b = np.append(env.b, [row @ (p0, q0), 0.0] + rng.uniform(-2e-9, 2e-9, 2))
        elif kind == 2:
            env.a = np.vstack([env.a, [[1.0, 0.0]]])  # P_inj <= -10 cuts all of comfort
            env.b = np.append(env.b, -10.0)
        elif kind == 3 and pv[-1] == 0.0:
            # bounds of -0.0 and 0.0 at the box end and among the rows
            env.a = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
            env.b = np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0]][i // 6 % 2])
        envs[hid] = env
    return specs, np.array(pv), np.array(ul), np.array(t_in), envs


def test_feasible_intervals_equal_scalar_reference():
    rng = np.random.default_rng(12)
    seen = {"empty": 0, "relaxed": 0, "unsatisfiable row": 0, "negative zero": 0}
    for t_out in (15.0, 23.0, 31.0, 38.0, 60.0):
        specs, pv, ul, t_in, envs = _reference_cases(rng)
        got = feasible_intervals(household_table(*specs.values()), pv, ul, envs, t_in, t_out)
        for iv, hid, *inputs in zip(got, specs, pv.tolist(), ul.tolist(), t_in.tolist()):
            p, u, t = inputs
            lo, hi, empty, source = scalar_feasible_interval(specs[hid], p, u, envs.get(hid),
                                                             t, t_out)
            assert repr((float(iv.lo), float(iv.hi))) == repr((float(lo), float(hi))), hid
            assert iv.source == source and empty == (source == "comfort"), hid
            seen["empty"] += iv.source == "comfort"
            seen["relaxed"] += iv.source == "envelope"
            seen["unsatisfiable row"] += iv.source == "envelope" and int(hid[1:]) % 6 == 1
            seen["negative zero"] += repr(float(iv.hi)) == "-0.0"
    assert all(count > 0 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# local solve (admm_track's first iterate) / coordinator_update
# ---------------------------------------------------------------------------

def first_iterate(bounds, price, centre, cfg=None):
    """One household's first ADMM power: its local solve around ``centre``.

    With one household and no warm start the first centre is p_ref itself.
    """
    cfg = replace(cfg or AdmmConfig(), maxiter=1)
    return admm_track(table((*bounds, "")), np.array([price]), centre, cfg).p_ac[0]


def test_local_solve_unconstrained_center():
    # c = p_prev - p_avg + p_shared - theta = 1.2
    assert first_iterate((0.0, 2.0), 0.0, 1.2) == pytest.approx(1.2)


def test_local_solve_matches_grid_oracle():
    got = first_iterate((0.0, 2.0), 0.5, 1.2, AdmmConfig(rho=1.0))
    oracle = grid_minimize(lambda p: 0.5 * p + 0.5 * (p - 1.2) ** 2, 0.0, 2.0, 1e-5)
    assert got == pytest.approx(0.7, abs=1e-12)
    assert abs(got - oracle) <= 1e-5


def test_local_solve_clamps_to_lower_bound():
    got = first_iterate((0.5, 2.0), 3.0, 0.0, AdmmConfig(rho=1.0))
    assert got == 0.5


def test_coordinator_consistent_point():
    assert coordinator_update(1.0, 0.0, p_ref=1.0, n=1, cfg=AdmmConfig(rho=1.0)) == pytest.approx(1.0)


def test_coordinator_matches_golden_section():
    cfg = AdmmConfig(rho=1.0)
    n, p_ref, d = 30, 60.0, 1.9
    got = coordinator_update(p_avg_next=d, theta=0.0, p_ref=p_ref, n=n, cfg=cfg)
    oracle = golden_section(lambda p: (n * p - p_ref) ** 2 + (n * cfg.rho / 2.0) * (p - d) ** 2,
                            -10.0, 10.0)
    assert abs(got - oracle) < 1e-9
    assert got == pytest.approx((2 * p_ref + cfg.rho * d) / (2 * n + cfg.rho), abs=1e-14)


def test_coordinator_penalty_dominated_limit():
    cfg = AdmmConfig(rho=1e9)
    got = coordinator_update(p_avg_next=1.3, theta=0.6, p_ref=42.0, n=30, cfg=cfg)
    assert got == pytest.approx(1.9, abs=1e-6)


# ---------------------------------------------------------------------------
# admm_track
# ---------------------------------------------------------------------------

def centralized_objective(prices, p_ref):
    def fun(candidates):
        candidates = np.atleast_2d(candidates)
        total = candidates.sum(axis=1)
        return (total - p_ref) ** 2 + candidates @ prices
    return fun


def test_track_three_households_tracks_and_matches_oracle():
    # zero prices: every sum-correct split is optimal, so compare objectives
    prices = np.zeros(3)
    p_ref = 4.0
    cfg = AdmmConfig(rho=1.0, eps_prim=1e-12, eps_dual=1e-12, maxiter=4000)
    result = admm_track(loose_intervals(3, ac=2.5), prices, p_ref, cfg)
    assert result.tracking_error_kw < 1e-3

    fun = centralized_objective(prices, p_ref)
    oracle = refine_product_minimize(fun, [(0.0, 2.5)] * 3)
    assert abs(fun(result.p_ac[None, :])[0] - fun(oracle[None, :])[0]) < 1e-4


def test_track_price_tracking_tradeoff_at_optimum():
    # with a real price the optimum under-consumes by price/2 for the
    # household left strictly inside its interval
    prices = np.array([0.02, 0.05, 0.09])
    p_ref = 4.0
    cfg = AdmmConfig(rho=1.0, eps_prim=1e-12, eps_dual=1e-12, maxiter=4000)
    result = admm_track(loose_intervals(3, ac=2.5), prices, p_ref, cfg)
    assert result.tracking_error_kw == pytest.approx(prices[1] / 2.0, abs=1e-6)

    fun = centralized_objective(prices, p_ref)
    oracle = refine_product_minimize(fun, [(0.0, 2.5)] * 3)
    assert np.abs(result.p_ac - oracle).max() < 1e-3
    assert abs(fun(result.p_ac[None, :])[0] - fun(oracle[None, :])[0]) < 1e-4


def test_track_zero_reference_zero_price_stops_immediately():
    result = admm_track(loose_intervals(4), np.zeros(4), 0.0, AdmmConfig())
    assert result.iterations == 1
    assert result.stop_reason == "residual"
    assert (result.p_ac == 0.0).all()


def test_track_dispatch_within_intervals():
    rng = np.random.default_rng(2)
    rows, prices = [], []
    for i in range(6):
        spec = make_spec(f"h{i}", ac=float(rng.uniform(1.5, 3.0)))
        prices.append(float(rng.uniform(0.0, 0.2)))
        rows.append(interval(spec, t_in=float(rng.uniform(22.4, 23.6)),
                             t_out=float(rng.uniform(28.0, 34.0))))
    result = admm_track(table(*rows), np.array(prices), p_ref=6.0, cfg=AdmmConfig(maxiter=15))
    for p, iv in zip(result.p_ac, result.intervals):
        assert iv.lo - 1e-9 <= p <= iv.hi + 1e-9


def test_track_maxiter_honored_and_recorded():
    cfg = AdmmConfig(eps_prim=1e-15, eps_dual=1e-15, maxiter=15)
    result = admm_track(loose_intervals(3), 0.01 * np.arange(1, 4), 3.0, cfg)
    assert result.iterations == 15
    assert result.stop_reason == "maxiter"


def scalar_iterate(intervals, prices, p_ref, cfg, warm, k):
    """The k-th ADMM iterate, one household and one update at a time.

    Returns (p_ac, p_shared, the previous p_shared): the k-th iterate's
    residuals are p_ac - p_shared and the change in p_shared.
    """
    n = len(intervals)
    p_ac, p_shared, theta = np.array(warm, dtype=float), p_ref / n, 0.0
    for _ in range(k):
        p_avg = p_ac.mean()
        # each household's local solve: the clamp of c - price / rho to its interval
        p_ac = np.array([min(max(p - p_avg + p_shared - theta - price / cfg.rho, iv.lo), iv.hi)
                         for p, price, iv in zip(p_ac.tolist(), prices, intervals)])
        p_prev, p_shared = p_shared, coordinator_update(p_ac.mean(), theta, p_ref, n, cfg)
        theta = theta + p_ac.mean() - p_shared
    return p_ac, p_shared, p_prev


def test_track_residual_consistency_and_state_invariants():
    """A maxiter=k run stops at the k-th iterate and reports that iterate's residuals."""
    intervals, prices = loose_intervals(5), 0.02 * np.arange(5)
    for k in range(1, 11):
        cfg = AdmmConfig(maxiter=k, eps_prim=1e-15, eps_dual=1e-15)
        result = admm_track(intervals, prices, 5.0, cfg)
        p_ac, p_shared, p_prev = scalar_iterate(intervals, prices.tolist(), 5.0, cfg,
                                                np.zeros(5), k)
        assert (result.iterations, result.stop_reason) == (k, "maxiter")
        assert result.p_ac.tolist() == p_ac.tolist()
        assert result.r_norm == float(np.linalg.norm(p_ac - p_shared))
        assert result.s_norm == abs(p_shared - p_prev)
        assert result.tracking_error_kw == abs(float(p_ac.sum()) - 5.0)


def test_track_deterministic_iterates():
    intervals = loose_intervals(4)
    warm = np.array([0.1, 0.2, 0.3, 0.4])
    for k in range(1, 16):
        cfg = AdmmConfig(maxiter=k)
        a = admm_track(intervals, 0.03, 2.0, cfg, warm_start=warm)
        b = admm_track(intervals, 0.03, 2.0, cfg, warm_start=warm)
        assert (a.p_ac == b.p_ac).all()
        assert (a.iterations, a.r_norm, a.s_norm) == (b.iterations, b.r_norm, b.s_norm)


def test_track_empty_comfort_fallback_participates_as_fixed_point():
    hot = interval(make_spec("h_hot", ac=0.3), t_in=23.9, t_out=60.0)
    ok = interval(loose_spec("h_ok"))
    result = admm_track(table(hot, ok), np.zeros(2), p_ref=1.0, cfg=AdmmConfig())
    assert result.intervals[0].source == "comfort"
    assert result.p_ac[0] == pytest.approx(0.3)  # pinned at the fallback point
    assert result.p_ac[1] == pytest.approx(0.7, abs=1e-2)  # the rest tracks


def test_track_two_iterations_equal_scalar_operations():
    """The vectorised loop reproduces the scalar local / coordinator / dual updates exactly.

    The second iterate's local solves and coordinator step read the first
    dual update, and two of the four households are clamped, one at each end.
    """
    intervals = table((0.0, 2.0, ""), (0.7, 2.3, ""), (0.0, 0.5, ""), (1.0, 1.0, "comfort"))
    prices = [0.02 * i for i in range(4)]
    cfg = AdmmConfig(maxiter=2, eps_prim=1e-15, eps_dual=1e-15)
    warm = np.array([0.3, 0.6, 0.9, 1.2])
    p_ref = 3.3
    result = admm_track(intervals, np.array(prices), p_ref, cfg, warm_start=warm)

    p_ac, p_shared, p_prev = scalar_iterate(intervals, prices, p_ref, cfg, warm, 2)
    assert result.iterations == 2
    assert result.p_ac.tolist() == p_ac.tolist()
    assert result.r_norm == float(np.linalg.norm(p_ac - p_shared))
    assert result.s_norm == abs(p_shared - p_prev)
    first, _, _ = scalar_iterate(intervals, prices, p_ref, cfg, warm, 1)
    assert first[1] == 0.7 and first[2] == 0.5  # clamped at lo and at hi
