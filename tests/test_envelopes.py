import logging

import numpy as np
import pytest

from conftest import brute_hull, point_in_hull_oracle

from doesim import (
    CustomerClass,
    EnvelopeError,
    HouseholdSpec,
    assemble_admittance,
    build_envelopes,
    convex_hull,
    feasible_set,
    halfspace_rep,
    injection_limits,
    sample_scenarios,
)
from doesim.envelopes import envelope_from_points, hull_candidates

T95 = 0.3286841051788632  # tan(acos 0.95)


# ---------------------------------------------------------------------------
# Injection limits
# ---------------------------------------------------------------------------

def test_doe_limits_hand_values(doe_spec):
    lim = injection_limits(doe_spec, pv_avail_kw=3.0, ul_kw=0.5)
    assert lim.p_min == pytest.approx(0.5, abs=1e-12)
    assert lim.p_max == pytest.approx(2.5, abs=1e-12)
    assert lim.q_max == pytest.approx(2.0856579474105676, abs=1e-12)
    assert lim.q_min == pytest.approx(1.4282897370528413, abs=1e-12)
    assert not lim.degenerate


def test_passive_limits_hand_values(passive_spec):
    lim = injection_limits(passive_spec, pv_avail_kw=0.0, ul_kw=1.0)
    assert lim.p_min == lim.p_max == -1.0
    assert lim.q_min == lim.q_max == pytest.approx(-T95, abs=1e-12)
    assert lim.degenerate


def test_all_zero_inputs(doe_spec):
    spec = HouseholdSpec(
        id="h0", customer_class=CustomerClass.DOE, pv_kw_rating=0.0,
        pf_pv=0.8, pf_ul=0.95, ac_kw_rating=0.0, pf_ac=0.95,
        thermal=doe_spec.thermal)
    lim = injection_limits(spec, 0.0, 0.0)
    assert (lim.p_min, lim.p_max, lim.q_min, lim.q_max) == (0, 0, 0, 0)


def test_negative_inputs_rejected(doe_spec):
    with pytest.raises(ValueError):
        injection_limits(doe_spec, -0.1, 0.0)
    with pytest.raises(ValueError):
        injection_limits(doe_spec, 0.0, -0.1)


def test_nondoe_degenerate(nondoe_spec):
    lim = injection_limits(nondoe_spec, pv_avail_kw=3.2, ul_kw=0.7)
    assert lim.degenerate
    assert lim.p_min == pytest.approx(2.5, abs=1e-12)


def test_injection_limits_endpoints_equal_injection_at(doe_spec):
    """The box ends equal the dispatch stage's injections at AC off and AC at rating."""
    from doesim import Roster, poc_injection

    rng = np.random.default_rng(5)
    for _ in range(200):
        spec = HouseholdSpec(
            id="h", customer_class=CustomerClass.DOE, pv_kw_rating=8.0,
            pf_pv=float(rng.uniform(0.7, 1.0)), pf_ul=float(rng.uniform(0.7, 1.0)),
            ac_kw_rating=float(rng.uniform(0.0, 4.0)), pf_ac=float(rng.uniform(0.7, 1.0)),
            thermal=doe_spec.thermal)
        pv, ul = float(rng.uniform(0.0, 8.0)), float(rng.uniform(0.0, 3.0))
        box = injection_limits(spec, pv, ul)
        roster = Roster.from_specs({"h": spec})
        tans = (roster.tan_pv, roster.tan_ac, roster.tan_ul)
        p, q = poc_injection(pv, np.r_[0.0, roster.ac_kw_rating], ul, *tans)
        assert np.array_equal(p, [box.p_max, box.p_min])
        assert np.array_equal(q, [box.q_max, box.q_min])


def test_poc_injection_array_equals_scalar_calls():
    from doesim import poc_injection

    rng = np.random.default_rng(9)
    pv, p_ac, ul = rng.uniform(0.0, 6.0, (3, 7, 5))
    tans = rng.uniform(0.0, 0.8, (3, 5))
    p, q = poc_injection(pv, p_ac, ul, *tans)
    assert p.shape == q.shape == (7, 5)
    for i in range(7):
        for h in range(5):
            scalar = poc_injection(float(pv[i, h]), float(p_ac[i, h]), float(ul[i, h]),
                                   *(float(t) for t in tans[:, h]))
            assert np.array_equal((p[i, h], q[i, h]), scalar)


# ---------------------------------------------------------------------------
# Bounding box
# ---------------------------------------------------------------------------

def test_box_degenerate_point(passive_spec):
    box = injection_limits(passive_spec, 0.0, 1.0)
    assert box.degenerate
    assert box.p_min == box.p_max and box.q_min == box.q_max


def test_box_vertical_segment():
    from doesim import BoundingBox

    box = BoundingBox(1.0, 1.0, -0.5, 0.5)
    assert box.degenerate
    assert box.p_min == box.p_max
    assert box.q_min < box.q_max


# ---------------------------------------------------------------------------
# Scenario sampling
# ---------------------------------------------------------------------------

def test_sample_count_and_bounds(doe_spec):
    box = injection_limits(doe_spec, 3.0, 0.5)
    pts = sample_scenarios({"h1": box}, 500, seed=1)["h1"]
    assert pts.shape == (500, 2)
    assert (pts[:, 0] >= box.p_min).all() and (pts[:, 0] <= box.p_max).all()
    assert (pts[:, 1] >= box.q_min).all() and (pts[:, 1] <= box.q_max).all()


def test_sample_degenerate_fixed(passive_spec):
    box = injection_limits(passive_spec, 0.0, 1.0)
    pts = sample_scenarios({"hp": box}, 50, seed=2)["hp"]
    assert (pts == pts[0]).all()


def test_sample_determinism(doe_spec, passive_spec):
    boxes = {
        "h1": injection_limits(doe_spec, 3.0, 0.5),
        "hp": injection_limits(passive_spec, 0.0, 1.0),
    }
    a = sample_scenarios(boxes, 100, seed=7)
    b = sample_scenarios(boxes, 100, seed=7)
    for hid in boxes:
        assert (a[hid] == b[hid]).all()
    c = sample_scenarios(boxes, 100, seed=8)
    assert not (a["h1"] == c["h1"]).all()


# ---------------------------------------------------------------------------
# Convex hull and half-space representation
# ---------------------------------------------------------------------------

def test_hull_interior_removed():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    hull = convex_hull(pts)
    assert hull.shape == (4, 2)
    assert {tuple(v) for v in hull} == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_matches_brute_force_in_disc():
    rng = np.random.default_rng(9)
    angles = rng.uniform(0, 2 * np.pi, 100)
    radii = np.sqrt(rng.uniform(0, 1, 100))
    pts = np.c_[radii * np.cos(angles), radii * np.sin(angles)]
    hull = convex_hull(pts)
    oracle = brute_hull(pts)
    assert hull.shape == oracle.shape
    assert np.allclose(hull, oracle, atol=0.0)


def test_hull_single_point():
    hull = convex_hull(np.array([[2.0, -1.0]]))
    assert hull.shape == (1, 2)


def test_hull_is_ccw():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    hull = convex_hull(pts)
    area2 = 0.0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        area2 += x0 * y1 - x1 * y0
    assert area2 > 0.0


# ---------------------------------------------------------------------------
# Akl-Toussaint prefilter: the unfiltered hull is the reference
# ---------------------------------------------------------------------------

def _assert_prefilter_exact(points):
    points = np.asarray(points, dtype=float)
    keep = hull_candidates(points[None])[0]
    assert keep.shape == (len(points),)
    assert np.array_equal(convex_hull(points[keep]), convex_hull(points))
    return keep


def test_prefilter_keeps_collinear_points_on_octagon_edges():
    # a diamond: every point of an edge ties along that edge's diagonal
    # direction, so many points sit exactly on octagon edges; three lie inside
    t = np.linspace(0.0, 1.0, 17)[:, None]
    corners = np.array([[0, -2], [2, 0], [0, 2], [-2, 0]], dtype=float)
    on_edges = np.vstack([corners[i] + t * (corners[(i + 1) % 4] - corners[i])
                          for i in range(4)])
    inside = np.array([[0.0, 0.0], [0.5, 0.25], [-0.3, 0.9]])
    keep = _assert_prefilter_exact(np.vstack([inside, on_edges]))
    assert not keep[:3].any()
    assert keep[3:].all()
    square = np.vstack([t * [4.0, 0.0], [4.0, 0.0] + t * [0.0, 4.0],
                        [4.0, 4.0] - t * [4.0, 0.0], [0.0, 4.0] - t * [0.0, 4.0],
                        [[2.0, 2.0], [1.0, 3.0]]])
    _assert_prefilter_exact(square)


def test_prefilter_repeated_extreme_points():
    rng = np.random.default_rng(41)
    pts = rng.uniform(-1.0, 1.0, size=(60, 2))
    pts[10] = pts[20] = pts[30] = [5.0, 5.0]
    pts[11] = pts[21] = [-5.0, 5.0]
    keep = _assert_prefilter_exact(pts)
    assert keep[[10, 20, 30, 11, 21]].all()
    box = np.repeat([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 5, axis=0)
    _assert_prefilter_exact(np.vstack([box, [[0.5, 0.5]] * 3]))


@pytest.mark.parametrize("points", [
    [[2.0, -1.0]],
    [[2.0, -1.0]] * 4,
    [[0.0, 0.0], [1.0, 2.0]],
    [[0.0, 0.0], [0.5, 1.0], [1.0, 2.0], [0.25, 0.5]],
    [[1.0, -0.5], [1.0, 0.75], [1.0, 0.1]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]],
])
def test_prefilter_point_segment_triangle(points):
    keep = _assert_prefilter_exact(points)
    if len(points) <= 3:
        assert keep.all()


def test_prefilter_random_discs_and_boxes():
    rng = np.random.default_rng(43)
    for trial in range(20):
        n = int(rng.integers(4, 600))
        if trial % 2:
            angles = rng.uniform(0, 2 * np.pi, n)
            radii = np.sqrt(rng.uniform(0, 1, n))
            pts = np.c_[radii * np.cos(angles), radii * np.sin(angles)] * 3.0 + [1.5, -7.0]
        else:
            lo = rng.uniform(-5.0, 0.0, 2)
            pts = rng.uniform(lo, lo + rng.uniform(0.01, 5.0, 2), size=(n, 2))
        keep = _assert_prefilter_exact(pts)
        if n >= 500:
            assert keep.sum() < n // 4  # the prefilter does cut


def test_prefilter_batch_matches_rows_with_degenerate_household():
    rng = np.random.default_rng(47)
    n = 200
    stack = np.stack([
        rng.uniform(-1.0, 2.0, size=(n, 2)),
        np.tile([3.0, -1.0], (n, 1)),                           # a point
        np.c_[np.linspace(0.0, 1.0, n), np.full(n, 0.5)],        # a segment
        rng.normal(scale=0.1, size=(n, 2)) + [1e3, -2e3],
    ])
    keep = hull_candidates(stack)
    assert keep.shape == (4, n)
    assert keep[1].all() and keep[2].all()
    for row, mask in zip(stack, keep):
        assert np.array_equal(mask, hull_candidates(row[None])[0])
        assert np.array_equal(convex_hull(row[mask]), convex_hull(row))


def test_halfspace_unit_square():
    hull = convex_hull(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]))
    a, b, degenerate = halfspace_rep(hull)
    assert not degenerate
    assert a.shape == (4, 2)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    rows = {(round(r[0], 9), round(r[1], 9), round(off, 9)) for r, off in zip(a, b)}
    assert rows == {(0.0, -1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 0.0, 0.0)}


def test_halfspace_triangle_edge_equalities():
    hull = convex_hull(np.array([[0, 0], [1, 0], [0, 1]]))
    a, b, degenerate = halfspace_rep(hull)
    assert not degenerate
    assert a.shape == (3, 2)
    # each vertex sits exactly on its two incident edges
    for v in hull:
        residual = a @ v - b
        assert (residual <= 1e-12).all()
        assert np.sum(np.abs(residual) < 1e-12) == 2


def test_halfspace_vertical_segment():
    hull = convex_hull(np.array([[1.0, -0.5], [1.0, 0.75], [1.0, 0.1]]))
    assert hull.shape == (2, 2)
    a, b, degenerate = halfspace_rep(hull)
    assert degenerate
    assert a.shape == (4, 2)
    inside = a @ np.array([1.0, 0.0]) - b
    assert (inside <= 1e-12).all()
    outside = a @ np.array([1.1, 0.0]) - b
    assert (outside > 1e-9).any()


def test_halfspace_vertex_containment_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pts = rng.normal(scale=4.0, size=(rng.integers(3, 30), 2))
        hull = convex_hull(pts)
        a, b, _ = halfspace_rep(hull)
        assert (pts @ a.T <= b + 1e-9).all()


def _halfspace_rows_loop(hull):
    """Reference: rows and offsets one edge at a time, with 1-D products."""
    rows, offs = [], []
    for i in range(len(hull)):
        d = hull[(i + 1) % len(hull)] - hull[i]
        n_out = np.array([d[1], -d[0]]) / np.hypot(*d)
        rows.append(n_out)
        offs.append(n_out @ hull[i])
    return np.array(rows), np.array(offs)


def test_halfspace_rows_equal_per_edge_loop():
    rng = np.random.default_rng(41)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-2, 2)
        hull = convex_hull(rng.normal(scale=scale, size=(rng.integers(3, 40), 2))
                           + rng.uniform(-5.0, 5.0, 2))
        if len(hull) < 3:
            continue
        a, b, _ = halfspace_rep(hull)
        a_ref, b_ref = _halfspace_rows_loop(hull)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)


def test_halfspace_row_count_bounded_by_points():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(12, 2))
    hull = convex_hull(pts)
    a, _, _ = halfspace_rep(hull)
    assert a.shape[0] <= len(pts)


def test_halfspace_equivalence_with_brute_oracle_exhaustive():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        pts = rng.uniform(-3.0, 3.0, size=(n, 2))
        hull = convex_hull(pts)
        a, b, _ = halfspace_rep(hull)
        oracle_hull = brute_hull(pts)
        probes = np.vstack([pts, rng.uniform(-4.0, 4.0, size=(20, 2))])
        for pt in probes:
            via_rows = bool((a @ pt <= b + 1e-9).all())
            via_oracle = point_in_hull_oracle(oracle_hull, pt, tol=1e-9)
            # disagreement allowed only within the boundary tolerance band
            if via_rows != via_oracle:
                dist = np.abs(a @ pt - b).min()
                assert dist < 1e-7


# ---------------------------------------------------------------------------
# Feasibility screening and the full Stage-I pipeline
# ---------------------------------------------------------------------------

def _doe(hid, thermal, pv=3.0, ac=2.0):
    return HouseholdSpec(
        id=hid, customer_class=CustomerClass.DOE, pv_kw_rating=pv,
        pf_pv=0.8, pf_ul=0.95, ac_kw_rating=ac, pf_ac=0.95, thermal=thermal)


def test_zero_injection_scenario_feasible(pu_feeder2):
    from doesim import BoundingBox

    adm = assemble_admittance(pu_feeder2)
    boxes = {hid: BoundingBox(0.0, 0.0, 0.0, 0.0) for hid in pu_feeder2.household_map}
    scenarios = sample_scenarios(boxes, 10, seed=0)
    per_household, mask, diverged = feasible_set(
        pu_feeder2, adm, scenarios, list(pu_feeder2.household_map), 0.94, 1.10)
    assert mask.all()
    assert diverged == 0


def test_extreme_import_scenarios_excluded(pu_feeder2):
    """Deep imports on the 0.05+0.05j pu line drive |V2| under 0.94 and drop out."""
    from conftest import bisect_two_bus_voltage
    from doesim import BoundingBox

    adm = assemble_admittance(pu_feeder2)
    base_kw = pu_feeder2.base.power_va / 1e3
    # household h10 (bus 2, phase 0) sweeps imports up to 1.2 pu; others fixed at 0
    boxes = {hid: BoundingBox(0.0, 0.0, 0.0, 0.0) for hid in pu_feeder2.household_map}
    boxes["h10"] = BoundingBox(-1.2 * base_kw, 0.0, 0.0, 0.0)
    scenarios = sample_scenarios(boxes, 200, seed=5)
    per_household, mask, diverged = feasible_set(
        pu_feeder2, adm, scenarios, ["h10"], 0.94, 1.10)
    assert diverged == 0
    assert 0 < mask.sum() < 200
    # the scalar oracle agrees with the retained/excluded split
    for pts, keep in zip(scenarios["h10"], mask):
        v2 = bisect_two_bus_voltage(0.05 + 0.05j, complex(pts[0], pts[1]) / base_kw)
        assert keep == (v2 >= 0.94)
    # every retained point is in the feasible log
    assert per_household["h10"].shape == (int(mask.sum()), 2)


def test_all_scenarios_infeasible_names_household(pu_feeder2):
    from doesim import BoundingBox

    adm = assemble_admittance(pu_feeder2)
    base_kw = pu_feeder2.base.power_va / 1e3
    boxes = {hid: BoundingBox(-2.0 * base_kw, -1.8 * base_kw, 0.0, 0.0)
             for hid in pu_feeder2.household_map}
    scenarios = sample_scenarios(boxes, 20, seed=1)
    with pytest.raises(EnvelopeError, match="h10"):
        feasible_set(pu_feeder2, adm, scenarios, ["h10"], 0.94, 1.10)


def _pipeline_inputs(feeder, thermal):
    specs = {}
    pv = {}
    ul = {}
    for i, hid in enumerate(feeder.household_map):
        specs[hid] = _doe(hid, thermal, pv=3.0 + 0.5 * i, ac=2.0)
        pv[hid] = 3.0 + 0.5 * i
        ul[hid] = 0.4
    return specs, pv, ul


def test_build_envelopes_containment_chain(feeder2, doe_spec):
    adm = assemble_admittance(feeder2)
    specs, pv, ul = _pipeline_inputs(feeder2, doe_spec.thermal)
    envs = build_envelopes(feeder2, adm, specs, pv, ul, t_index=0,
                           n_scenarios=300, seed=11, v_lo=0.94, v_hi=1.10)
    assert set(envs) == set(feeder2.household_map)
    boxes = {hid: injection_limits(specs[hid], pv[hid], ul[hid])
             for hid in envs}
    scenarios = sample_scenarios(boxes, 300, seed=11)
    for hid, env in envs.items():
        assert env.sampled == 300
        # hull vertices inside the box
        box = boxes[hid]
        assert (env.vertices[:, 0] >= box.p_min - 1e-9).all()
        assert (env.vertices[:, 0] <= box.p_max + 1e-9).all()
        assert (env.vertices[:, 1] >= box.q_min - 1e-9).all()
        assert (env.vertices[:, 1] <= box.q_max + 1e-9).all()
        # every feasible sample satisfies the half-space rows
        if env.feasible == 300:
            assert env.contains(scenarios[hid]).all()


def test_build_envelopes_deterministic(feeder2, doe_spec):
    adm = assemble_admittance(feeder2)
    specs, pv, ul = _pipeline_inputs(feeder2, doe_spec.thermal)
    a = build_envelopes(feeder2, adm, specs, pv, ul, 0, 200, 21, 0.94, 1.10)
    b = build_envelopes(feeder2, adm, specs, pv, ul, 0, 200, 21, 0.94, 1.10)
    for hid in a:
        assert (a[hid].vertices == b[hid].vertices).all()
        assert (a[hid].a == b[hid].a).all()
        assert (a[hid].b == b[hid].b).all()


def test_build_envelopes_single_scenario_degenerate(feeder2, doe_spec, caplog):
    adm = assemble_admittance(feeder2)
    specs, pv, ul = _pipeline_inputs(feeder2, doe_spec.thermal)
    with caplog.at_level(logging.WARNING, logger="doesim"):
        envs = build_envelopes(feeder2, adm, specs, pv, ul, 0, 1, 3, 0.94, 1.10)
    for env in envs.values():
        assert env.degenerate
        assert env.feasible == 1
    # one aggregate warning for the step, not one per household
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"step 0: {len(envs)} of {len(envs)} envelopes degenerate, "
                        "1 of 1 scenarios feasible"]


def test_feasibility_soundness_resolve(feeder2, doe_spec):
    """Re-running the load flow at any retained point stays inside the band."""
    from doesim import InjectionSet, check_limits, solve_power_flow

    adm = assemble_admittance(feeder2)
    specs, pv, ul = _pipeline_inputs(feeder2, doe_spec.thermal)
    boxes = {hid: injection_limits(specs[hid], pv[hid], ul[hid])
             for hid in specs}
    scenarios = sample_scenarios(boxes, 100, seed=31)
    per_household, mask, _ = feasible_set(
        feeder2, adm, scenarios, list(specs), 0.94, 1.10)
    idx = np.where(mask)[0]
    for k in idx[:20]:
        p = np.zeros((feeder2.n_bus, 3))
        q = np.zeros((feeder2.n_bus, 3))
        for hid in specs:
            bi, ph = feeder2.household_node(hid)
            p[bi, ph], q[bi, ph] = scenarios[hid][k]
        sol = solve_power_flow(adm, InjectionSet(p, q))
        assert check_limits(sol.magnitudes(), feeder2, 0.94, 1.10) == []


def test_envelope_from_points_stats():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1], [1, 0.5]])
    env = envelope_from_points("h9", 4, pts, sampled=10)
    assert env.household_id == "h9"
    assert env.t_index == 4
    assert env.sampled == 10
    assert env.feasible == 5
    assert env.contains(pts).all()
