import logging
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    dict_sample_scenarios,
    dot_halfspace_rep,
    household,
    household_table,
    lexsort_ends,
    lexsort_hull,
    point_in_hull_oracle,
    reference_envelope,
    scatter_per_household,
    static_rule,
)

from doesim import (
    EnvelopeError,
    ProfileError,
    StudyConfig,
    TimeSeriesProfile,
    assemble_admittance,
    build_envelopes,
    convex_hull,
    feasible_set,
    load_study_config,
    sample_scenarios,
)
import doesim.envelopes as envelopes_mod
from doesim.envelopes import (
    SecantModel,
    scatter_injections,
    secant_points,
    segment_ends,
    segment_envelopes,
    segment_offsets,
    segment_rows,
    worst_margin,
)
from doesim.orchestrator import _forecast_views, envelope_corners
from doesim.powerflow import limits_mask, solve_batch
from doesim.scenarios import parse_hms

T95 = 0.3286841051788632  # tan(acos 0.95)


def _corners(specs, pv, ul):
    """One step's (H, 2) lower and upper corners from per-household values, pv and ul."""
    lo, hi = envelope_corners(household_table(*specs), np.array([pv], dtype=float),
                              np.array([ul], dtype=float))
    return lo[0], hi[0]


# ---------------------------------------------------------------------------
# Injection corners
# ---------------------------------------------------------------------------

def test_doe_limits_hand_values(doe_spec):
    lo, hi = _corners([doe_spec], [3.0], [0.5])
    assert lo[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert hi[0, 0] == pytest.approx(2.5, abs=1e-12)
    assert hi[0, 1] == pytest.approx(2.0856579474105676, abs=1e-12)
    assert lo[0, 1] == pytest.approx(1.4282897370528413, abs=1e-12)
    assert (lo != hi).all()


def test_passive_limits_hand_values(passive_spec):
    lo, hi = _corners([passive_spec], [0.0], [1.0])
    assert lo[0, 0] == hi[0, 0] == -1.0
    assert lo[0, 1] == hi[0, 1] == pytest.approx(-T95, abs=1e-12)


def test_all_zero_inputs(doe_spec):
    spec = household("h0", True, pv_kw_rating=0.0, pf_pv=0.8, pf_ul=0.95, ac_kw_rating=0.0,
                     pf_ac=0.95, thermal=doe_spec.thermal)
    lo, hi = _corners([spec], [0.0], [0.0])
    assert lo.tolist() == hi.tolist() == [[0, 0]]


def test_negative_inputs_rejected():
    """Negative pv or ul never reaches the corners: profiles reject it and forecasts clip at 0."""
    for kind in ("pv", "ul"):
        with pytest.raises(ProfileError, match="non-negative"):
            TimeSeriesProfile(kind, 0, 30, [0.5, -0.1])
    cfg = StudyConfig(feeder_path="unused", forecast_noise=5.0,
                      window_start_s=36000, window_end_s=37800)
    pv = np.random.default_rng(3).uniform(0.0, 1.0, (60, 40))
    for view in _forecast_views(cfg, pv, pv):
        assert view.shape == (6, 40)
        assert (view >= 0.0).all() and (view == 0.0).any()


def test_nondoe_degenerate(nondoe_spec):
    lo, hi = _corners([nondoe_spec], [3.2], [0.7])
    assert np.array_equal(lo, hi)
    assert lo[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_injection_limits_endpoints_equal_injection_at(doe_spec):
    """The corners equal the dispatch stage's injections at AC off (hi) and AC at rating (lo)."""
    from doesim import poc_injection

    rng = np.random.default_rng(5)
    for _ in range(200):
        spec = household(
            "h", True, pv_kw_rating=8.0,
            pf_pv=float(rng.uniform(0.7, 1.0)), pf_ul=float(rng.uniform(0.7, 1.0)),
            ac_kw_rating=float(rng.uniform(0.0, 4.0)), pf_ac=float(rng.uniform(0.7, 1.0)),
            thermal=doe_spec.thermal)
        pv, ul = float(rng.uniform(0.0, 8.0)), float(rng.uniform(0.0, 3.0))
        lo, hi = _corners([spec], [pv], [ul])
        roster = household_table(spec)
        tans = (roster.tan_pv, roster.tan_ac, roster.tan_ul)
        p, q = poc_injection(pv, np.r_[0.0, roster.ac_kw_rating], ul, *tans)
        assert np.array_equal(p, [hi[0, 0], lo[0, 0]])
        assert np.array_equal(q, [hi[0, 1], lo[0, 1]])


def test_static_columns_sample_the_static_rule_point(configs_dir):
    """Non-DOE and passive households are sampled at their static-rule point every time."""
    from doesim import load_feeder, load_profiles, load_study_config, synthesize_households

    cfg = load_study_config(configs_dir / "study34.cfg")
    feeder = load_feeder(cfg.feeder_path)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)
    times = np.array(cfg.control_times()[::6])
    lo, hi = envelope_corners(households, profiles.pv.value_at(times), profiles.ul.value_at(times))
    static = curtailed = 0
    for k, t_s in enumerate(times):
        scenarios = sample_scenarios(lo[k], hi[k], 50, [cfg.seed, 401, k])
        for h in range(len(households.ids)):
            if households.doe[h]:
                assert (scenarios[h].min(axis=0) < scenarios[h].max(axis=0)).all()
                continue
            st = static_rule(households.take([h]), float(profiles.pv.value_at(int(t_s))[h]),
                             float(profiles.ul.value_at(int(t_s))[h]))
            assert (scenarios[h] == [st.p_inj_kw, st.q_inj_kvar]).all()
            static += 1
            curtailed += st.curtailed_kw > 0.0
    assert static == len(times) * 72
    assert curtailed > 0  # the export clamp is among the points checked


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
# Corner boxes
# ---------------------------------------------------------------------------

def test_box_degenerate_point(passive_spec):
    lo, hi = _corners([passive_spec], [0.0], [1.0])
    assert np.array_equal(lo, hi)


def test_box_vertical_segment():
    lo, hi = np.array([[1.0, -0.5]]), np.array([[1.0, 0.5]])
    pts = sample_scenarios(lo, hi, 40, seed=4)[0]
    assert (pts[:, 0] == 1.0).all()
    assert (pts[:, 1] >= -0.5).all() and (pts[:, 1] <= 0.5).all()
    assert pts[:, 1].min() < pts[:, 1].max()


# ---------------------------------------------------------------------------
# Scenario sampling
# ---------------------------------------------------------------------------

def test_sample_count_and_bounds(doe_spec):
    lo, hi = _corners([doe_spec], [3.0], [0.5])
    pts = sample_scenarios(lo, hi, 500, seed=1)
    assert pts.shape == (1, 500, 2)
    assert (pts >= lo[:, None, :]).all() and (pts <= hi[:, None, :]).all()


def test_sample_degenerate_fixed(passive_spec):
    lo, hi = _corners([passive_spec], [0.0], [1.0])
    pts = sample_scenarios(lo, hi, 50, seed=2)[0]
    assert (pts == pts[0]).all()


def test_sample_determinism(doe_spec, passive_spec):
    lo, hi = _corners([doe_spec, passive_spec], [3.0, 0.0], [0.5, 1.0])
    a = sample_scenarios(lo, hi, 100, seed=7)
    b = sample_scenarios(lo, hi, 100, seed=7)
    assert (a == b).all()
    c = sample_scenarios(lo, hi, 100, seed=8)
    assert not (a[0] == c[0]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 500])
def test_sample_ends_last_and_points_on_segment(doe_spec, passive_spec, n):
    lo, hi = _corners([doe_spec, passive_spec], [3.0, 0.0], [0.5, 1.0])
    pts = sample_scenarios(lo, hi, n, seed=3)
    assert pts.shape == (2, n, 2)
    assert pts[:, -2:].tobytes() == np.stack([hi, lo], axis=1)[:, -n:].tobytes()
    assert (pts[1] == lo[1]).all()
    # every point on the segment from hi to lo
    fraction = (hi[0, 0] - pts[0, :, 0]) / (hi[0, 0] - lo[0, 0])
    assert ((fraction >= 0.0) & (fraction <= 1.0)).all()
    assert np.allclose(pts[0], hi[0] + fraction[:, None] * (lo[0] - hi[0]), rtol=0, atol=1e-12)


def test_sample_fractions_are_uniform_and_iid(doe_spec):
    lo, hi = _corners([doe_spec], [3.0], [0.5])
    pts = sample_scenarios(lo, hi, 20002, seed=5)[0, :-2]
    fraction = (hi[0, 0] - pts[:, 0]) / (hi[0, 0] - lo[0, 0])
    counts = np.histogram(fraction, bins=10, range=(0.0, 1.0))[0]
    assert np.abs(counts - 2000).max() < 5 * np.sqrt(2000)
    assert abs(np.corrcoef(fraction[:-1], fraction[1:])[0, 1]) < 0.05


def _random_corners(rng, n_households, scale=6.0):
    """Corners where full boxes, P-only and Q-only segments and points all occur."""
    lo = rng.uniform(-scale, scale, (n_households, 2))
    width = rng.uniform(0.0, 2.0 * scale / 3.0, (n_households, 2))
    kind = rng.integers(0, 4, n_households)
    width[kind == 1, 0] = 0.0       # P axis degenerate
    width[kind == 2, 1] = 0.0       # Q axis degenerate
    width[kind == 3] = 0.0          # a point
    return lo, lo + width, kind


def test_sample_scenarios_equal_dict_reference():
    rng = np.random.default_rng(61)
    kinds = set()
    for trial in range(60):
        n_households = int(rng.integers(1, 15))
        lo, hi, kind = _random_corners(rng, n_households)
        kinds.update(kind.tolist())
        n = int(rng.integers(1, 40))
        seed = [trial, 401, int(rng.integers(0, 100))]
        segments = {f"h{h}": (lo[h], hi[h]) for h in range(n_households)}
        reference = dict_sample_scenarios(segments, n, seed)
        out = sample_scenarios(lo, hi, n, seed)
        assert out.shape == (n_households, n, 2)
        for h in range(n_households):
            assert out[h].tobytes() == reference[f"h{h}"].tobytes()
    assert kinds == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Segment hull and half-space representation
# ---------------------------------------------------------------------------

def test_sample_scenarios_transpose_to_a_contiguous_array_of_their_own():
    """The (H, n, 2) result transposes to a C-contiguous (H, 2, n) array, copied by nothing."""
    lo = np.array([[-2.0, -0.5], [1.0, 1.0], [0.0, -1.0]])
    hi = np.array([[3.0, 0.5], [1.0, 1.0], [0.0, 2.0]])
    scenarios = sample_scenarios(lo, hi, 40, seed=5)
    axes = scenarios.transpose(0, 2, 1)
    assert scenarios.shape == (3, 40, 2) and axes.shape == (3, 2, 40)
    assert axes.flags.c_contiguous and np.shares_memory(axes, scenarios)
    assert np.ascontiguousarray(axes).base is scenarios.base


def _segment_points(rng, n, scale=3.0):
    """n points sampled on a random segment, flat in P or Q or a point a quarter of the time."""
    lo, hi = rng.uniform(-scale, scale, (2, 1, 2))
    hi = np.where(rng.random(2) < 0.25, lo, hi)
    return sample_scenarios(lo, hi, n, seed=int(rng.integers(1 << 30)))[0]


def test_hull_interior_removed():
    pts = np.array([[0.5, 0.25], [1.0, 0.5], [0.0, 0.0], [0.25, 0.125], [0.5, 0.25]])
    hull = convex_hull(pts)
    assert hull.tolist() == [[0.0, 0.0], [1.0, 0.5]]


def test_hull_matches_brute_force_in_disc():
    """Points on random chords of a disc: the hull is the farthest pair, in lexicographic order."""
    rng = np.random.default_rng(9)
    for _ in range(100):
        angles = rng.uniform(0, 2 * np.pi, 2)
        chord = np.c_[np.cos(angles), np.sin(angles)]
        pts = chord[0] + rng.uniform(0.0, 1.0, (int(rng.integers(2, 30)), 1)) * (chord[1] - chord[0])
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        i, j = np.unravel_index(dist.argmax(), dist.shape)
        assert convex_hull(pts).tolist() == sorted([pts[i].tolist(), pts[j].tolist()])


def test_hull_single_point():
    hull = convex_hull(np.array([[2.0, -1.0]]))
    assert hull.shape == (1, 2)
    assert convex_hull(np.array([[2.0, -1.0]] * 5)).tolist() == [[2.0, -1.0]]


def _rows(points):
    """segment_rows of one household's hull: (A (4, 2), b (4,), degenerate)."""
    a, b, degenerate = segment_rows(segment_ends(np.asarray(points, dtype=float)[None]))
    return a[0], b[0], bool(degenerate[0])


def test_halfspace_vertical_segment():
    pts = np.array([[1.0, -0.5], [1.0, 0.75], [1.0, 0.1]])
    assert convex_hull(pts).shape == (2, 2)
    a, b, degenerate = _rows(pts)
    assert not degenerate
    assert a.shape == (4, 2)
    inside = a @ np.array([1.0, 0.0]) - b
    assert (inside <= 1e-12).all()
    outside = a @ np.array([1.1, 0.0]) - b
    assert (outside > 1e-9).any()


def test_halfspace_point_is_degenerate():
    a, b, degenerate = _rows([[2.0, -1.0]] * 3)
    assert degenerate and a.shape == (4, 2)
    assert np.array_equal(a @ [2.0, -1.0] - b, np.zeros(4))


def test_halfspace_vertex_containment_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pts = _segment_points(rng, int(rng.integers(1, 30)), scale=4.0)
        hull = convex_hull(pts)
        a, b, degenerate = _rows(pts)
        assert a.shape == (4, 2) and degenerate == (len(hull) == 1)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, rtol=0, atol=1e-12)
        assert (pts @ a.T <= b + 1e-9).all()


def test_halfspace_equivalence_with_brute_oracle_exhaustive():
    """Row membership equals the segment oracle's on the points, beyond the ends and off the line."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        pts = _segment_points(rng, int(rng.integers(1, 13)))
        hull = convex_hull(pts)
        a, b, _ = _rows(pts)
        ends = np.stack([pts.min(axis=0), pts.max(axis=0)])
        probes = np.vstack([pts, rng.uniform(-4.0, 4.0, size=(20, 2)),
                            ends + [[-1e-3, -1e-3], [1e-3, 1e-3]]])
        for pt in probes:
            via_rows = bool((a @ pt <= b + 1e-9).all())
            via_oracle = point_in_hull_oracle(hull, pt, tol=1e-9)
            # disagreement allowed only within the boundary tolerance band
            if via_rows != via_oracle:
                dist = np.abs(a @ pt - b).min()
                assert dist < 1e-7
        assert all(point_in_hull_oracle(hull, pt, tol=1e-9) for pt in pts)


@pytest.mark.parametrize("points", [
    [[1.0, 2.0]],                                                     # k = 1
    [[1.0, 2.0], [0.5, 3.0]],                                         # k = 2
    [[1.0, 2.0], [1.0, 2.0]],                                         # k = 2, one point
    [[0.0, 1.0], [0.0, 0.5], [2.0, 1.0], [2.0, 3.0], [0.0, 0.5], [2.0, 3.0]],   # tied P, duplicates
    [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]],             # equal up to signed zeros
    [[-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [0.5, 0.5]],  # signed zeros at both ends
])
def test_segment_ends_equal_lexsort_reference(points):
    """First and last point as a stable lexsort picks them, signed zeros and all, set by set."""
    pts = np.array(points)
    batch = np.stack([pts, pts[::-1], -pts])
    ends = segment_ends(batch)
    assert ends.shape == (3, 2, 2)
    for got, pts_h in zip(ends, batch):
        assert got.tobytes() == lexsort_ends(pts_h).tobytes()
    assert convex_hull(pts).tobytes() == lexsort_hull(pts).tobytes()


def test_segment_ends_equal_lexsort_reference_on_random_ties():
    """Sets drawn from a few values with signed zeros: every set of a batch matches its lexsort."""
    rng = np.random.default_rng(41)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])
    for k in (1, 2, 3, 7, 20):
        batch = rng.choice(values, (200, k, 2))
        for got, pts_h in zip(segment_ends(batch), batch):
            assert got.tobytes() == lexsort_ends(pts_h).tobytes()


def test_segment_rows_equal_dot_reference():
    """Batched rows equal the 1-D-dot rows byte for byte, points and axis-parallel segments too."""
    rng = np.random.default_rng(43)
    start, end = rng.uniform(-5.0, 5.0, (2, 3000, 2))
    end[::7] = start[::7]                      # points
    end[1::7, 0] = start[1::7, 0]              # vertical segments
    end[2::7, 1] = start[2::7, 1]              # horizontal segments
    start[3::7] = [-0.0, 0.0]                  # signed zeros at an end and at a point
    end[4::7] = start[4::7] = [0.0, -0.0]
    ends = np.stack([start, end], axis=1)
    a, b, degenerate = segment_rows(ends)
    assert a.shape == (3000, 4, 2) and b.shape == (3000, 4)
    for h in range(len(ends)):
        ra, rb, rdegenerate = dot_halfspace_rep(ends[h, :1] if degenerate[h] else ends[h])
        assert a[h].tobytes() == ra.tobytes() and b[h].tobytes() == rb.tobytes(), h
        assert degenerate[h] == rdegenerate == (start[h] == end[h]).all()


# ---------------------------------------------------------------------------
# Feasibility screening and the full Stage-I pipeline
# ---------------------------------------------------------------------------

def _doe(hid, thermal, pv=3.0, ac=2.0):
    return household(hid, True, pv_kw_rating=pv, pf_pv=0.8, pf_ul=0.95, ac_kw_rating=ac,
                     pf_ac=0.95, thermal=thermal)


def _full_flow_mask(feeder, adm, scenarios, v_lo, v_hi, tol=1e-8, maxiter=100):
    """The screen's reference: every scenario through the full load flow."""
    ids = list(feeder.household_map)
    s_pu = scatter_per_household(feeder, dict(zip(ids, scenarios)))
    v, _, _, converged = solve_batch(adm, s_pu, tol=tol, maxiter=maxiter)
    return converged & limits_mask(v, v_lo, v_hi), converged


@pytest.fixture()
def screen_batches(monkeypatch):
    """Records the batch size of every load flow the screen runs."""
    sizes = []

    def recording_solve_batch(adm, s_pu, **kwargs):
        sizes.append(s_pu.shape[0])
        return solve_batch(adm, s_pu, **kwargs)

    monkeypatch.setattr(envelopes_mod, "solve_batch", recording_solve_batch)
    return sizes


def test_feasible_set_equals_per_household_scatter(feeder34, screen_batches):
    """One scatter of all households gives the reference's injections, mask and points."""
    adm = assemble_admittance(feeder34)
    ids = list(feeder34.household_map)
    rng = np.random.default_rng(67)
    for trial in range(6):
        lo, hi, kind = _random_corners(rng, len(ids), scale=1.5)
        doe = np.flatnonzero(kind != 3)
        seed = [trial, 401, 0]
        reference = dict_sample_scenarios(
            {hid: (lo[h], hi[h]) for h, hid in enumerate(ids)}, 200, seed)
        s_ref = scatter_per_household(feeder34, reference)
        v, _, _, converged = solve_batch(adm, s_ref)
        # a band that cuts the scenarios about in half
        v_hi = float(np.median(np.abs(v).max(axis=(1, 2))))
        mask_ref = converged & limits_mask(v, 0.94, v_hi)
        assert 0 < mask_ref.sum() < 200 and converged.all()

        scenarios = sample_scenarios(lo, hi, 200, seed)
        assert scatter_injections(feeder34, scenarios).tobytes() == s_ref.tobytes()
        points, mask, diverged = feasible_set(adm, scenarios, doe, 0.94, v_hi)
        assert np.array_equal(mask, mask_ref)
        assert diverged == 0
        stacked = np.stack([reference[ids[h]][mask_ref] for h in doe])
        assert points.tobytes() == stacked.tobytes()
    # the screen fitted its model and flowed only part of the scenarios
    assert 200 not in screen_batches


def _study_steps(cfg):
    """Each control step's (H, n, 2) scenarios of a study, and the screen's other inputs."""
    from doesim import load_feeder, load_profiles, synthesize_households

    feeder = load_feeder(cfg.feeder_path)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)
    times = np.array(cfg.control_times())
    lo, hi = envelope_corners(households, profiles.pv.value_at(times), profiles.ul.value_at(times))
    doe = np.flatnonzero(households.doe)
    steps = [sample_scenarios(lo[t], hi[t], cfg.n_scenarios, [cfg.seed, 401, t])
             for t in range(cfg.n_control_steps)]
    return feeder, doe, steps


@pytest.mark.parametrize("seed, v_hi", [
    (36, 1.10),                  # the shipped config: near-edge scenarios at v_hi
    # binding at seed 7: perfbench/binding_v_hi.json's calibrated upper limit
    (7, 1.0604774453929888),
])
def test_screen_mask_equals_full_flow_on_every_step(configs_dir, screen_batches, seed, v_hi):
    cfg = replace(load_study_config(configs_dir / "study34.cfg"), seed=seed, v_hi=v_hi)
    feeder, doe, steps = _study_steps(cfg)
    adm = assemble_admittance(feeder)
    near_edge_steps = 0
    for scenarios in steps:
        del screen_batches[:]
        _, mask, diverged = feasible_set(adm, scenarios, doe, cfg.v_lo, cfg.v_hi,
                                         tol=cfg.pf_tol, maxiter=cfg.pf_maxiter)
        mask_ref, converged = _full_flow_mask(feeder, adm, scenarios, cfg.v_lo, cfg.v_hi,
                                              cfg.pf_tol, cfg.pf_maxiter)
        assert np.array_equal(mask, mask_ref)
        assert converged.all() and diverged == 0
        # one fit-and-check batch (30 DOE households, one segment each), then the near edge
        assert screen_batches[0] == 1 + 30 + envelopes_mod.SCREEN_CHECK
        assert len(screen_batches) <= 2 and cfg.n_scenarios not in screen_batches
        near_edge_steps += len(screen_batches) == 2
    assert near_edge_steps > 0


def _screen_source(caplog) -> str:
    """The model the last screen's verdicts came from, read from its INFO line."""
    (source,) = [r.args[0] for r in caplog.records if r.msg.startswith("screen verdicts")]
    caplog.clear()
    return source


def _check_batches(source, n_free):
    """The batches a screen step flows before the near edge, by the model it took."""
    fit, carried = 1 + n_free + envelopes_mod.SCREEN_CHECK, 1 + envelopes_mod.SCREEN_CHECK
    return {"fit": [fit], "carried": [carried], "refit": [carried, fit]}[source]


@pytest.mark.parametrize("seed, v_hi, window, steps", [
    (36, 1.10, None, slice(None)),
    (7, 1.0604774453929888, None, slice(None)),   # binding at seed 7
    (309, 1.10, ("08:00", "16:00"), slice(60, 80)),   # refits on most of these steps
])
def test_carried_screen_mask_equals_full_flow_on_every_step(configs_dir, screen_batches, caplog,
                                                            seed, v_hi, window, steps):
    """One model carried over a study's steps: full-flow masks, and fits only where it errs."""
    caplog.set_level(logging.INFO, logger="doesim.envelopes")
    cfg = replace(load_study_config(configs_dir / "study34.cfg"), seed=seed, v_hi=v_hi)
    if window:
        cfg = replace(cfg, window_start_s=parse_hms(window[0]), window_end_s=parse_hms(window[1]))
    feeder, doe, study_steps = _study_steps(cfg)
    adm = assemble_admittance(feeder)
    model, sources = SecantModel(), []
    for scenarios in study_steps[steps]:
        del screen_batches[:]
        _, mask, diverged = feasible_set(adm, scenarios, doe, cfg.v_lo, cfg.v_hi,
                                         tol=cfg.pf_tol, maxiter=cfg.pf_maxiter, model=model)
        mask_ref, converged = _full_flow_mask(feeder, adm, scenarios, cfg.v_lo, cfg.v_hi,
                                              cfg.pf_tol, cfg.pf_maxiter)
        assert np.array_equal(mask, mask_ref)
        assert converged.all() and diverged == 0
        sources.append(_screen_source(caplog))
        checks = _check_batches(sources[-1], 30)
        assert screen_batches[:len(checks)] == checks
        assert len(screen_batches) <= len(checks) + 1 and cfg.n_scenarios not in screen_batches
        assert model.fit_error <= envelopes_mod.SCREEN_MARGIN_PU / 2.0
    assert sources[0] == "fit" and "fit" not in sources[1:]
    assert {"carried", "refit"} <= set(sources)


def _free_axes_corners(feeder, n_free_households, scale=1.5):
    """Corners where the first households have full boxes and the rest are points."""
    rng = np.random.default_rng(71)
    lo = rng.uniform(-scale, scale, (len(feeder.household_map), 2))
    hi = lo.copy()
    hi[:n_free_households] += rng.uniform(0.1, scale, (n_free_households, 2))
    return lo, hi


@pytest.mark.parametrize("extra, linear", [(0, False), (1, True)])
def test_screen_cost_rule_flows_small_batches_once(feeder34, screen_batches, extra, linear):
    """With n <= F + 1 + SCREEN_CHECK the fit cannot pay for itself: one full flow."""
    adm = assemble_admittance(feeder34)
    lo, hi = _free_axes_corners(feeder34, 10)
    n = 10 + 1 + envelopes_mod.SCREEN_CHECK + extra
    scenarios = sample_scenarios(lo, hi, n, seed=3)
    _, mask, _ = feasible_set(adm, scenarios, range(10), 0.94, 1.10)
    if linear:
        assert screen_batches[0] == n - 1 and n not in screen_batches
    else:
        assert screen_batches == [n]
    assert np.array_equal(mask, _full_flow_mask(feeder34, adm, scenarios, 0.94, 1.10)[0])


def test_screen_falls_back_when_model_error_exceeds_half_margin(feeder34, screen_batches,
                                                                monkeypatch):
    adm = assemble_admittance(feeder34)
    lo, hi = _free_axes_corners(feeder34, 10)
    scenarios = sample_scenarios(lo, hi, 300, seed=4)
    mask_ref, _ = _full_flow_mask(feeder34, adm, scenarios, 0.94, 1.10)
    _, mask, _ = feasible_set(adm, scenarios, range(10), 0.94, 1.10)
    assert np.array_equal(mask, mask_ref) and 300 not in screen_batches

    del screen_batches[:]
    monkeypatch.setattr(envelopes_mod, "SCREEN_MARGIN_PU", 1e-12)
    _, mask, _ = feasible_set(adm, scenarios, range(10), 0.94, 1.10)
    assert screen_batches == [1 + 10 + envelopes_mod.SCREEN_CHECK, 300]
    assert np.array_equal(mask, mask_ref)


def test_carried_slopes_that_err_more_are_refitted(feeder34, screen_batches, caplog,
                                                   monkeypatch):
    """Off slopes are refitted; a refit that fails its check flows every scenario."""
    caplog.set_level(logging.INFO, logger="doesim.envelopes")
    adm = assemble_admittance(feeder34)
    lo, hi = _free_axes_corners(feeder34, 10)
    model = SecantModel()

    def screen(seed):
        del screen_batches[:]
        scenarios = sample_scenarios(lo, hi, 300, seed=seed)
        _, mask, _ = feasible_set(adm, scenarios, range(10), 0.94, 1.10, model=model)
        assert np.array_equal(mask, _full_flow_mask(feeder34, adm, scenarios, 0.94, 1.10)[0])
        return _screen_source(caplog)

    assert screen(4) == "fit"
    assert screen_batches[:1] == _check_batches("fit", 10)
    fitted = model.slopes
    model.slopes = 1.05 * fitted
    assert screen(5) == "refit"
    assert screen_batches[:2] == _check_batches("refit", 10)
    # refitted over this sample's boxes: near the first fit, not 5% off it
    assert np.abs(model.slopes - fitted).max() < 0.01 * np.abs(fitted).max()

    model.slopes = 1.05 * model.slopes
    slopes, fit_error = model.slopes, model.fit_error
    monkeypatch.setattr(envelopes_mod, "SCREEN_MARGIN_PU", 1e-12)
    assert screen(6) == "full flow"
    assert screen_batches == _check_batches("refit", 10) + [300]
    # a fit that fails its check leaves the model as it was
    assert model.slopes is slopes and model.fit_error == fit_error


def test_changed_free_axes_get_a_fresh_fit(feeder34, screen_batches, caplog):
    caplog.set_level(logging.INFO, logger="doesim.envelopes")
    adm = assemble_admittance(feeder34)
    lo, hi = _free_axes_corners(feeder34, 10)
    model = SecantModel()
    feasible_set(adm, sample_scenarios(lo, hi, 300, seed=4), range(10), 0.94, 1.10,
                 model=model)
    assert _screen_source(caplog) == "fit" and model.slopes.shape[0] == 10
    # as many free households as before, but not the same ones
    hi[0] = lo[0]
    hi[10] = lo[10] + 0.5
    del screen_batches[:]
    scenarios = sample_scenarios(lo, hi, 300, seed=5)
    _, mask, _ = feasible_set(adm, scenarios, range(11), 0.94, 1.10, model=model)
    assert _screen_source(caplog) == "fit"
    assert screen_batches[:1] == _check_batches("fit", 10)
    assert np.array_equal(model.free, (lo != hi).any(axis=1))
    assert np.array_equal(mask, _full_flow_mask(feeder34, adm, scenarios, 0.94, 1.10)[0])


def test_worst_margin_equals_every_nodes_least_margin():
    """The min/max margin is the least of every node's margins bit for bit, NaN rows included."""
    rng = np.random.default_rng(47)
    v_mag = rng.normal(1.02, 0.05, (400, 102))
    v_mag[::13, rng.integers(102)] = np.nan
    v_mag[5] = np.nan
    v_mag[6] = 0.94                            # at the lower edge: a zero margin
    for v_lo, v_hi in ((0.94, 1.10), (0.94, 1.0604774453929888), (1.0, 1.01)):
        want = np.minimum(v_mag - v_lo, v_hi - v_mag).min(axis=1)
        assert np.isnan(want).sum() == 32
        assert worst_margin(v_mag, v_lo, v_hi).tobytes() == want.tobytes()


def test_secant_model_is_exact_on_a_linear_magnitude():
    """Fit points sit at offset 0 and at unit offsets, so |V| less its midpoint value is the slope."""
    rng = np.random.default_rng(5)
    lo, hi, kind = _random_corners(rng, 7, scale=2.0)
    free = kind != 3
    points = secant_points(lo, hi)                                    # (H, 1 + F, 2)
    assert points.shape == (7, 1 + free.sum(), 2)
    offsets = segment_offsets(points.transpose(0, 2, 1), lo, hi)      # (1 + F, F)
    assert np.allclose(offsets, np.eye(1 + free.sum())[:, 1:], rtol=0, atol=1e-15)
    slopes = rng.uniform(-0.01, 0.01, (int(free.sum()), 6))
    base = rng.uniform(0.95, 1.05, 6)
    v_mag = base + offsets @ slopes
    assert np.allclose(v_mag[1:] - v_mag[0], slopes, rtol=0, atol=1e-12)
    # offsets along a segment are linear in the sampled fraction: -1 at lo, 1 at hi
    scenarios = sample_scenarios(lo, hi, 50, seed=2)
    offsets = segment_offsets(np.ascontiguousarray(scenarios.transpose(0, 2, 1)), lo, hi)
    assert np.allclose(offsets[-2:], [[1.0] * free.sum(), [-1.0] * free.sum()], rtol=0, atol=1e-15)
    assert (np.abs(offsets) <= 1.0 + 1e-15).all()


def test_zero_injection_scenario_feasible(pu_feeder2):
    adm = assemble_admittance(pu_feeder2)
    corners = np.zeros((len(pu_feeder2.household_map), 2))
    for n in (10, 40):   # 40 scenarios take the secant model, here with no free axis
        scenarios = sample_scenarios(corners, corners, n, seed=0)
        points, mask, diverged = feasible_set(adm, scenarios, range(len(corners)), 0.94, 1.10)
        assert mask.all()
        assert diverged == 0


def test_extreme_import_scenarios_excluded(pu_feeder2):
    """Deep imports on the 0.05+0.05j pu line drive |V2| under 0.94 and drop out."""
    from conftest import bisect_two_bus_voltage

    adm = assemble_admittance(pu_feeder2)
    base_kw = pu_feeder2.base.power_va / 1e3
    # household h10 (bus 2, phase 0) sweeps imports up to 1.2 pu; others fixed at 0
    assert list(pu_feeder2.household_map)[0] == "h10"
    lo, hi = np.zeros((2, len(pu_feeder2.household_map), 2))
    lo[0, 0] = -1.2 * base_kw
    scenarios = sample_scenarios(lo, hi, 200, seed=5)
    points, mask, diverged = feasible_set(adm, scenarios, [0], 0.94, 1.10)
    assert diverged == 0
    assert 0 < mask.sum() < 200
    # the scalar oracle agrees with the retained/excluded split
    for pts, keep in zip(scenarios[0], mask):
        v2 = bisect_two_bus_voltage(0.05 + 0.05j, complex(pts[0], pts[1]) / base_kw)
        assert keep == (v2 >= 0.94)
    # every retained point is in the feasible log
    assert points[0].shape == (int(mask.sum()), 2)


def test_all_scenarios_infeasible_names_household(pu_feeder2):
    adm = assemble_admittance(pu_feeder2)
    base_kw = pu_feeder2.base.power_va / 1e3
    lo, hi = np.zeros((2, len(pu_feeder2.household_map), 2))
    lo[:, 0], hi[:, 0] = -2.0 * base_kw, -1.8 * base_kw
    scenarios = sample_scenarios(lo, hi, 20, seed=1)
    with pytest.raises(EnvelopeError, match="h10"):
        feasible_set(adm, scenarios, [0], 0.94, 1.10)


def _pipeline_inputs(feeder, thermal):
    """All-DOE households with rising PV, and their (H, 2) corners at ul = 0.4 kW."""
    specs = [_doe(hid, thermal, pv=3.0 + 0.5 * i, ac=2.0)
             for i, hid in enumerate(feeder.household_map)]
    lo, hi = _corners(specs, 3.0 + 0.5 * np.arange(len(specs)), [0.4] * len(specs))
    return specs, lo, hi


def test_build_envelopes_containment_chain(feeder2, doe_spec):
    adm = assemble_admittance(feeder2)
    specs, lo, hi = _pipeline_inputs(feeder2, doe_spec.thermal)
    doe = range(len(specs))
    envs = build_envelopes(adm, doe, lo, hi, t_index=0,
                           n_scenarios=300, seed=11, v_lo=0.94, v_hi=1.10)
    assert list(envs) == list(feeder2.household_map)
    scenarios = sample_scenarios(lo, hi, 300, seed=11)
    for h, env in enumerate(envs.values()):
        assert env.sampled == 300
        # hull vertices inside the box
        assert (env.vertices[:, 0] >= lo[h, 0] - 1e-9).all()
        assert (env.vertices[:, 0] <= hi[h, 0] + 1e-9).all()
        assert (env.vertices[:, 1] >= lo[h, 1] - 1e-9).all()
        assert (env.vertices[:, 1] <= hi[h, 1] + 1e-9).all()
        # every feasible sample satisfies the half-space rows
        if env.feasible == 300:
            assert env.contains(scenarios[h]).all()


def test_build_envelopes_deterministic(feeder2, doe_spec):
    adm = assemble_admittance(feeder2)
    specs, lo, hi = _pipeline_inputs(feeder2, doe_spec.thermal)
    doe = range(len(specs))
    a = build_envelopes(adm, doe, lo, hi, 0, 200, 21, 0.94, 1.10)
    b = build_envelopes(adm, doe, lo, hi, 0, 200, 21, 0.94, 1.10)
    for hid in a:
        assert (a[hid].vertices == b[hid].vertices).all()
        assert (a[hid].a == b[hid].a).all()
        assert (a[hid].b == b[hid].b).all()


def test_build_envelopes_single_scenario_degenerate(feeder2, doe_spec, caplog):
    adm = assemble_admittance(feeder2)
    specs, lo, hi = _pipeline_inputs(feeder2, doe_spec.thermal)
    with caplog.at_level(logging.WARNING, logger="doesim"):
        envs = build_envelopes(adm, range(len(specs)), lo, hi, 0, 1, 3, 0.94, 1.10)
    for env in envs.values():
        assert env.degenerate
        assert env.feasible == 1
    # one aggregate warning for the step, not one per household
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"step 0: {len(envs)} of {len(envs)} envelopes degenerate, "
                        "1 of 1 scenarios feasible"]


@pytest.mark.parametrize("t_index, n_scenarios, v_hi", [
    pytest.param(0, 500, 1.10, id="0-500"),
    pytest.param(12, 2, 1.10, id="12-2"),
    pytest.param(23, 1, 1.10, id="23-1"),
    # binding at seed 7: 16 of 500 scenarios survive, and no hull end is a segment end
    pytest.param(21, 500, 1.0604774453929888, id="21-500-binding"),
])
def test_build_envelopes_equals_envelope_from_points_on_a_study_step(configs_dir, t_index,
                                                                    n_scenarios, v_hi):
    """Each household's envelope is a one-household segment_envelopes call's over its
    feasible points, and the one-household lexsort reference's."""
    from doesim import load_feeder, load_profiles, synthesize_households

    cfg = replace(load_study_config(configs_dir / "study34.cfg"), v_hi=v_hi)
    feeder = load_feeder(cfg.feeder_path)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)
    times = np.array(cfg.control_times())
    lo, hi = envelope_corners(households, profiles.pv.value_at(times), profiles.ul.value_at(times))
    lo, hi = lo[t_index], hi[t_index]
    adm = assemble_admittance(feeder)
    doe = np.flatnonzero(households.doe)
    seed = [cfg.seed, 401, t_index]
    envs = build_envelopes(adm, doe, lo, hi, t_index, n_scenarios, seed,
                           cfg.v_lo, cfg.v_hi, pf_tol=cfg.pf_tol, pf_maxiter=cfg.pf_maxiter)
    points, _, _ = feasible_set(adm, sample_scenarios(lo, hi, n_scenarios, seed), doe,
                                cfg.v_lo, cfg.v_hi, tol=cfg.pf_tol, maxiter=cfg.pf_maxiter)
    ids = list(feeder.household_map)
    assert list(envs) == [ids[h] for h in doe]
    for h, pts in zip(doe, points):
        env = envs[ids[h]]
        segment_end = {tuple(lo[h]), tuple(hi[h])}.__contains__
        assert segment_end(tuple(env.vertices[0])) == segment_end(tuple(env.vertices[-1])) == (
            v_hi == 1.10)
        for ref in (reference_envelope(ids[h], t_index, pts, n_scenarios),
                    segment_envelopes([ids[h]], t_index, pts[None], n_scenarios)[ids[h]]):
            for name in ("vertices", "a", "b"):
                got, want = getattr(env, name), getattr(ref, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (h, name)
            assert (env.t_index, env.sampled, env.feasible, env.degenerate) == (
                ref.t_index, ref.sampled, ref.feasible, ref.degenerate)
        assert env.degenerate == (n_scenarios == 1)


def test_feasibility_soundness_resolve(feeder2, doe_spec):
    """Re-running the load flow at any retained point stays inside the band."""
    from doesim import check_limits, solve_batch

    adm = assemble_admittance(feeder2)
    specs, lo, hi = _pipeline_inputs(feeder2, doe_spec.thermal)
    scenarios = sample_scenarios(lo, hi, 100, seed=31)
    points, mask, _ = feasible_set(adm, scenarios, range(len(specs)), 0.94, 1.10)
    idx = np.where(mask)[0]
    for k in idx[:20]:
        p = np.zeros((feeder2.n_bus, 3))
        q = np.zeros((feeder2.n_bus, 3))
        for h, (bus, ph) in enumerate(feeder2.household_map.values()):
            p[feeder2.bus_index[bus], ph], q[feeder2.bus_index[bus], ph] = scenarios[h, k]
        v, _, _, converged = solve_batch(adm, feeder2.base.kw_to_pu(p + 1j * q)[None])
        assert converged.all()
        assert len(check_limits(np.abs(v), 0.94, 1.10)) == 0


def test_envelope_from_points_stats():
    pts = np.array([[0, 0], [2, 1], [1.5, 0.75], [0.5, 0.25], [1, 0.5]])
    env = segment_envelopes(["h9"], 4, pts[None], sampled=10)["h9"]
    assert env.household_id == "h9"
    assert env.t_index == 4
    assert env.sampled == 10
    assert env.feasible == 5
    assert env.contains(pts).all()
