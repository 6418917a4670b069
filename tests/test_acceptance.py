"""Acceptance suite: every criterion at its stated tolerance.

Runs the shipped two-hour 34-bus study (seed-pinned) once per session and
checks the guarantees against its artifacts; independent algorithm checks
(load flow, hull, ADMM-vs-oracle) run on their own fixtures.  Each criterion
prints one PASS/FAIL line.
"""

import contextlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    bisect_two_bus_voltage,
    household,
    household_table,
    make_pu_feeder,
    point_in_hull_oracle,
    refine_product_minimize,
    static_rule,
)

from doesim import (
    AdmmConfig,
    admm_track,
    assemble_admittance,
    convex_hull,
    feasible_intervals,
    feasible_set,
    load_feeder,
    load_profiles,
    load_study_config,
    run_study,
    sample_scenarios,
    solve_batch,
    synthesize_households,
)
from doesim.orchestrator import envelope_corners
from doesim.scenarios import read_envelopes
from doesim.thermal import ThermalParams

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "study34.cfg"

V_LO, V_HI = 0.94, 1.10
COMFORT_LO, COMFORT_HI = 22.0, 24.0


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {title}")


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    """The shipped study, run twice for the determinism criterion."""
    cfg = load_study_config(CONFIG)
    out_a = tmp_path_factory.mktemp("study_a")
    out_b = tmp_path_factory.mktemp("study_b")
    t0 = time.time()
    summary = run_study(cfg, out_a)
    elapsed = time.time() - t0
    run_study(cfg, out_b)
    return cfg, summary, elapsed, out_a, out_b


def _assert_tracking(summary, out):
    assert summary.max_tracking_error_kw <= 0.01
    rows = (out / "dispatch" / "convergence.csv").read_text().strip().splitlines()[1:]
    per_step = [float(r.split(",")[8]) for r in rows]
    assert len(per_step) == 24
    assert max(per_step) <= 0.01


def _assert_voltage_band(cfg, summary, out):
    assert summary.failed_guarantee_events == 0
    mags = []
    with open(out / "gridlog" / "voltages.csv") as fh:
        fh.readline()
        for ln in fh:
            mags.append(float(ln.rsplit(",", 1)[1]))
    assert len(mags) == 240 * 35 * 3
    assert min(mags) >= cfg.v_lo
    assert max(mags) <= cfg.v_hi
    violations = (out / "gridlog" / "violations.csv").read_text().strip().splitlines()
    assert len(violations) == 1  # header only


def _assert_comfort(summary, out):
    temps = []
    with open(out / "dispatch" / "dispatch.csv") as fh:
        fh.readline()
        for ln in fh:
            temps.append(float(ln.split(",")[6]))
    assert len(temps) == 24 * 30
    assert min(temps) >= COMFORT_LO - 1e-6
    assert max(temps) <= COMFORT_HI + 1e-6
    assert summary.comfort_fallbacks == 0


def test_criterion_1_tracking_fidelity(study_run):
    cfg, summary, elapsed, out_a, _ = study_run
    with criterion(1, "tracking error <= 0.01 kW on the shipped study, runtime <= 5 min"):
        assert cfg.households.n_doe == 30
        _assert_tracking(summary, out_a)
        assert elapsed <= 300.0


def test_criterion_2_voltage_guarantee(study_run):
    cfg, summary, _, out_a, _ = study_run
    with criterion(2, "every 30-s grid record inside [0.94, 1.10] pu, zero failed events"):
        assert (cfg.v_lo, cfg.v_hi) == (V_LO, V_HI)
        _assert_voltage_band(cfg, summary, out_a)


def test_criterion_3_comfort_guarantee(study_run):
    _, summary, _, out_a, _ = study_run
    with criterion(3, "indoor temperature within [22, 24] C +/- 1e-6 for every DOE household"):
        _assert_comfort(summary, out_a)


# Runs where the envelopes bind (ROADMAP item 1).  binding is the shipped
# study with the upper band limit that perfbench/binding_v_hi.json holds for
# seed 7, where the tightest step keeps 10 of its 500 screened scenarios; the
# shipped band binds at seed 36 as it is.
BINDING_RUNS = {
    "binding-seed7": {"v_hi": 1.0604774453929888},
    "shipped-seed36": {"seed": 36},
}


@pytest.fixture(scope="module", params=sorted(BINDING_RUNS))
def binding_run(request, tmp_path_factory):
    cfg = replace(load_study_config(CONFIG), **BINDING_RUNS[request.param])
    out = tmp_path_factory.mktemp(request.param)
    return request.param, cfg, run_study(cfg, out), out


def test_binding_criterion_1_tracking_fidelity(binding_run):
    name, _, summary, out = binding_run
    with criterion(1, f"tracking error <= 0.01 kW where envelopes bind ({name})"):
        _assert_tracking(summary, out)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_binding_criterion_2_voltage_guarantee(binding_run):
    name, cfg, summary, out = binding_run
    with criterion(2, f"every 30-s grid record inside the band where envelopes bind ({name})"):
        _assert_voltage_band(cfg, summary, out)


def test_binding_criterion_3_comfort_guarantee(binding_run):
    name, _, summary, out = binding_run
    with criterion(3, f"indoor temperature within [22, 24] C where envelopes bind ({name})"):
        _assert_comfort(summary, out)


def test_envelope_relaxations_are_comfort_conflicts(tmp_path, monkeypatch):
    """Comfort outranks an envelope only where the two AC intervals are disjoint.

    binding at seed 123, with its upper band limit from perfbench/binding_v_hi.json,
    relaxes one envelope.  Every envelope lies on its household's segment, so the
    envelope is an AC interval, read here from its vertices' P.
    """
    import doesim.orchestrator as orchestrator_mod

    calls = []

    def recording_feasible_intervals(roster, pv, ul, envelopes, t_in, t_out):
        intervals = feasible_intervals(roster, pv, ul, envelopes, t_in, t_out)
        calls.append((roster, pv, ul, envelopes, np.array(t_in), t_out, intervals))
        return intervals

    monkeypatch.setattr(orchestrator_mod, "feasible_intervals", recording_feasible_intervals)
    cfg = replace(load_study_config(CONFIG), seed=123, v_hi=1.035592593154517)
    summary = run_study(cfg, tmp_path)
    assert summary.envelope_relaxations > 0
    relaxed = 0
    for roster, pv, ul, envelopes, t_in, t_out, intervals in calls:
        comfort = feasible_intervals(roster, pv, ul, {}, t_in, t_out)
        p_off = pv - ul   # P at AC off; each kW of AC lowers P by one kW
        for k, hid in enumerate(roster.ids):
            if comfort.source[k]:
                continue   # box and comfort alone are empty: a comfort fallback
            ac = p_off[k] - envelopes[hid].vertices[:, 0]
            gap = max(comfort.lo[k], ac.min()) - min(comfort.hi[k], ac.max())
            if intervals.source[k] == "envelope":
                assert gap > -1e-9, (hid, gap)
                relaxed += 1
            else:
                assert gap <= 1e-9, (hid, gap)
    assert relaxed == summary.envelope_relaxations


def _loose_spec(hid):
    return household(
        hid, True, pv_kw_rating=3.0, pf_pv=0.8, pf_ul=0.95, ac_kw_rating=3.0, pf_ac=0.95,
        thermal=ThermalParams(2.0, 2.0, 2.5, 1.0 / 12.0),
        comfort_lo_c=-100.0, comfort_hi_c=200.0)


def test_criterion_4_admm_vs_centralized_oracle():
    with criterion(4, "ADMM matches centralized grid oracle on 50 random 2-4 household instances"):
        rng = np.random.default_rng(2024)
        t0 = time.time()
        for _ in range(50):
            n = int(rng.integers(2, 5))
            los = rng.uniform(0.0, 1.0, n)
            his = los + rng.uniform(0.5, 2.5, n)
            # distinct prices with gaps >= 0.013 keep the optimum unique
            prices = rng.permutation(np.arange(1, 25))[:n] * 0.013
            p_ref = float(rng.uniform(los.sum() - 0.5, his.sum() + 0.5))

            roster = household_table(*(_loose_spec(f"h{i}") for i in range(n)))
            intervals = feasible_intervals(roster, np.full(n, 3.0), np.full(n, 0.5), {},
                                           np.full(n, 23.0), 23.0)
            cfg = AdmmConfig(rho=1.0, eps_prim=1e-12, eps_dual=1e-12, maxiter=6000)
            result = admm_track(intervals, prices, p_ref, cfg)
            # clamp the box the controller saw (comfort is loose by construction)
            p_admm = np.clip(result.p_ac, 0.0, 3.0)
            boxes = list(zip(np.zeros(n), np.full(n, 3.0)))

            def fun(candidates, prices=prices, p_ref=p_ref):
                candidates = np.atleast_2d(candidates)
                return (candidates.sum(axis=1) - p_ref) ** 2 + candidates @ prices

            oracle = refine_product_minimize(fun, boxes)
            assert np.abs(p_admm - oracle).max() < 1e-3
            assert abs(fun(p_admm[None, :])[0] - fun(oracle[None, :])[0]) < 1e-4
        assert time.time() - t0 < 60.0


def test_criterion_5_load_flow_correctness(feeder34):
    with criterion(5, "flat zero case exact; 2-bus matches bisection 1e-8; mismatch < 1e-6"):
        # (a) zero injection: flat slack phasors, exactly
        feeder = make_pu_feeder(0.05 + 0.05j)
        adm = assemble_admittance(feeder)
        v, _, _, converged = solve_batch(adm, np.zeros((1, 2, 3), dtype=complex))
        expected = feeder.slack_phasors()
        assert converged.all()
        assert (v[0] == np.tile(expected, (2, 1))).all()

        # (b) 2-bus vs the scalar bisection oracle
        base_kw = feeder.base.power_va / 1e3
        s_pu = feeder.base.kw_to_pu(np.array([[[0.0] * 3, [-0.1 * base_kw - 0.05j * base_kw] * 3]]))
        v, _, _, converged = solve_batch(adm, s_pu)
        v2 = bisect_two_bus_voltage(0.05 + 0.05j, -0.1 - 0.05j)
        assert converged.all()
        assert np.abs(np.abs(v[0, 1]) - v2).max() < 1e-8

        # (c) nodal power mismatch below 1e-6 pu at every returned solution
        adm34 = assemble_admittance(feeder34)
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = rng.uniform(-4.0, 4.0, (35, 3))
            q = rng.uniform(-1.5, 1.5, (35, 3))
            p[0] = q[0] = 0.0
            s_spec = feeder34.base.kw_to_pu(p + 1j * q)
            v, _, _, converged = solve_batch(adm34, s_spec[None])
            assert converged.all()
            v_flat = v.reshape(-1)
            s_calc = v_flat * np.conj(adm34.ybus @ v_flat)
            assert np.abs(s_calc[3:] - s_spec.reshape(-1)[3:]).max() < 1e-6


def _segments(cfg):
    """The run's feeder, every step's (H, 2) segment ends lo and hi, and its DOE rows and ids."""
    feeder = load_feeder(cfg.feeder_path)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)
    times = np.array(cfg.control_times())
    lo, hi = envelope_corners(households, profiles.pv.value_at(times),
                              profiles.ul.value_at(times))
    doe = np.flatnonzero(households.doe)
    return feeder, lo, hi, doe, households.take(doe).ids


def test_shipped_envelopes_are_whole_segments(study_run):
    """Every scenario is in band at the shipped seed, so each envelope is its whole segment."""
    cfg, _, _, out_a, _ = study_run
    _, lo, hi, doe, doe_ids = _segments(cfg)
    for t_index in range(cfg.n_control_steps):
        stored = read_envelopes(out_a / "envelopes" / f"step_{t_index:03d}.csv")
        for h, hid in zip(doe, doe_ids):
            env = stored[hid]
            assert env.feasible == cfg.n_scenarios and not env.degenerate
            assert env.vertices.tobytes() == np.stack([lo[t_index, h], hi[t_index, h]]).tobytes()


def test_binding_envelopes_lie_on_their_segments(binding_run):
    _, cfg, _, out = binding_run
    _, lo, hi, doe, doe_ids = _segments(cfg)
    cut = 0
    for t_index in range(cfg.n_control_steps):
        stored = read_envelopes(out / "envelopes" / f"step_{t_index:03d}.csv")
        for h, hid in zip(doe, doe_ids):
            vertices = stored[hid].vertices
            segment = np.stack([lo[t_index, h], hi[t_index, h]])
            assert all(point_in_hull_oracle(segment, v, tol=1e-9) for v in vertices)
            cut += vertices.tobytes() != segment.tobytes()
    assert cut > 0   # the band binds: some envelopes are only part of their segment


def test_criterion_6_hull_halfspace_soundness(study_run):
    cfg, _, _, out_a, _ = study_run
    with criterion(6, "segment hull spans its points; stored rows contain all feasible points"):
        rng = np.random.default_rng(606)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            ends = rng.uniform(-5.0, 5.0, (2, 1, 2))
            ends[1] = np.where(rng.random(2) < 0.25, ends[0], ends[1])   # flat or a point
            pts = sample_scenarios(*ends, n, seed=int(rng.integers(1 << 30)))[0]
            hull = convex_hull(pts)
            ranked = sorted(map(tuple, pts.tolist()))
            assert [tuple(v) for v in hull.tolist()] == list(dict.fromkeys(
                [ranked[0], ranked[-1]]))
            assert all(point_in_hull_oracle(hull, pt, tol=1e-9) for pt in pts)

        # re-derive each step's feasible samples and check them against the
        # half-space rows persisted by the study run
        feeder, lo, hi, doe, doe_ids = _segments(cfg)
        adm = assemble_admittance(feeder)
        checked = 0
        for t_index in range(cfg.n_control_steps):
            stored = read_envelopes(out_a / "envelopes" / f"step_{t_index:03d}.csv")
            scenarios = sample_scenarios(lo[t_index], hi[t_index], cfg.n_scenarios,
                                         [cfg.seed, 401, t_index])
            points, mask, _ = feasible_set(
                adm, scenarios, doe, cfg.v_lo, cfg.v_hi, tol=cfg.pf_tol, maxiter=cfg.pf_maxiter)
            for hid, pts in zip(doe_ids, points):
                env = stored[hid]
                assert env.sampled == cfg.n_scenarios
                assert env.feasible == pts.shape[0]
                assert (pts @ env.a.T <= env.b[None, :] + 1e-9).all()
                checked += pts.shape[0]
        # shared scenario batch: the same survivor count for all 30 households
        assert checked % 30 == 0
        assert checked > 0.9 * 24 * 30 * cfg.n_scenarios


def test_criterion_7_degenerate_class_algebra():
    with criterion(7, "non-DOE and passive limits exactly degenerate; 5 kW export clamp"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            nondoe = household("n", False, pv_kw_rating=float(rng.choice([3.0, 5.0, 8.0])),
                               pf_pv=0.8, pf_ul=0.95)
            passive = household("p", False, pv_kw_rating=0.0, pf_pv=0.95, pf_ul=0.95)
            pv = float(rng.uniform(0.0, 8.0))
            ul = float(rng.uniform(0.0, 3.0))
            lo, hi = envelope_corners(household_table(nondoe, passive),
                                      np.array([[pv, 0.0]]), np.array([[ul, ul]]))
            assert np.array_equal(lo, hi)
            pts = sample_scenarios(lo[0], hi[0], 20, seed=7)
            for h, spec in enumerate((nondoe, passive)):
                adj = static_rule(spec, (pv, 0.0)[h], ul)
                assert (pts[h] == [adj.p_inj_kw, adj.q_inj_kvar]).all()

        over = household("x", False, pv_kw_rating=8.0, pf_pv=0.8, pf_ul=0.95,
                         export_limit_kw=5.0)
        adj = static_rule(over, pv_kw=7.1, ul_kw=0.9)
        assert adj.p_inj_kw == pytest.approx(5.0, abs=0.0)
        assert adj.curtailed_kw == pytest.approx(1.2, abs=1e-12)
        below = static_rule(over, pv_kw=5.0, ul_kw=0.5)
        assert below.curtailed_kw == 0.0


def test_criterion_8_dispatch_interval_compliance(study_run):
    _, summary, _, out_a, _ = study_run
    with criterion(8, "mean per-step wall time <= 60 s at paper scale, logged in the summary"):
        assert summary.mean_step_seconds <= 60.0
        manifest = (out_a / "manifest.txt").read_text()
        assert "mean_step_seconds" in manifest


def test_criterion_9_determinism(study_run):
    _, _, _, out_a, out_b = study_run
    with criterion(9, "byte-identical dispatch, envelope and grid log files across reruns"):
        compared = 0
        for sub in ("dispatch", "envelopes", "gridlog"):
            files_a = sorted((out_a / sub).rglob("*.csv"))
            files_b = sorted((out_b / sub).rglob("*.csv"))
            assert [f.name for f in files_a] == [f.name for f in files_b]
            for fa, fb in zip(files_a, files_b):
                assert fa.read_bytes() == fb.read_bytes(), f"{sub}/{fa.name} differs"
                compared += 1
        assert compared >= 24 + 4
