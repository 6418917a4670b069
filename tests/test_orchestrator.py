import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import static_rule

from doesim import load_study_config, run_study
from doesim.cli import main as cli_main

SMALL_STUDY = """
[study]
feeder = {feeder}
seed = 11
v_lo = 0.94
v_hi = 1.10
control_step_s = 300
grid_step_s = 30
window_start = 10:00
window_end = 10:30
scenarios = 40
regulation_fraction = 0.2
reference_shape = square
reference_period_s = 600

[admm]
rho = 1.0
eps_prim = 1e-3
eps_dual = 1e-3
maxiter = 15

[households]
doe = 1
nondoe = 1
passive = 1

[profiles]
t_out_mean = 26.0
t_out_amplitude = 6.0
{extra}
"""


@pytest.fixture()
def small_cfg(configs_dir, tmp_path):
    path = tmp_path / "study_small.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    return load_study_config(path)


def _tree_bytes(root, subdirs=("dispatch", "envelopes", "gridlog")):
    out = {}
    root = Path(root)
    for sub in subdirs:
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(root))] = path.read_bytes()
    return out


def _summary(out):
    return dict(ln.split(" = ", 1) for ln in (Path(out) / "summary.txt").read_text().splitlines())


def _summary_from_files(out, unconverged=0):
    """Each summary.txt field as its reduction of the run's own result files.

    A step ran when it has a convergence row, or an envelope file in a run
    that stops after the envelopes; the voltage extremes skip sub-steps with
    a NaN magnitude, and non-converged sub-steps are in no file.
    """
    out = Path(out)

    def rows(name):
        return [ln.split(",") for ln in (out / name).read_text().splitlines()[1:]]

    def extremes(values):
        return (repr(min(values)), repr(max(values))) if values else ("nan", "nan")

    conv, dispatch = rows("dispatch/convergence.csv"), rows("dispatch/dispatch.csv")
    substeps = {}
    for t_s, _, _, v in rows("gridlog/voltages.csv"):
        substeps.setdefault(t_s, []).append(float(v))
    mags = [v for vs in substeps.values() if not np.isnan(vs).any() for v in vs]
    flags = [row[7] for row in dispatch]
    (v_min, v_max), (t_min, t_max) = extremes(mags), extremes([float(row[6]) for row in dispatch])
    return {
        "control_steps": str(len(conv) or len(list((out / "envelopes").glob("step_*.csv")))),
        "grid_records": str(len(substeps)),
        "max_tracking_error_kw": repr(max((float(row[8]) for row in conv), default=0.0)),
        "v_min_pu": v_min, "v_max_pu": v_max, "t_in_min_c": t_min, "t_in_max_c": t_max,
        "failed_guarantee_events": str(len(rows("gridlog/violations.csv")) + unconverged),
        "comfort_fallbacks": str(flags.count("comfort_fallback")),
        "envelope_relaxations": str(flags.count("envelope_relaxed")),
    }


def test_cadence_counts(small_cfg, tmp_path):
    summary = run_study(small_cfg, tmp_path / "run")
    assert summary.control_steps == 6
    assert summary.grid_records == 60
    volt = (tmp_path / "run" / "gridlog" / "voltages.csv").read_text().strip().splitlines()
    assert len(volt) - 1 == 60 * 2 * 3  # records x buses x phases
    conv = (tmp_path / "run" / "dispatch" / "convergence.csv").read_text().strip().splitlines()
    assert len(conv) - 1 == 6
    assert len(list((tmp_path / "run" / "envelopes").glob("step_*.csv"))) == 6
    assert _summary(tmp_path / "run") == _summary_from_files(tmp_path / "run")


def test_determinism_byte_identical(small_cfg, tmp_path):
    run_study(small_cfg, tmp_path / "a")
    run_study(small_cfg, tmp_path / "b")
    a = _tree_bytes(tmp_path / "a")
    b = _tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"
    assert (tmp_path / "a" / "summary.txt").read_bytes() == (tmp_path / "b" / "summary.txt").read_bytes()


def test_each_run_fits_its_own_screen_model(configs_dir, tmp_path, monkeypatch):
    """Two studies in one process each start with a full fit and write the same files."""
    import doesim.envelopes as envelopes_mod
    from doesim.powerflow import solve_batch
    from doesim.scenarios import parse_hms

    batches = []

    def recording_solve_batch(adm, s_pu, **kwargs):
        batches.append(s_pu.shape[0])
        return solve_batch(adm, s_pu, **kwargs)

    monkeypatch.setattr(envelopes_mod, "solve_batch", recording_solve_batch)
    cfg = replace(load_study_config(configs_dir / "study34.cfg"),
                  window_end_s=parse_hms("10:15"))
    runs = []
    for name in ("a", "b"):
        del batches[:]
        run_study(cfg, tmp_path / name)
        runs.append(list(batches))
    # 30 DOE households, one segment each; a carried step flows the midpoints and the check
    assert runs[0][0] == 1 + 30 + envelopes_mod.SCREEN_CHECK
    assert 1 + envelopes_mod.SCREEN_CHECK in runs[0]
    assert runs[1] == runs[0]
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert (tmp_path / "a" / "summary.txt").read_bytes() == (tmp_path / "b" / "summary.txt").read_bytes()


def test_binding_study_twice_in_one_process_writes_identical_files(configs_dir, tmp_path):
    """Where envelopes bind, a second run_study in the process keeps every result file."""
    from doesim.scenarios import parse_hms

    cfg = replace(load_study_config(configs_dir / "study34.cfg"), v_hi=1.0604774453929888,
                  window_end_s=parse_hms("10:20"))
    files = []
    for name in ("a", "b"):
        root = tmp_path / name
        run_study(cfg, root)
        files.append({str(path.relative_to(root)): path.read_bytes()
                      for path in sorted(root.rglob("*"))
                      if path.is_file() and path.name != "manifest.txt"})
    assert files[0] == files[1]
    # the band binds: the screen drops scenarios at every step
    for path in sorted((tmp_path / "a" / "envelopes").glob("step_*.csv")):
        row = path.read_text().splitlines()[1].split(",")
        assert int(row[3]) < int(row[2])


def test_seed_changes_results(small_cfg, tmp_path):
    run_study(small_cfg, tmp_path / "a")
    run_study(replace(small_cfg, seed=12), tmp_path / "c")
    a = _tree_bytes(tmp_path / "a", subdirs=("dispatch",))
    c = _tree_bytes(tmp_path / "c", subdirs=("dispatch",))
    assert any(a[k] != c[k] for k in a)


def test_zero_regulation_tracks_baseline(configs_dir, tmp_path):
    path = tmp_path / "zero_reg.cfg"
    path.write_text(SMALL_STUDY
                    .format(feeder=configs_dir / "feeder2.cfg",
                            extra="price_base = 0.0\nprice_swing = 0.0\nprice_noise = 0.0")
                    .replace("regulation_fraction = 0.2", "regulation_fraction = 0.0"))
    cfg = load_study_config(path)
    summary = run_study(cfg, tmp_path / "run")
    assert summary.max_tracking_error_kw < 5e-3
    assert summary.failed_guarantee_events == 0


def test_single_household_hand_trace(configs_dir, tmp_path):
    """Walk the first control step of a one-DOE-household study by hand."""
    from doesim import (
        build_reference,
        comfort_power_interval,
        load_feeder,
        load_profiles,
        simulate_baseline,
        step_temperature,
        synthesize_households,
    )

    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    cfg = load_study_config(path)
    run_study(cfg, tmp_path / "run")

    feeder = load_feeder(cfg.feeder_path)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)
    baseline = simulate_baseline(households, profiles, cfg)
    p_ref_prof = build_reference(baseline, cfg.regulation_fraction, cfg.reference_shape,
                                 cfg.seed, cfg.window_start_s, cfg.control_step_s,
                                 cfg.reference_period_s)

    (h,) = np.flatnonzero(households.doe)
    doe_id = households.ids[h]
    spec = households.take([h])
    t0 = cfg.window_start_s
    t_out = profiles.t_out.value_at(t0)
    comfort = [float(end[0]) for end in comfort_power_interval(
        23.0, spec, t_out, (spec.comfort_lo, spec.comfort_hi), spec.ac_kw_rating)]
    p_ref = p_ref_prof.value_at(t0)

    rows = (tmp_path / "run" / "dispatch" / "dispatch.csv").read_text().strip().splitlines()
    first = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert first["household"] == doe_id
    p_ac = float(first["p_ac_kw"])
    # single household, wide envelope: dispatch is the set-point clamped to
    # the comfort interval, up to the price pull and residual stop
    lo, hi = comfort
    expected = min(max(p_ref, lo), hi)
    assert p_ac == pytest.approx(expected, abs=0.05)
    # temperature advance follows the affine map exactly
    t_next = float(step_temperature(23.0, spec, t_out, p_ac)[0])
    assert float(first["t_in_next_c"]) == pytest.approx(t_next, abs=1e-12)
    # injection balance at the POC
    pv0 = profiles.pv.value_at(t0)[h]
    ul0 = profiles.ul.value_at(t0)[h]
    assert float(first["p_inj_kw"]) == pytest.approx(pv0 - p_ac - ul0, abs=1e-12)


def test_track_mode_replays_envelopes_and_flags_band(configs_dir, tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    cfg = load_study_config(path)

    summary = run_study(cfg, tmp_path / "envonly", envelopes_only=True)
    assert len(list((tmp_path / "envonly" / "envelopes").glob("step_*.csv"))) == 6
    # no dispatch and no replay: nothing tracked, flowed or flagged
    assert (summary.control_steps, summary.grid_records, summary.max_tracking_error_kw) == (6, 0, 0.0)
    assert np.isnan([summary.v_min_pu, summary.v_max_pu, summary.t_in_min_c]).all()
    assert _summary(tmp_path / "envonly") == _summary_from_files(tmp_path / "envonly")

    # replay against an absurdly tight band: every sub-step is a recorded
    # failed-guarantee event, but the run still completes
    tight = replace(cfg, v_lo=0.99999, v_hi=1.00001)
    summary = run_study(tight, tmp_path / "replay",
                        envelope_dir=tmp_path / "envonly" / "envelopes")
    assert summary.control_steps == 6
    assert summary.failed_guarantee_events > 0
    viol = (tmp_path / "replay" / "gridlog" / "violations.csv").read_text().strip().splitlines()
    assert len(viol) > 1
    assert _summary(tmp_path / "replay") == _summary_from_files(tmp_path / "replay")


def test_violations_rederived_from_voltages(configs_dir, tmp_path):
    """Every out-of-band row of voltages.csv, in its order, with its bound and kind."""
    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    cfg = load_study_config(path)
    run_study(cfg, tmp_path / "envonly", envelopes_only=True)
    tight = replace(cfg, v_lo=0.99999, v_hi=1.00001)
    summary = run_study(tight, tmp_path / "replay",
                        envelope_dir=tmp_path / "envonly" / "envelopes")

    want, mags = [], []
    with open(tmp_path / "replay" / "gridlog" / "voltages.csv") as fh:
        fh.readline()
        for ln in fh:
            row = ln.rstrip("\n")
            v = float(row.rsplit(",", 1)[1])
            mags.append(v)
            if v < tight.v_lo:
                want.append(f"{row},{tight.v_lo!r},under")
            elif v > tight.v_hi:
                want.append(f"{row},{tight.v_hi!r},over")
    kinds = {row.rsplit(",", 1)[1] for row in want}
    assert kinds == {"under", "over"}
    viol = (tmp_path / "replay" / "gridlog" / "violations.csv").read_text().splitlines()
    assert viol == ["t_s,bus,phase,v_mag_pu,bound,kind"] + want
    assert summary.failed_guarantee_events == len(want)
    assert (summary.v_min_pu, summary.v_max_pu) == (min(mags), max(mags))


def test_dispatch_flags_and_summary_counts(small_cfg, tmp_path):
    """Relaxed and comfort-fallback intervals reach dispatch.csv and the summary alike."""
    from doesim import EnvelopePolytope, load_feeder, synthesize_households
    from doesim.scenarios import ResultWriter

    feeder = load_feeder(small_cfg.feeder_path)
    households = synthesize_households(feeder, small_cfg.households, small_cfg.dt_control_h,
                                       small_cfg.seed)
    (doe_id,) = households.take(households.doe).ids
    writer = ResultWriter(tmp_path / "made")
    for k in range(small_cfg.n_control_steps):
        # P_inj <= -100 kW on even steps: no AC power meets it, so comfort wins
        b = np.array([-100.0 if k % 2 == 0 else 100.0])
        writer.write_envelopes(k, {doe_id: EnvelopePolytope(
            doe_id, k, np.zeros((1, 2)), np.array([[1.0, 0.0]]), b, 1, 1)})
    writer.close()

    def run(cfg, out):
        summary = run_study(cfg, out, envelope_dir=tmp_path / "made" / "envelopes")
        rows = (out / "dispatch" / "dispatch.csv").read_text().splitlines()[1:]
        return summary, [row.split(",")[-1] for row in rows]

    summary, flags = run(small_cfg, tmp_path / "a")
    assert flags == ["envelope_relaxed", "ok"] * 3
    assert (summary.envelope_relaxations, summary.comfort_fallbacks) == (3, 0)

    # too hot to reach the band in one step: comfort outranks the envelope
    hot = replace(small_cfg, households=replace(small_cfg.households, t_initial_c=40.0))
    summary, flags = run(hot, tmp_path / "b")
    assert flags[0] == "comfort_fallback"
    assert summary.comfort_fallbacks == flags.count("comfort_fallback")
    assert summary.envelope_relaxations == flags.count("envelope_relaxed")


def test_envelope_stage_output_readable(configs_dir, tmp_path):
    from doesim.scenarios import read_envelopes

    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    cfg = load_study_config(path)
    run_study(cfg, tmp_path / "out", envelopes_only=True)
    envs = read_envelopes(tmp_path / "out" / "envelopes" / "step_000.csv")
    assert len(envs) == 1
    env = next(iter(envs.values()))
    assert env.sampled == 40
    assert (np.linalg.norm(env.a, axis=1) - 1.0 < 1e-9).all()


def test_static_limits_file_matches_scalar_rule(configs_dir, tmp_path):
    """Re-derive static_limits.csv from scalar profile lookups and static-rule calls."""
    from doesim import load_feeder, load_profiles, synthesize_households

    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra="")
                    .replace("passive = 1", "passive = 1\nexport_limit = 0.5\nimport_limit = 0.5"))
    cfg = load_study_config(path)
    run_study(cfg, tmp_path / "run")

    feeder = load_feeder(cfg.feeder_path)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)
    assert households.ids == list(feeder.household_map)
    rows = ["t_s,household,p_raw_kw,p_inj_kw,curtailed_kw,import_violation_kw"]
    for t_s in range(cfg.window_start_s, cfg.window_end_s, cfg.grid_step_s):
        for h, hid in enumerate(households.ids):
            if households.doe[h]:
                continue
            pv, ul = float(profiles.pv.value_at(t_s)[h]), float(profiles.ul.value_at(t_s)[h])
            adj = static_rule(households.take([h]), pv, ul)
            if adj.curtailed_kw > 0.0 or adj.import_violation_kw > 0.0:
                rows.append(f"{t_s},{hid},{pv - ul!r},{adj.p_inj_kw!r},"
                            f"{adj.curtailed_kw!r},{adj.import_violation_kw!r}")
    kinds = {"curtailed": 0, "import": 0}
    for row in rows[1:]:
        kinds["curtailed"] += float(row.split(",")[4]) > 0.0
        kinds["import"] += float(row.split(",")[5]) > 0.0
    assert kinds["curtailed"] > 0 and kinds["import"] > 0
    assert (tmp_path / "run" / "static_limits.csv").read_text().splitlines() == rows


def test_replay_voltages_equal_per_household_loop(configs_dir, tmp_path):
    """Rebuild each step's replay batch one household and sub-step at a time."""
    from doesim import (assemble_admittance, load_feeder, load_profiles, solve_batch,
                        synthesize_households)
    from doesim.envelopes import pf_tangent

    cfg = load_study_config(configs_dir / "study34.cfg")
    cfg = replace(cfg, window_end_s=10 * 3600 + 600, n_scenarios=40,
                  households=replace(cfg.households, pf_ac=0.9))  # three distinct factors
    run_study(cfg, tmp_path / "run")
    feeder = load_feeder(cfg.feeder_path)
    adm = assemble_admittance(feeder)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)
    with open(tmp_path / "run" / "dispatch" / "dispatch.csv") as fh:
        fh.readline()
        p_ac = {(int(r[0]), r[2]): float(r[3]) for r in (ln.split(",") for ln in fh)}
    with open(tmp_path / "run" / "gridlog" / "voltages.csv") as fh:
        fh.readline()
        written = np.array([float(ln.rsplit(",", 1)[1]) for ln in fh])

    doe = households.doe.tolist()
    order = [h for h in range(len(doe)) if not doe[h]] + [h for h in range(len(doe)) if doe[h]]
    nodes = {hid: (feeder.bus_index[bus], phase) for hid, (bus, phase) in feeder.household_map.items()}
    synth = cfg.households
    tan_pv, tan_ac, tan_ul = (pf_tangent(pf) for pf in (synth.pf_pv, synth.pf_ac, synth.pf_ul))
    mags = []
    for t_index, t_s in enumerate(cfg.control_times()):
        s_pu = np.zeros((cfg.substeps_per_control, feeder.n_bus, 3), dtype=complex)
        for j in range(cfg.substeps_per_control):
            tau = t_s + j * cfg.grid_step_s
            for h in order:
                hid = households.ids[h]
                pv, ul = float(profiles.pv.value_at(tau)[h]), float(profiles.ul.value_at(tau)[h])
                if doe[h]:
                    p_kw = p_ac[(t_index, hid)]
                    p = pv - p_kw - ul
                    q = pv * tan_pv - p_kw * tan_ac - ul * tan_ul
                else:
                    adj = static_rule(households.take([h]), pv, ul)
                    p, q = adj.p_inj_kw, adj.q_inj_kvar
                bi, ph = nodes[hid]
                s_pu[j, bi, ph] += feeder.base.kw_to_pu(p + 1j * q)
        v, _, _, converged = solve_batch(adm, s_pu, tol=cfg.pf_tol, maxiter=cfg.pf_maxiter)
        assert converged.all()
        mags.append(np.abs(v).reshape(-1))
    assert np.array_equal(np.concatenate(mags), written)


def test_unconverged_replay_substeps_are_logged_and_counted(configs_dir, tmp_path, caplog):
    """Each non-converged sub-step logs its time first and counts as one failed event."""
    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    cfg = load_study_config(path)
    run_study(cfg, tmp_path / "env", envelopes_only=True)
    with caplog.at_level(logging.ERROR, logger="doesim"):
        summary = run_study(replace(cfg, pf_maxiter=1), tmp_path / "replay",
                            envelope_dir=tmp_path / "env" / "envelopes")
    logged = [r.args[0] for r in caplog.records if "did not converge" in r.msg]
    assert logged == list(range(cfg.window_start_s, cfg.window_end_s, cfg.grid_step_s))
    violations = (tmp_path / "replay" / "gridlog" / "violations.csv").read_text().splitlines()
    assert summary.failed_guarantee_events == len(logged) + len(violations) - 1
    assert _summary(tmp_path / "replay") == _summary_from_files(tmp_path / "replay",
                                                               unconverged=len(logged))


def _recorded_replay(monkeypatch):
    """The injection stacks the replay passes to the load flow, recorded as it runs."""
    import doesim.orchestrator as orchestrator_mod
    from doesim.powerflow import solve_batch

    stacks = []

    def recording_solve_batch(adm, s_pu, **kwargs):
        stacks.append(s_pu.copy())
        return solve_batch(adm, s_pu, **kwargs)

    monkeypatch.setattr(orchestrator_mod, "solve_batch", recording_solve_batch)
    return stacks


def test_replay_blocks_equal_a_load_flow_per_step(configs_dir, tmp_path, monkeypatch):
    """14 control steps flow as a block of 12 and one of 2, and each step's
    voltages equal those of its own load flow; one-step blocks write the same files."""
    import doesim.orchestrator as orchestrator_mod
    from doesim import assemble_admittance, load_feeder
    from doesim.powerflow import MISMATCH_BLOCK, solve_batch

    cfg = load_study_config(configs_dir / "study34.cfg")
    cfg = replace(cfg, window_start_s=10 * 3600, window_end_s=11 * 3600 + 600, n_scenarios=40)
    n = cfg.substeps_per_control
    assert cfg.n_control_steps == 14 and MISMATCH_BLOCK // n == 12
    stacks = _recorded_replay(monkeypatch)
    run_study(cfg, tmp_path / "blocks")
    assert [stack.shape[:2] for stack in stacks] == [(12, n), (2, n)]

    feeder = load_feeder(cfg.feeder_path)
    adm = assemble_admittance(feeder)
    times = iter(range(cfg.window_start_s, cfg.window_end_s, cfg.grid_step_s))
    want = []
    for step in (s_pu for stack in stacks for s_pu in stack):
        v, _, _, converged = solve_batch(adm, step, tol=cfg.pf_tol, maxiter=cfg.pf_maxiter)
        assert converged.all()
        for mags, t in zip(np.abs(v).tolist(), times):
            want += [f"{t},{bus},{ph},{m!r}" for bus, row in zip(feeder.buses, mags)
                     for ph, m in enumerate(row)]
    written = (tmp_path / "blocks" / "gridlog" / "voltages.csv").read_text().splitlines()
    assert written[1:] == want

    del stacks[:]
    monkeypatch.setattr(orchestrator_mod, "MISMATCH_BLOCK", 1)
    run_study(cfg, tmp_path / "steps")
    assert [stack.shape[:2] for stack in stacks] == [(1, n)] * 14
    assert _tree_bytes(tmp_path / "steps") == _tree_bytes(tmp_path / "blocks")
    for name in ("summary.txt", "static_limits.csv"):
        assert (tmp_path / "steps" / name).read_bytes() == (tmp_path / "blocks" / name).read_bytes()


def test_replay_of_one_substep_steps_flows_each_alone(configs_dir, tmp_path, monkeypatch):
    """A batch of one rounds apart from a row of a stack, so such steps are not grouped."""
    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra="")
                    .replace("control_step_s = 300", "control_step_s = 30")
                    .replace("window_end = 10:30", "window_end = 10:05"))
    cfg = load_study_config(path)
    assert cfg.substeps_per_control == 1
    stacks = _recorded_replay(monkeypatch)
    run_study(cfg, tmp_path / "run")
    assert [stack.shape[:2] for stack in stacks] == [(1, 1)] * cfg.n_control_steps


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_study(configs_dir, tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    return path


def test_cli_run_happy_path(configs_dir, tmp_path, capsys):
    study = _write_study(configs_dir, tmp_path)
    rc = cli_main(["run", "--config", str(study), "--out", str(tmp_path / "results"),
                   "--seed", "11"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max tracking error" in out
    assert (tmp_path / "results" / "manifest.txt").exists()
    assert (tmp_path / "results" / "dispatch" / "dispatch.csv").exists()


def test_cli_pf_zero_flat(configs_dir, capsys):
    rc = cli_main(["pf", "--config", str(configs_dir / "feeder2.cfg"), "--injections", "zero"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.00000" in out
    assert "b2" in out


def test_cli_pf_injection_file(configs_dir, tmp_path, capsys, caplog):
    inj = tmp_path / "inj.dat"
    inj.write_text("b2 0 -5.0 -1.0\n")
    caplog.set_level(logging.DEBUG, logger="doesim.powerflow")
    rc = cli_main(["pf", "--config", str(configs_dir / "feeder2.cfg"),
                   "--injections", str(inj), "--verbose"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged" in out
    # --verbose reports each sweep's mismatch once, from before the first sweep on
    iterations = int(out.split("converged in ")[1].split()[0])
    sweeps = [r.args[0] for r in caplog.records if r.msg.startswith("sweep ")]
    assert sweeps == list(range(iterations + 1)) and "sweep" not in out


@pytest.mark.parametrize("row, message", [
    ("b9 0 -5.0 -1.0", "unknown bus 'b9'"),
    ("b2 5 -5.0 -1.0", "phase must be 0, 1 or 2, got '5'"),
    ("b2 -1 -5.0 -1.0", "phase must be 0, 1 or 2, got '-1'"),
    ("b2 0 -5.0", "expected 'bus phase p_kw q_kvar'"),
    ("b2 0 -5.0 lots", "expected 'bus phase p_kw q_kvar'"),
    # each row is finite, their sum at the node is not
    ("b2 0 1e308 0\nb2 0 1e308 0", "the injections at b2 phase 0 sum past the float range"),
])
def test_cli_pf_injection_file_bad_row(configs_dir, tmp_path, capsys, row, message):
    inj = tmp_path / "inj.dat"
    inj.write_text(f"# bus phase p_kw q_kvar\nb2 0 -5.0 -1.0\n{row}\n")
    rc = cli_main(["pf", "--config", str(configs_dir / "feeder2.cfg"), "--injections", str(inj)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{inj}, line {2 + len(row.splitlines())}: {message}" in err


def test_cli_track_rejects_envelope_row_short_of_b(configs_dir, tmp_path, capsys):
    """A row with one b value fewer than its A rows exits 3 naming the file and line."""
    study = _write_study(configs_dir, tmp_path)
    assert cli_main(["envelopes", "--config", str(study), "--out", str(tmp_path / "s1")]) == 0
    path = tmp_path / "s1" / "envelopes" / "step_000.csv"
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    n_rows = len(row[-1].split(";"))
    row[-1] = row[-1].rsplit(";", 1)[0]
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli_main(["track", "--config", str(study), "--out", str(tmp_path / "s2"),
                   "--envelopes", str(path.parent)])
    assert rc == 3
    assert (f"error: {path}, line 2: A has {n_rows} rows but b has {n_rows - 1} values"
            in capsys.readouterr().err)


def test_cli_envelopes_and_track(configs_dir, tmp_path, capsys):
    study = _write_study(configs_dir, tmp_path)
    rc = cli_main(["envelopes", "--config", str(study), "--out", str(tmp_path / "s1"),
                   "--scenarios", "25"])
    assert rc == 0
    files = list((tmp_path / "s1" / "envelopes").glob("step_*.csv"))
    assert len(files) == 6
    text = files[0].read_text().splitlines()
    assert text[1].split(",")[2] == "25"  # sampled count honoured

    rc = cli_main(["track", "--config", str(study), "--out", str(tmp_path / "s2"),
                   "--envelopes", str(tmp_path / "s1" / "envelopes")])
    assert rc == 0
    assert (tmp_path / "s2" / "dispatch" / "dispatch.csv").exists()


def test_cli_run_equals_envelopes_then_track(configs_dir, tmp_path):
    """`run` writes what `envelopes` and then `track` over its envelope files write."""
    study = str(_write_study(configs_dir, tmp_path))
    assert cli_main(["run", "--config", study, "--out", str(tmp_path / "run")]) == 0
    assert cli_main(["envelopes", "--config", study, "--out", str(tmp_path / "env")]) == 0
    assert cli_main(["track", "--config", study, "--out", str(tmp_path / "track"),
                     "--envelopes", str(tmp_path / "env" / "envelopes")]) == 0

    def files(root, skip=()):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "manifest.txt"
                and p.relative_to(root).parts[0] not in skip}

    run = files(tmp_path / "run", skip=("envelopes",))
    assert run == files(tmp_path / "track", skip=("envelopes",))
    assert run["gridlog/voltages.csv"].count(b"\n") == 1 + 60 * 2 * 3
    envelopes = files(tmp_path / "run" / "envelopes")
    assert len(envelopes) == 6 and envelopes == files(tmp_path / "env" / "envelopes")
    assert files(tmp_path / "track" / "envelopes") == {}


def test_cli_report(configs_dir, tmp_path, capsys):
    study = _write_study(configs_dir, tmp_path)
    assert cli_main(["run", "--config", str(study), "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    rc = cli_main(["report", "--results", str(tmp_path / "r")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_tracking_error_kw" in out
    assert (tmp_path / "r" / "report_voltage_range.csv").exists()


def test_cli_missing_config_exit_code(tmp_path):
    rc = cli_main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")])
    assert rc == 3


def test_cli_bad_config_value_exit_code(configs_dir, tmp_path, capsys):
    study = _write_study(configs_dir, tmp_path)
    study.write_text(study.read_text().replace("seed = 11", "seed = seven"))
    rc = cli_main(["run", "--config", str(study), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert f"error: {study}: [study] seed = seven" in capsys.readouterr().err
    assert cli_main(["run", "--config", str(_write_study(configs_dir, tmp_path)),
                     "--out", str(tmp_path / "y"), "--rho", "-1"]) == 3
    capsys.readouterr()
    assert cli_main(["run", "--config", str(_write_study(configs_dir, tmp_path)),
                     "--out", str(tmp_path / "z"), "--rho", "nan"]) == 3
    assert "error: --rho/--maxiter: rho must be > 0 and finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()
    assert cli_main(["run", "--config", str(_write_study(configs_dir, tmp_path)),
                     "--out", str(tmp_path / "s"), "--seed", "-1"]) == 3
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("good, bad, named", [
    ("seed = 11", "seed = -3", "seed must be >= 0, got -3"),
    ("scenarios = 40", "scenarios = 0", "scenarios must be >= 1, got 0"),
    ("grid_step_s = 30", "grid_step_s = 0", "grid_step_s must be >= 1, got 0"),
    ("control_step_s = 300", "control_step_s = -300", "control_step_s must be >= 1, got -300"),
    ("v_lo = 0.94", "v_lo = 1.10", "v_lo must be < v_hi = 1.1, got 1.1"),
    ("v_hi = 1.10", "v_hi = 0.5", "v_lo must be < v_hi = 0.5, got 0.94"),
    ("scenarios = 40", "scenarios = 40\npf_maxiter = 0", "pf_maxiter must be >= 1, got 0"),
    ("scenarios = 40", "scenarios = 40\npf_tol = 0", "pf_tol must be > 0, got 0.0"),
    ("reference_period_s = 600", "reference_period_s = 0", "reference_period_s must be >= 1, got 0"),
    ("reference_period_s = 600", "reference_period_s = -600",
     "reference_period_s must be >= 1, got -600"),
    ("scenarios = 40", "scenarios = 40\nforecast_noise = nan",
     "forecast_noise must be finite and >= 0, got nan"),
    ("scenarios = 40", "scenarios = 40\nforecast_noise = -0.5",
     "forecast_noise must be finite and >= 0, got -0.5"),
])
def test_cli_bad_study_value_exit_code(configs_dir, tmp_path, capsys, good, bad, named):
    study = _write_study(configs_dir, tmp_path)
    assert f"\n{good}\n" in study.read_text()
    study.write_text(study.read_text().replace(f"\n{good}\n", f"\n{bad}\n"))
    rc = cli_main(["run", "--config", str(study), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert f"error: {study}: [study] {named}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("good, bad, named", [
    ("rho = 1.0", "rho = nan", "rho must be > 0 and finite, got nan"),
    ("rho = 1.0", "rho = inf", "rho must be > 0 and finite, got inf"),
    ("eps_prim = 1e-3", "eps_prim = nan", "eps_prim must be > 0, got nan"),
    ("eps_dual = 1e-3", "eps_dual = nan", "eps_dual must be > 0, got nan"),
    ("maxiter = 15", "maxiter = 0", "maxiter must be >= 1, got 0"),
])
def test_cli_bad_admm_value_exit_code(configs_dir, tmp_path, capsys, good, bad, named):
    study = _write_study(configs_dir, tmp_path)
    assert f"\n{good}\n" in study.read_text()
    study.write_text(study.read_text().replace(f"\n{good}\n", f"\n{bad}\n"))
    rc = cli_main(["run", "--config", str(study), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert f"error: {study}: [admm] {named}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_zero_scenarios_override_exit_code(configs_dir, tmp_path, capsys):
    study = _write_study(configs_dir, tmp_path)
    rc = cli_main(["run", "--config", str(study), "--out", str(tmp_path / "x"),
                   "--scenarios", "0"])
    assert rc == 3
    assert "error: scenarios must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, named", [
    ("pf_pv = 1.5", "[households] pf_pv must be in (0, 1], got 1.5"),
    ("r_range = 0.5", "[households] r_range must be two values 0 < lo <= hi, got (0.5,)"),
    ("doe = 2", "[households] doe is set twice"),
])
def test_cli_bad_households_value_exit_code(configs_dir, tmp_path, capsys, line, named):
    study = _write_study(configs_dir, tmp_path)
    study.write_text(study.read_text().replace("passive = 1\n", f"passive = 1\n{line}\n"))
    rc = cli_main(["run", "--config", str(study), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert f"error: {study}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_unknown_flag_usage_exit():
    with pytest.raises(SystemExit) as err:
        cli_main(["run", "--nonsense"])
    assert err.value.code == 2


def test_cli_window_override(configs_dir, tmp_path):
    study = _write_study(configs_dir, tmp_path)
    rc = cli_main(["run", "--config", str(study), "--out", str(tmp_path / "w"),
                   "--window", "10:00-10:10"])
    assert rc == 0
    conv = (tmp_path / "w" / "dispatch" / "convergence.csv").read_text().strip().splitlines()
    assert len(conv) - 1 == 2


def test_aborted_run_leaves_flagged_manifest(configs_dir, tmp_path):
    """A missing envelope file mid-replay aborts but still writes the manifest."""
    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg", extra=""))
    cfg = load_study_config(path)
    run_study(cfg, tmp_path / "s1", envelopes_only=True)
    run_study(cfg, tmp_path / "complete", envelope_dir=tmp_path / "s1" / "envelopes")
    (tmp_path / "s1" / "envelopes" / "step_003.csv").unlink()

    with pytest.raises(FileNotFoundError):
        run_study(cfg, tmp_path / "replay", envelope_dir=tmp_path / "s1" / "envelopes")
    manifest = (tmp_path / "replay" / "manifest.txt").read_text()
    assert "status = aborted" in manifest
    # the first steps were persisted before the failure
    conv = (tmp_path / "replay" / "dispatch" / "convergence.csv").read_text().strip().splitlines()
    assert len(conv) - 1 == 3
    # and their replay, queued for a later block, was flowed when the run aborted
    volt = (tmp_path / "replay" / "gridlog" / "voltages.csv").read_text().splitlines()
    complete = (tmp_path / "complete" / "gridlog" / "voltages.csv").read_text().splitlines()
    assert len(volt) - 1 == 3 * cfg.substeps_per_control * 2 * 3  # steps x sub-steps x buses x phases
    assert volt == complete[:len(volt)]
    # the summary counts the steps that ran and the sub-steps the replay flowed,
    # and its failed events are the violations.csv rows
    summary = _summary(tmp_path / "replay")
    assert (summary["control_steps"], summary["grid_records"]) == ("3", str(3 * cfg.substeps_per_control))
    assert summary == _summary_from_files(tmp_path / "replay")


def test_forecast_noise_hook_runs_and_stays_deterministic(configs_dir, tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(SMALL_STUDY.format(feeder=configs_dir / "feeder2.cfg",
                                       extra="").replace("[admm]",
                                                         "forecast_noise = 0.05\n\n[admm]"))
    cfg = load_study_config(path)
    assert cfg.forecast_noise == 0.05
    run_study(cfg, tmp_path / "n1")
    run_study(cfg, tmp_path / "n2")
    a = _tree_bytes(tmp_path / "n1", subdirs=("envelopes",))
    b = _tree_bytes(tmp_path / "n2", subdirs=("envelopes",))
    assert a == b


def test_forecast_views_equal_per_step_draws():
    """All steps' views at once equal one step at a time from its own stream, pv then ul."""
    from doesim import StudyConfig
    from doesim.orchestrator import _forecast_views

    rng = np.random.default_rng(12)
    pv, ul = rng.uniform(0.0, 4.0, (2, 60, 9))
    pv[:, 3] = 0.0
    for noise in (0.0, 0.05, 3.0):
        cfg = StudyConfig(feeder_path="unused", seed=5, forecast_noise=noise,
                          window_start_s=36000, window_end_s=37800)
        views = _forecast_views(cfg, pv, ul)
        for t_index in range(cfg.n_control_steps):
            step_rng = np.random.default_rng([cfg.seed, 402, t_index])
            for got, values in zip(views, (pv, ul)):
                want = values[t_index * cfg.substeps_per_control]
                if noise > 0.0:
                    noisy = want * (1.0 + noise * step_rng.standard_normal(want.shape))
                    want = np.where(noisy > 0.0, noisy, 0.0)
                assert got[t_index].tobytes() == want.tobytes()


def test_unreachable_reference_is_warned_at_its_steps(configs_dir, tmp_path, monkeypatch, caplog):
    """Study34 seed 309 over 08:00-16:00: each step whose reference lies outside the summed
    interval table [sum lo, sum hi] gets one WARNING naming the step, the reference and the
    range, and no other step gets one."""
    import doesim.orchestrator as orchestrator_mod
    from doesim.controller import admm_track
    from doesim.scenarios import parse_hms

    cfg = replace(load_study_config(configs_dir / "study34.cfg"), seed=309,
                  window_start_s=parse_hms("08:00"), window_end_s=parse_hms("16:00"))
    tables = []

    def recording_admm_track(intervals, price, p_ref, *args, **kwargs):
        tables.append((float(intervals.lo.sum()), float(intervals.hi.sum()), p_ref))
        return admm_track(intervals, price, p_ref, *args, **kwargs)

    monkeypatch.setattr(orchestrator_mod, "admm_track", recording_admm_track)
    caplog.set_level(logging.WARNING, logger="doesim.orchestrator")
    run_study(cfg, tmp_path / "run")
    assert len(tables) == cfg.n_control_steps == 96
    outside = [t for t, (lo, hi, p_ref) in enumerate(tables) if not lo <= p_ref <= hi]
    assert 50 in outside
    warned = [r.getMessage() for r in caplog.records if "reachable" in r.getMessage()]
    assert warned == [f"step {t}: reference {tables[t][2]:.2f} kW is outside the reachable "
                      f"[{tables[t][0]:.2f}, {tables[t][1]:.2f}] kW" for t in outside]
    assert warned[outside.index(50)].startswith("step 50: reference 38.46 kW is outside the "
                                                "reachable [45.26, ")
