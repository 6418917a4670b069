"""Closed-loop study driver.

Each control step builds envelopes from probabilistic load flows, finds
every DOE household's feasible AC power interval from them, runs the ADMM
dispatch against the market set-point, queues its 30-s grid sub-steps for
the replay, advances the thermal states, and persists everything.  The
replay only observes: nothing in the loop reads its voltages back.  So it
flows a block of queued steps as one grouped load flow (each step one
group, as many as fill ``MISMATCH_BLOCK`` sub-steps) after the block's last
step, after the window's last step, and when a run aborts, and writes each
step's voltages and violations in step order.  Its time lands in the
flushing step's ``seconds``.

Each step's facts go into its row of one per-step table (``STEP_FIELDS``)
as the stages and the replay write its files.  The run summary is one
reduction of the table (``RunSummary.from_steps``), so it counts what ran.

The households are one table (``Roster``) in feeder order, built once per
run; the DOE households are its ``take`` of the DOE rows, and intervals,
injections and the thermal advance are one array call each per step over
them.  Household pv and load, and each step's forecast view of them, are
(time, household) arrays in the same order made before the loop; the
static rule is one call over every other household on each.  The replay's
(sub-step, household) injections in kW reach the load flow through
``scatter_injections``, the scatter the envelope screen uses.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .controller import admm_track, feasible_intervals
from .envelopes import SecantModel, build_envelopes, poc_injection, scatter_injections
from .errors import ConfigError
from .feeder import assemble_admittance, load_feeder
from .powerflow import MISMATCH_BLOCK, check_limits, solve_batch
from .scenarios import (
    ResultWriter,
    StudyConfig,
    apply_static_limits,
    build_reference,
    load_profiles,
    read_envelopes,
    simulate_baseline,
    synthesize_households,
)
from .thermal import step_temperature

log = logging.getLogger(__name__)


# The per-step table's fields, one float each: NaN where no stage of the step
# filled it; grid_records is 0 while the step waits in the replay's queue.
STEP_FIELDS = np.dtype([(name, float) for name in (
    "tracking_error_kw", "t_in_min_c", "t_in_max_c", "comfort_fallbacks",
    "envelope_relaxations", "grid_records", "v_min_pu", "v_max_pu",
    "failed_guarantee_events", "seconds")])


@dataclass
class RunSummary:
    control_steps: int
    grid_records: int
    max_tracking_error_kw: float
    v_min_pu: float
    v_max_pu: float
    t_in_min_c: float
    t_in_max_c: float
    failed_guarantee_events: int
    comfort_fallbacks: int
    envelope_relaxations: int
    mean_step_seconds: float

    @classmethod
    def from_steps(cls, steps: np.ndarray) -> RunSummary:
        """Reduce a per-step table: nansum, fmin and fmax skip what no step filled."""
        seconds = steps["seconds"][~np.isnan(steps["seconds"])]
        return cls(
            control_steps=len(seconds),
            grid_records=int(np.nansum(steps["grid_records"])),
            max_tracking_error_kw=float(np.fmax.reduce(steps["tracking_error_kw"], initial=0.0)),
            v_min_pu=float(np.fmin.reduce(steps["v_min_pu"], initial=np.nan)),
            v_max_pu=float(np.fmax.reduce(steps["v_max_pu"], initial=np.nan)),
            t_in_min_c=float(np.fmin.reduce(steps["t_in_min_c"], initial=np.nan)),
            t_in_max_c=float(np.fmax.reduce(steps["t_in_max_c"], initial=np.nan)),
            failed_guarantee_events=int(np.nansum(steps["failed_guarantee_events"])),
            comfort_fallbacks=int(np.nansum(steps["comfort_fallbacks"])),
            envelope_relaxations=int(np.nansum(steps["envelope_relaxations"])),
            mean_step_seconds=float(seconds.mean()) if len(seconds) else 0.0,
        )

    def deterministic_dict(self) -> dict:
        """Summary fields safe for the byte-stable summary file (no timings)."""
        return {key: repr(value) if isinstance(value, float) else value
                for key, value in asdict(self).items() if key != "mean_step_seconds"}


def _forecast_views(cfg: StudyConfig, pv: np.ndarray, ul: np.ndarray):
    """Each control step's forecast of pv and ul: (step, household) arrays.

    A step's view is the values at its first grid sub-step, perturbed by the
    forecast-noise hook from the step's own stream, pv then ul.
    """
    views = pv[::cfg.substeps_per_control].copy(), ul[::cfg.substeps_per_control].copy()
    if cfg.forecast_noise <= 0.0:
        return views
    for t_index in range(cfg.n_control_steps):
        rng = np.random.default_rng([cfg.seed, 402, t_index])
        for view in views:
            noisy = view[t_index] * (1.0 + cfg.forecast_noise * rng.standard_normal(view.shape[1]))
            view[t_index] = np.where(noisy > 0.0, noisy, 0.0)
    return views


def envelope_corners(households, pv: np.ndarray, ul: np.ndarray):
    """Every household's (P, Q) segment ends at every step.

    pv, ul: (step, household) kW in the table's order.  A DOE row's segment
    runs from its injection at AC rating (lo) to AC off (hi); every other
    row is its static-rule point, lo == hi.  Returns (2, step, household,
    2): lo, then hi.
    """
    ac_ends = np.stack([households.ac_kw_rating, np.zeros_like(households.ac_kw_rating)])
    corners = np.stack(poc_injection(pv, ac_ends[:, None, :], ul, households.tan_pv,
                                     households.tan_ac, households.tan_ul), axis=-1)
    other = ~households.doe
    st = apply_static_limits(households.take(other), pv[:, other], ul[:, other])
    corners[:, :, other] = np.stack([st.p_inj_kw, st.q_inj_kvar], axis=-1)
    return corners


def _static_window(households, other, pv, ul):
    """One static-rule call over the window's (sub-step, household) pv and ul.

    Returns the replay's (sub-step, household, P/Q) injection table in kW with
    the `other` households' columns set, and only the flagged outcomes (export
    curtailed or import over the limit): their sub-steps, household ids and
    (p_raw, p_inj, curtailed, import violation) rows, in (sub-step, household) order.
    """
    injections = np.empty((*pv.shape, 2))
    pv, ul = pv[:, other], ul[:, other]
    st = apply_static_limits(households.take(other), pv, ul)
    injections[:, other, 0] = st.p_inj_kw
    injections[:, other, 1] = st.q_inj_kvar
    flagged = (st.curtailed_kw > 0.0) | (st.import_violation_kw > 0.0)
    static_t, static_k = np.nonzero(flagged)
    return injections, static_t, [households.ids[other[k]] for k in static_k], np.stack([
        pv[flagged] - ul[flagged], st.p_inj_kw[flagged], st.curtailed_kw[flagged],
        st.import_violation_kw[flagged]])


def _replay(adm, cfg: StudyConfig, writer: ResultWriter, times, injections, steps):
    """Solve the queued control steps' grid sub-steps as one grouped load flow and log them.

    Queued steps are the rows of ``steps`` with 0 grid records.  times: the
    window's sub-step times; injections: (sub-steps, households, 2) (P, Q)
    in kW in feeder order, scattered as the envelope screen scatters its
    scenarios.  Each step is one group of the stack, so it gets the voltages
    a batch of its own would get.  Writes every voltage and violation one
    step at a time, in step order, and fills each step's row: its sub-step
    count, the extremes over its sub-steps without a NaN magnitude, and its
    failed-guarantee events (violations plus non-converged sub-steps).
    """
    queued = np.flatnonzero(steps["grid_records"] == 0)
    if not len(queued):
        return
    feeder = adm.feeder
    n = cfg.substeps_per_control
    block = injections[queued[0] * n:(queued[-1] + 1) * n]
    s_pu = scatter_injections(feeder, np.swapaxes(block, 0, 1))
    v, _, mism, converged = solve_batch(adm, s_pu.reshape(-1, n, *s_pu.shape[1:]),
                                        tol=cfg.pf_tol, maxiter=cfg.pf_maxiter)
    for g, t_index in enumerate(queued):
        step_times = times[t_index * n:(t_index + 1) * n].tolist()
        mags = np.abs(v[g])
        writer.write_voltages(step_times, feeder, mags)
        for j in np.flatnonzero(~converged[g]):
            log.error("grid sub-step t=%ds did not converge (mismatch %.2e)",
                      step_times[j], mism[g, j])
        where = check_limits(mags, cfg.v_lo, cfg.v_hi)
        if len(where):
            writer.write_violation(step_times, feeder, mags, where, cfg.v_lo, cfg.v_hi)
        step = steps[t_index]
        clean = mags[~np.isnan(mags).any(axis=(1, 2))]
        if len(clean):
            step["v_min_pu"], step["v_max_pu"] = clean.min(), clean.max()
        step["grid_records"] = n
        step["failed_guarantee_events"] = int((~converged[g]).sum()) + len(where)


def run_study(cfg: StudyConfig, out_dir, envelopes_only: bool = False,
              envelope_dir=None) -> RunSummary:
    """Run the full study and write artifacts to ``out_dir``.

    ``envelopes_only`` stops after envelope construction each step (no
    dispatch, no grid replay).  ``envelope_dir`` replays precomputed
    envelope files instead of rebuilding them.
    """
    feeder = load_feeder(cfg.feeder_path)
    adm = assemble_admittance(feeder)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, households)

    baseline = simulate_baseline(households, profiles, cfg)
    p_ref_profile = build_reference(
        baseline, cfg.regulation_fraction, cfg.reference_shape, cfg.seed,
        cfg.window_start_s, cfg.control_step_s, cfg.reference_period_s)

    # The DOE households and every other one, as positions in feeder order.
    doe, other = np.flatnonzero(households.doe), np.flatnonzero(~households.doe)
    roster = households.take(doe)
    t_in = np.full(len(doe), cfg.households.t_initial_c)
    prev_dispatch = np.zeros(len(doe))

    # pv and ul of every household at every grid sub-step of the window: (T, H).
    n_substeps = cfg.substeps_per_control
    times = cfg.window_start_s + cfg.grid_step_s * np.arange(cfg.n_control_steps * n_substeps)
    pv, ul = profiles.pv.value_at(times), profiles.ul.value_at(times)

    injections, static_t, static_ids, static = _static_window(households, other, pv, ul)
    doe_injection = (roster.tan_pv, roster.tan_ac, roster.tan_ul)

    pv_views, ul_views = _forecast_views(cfg, pv, ul)
    if envelope_dir is None:
        lo, hi = envelope_corners(households, pv_views, ul_views)
        screen_model = SecantModel()   # carried across this run's steps only

    writer = ResultWriter(out_dir)
    writer.write_manifest(_config_echo(cfg), cfg.seed, "running")

    steps = np.full(cfg.n_control_steps, np.nan, STEP_FIELDS)
    status = "aborted"

    # The replay flows a block of control steps at a time, one group each,
    # as many as fill one residual block.  Steps of one sub-step flow alone:
    # numpy takes a matrix-vector product for a batch of one, which rounds
    # apart from a row of a stack's matrix product.
    block = max(1, MISMATCH_BLOCK // n_substeps) if n_substeps > 1 else 1

    try:
        for t_index, t_s in enumerate(cfg.control_times()):
            step_start = time.time()
            step = steps[t_index]  # a view: what is set on it lands in the table
            rows = slice(t_index * n_substeps, (t_index + 1) * n_substeps)
            pv_now, ul_now = pv_views[t_index, doe], ul_views[t_index, doe]
            t_out_now = profiles.t_out.value_at(t_s)
            price_now = profiles.price.value_at(t_s)

            # Envelope stage
            if envelope_dir is not None:
                envelopes = read_envelopes(Path(envelope_dir) / f"step_{t_index:03d}.csv")
                missing = sorted(set(roster.ids) - set(envelopes))
                if missing:
                    raise ConfigError(f"envelope file for step {t_index} misses {missing[:5]}")
            else:
                envelopes = build_envelopes(
                    adm, doe, lo[t_index], hi[t_index], t_index,
                    cfg.n_scenarios, [cfg.seed, 401, t_index], cfg.v_lo, cfg.v_hi,
                    pf_tol=cfg.pf_tol, pf_maxiter=cfg.pf_maxiter, model=screen_model)
                writer.write_envelopes(t_index, envelopes)
            if envelopes_only:
                step["seconds"] = time.time() - step_start
                continue

            # Dispatch stage: the linear price term is revenue over this interval,
            # price (currency/kWh) times the step length in hours.
            intervals = feasible_intervals(roster, pv_now, ul_now, envelopes, t_in, t_out_now)
            p_ref = p_ref_profile.value_at(t_s)
            reach = intervals.lo.sum(), intervals.hi.sum()
            if not reach[0] <= p_ref <= reach[1]:
                log.warning("step %d: reference %.2f kW is outside the reachable [%.2f, %.2f] kW",
                            t_index, p_ref, *reach)
            result = admm_track(intervals, price_now * cfg.dt_control_h, p_ref, cfg.admm,
                                warm_start=prev_dispatch)
            prev_dispatch = result.p_ac.copy()
            writer.write_convergence(t_index, t_s, result)
            step["tracking_error_kw"] = result.tracking_error_kw

            fallback, relaxed = intervals.source == "comfort", intervals.source == "envelope"
            flags = np.where(fallback, "comfort_fallback",
                             np.where(relaxed, "envelope_relaxed", "ok")).tolist()

            # Grid replay at 30-s cadence with dispatch held fixed.
            first, stop = np.searchsorted(static_t, (rows.start, rows.stop))
            writer.write_static(times[static_t[first:stop]].tolist(), static_ids[first:stop],
                                *static[:, first:stop])
            injections[rows, doe] = np.stack(
                poc_injection(pv[rows, doe], result.p_ac, ul[rows, doe], *doe_injection), axis=-1)
            step["grid_records"] = 0  # queued
            if (t_index + 1) % block == 0 or t_index + 1 == cfg.n_control_steps:
                _replay(adm, cfg, writer, times, injections, steps)

            # Thermal advance with the dispatched powers.
            t_in = step_temperature(t_in, roster, t_out_now, result.p_ac)
            p_inj, q_inj = poc_injection(pv_now, result.p_ac, ul_now, *doe_injection)
            writer.write_dispatch(t_index, t_s, roster.ids, result.p_ac, p_inj, q_inj, t_in, flags)
            step["t_in_min_c"], step["t_in_max_c"] = t_in.min(), t_in.max()
            step["comfort_fallbacks"], step["envelope_relaxations"] = fallback.sum(), relaxed.sum()
            step["seconds"] = time.time() - step_start
        status = "complete"
    except BaseException:
        _replay(adm, cfg, writer, times, injections, steps)  # log the queued steps too
        raise
    finally:
        summary = RunSummary.from_steps(steps)
        writer.write_summary(summary.deterministic_dict())
        writer.write_manifest(_config_echo(cfg), cfg.seed, status,
                              mean_step_seconds=summary.mean_step_seconds)
        writer.close()
    return summary


def _config_echo(cfg: StudyConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in sorted(vars(cfg).items()))
