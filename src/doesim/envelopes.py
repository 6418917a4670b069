"""Per-household operating envelopes in the P-Q plane.

The network side of the scheme.  A DOE household's injection is affine in
its air-conditioner power at fixed power factors (``poc_injection``), so at
each step it reaches one segment: from its AC-off end ``hi`` to its
AC-at-rating end ``lo``, given per step as (household, 2) (P, Q) ends in
feeder order, equal for the households at a fixed point.  Each scenario
puts every household at a uniform point of its segment, and the last two
are the segments' ends.  The scenarios are screened against the statutory
voltage band, and the convex hull of each DOE household's surviving points,
in half-space form, is the envelope handed to its local controller.  Points
on a segment have a segment (or a single point) as their hull, so the
envelope is the stretch of the segment between the extreme survivors; a
step's hulls and rows are formed for every DOE household at once.

The screen needs one verdict per scenario, in band or not.  A secant model
of every node's |V|, linear in each household's position along its segment,
settles the scenarios far from the band edge.  A fit flows one load-flow
batch: the segments' midpoints, one point per household with a segment, and
the first ``SCREEN_CHECK`` scenarios, which measure the model's error.  The
fitted slopes (a ``SecantModel``) are carried to the next steps with the
same households free, where they cost one batch of the new midpoints and
the checked scenarios; they stay while their error there is at most the
error they had on the step that fitted them, and are refitted otherwise.  A
scenario whose predicted margin to both band edges exceeds
``SCREEN_MARGIN_PU`` takes the model's verdict; the rest get the full
three-phase load flow.  Every scenario gets the full flow instead when a fit
errs by more than half that margin on the checked scenarios, when a fit flow
does not converge, or when there are too few scenarios for a fit to pay for
itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import EnvelopeError
from .feeder import AdmittanceModel, FeederModel
from .powerflow import limits_mask, solve_batch

log = logging.getLogger(__name__)

CONTAIN_TOL = 1e-9
# The screen's secant model settles a scenario only when its predicted margin
# to both band edges, at its worst node, exceeds this (pu).  A margin that
# wide guards the model's own error, which the check below bounds.
SCREEN_MARGIN_PU = 1e-3
# The first this many scenarios are flowed with the fit and check the model:
# the screen falls back to flowing every scenario when its largest |V| error
# on them exceeds SCREEN_MARGIN_PU / 2.  Draws are i.i.d., so they are a
# uniform random subset of the step's scenarios.
SCREEN_CHECK = 32


def pf_tangent(power_factor: float) -> float:
    """tan(acos(pf)) for a lagging power factor in (0, 1]."""
    if not 0.0 < power_factor <= 1.0:
        raise ValueError(f"power factor must be in (0, 1], got {power_factor}")
    return math.tan(math.acos(power_factor))


@dataclass(frozen=True)
class Roster:
    """The household table: one row per household, one array per column.

    Synthesis puts the rows in the feeder's household order.  ``doe`` marks the households with an envelope and a dispatched
    air-conditioner; ``ac_kw_rating`` is 0 for the others, and their
    comfort band, ``decay`` and ``gain`` are NaN.  ``decay`` and ``gain``
    are as in ThermalParams, so the thermal functions take a table of DOE
    households.  Powers are in kW.
    """

    ids: list[str]
    doe: np.ndarray
    pv_kw_rating: np.ndarray
    tan_pv: np.ndarray
    tan_ac: np.ndarray
    tan_ul: np.ndarray
    ac_kw_rating: np.ndarray
    comfort_lo: np.ndarray
    comfort_hi: np.ndarray
    decay: np.ndarray
    gain: np.ndarray
    import_limit_kw: np.ndarray
    export_limit_kw: np.ndarray

    def take(self, rows) -> Roster:
        """The sub-table of ``rows``: positions or a boolean mask, as numpy indexes."""
        return Roster(np.asarray(self.ids)[rows].tolist(),
                      *(getattr(self, f.name)[rows] for f in fields(self)[1:]))


@dataclass
class EnvelopePolytope:
    """One DOE household's envelope at one control step.

    Vertices are (kW, kvar) pairs: doesim builds one point or a segment's
    two ends in lexicographic order, and an envelope file may hold any
    convex polygon, counter-clockwise.  Rows of A have unit Euclidean norm
    and A @ x <= b within tolerance for every vertex and every feasible
    sampled point.  ``degenerate`` marks an envelope that is a single point.
    """

    household_id: str
    t_index: int
    vertices: np.ndarray  # (k, 2)
    a: np.ndarray         # (m, 2)
    b: np.ndarray         # (m,)
    sampled: int
    feasible: int
    degenerate: bool = False

    def contains(self, points: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray:
        pts = np.atleast_2d(points)
        return (pts @ self.a.T <= self.b + tol).all(axis=1)


def poc_injection(pv, p_ac, ul, tan_pv, tan_ac, tan_ul):
    """Net (P, Q) injection at the point of connection, export positive.

    PV availability, air-conditioner power and uncontrollable load (kW) each
    run at a fixed power factor, given by its tangent.  Broadcasts over
    scalars and arrays alike.
    """
    p = pv - p_ac - ul
    q = pv * tan_pv - p_ac * tan_ac - ul * tan_ul
    return p, q


def sample_scenarios(lo: np.ndarray, hi: np.ndarray, n: int, seed) -> np.ndarray:
    """Draw n points per household, uniform on its segment from ``hi`` to ``lo``.

    lo, hi: (H, 2) (P, Q) ends of each household's segment, equal for a
    household at a fixed point.  Returns (H, n, 2).  Each household with
    lo != hi draws n fractions of the way from hi to lo, households in
    order, so a given seed reproduces the stream exactly; points are clipped
    to the box the ends span against rounding.  The last two scenarios are
    then exactly hi and lo (the only one is lo when n is 1), so the ends are
    always sampled and the others stay i.i.d.  The result is the transpose
    of a C-contiguous (H, 2, n) array.
    """
    if n < 1:
        raise ValueError("scenario count must be >= 1")
    free = np.flatnonzero((lo != hi).any(axis=1))
    fraction = np.random.default_rng(seed).random((len(free), 1, n))
    # Filled as (H, 2, n), each axis's points contiguous, which broadcasts
    # ~3x faster; the screen reads it back through the transpose uncopied.
    axes = np.repeat(hi[:, :, None], n, axis=2)
    axes[free] = np.clip(hi[free, :, None] + fraction * (lo - hi)[free, :, None],
                         np.minimum(lo, hi)[free, :, None], np.maximum(lo, hi)[free, :, None])
    axes[..., -2:] = np.stack([hi, lo], axis=2)[..., -n:]
    return axes.transpose(0, 2, 1)


def scatter_injections(feeder: FeederModel, scenarios: np.ndarray) -> np.ndarray:
    """(n, N, 3) per-unit injections of (H, n, 2) household (P, Q) points in feeder order.

    The feeder maps at most one household to a (bus, phase) node, so one
    indexed add over the flattened nodes places every household.
    """
    n = scenarios.shape[1]
    bus, phase = feeder.household_nodes
    s_pu = np.zeros((n, feeder.n_bus, 3), dtype=complex)
    s_pu.reshape(n, -1)[:, 3 * bus + phase] += feeder.base.kw_to_pu(
        scenarios[..., 0] + 1j * scenarios[..., 1]).T
    return s_pu


def secant_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fit points of the secant model: (H, 1 + F, 2).

    lo, hi: (H, 2) segment ends; the F free households are those with
    lo != hi, in order.  Point 0 puts every household at its segment's
    midpoint; point 1 + f moves free household f alone to its ``hi`` end.
    """
    centre = (lo + hi) / 2.0
    h = np.flatnonzero((lo != hi).any(axis=1))
    points = np.repeat(centre[:, None, :], 1 + len(h), axis=1)
    points[h, 1 + np.arange(len(h))] = hi[h]
    return points


def segment_offsets(axes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(n, F) positions of scenarios along the free households' segments.

    axes: (H, 2, n) scenarios, each axis's draws contiguous; lo, hi: (H, 2)
    segment ends.  A position is the projection of the point's offset from
    its segment's midpoint onto the segment, in half-lengths: -1 at lo, 0
    at the midpoint, 1 at hi.  The secant model is linear in these, so its
    slopes are the |V| at each fit point less the |V| at the midpoints.
    """
    free = (lo != hi).any(axis=1)
    half = (hi - lo)[free] / 2.0                                      # (F, 2)
    along = half / (half * half).sum(axis=1, keepdims=True)
    centre = ((lo + hi) / 2.0)[free]
    return ((axes[free] - centre[..., None]) * along[..., None]).sum(axis=1).T


def _flow(adm, scenarios, tol, maxiter):
    v, _, _, converged = solve_batch(adm, scatter_injections(adm.feeder, scenarios),
                                     tol=tol, maxiter=maxiter)
    return v, converged


@dataclass
class SecantModel:
    """The screen's secant |V| model, carried from the step that fitted it.

    ``free`` is the (H,) mask of the households with a segment at the fit,
    ``slopes`` its (F, 3N) secant slopes and ``fit_error`` their largest |V|
    error on that step's checked scenarios.  Empty until the first fit;
    ``feasible_set`` refits it in place.
    """

    free: np.ndarray | None = None
    slopes: np.ndarray | None = None
    fit_error: float = math.nan


def _check(adm, scenarios, offsets, lo, hi, tol, maxiter, slopes=None):
    """One check batch: the secant model's largest |V| error on the checked scenarios.

    Flows the fit points and then the first ``SCREEN_CHECK`` scenarios as one
    batch.  With carried ``slopes`` the one fit point is the segments'
    midpoints; without, the fit points are ``secant_points(lo, hi)`` and the
    slopes are fitted from them.  Returns (error, base, slopes, v,
    converged): the error, the (3N,) magnitudes at the midpoints, the
    slopes, and the checked scenarios' voltages and convergence; or None
    when a fit flow does not converge.
    """
    n_fit = 1 if slopes is not None else 1 + offsets.shape[1]
    v, converged = _flow(adm, np.concatenate(
        [((lo + hi) / 2.0)[:, None] if slopes is not None else secant_points(lo, hi),
         scenarios[:, :SCREEN_CHECK]], axis=1), tol, maxiter)
    if not converged[:n_fit].all():
        return None
    mags = np.abs(v).reshape(len(v), -1)
    base = mags[0]
    if slopes is None:
        slopes = mags[1:n_fit] - base
    error = np.abs(base + offsets[:SCREEN_CHECK] @ slopes - mags[n_fit:]).max()
    # A copy: the fit points' voltages are not held through the near-edge flow.
    return error, base, slopes, v[n_fit:].copy(), converged[n_fit:]


def worst_margin(v_mag: np.ndarray, v_lo: float, v_hi: float) -> np.ndarray:
    """Each row's signed margin to the band at its worst node: (n, nodes) -> (n,).

    Equal, bit for bit, to ``np.minimum(v_mag - v_lo, v_hi - v_mag).min(1)``:
    x - c rounds monotonically in x, so the least margin is taken at the
    row's least and greatest magnitudes, and a NaN row stays NaN.  It needs
    no (n, nodes) temporaries.
    """
    return np.minimum(v_mag.min(axis=1) - v_lo, v_hi - v_mag.max(axis=1))


def _linear_screen(adm, scenarios, axes, lo, hi, v_lo, v_hi, tol, maxiter, model):
    """Verdicts by the secant model: (source, check error, its bound, screened).

    screened is (feasible_mask, flowed, diverged), or None to flow every
    scenario.  source names the model checked last: "carried" (``model``'s
    slopes, kept when they err no more than on the step that fitted them),
    "refit" (a fit after the carried slopes failed that check) or "fit" (no
    model with these free households).  A fit must err at most half
    ``SCREEN_MARGIN_PU`` and then replaces ``model``'s content.  axes: the
    scenarios as (H, 2, n); lo, hi: (H, 2) the corners of the boxes they
    span, which are the segments' ends for segments rising in P and Q, as
    a DOE household's does.  The check guards scenarios off those segments.
    """
    free = (lo != hi).any(axis=1)
    offsets = segment_offsets(axes, lo, hi)
    source, checked = "fit", None
    if model.free is not None and np.array_equal(model.free, free):
        source, bound = "carried", model.fit_error
        checked = _check(adm, scenarios, offsets, lo, hi, tol, maxiter, model.slopes)
        if checked is None or not checked[0] <= bound:
            source, checked = "refit", None   # drops the carried batch before the fit flows
    if checked is None:
        bound = SCREEN_MARGIN_PU / 2.0
        checked = _check(adm, scenarios, offsets, lo, hi, tol, maxiter)
        if checked is None:
            return source, math.nan, bound, None
        if not checked[0] <= bound:   # a NaN error falls back too
            return source, checked[0], bound, None
        model.free, model.slopes, model.fit_error = free, checked[2], checked[0]
    error, base, slopes, v, converged = checked

    # The checked scenarios were flowed; the model predicts only the rest.
    pred = offsets[SCREEN_CHECK:] @ slopes                            # (n - check, 3N)
    pred += base
    gap = worst_margin(pred, v_lo, v_hi)
    feasible_mask = np.concatenate([converged & limits_mask(v, v_lo, v_hi),
                                    gap > SCREEN_MARGIN_PU])
    diverged = int(SCREEN_CHECK - converged.sum())
    near = SCREEN_CHECK + np.flatnonzero(np.abs(gap) <= SCREEN_MARGIN_PU)
    if near.size:
        v, converged = _flow(adm, scenarios[:, near], tol, maxiter)
        feasible_mask[near] = converged & limits_mask(v, v_lo, v_hi)
        diverged += int(near.size - converged.sum())
    return source, error, bound, (feasible_mask, SCREEN_CHECK + near.size, diverged)


def feasible_set(adm: AdmittanceModel, scenarios: np.ndarray, doe, v_lo: float, v_hi: float,
                 tol: float = 1e-8, maxiter: int = 100, model: SecantModel | None = None):
    """Screen sampled scenarios against the voltage band.

    scenarios: (H, n, 2) sampled (P, Q) of every household in feeder order;
    doe: the DOE households' positions in that order.  A scenario's pairs
    count as feasible for all DOE households simultaneously when every node
    stays in the band: by the secant model's verdict far from the band edge,
    else when its three-phase load flow converges in band (see the module
    docstring).  ``model`` carries the secant model from an earlier step and
    is updated in place by a fit; without one, the model is fitted here over
    the segments the samples span.  Logs one INFO line naming where the
    verdicts came from ("fit", "carried", "refit" or "full flow"), the
    scenarios flowed and the check error against its bound (NaN when no
    check ran).  Returns ((H_doe, k, 2) feasible DOE points, feasible_mask,
    diverged), diverged counting the flowed scenarios that did not converge.
    """
    n = scenarios.shape[1]
    # Each axis's draws contiguous: reductions along the middle axis of (H, n, 2)
    # are ~30x slower.  sample_scenarios' output is laid out so and is not copied.
    axes = np.ascontiguousarray(scenarios.transpose(0, 2, 1))
    lo, hi = axes.min(axis=2), axes.max(axis=2)
    error, bound, screened = math.nan, math.nan, None
    if int((lo != hi).any(axis=1).sum()) + 1 + SCREEN_CHECK < n:
        source, error, bound, screened = _linear_screen(
            adm, scenarios, axes, lo, hi, v_lo, v_hi, tol, maxiter,
            SecantModel() if model is None else model)
    if screened is None:
        source = "full flow"
        v, converged = _flow(adm, scenarios, tol, maxiter)
        screened = converged & limits_mask(v, v_lo, v_hi), n, int(n - converged.sum())
    feasible_mask, flowed, diverged = screened
    log.info("screen verdicts from %s: %d of %d scenarios flowed, check error %.3e, bound %.3e",
             source, flowed, n, error, bound)
    if diverged:
        log.info("%d of %d flowed scenarios diverged and were discarded", diverged, flowed)

    if not feasible_mask.any():
        ids = list(adm.feeder.household_map)
        raise EnvelopeError(
            "no feasible load-flow scenario for households "
            f"{sorted(ids[h] for h in doe)}: {diverged} of {flowed} flowed diverged, "
            f"{n - diverged} violated the voltage band"
        )
    return scenarios[doe].compress(feasible_mask, axis=1), feasible_mask, diverged


# ---------------------------------------------------------------------------
# Segment hulls
# ---------------------------------------------------------------------------

# A point's rows: P and Q bounded above and below.
_POINT_ROWS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def segment_ends(points: np.ndarray) -> np.ndarray:
    """Each set's lexicographically first and last point: (H, k, 2) -> (H, 2, 2).

    The first end has the least P and, among those, the least Q; the last
    the greatest P and then the greatest Q.  Equal points resolve to the
    earliest for the first end and the latest for the last, the ones a
    stable ``np.lexsort`` puts first and last, and the ends are gathered by
    index, so they keep the sampled signs of zeros.  Points on a segment
    have the stretch between these ends as hull; points off a segment get
    no more than their lexicographic extremes.  Points must not be NaN.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[1] < 1 or pts.shape[2] != 2:
        raise ValueError(f"need (sets, k >= 1, 2) points, got shape {pts.shape}")
    p, q = pts[..., 0], pts[..., 1]
    at = p == p.min(axis=1, keepdims=True)
    first = (at & (q == np.where(at, q, np.inf).min(axis=1, keepdims=True))).argmax(axis=1)
    at = p == p.max(axis=1, keepdims=True)
    at &= q == np.where(at, q, -np.inf).max(axis=1, keepdims=True)
    last = pts.shape[1] - 1 - at[:, ::-1].argmax(axis=1)
    return pts[np.arange(len(pts))[:, None], np.stack([first, last], axis=1)]


def segment_rows(ends: np.ndarray):
    """Outward unit-normal rows (A, b) of segment hulls; A @ x <= b.

    ends: (H, 2, 2) each hull's first and last point.  A segment gets its
    line's two normals and one row per end along it; a point (ends equal)
    gets the four axis rows.  Returns (A (H, 4, 2), b (H, 4), degenerate
    (H,)), degenerate where the hull is a point.  Each b is a stacked
    (1, 2) @ (2, 1) product, which rounds as a 1-D dot of the row and its
    end does.
    """
    start, end = ends[:, 0], ends[:, 1]
    degenerate = (start == end).all(axis=1)
    d = end - start
    d /= np.where(degenerate, 1.0, np.hypot(d[:, 0], d[:, 1]))[:, None]
    n_out = np.stack([d[:, 1], -d[:, 0]], axis=1)
    a = np.stack([n_out, -n_out, d, -d], axis=1)
    b = (a[..., None, :] @ np.stack([start, start, end, start], axis=1)[..., None])[..., 0, 0]
    a[degenerate] = _POINT_ROWS
    p, q = start[degenerate].T
    b[degenerate] = np.stack([p, -p, q, -q], axis=1)
    return a, b, degenerate


def segment_envelopes(household_ids, t_index: int, points: np.ndarray,
                      sampled: int) -> dict[str, EnvelopePolytope]:
    """Envelopes of the households ``household_ids`` from their (H, k, 2) feasible points.

    Each is the hull of its household's points (``segment_ends``: one point
    when the ends coincide) and that hull's rows (``segment_rows``).
    """
    points = np.asarray(points, dtype=float)
    ends = segment_ends(points)
    a, b, degenerate = segment_rows(ends)
    feasible = points.shape[1]
    return {hid: EnvelopePolytope(hid, t_index, ends[h, :2 - point], a[h], b[h], sampled,
                                  feasible, point)
            for h, (hid, point) in enumerate(zip(household_ids, degenerate.tolist()))}


# No stage calls it; perfbench/tracing.py's PLAN resolves doesim.envelopes:convex_hull.
def convex_hull(points: np.ndarray) -> np.ndarray:
    """Hull of one household's points on a segment: ``segment_ends`` of one set.

    The lexicographically first and last point, or one point when they
    coincide.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != 2:
        raise ValueError("need at least one 2-D point")
    ends = segment_ends(pts[None])[0]
    return ends[:1] if (ends[0] == ends[1]).all() else ends


def build_envelopes(adm: AdmittanceModel, doe, lo: np.ndarray, hi: np.ndarray, t_index: int,
                    n_scenarios: int, seed, v_lo: float, v_hi: float, pf_tol: float = 1e-8,
                    pf_maxiter: int = 100,
                    model: SecantModel | None = None) -> dict[str, EnvelopePolytope]:
    """Full Stage-I pipeline for one control step.

    lo, hi: (H, 2) (P, Q) segment ends of every household in feeder order,
    at AC rating and AC off for a DOE household and equal for households at
    a fixed point; doe: the DOE households' positions in that order, which
    get envelopes, all in one ``segment_envelopes`` call.  ``model`` is the
    screen's secant model, carried across a run's steps (see
    ``feasible_set``).
    """
    scenarios = sample_scenarios(lo, hi, n_scenarios, seed)
    points, feasible_mask, _ = feasible_set(
        adm, scenarios, doe, v_lo, v_hi, tol=pf_tol, maxiter=pf_maxiter, model=model)

    ids = list(adm.feeder.household_map)
    envelopes = segment_envelopes([ids[h] for h in doe], t_index, points, n_scenarios)
    degenerate = sum(env.degenerate for env in envelopes.values())
    if degenerate:
        log.warning("step %d: %d of %d envelopes degenerate, %d of %d scenarios feasible",
                    t_index, degenerate, len(envelopes), int(feasible_mask.sum()), n_scenarios)
    return envelopes
