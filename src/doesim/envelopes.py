"""Per-household operating envelopes in the P-Q plane.

The network side of the scheme: each household's reachable injection range is an
axis-aligned box spanned by its controllable air-conditioner under fixed
power factors, given per step as (household, 2) lower and upper (P, Q)
corners in feeder order.  Uniform samples from all boxes are screened
against the statutory voltage band, and the convex hull of each DOE
household's surviving samples, in half-space form, is the envelope handed to
its local controller.

The screen needs one verdict per scenario, in band or not.  A secant model
of every node's |V|, linear in the households' sampled (P, Q), settles the
scenarios far from the band edge.  A fit flows one load-flow batch: the
sample boxes' centres, one point per free axis, and the first
``SCREEN_CHECK`` scenarios, which measure the model's error.  The fitted
slopes (a ``SecantModel``) are carried to the next steps with the same free
axes, where they cost one batch of the new box centres and the checked
scenarios; they stay while their error there is at most the error they had
on the step that fitted them, and are refitted otherwise.  A scenario whose
predicted margin to both band edges exceeds ``SCREEN_MARGIN_PU`` takes the
model's verdict; the rest get the full three-phase load flow.  Every
scenario gets the full flow instead when a fit errs by more than half that
margin on the checked scenarios, when a fit flow does not converge, or when
there are too few scenarios for a fit to pay for itself.
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
# A hull-prefilter point is dropped only when it is inside every octagon edge
# by more than this times the squared largest coordinate magnitude of its set.
OCTAGON_MARGIN = 1e-9


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

    Vertices are counter-clockwise (kW, kvar) pairs; rows of A have unit
    Euclidean norm and A @ x <= b within tolerance for every vertex and
    every feasible sampled point.
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
    """Draw n uniform (P, Q) pairs per household box; degenerate axes stay at ``lo``.

    lo, hi: (H, 2) lower and upper box corners.  Returns (H, n, 2).  The
    draws run over households in order, P then Q, n per axis, so a given
    seed reproduces the stream exactly.
    """
    if n < 1:
        raise ValueError("scenario count must be >= 1")
    free = lo != hi                                                   # (H, 2)
    draws = np.random.default_rng(seed).uniform(lo[free][:, None], hi[free][:, None],
                                                (int(free.sum()), n))
    out = np.repeat(lo[:, None, :], n, axis=1)
    out.transpose(0, 2, 1)[free] = draws
    return out


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

    lo, hi: (H, 2) box corners; the F free axes are the pairs with lo != hi,
    households in order, P then Q.  Point 0 puts every household at its box
    centre; point 1 + f moves free axis f alone to its upper corner.
    """
    centre = (lo + hi) / 2.0
    h, axis = np.nonzero(lo != hi)
    points = np.repeat(centre[:, None, :], 1 + len(h), axis=1)
    points[h, 1 + np.arange(len(h)), axis] = hi[h, axis]
    return points


def secant_model(v_mag: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (F, 3N) secant slopes of every node's |V| from the magnitudes at its fit points.

    v_mag: (1 + F, N, 3) |V| at ``secant_points(lo, hi)``.  |V| at free-axis
    values x is about base + (x - centre) @ slopes, with base the (3N,)
    magnitudes at the boxes' centre and centre the (F,) free axes' values
    there.
    """
    free = lo != hi
    centre = ((lo + hi) / 2.0)[free]
    base = v_mag[0].ravel()
    return (v_mag[1:].reshape(len(centre), base.size) - base) / (hi[free] - centre)[:, None]


def _flow(feeder, adm, scenarios, tol, maxiter):
    v, _, _, converged = solve_batch(adm, scatter_injections(feeder, scenarios),
                                     tol=tol, maxiter=maxiter)
    return v, converged


@dataclass
class SecantModel:
    """The screen's secant |V| model, carried from the step that fitted it.

    ``free`` is the (H, 2) free-axis mask of the fit, ``slopes`` its (F, 3N)
    secant slopes and ``fit_error`` their largest |V| error on that step's
    checked scenarios.  Empty until the first fit; ``feasible_set`` refits
    it in place.
    """

    free: np.ndarray | None = None
    slopes: np.ndarray | None = None
    fit_error: float = math.nan


def _predict(feeder, adm, scenarios, axes, lo, hi, tol, maxiter, slopes=None):
    """One check batch and the secant model's |V| prediction of every scenario.

    Flows the fit points and then the first ``SCREEN_CHECK`` scenarios as one
    batch.  With carried ``slopes`` the one fit point is the boxes' centre;
    without, the fit points are ``secant_points(lo, hi)`` and the slopes are
    fitted from them.  Returns (error, pred, slopes, v, converged): the
    largest |V| error on the checked scenarios, the (n, 3N) prediction, the
    slopes, and the checked scenarios' voltages and convergence; or None
    when a fit flow does not converge.
    """
    free = lo != hi
    centre = (lo + hi) / 2.0
    n_fit = 1 if slopes is not None else 1 + int(free.sum())
    v, converged = _flow(feeder, adm, np.concatenate(
        [centre[:, None] if slopes is not None else secant_points(lo, hi),
         scenarios[:, :SCREEN_CHECK]], axis=1), tol, maxiter)
    if not converged[:n_fit].all():
        return None
    mags = np.abs(v)
    if slopes is None:
        slopes = secant_model(mags[:n_fit], lo, hi)
    pred = mags[0].ravel() + (axes[free].T - centre[free]) @ slopes     # (n, 3N)
    error = np.abs(pred[:SCREEN_CHECK] - mags[n_fit:].reshape(SCREEN_CHECK, -1)).max()
    # A copy: the fit points' voltages are not held through the near-edge flow.
    return error, pred, slopes, v[n_fit:].copy(), converged[n_fit:]


def _linear_screen(feeder, adm, scenarios, axes, lo, hi, v_lo, v_hi, tol, maxiter, model):
    """Verdicts by the secant model: (source, check error, its bound, screened).

    screened is (feasible_mask, flowed, diverged), or None to flow every
    scenario.  source names the model checked last: "carried" (``model``'s
    slopes, kept when they err no more than on the step that fitted them),
    "refit" (a fit after the carried slopes failed that check) or "fit" (no
    model with these free axes).  A fit must err at most half
    ``SCREEN_MARGIN_PU`` and then replaces ``model``'s content.  axes: the
    scenarios as (H, 2, n); lo, hi: (H, 2) the boxes they span.
    """
    free = lo != hi
    source, checked = "fit", None
    if model.free is not None and np.array_equal(model.free, free):
        source, bound = "carried", model.fit_error
        checked = _predict(feeder, adm, scenarios, axes, lo, hi, tol, maxiter, model.slopes)
        if checked is None or not checked[0] <= bound:
            source, checked = "refit", None   # drops the carried batch before the fit flows
    if checked is None:
        bound = SCREEN_MARGIN_PU / 2.0
        checked = _predict(feeder, adm, scenarios, axes, lo, hi, tol, maxiter)
        if checked is None:
            return source, math.nan, bound, None
        if not checked[0] <= bound:   # a NaN error falls back too
            return source, checked[0], bound, None
        model.free, model.slopes, model.fit_error = free, checked[2], checked[0]
    error, pred, _, v, converged = checked

    gap = np.minimum(pred - v_lo, v_hi - pred).min(axis=1)   # worst node's signed margin
    feasible_mask = gap > SCREEN_MARGIN_PU
    feasible_mask[:SCREEN_CHECK] = converged & limits_mask(v, v_lo, v_hi)
    diverged = int(SCREEN_CHECK - converged.sum())
    near = SCREEN_CHECK + np.flatnonzero(np.abs(gap[SCREEN_CHECK:]) <= SCREEN_MARGIN_PU)
    if near.size:
        v, converged = _flow(feeder, adm, scenarios[:, near], tol, maxiter)
        feasible_mask[near] = converged & limits_mask(v, v_lo, v_hi)
        diverged += int(near.size - converged.sum())
    return source, error, bound, (feasible_mask, SCREEN_CHECK + near.size, diverged)


def feasible_set(feeder: FeederModel, adm: AdmittanceModel, scenarios: np.ndarray,
                 doe, v_lo: float, v_hi: float, tol: float = 1e-8, maxiter: int = 100,
                 model: SecantModel | None = None):
    """Screen sampled scenarios against the voltage band.

    scenarios: (H, n, 2) sampled (P, Q) of every household in feeder order;
    doe: the DOE households' positions in that order.  A scenario's pairs
    count as feasible for all DOE households simultaneously when every node
    stays in the band: by the secant model's verdict far from the band edge,
    else when its three-phase load flow converges in band (see the module
    docstring).  ``model`` carries the secant model from an earlier step and
    is updated in place by a fit; without one, the model is fitted here over
    the boxes the samples span.  Logs one INFO line naming where the
    verdicts came from ("fit", "carried", "refit" or "full flow"), the
    scenarios flowed and the check error against its bound (NaN when no
    check ran).  Returns ((H_doe, k, 2) feasible DOE points, feasible_mask,
    diverged), diverged counting the flowed scenarios that did not converge.
    """
    n = scenarios.shape[1]
    # Each axis's draws contiguous: reductions along the middle axis of (H, n, 2) are ~30x slower.
    axes = np.ascontiguousarray(scenarios.transpose(0, 2, 1))
    lo, hi = axes.min(axis=2), axes.max(axis=2)
    error, bound, screened = math.nan, math.nan, None
    if int((lo != hi).sum()) + 1 + SCREEN_CHECK < n:
        source, error, bound, screened = _linear_screen(
            feeder, adm, scenarios, axes, lo, hi, v_lo, v_hi, tol, maxiter,
            SecantModel() if model is None else model)
    if screened is None:
        source = "full flow"
        v, converged = _flow(feeder, adm, scenarios, tol, maxiter)
        screened = converged & limits_mask(v, v_lo, v_hi), n, int(n - converged.sum())
    feasible_mask, flowed, diverged = screened
    log.info("screen verdicts from %s: %d of %d scenarios flowed, check error %.3e, bound %.3e",
             source, flowed, n, error, bound)
    if diverged:
        log.info("%d of %d flowed scenarios diverged and were discarded", diverged, flowed)

    if not feasible_mask.any():
        ids = list(feeder.household_map)
        raise EnvelopeError(
            "no feasible load-flow scenario for households "
            f"{sorted(ids[h] for h in doe)}: {diverged} of {flowed} flowed diverged, "
            f"{n - diverged} violated the voltage band"
        )
    return scenarios[doe].compress(feasible_mask, axis=1), feasible_mask, diverged


# ---------------------------------------------------------------------------
# Planar hull geometry
# ---------------------------------------------------------------------------

def _chain(points) -> list:
    """One monotone chain over sorted (x, y) tuples: each turn strictly left."""
    chain = []
    for p in points:
        px, py = p
        while len(chain) > 1:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull: minimal CCW vertex list, collinear points dropped."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1 or pts.shape[1] != 2:
        raise ValueError("need at least one 2-D point")
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) <= 2:
        return np.array(uniq)
    return np.array(_chain(uniq)[:-1] + _chain(reversed(uniq))[:-1])


def halfspace_rep(hull: np.ndarray):
    """Outward unit-normal rows (A, b) for a CCW hull; A @ x <= b.

    Point and segment hulls get axis-aligned (point) or edge-parallel plus
    endpoint (segment) inequalities and a degeneracy flag.
    Returns (A, b, degenerate).
    """
    return halfspace_reps([np.atleast_2d(np.asarray(hull, dtype=float))])[0]


def halfspace_reps(hulls) -> list:
    """``halfspace_rep`` of every (k, 2) float CCW hull in ``hulls``, in order.

    The edge rows of all hulls with 3 or more vertices come from one pass
    over their vertices laid end to end, each vertex paired with the next
    vertex of its own hull; point and segment hulls are handled one by one.
    """
    reps = [_degenerate_rep(h) if len(h) < 3 else None for h in hulls]
    polygons = [h for h in hulls if len(h) >= 3]
    if not polygons:
        return reps
    v = np.concatenate(polygons)
    sizes = [len(h) for h in polygons]
    ends = np.cumsum(sizes)
    nxt = np.arange(1, len(v) + 1)
    nxt[ends - 1] = ends - sizes  # each hull's last vertex wraps to its first
    d = v[nxt] - v
    norm = np.hypot(d[:, 0], d[:, 1])
    n_out = np.column_stack([d[:, 1], -d[:, 0]]) / norm[:, None]  # right of travel = outward for CCW
    # A stack of (1, 2) @ (2, 1) products rounds like each edge's own n_out @ v0.
    b = (n_out[:, None, :] @ v[:, :, None])[:, 0, 0]
    rows = zip(np.split(n_out, ends[:-1]), np.split(b, ends[:-1]))
    return [rep if rep is not None else (*next(rows), False) for rep in reps]


def _degenerate_rep(hull: np.ndarray):
    """(A, b, True) of a point or segment hull."""
    if len(hull) == 1:
        p, q = hull[0]
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([p, -p, q, -q])
        return a, b, True
    d = hull[1] - hull[0]
    norm = np.hypot(*d)
    d = d / norm
    n_out = np.array([d[1], -d[0]])
    a = np.vstack([n_out, -n_out, d, -d])
    b = np.array([
        n_out @ hull[0],
        -n_out @ hull[0],
        d @ hull[1],
        -d @ hull[0],
    ])
    return a, b, True


# Extreme directions of the Akl-Toussaint octagon, counter-clockwise from -y.
_OCTAGON_DIRECTIONS = np.array([[0.0, -1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 1.0],
                                [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]])


def hull_candidates(points: np.ndarray) -> np.ndarray:
    """Akl-Toussaint prefilter: False for points that cannot be hull vertices.

    points: (H, n, 2), one point set per row.  The extreme points along +-x,
    +-y, +-(x+y) and +-(x-y) span an octagon inside the set's hull; a point
    strictly inside it is strictly inside the hull (Akl & Toussaint, IPL
    1978).  Sets whose octagon has fewer than 3 distinct corners keep every
    point.  Returns an (H, n) boolean mask of the points to pass on.
    """
    xy = np.ascontiguousarray(np.swapaxes(np.asarray(points, dtype=float), 1, 2))
    x, y = xy[:, 0], xy[:, 1]                                         # (H, n), rows contiguous
    idx = (_OCTAGON_DIRECTIONS @ xy).argmax(axis=2)                   # (H, 8)
    cx, cy = np.take_along_axis(x, idx, axis=1), np.take_along_axis(y, idx, axis=1)
    ex, ey = np.roll(cx, -1, axis=1) - cx, np.roll(cy, -1, axis=1) - cy
    largest = np.maximum(np.abs(x).max(axis=1), np.abs(y).max(axis=1))
    margin = (OCTAGON_MARGIN * largest ** 2)[:, None]
    proper = (ex != 0.0) | (ey != 0.0)                                # (H, 8)
    inside = np.ones(x.shape, dtype=bool)
    for i in range(8):
        # cross(corner_i, corner_i+1, point) over every point of every set
        cross = ex[:, i, None] * (y - cy[:, i, None]) - ey[:, i, None] * (x - cx[:, i, None])
        inside &= (cross > margin) | ~proper[:, i, None]
    inside[proper.sum(axis=1) < 3] = False
    return ~inside


def envelope_from_points(household_id: str, t_index: int, points: np.ndarray,
                         sampled: int) -> EnvelopePolytope:
    """Envelope over one household's feasible points.

    The same prefilter, hull and half-space rows that ``build_envelopes``
    runs over a step's households at once.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    hull = convex_hull(points[hull_candidates(points[None])[0]])
    a, b, degenerate = halfspace_rep(hull)
    return EnvelopePolytope(
        household_id=household_id,
        t_index=t_index,
        vertices=hull,
        a=a,
        b=b,
        sampled=sampled,
        feasible=points.shape[0],
        degenerate=degenerate,
    )


def build_envelopes(feeder: FeederModel, adm: AdmittanceModel, doe, lo: np.ndarray,
                    hi: np.ndarray, t_index: int, n_scenarios: int, seed,
                    v_lo: float, v_hi: float, pf_tol: float = 1e-8, pf_maxiter: int = 100,
                    model: SecantModel | None = None) -> dict[str, EnvelopePolytope]:
    """Full Stage-I pipeline for one control step.

    lo, hi: (H, 2) lower and upper (P, Q) corners of every household in
    feeder order, equal for households at a fixed point; doe: the DOE
    households' positions in that order, which get envelopes.  ``model``
    is the screen's secant model, carried across a run's steps (see
    ``feasible_set``).
    """
    scenarios = sample_scenarios(lo, hi, n_scenarios, seed)
    points, feasible_mask, _ = feasible_set(
        feeder, adm, scenarios, doe, v_lo, v_hi, tol=pf_tol, maxiter=pf_maxiter, model=model)

    ids = list(feeder.household_map)
    hulls = [convex_hull(pts[keep]) for pts, keep in zip(points, hull_candidates(points))]
    envelopes = {
        ids[h]: EnvelopePolytope(ids[h], t_index, hull, a, b, n_scenarios, points.shape[1],
                                 degenerate)
        for h, hull, (a, b, degenerate) in zip(doe, hulls, halfspace_reps(hulls))
    }
    degenerate = sum(env.degenerate for env in envelopes.values())
    if degenerate:
        log.warning("step %d: %d of %d envelopes degenerate, %d of %d scenarios feasible",
                    t_index, degenerate, len(envelopes), int(feasible_mask.sum()), n_scenarios)
    return envelopes
