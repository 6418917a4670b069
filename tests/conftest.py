"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's own algorithms: the hull
oracle is the O(n^3) pairwise half-plane construction, the segment hull and
its rows are taken one household at a time by ``np.lexsort`` and 1-D dots,
the two-bus voltage oracle bisects the scalar power-balance equation, and
the minimiser oracles are grid or golden-section searches.
"""

import math
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from doesim import (
    BaseValues,
    Roster,
    StaticInjection,
    ThermalParams,
    apply_static_limits,
    build_feeder,
    load_feeder,
)
from doesim.envelopes import EnvelopePolytope, pf_tangent

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def configs_dir():
    return CONFIG_DIR


@pytest.fixture(scope="session")
def feeder2():
    return load_feeder(CONFIG_DIR / "feeder2.cfg")


@pytest.fixture(scope="session")
def feeder34():
    return load_feeder(CONFIG_DIR / "feeder34.cfg")


def make_pu_feeder(z_pu_scalar: complex, n_bus: int = 2):
    """Chain feeder whose per-phase decoupled impedance is z_pu_scalar (pu).

    Diagonal impedance blocks keep the phases independent, so balanced
    injections reproduce the single-phase-equivalent scalar problem.
    """
    base = BaseValues()
    z_ohm = np.eye(3, dtype=complex) * z_pu_scalar * base.impedance_ohm
    buses = [f"b{i}" for i in range(1, n_bus + 1)]
    lines = [(buses[i], buses[i + 1], z_ohm) for i in range(n_bus - 1)]
    households = {f"h{i}{ph}": (buses[i], ph) for i in range(1, n_bus) for ph in range(3)}
    return build_feeder({
        "buses": buses,
        "slack": buses[0],
        "lines": lines,
        "households": households,
    })


@pytest.fixture()
def pu_feeder2():
    return make_pu_feeder(0.05 + 0.05j)


def doe_thermal(dt_h=1.0 / 12.0):
    return ThermalParams(r_c_per_kw=2.0, c_kwh_per_c=2.0, cop=2.5, dt_h=dt_h)


def household(id, doe, pv_kw_rating, pf_pv, pf_ul, ac_kw_rating=0.0, pf_ac=1.0, thermal=None,
              comfort_lo_c=22.0, comfort_hi_c=24.0, import_limit_kw=10.0, export_limit_kw=5.0):
    """One household's values, read by attribute; ``household_table`` makes a table of them."""
    return SimpleNamespace(**locals())


def household_table(*households) -> Roster:
    """The household table of ``household`` values, one row each in the given order."""
    doe = np.array([h.doe for h in households], dtype=bool)

    def column(value):
        return np.array([value(h) for h in households], dtype=float)

    def doe_column(value):
        return column(lambda h: value(h) if h.doe else math.nan)

    return Roster(
        ids=[h.id for h in households], doe=doe,
        pv_kw_rating=column(lambda h: h.pv_kw_rating),
        tan_pv=column(lambda h: pf_tangent(h.pf_pv)),
        tan_ac=column(lambda h: pf_tangent(h.pf_ac)),
        tan_ul=column(lambda h: pf_tangent(h.pf_ul)),
        ac_kw_rating=column(lambda h: h.ac_kw_rating),
        comfort_lo=doe_column(lambda h: h.comfort_lo_c),
        comfort_hi=doe_column(lambda h: h.comfort_hi_c),
        decay=doe_column(lambda h: h.thermal.decay),
        gain=doe_column(lambda h: h.thermal.gain),
        import_limit_kw=column(lambda h: h.import_limit_kw),
        export_limit_kw=column(lambda h: h.export_limit_kw),
    )


@pytest.fixture()
def doe_spec():
    """The worked DOE example: 2 kW AC at pf 0.95, PV pf 0.8, UL pf 0.95."""
    return household("h1", True, pv_kw_rating=3.0, pf_pv=0.8, pf_ul=0.95,
                     ac_kw_rating=2.0, pf_ac=0.95, thermal=doe_thermal())


@pytest.fixture()
def passive_spec():
    return household("hp", False, pv_kw_rating=0.0, pf_pv=0.95, pf_ul=0.95)


@pytest.fixture()
def nondoe_spec():
    return household("hn", False, pv_kw_rating=4.0, pf_pv=0.8, pf_ul=0.95)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def static_rule(spec, pv_kw: float, ul_kw: float) -> StaticInjection:
    """The static rule for one household at one instant, each field a float.

    spec: ``household`` values or a one-row household table.
    """
    table = spec if isinstance(spec, Roster) else household_table(spec)
    st = apply_static_limits(table, np.array([pv_kw]), np.array([ul_kw]))
    return StaticInjection(*(float(x[0]) for x in astuple(st)))


def bisect_two_bus_voltage(z_pu: complex, s_pu: complex, v1: float = 1.0) -> float:
    """|V2| from the scalar power balance |u - z conj(s)|^2 = u |V1|^2, u = |V2|^2.

    Scans for the high-voltage root and bisects it to machine precision.
    """
    def f(u):
        return abs(u - z_pu * s_pu.conjugate()) ** 2 - u * v1 ** 2

    us = np.linspace(1e-9, 2.0, 400001)
    vals = np.abs(us - z_pu * s_pu.conjugate()) ** 2 - us * v1 ** 2
    flips = np.where(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert len(flips) >= 1, "no power-flow solution bracket found"
    a, b = us[flips[-1]], us[flips[-1] + 1]
    for _ in range(200):
        m = 0.5 * (a + b)
        if math.copysign(1.0, f(m)) == math.copysign(1.0, f(a)):
            a = m
        else:
            b = m
    return math.sqrt(0.5 * (a + b))


def reference_tree(feeder):
    """(order, parent) of a radial feeder, from two separate passes.

    The first pass walks the lines from the slack to find each bus's parent,
    rejecting a line that reaches a bus twice; the second walks down from
    the slack again over each bus's children, listed in bus-index order, to
    put every non-slack bus after its parent.
    """
    adjacency = {b: [] for b in feeder.buses}
    for k, ln in enumerate(feeder.lines):
        adjacency[ln.from_bus].append((ln.to_bus, k))
        adjacency[ln.to_bus].append((ln.from_bus, k))
    parent_bus = {feeder.slack_bus: None}
    stack, used = [feeder.slack_bus], set()
    while stack:
        bus = stack.pop()
        for nxt, k in adjacency[bus]:
            if k in used:
                continue
            assert nxt not in parent_bus, "a line closes a loop"
            used.add(k)
            parent_bus[nxt] = bus
            stack.append(nxt)
    assert len(parent_bus) == feeder.n_bus, "the feeder is disconnected"

    n = feeder.n_bus
    parent = np.full(n, -1, dtype=int)
    for bus, up in parent_bus.items():
        if up is not None:
            parent[feeder.bus_index[bus]] = feeder.bus_index[up]
    children = {i: [] for i in range(n)}
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    order = []
    stack = [feeder.bus_index[feeder.slack_bus]]
    while stack:
        b = stack.pop()
        if parent[b] >= 0:
            order.append(b)
        stack.extend(reversed(children[b]))
    return np.array(order, dtype=int), parent


def tree_feeder(n_bus, seed):
    """A random radial feeder of ``n_bus`` buses, each fed from an earlier one."""
    rng = np.random.default_rng(seed)
    z = np.full((3, 3), 0.01 + 0.03j, dtype=complex)
    np.fill_diagonal(z, 0.06 + 0.05j)
    buses = [f"b{k}" for k in range(n_bus)]
    lines = [(buses[rng.integers(k)], buses[k], z * rng.uniform(0.2, 1.0)) for k in range(1, n_bus)]
    return build_feeder({"buses": buses, "slack": "b0", "lines": lines, "households": {}})


def brute_hull(points) -> np.ndarray:
    """O(n^3) hull: an ordered pair is an edge iff all points lie weakly left.

    Returns CCW vertices starting from the lexicographically smallest; assumes
    points in general position (no three distinct collinear), which random
    float draws satisfy.
    """
    uniq = sorted({(float(p[0]), float(p[1])) for p in np.atleast_2d(points)})
    if len(uniq) <= 2:
        return np.array(uniq)
    edges = {}
    for a in uniq:
        for b in uniq:
            if a == b:
                continue
            if all(
                (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0.0
                for p in uniq
            ):
                edges[a] = b
    start = min(edges)
    out = [start]
    cur = edges[start]
    guard = 0
    while cur != start:
        out.append(cur)
        cur = edges[cur]
        guard += 1
        assert guard <= len(uniq), "brute hull walk did not close"
    return np.array(out)


def lexsort_ends(points) -> np.ndarray:
    """One set's first and last point in a stable lexicographic sort of (P, Q): (2, 2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return pts[np.lexsort(pts.T[::-1])[[0, -1]]]


def lexsort_hull(points) -> np.ndarray:
    """The segment hull one household at a time: lexsort_ends, one point when they are equal."""
    ends = lexsort_ends(points)
    return ends[:1] if (ends[0] == ends[1]).all() else ends


def dot_halfspace_rep(hull):
    """A point or segment hull's rows (A, b, degenerate), each b a 1-D dot.

    A point gets the four axis rows; a segment its line's two unit normals
    and one row per end along it.
    """
    hull = np.atleast_2d(np.asarray(hull, dtype=float))
    if len(hull) == 1:
        p, q = hull[0]
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        return a, np.array([p, -p, q, -q]), True
    d = hull[1] - hull[0]
    d = d / np.hypot(*d)
    n_out = np.array([d[1], -d[0]])
    a = np.vstack([n_out, -n_out, d, -d])
    b = np.array([n_out @ hull[0], -n_out @ hull[0], d @ hull[1], -d @ hull[0]])
    return a, b, False


def reference_envelope(household_id, t_index, points, sampled) -> EnvelopePolytope:
    """One household's envelope from lexsort_hull and dot_halfspace_rep."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    hull = lexsort_hull(points)
    a, b, degenerate = dot_halfspace_rep(hull)
    return EnvelopePolytope(household_id, t_index, hull, a, b, sampled, points.shape[0],
                            degenerate)


def point_in_hull_oracle(hull: np.ndarray, pt, tol: float = 1e-12) -> bool:
    """Membership via cross products against every CCW hull edge."""
    hull = np.atleast_2d(hull)
    k = hull.shape[0]
    if k == 1:
        return bool(np.allclose(hull[0], pt, atol=tol))
    if k == 2:
        a, b = hull
        d = b - a
        cross = d[0] * (pt[1] - a[1]) - d[1] * (pt[0] - a[0])
        if abs(cross) > tol * max(1.0, np.hypot(*d)):
            return False
        t = np.dot(np.asarray(pt) - a, d) / np.dot(d, d)
        return -tol <= t <= 1.0 + tol
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        cross = (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
        if cross < -tol:
            return False
    return True


def golden_section(fun, lo: float, hi: float, iters: int = 300) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    for _ in range(iters):
        c1 = b - ratio * (b - a)
        c2 = a + ratio * (b - a)
        if fun(c1) < fun(c2):
            b = c2
        else:
            a = c1
    return 0.5 * (a + b)


def grid_minimize(fun, lo: float, hi: float, step: float = 1e-5) -> float:
    grid = np.arange(lo, hi + step / 2.0, step)
    return float(grid[np.argmin([fun(x) for x in grid])])


def refine_product_minimize(fun_batch, boxes, levels=6, points=12):
    """Exhaustive grid over a product of intervals, refined to ~1e-5.

    ``fun_batch`` maps an (m, n) array of candidate points to (m,) objective
    values.  Each level zooms the full joint grid into the best cell; with
    12 points per axis and 6 levels the final resolution is below 1e-5 of
    the original interval width for 2-4 dimensions.
    """
    boxes = [tuple(b) for b in boxes]
    best_x = None
    for _ in range(levels):
        axes = [np.linspace(lo, hi, points) for lo, hi in boxes]
        mesh = np.meshgrid(*axes, indexing="ij")
        candidates = np.stack([m.reshape(-1) for m in mesh], axis=1)
        vals = fun_batch(candidates)
        best_x = candidates[np.argmin(vals)]
        new_boxes = []
        for d, (lo, hi) in enumerate(boxes):
            half = (hi - lo) / (points - 1)
            new_boxes.append((max(lo, best_x[d] - half), min(hi, best_x[d] + half)))
        boxes = new_boxes
    return best_x


def scalar_feasible_interval(spec, pv, ul, envelope, t_in, t_out, constant_row_tol=1e-9):
    """The per-household AC power interval, one household and one row at a time.

    Returns (lo, hi, empty, source).  This is the scalar loop the package
    once ran, with its thermal arithmetic written out, kept as the reference
    for the vectorised ``feasible_intervals``.
    """
    th = spec.thermal
    a = math.exp(-th.dt_h / (th.r_c_per_kw * th.c_kwh_per_c))
    gain = th.cop * th.r_c_per_kw
    p_rated = spec.ac_kw_rating

    def power_for(target):
        return (t_out - (target - a * t_in) / (1.0 - a)) / gain

    lo = max(0.0, power_for(spec.comfort_hi_c))
    hi = min(p_rated, power_for(spec.comfort_lo_c))
    if lo > hi:
        t_off = a * t_in + (1.0 - a) * (t_out - gain * 0.0)
        p_star = 0.0 if t_off < spec.comfort_lo_c else p_rated
        return p_star, p_star, True, "comfort"
    if envelope is None:
        return lo, hi, False, ""

    tan_pv, tan_ac, tan_ul = (math.tan(math.acos(pf)) for pf in (spec.pf_pv, spec.pf_ac, spec.pf_ul))
    p0 = pv - 0.0 - ul
    q0 = pv * tan_pv - 0.0 * tan_ac - ul * tan_ul
    coef = -(envelope.a[:, 0] + envelope.a[:, 1] * tan_ac)
    rhs = envelope.b - (envelope.a[:, 0] * p0 + envelope.a[:, 1] * q0)
    env_lo, env_hi = lo, hi
    dropped = 0
    for c, r in zip(coef, rhs):
        if abs(c) < 1e-12:
            if r < -constant_row_tol:
                dropped += 1
            continue
        bound = r / c
        if c > 0.0:
            env_hi = min(env_hi, bound)
        else:
            env_lo = max(env_lo, bound)
    if dropped or env_lo > env_hi:
        return lo, hi, False, "envelope"
    return env_lo, env_hi, False, ""


def dict_sample_scenarios(segments, n, seed):
    """The sampler one household at a time, kept as the reference.

    segments: {household: ((p_lo, q_lo), (p_hi, q_hi))}.  Returns {household:
    (n, 2) points}.  A household with distinct ends draws n fractions of the
    way from its hi end to its lo end, in dict order; its points are clipped
    to the box of its ends, and its last two points are hi and lo.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for hid, (lo, hi) in segments.items():
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        pts = np.tile(hi, (n, 1))
        if (lo != hi).any():
            pts = pts + rng.random(n)[:, None] * (lo - hi)
        pts = np.clip(pts, np.minimum(lo, hi), np.maximum(lo, hi))
        pts[-2:] = np.stack([hi, lo])[-n:]
        out[hid] = pts
    return out


def polygon_envelope(household_id, points) -> EnvelopePolytope:
    """An envelope over the convex hull of any P-Q points, as an envelope file may hold.

    brute_hull's counter-clockwise vertices and one outward unit row per
    edge; one or two distinct points take dot_halfspace_rep's rows.
    """
    hull = brute_hull(points)
    if len(hull) < 3:
        a, b, degenerate = dot_halfspace_rep(hull)
    else:
        d = np.roll(hull, -1, axis=0) - hull
        a = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
        b, degenerate = (a * hull).sum(axis=1), False
    return EnvelopePolytope(household_id, 0, hull, a, b, len(points), len(points), degenerate)


def scatter_per_household(feeder, scenarios):
    """(n, N, 3) per-unit injections, one household's (bus, phase) node at a time."""
    n = len(next(iter(scenarios.values())))
    s_pu = np.zeros((n, feeder.n_bus, 3), dtype=complex)
    for hid, pts in scenarios.items():
        bus, phase = feeder.household_map[hid]
        s_pu[:, feeder.bus_index[bus], phase] += feeder.base.kw_to_pu(pts[:, 0] + 1j * pts[:, 1])
    return s_pu


def full_product_verdicts(rest, base, slopes, v_lo, v_hi, margin):
    """The secant model's verdicts from its prediction at every node, kept as the reference.

    rest: (n, F) scenario offsets; base: (3N,); slopes: (F, 3N).  Returns
    (feasible, near): where the worst node's predicted margin exceeds
    ``margin``, and the positions where its magnitude is at most ``margin``.
    """
    pred = rest @ slopes
    pred += base
    gap = np.minimum(pred - v_lo, v_hi - pred).min(axis=1)
    return gap > margin, np.flatnonzero(np.abs(gap) <= margin)
