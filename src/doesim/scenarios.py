"""Exogenous time series, household synthesis, static-limit rules and result files.

Everything stochastic in this module is a pure function of (config, seed):
household parameter draws, profile noise and the reference-signal shape all
derive from one root seed through fixed-order streams, so runs repeat
byte-for-byte.  Households are one table (``Roster``) in feeder order, and
the per-household signals pv and ul are one (time, household) profile each
with columns in that order.  File formats are delimited text with frozen
column orders; floats are written with ``repr`` for exact round-trips.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .controller import AdmmConfig
from .envelopes import EnvelopePolytope, Roster, pf_tangent
from .errors import ConfigError, ProfileError
from .feeder import FeederModel, _kv, _read_sections
from .thermal import ThermalParams, step_temperature, thermostat_power

SIGNAL_KINDS = ("pv", "ul", "price", "t_out", "p_ref")


@dataclass
class TimeSeriesProfile:
    """Uniformly sampled exogenous signal: (time,) values, or (time, household) for pv and ul."""

    kind: str
    start_s: int
    step_s: int
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ProfileError(f"unknown signal kind '{self.kind}'")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.size == 0:
            raise ProfileError(f"{self.kind}: values must be a non-empty vector or table")
        if not np.isfinite(self.values).all():
            raise ProfileError(f"{self.kind}: values must be finite")
        if self.step_s <= 0:
            raise ProfileError(f"{self.kind}: step must be positive")
        if self.kind in ("pv", "ul") and (self.values < 0.0).any():
            raise ProfileError(f"{self.kind}: values must be non-negative")

    @property
    def end_s(self) -> int:
        return self.start_s + self.step_s * len(self.values)

    def covers(self, t_lo: int, t_hi: int) -> bool:
        return self.start_s <= t_lo and t_hi <= self.end_s

    def value_at(self, t_s):
        """Sample-and-hold lookup: one row per time, a float at one time of a 1-D signal."""
        t = np.asarray(t_s)
        outside = t[(t < self.start_s) | (t >= self.end_s)]
        if outside.size:
            raise ProfileError(
                f"{self.kind}: t={outside[0]}s outside coverage [{self.start_s}, {self.end_s})")
        values = self.values[(t - self.start_s) // self.step_s]
        return float(values) if values.ndim == 0 else values


@dataclass
class ProfileSet:
    """The study's signals; pv and ul hold one column per household, in ``ids`` order."""

    ids: list[str]
    pv: TimeSeriesProfile
    ul: TimeSeriesProfile
    price: TimeSeriesProfile
    t_out: TimeSeriesProfile


@dataclass
class HouseholdSynthesis:
    """Ranges for the seeded household-parameter generator."""

    n_doe: int = 30
    n_nondoe: int = 16
    n_passive: int = 56
    pv_ratings_kw: tuple = (3.0, 3.6, 4.0, 5.0, 6.0, 8.0)
    ac_rating_range_kw: tuple = (2.5, 3.5)
    r_range: tuple = (1.5, 2.5)
    c_range: tuple = (1.5, 2.5)
    cop: float = 2.5
    pf_ac: float = 0.95
    pf_pv: float = 0.8
    pf_ul: float = 0.95
    comfort_c: tuple = (22.0, 24.0)
    import_limit_kw: float = 10.0
    export_limit_kw: float = 5.0
    t_initial_c: float = 23.0

    def __post_init__(self):
        """Reject values synthesis would fail on later or read another way.

        Messages name the study file's ``[households]`` keys.
        """
        ac, r, c, comfort = self.ac_rating_range_kw, self.r_range, self.c_range, self.comfort_c
        rules = (
            ("doe", self.n_doe, self.n_doe >= 1, ">= 1"),
            ("nondoe", self.n_nondoe, self.n_nondoe >= 0, ">= 0"),
            ("passive", self.n_passive, self.n_passive >= 0, ">= 0"),
            ("pv_ratings", self.pv_ratings_kw,
             len(self.pv_ratings_kw) > 0 and min(self.pv_ratings_kw) >= 0.0,
             "one or more values >= 0"),
            ("ac_rating_range", ac, len(ac) == 2 and 0.0 <= ac[0] <= ac[1],
             "two values 0 <= lo <= hi"),
            ("r_range", r, len(r) == 2 and 0.0 < r[0] <= r[1], "two values 0 < lo <= hi"),
            ("c_range", c, len(c) == 2 and 0.0 < c[0] <= c[1], "two values 0 < lo <= hi"),
            ("cop", self.cop, self.cop > 0.0, "> 0"),
            ("pf_ac", self.pf_ac, 0.0 < self.pf_ac <= 1.0, "in (0, 1]"),
            ("pf_pv", self.pf_pv, 0.0 < self.pf_pv <= 1.0, "in (0, 1]"),
            ("pf_ul", self.pf_ul, 0.0 < self.pf_ul <= 1.0, "in (0, 1]"),
            ("comfort", comfort, len(comfort) == 2 and comfort[0] < comfort[1],
             "two values lo < hi"),
            ("import_limit", self.import_limit_kw, self.import_limit_kw >= 0.0, ">= 0"),
            ("export_limit", self.export_limit_kw, self.export_limit_kw >= 0.0, ">= 0"),
        )
        for key, value, ok, rule in rules:
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {value}")


@dataclass
class SyntheticProfileSpec:
    """Shape parameters for the seeded signal generators."""

    sunrise_s: int = 6 * 3600
    sunset_s: int = 18 * 3600 + 1800
    pv_efficiency: float = 0.9
    pv_noise: float = 0.05
    ul_base_range_kw: tuple = (0.25, 0.9)
    ul_noise: float = 0.25
    price_base: float = 0.08          # currency/kWh
    price_swing: float = 0.02
    price_noise: float = 0.01
    t_out_mean_c: float = 26.0
    t_out_amplitude_c: float = 6.0
    t_out_peak_s: int = 14 * 3600 + 1800


@dataclass
class StudyConfig:
    feeder_path: str
    seed: int = 7
    v_lo: float = 0.94
    v_hi: float = 1.10
    control_step_s: int = 300
    grid_step_s: int = 30
    window_start_s: int = 10 * 3600
    window_end_s: int = 12 * 3600
    n_scenarios: int = 500
    admm: AdmmConfig = field(default_factory=AdmmConfig)
    households: HouseholdSynthesis = field(default_factory=HouseholdSynthesis)
    profiles: SyntheticProfileSpec = field(default_factory=SyntheticProfileSpec)
    profile_dir: str | None = None     # load signals from files instead of synthesis
    regulation_fraction: float = 0.2
    reference_shape: str = "square"    # square | ramp | smooth
    reference_period_s: int = 1800
    forecast_noise: float = 0.0        # envelope-stage profile perturbation hook
    pf_tol: float = 1e-8
    pf_maxiter: int = 100

    def __post_init__(self):
        """Reject values that would only fail later or mean nothing.

        Messages name the study file's ``[study]`` keys; NaN fails every rule.
        """
        rules = (
            ("seed", self.seed, self.seed >= 0, ">= 0"),
            ("v_lo", self.v_lo, self.v_lo < self.v_hi, f"< v_hi = {self.v_hi}"),
            ("control_step_s", self.control_step_s, self.control_step_s >= 1, ">= 1"),
            ("grid_step_s", self.grid_step_s, self.grid_step_s >= 1, ">= 1"),
            ("scenarios", self.n_scenarios, self.n_scenarios >= 1, ">= 1"),
            ("pf_tol", self.pf_tol, self.pf_tol > 0.0, "> 0"),
            ("pf_maxiter", self.pf_maxiter, self.pf_maxiter >= 1, ">= 1"),
            ("reference_period_s", self.reference_period_s, self.reference_period_s >= 1, ">= 1"),
            ("forecast_noise", self.forecast_noise, 0.0 <= self.forecast_noise < math.inf,
             "finite and >= 0"),
        )
        for key, value, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {value}")
        if self.control_step_s % self.grid_step_s != 0:
            raise ConfigError("control step must be an integer multiple of the grid step")
        if (self.window_end_s - self.window_start_s) % self.control_step_s != 0:
            raise ConfigError("DR window must be a whole number of control steps")
        if self.window_end_s <= self.window_start_s:
            raise ConfigError("DR window must have positive length")

    @property
    def dt_control_h(self) -> float:
        return self.control_step_s / 3600.0

    @property
    def n_control_steps(self) -> int:
        return (self.window_end_s - self.window_start_s) // self.control_step_s

    @property
    def substeps_per_control(self) -> int:
        return self.control_step_s // self.grid_step_s

    def control_times(self):
        return [self.window_start_s + k * self.control_step_s
                for k in range(self.n_control_steps)]


def parse_hms(text: str) -> int:
    parts = text.strip().split(":")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
        raise ConfigError(f"expected HH:MM or HH:MM:SS time, got '{text}'")
    parts = [int(p) for p in parts] + [0] * (3 - len(parts))
    return parts[0] * 3600 + parts[1] * 60 + parts[2]


def _floats(text):
    return tuple(float(x) for x in text.split())


# Study-file key -> (field, cast) of the sections that override a config's defaults.
_SECTION_KEYS = {
    "admm": {"rho": ("rho", float), "eps_prim": ("eps_prim", float),
             "eps_dual": ("eps_dual", float), "maxiter": ("maxiter", int)},
    "households": {
        "doe": ("n_doe", int), "nondoe": ("n_nondoe", int), "passive": ("n_passive", int),
        "pv_ratings": ("pv_ratings_kw", _floats),
        "ac_rating_range": ("ac_rating_range_kw", _floats),
        "r_range": ("r_range", _floats), "c_range": ("c_range", _floats), "cop": ("cop", float),
        "pf_ac": ("pf_ac", float), "pf_pv": ("pf_pv", float), "pf_ul": ("pf_ul", float),
        "comfort": ("comfort_c", _floats), "import_limit": ("import_limit_kw", float),
        "export_limit": ("export_limit_kw", float), "t_initial": ("t_initial_c", float)},
    "profiles": {
        "sunrise": ("sunrise_s", parse_hms), "sunset": ("sunset_s", parse_hms),
        "pv_efficiency": ("pv_efficiency", float), "pv_noise": ("pv_noise", float),
        "ul_base_range": ("ul_base_range_kw", _floats), "ul_noise": ("ul_noise", float),
        "price_base": ("price_base", float), "price_swing": ("price_swing", float),
        "price_noise": ("price_noise", float), "t_out_mean": ("t_out_mean_c", float),
        "t_out_amplitude": ("t_out_amplitude_c", float), "t_out_peak": ("t_out_peak_s", parse_hms)},
}


def _section(sections, path, name):
    """get(key, cast, default) for one section; a value cast rejects raises ConfigError."""
    values = _kv(sections.get(name, []), path, name)

    def get(key, cast, default=None):
        if key not in values:
            return default
        try:
            return cast(values[key])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: [{name}] {key} = {values[key]}: {exc}") from None
    return get


def load_study_config(path) -> StudyConfig:
    """Parse the study file; sections [study], [admm], [households], [profiles].

    The key=value framing is the feeder files'.
    """
    path = Path(path)
    sections = _read_sections(path)
    if "study" not in sections:
        raise ConfigError(f"{path}: missing [study] section")
    get = _section(sections, path, "study")
    feeder = get("feeder", str)
    if feeder is None:
        raise ConfigError(f"{path}: [study] must set 'feeder'")

    kwargs: dict = {"feeder_path": str((path.parent / feeder).resolve())}
    simple = {
        "seed": int, "v_lo": float, "v_hi": float,
        "control_step_s": int, "grid_step_s": int, "scenarios": int,
        "regulation_fraction": float, "reference_shape": str,
        "reference_period_s": int, "forecast_noise": float,
        "pf_tol": float, "pf_maxiter": int,
        "window_start": parse_hms, "window_end": parse_hms,
    }
    rename = {"scenarios": "n_scenarios", "window_start": "window_start_s",
              "window_end": "window_end_s"}
    for key, cast in simple.items():
        value = get(key, cast)
        if value is not None:
            kwargs[rename.get(key, key)] = value
    profile_dir = get("profile_dir", str)
    if profile_dir is not None:
        kwargs["profile_dir"] = str((path.parent / profile_dir).resolve())

    for name, default in (("admm", AdmmConfig()), ("households", HouseholdSynthesis()),
                          ("profiles", SyntheticProfileSpec())):
        if name in sections:
            get = _section(sections, path, name)
            try:
                kwargs[name] = replace(default, **{
                    field: get(key, cast, getattr(default, field))
                    for key, (field, cast) in _SECTION_KEYS[name].items()})
            except ValueError as exc:
                raise ConfigError(f"{path}: [{name}] {exc}") from None

    try:
        return StudyConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: [study] {exc}") from None


# ---------------------------------------------------------------------------
# Household synthesis
# ---------------------------------------------------------------------------

def synthesize_households(feeder: FeederModel, synth: HouseholdSynthesis,
                          dt_control_h: float, seed) -> Roster:
    """The household table: every mapped household in feeder order.

    A seeded shuffle picks which connections become DOE, non-DOE and
    passive customers; passive ones carry no PV.  Draws run per household
    in feeder order: a PV rating unless passive, an AC rating, then
    thermal resistance and capacitance for DOE households.
    """
    ids = list(feeder.household_map)
    total = synth.n_doe + synth.n_nondoe + synth.n_passive
    if total != len(ids):
        raise ConfigError(
            f"class counts sum to {total} but the feeder maps {len(ids)} households")

    rng = np.random.default_rng([int(seed), 101])
    shuffled = list(ids)
    rng.shuffle(shuffled)
    rank = {hid: i for i, hid in enumerate(shuffled)}

    n = len(ids)
    doe = np.zeros(n, dtype=bool)
    pv_rating, ac_rating = np.zeros((2, n))
    decay, gain = np.full((2, n), np.nan)
    for h, hid in enumerate(ids):
        doe[h] = rank[hid] < synth.n_doe
        if rank[hid] < synth.n_doe + synth.n_nondoe:
            pv_rating[h] = rng.choice(synth.pv_ratings_kw)
        ac = float(rng.uniform(*synth.ac_rating_range_kw))
        if doe[h]:
            ac_rating[h] = ac
            thermal = ThermalParams(
                r_c_per_kw=float(rng.uniform(*synth.r_range)),
                c_kwh_per_c=float(rng.uniform(*synth.c_range)),
                cop=synth.cop,
                dt_h=dt_control_h,
            )
            decay[h], gain[h] = thermal.decay, thermal.gain
    return Roster(
        ids=ids, doe=doe, pv_kw_rating=pv_rating,
        tan_pv=np.full(n, pf_tangent(synth.pf_pv)),
        tan_ac=np.full(n, pf_tangent(synth.pf_ac)),
        tan_ul=np.full(n, pf_tangent(synth.pf_ul)),
        ac_kw_rating=ac_rating,
        comfort_lo=np.where(doe, synth.comfort_c[0], np.nan),
        comfort_hi=np.where(doe, synth.comfort_c[1], np.nan),
        decay=decay, gain=gain,
        import_limit_kw=np.full(n, synth.import_limit_kw),
        export_limit_kw=np.full(n, synth.export_limit_kw),
    )


# ---------------------------------------------------------------------------
# Profile synthesis and file ingestion
# ---------------------------------------------------------------------------

def _smooth_noise(rng, n: int, half_window: int) -> np.ndarray:
    """Zero-mean unit-ish noise smoothed with a moving average."""
    raw = rng.standard_normal(n + 2 * half_window)
    kernel = np.ones(2 * half_window + 1) / (2 * half_window + 1)
    return np.convolve(raw, kernel, mode="valid")


def synthesize_profiles(cfg: StudyConfig, households: Roster) -> ProfileSet:
    """Seeded synthetic PV, uncontrollable load, price and outdoor temperature.

    Coverage spans the DR window plus one control step on each side; pv and
    ul run at grid cadence, one column per household in the table's order,
    price at control cadence (market clearing), t_out at grid cadence.
    """
    ps = cfg.profiles
    start = cfg.window_start_s - cfg.control_step_s
    end = cfg.window_end_s + cfg.control_step_s
    n_grid = (end - start) // cfg.grid_step_s
    t_grid = start + cfg.grid_step_s * np.arange(n_grid)

    bell = np.sin(math.pi * np.clip(
        (t_grid - ps.sunrise_s) / (ps.sunset_s - ps.sunrise_s), 0.0, 1.0)) ** 1.3

    pv, ul = np.empty((2, n_grid, len(households.ids)))
    for h, hid in enumerate(households.ids):  # each household draws from its own stream
        rng = np.random.default_rng([cfg.seed, 201, _stable_id(hid)])
        rating = households.pv_kw_rating[h]
        if rating > 0.0:
            noise = _smooth_noise(rng, n_grid, 10)
            vals = rating * ps.pv_efficiency * bell * (1.0 + ps.pv_noise * noise)
        else:
            rng.standard_normal(1)  # keep the stream aligned across classes
            vals = np.zeros(n_grid)
        pv[:, h] = np.clip(vals, 0.0, None)

        base = rng.uniform(*ps.ul_base_range_kw)
        diurnal = 1.0 + 0.25 * np.sin(2.0 * math.pi * (t_grid - 7 * 3600) / 86400.0)
        vals = base * diurnal + ps.ul_noise * _smooth_noise(rng, n_grid, 6)
        ul[:, h] = np.clip(vals, 0.02, None)

    rng = np.random.default_rng([cfg.seed, 202])
    n_ctrl = (end - start) // cfg.control_step_s
    t_ctrl = start + cfg.control_step_s * np.arange(n_ctrl)
    swing = np.sin(2.0 * math.pi * (t_ctrl - 6 * 3600) / 86400.0)
    price_vals = ps.price_base + ps.price_swing * swing + ps.price_noise * _smooth_noise(rng, n_ctrl, 2)
    price = TimeSeriesProfile("price", start, cfg.control_step_s, np.clip(price_vals, 0.0, None))

    t_vals = ps.t_out_mean_c + ps.t_out_amplitude_c * np.cos(
        2.0 * math.pi * (t_grid - ps.t_out_peak_s) / 86400.0)
    t_out = TimeSeriesProfile("t_out", start, cfg.grid_step_s, t_vals)

    return ProfileSet(ids=households.ids, pv=TimeSeriesProfile("pv", start, cfg.grid_step_s, pv),
                      ul=TimeSeriesProfile("ul", start, cfg.grid_step_s, ul), price=price,
                      t_out=t_out)


def _stable_id(hid: str) -> int:
    """Deterministic small integer from a household id (not Python hash)."""
    acc = 0
    for ch in hid:
        acc = (acc * 131 + ord(ch)) % 1_000_003
    return acc


def write_profiles(profiles: ProfileSet, out_dir) -> None:
    """One file per signal kind; per-household signals in id-sorted columns."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    order = sorted(range(len(profiles.ids)), key=profiles.ids.__getitem__)
    for kind in ("pv", "ul"):
        prof = getattr(profiles, kind)
        with open(out / f"{kind}.dat", "w", encoding="utf-8") as fh:
            fh.write(f"# kind={kind} units=kW step_s={prof.step_s} start_s={prof.start_s}\n")
            fh.write("time_s " + " ".join(profiles.ids[h] for h in order) + "\n")
            for i, row in enumerate(prof.values[:, order].tolist()):
                fh.write(f"{prof.start_s + i * prof.step_s} " + " ".join(map(repr, row)) + "\n")
    for kind, units in (("price", "currency_per_kWh"), ("t_out", "degC")):
        prof = getattr(profiles, kind)
        with open(out / f"{kind}.dat", "w", encoding="utf-8") as fh:
            fh.write(f"# kind={kind} units={units} step_s={prof.step_s} start_s={prof.start_s}\n")
            fh.write("time_s value\n")
            for i, v in enumerate(prof.values):
                fh.write(f"{prof.start_s + i * prof.step_s} {float(v)!r}\n")


def _read_profile_file(path, kind):
    """(columns, profile) of one profile file: a 1-D profile for a 'value' column, else a table."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(line_no, ln.rstrip("\n")) for line_no, ln in enumerate(fh, 1) if ln.strip()]
    if len(lines) < 3 or not lines[0][1].startswith("#"):
        raise ProfileError(f"{path}: malformed profile file")
    line_no, text = lines[0]
    meta = dict(item.partition("=")[::2] for item in text[1:].split() if "=" in item)
    try:
        step, start = int(meta["step_s"]), int(meta["start_s"])
    except (KeyError, ValueError):
        raise ProfileError(f"{path}, line {line_no}: header needs integer step_s and start_s, "
                           f"got '{text}'") from None
    line_no, text = lines[1]
    header = text.split()
    columns = header[1:]
    twice = [col for j, col in enumerate(columns) if col in columns[:j]]
    if twice:
        raise ProfileError(f"{path}, line {line_no}: header names column '{twice[0]}' twice")
    rows = []
    expected_t = start
    for line_no, ln in lines[2:]:
        fields = ln.split()
        if len(fields) != len(header):
            raise ProfileError(f"{path}, line {line_no}: row width {len(fields)} != "
                               f"header width {len(header)}")
        try:
            t = int(fields[0])
            rows.append([float(x) for x in fields[1:]])
        except ValueError as exc:
            raise ProfileError(f"{path}, line {line_no}: {exc}") from None
        if t != expected_t:
            raise ProfileError(f"{path}, line {line_no}: gap or misordered row at t={t}s "
                               f"(expected {expected_t}s)")
        expected_t += step
    data = np.array(rows)
    return columns, TimeSeriesProfile(kind, start, step,
                                      data[:, 0] if columns == ["value"] else data)


def load_profiles(cfg: StudyConfig, households: Roster) -> ProfileSet:
    """Ingest profile files when configured, otherwise synthesize from seed.

    A file's per-household columns are put in the table's order; columns of
    households outside the table are dropped.
    """
    if cfg.profile_dir is None:
        profiles = synthesize_profiles(cfg, households)
    else:
        pdir = Path(cfg.profile_dir)
        pv, ul, price, t_out = (_read_profile_file(pdir / f"{kind}.dat", kind)
                                for kind in ("pv", "ul", "price", "t_out"))
        tables = []
        for columns, prof in (pv, ul):
            where = {col: j for j, col in enumerate(columns)}
            missing = sorted(set(households.ids) - set(where))
            if missing:
                raise ProfileError(f"profiles missing households: {missing[:5]}")
            tables.append(replace(prof, values=prof.values[:, [where[h] for h in households.ids]]))
        profiles = ProfileSet(households.ids, *tables, price[1], t_out[1])

    lo = cfg.window_start_s
    hi = cfg.window_end_s + cfg.control_step_s
    for name in ("pv", "ul", "price", "t_out"):
        prof = getattr(profiles, name)
        if not prof.covers(lo, hi):
            raise ProfileError(
                f"{name} profile covers [{prof.start_s}, {prof.end_s})s, "
                f"study needs [{lo}, {hi})s")
    return profiles


# ---------------------------------------------------------------------------
# Reference signal
# ---------------------------------------------------------------------------

def simulate_baseline(households: Roster, profiles: ProfileSet,
                      cfg: StudyConfig) -> np.ndarray:
    """Aggregate DOE air-conditioner power under plain thermostat control.

    Pre-pass at control cadence holding each DOE household at the comfort
    set-point (no DR); this is the consumption the market signal modulates.
    """
    setpoint = cfg.households.t_initial_c
    roster = households.take(households.doe)
    temps = np.full(len(roster.ids), setpoint)
    baseline = np.zeros(cfg.n_control_steps)
    for k, t_out in enumerate(profiles.t_out.value_at(np.array(cfg.control_times()))):
        p = thermostat_power(temps, roster, t_out, setpoint, roster.ac_kw_rating)
        temps = step_temperature(temps, roster, t_out, p)
        # A running sum from 0.0 in roster order; np.sum would add pairwise.
        baseline[k] = np.cumsum(np.r_[0.0, p])[-1]
    return baseline


def build_reference(baseline: np.ndarray, fraction: float, shape: str, seed,
                    start_s: int, step_s: int, period_s: int = 1800) -> TimeSeriesProfile:
    """Modulate the baseline by the regulation capacity: ref = base * (1 + f*u).

    u(t) in [-1, 1] comes from the chosen shape: alternating square wave,
    a single full-window ramp, or seeded smooth noise.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"regulation fraction must be in [0, 1], got {fraction}")
    n = len(baseline)
    k = np.arange(n)
    if shape == "square":
        u = np.where(((k * step_s) // period_s) % 2 == 0, -1.0, 1.0)
    elif shape == "ramp":
        u = -1.0 + 2.0 * k / max(n - 1, 1)
    elif shape == "smooth":
        rng = np.random.default_rng([int(seed), 301])
        u = np.clip(1.2 * _smooth_noise(rng, n, 3), -1.0, 1.0)
    else:
        raise ConfigError(f"unknown reference shape '{shape}'")
    values = baseline * (1.0 + fraction * u)
    return TimeSeriesProfile("p_ref", start_s, step_s, values)


# ---------------------------------------------------------------------------
# Static limits for non-DOE and passive customers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaticInjection:
    """The static rule's outcome, each field an array of the shape of its inputs, in kW."""

    p_inj_kw: np.ndarray
    q_inj_kvar: np.ndarray
    curtailed_kw: np.ndarray
    import_violation_kw: np.ndarray


def apply_static_limits(households: Roster, pv_kw, ul_kw) -> StaticInjection:
    """DNSP rule for customers without envelopes, one column per household.

    households: a table of non-DOE or passive households; pv_kw, ul_kw:
    (..., k) arrays in kW, column j holding household j's values.  Exports
    above each household's static limit are removed by curtailing PV
    (reactive output follows the curtailed active power at fixed power
    factor).  Imports beyond the limit are recorded, not shed.
    """
    if households.doe.any():
        raise ValueError(f"{households.ids[households.doe.argmax()]}: static limits apply to "
                         "non-DOE and passive customers only")
    export_limit = households.export_limit_kw
    # poc_injection's P of the uncurtailed PV and Q of the curtailed PV with no
    # AC power, without its other halves: x - 0.0 == x, so they are equal bit for bit.
    p_raw = pv_kw - ul_kw
    curtailed = np.maximum(p_raw - export_limit, 0.0)
    p_inj = np.minimum(p_raw, export_limit)
    q_inj = (pv_kw - curtailed) * households.tan_pv - ul_kw * households.tan_ul
    violation = np.maximum(-households.import_limit_kw - p_inj, 0.0)
    return StaticInjection(p_inj, q_inj, curtailed, violation)


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------

def _floats_of(x) -> list:
    """x's values as Python floats, which every result file writes with ``repr``."""
    return np.asarray(x, dtype=float).tolist()


@functools.lru_cache(maxsize=32)
def _envelope_row_floats(n_vertices: int, n_rows: int, n_b: int) -> str:
    """An envelope row's vertices, A and b fields: a %-template of their floats."""
    return (f"{';'.join(['%r %r'] * n_vertices)},{';'.join(['%r %r'] * n_rows)},"
            f"{';'.join(['%r'] * n_b)}\n")


@functools.lru_cache(maxsize=8)
def _voltage_row_tails(buses: tuple[str, ...]) -> tuple[str, ...]:
    """Each (bus, phase) row of voltages.csv after its time: a %-template of its magnitude."""
    return tuple(f",{bus.replace('%', '%%')},{ph},%r\n" for bus in buses for ph in range(3))


class ResultWriter:
    """Owns the result-directory layout; one writer per run.

    Layout: envelopes/step_***.csv, dispatch/dispatch.csv,
    dispatch/convergence.csv, gridlog/voltages.csv, gridlog/violations.csv,
    static_limits.csv, summary.txt and manifest.txt.  Wall-clock timestamps
    appear only in the manifest so every other file is reproducible.  The
    per-step files take one call per control step each, from that step's
    arrays; the others are written whole in one call.
    """

    def __init__(self, out_dir):
        self.root = Path(out_dir)
        for sub in ("envelopes", "dispatch", "gridlog"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self._dispatch = open(self.root / "dispatch" / "dispatch.csv", "w", encoding="utf-8")
        self._dispatch.write("t_index,t_s,household,p_ac_kw,p_inj_kw,q_inj_kvar,t_in_next_c,flag\n")
        self._conv = open(self.root / "dispatch" / "convergence.csv", "w", encoding="utf-8")
        self._conv.write("t_index,t_s,iterations,r_norm,s_norm,stop_reason,p_ref_kw,p_total_kw,tracking_error_kw\n")
        self._volt = open(self.root / "gridlog" / "voltages.csv", "w", encoding="utf-8")
        self._volt.write("t_s,bus,phase,v_mag_pu\n")
        self._viol = open(self.root / "gridlog" / "violations.csv", "w", encoding="utf-8")
        self._viol.write("t_s,bus,phase,v_mag_pu,bound,kind\n")
        self._static = open(self.root / "static_limits.csv", "w", encoding="utf-8")
        self._static.write("t_s,household,p_raw_kw,p_inj_kw,curtailed_kw,import_violation_kw\n")
        self._started = time.time()

    def write_envelopes(self, t_index: int, envelopes: dict[str, EnvelopePolytope]):
        """One control step's envelope file, one row per household in id order.

        The rows are one %-template, each row's float fields cached by its
        vertex and row counts, filled with every float of the step at once.
        """
        rows = sorted(envelopes.items())
        template = "".join(
            f"{hid.replace('%', '%%')},{e.t_index},{e.sampled},{e.feasible},{int(e.degenerate)},"
            + _envelope_row_floats(np.size(e.vertices) // 2, np.size(e.a) // 2, np.size(e.b))
            for hid, e in rows)
        values = [np.ravel(x) for _, e in rows for x in (e.vertices, e.a, e.b)]
        path = self.root / "envelopes" / f"step_{t_index:03d}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("household,t_index,sampled,feasible,degenerate,vertices,A,b\n")
            fh.write(template % tuple(np.concatenate(values, dtype=float).tolist()
                                      if values else ()))

    def write_dispatch(self, t_index, t_s, households, p_ac, p_inj, q_inj, t_next, flags):
        """One control step's rows: one per household, from per-household sequences."""
        columns = map(_floats_of, (p_ac, p_inj, q_inj, t_next))
        self._dispatch.write("".join(
            f"{t_index},{t_s},{hid},{a!r},{p!r},{q!r},{t!r},{flag}\n"
            for hid, a, p, q, t, flag in zip(households, *columns, flags)))

    def write_convergence(self, t_index, t_s, result):
        r, s, p_ref, p_total, error = _floats_of([result.r_norm, result.s_norm, result.p_ref_kw,
                                                  result.p_ac.sum(), result.tracking_error_kw])
        self._conv.write(f"{t_index},{t_s},{result.iterations},{r!r},{s!r},"
                         f"{result.stop_reason},{p_ref!r},{p_total!r},{error!r}\n")

    def write_voltages(self, times, feeder: FeederModel, v_mag: np.ndarray):
        """One control step's voltages: v_mag is (sub-steps, N, 3), times its sub-steps.

        A sub-step's rows are the feeder's row tails, each led by the time;
        the step's rows are one %-template filled with every magnitude.
        """
        tails = _voltage_row_tails(feeder.buses)
        template = "".join(f"{t}" + f"{t}".join(tails) for t in times)
        self._volt.write(template % tuple(v_mag.ravel().tolist()))

    def write_violation(self, times, feeder: FeederModel, v_mag: np.ndarray, where,
                        v_lo: float, v_hi: float):
        """One control step's out-of-band voltages at ``where``'s (sub-step, bus, phase) rows.

        Each row's bound and kind follow from its magnitude: under v_lo, else over v_hi.
        """
        under, over = f"{float(v_lo)!r},under", f"{float(v_hi)!r},over"
        self._viol.write("".join(
            f"{times[j]},{feeder.buses[bi]},{ph},{m!r},{under if m < v_lo else over}\n"
            for (j, bi, ph), m in zip(where.tolist(), v_mag[tuple(where.T)].tolist())))

    def write_static(self, times, households, p_raw, p_inj, curtailed, import_violation):
        """One control step's static-rule records, one per entry of the sequences."""
        columns = map(_floats_of, (p_raw, p_inj, curtailed, import_violation))
        self._static.write("".join(
            f"{t},{hid},{r!r},{p!r},{c!r},{v!r}\n"
            for t, hid, r, p, c, v in zip(times, households, *columns)))

    def write_summary(self, summary: dict):
        with open(self.root / "summary.txt", "w", encoding="utf-8") as fh:
            for key in sorted(summary):
                fh.write(f"{key} = {summary[key]}\n")

    def write_manifest(self, config_text: str, seed: int, status: str,
                       mean_step_seconds: float | None = None):
        with open(self.root / "manifest.txt", "w", encoding="utf-8") as fh:
            fh.write(f"status = {status}\n")
            fh.write(f"seed = {seed}\n")
            fh.write(f"started_unix = {self._started}\n")
            fh.write(f"finished_unix = {time.time()}\n")
            if mean_step_seconds is not None:
                fh.write(f"mean_step_seconds = {mean_step_seconds}\n")
                fh.write(f"total_seconds = {time.time() - self._started}\n")
            fh.write("--- config ---\n")
            fh.write(config_text)

    def close(self):
        for fh in (self._dispatch, self._conv, self._volt, self._viol, self._static):
            fh.close()


def _parse_pairs(txt: str) -> np.ndarray:
    """A ';'-joined list of "p q" pairs as a (k, 2) array."""
    tokens = txt.replace(";", " ; ").split()
    # Two numbers in every pair put a ';' at every third token and nowhere else.
    if len(tokens) % 3 != 2 or tokens[2::3] != [";"] * (len(tokens) // 3):
        raise ValueError("every pair must hold two numbers")
    del tokens[2::3]
    return np.array(tokens, dtype=float).reshape(-1, 2)


def read_envelopes(path) -> dict[str, EnvelopePolytope]:
    """Read one per-step envelope file written by ResultWriter.

    A row needs as many b values as A rows and finite numbers only; an
    empty A or b fails to parse.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("household,"):
            raise ProfileError(f"{path}: not an envelope file")
        for line_no, ln in enumerate(fh, 2):
            try:
                hid, t_index, sampled, feasible, degen, verts, a_txt, b_txt = ln.rstrip("\n").split(",")
                a, b = _parse_pairs(a_txt), np.array(b_txt.split(";"), dtype=float)
                if len(a) != len(b):
                    raise ValueError(f"A has {len(a)} rows but b has {len(b)} values")
                vertices = _parse_pairs(verts)
                if not np.isfinite(np.concatenate([vertices.ravel(), a.ravel(), b])).all():
                    raise ValueError("vertices, A and b must be finite")
                out[hid] = EnvelopePolytope(
                    household_id=hid, t_index=int(t_index), vertices=vertices, a=a, b=b,
                    sampled=int(sampled), feasible=int(feasible),
                    degenerate=bool(int(degen)))
            except ValueError as exc:
                raise ProfileError(f"{path}, line {line_no}: {exc}") from None
    return out
