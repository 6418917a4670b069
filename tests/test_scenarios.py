from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import household, household_table, static_rule

from doesim import (
    ConfigError,
    ProfileError,
    StaticInjection,
    TimeSeriesProfile,
    apply_static_limits,
    build_reference,
    load_profiles,
    load_study_config,
    simulate_baseline,
    synthesize_households,
    synthesize_profiles,
)
from doesim.envelopes import EnvelopePolytope
from doesim.scenarios import ResultWriter, read_envelopes, write_profiles, _read_profile_file

T95 = 0.3286841051788632
T80 = 0.7499999999999998  # tan(acos 0.8)


@pytest.fixture()
def study_cfg(configs_dir):
    return load_study_config(configs_dir / "study34.cfg")


@pytest.fixture()
def households(feeder34, study_cfg):
    return synthesize_households(feeder34, study_cfg.households,
                                 study_cfg.dt_control_h, study_cfg.seed)


# ---------------------------------------------------------------------------
# Study config and household synthesis
# ---------------------------------------------------------------------------

def test_study_config_parses(study_cfg):
    assert study_cfg.n_scenarios == 500
    assert study_cfg.admm.maxiter == 15
    assert study_cfg.admm.rho == 1.0
    assert study_cfg.n_control_steps == 24
    assert study_cfg.substeps_per_control == 10
    assert study_cfg.households.n_doe == 30


def test_window_must_align(configs_dir, tmp_path):
    text = (configs_dir / "study34.cfg").read_text().replace(
        "grid_step_s = 30", "grid_step_s = 7")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("feeder = feeder34.cfg",
                                f"feeder = {configs_dir / 'feeder34.cfg'}"))
    with pytest.raises(ConfigError, match="integer multiple"):
        load_study_config(bad)


@pytest.mark.parametrize("good, bad, named", [
    ("seed = 7", "seed = seven", "[study] seed = seven"),
    ("scenarios = 500", "scenarios = 5x", "[study] scenarios = 5x"),
    ("window_end = 12:00", "window_end = noon", "[study] window_end = noon"),
    ("rho = 1.0", "rho = -1", "[admm] rho must be > 0"),
    ("doe = 30", "doe = thirty", "[households] doe = thirty"),
    ("doe = 30", "doe = 0", "[households] doe must be >= 1, got 0"),
    ("sunrise = 06:00", "sunrise = 6", "[profiles] sunrise = 6"),
    ("comfort = 22 24", "comfort = 24 22", "[households] comfort must be two values lo < hi"),
    ("cop = 2.5", "cop = 0", "[households] cop must be > 0"),
    ("rho = 1.0", "rho = 1.0\nrho = 2.0", "[admm] rho is set twice"),
])
def test_study_config_bad_value_names_file_and_key(configs_dir, tmp_path, good, bad, named):
    text = (configs_dir / "study34.cfg").read_text()
    assert f"\n{good}\n" in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(f"\n{good}\n", f"\n{bad}\n"))
    with pytest.raises(ConfigError) as err:
        load_study_config(path)
    assert str(err.value).startswith(f"{path}: {named}")


def test_household_synthesis_counts_and_ranges(feeder34, study_cfg, households):
    assert households.ids == list(feeder34.household_map)
    doe, rated = households.doe, households.pv_kw_rating > 0.0
    # every rating on offer is positive, so the passive households are the unrated ones
    assert (doe.sum(), (rated & ~doe).sum(), (~rated).sum()) == (30, 16, 56)
    assert np.isin(households.pv_kw_rating[rated], (3.0, 3.6, 4.0, 5.0, 6.0, 8.0)).all()
    ac, decay, gain = households.ac_kw_rating, households.decay, households.gain
    assert ((2.5 <= ac[doe]) & (ac[doe] <= 3.5)).all() and (ac[~doe] == 0.0).all()
    # gain = cop * r and decay = exp(-dt / (r c)) with cop = 2.5
    r = gain[doe] / 2.5
    c = -study_cfg.dt_control_h / (r * np.log(decay[doe]))
    assert ((1.5 <= r) & (r <= 2.5) & (1.5 - 1e-12 <= c) & (c <= 2.5 + 1e-12)).all()
    assert np.isnan(np.stack([decay, gain, households.comfort_lo, households.comfort_hi])[:, ~doe]).all()
    assert (households.comfort_lo[doe] == 22.0).all() and (households.comfort_hi[doe] == 24.0).all()


def _same_table(a, b):
    return a.ids == b.ids and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)
        for f in fields(a)[1:])


def test_household_synthesis_deterministic(feeder34, study_cfg):
    a = synthesize_households(feeder34, study_cfg.households, study_cfg.dt_control_h, 7)
    b = synthesize_households(feeder34, study_cfg.households, study_cfg.dt_control_h, 7)
    assert _same_table(a, b)
    c = synthesize_households(feeder34, study_cfg.households, study_cfg.dt_control_h, 8)
    assert not _same_table(a, c)


def test_household_table_take(households):
    """A sub-table holds the chosen rows of every column, by positions or by mask."""
    rows = [5, 0, 17]
    sub = households.take(rows)
    assert sub.ids == [households.ids[h] for h in rows]
    for f in fields(households)[1:]:
        assert np.array_equal(getattr(sub, f.name), getattr(households, f.name)[rows],
                              equal_nan=True), f.name
    doe = households.take(households.doe)
    assert doe.ids == [hid for hid, d in zip(households.ids, households.doe) if d]
    assert doe.doe.all() and not np.isnan(doe.decay).any()


def test_household_count_mismatch_rejected(feeder2, study_cfg):
    with pytest.raises(ConfigError, match="class counts"):
        synthesize_households(feeder2, study_cfg.households, study_cfg.dt_control_h, 7)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@pytest.fixture()
def shuffled(households):
    """The household table in a seeded shuffled order: ids no longer sorted."""
    return households.take(np.random.default_rng(3).permutation(len(households.ids)))


def test_synthetic_profiles_deterministic(study_cfg, households, shuffled):
    a = synthesize_profiles(study_cfg, households)
    b = synthesize_profiles(study_cfg, households)
    assert a.ids == b.ids == households.ids
    assert a.pv.values.shape == a.ul.values.shape == (len(a.pv.values), len(households.ids))
    assert (a.pv.values == b.pv.values).all()
    assert (a.ul.values == b.ul.values).all()
    assert (a.price.values == b.price.values).all()
    assert (a.t_out.values == b.t_out.values).all()
    # each household draws from its own stream: a reordered table reorders the columns
    c = synthesize_profiles(study_cfg, shuffled)
    rows = [households.ids.index(hid) for hid in shuffled.ids]
    assert (c.pv.values == a.pv.values[:, rows]).all() and (c.ul.values == a.ul.values[:, rows]).all()


def test_profile_grid_sample_arithmetic(study_cfg, households):
    profiles = synthesize_profiles(study_cfg, households)
    window = study_cfg.window_end_s - study_cfg.window_start_s
    assert window // study_cfg.grid_step_s == 240
    n_window = sum(
        1 for i in range(len(profiles.pv.values))
        if study_cfg.window_start_s <= profiles.pv.start_s + i * study_cfg.grid_step_s
        < study_cfg.window_end_s)
    assert n_window == 240


def test_profiles_nonnegative_and_cover(study_cfg, households):
    profiles = load_profiles(study_cfg, households)
    lo, hi = study_cfg.window_start_s, study_cfg.window_end_s + study_cfg.control_step_s
    assert (profiles.pv.values >= 0.0).all()
    assert (profiles.ul.values > 0.0).all()
    assert profiles.pv.covers(lo, hi) and profiles.ul.covers(lo, hi)
    assert profiles.t_out.covers(lo, hi)


def test_profile_file_roundtrip(study_cfg, shuffled, tmp_path):
    profiles = synthesize_profiles(study_cfg, shuffled)
    write_profiles(profiles, tmp_path)
    columns, pv = _read_profile_file(tmp_path / "pv.dat", "pv")
    assert columns == sorted(shuffled.ids)
    rows = [shuffled.ids.index(hid) for hid in columns]
    assert pv.values.tobytes() == profiles.pv.values[:, rows].tobytes()
    columns, price = _read_profile_file(tmp_path / "price.dat", "price")
    assert columns == ["value"]
    assert (price.values == profiles.price.values).all()


def test_profile_file_repeated_household_rejected(study_cfg, households, tmp_path):
    write_profiles(synthesize_profiles(study_cfg, households), tmp_path)
    path = tmp_path / "ul.dat"
    lines = path.read_text().splitlines()
    names = lines[1].split()
    names[3] = names[1]
    lines[1] = " ".join(names)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError) as err:
        _read_profile_file(path, "ul")
    assert str(err.value) == f"{path}, line 2: header names column '{names[1]}' twice"


def test_profile_file_gap_rejected(study_cfg, households, tmp_path):
    profiles = synthesize_profiles(study_cfg, households)
    write_profiles(profiles, tmp_path)
    lines = (tmp_path / "t_out.dat").read_text().splitlines()
    del lines[10]  # remove one interior sample
    (tmp_path / "t_out.dat").write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError, match="gap"):
        _read_profile_file(tmp_path / "t_out.dat", "t_out")


def _header_without_step(lines):
    lines[0] = lines[0].replace(" step_s=30", "")


def _word_in_a_cell(lines):
    lines[4] = lines[4].split()[0] + " warm"


def _fractional_time(lines):
    lines[2] = "0.5 " + lines[2].split()[1]


def _double_equals_in_header(lines):
    lines[0] = lines[0].replace("step_s=30", "step_s=30=1")


def _value_missing(lines):
    lines[6] = lines[6].split()[0]


def _rows_swapped(lines):
    lines[3], lines[4] = lines[4], lines[3]


@pytest.mark.parametrize("edit, where", [
    (_header_without_step, "line 1: header needs integer step_s and start_s"),
    (_word_in_a_cell, "line 5: could not convert string to float: 'warm'"),
    (_fractional_time, "line 3: invalid literal for int() with base 10: '0.5'"),
    (_double_equals_in_header, "line 1: header needs integer step_s and start_s"),
    (_value_missing, "line 7: row width 1 != header width 2"),
    (_rows_swapped, "line 4: gap or misordered row at t="),
])
def test_profile_file_bad_value_names_file_and_line(study_cfg, households, tmp_path, edit, where):
    write_profiles(synthesize_profiles(study_cfg, households), tmp_path)
    path = tmp_path / "t_out.dat"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError) as err:
        _read_profile_file(path, "t_out")
    assert str(err.value).startswith(f"{path}, {where}")


def test_load_profiles_from_files(study_cfg, shuffled, tmp_path):
    """The files' id-sorted columns come back in the table's own order."""
    from dataclasses import replace

    profiles = synthesize_profiles(study_cfg, shuffled)
    write_profiles(profiles, tmp_path)
    cfg_files = replace(study_cfg, profile_dir=str(tmp_path))
    loaded = load_profiles(cfg_files, shuffled)
    assert loaded.ids == shuffled.ids
    for kind in ("pv", "ul", "price", "t_out"):
        assert getattr(loaded, kind).values.tobytes() == getattr(profiles, kind).values.tobytes()


def test_load_profiles_names_missing_households(study_cfg, households, tmp_path):
    from dataclasses import replace

    profiles = synthesize_profiles(study_cfg, households)
    write_profiles(profiles, tmp_path)
    lines = (tmp_path / "pv.dat").read_text().splitlines()
    first = lines[1].split()[1]
    lines[1] = lines[1].replace(f" {first} ", " elsewhere ", 1)
    (tmp_path / "pv.dat").write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError, match=rf"profiles missing households: \['{first}'\]"):
        load_profiles(replace(study_cfg, profile_dir=str(tmp_path)), households)


def test_value_at_out_of_coverage():
    prof = TimeSeriesProfile("price", 0, 300, np.ones(4))
    assert prof.value_at(0) == 1.0
    assert prof.value_at(1199) == 1.0
    with pytest.raises(ProfileError):
        prof.value_at(1200)
    with pytest.raises(ProfileError):
        prof.value_at(-1)
    with pytest.raises(ProfileError, match="t=1200s"):
        prof.value_at(np.array([0, 600, 1200]))


def test_value_at_array_equals_scalar_calls():
    prof = TimeSeriesProfile("pv", 300, 30, np.random.default_rng(3).uniform(0.0, 5.0, 40))
    times = np.array([[300, 329, 330], [1499, 900, 615]])
    got = prof.value_at(times)
    assert got.shape == times.shape
    assert np.array_equal(got, [[prof.value_at(int(t)) for t in row] for row in times])
    assert isinstance(prof.value_at(330), float)


def test_value_at_table_returns_rows():
    """A (time, household) profile gives one row per time, the columns' own lookups."""
    values = np.random.default_rng(5).uniform(0.0, 5.0, (40, 3))
    table = TimeSeriesProfile("ul", 300, 30, values)
    times = np.array([300, 329, 330, 1499])
    got = table.value_at(times)
    assert got.shape == (4, 3)
    for j in range(3):
        column = TimeSeriesProfile("ul", 300, 30, values[:, j])
        assert np.array_equal(got[:, j], column.value_at(times))
    assert np.array_equal(table.value_at(329), values[0])
    with pytest.raises(ProfileError, match="t=1500s"):
        table.value_at(1500)


# ---------------------------------------------------------------------------
# Reference signal
# ---------------------------------------------------------------------------

def test_reference_interval_arithmetic():
    baseline = np.full(24, 60.0)
    ref = build_reference(baseline, 0.2, "square", seed=7, start_s=36000, step_s=300)
    assert (ref.values >= 48.0 - 1e-12).all()
    assert (ref.values <= 72.0 + 1e-12).all()
    assert set(np.round(ref.values, 9)) == {48.0, 72.0}


def test_reference_zero_fraction_identity():
    baseline = np.linspace(40.0, 70.0, 24)
    ref = build_reference(baseline, 0.0, "square", seed=7, start_s=0, step_s=300)
    assert (ref.values == baseline).all()


def test_reference_ramp_monotone():
    baseline = np.full(4, 50.0)  # constant baseline isolates the ramp shape
    ref = build_reference(baseline, 0.2, "ramp", seed=7, start_s=0, step_s=300)
    assert (np.diff(ref.values) > 0).all()
    assert ref.values[0] == pytest.approx(40.0)
    assert ref.values[-1] == pytest.approx(60.0)


def test_reference_smooth_band_and_determinism():
    baseline = np.full(50, 30.0)
    a = build_reference(baseline, 0.2, "smooth", seed=3, start_s=0, step_s=300)
    b = build_reference(baseline, 0.2, "smooth", seed=3, start_s=0, step_s=300)
    assert (a.values == b.values).all()
    assert (a.values >= 24.0 - 1e-12).all() and (a.values <= 36.0 + 1e-12).all()


def test_reference_bad_fraction():
    with pytest.raises(ConfigError):
        build_reference(np.ones(3), 1.5, "square", 0, 0, 300)


def test_baseline_positive_on_hot_window(study_cfg, households):
    profiles = synthesize_profiles(study_cfg, households)
    baseline = simulate_baseline(households, profiles, study_cfg)
    assert baseline.shape == (24,)
    assert (baseline > 0.0).all()


def test_baseline_equals_per_household_loop(study_cfg, households):
    """The roster pre-pass equals stepping and summing one household at a time."""
    from doesim.thermal import step_temperature, thermostat_power

    profiles = synthesize_profiles(study_cfg, households)
    setpoint = study_cfg.households.t_initial_c
    temps = {h: setpoint for h in np.flatnonzero(households.doe).tolist()}
    expected = []
    for t_s in study_cfg.control_times():
        t_out = profiles.t_out.value_at(t_s)
        total = 0.0
        for h, t_in in temps.items():
            thermal = SimpleNamespace(decay=float(households.decay[h]),
                                      gain=float(households.gain[h]))
            p = float(thermostat_power(t_in, thermal, t_out, setpoint,
                                       float(households.ac_kw_rating[h])))
            temps[h] = float(step_temperature(t_in, thermal, t_out, p))
            total += p
        expected.append(total)
    got = simulate_baseline(households, profiles, study_cfg)
    assert [repr(x) for x in got.tolist()] == [repr(x) for x in expected]


# ---------------------------------------------------------------------------
# Envelope files
# ---------------------------------------------------------------------------

def test_envelope_file_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(4)
    special = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, 1.0 / 3.0])
    envelopes = {}
    for i in range(30):
        k = int(rng.integers(1, 9))
        vertices, a = (rng.standard_normal((k, 2)) * 10.0 ** rng.integers(-300, 300, (k, 2))
                       for _ in range(2))
        b = rng.choice(special, k) if i % 3 == 0 else rng.standard_normal(k)
        envelopes[f"h{i:02d}"] = EnvelopePolytope(f"h{i:02d}", 3, vertices, a, b, 40, k)
    writer = ResultWriter(tmp_path)
    writer.write_envelopes(3, envelopes)
    writer.close()
    back = read_envelopes(tmp_path / "envelopes" / "step_003.csv")
    assert list(back) == sorted(envelopes)
    for hid, env in envelopes.items():
        for name in ("vertices", "a", "b"):
            assert getattr(back[hid], name).tobytes() == getattr(env, name).tobytes(), (hid, name)


def test_envelope_file_writes_repr_of_each_float(tmp_path):
    """Every number is written as repr of a Python float; integer vertices read back as floats."""
    vertices = np.array([[0, 2], [-3, 1]], dtype=np.int64)
    a = np.array([[0.1, 1.0 / 3.0], [-0.0, 5e-324], [1e16, -1e16]])
    b = np.array([0.1, -0.0, 1e16])
    env = EnvelopePolytope("h7", 4, vertices, a, b, 500, 7, True)
    writer = ResultWriter(tmp_path)
    writer.write_envelopes(4, {"h7": env})
    writer.close()
    path = tmp_path / "envelopes" / "step_004.csv"
    row = "h7,4,500,7,1,0.0 2.0;-3.0 1.0,0.1 0.3333333333333333;-0.0 5e-324;1e+16 -1e+16,0.1;-0.0;1e+16"
    pairs = [";".join(f"{float(p)!r} {float(q)!r}" for p, q in m) for m in (vertices, a)]
    assert row == f"h7,4,500,7,1,{pairs[0]},{pairs[1]},{';'.join(repr(float(x)) for x in b)}"
    assert path.read_text().splitlines()[1:] == [row]
    back = read_envelopes(path)["h7"]
    assert back.vertices.tobytes() == vertices.astype(float).tobytes()
    assert back.a.tobytes() == a.tobytes() and back.b.tobytes() == b.tobytes()
    assert back.degenerate and (back.sampled, back.feasible) == (500, 7)


def test_envelope_file_rows_of_mixed_shapes_and_ids_with_percent(tmp_path):
    """Rows of different vertex and row counts fill one step's template; '%' in an id is literal."""
    point = EnvelopePolytope("h%d", 5, np.array([[1.5, -0.0]]), np.eye(2), np.array([1.5, 0.0]),
                             3, 1, True)
    segment = EnvelopePolytope("h%%1", 5, np.array([[0.0, 0.0], [1.0, 0.5]]), -np.eye(3, 2),
                               np.array([0.25, -0.5, 2.0]), 3, 3)
    writer = ResultWriter(tmp_path)
    writer.write_envelopes(5, {"h%d": point, "h%%1": segment})
    writer.write_envelopes(6, {})
    writer.close()
    rows = (tmp_path / "envelopes" / "step_005.csv").read_text().splitlines()[1:]
    assert rows == ["h%%1,5,3,3,0,0.0 0.0;1.0 0.5,-1.0 -0.0;-0.0 -1.0;-0.0 -0.0,0.25;-0.5;2.0",
                    "h%d,5,3,1,1,1.5 -0.0,1.0 0.0;0.0 1.0,1.5;0.0"]
    assert (tmp_path / "envelopes" / "step_006.csv").read_text() == (
        "household,t_index,sampled,feasible,degenerate,vertices,A,b\n")


def test_dispatch_rows_written_per_step_equal_per_row_format(tmp_path):
    """One call per step writes each household's row as the per-row writer did, repr for floats."""
    special = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, 1.0 / 3.0])
    columns = np.random.default_rng(8).choice(special, (4, 6))
    ids = [f"h{i}" for i in range(6)]
    flags = ["ok", "envelope_relaxed", "comfort_fallback", "ok", "ok", "ok"]
    writer = ResultWriter(tmp_path)
    writer.write_dispatch(2, 36600, ids, *columns, flags)
    writer.write_dispatch(3, 36900, [], *np.zeros((4, 0)), [])
    writer.close()
    rows = (tmp_path / "dispatch" / "dispatch.csv").read_text().splitlines()
    assert rows[0] == "t_index,t_s,household,p_ac_kw,p_inj_kw,q_inj_kvar,t_in_next_c,flag"
    assert rows[1:] == [f"2,36600,{hid},{float(a)!r},{float(p)!r},{float(q)!r},{float(t)!r},{flag}"
                        for hid, a, p, q, t, flag in zip(ids, *columns, flags)]


def test_voltage_rows_equal_per_row_format(tmp_path):
    """The per-feeder %-template writes each row as f"{t},{bus},{ph},{v!r}" did, '%' in ids too."""
    from doesim import build_feeder

    z = np.eye(3) * (0.1 + 0.1j)
    buses = ["s", "b%d", "c%%r", "d"]
    feeder = build_feeder({"buses": buses, "slack": "s", "households": {},
                           "lines": [("s", b, z) for b in buses[1:]]})
    special = np.array([1.0, -0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0, np.nan, np.inf])
    writer = ResultWriter(tmp_path)
    steps = []
    for k, times in enumerate(([36000, 36030], [36060], [])):
        v_mag = np.random.default_rng(k).choice(special, (len(times), len(buses), 3))
        writer.write_voltages(times, feeder, v_mag)
        steps.append((times, v_mag))
    writer.close()
    rows = (tmp_path / "gridlog" / "voltages.csv").read_text().splitlines()
    assert rows[0] == "t_s,bus,phase,v_mag_pu"
    assert rows[1:] == [f"{t},{bus},{ph},{v!r}" for times, v_mag in steps
                        for t, mags in zip(times, v_mag.tolist())
                        for bus, phases in zip(buses, mags) for ph, v in enumerate(phases)]
    assert {"-0.0", "5e-324", "1e+16"} <= {row.rsplit(",", 1)[1] for row in rows[1:]}


@pytest.mark.parametrize("pairs", ["1.0 2.0 3.0;4.0", "1.0;2.0 3.0", "1.0 2.0;", "1.0 x", "",
                                   "0.0 nan"])
def test_read_envelopes_rejects_malformed_pairs(tmp_path, pairs):
    path = tmp_path / "step_000.csv"
    path.write_text("household,t_index,sampled,feasible,degenerate,vertices,A,b\n"
                    f"h1,0,5,5,0,{pairs},1.0 0.0,1.0\n")
    with pytest.raises(ProfileError, match="step_000.csv, line 2"):
        read_envelopes(path)


@pytest.mark.parametrize("a_txt, b_txt, message", [
    ("1.0 0.0;0.0 1.0", "1.0", "A has 2 rows but b has 1 values"),
    ("1.0 0.0", "1.0;2.0", "A has 1 rows but b has 2 values"),
    ("", "1.0", "every pair must hold two numbers"),
    ("1.0 0.0", "", "could not convert string to float: ''"),
    ("1.0 0.0", "nan", "vertices, A and b must be finite"),
    ("inf 0.0", "1.0", "vertices, A and b must be finite"),
])
def test_read_envelopes_rejects_rows_without_one_b_per_a_row(tmp_path, a_txt, b_txt, message):
    path = tmp_path / "step_000.csv"
    path.write_text("household,t_index,sampled,feasible,degenerate,vertices,A,b\n"
                    f"h1,0,5,5,0,0.0 0.0,{a_txt},{b_txt}\n")
    with pytest.raises(ProfileError) as err:
        read_envelopes(path)
    assert str(err.value) == f"{path}, line 2: {message}"


# ---------------------------------------------------------------------------
# Static limits
# ---------------------------------------------------------------------------

def test_export_clamped_to_limit(nondoe_spec):
    # pv - ul = 6.2 kW exceeds the 5 kW export cap
    adj = static_rule(nondoe_spec, pv_kw=6.9, ul_kw=0.7)
    assert adj.p_inj_kw == pytest.approx(5.0)
    assert adj.curtailed_kw == pytest.approx(1.2)
    # reactive output follows the curtailed PV at fixed power factors
    assert adj.q_inj_kvar == pytest.approx((6.9 - 1.2) * T80 - 0.7 * T95, abs=1e-12)


def test_passive_import_unchanged(passive_spec):
    adj = static_rule(passive_spec, pv_kw=0.0, ul_kw=1.0)
    assert adj.p_inj_kw == pytest.approx(-1.0)
    assert adj.curtailed_kw == 0.0
    assert adj.import_violation_kw == 0.0


def test_below_threshold_untouched(nondoe_spec):
    adj = static_rule(nondoe_spec, pv_kw=5.4, ul_kw=0.5)
    assert adj.p_inj_kw == pytest.approx(4.9)
    assert adj.curtailed_kw == 0.0


def test_import_violation_recorded_not_shed(passive_spec):
    adj = static_rule(passive_spec, pv_kw=0.0, ul_kw=11.5)
    assert adj.p_inj_kw == pytest.approx(-11.5)  # no shedding
    assert adj.import_violation_kw == pytest.approx(1.5)


def test_static_limits_idempotent(nondoe_spec):
    first = static_rule(nondoe_spec, pv_kw=6.9, ul_kw=0.7)
    again = static_rule(nondoe_spec, pv_kw=6.9 - first.curtailed_kw, ul_kw=0.7)
    assert again.p_inj_kw == first.p_inj_kw
    assert again.q_inj_kvar == pytest.approx(first.q_inj_kvar, abs=1e-12)
    assert again.curtailed_kw == 0.0


def _assert_columns_equal_scalar_calls(specs, pv, ul):
    """apply_static_limits over (..., k) columns equals one scalar call per entry."""
    got = apply_static_limits(household_table(*specs), pv, ul)
    for j, spec in enumerate(specs):
        flat = [static_rule(spec, float(a), float(b))
                for a, b in zip(pv[..., j].flat, ul[..., j].flat)]
        for f in fields(StaticInjection):
            want = np.reshape([getattr(w, f.name) for w in flat], pv.shape[:-1])
            assert np.array_equal(getattr(got, f.name)[..., j], want), (f.name, spec.id)
    return got


def test_static_limits_array_equals_scalar_calls(nondoe_spec, passive_spec):
    rng = np.random.default_rng(21)
    ul = rng.uniform(0.0, 12.0, (8, 9, 2))
    pv = np.stack([rng.uniform(0.0, 8.0, (8, 9)), np.zeros((8, 9))], axis=-1)
    got = _assert_columns_equal_scalar_calls([nondoe_spec, passive_spec], pv, ul)
    # both sides of the rules are exercised
    for j in range(2):
        violation = got.import_violation_kw[..., j]
        assert (violation > 0.0).any() and (violation == 0.0).any()
    assert (got.curtailed_kw[..., 0] > 0.0).any() and (got.curtailed_kw[..., 0] == 0.0).any()


def test_static_limits_columns_follow_their_specs():
    """Distinct power factors and limits per spec: a column mix-up shows."""
    specs = [household(f"n{j}", False, pv_kw_rating=8.0, pf_pv=pf_pv, pf_ul=pf_ul,
                       export_limit_kw=export_kw, import_limit_kw=import_kw)
             for j, (pf_pv, pf_ul, export_kw, import_kw) in enumerate(
                 [(0.8, 0.95, 5.0, 2.0), (0.9, 0.85, 2.5, 4.0), (0.95, 0.9, 1.0, 1.5),
                  (1.0, 0.8, 3.5, 0.5)])]
    rng = np.random.default_rng(29)
    pv = rng.uniform(0.0, 8.0, (20, 5, 4))
    ul = rng.uniform(0.0, 6.0, (20, 5, 4))
    got = _assert_columns_equal_scalar_calls(specs, pv, ul)
    assert ((got.curtailed_kw > 0.0).any(axis=(0, 1)) & (got.curtailed_kw == 0.0).any(axis=(0, 1))).all()
    assert (got.import_violation_kw > 0.0).any(axis=(0, 1)).all()


def test_static_limits_reject_doe(nondoe_spec, doe_spec):
    with pytest.raises(ValueError, match="h1: static limits apply"):
        apply_static_limits(household_table(nondoe_spec, doe_spec), np.array([3.0, 3.0]),
                            np.array([0.5, 0.5]))


def test_profile_file_negative_pv_rejected(study_cfg, households, tmp_path):
    profiles = synthesize_profiles(study_cfg, households)
    write_profiles(profiles, tmp_path)
    lines = (tmp_path / "pv.dat").read_text().splitlines()
    fields = lines[5].split()
    fields[1] = "-0.5"
    lines[5] = " ".join(fields)
    (tmp_path / "pv.dat").write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError, match="non-negative"):
        _read_profile_file(tmp_path / "pv.dat", "pv")


def test_profiles_must_cover_window_plus_step(study_cfg, households, tmp_path):
    from dataclasses import replace

    profiles = synthesize_profiles(study_cfg, households)
    write_profiles(profiles, tmp_path)
    wider = replace(study_cfg, profile_dir=str(tmp_path),
                    window_end_s=study_cfg.window_end_s + 3600)
    with pytest.raises(ProfileError, match="cover"):
        load_profiles(wider, households)
