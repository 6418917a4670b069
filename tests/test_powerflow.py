import logging

import numpy as np
import pytest

from conftest import bisect_two_bus_voltage, make_pu_feeder, tree_feeder

from doesim import (
    assemble_admittance,
    check_limits,
    dump_feeder,
    solve_batch,
)
from doesim.cli import main as cli_main
from doesim.powerflow import _power_mismatch

FLAT_TOL = 1e-12


def _balanced_injection(feeder, p_kw, q_kvar):
    """A batch of one: every non-slack bus draws p_kw + j q_kvar on each phase, per unit."""
    s_pu = np.zeros((1, feeder.n_bus, 3), dtype=complex)
    s_pu[0, 1:, :] = feeder.base.kw_to_pu(p_kw + 1j * q_kvar)
    return s_pu


def _solve_one(adm, s_pu):
    """(v, iterations) of a converged batch of one."""
    v, iterations, _, converged = solve_batch(adm, s_pu)
    assert converged.all()
    return v[0], iterations


def test_zero_injection_flat_solution(feeder2):
    adm = assemble_admittance(feeder2)
    v, iterations = _solve_one(adm, _balanced_injection(feeder2, 0.0, 0.0))
    expected = feeder2.slack_phasors()
    assert iterations <= 2
    for bi in range(feeder2.n_bus):
        assert np.abs(v[bi] - expected).max() < FLAT_TOL


def test_two_bus_matches_bisection_oracle(pu_feeder2):
    # z = 0.05 + 0.05j pu per phase (decoupled); injection -0.1 - 0.05j pu
    adm = assemble_admittance(pu_feeder2)
    base = pu_feeder2.base
    p_kw = -0.1 * base.power_va / 1e3
    q_kvar = -0.05 * base.power_va / 1e3
    v, _ = _solve_one(adm, _balanced_injection(pu_feeder2, p_kw, q_kvar))
    v2_oracle = bisect_two_bus_voltage(0.05 + 0.05j, -0.1 - 0.05j)
    assert v2_oracle == pytest.approx(0.9924396929463191, abs=1e-12)  # frozen oracle value
    assert np.abs(np.abs(v[1]) - v2_oracle).max() < 1e-8


def test_mismatch_property_random_injections(feeder34):
    adm = assemble_admittance(feeder34)
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.uniform(-4.0, 4.0, (feeder34.n_bus, 3))
        q = rng.uniform(-2.0, 2.0, (feeder34.n_bus, 3))
        p[0] = q[0] = 0.0
        s_spec = feeder34.base.kw_to_pu(p + 1j * q)
        v, _ = _solve_one(adm, s_spec[None])
        # substitute back into the nodal power equations
        v_flat = v.reshape(-1)
        s_calc = v_flat * np.conj(adm.ybus @ v_flat)
        diff = np.abs(s_calc[3:] - s_spec.reshape(-1)[3:])
        assert diff.max() < 1e-6


def test_monotone_voltage_drop_with_load(pu_feeder2):
    adm = assemble_admittance(pu_feeder2)
    base = pu_feeder2.base
    mags = []
    for p_pu in (-0.02, -0.05, -0.1, -0.2):
        v, _ = _solve_one(adm, _balanced_injection(pu_feeder2, p_pu * base.power_va / 1e3, 0.0))
        mags.append(abs(v[1, 0]))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_balanced_symmetry():
    # equal self and equal mutual terms keep a balanced feeder balanced
    from doesim import build_feeder

    z = np.full((3, 3), 0.05 + 0.18j, dtype=complex)
    np.fill_diagonal(z, 0.30 + 0.29j)
    feeder = build_feeder({
        "buses": ["b1", "b2", "b3"],
        "slack": "b1",
        "lines": [("b1", "b2", z), ("b2", "b3", 2.0 * z)],
        "households": {f"h{ph}": ("b3", ph) for ph in range(3)},
    })
    adm = assemble_admittance(feeder)
    v, _ = _solve_one(adm, _balanced_injection(feeder, -1.5, -0.5))
    mags = np.abs(v)
    assert mags[1].max() - mags[1].min() < 1e-10
    assert mags[2].max() - mags[2].min() < 1e-10


def _cli_pf(tmp_path, feeder, rows):
    """Exit code of ``doesim pf`` on ``feeder`` with an injection file of ``rows``."""
    config, injections = tmp_path / "feeder.cfg", tmp_path / "injections.txt"
    dump_feeder(feeder, config)
    injections.write_text("".join(f"{row}\n" for row in rows))
    return cli_main(["pf", "--config", str(config), "--injections", str(injections)])


def test_divergence_reported(tmp_path, capsys):
    feeder = make_pu_feeder(0.5 + 0.5j)  # absurdly weak line
    load_kw = -5.0 * feeder.base.power_va / 1e3
    rc = _cli_pf(tmp_path, feeder, [f"{feeder.buses[1]} {ph} {load_kw!r} 0" for ph in range(3)])
    out = capsys.readouterr()
    assert rc == 4
    assert out.err.startswith("error: load flow did not converge in 100 iterations "
                              "(last mismatch ")
    assert out.out == ""


def test_nan_injection_rejected(feeder34, tmp_path, capsys):
    """A non-finite value in a pf injection file is a bad input (exit 3), named by line."""
    for row in ("b05 0 nan 0", "b05 1 0 -inf"):
        rc = _cli_pf(tmp_path, feeder34, ["# header", "b02 0 -1.0 -0.2", row])
        assert rc == 3
        out = capsys.readouterr()
        assert out.err == (f"error: {tmp_path / 'injections.txt'}, line 3: "
                           "p_kw and q_kvar must be finite\n")
        assert out.out == ""


def test_batch_matches_single(feeder34):
    adm = assemble_admittance(feeder34)
    rng = np.random.default_rng(5)
    batch = 8
    s_pu = np.zeros((batch, feeder34.n_bus, 3), dtype=complex)
    for k in range(batch):
        p = rng.uniform(-3.0, 3.0, (feeder34.n_bus, 3))
        q = rng.uniform(-1.0, 1.0, (feeder34.n_bus, 3))
        p[0] = q[0] = 0.0
        s_pu[k] = feeder34.base.kw_to_pu(p + 1j * q)
    singles = [_solve_one(adm, s_pu[k:k + 1])[0] for k in range(batch)]
    v, _, _, converged = solve_batch(adm, s_pu)
    assert converged.all()
    # both paths satisfy the 1e-8 mismatch contract; the batch may sweep a
    # few extra lockstep iterations, so compare at solver tolerance
    for k in range(batch):
        assert np.abs(v[k] - singles[k]).max() < 1e-7


def test_check_limits_flat_empty(feeder2):
    adm = assemble_admittance(feeder2)
    v, _ = _solve_one(adm, _balanced_injection(feeder2, 0.0, 0.0))
    assert check_limits(np.abs(v), 0.94, 1.10).shape == (0, 2)


def test_check_limits_flags_undervoltage(pu_feeder2):
    adm = assemble_admittance(pu_feeder2)
    base = pu_feeder2.base
    # load heavy enough to pull |V2| below 0.94 on the 0.05+0.05j pu line
    inj = _balanced_injection(pu_feeder2, -1.0 * base.power_va / 1e3, -0.3 * base.power_va / 1e3)
    v, _ = _solve_one(adm, inj)
    mags = np.abs(v)
    where = check_limits(mags, 0.94, 1.10)
    b2 = pu_feeder2.bus_index["b2"]
    assert where.tolist() == [[b2, 0], [b2, 1], [b2, 2]]  # one entry per phase of bus 2
    assert (mags[tuple(where.T)] < 0.94).all()


def test_check_limits_order_and_edges(feeder34, tmp_path):
    """Rows in (sub-step, bus, phase) order; the writer adds each row's bound and kind."""
    from doesim.scenarios import ResultWriter

    rng = np.random.default_rng(4)
    mags = rng.uniform(0.92, 1.12, (2, feeder34.n_bus, 3))
    mags[0, 2, 1], mags[1, 3, 0], mags[0, 4, 2] = 0.94, 1.10, np.nan  # edges and NaN stay in band
    where = check_limits(mags, 0.94, 1.10)
    want = [(j, bi, ph) for j in range(2) for bi in range(feeder34.n_bus) for ph in range(3)
            if mags[j, bi, ph] < 0.94 or mags[j, bi, ph] > 1.10]
    assert len(want) > 10
    assert [tuple(row) for row in where.tolist()] == want
    assert check_limits(mags[1], 0.94, 1.10).tolist() == [[bi, ph] for j, bi, ph in want if j == 1]

    times = [36000, 36030]
    writer = ResultWriter(tmp_path)
    writer.write_violation(times, feeder34, mags, where, 0.94, 1.10)
    writer.close()
    rows = [(times[j], feeder34.buses[bi], ph, float(mags[j, bi, ph]),
             0.94 if mags[j, bi, ph] < 0.94 else 1.10,
             "under" if mags[j, bi, ph] < 0.94 else "over") for j, bi, ph in want]
    assert {row[-1] for row in rows} == {"under", "over"}
    written = (tmp_path / "gridlog" / "violations.csv").read_text().splitlines()
    assert written[1:] == [f"{t},{bus},{ph},{m!r},{bound!r},{kind}"
                           for t, bus, ph, m, bound, kind in rows]


def test_check_limits_band_matches_study_configuration(feeder2):
    # the configured band is [0.94, 1.10] pu
    from doesim import load_study_config

    cfg = load_study_config(
        __import__("pathlib").Path(__file__).resolve().parent.parent / "configs" / "study34.cfg")
    assert cfg.v_lo == 0.94
    assert cfg.v_hi == 1.10


def test_residual_trace_is_monotone_ish(feeder34, caplog):
    adm = assemble_admittance(feeder34)
    p = np.full((feeder34.n_bus, 3), -2.0)
    q = np.full((feeder34.n_bus, 3), -0.5)
    p[0] = q[0] = 0.0
    caplog.set_level(logging.DEBUG, logger="doesim.powerflow")
    _, iterations = _solve_one(adm, feeder34.base.kw_to_pu(p + 1j * q)[None])
    # (sweep, max mismatch) of each DEBUG line, one before the first sweep and one after each
    trace = [r.args for r in caplog.records if r.msg.startswith("sweep ")]
    assert [k for k, _ in trace] == list(range(iterations + 1))
    assert len(trace) >= 2
    assert trace[-1][1] < 1e-8
    assert trace[-1][1] < trace[0][1]


# ---------------------------------------------------------------------------
# Reference: the batch-major sweep with the dense Ybus residual
# ---------------------------------------------------------------------------

def _dense_mismatch(adm, v_flat, s_pu, slack_idx):
    i_node = v_flat @ adm.ybus.T
    ds = v_flat * np.conj(i_node) - s_pu.reshape(v_flat.shape)
    ds[:, 3 * slack_idx:3 * slack_idx + 3] = 0.0
    return np.abs(ds).max(axis=1)


def _batch_major_solve(adm, s_pu, tol=1e-8, maxiter=100):
    feeder = adm.feeder
    n = feeder.n_bus
    b = s_pu.shape[0]
    slack_idx = feeder.bus_index[feeder.slack_bus]
    v = np.tile(feeder.slack_phasors(), (b, n, 1)).astype(complex)
    s = np.array(s_pu, dtype=complex)
    s[:, slack_idx, :] = 0.0
    order, parent, z = feeder.order, feeder.parent, adm.z_line_pu
    mism = _dense_mismatch(adm, v.reshape(b, 3 * n), s, slack_idx)
    iterations = 0
    for iterations in range(1, maxiter + 1):
        if (mism < tol).all():
            iterations -= 1
            break
        i_inj = np.conj(s / v)
        d = -i_inj
        for bi in order[::-1]:
            d[:, parent[bi], :] += d[:, bi, :]
        for bi in order:
            v[:, bi, :] = v[:, parent[bi], :] - d[:, bi, :] @ z[bi].T
        mism = _dense_mismatch(adm, v.reshape(b, 3 * n), s, slack_idx)
    return v, iterations, mism, mism < tol


def _random_batch(feeder, batch, seed, scale_kw=4.0):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-scale_kw, scale_kw, (batch, feeder.n_bus, 3))
    q = rng.uniform(-scale_kw / 2, scale_kw / 2, (batch, feeder.n_bus, 3))
    p[:, 0] = q[:, 0] = 0.0
    return feeder.base.kw_to_pu(p + 1j * q)


@pytest.mark.parametrize("batch", [1, 10, 500])
def test_bus_major_sweep_bit_identical_to_batch_major(feeder34, batch):
    adm = assemble_admittance(feeder34)
    s_pu = _random_batch(feeder34, batch, seed=batch)
    v, iterations, mism, converged = solve_batch(adm, s_pu)
    v_ref, it_ref, mism_ref, conv_ref = _batch_major_solve(adm, s_pu)
    assert v.shape == (batch, feeder34.n_bus, 3)
    assert np.array_equal(v, v_ref)
    assert iterations == it_ref
    assert np.array_equal(converged, conv_ref)
    assert np.abs(mism - mism_ref).max() <= 1e-12


def test_bus_major_sweep_reports_nonconvergence_like_reference(feeder34):
    adm = assemble_admittance(feeder34)
    s_pu = _random_batch(feeder34, 10, seed=3, scale_kw=120.0)
    v, iterations, _, converged = solve_batch(adm, s_pu, maxiter=4)
    v_ref, it_ref, _, conv_ref = _batch_major_solve(adm, s_pu, maxiter=4)
    assert not converged.all()
    assert iterations == it_ref == 4
    assert np.array_equal(converged, conv_ref)
    assert np.array_equal(v, v_ref)


def _star_feeder():
    """Slack -> hub -> four leaves, one of them feeding a fifth bus: a fork of four."""
    from doesim import build_feeder

    z = np.full((3, 3), 0.02 + 0.05j, dtype=complex)
    np.fill_diagonal(z, 0.12 + 0.11j)
    lines = [("s", "hub", z)] + [("hub", f"l{k}", z * (k + 1)) for k in range(4)]
    lines.append(("l2", "tail", z))
    buses = ["s", "hub", "l0", "l1", "l2", "l3", "tail"]
    households = {f"h{b}{ph}": (b, ph) for b in buses[1:] for ph in range(3)}
    return build_feeder({"buses": buses, "slack": "s", "lines": lines,
                         "households": households})


@pytest.mark.parametrize("feeder_name", ["feeder2", "feeder34", "star"])
def test_per_line_residual_matches_ybus_residual(feeder_name, request):
    feeder = _star_feeder() if feeder_name == "star" else request.getfixturevalue(feeder_name)
    adm = assemble_admittance(feeder)
    n = feeder.n_bus
    slack_idx = feeder.bus_index[feeder.slack_bus]
    s_pu = _random_batch(feeder, 20, seed=13)
    rng = np.random.default_rng(17)
    flat = np.tile(feeder.slack_phasors(), (20, n, 1))
    states = [flat,
              flat * (1.0 + 0.05 * rng.standard_normal((20, n, 3))),
              solve_batch(adm, s_pu)[0]]
    for v in states:
        dense = _dense_mismatch(adm, v.reshape(20, 3 * n), s_pu, slack_idx)
        per_line = _power_mismatch(adm, np.ascontiguousarray(v.transpose(1, 0, 2)),
                                   np.ascontiguousarray(s_pu.transpose(1, 0, 2)), slack_idx)
        assert per_line.shape == (20,)
        assert np.abs(per_line - dense).max() <= 1e-12


# ---------------------------------------------------------------------------
# Stacks of batches
# ---------------------------------------------------------------------------

def _stack(feeder, g, b, seed):
    """(G, B, N, 3) injections: group 0 all zero, group 2 too heavy to converge."""
    s_pu = np.stack([_random_batch(feeder, b, seed=seed + k, scale_kw=0.5 + k % 4)
                     for k in range(g)])
    s_pu[0] = 0.0
    s_pu[2] *= 60.0
    return s_pu


@pytest.mark.parametrize("feeder_name, g, b", [
    ("feeder34", 12, 10),   # one replay block of the shipped study
    ("feeder34", 5, 40),    # residual blocks of 128 cut through groups
    ("tree90", 12, 10),     # a stack past numpy's 256 KiB in-place threshold
    ("tree90", 5, 50),
])
def test_stack_equals_a_call_per_group(feeder_name, g, b, request):
    feeder = tree_feeder(90, seed=2) if feeder_name == "tree90" else request.getfixturevalue(feeder_name)
    adm = assemble_admittance(feeder)
    s_pu = _stack(feeder, g, b, seed=20)
    maxiter = 12
    v, iterations, mism, converged = solve_batch(adm, s_pu, maxiter=maxiter)
    assert v.shape == s_pu.shape
    assert iterations.shape == (g,)
    assert mism.shape == converged.shape == (g, b)
    for k in range(g):
        v_k, it_k, mism_k, conv_k = solve_batch(adm, s_pu[k], maxiter=maxiter)
        assert v[k].tobytes() == v_k.tobytes()
        assert iterations[k] == it_k
        assert mism[k].tobytes() == mism_k.tobytes()
        assert converged[k].tobytes() == conv_k.tobytes()
    # the zero group converges before the first sweep, the heavy one runs to
    # maxiter, and the rest stop at different sweeps
    assert iterations[0] == 0 and converged[0].all()
    assert iterations[2] == maxiter and not converged[2].all()
    assert converged[1].all() and converged[3:].all()
    assert len(set(iterations[3:].tolist())) > 1


def test_single_batch_keeps_its_shapes(feeder34):
    adm = assemble_admittance(feeder34)
    s_pu = _random_batch(feeder34, 7, seed=8)
    v, iterations, mism, converged = solve_batch(adm, s_pu)
    assert type(iterations) is int
    assert v.shape == (7, feeder34.n_bus, 3) and v.flags.c_contiguous
    assert mism.shape == converged.shape == (7,)
    v_stack, it_stack, mism_stack, conv_stack = solve_batch(adm, s_pu[None])
    assert it_stack.tolist() == [iterations]
    assert v_stack[0].tobytes() == v.tobytes()
    assert mism_stack[0].tobytes() == mism.tobytes()
