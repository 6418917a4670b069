import numpy as np
import pytest

from conftest import reference_tree, tree_feeder

from doesim import (
    FeederError,
    assemble_admittance,
    build_feeder,
    dump_feeder,
    load_feeder,
    solve_batch,
)


def _two_bus_config(z=None):
    if z is None:
        z = np.eye(3) * (0.1 + 0.1j)
    return {
        "buses": ["b1", "b2"],
        "slack": "b1",
        "lines": [("b1", "b2", z)],
        "households": {"h1": ("b2", 0), "h2": ("b2", 1), "h3": ("b2", 2)},
    }


def test_minimal_radial_feeder():
    feeder = build_feeder(_two_bus_config())
    assert feeder.n_bus == 2
    assert len(feeder.lines) == 1
    assert len(feeder.household_map) == 3


def test_paper_scale_feeder(feeder34):
    assert feeder34.n_bus == 35
    assert len(feeder34.lines) == 34
    assert len(feeder34.household_map) == 102
    # every pole carries exactly one customer per phase
    connections = set(feeder34.household_map.values())
    assert len(connections) == 102


def test_loop_rejected():
    cfg = _two_bus_config()
    cfg["buses"] = ["b1", "b2", "b3"]
    z = np.eye(3) * (0.1 + 0.1j)
    cfg["lines"] = [("b1", "b2", z), ("b2", "b3", z), ("b3", "b1", z)]
    with pytest.raises(FeederError, match="non-radial"):
        build_feeder(cfg)


def test_disconnected_rejected():
    cfg = _two_bus_config()
    cfg["buses"] = ["b1", "b2", "b3", "b4"]
    z = np.eye(3) * (0.1 + 0.1j)
    cfg["lines"] = [("b1", "b2", z), ("b3", "b4", z), ("b2", "b3", z)]
    build_feeder(cfg)  # connected chain is fine
    # N - 1 lines with b1-b2 twice leave b3 and b4 unreached
    cfg["lines"] = [("b1", "b2", z), ("b3", "b4", z), ("b1", "b2", np.eye(3) * (0.2 + 0.2j))]
    with pytest.raises(FeederError, match=r"disconnected: no path from slack to \['b3', 'b4'\]"):
        build_feeder(cfg)


def _shuffled_lines(feeder, seed):
    rng = np.random.default_rng(seed)
    lines = [(ln.from_bus, ln.to_bus, ln.z_ohm) for ln in feeder.lines]
    rng.shuffle(lines)
    # either end may be named first
    lines = [(b, a, z) if rng.random() < 0.5 else (a, b, z) for a, b, z in lines]
    return build_feeder({"buses": list(feeder.buses), "slack": feeder.slack_bus,
                         "lines": lines, "households": dict(feeder.household_map)})


@pytest.mark.parametrize("name", ["feeder34", "tree90", "feeder34-shuffled"])
def test_tree_equals_two_pass_reference(name, request):
    feeder34 = request.getfixturevalue("feeder34")
    feeder = {"feeder34": lambda: feeder34, "tree90": lambda: tree_feeder(90, seed=2),
              "feeder34-shuffled": lambda: _shuffled_lines(feeder34, seed=5)}[name]()
    order, parent = reference_tree(feeder)
    assert np.array_equal(feeder.order, order)
    assert np.array_equal(feeder.parent, parent)
    for bus in order.tolist():
        ln = feeder.lines[feeder.feeding_line[bus]]
        ends = {feeder.bus_index[ln.from_bus], feeder.bus_index[ln.to_bus]}
        assert ends == {bus, parent[bus]}
    slack = feeder.bus_index[feeder.slack_bus]
    assert parent[slack] == feeder.feeding_line[slack] == -1


def test_duplicate_bus_phase_rejected():
    cfg = _two_bus_config()
    cfg["households"] = {"h1": ("b2", 0), "h2": ("b2", 0)}
    with pytest.raises(FeederError, match="duplicate connection"):
        build_feeder(cfg)


def test_singular_impedance_rejected():
    z = np.ones((3, 3), dtype=complex)  # rank one
    with pytest.raises(FeederError, match="singular"):
        build_feeder(_two_bus_config(z))


def test_asymmetric_impedance_rejected():
    z = np.eye(3) * (0.1 + 0.1j)
    z[0, 1] = 0.05
    with pytest.raises(FeederError, match="not symmetric"):
        build_feeder(_two_bus_config(z))


def test_diagonal_inversion_hand_value():
    # diag(0.1 + 0.1j) ohm inverts to diag(5 - 5j) siemens
    feeder = build_feeder(_two_bus_config())
    adm = assemble_admittance(feeder)
    bi = feeder.bus_index["b2"]
    y_ohm_units = adm.y_line_pu[bi] / feeder.base.impedance_ohm
    assert np.allclose(np.diag(y_ohm_units), 5.0 - 5.0j, atol=1e-12)
    assert np.allclose(y_ohm_units - np.diag(np.diag(y_ohm_units)), 0.0, atol=1e-12)


def test_identity_impedance_self_inverse():
    feeder = build_feeder(_two_bus_config(np.eye(3, dtype=complex)))
    adm = assemble_admittance(feeder)
    bi = feeder.bus_index["b2"]
    z_base = feeder.base.impedance_ohm
    assert np.allclose(adm.y_line_pu[bi], np.eye(3) * z_base, atol=1e-9)


def test_full_coupled_block_multiplies_back():
    z = np.array(
        [
            [0.30 + 0.28j, 0.05 + 0.18j, 0.05 + 0.15j],
            [0.05 + 0.18j, 0.31 + 0.29j, 0.05 + 0.18j],
            [0.05 + 0.15j, 0.05 + 0.18j, 0.32 + 0.27j],
        ]
    )
    feeder = build_feeder(_two_bus_config(z))
    adm = assemble_admittance(feeder)
    bi = feeder.bus_index["b2"]
    prod = adm.z_line_pu[bi] @ adm.y_line_pu[bi]
    assert np.abs(prod - np.eye(3)).max() < 1e-12


def test_every_line_block_inverts(feeder34):
    adm = assemble_admittance(feeder34)
    for bi in feeder34.order:
        prod = adm.z_line_pu[bi] @ adm.y_line_pu[bi]
        assert np.abs(prod - np.eye(3)).max() < 1e-10


def test_line_order_permutation_invariance(feeder34):
    cfg_lines = [(ln.from_bus, ln.to_bus, ln.z_ohm) for ln in feeder34.lines]
    base_cfg = {
        "buses": list(feeder34.buses),
        "slack": feeder34.slack_bus,
        "households": dict(feeder34.household_map),
    }
    rng = np.random.default_rng(3)
    p = rng.uniform(-3.0, 3.0, (35, 3))
    q = rng.uniform(-1.0, 1.0, (35, 3))
    p[0] = q[0] = 0.0
    s_pu = feeder34.base.kw_to_pu(p + 1j * q)[None]

    feeder_a = build_feeder({**base_cfg, "lines": cfg_lines})
    v_a, _, _, conv_a = solve_batch(assemble_admittance(feeder_a), s_pu)

    perm = list(cfg_lines[::-1])
    rng.shuffle(perm)
    feeder_b = build_feeder({**base_cfg, "lines": perm})
    v_b, _, _, conv_b = solve_batch(assemble_admittance(feeder_b), s_pu)

    assert conv_a.all() and conv_b.all()
    assert np.abs(v_a - v_b).max() < 1e-12


def test_config_roundtrip_bitwise(feeder34, tmp_path):
    path = tmp_path / "roundtrip.cfg"
    dump_feeder(feeder34, path)
    again = load_feeder(path)
    assert again.buses == feeder34.buses
    assert again.household_map == feeder34.household_map
    adm_a = assemble_admittance(feeder34)
    adm_b = assemble_admittance(again)
    assert (adm_a.y_line_pu == adm_b.y_line_pu).all()
    assert (adm_a.ybus == adm_b.ybus).all()


def test_ybus_built_on_first_read(feeder34):
    adm = assemble_admittance(feeder34)
    assert "ybus" not in vars(adm)
    ybus = adm.ybus
    assert ybus.shape == (3 * feeder34.n_bus, 3 * feeder34.n_bus)
    assert adm.ybus is ybus


def test_household_on_unknown_bus_rejected():
    cfg = _two_bus_config()
    cfg["households"]["hx"] = ("b9", 0)
    with pytest.raises(FeederError, match="unknown bus"):
        build_feeder(cfg)
