"""Three-phase radial LV feeder model and per-unit admittance assembly.

A feeder is described by buses, phase-coupled line segments (3x3 complex
series impedance), one slack bus held at fixed balanced phasors, and a map
from household ids to (bus, phase) connection points.  One walk from the
slack checks that the lines form a tree and keeps it for the sweep solver.
The admittance model carries, per line, the 3x3 admittance block (the
inverse of the series impedance, in per-unit), from which the power-flow
mismatch sums nodal currents line by line.  The dense nodal
conductance/susceptance matrix, a test oracle, is built on first read.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, FeederError

PHASES = ("a", "b", "c")

# Row-major lower-triangle order of the 3x3 impedance matrix: the six
# (R, X) column pairs in config files follow this sequence.
LOWER_TRIANGLE = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))


@dataclass(frozen=True)
class BaseValues:
    """Per-unit bases. ``power_va`` is the single-phase base power."""

    voltage_v: float = 230.0
    power_va: float = 100_000.0

    @property
    def impedance_ohm(self) -> float:
        return self.voltage_v ** 2 / self.power_va

    def kw_to_pu(self, kw):
        return np.asarray(kw) * 1e3 / self.power_va


@dataclass(frozen=True)
class LineSegment:
    from_bus: str
    to_bus: str
    z_ohm: np.ndarray  # (3, 3) complex, symmetric

    def __post_init__(self):
        z = np.array(self.z_ohm, dtype=complex)
        if z.shape != (3, 3):
            raise FeederError(f"line {self.from_bus}-{self.to_bus}: impedance must be 3x3")
        z.setflags(write=False)
        object.__setattr__(self, "z_ohm", z)


@dataclass(frozen=True)
class FeederModel:
    """Validated radial feeder. Immutable after construction.

    ``parent``, ``feeding_line`` and ``order`` are the tree from the walk
    that validated it (``build_feeder``): each bus's parent bus index and
    the index in ``lines`` of the line feeding it, both -1 at the slack,
    and the non-slack buses parents-first, a depth-first walk from the
    slack that takes each bus's children in bus-index order.
    """

    buses: tuple[str, ...]
    slack_bus: str
    lines: tuple[LineSegment, ...]
    base: BaseValues
    household_map: dict[str, tuple[str, int]]
    parent: np.ndarray = field(repr=False, compare=False)        # (N,) int
    feeding_line: np.ndarray = field(repr=False, compare=False)  # (N,) int
    order: np.ndarray = field(repr=False, compare=False)         # (N-1,) int
    slack_voltage_pu: float = 1.0
    bus_index: dict[str, int] = field(init=False, repr=False)
    # (bus index, phase) int arrays of the households in household_map order.
    household_nodes: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bus_index", {b: i for i, b in enumerate(self.buses)})
        nodes = np.array([(self.bus_index[bus], phase) for bus, phase in self.household_map.values()],
                         dtype=int).reshape(-1, 2)
        object.__setattr__(self, "household_nodes", (nodes[:, 0], nodes[:, 1]))

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def slack_phasors(self) -> np.ndarray:
        """Balanced phasors (a at 0 deg, b at -120, c at +120), pu."""
        angles = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
        return self.slack_voltage_pu * np.exp(1j * angles)


@dataclass
class AdmittanceModel:
    """Per-line impedance and admittance blocks in per-unit, on the feeder's tree.

    ``z_line_pu[i]`` and ``y_line_pu[i]`` belong to the line feeding bus
    ``i`` (``feeder.parent[i]`` is its other end), zeros at the slack.  The
    load-flow residual sums nodal currents over these lines: ``upstream``
    is ``parent`` with the slack mapped to itself, so its zero admittance
    block gives it a zero line current, and each entry of
    ``sibling_rounds`` pairs buses with their parents, one child per
    parent: the k-th round holds the k-th child of every bus with more
    than k children.
    """

    feeder: FeederModel
    z_line_pu: np.ndarray    # (N, 3, 3) complex, zeros at slack
    y_line_pu: np.ndarray    # (N, 3, 3) complex, zeros at slack
    upstream: np.ndarray = field(init=False, repr=False)        # (N,) int
    sibling_rounds: tuple = field(init=False, repr=False)       # ((buses, parents), ...)

    def __post_init__(self):
        parent = self.feeder.parent
        self.upstream = np.where(parent >= 0, parent, np.arange(len(parent)))
        rounds: list[list[int]] = []
        children = Counter()
        for bus in self.feeder.order.tolist():
            k = children[parent[bus]]
            if k == len(rounds):
                rounds.append([])
            rounds[k].append(bus)
            children[parent[bus]] += 1
        self.sibling_rounds = tuple((np.array(r), parent[r]) for r in rounds)

    @property
    def n_bus(self) -> int:
        return self.feeder.n_bus

    @cached_property
    def ybus(self) -> np.ndarray:
        """The dense (3N, 3N) complex nodal admittance matrix, built on first read.

        Its real/imaginary parts are the conductance/susceptance coefficients
        of the power-balance equations; flat index = 3 * bus + phase.  The
        solver does not use it; tests check the residual against it.
        """
        ybus = np.zeros((3 * self.n_bus, 3 * self.n_bus), dtype=complex)
        for i in self.feeder.order.tolist():
            y = self.y_line_pu[i]
            si, sp = 3 * i, 3 * self.feeder.parent[i]
            ybus[si:si + 3, si:si + 3] += y
            ybus[sp:sp + 3, sp:sp + 3] += y
            ybus[si:si + 3, sp:sp + 3] -= y
            ybus[sp:sp + 3, si:si + 3] -= y
        return ybus


def _walk_tree(buses, slack_bus, lines):
    """The tree of a radial feeder, or FeederError: (parent, feeding_line, order).

    N - 1 lines that reach every bus from the slack form a tree, so one
    depth-first walk both checks the feeder and orders it (see FeederModel).
    """
    if slack_bus not in buses:
        raise FeederError(f"slack bus '{slack_bus}' is not in the bus list")
    if len(lines) != len(buses) - 1:
        raise FeederError(
            f"non-radial feeder: {len(buses)} buses need {len(buses) - 1} lines, got {len(lines)}"
        )
    index = {b: i for i, b in enumerate(buses)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in buses]
    for k, ln in enumerate(lines):
        for end in (ln.from_bus, ln.to_bus):
            if end not in index:
                raise FeederError(f"line {ln.from_bus}-{ln.to_bus} references unknown bus '{end}'")
        adjacency[index[ln.from_bus]].append((index[ln.to_bus], k))
        adjacency[index[ln.to_bus]].append((index[ln.from_bus], k))

    slack = index[slack_bus]
    parent = np.full(len(buses), -1)
    feeding_line = np.full(len(buses), -1)
    order, stack = [], [slack]
    while stack:
        bus = stack.pop()
        order.append(bus)
        children = []
        for child, k in sorted(adjacency[bus]):
            if child != slack and feeding_line[child] < 0:   # not reached yet
                parent[child], feeding_line[child] = bus, k
                children.append(child)
        stack.extend(reversed(children))
    if len(order) < len(buses):
        missing = [b for i, b in enumerate(buses) if i != slack and feeding_line[i] < 0]
        raise FeederError(f"feeder is disconnected: no path from slack to {missing}")
    return parent, feeding_line, np.array(order[1:], dtype=int)


def build_feeder(config: dict) -> FeederModel:
    """Validate a parsed feeder description and return the model.

    ``config`` keys: ``buses`` (list of ids), ``slack`` (id), ``lines``
    (list of (from, to, z_ohm 3x3)), ``households`` (id -> (bus, phase)),
    and optional ``base_voltage_v``, ``base_power_va``, ``slack_voltage_pu``.
    """
    buses = tuple(str(b) for b in config["buses"])
    if len(set(buses)) != len(buses):
        dupes = sorted({b for b in buses if list(buses).count(b) > 1})
        raise FeederError(f"duplicate bus ids: {dupes}")
    slack = str(config["slack"])
    lines = tuple(
        ln if isinstance(ln, LineSegment) else LineSegment(str(ln[0]), str(ln[1]), ln[2])
        for ln in config["lines"]
    )
    parent, feeding_line, order = _walk_tree(buses, slack, lines)

    for ln in lines:
        z = ln.z_ohm
        if not np.allclose(z, z.T, rtol=0.0, atol=1e-12):
            raise FeederError(f"line {ln.from_bus}-{ln.to_bus}: impedance matrix is not symmetric")
        if abs(np.linalg.det(z)) < 1e-15:
            raise FeederError(f"line {ln.from_bus}-{ln.to_bus}: singular impedance matrix")

    household_map: dict[str, tuple[str, int]] = {}
    taken: dict[tuple[str, int], str] = {}
    for hid, (bus, phase) in config["households"].items():
        hid = str(hid)
        bus = str(bus)
        phase = int(phase)
        if bus not in buses:
            raise FeederError(f"household '{hid}' maps to unknown bus '{bus}'")
        if bus == slack:
            raise FeederError(f"household '{hid}' may not connect to the slack bus")
        if phase not in (0, 1, 2):
            raise FeederError(f"household '{hid}': phase must be 0, 1 or 2, got {phase}")
        if (bus, phase) in taken:
            raise FeederError(
                f"duplicate connection ({bus}, phase {phase}): households "
                f"'{taken[(bus, phase)]}' and '{hid}'"
            )
        taken[(bus, phase)] = hid
        household_map[hid] = (bus, phase)

    base = BaseValues(
        voltage_v=float(config.get("base_voltage_v", 230.0)),
        power_va=float(config.get("base_power_va", 100_000.0)),
    )
    return FeederModel(
        buses=buses,
        slack_bus=slack,
        lines=lines,
        base=base,
        household_map=MappingProxyType(household_map),
        parent=parent,
        feeding_line=feeding_line,
        order=order,
        slack_voltage_pu=float(config.get("slack_voltage_pu", 1.0)),
    )


# A line block whose condition number exceeds this is numerically singular.
COND_MAX = 1e12


def assemble_admittance(feeder: FeederModel) -> AdmittanceModel:
    """Invert each line's per-unit series impedance onto the bus it feeds.

    Raises FeederError when an impedance block is numerically singular
    (condition number above ``COND_MAX``).
    """
    z_line = np.zeros((feeder.n_bus, 3, 3), dtype=complex)
    y_line = np.zeros((feeder.n_bus, 3, 3), dtype=complex)
    for bus in feeder.order.tolist():
        ln = feeder.lines[feeder.feeding_line[bus]]
        z_pu = ln.z_ohm / feeder.base.impedance_ohm
        if np.linalg.cond(z_pu) > COND_MAX:
            raise FeederError(
                f"line {ln.from_bus}-{ln.to_bus}: impedance condition number exceeds {COND_MAX:g}"
            )
        z_line[bus] = z_pu
        y_line[bus] = np.linalg.inv(z_pu)
    return AdmittanceModel(feeder=feeder, z_line_pu=z_line, y_line_pu=y_line)


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def _read_sections(path) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections.setdefault(current, [])
            elif current is None:
                raise ConfigError(f"{path}:{lineno}: content before any [section] header")
            else:
                sections[current].append(line)
    return sections


def _kv(lines, path, section):
    out = {}
    for line in lines:
        if "=" not in line:
            raise ConfigError(f"{path}: [{section}] expects 'key = value' lines, got '{line}'")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ConfigError(f"{path}: [{section}] {key} is set twice")
        out[key] = val.strip()
    return out


def _parse_triangle(fields, where):
    if len(fields) != 12:
        raise ConfigError(f"{where}: expected 6 (R, X) pairs, got {len(fields)} numbers")
    vals = [float(x) for x in fields]
    z = np.zeros((3, 3), dtype=complex)
    for k, (i, j) in enumerate(LOWER_TRIANGLE):
        z[i, j] = vals[2 * k] + 1j * vals[2 * k + 1]
        z[j, i] = z[i, j]
    return z


def load_feeder(path) -> FeederModel:
    """Parse a feeder config file and build the validated model.

    Sections: [base] (optional key=value), [buses] (one id per line),
    [slack] (single id), [conductors] (code + 6 lower-triangle (R, X)
    ohm/km pairs), [lines] (from to length_m code), [households]
    (id bus phase).  A line may also give 12 inline numbers in place of
    ``length_m code`` meaning ohms directly.
    """
    sections = _read_sections(path)
    for required in ("buses", "slack", "lines", "households"):
        if required not in sections:
            raise ConfigError(f"{path}: missing [{required}] section")

    base_kv = _kv(sections.get("base", []), path, "base")

    conductors = {}
    for line in sections.get("conductors", []):
        fields = line.split()
        code, rest = fields[0], fields[1:]
        conductors[code] = _parse_triangle(rest, f"{path}: conductor '{code}'")

    buses = [ln.split()[0] for ln in sections["buses"]]
    slack_lines = sections["slack"]
    if len(slack_lines) != 1 or len(slack_lines[0].split()) != 1:
        raise ConfigError(f"{path}: [slack] must name exactly one bus")
    slack = slack_lines[0].strip()

    lines = []
    for ln in sections["lines"]:
        fields = ln.split()
        if len(fields) == 4:
            frm, to, length_m, code = fields
            if code not in conductors:
                raise ConfigError(f"{path}: line {frm}-{to} references unknown conductor '{code}'")
            z = conductors[code] * (float(length_m) / 1000.0)
        elif len(fields) == 14:
            frm, to = fields[0], fields[1]
            z = _parse_triangle(fields[2:], f"{path}: line {frm}-{to}")
        else:
            raise ConfigError(
                f"{path}: line rows need 'from to length_m conductor' or "
                f"'from to' + 12 ohm values, got {len(fields)} fields"
            )
        lines.append((frm, to, z))

    households = {}
    for ln in sections["households"]:
        fields = ln.split()
        if len(fields) != 3:
            raise ConfigError(f"{path}: household rows need 'id bus phase', got '{ln}'")
        hid, bus, phase = fields
        if hid in households:
            raise ConfigError(f"{path}: duplicate household id '{hid}'")
        households[hid] = (bus, int(phase))

    config = {
        "buses": buses,
        "slack": slack,
        "lines": lines,
        "households": households,
    }
    for key in ("base_voltage_v", "base_power_va", "slack_voltage_pu"):
        if key in base_kv:
            config[key] = base_kv[key]
    return build_feeder(config)


def dump_feeder(feeder: FeederModel, path) -> None:
    """Write a feeder model back to the config format (round-trip exact)."""
    out = []
    out.append("[base]")
    out.append(f"base_voltage_v = {feeder.base.voltage_v!r}")
    out.append(f"base_power_va = {feeder.base.power_va!r}")
    out.append(f"slack_voltage_pu = {feeder.slack_voltage_pu!r}")
    out.append("[buses]")
    out.extend(feeder.buses)
    out.append("[slack]")
    out.append(feeder.slack_bus)
    out.append("[lines]")
    for ln in feeder.lines:
        vals = []
        for i, j in LOWER_TRIANGLE:
            vals.append(repr(float(ln.z_ohm[i, j].real)))
            vals.append(repr(float(ln.z_ohm[i, j].imag)))
        out.append(f"{ln.from_bus} {ln.to_bus} " + " ".join(vals))
    out.append("[households]")
    for hid, (bus, phase) in feeder.household_map.items():
        out.append(f"{hid} {bus} {phase}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
