"""Generate the 136-pole benchmark feeder from the shipped 34-pole feeder.

Four copies of feeder34's poles hang as laterals off its one transformer
(slack) bus: 1 + 4 * 34 = 137 buses and 4 * 102 = 408 households.  Copy
``k`` prefixes every pole and household id with ``c<k>``; conductor data,
line lengths and phase connections are copied unchanged, so the result is
radial by construction and derives only from ``configs/feeder34.cfg``.

Run ``python3 perfbench/feeder136.py OUT.cfg`` to write the file by hand.
"""

from __future__ import annotations

import sys
from pathlib import Path

COPIES = 4


def _sections(text: str) -> dict[str, list[str]]:
    """Section name -> content lines, comments and blank lines removed."""
    out: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            out.setdefault(current, [])
        elif current is None:
            raise ValueError(f"content before any [section] header: {line!r}")
        else:
            out[current].append(line)
    return out


def feeder136_text(feeder34_text: str) -> str:
    """Return the config text of COPIES feeder34 laterals on one slack bus."""
    sec = _sections(feeder34_text)
    slack = sec["slack"][0].split()[0]
    poles = [ln.split()[0] for ln in sec["buses"] if ln.split()[0] != slack]

    def rename(bus: str, k: int) -> str:
        return bus if bus == slack else f"c{k}{bus}"

    out = [
        f"# Generated: {COPIES} copies of feeder34's poles as laterals off bus {slack}.",
        f"# {1 + COPIES * len(poles)} buses, {COPIES * len(sec['households'])} households.",
        "[base]", *sec.get("base", []),
        "[conductors]", *sec.get("conductors", []),
        "[buses]", slack,
    ]
    out += [f"c{k}{bus}" for k in range(1, COPIES + 1) for bus in poles]
    out += ["[slack]", slack, "[lines]"]
    for k in range(1, COPIES + 1):
        for ln in sec["lines"]:
            frm, to, *rest = ln.split()
            out.append(" ".join([rename(frm, k), rename(to, k), *rest]))
    out.append("[households]")
    for k in range(1, COPIES + 1):
        for ln in sec["households"]:
            hid, bus, phase = ln.split()
            out.append(f"c{k}{hid} {rename(bus, k)} {phase}")
    return "\n".join(out) + "\n"


def write_feeder136(feeder34_path, out_path) -> Path:
    out = Path(out_path)
    out.write_text(feeder136_text(Path(feeder34_path).read_text(encoding="utf-8")),
                   encoding="utf-8")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: feeder136.py OUT.cfg")
    write_feeder136(Path(__file__).resolve().parent.parent / "configs" / "feeder34.cfg",
                    sys.argv[1])
