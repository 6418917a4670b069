"""The benchmark's workloads and the study inputs each one is built from.

Every workload is a closed loop: one ``run_study`` call at a time in one
process, the next starting when the previous returns.  Inputs are written
into a work directory from the shipped configs and the workload seed; the
program only ever reads those generated files.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from feeder136 import write_feeder136

# A binding study's most stressed control step keeps this many of its
# screened scenarios inside the band, about what seed 7 keeps at v_hi = 1.06.
BINDING_SURVIVORS = 10
# seed -> binding's v_hi, calibrated once when the benchmark was added, so
# that a later program change cannot move the workload's input.
V_HI_TABLE = Path(__file__).resolve().parent / "binding_v_hi.json"

SMOKE_SCENARIOS = 20


# Workloads whose voltage, comfort and tracking gates must hold.  binding is
# left out on purpose: its guarantee failures are the defect it measures.
GATED = {"study34", "replay", "feeder136"}


@dataclass(frozen=True)
class Inputs:
    study_cfg: Path
    envelope_dir: Path | None = None
    v_hi: float | None = None


def override_config(text: str, values: dict[str, dict[str, str]]) -> str:
    """Replace ``key = value`` lines of the named sections; every key must exist."""
    out = []
    section = None
    pending = {sec: dict(kv) for sec, kv in values.items()}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
        elif "=" in line and section in pending:
            key = line.split("=", 1)[0].strip().lower()
            if key in pending[section]:
                raw = f"{key} = {pending[section].pop(key)}"
        out.append(raw)
    missing = {sec: sorted(kv) for sec, kv in pending.items() if kv}
    if missing:
        raise ValueError(f"shipped study config lacks keys {missing}")
    return "\n".join(out) + "\n"


def write_study(root: Path, workdir: Path, name: str, seed: int, smoke: bool,
                v_hi: float | None = None) -> Path:
    """Write the workload's study config (and feeder) into ``workdir``."""
    configs = root / "configs"
    study = {"seed": str(seed)}
    households = {}
    if name == "feeder136":
        write_feeder136(configs / "feeder34.cfg", workdir / "feeder136.cfg")
        study.update(feeder="feeder136.cfg", window_start="10:00", window_end="11:00")
        households = {"doe": "120", "nondoe": "64", "passive": "224"}
    else:
        shutil.copyfile(configs / "feeder34.cfg", workdir / "feeder34.cfg")
        study["feeder"] = "feeder34.cfg"
    if name == "replay":
        study.update(window_start="08:00", window_end="16:00")
    if v_hi is not None:
        study["v_hi"] = repr(v_hi)
    if smoke:
        study.update(window_start="10:00", window_end="10:05", scenarios=str(SMOKE_SCENARIOS))
    values = {"study": study}
    if households:
        values["households"] = households
    text = override_config((configs / "study34.cfg").read_text(encoding="utf-8"), values)
    path = workdir / "study.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def binding_v_hi(peaks_per_step) -> float:
    """Upper band limit that leaves exactly BINDING_SURVIVORS scenarios at the tightest step.

    ``peaks_per_step`` holds, per control step, each screened scenario's
    highest node voltage (inf where the scenario failed for another reason).
    The limit sits midway between the tightest step's BINDING_SURVIVORS-th
    and next-lowest peak, so every other step keeps at least as many.
    """
    k = BINDING_SURVIVORS
    tightest = max((sorted(peaks) for peaks in peaks_per_step), key=lambda ranked: ranked[k - 1])
    lo, hi = tightest[k - 1], tightest[k]
    if not math.isfinite(hi):
        raise RuntimeError(f"fewer than {k + 1} screenable scenarios at some step")
    return (lo + hi) / 2.0


def screen_peaks(cfg, out_dir) -> list:
    """Run the envelope stage once with the band open and record screening peaks."""
    import numpy as np

    from doesim import run_study
    from tracing import Tracer

    peaks = []

    def record(counts, args, out):
        mags = np.abs(out[0])
        ok = out[3] & (mags.min(axis=(1, 2)) >= cfg.v_lo)
        peaks.append(np.where(ok, mags.max(axis=(1, 2)), np.inf).tolist())

    plan = (("span", "doesim.envelopes:solve_batch", "powerflow.screen", record),)
    with Tracer(plan).installed():
        run_study(replace(cfg, v_hi=math.inf), out_dir, envelopes_only=True)
    return peaks


def calibrate_v_hi(root: Path, workdir: Path, seed: int, smoke: bool = False) -> float:
    """Calibrate binding's v_hi for ``seed`` by screening with this checkout's doesim."""
    from doesim import load_study_config

    cfg_path = write_study(root, workdir, "binding", seed, smoke)
    return binding_v_hi(screen_peaks(load_study_config(cfg_path), workdir / "calibrate"))


def v_hi_table() -> dict[int, float]:
    if not V_HI_TABLE.exists():
        return {}
    return {int(k): v for k, v in json.loads(V_HI_TABLE.read_text(encoding="utf-8")).items()}


def binding_v_hi_for(root: Path, workdir: Path, seed: int, smoke: bool) -> float:
    """binding's v_hi for ``seed``: from the committed table, else calibrated now."""
    table = {} if smoke else v_hi_table()
    if seed in table:
        return table[seed]
    if not smoke:
        print(f"warning: seed {seed} is not in {V_HI_TABLE.name}; calibrating binding's "
              "v_hi with the program under test, so a program change can move this "
              "workload's input", file=sys.stderr)
    return calibrate_v_hi(root, workdir, seed, smoke)


def prepare(root: Path, workdir: Path, name: str, seed: int, smoke: bool = False) -> Inputs:
    """Build the workload's inputs; none of this is timed."""
    from doesim import load_study_config, run_study

    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = write_study(root, workdir, name, seed, smoke)
    if name == "binding":
        v_hi = binding_v_hi_for(root, workdir, seed, smoke)
        return Inputs(write_study(root, workdir, name, seed, smoke, v_hi=v_hi), v_hi=v_hi)
    if name == "replay":
        run_study(load_study_config(cfg_path), workdir / "envelope_run", envelopes_only=True)
        return Inputs(cfg_path, envelope_dir=workdir / "envelope_run" / "envelopes")
    return Inputs(cfg_path)


def main(argv: list[str]) -> None:
    """``workloads.py FIRST LAST``: add seeds FIRST..LAST to binding's v_hi table."""
    from common import ROOT, cap_threads, use_source_tree

    cap_threads()
    use_source_tree()
    first, last = (int(a) for a in argv)
    table = v_hi_table()
    for seed in range(first, last + 1):
        if seed not in table:
            workdir = ROOT / ".perfbench_work" / f"calibrate-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                table[seed] = calibrate_v_hi(ROOT, workdir, seed)
            except RuntimeError as exc:
                print(f"seed {seed} left out: {exc}", file=sys.stderr)
            shutil.rmtree(workdir)
            V_HI_TABLE.write_text(json.dumps({str(k): table[k] for k in sorted(table)},
                                             indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: workloads.py FIRST_SEED LAST_SEED")
    main(sys.argv[1:])
