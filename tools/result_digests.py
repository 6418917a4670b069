"""Print the SHA-256 digest of the result files of every reference run.

Usage: python3 tools/result_digests.py

A refactor that must keep results byte-identical runs this before and after
the change and compares the two outputs line by line.  Each line is
``workload seed sha256``, the digest taken over every result file except
``manifest.txt`` (which holds wall-clock times).  The runs are the
benchmark's four workloads at a few seeds each, built from the shipped
configs exactly as ``perfbench/run.py`` builds them, plus four overrides of
the study34 config: an hour with forecast noise, a full working day, the
signals written by ``write_profiles`` and read back through ``profile_dir``,
and an hour with 0.5 kW static export and import limits.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

# Importing worker caps the BLAS threads and puts this checkout's src/ first.
from worker import digest  # noqa: E402
from workloads import prepare  # noqa: E402

from doesim import (DoesimError, load_feeder, load_profiles, load_study_config,  # noqa: E402
                    run_study, synthesize_households)
from doesim.scenarios import parse_hms, write_profiles  # noqa: E402

RUNS = (
    *(("study34", seed) for seed in (7, 36, 123, 309, 2, 501)),
    *(("binding", seed) for seed in (7, 36, 123, 309, 2, 501)),
    *(("replay", seed) for seed in (7, 36, 123, 309)),
    *(("feeder136", seed) for seed in (7, 36, 123, 309, 109)),
)

HOUR = {"window_start_s": parse_hms("10:00"), "window_end_s": parse_hms("11:00")}


def _profile_files(cfg, work: Path) -> dict:
    """The run's own synthesized signals, written to files and read back from them."""
    feeder = load_feeder(cfg.feeder_path)
    households = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    write_profiles(load_profiles(cfg, households), work / "profiles")
    return {"profile_dir": str(work / "profiles")}


# name -> (seed, (study34 config, work dir) -> its StudyConfig overrides)
CUSTOM = {
    "study34[10:00-11:00,forecast_noise=0.05]": (7, lambda cfg, work: {
        **HOUR, "forecast_noise": 0.05}),
    "study34[08:00-16:00]": (309, lambda cfg, work: {
        "window_start_s": parse_hms("08:00"), "window_end_s": parse_hms("16:00")}),
    "study34[profile_dir]": (7, _profile_files),
    "study34[10:00-11:00,limits=0.5]": (7, lambda cfg, work: {
        **HOUR, "households": replace(cfg.households, export_limit_kw=0.5,
                                      import_limit_kw=0.5)}),
}


def run_digest(cfg, out: Path, envelope_dir=None) -> str:
    """Digest of one run's result files; a run that aborts is digested as it stands."""
    try:
        run_study(cfg, out, envelope_dir=envelope_dir)
    except DoesimError as exc:
        print(f"{out.name}: aborted with {type(exc).__name__}: {exc}", file=sys.stderr)
    return digest(out)[0]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="result_digests-") as tmp:
        work = Path(tmp)
        for name, seed in RUNS:
            inputs = prepare(root, work / f"{name}-{seed}", name, seed)
            sha = run_digest(load_study_config(inputs.study_cfg),
                             work / f"{name}-{seed}" / "out", inputs.envelope_dir)
            print(f"{name} {seed} {sha}", flush=True)
        for k, (name, (seed, overrides)) in enumerate(CUSTOM.items()):
            inputs = prepare(root, work / f"custom-{k}", "study34", seed)
            cfg = load_study_config(inputs.study_cfg)
            cfg = replace(cfg, **overrides(cfg, work / f"custom-{k}"))
            print(f"{name} {seed} {run_digest(cfg, work / f'custom-{k}' / 'out')}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
