"""Print the SHA-256 digest of the result files of every reference run.

Usage: python3 tools/result_digests.py

A refactor that must keep results byte-identical runs this before and after
the change and compares the two outputs line by line.  Each line is
``workload seed sha256``, the digest taken over every result file except
``manifest.txt`` (which holds wall-clock times).  The runs are the
benchmark's four workloads at a few seeds each, built from the shipped
configs exactly as ``perfbench/run.py`` builds them, plus two overrides of
the study34 config: an hour with forecast noise, and a full working day.
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

from doesim import DoesimError, load_study_config, run_study  # noqa: E402
from doesim.scenarios import parse_hms  # noqa: E402

RUNS = (
    *(("study34", seed) for seed in (7, 36, 123, 309, 2, 501)),
    *(("binding", seed) for seed in (7, 36, 123, 309, 2, 501)),
    *(("replay", seed) for seed in (7, 36, 123, 309)),
    *(("feeder136", seed) for seed in (7, 36, 123, 309, 109)),
)

# name -> (seed, StudyConfig overrides of the study34 config)
CUSTOM = {
    "study34[10:00-11:00,forecast_noise=0.05]": (7, {
        "window_start_s": parse_hms("10:00"), "window_end_s": parse_hms("11:00"),
        "forecast_noise": 0.05}),
    "study34[08:00-16:00]": (309, {
        "window_start_s": parse_hms("08:00"), "window_end_s": parse_hms("16:00")}),
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
            cfg = replace(load_study_config(inputs.study_cfg), **overrides)
            print(f"{name} {seed} {run_digest(cfg, work / f'custom-{k}' / 'out')}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
