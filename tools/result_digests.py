"""Print the SHA-256 digest of the result files of every reference run.

Usage: python3 tools/result_digests.py [--check | --sweep]

A refactor that must keep results byte-identical runs this before and after
the change and compares the two outputs line by line.  With ``--check`` it
compares its lines with the committed ``tools/result_digests.ref`` instead,
prints the lines that differ and exits 1 when any does.  With ``--sweep`` it
prints the lines of a wider seed sweep instead (``SWEEP``: 53 runs, about
30 s on 2 vCPUs), which has no reference file: run it at the parent and
after the change and compare the outputs.  The reference was
taken with numpy 2.4.6 and OpenBLAS 0.3.31; another BLAS build can round
the load flow differently and change digests.  Each line is
``workload seed sha256``, the digest taken over every result file except
``manifest.txt`` (which holds wall-clock times).  The runs are the
benchmark's four workloads at a few seeds each, built from the shipped
configs exactly as ``perfbench/run.py`` builds them, plus four overrides of
the study34 config: an hour with forecast noise, a full working day, the
signals written by ``write_profiles`` and read back through ``profile_dir``,
and an hour with 0.5 kW static export and import limits.
"""

from __future__ import annotations

import argparse
import itertools
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

# Plain workload runs over consecutive seeds, for --sweep.
SWEEP = (
    *(("study34", seed) for seed in range(30)),
    *(("binding", seed) for seed in range(15)),
    *(("feeder136", seed) for seed in range(8)),
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


def digest_lines(root: Path, runs=RUNS, custom=CUSTOM):
    """Yield one ``workload seed sha256`` line per run, ``runs`` then ``custom``, in order."""
    with tempfile.TemporaryDirectory(prefix="result_digests-") as tmp:
        work = Path(tmp)
        for name, seed in runs:
            inputs = prepare(root, work / f"{name}-{seed}", name, seed)
            sha = run_digest(load_study_config(inputs.study_cfg),
                             work / f"{name}-{seed}" / "out", inputs.envelope_dir)
            yield f"{name} {seed} {sha}"
        for k, (name, (seed, overrides)) in enumerate(custom.items()):
            inputs = prepare(root, work / f"custom-{k}", "study34", seed)
            cfg = load_study_config(inputs.study_cfg)
            cfg = replace(cfg, **overrides(cfg, work / f"custom-{k}"))
            yield f"{name} {seed} {run_digest(cfg, work / f'custom-{k}' / 'out')}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with tools/result_digests.ref; exit 1 on any difference")
    mode.add_argument("--sweep", action="store_true",
                      help="print the seed sweep's lines instead of the reference runs'")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    if not args.check:
        for line in digest_lines(root, SWEEP, {}) if args.sweep else digest_lines(root):
            print(line, flush=True)
        return 0
    reference = (root / "tools" / "result_digests.ref").read_text().splitlines()
    pairs = list(itertools.zip_longest(reference, digest_lines(root), fillvalue="(no line)"))
    differing = [(want, got) for want, got in pairs if want != got]
    for want, got in differing:
        print(f"- {want}\n+ {got}")
    print(f"{len(differing)} of {len(pairs)} lines differ from tools/result_digests.ref")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
