"""Write the check set of the tree this script lives in into a directory.

    python tests/check_set.py OUT_DIR

The check set is every output the `ecgstress` command gives on one fixed
synthetic dataset, from this tree's `src`:

- `evaluate/`: the `--out` JSON, the report, stdout, stderr and exit code of
  `evaluate` for all six methods at `--jobs 1`, `2` and `3`;
- `bundles/`: the `train` bundle of each method, with `created` blanked, and
  the run's stdout, stderr and exit code;
- `predict/`: the CSV, stderr and exit code of `predict` with each bundle on
  three held-out 20-s recordings (one per level), a 600-s one, on which the
  HRV methods' queue forks, and a flat 9-s one, on which every HRV window is
  skipped.

Data: 3 subjects x 3 levels x 24 s from `oracles.synth_ecg` at 256 Hz; every run
uses seed 3 and 3 epochs. Commands run with OUT_DIR as working directory and
relative paths, so the outputs of two trees are byte-identical exactly when
`diff -r parent_out change_out` prints nothing. Every command should exit 0:
if one does not, the script still writes the whole set, then names the stems
of those commands and exits 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from ecgstress.pipeline import METHODS  # noqa: E402
from ecgstress.signal_core import EcgRecording, save_label_track  # noqa: E402
from oracles import save_recording, synth_ecg  # noqa: E402

FS = 256.0
RUN_ARGS = ["--seed", "3", "--epochs", "3"]


def write_inputs(out: Path) -> list[str]:
    """The data directory and the held-out recordings; the held-out stems."""
    (out / "data").mkdir()
    (out / "held").mkdir()
    for s in range(3):
        for level in (0, 1, 2):
            rec, track = synth_ecg(level, 24.0, FS, 100 + 17 * s + level)
            rec = EcgRecording(subject_id=f"subj{s}", sample_rate_hz=FS, samples=rec.samples)
            stem = out / "data" / f"subj{s}_lvl{level}"
            save_recording(rec, f"{stem}.csv", f"{stem}.meta.json")
            save_label_track(track, f"{stem}.labels.csv")
    held = {f"new_lvl{level}": synth_ecg(level, 20.0, FS, 900 + level)[0] for level in (0, 1, 2)}
    held["long"] = synth_ecg(1, 600.0, FS, 903)[0]
    held["flat"] = EcgRecording(subject_id="flat", sample_rate_hz=FS, samples=np.zeros(9 * 256))
    for name, rec in held.items():
        save_recording(rec, out / "held" / f"{name}.csv", out / "held" / f"{name}.meta.json")
    return list(held)


def run(out: Path, stem: str, *args: str) -> int:
    """Run `ecgstress args` in out; keep its stdout, stderr and exit code beside stem."""
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "ecgstress.cli", *args], cwd=out, env=env,
                          capture_output=True, text=True)
    (out / f"{stem}.stdout").write_text(done.stdout)
    (out / f"{stem}.stderr").write_text(done.stderr)
    (out / f"{stem}.exit").write_text(f"{done.returncode}\n")
    return done.returncode


def main(out: Path) -> int:
    out.mkdir(parents=True)
    held = write_inputs(out)
    for sub in ("evaluate", "bundles", "predict"):
        (out / sub).mkdir()
    failed = []

    def check(stem: str, *args: str) -> None:
        if run(out, stem, *args) != 0:
            failed.append(stem)

    for method in METHODS:
        for jobs in (1, 2, 3):
            stem = f"evaluate/{method}.jobs{jobs}"
            check(stem, "evaluate", "--data", "data", "--method", method, *RUN_ARGS,
                  "--jobs", str(jobs), "--out", f"{stem}.json", "--report-out", f"{stem}.md")
        bundle = out / "bundles" / f"{method}.json"
        check(f"bundles/{method}", "train", "--data", "data", "--method", method, *RUN_ARGS,
              "--out", f"bundles/{method}.json")
        if bundle.exists():
            doc = json.loads(bundle.read_text())
            doc["created"] = ""
            bundle.write_text(json.dumps(doc))
        for name in held:
            stem = f"predict/{method}.{name}"
            check(stem, "predict", "--bundle", f"bundles/{method}.json",
                  "--signal", f"held/{name}.csv", "--meta", f"held/{name}.meta.json",
                  "--out", f"{stem}.csv")
    print(f"check set: {sum(1 for p in out.rglob('*') if p.is_file())} files in {out}")
    if failed:
        print(f"exited non-zero: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} OUT_DIR")
    sys.exit(main(Path(sys.argv[1])))
