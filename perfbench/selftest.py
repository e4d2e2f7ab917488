"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at a tiny size, traced and untraced, and checks that
the metric names and units are those BENCHMARK.json lists, and that a run
whose outputs fail their check counts its operations as failed. It feeds each
output check a real output, which must pass, and a deliberately wrong one,
which must fail. Last, it runs the benchmark in a directory without the
program's sources, where it must exit non-zero without a result.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import checks
import run

TINY = run.Sizes(
    fusion_subjects=2, fusion_segment_s=4.0, epochs=1, fusion_floor=0.0,
    hrv_subjects=3, hrv_segment_s=8.0, hrv_floor=0.5, hr_samples=4, predict_s=6.5,
    predict_floor=0.0,
)


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    return ok


def rejects(name: str, check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        return report(name, True, f"rejected ({exc})")
    return report(name, False, "a wrong output was accepted")


def accepts(name: str, check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        return report(name, False, f"a right output was rejected ({exc})")
    return report(name, True)


def tiny_runs(spec: dict) -> bool:
    ok = True
    for workload in run.WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, seed=1, seconds=0.0, traced=traced, sizes=TINY)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            listed = {m["name"]: m["unit"] for m in spec[key]}
            good = result["correct"] and result["failed"] == 0 and units == listed
            ok &= report(f"tiny {workload} trace={int(traced)}", good,
                         "" if good else json.dumps(result))
    return ok


def wrong_outputs_fail() -> bool:
    """An operation whose output fails a check is a failed operation. Every
    output misses an accuracy floor above 1."""
    sizes = dataclasses.replace(TINY, hrv_floor=1.01)
    result = run.run("loso_hrv", seed=1, seconds=0.0, traced=False, sizes=sizes)
    good = not result["correct"] and result["failed"] == result["attempted"] > 0
    return report("tiny loso_hrv, outputs below the floor are failed operations", good,
                  json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}))


def loso_checks(workdir) -> bool:
    """A real svm_hrv result, then the same with a window counted twice and
    with the predicted levels shuffled."""
    import ecgstress
    from ecgstress import cli

    workload = run.LosoHrv(1, TINY)
    workload.setup(workdir)
    op = workload.round()[0]
    ran = all(cli.main(argv) == 0 for argv in op.argvs)
    result = json.loads((workdir / "svm_hrv.json").read_text())
    args = ("svm_hrv", workload.counts, TINY.hrv_floor)
    ok = report("tiny loso_hrv ran", ran)
    ok &= accepts("loso check, real output", checks.check_loso, result, *args)

    twice = copy.deepcopy(result)
    twice["per_fold"][0][1]["confusion"][0][0] += 1
    ok &= rejects("loso check, a window counted twice", checks.check_loso, twice, *args)

    shuffled = copy.deepcopy(result)
    for _, m in shuffled["per_fold"]:
        conf = np.roll(np.asarray(m["confusion"]), 1, axis=1)
        m["confusion"] = conf.tolist()
        m["accuracy"] = float(np.trace(conf) / conf.sum())
    shuffled["mean"]["confusion"] = np.sum(
        [m["confusion"] for _, m in shuffled["per_fold"]], axis=0).tolist()
    shuffled["mean"]["accuracy"] = float(np.mean([m["accuracy"] for _, m in shuffled["per_fold"]]))
    ok &= rejects("loso check, levels shuffled", checks.check_loso, shuffled, *args)

    windows, fs = workload._data_windows(ecgstress, 4.0)
    w = windows[0]
    start = w.start_sample / fs
    beats = workload.subjects[0].beats_in(start, start + 4.0)
    hr = float(ecgstress.hrv.hrv_vector(w, fs)[0])
    ok &= accepts("hr check, real hr_bpm", checks.check_hr, hr, beats)
    ok &= rejects("hr check, hr_bpm perturbed by 5 %", checks.check_hr, hr * 1.05, beats)
    return ok


def predict_checks(workdir) -> bool:
    """Real predict outputs, then with timestamps shifted by one window, a row
    dropped, and levels shuffled between recordings of different levels."""
    from ecgstress import cli

    workload = run.PredictCli(1, TINY)
    workload.setup(workdir)
    ok = True
    texts = []
    for level, op in enumerate(workload.round()):
        ok &= report(f"tiny predict_cli level {level} ran", cli.main(op.argvs[0]) == 0)
        texts.append((workdir / f"heldout{level}.pred.csv").read_text())
    duration = workload.heldout[0].duration_s
    ok &= accepts("predict check, real output", checks.check_predict, texts[0], duration, 1.0, 0, 0.0)

    header, *rows = texts[0].splitlines()
    shifted = "\n".join([header] + [f"{float(r.split(',')[0]) + 1.0}," + r.split(",", 1)[1]
                                    for r in rows])
    ok &= rejects("predict check, timestamps shifted", checks.check_predict,
                  shifted, duration, 1.0, 0, 0.0)
    ok &= rejects("predict check, a row dropped", checks.check_predict,
                  "\n".join([header] + rows[:-1]), duration, 1.0, 0, 0.0)

    # The tiny bundle is barely trained, so the level floor is shown on
    # outputs that are right by construction.
    def stream(level):
        onehot = ",".join("1.0" if c == level else "0.0" for c in range(3))
        return "start_s,level,prob0,prob1,prob2\n" + "".join(
            f"{float(i)},{level},{onehot}\n" for i in range(int(duration)))

    ok &= accepts("predict check, true levels", checks.check_predict,
                  stream(1), duration, 1.0, 1, 0.95)
    ok &= rejects("predict check, levels shuffled between recordings", checks.check_predict,
                  stream(2), duration, 1.0, 1, 0.95)
    return ok


def without_sources() -> bool:
    """The benchmark alone, without src/, must fail without a result."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loso_hrv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    return report("without sources", proc.returncode != 0 and not proc.stdout.strip(),
                  f"exit {proc.returncode}")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ok = tiny_runs(spec)
        ok &= wrong_outputs_fail()
        ok &= loso_checks(workdir / "loso")
        ok &= predict_checks(workdir / "predict")
        ok &= without_sources()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
