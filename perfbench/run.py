"""Benchmark of ecgstress: LOSO fusion, LOSO HRV and CLI predict.

Run from the repository root:

    python3 perfbench/run.py --workload loso_fusion --seed 1 --seconds 15 --trace 0

The program is called in-process through its public entry points
(``ecgstress.cli.main``), one caller in a closed loop, ``--jobs 1``. Inputs are
generated from the seed by perfbench/inputs.py. Every output is checked. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the run is traced and they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Set-up is made MIN_SETUPS times before the first operation, then again after
# operations whenever set-up time falls below SETUP_SHARE of operation time,
# so that a short set-up is timed many times over the whole run. The host's
# speed changes by up to 1.8x for seconds to minutes at a time; set-ups made in
# one burst would all see one speed.
MIN_SETUPS = 3
SETUP_SHARE = 0.1


@dataclass(frozen=True)
class Sizes:
    """Input sizes and the accuracy floors that hold at them."""

    fusion_subjects: int = 4
    fusion_segment_s: float = 4.0
    fusion_repeats: int = 4
    epochs: int = 10
    learning_rate: float = 0.02
    fusion_floor: float = 0.8
    hrv_subjects: int = 9
    hrv_segment_s: float = 24.0
    hrv_floor: float = 0.8
    hr_samples: int = 24
    predict_s: float = 180.5
    predict_floor: float = 0.7


@dataclass
class Op:
    """One operation: CLI calls made in turn, then a check of their outputs.

    check returns the number of windows the operation classified.
    """

    argvs: list
    check: Callable[[], int]


class Workload:
    def __init__(self, seed: int, sizes: Sizes, traced: bool = False):
        self.seed = seed
        self.sizes = sizes
        self.traced = traced
        self.dir = None

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def final_check(self, package) -> None:
        """Checks made once per run, after the measured operations."""

    def probe_windows(self, package):
        """32 of the workload's own 1-s windows for the CNN layer probe, or None."""
        windows, _ = self._data_windows(package, 1.0)
        pick = np.random.default_rng([self.seed, 5]).choice(len(windows), 32, replace=False)
        return [windows[i] for i in sorted(pick)]

    def _fusion_subjects(self):
        s = self.sizes
        return inputs.make_subjects(
            self.seed, 1, s.fusion_subjects, s.fusion_segment_s, s.fusion_repeats, False)

    def _training_flags(self) -> list[str]:
        s = self.sizes
        return ["--method", "fusion_weighted", "--epochs", str(s.epochs),
                "--learning-rate", str(s.learning_rate), "--seed", str(self.seed)]

    def _evaluate(self, method: str, counts: dict, floor: float) -> Op:
        out = self.dir / f"{method}.json"
        flags = self._training_flags() if method == "fusion_weighted" else [
            "--method", method, "--seed", str(self.seed)]
        argv = ["evaluate", "--data", str(self.dir / "data"), *flags, "--jobs", "1",
                "--out", str(out), "--report-out", str(self.dir / f"{method}.md"), "--force"]
        return Op([argv], lambda: checks.check_loso(
            json.loads(out.read_text()), method, counts, floor))

    def _data_windows(self, package, window_s: float):
        data, fs = package.cli.load_data_dir(self.dir / "data", window_s)
        return list(data.windows), fs


class LosoFusion(Workload):
    """Weighted-fusion LOSO: CNN training dominates every fold."""

    def setup(self, directory):
        self.dir = directory
        subjects = self._fusion_subjects()
        for rec in subjects:
            inputs.write_recording(rec, directory / "data")
        self.counts = {rec.subject_id: rec.window_counts(1.0) for rec in subjects}

    def round(self):
        return [self._evaluate("fusion_weighted", self.counts, self.sizes.fusion_floor)]


class LosoHrv(Workload):
    """HRV + SVM, then HRV + KNN, LOSO over nine subjects: no CNN at all."""

    def setup(self, directory):
        self.dir = directory
        s = self.sizes
        self.subjects = inputs.make_subjects(self.seed, 2, s.hrv_subjects, s.hrv_segment_s, 1, True)
        for rec in self.subjects:
            inputs.write_recording(rec, directory / "data")
        self.counts = {rec.subject_id: rec.window_counts(4.0) for rec in self.subjects}

    def round(self):
        svm = self._evaluate("svm_hrv", self.counts, self.sizes.hrv_floor)
        knn = self._evaluate("knn_hrv", self.counts, self.sizes.hrv_floor)
        return [Op(svm.argvs + knn.argvs, lambda: svm.check() + knn.check())]

    def probe_windows(self, package):
        return None

    def final_check(self, package):
        """hr_bpm of sampled windows against the generator's beat times."""
        windows, fs = self._data_windows(package, 4.0)
        by_subject = {rec.subject_id: rec for rec in self.subjects}
        rng = np.random.default_rng([self.seed, 4])
        for i in rng.choice(len(windows), self.sizes.hr_samples, replace=False):
            w = windows[i]
            vec = package.hrv.hrv_vector(w, fs)
            if vec is None:
                raise checks.CheckFailed(f"window {w.subject_id}@{w.start_sample} yielded no HRV")
            start = w.start_sample / fs
            beats = by_subject[w.subject_id].beats_in(start, start + w.length_samples / fs)
            checks.check_hr(float(vec[0]), beats)


class PredictCli(Workload):
    """`ecgstress predict` of held-out recordings from a trained fusion bundle."""

    def setup(self, directory):
        self.dir = directory
        for rec in self._fusion_subjects():
            inputs.write_recording(rec, directory / "data")
        rng = np.random.default_rng([self.seed, 3])
        seg = self.sizes.fusion_segment_s
        count = int(self.sizes.predict_s // seg)
        self.heldout = [
            inputs.make_recording(f"heldout{level}", "heldout", [level] * count, seg, rng, False,
                                  tail_s=self.sizes.predict_s - count * seg)
            for level in range(3)
        ]
        for rec in self.heldout:
            inputs.write_recording(rec, directory / "heldout", with_labels=False)
        argv = ["train", "--data", str(directory / "data"), *self._training_flags(),
                "--out", str(directory / "bundle.json"), "--force"]
        from ecgstress import cli

        def train() -> int:
            with contextlib.redirect_stdout(sys.stderr):
                return cli.main(argv)

        # Untraced, training runs in a child process, so that peak_rss_mb is the
        # peak of the predict operations and not of training. Traced, it runs
        # here, where its layers are recorded.
        if (train() if self.traced else in_child(train)) != 0:
            raise RuntimeError(f"set-up failed: ecgstress {' '.join(argv)}")

    def round(self):
        return [self._predict(rec, level) for level, rec in enumerate(self.heldout)]

    def _predict(self, rec, level) -> Op:
        base = self.dir / "heldout" / rec.name
        out = self.dir / f"{rec.name}.pred.csv"
        argv = ["predict", "--bundle", str(self.dir / "bundle.json"), "--signal", f"{base}.csv",
                "--meta", f"{base}.meta.json", "--out", str(out)]
        return Op([argv], lambda: checks.check_predict(
            out.read_text(), rec.duration_s, 1.0, level, self.sizes.predict_floor))


def in_child(fn: Callable[[], int]) -> int:
    """Run fn in a forked child process, wait for it and return its exit code."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = fn()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


WORKLOADS = {"loso_fusion": LosoFusion, "loso_hrv": LosoHrv, "predict_cli": PredictCli}

END_TO_END_UNITS = {
    "setup_s": "s", "op_ms_p50": "ms", "windows_per_s": "windows/s", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return {"hrv.calls_per_window": "calls/window", "bundle.size_kb": "kB",
            "trace.top_level_pct": "%"}.get(name, "count")


def run(name: str, seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes()) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import ecgstress
    from ecgstress import bundle, classifiers, cli, fusion, hrv, neuralnet, pipeline  # noqa: F401

    workdir = OUT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[name](seed, sizes, traced)
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install(ecgstress)
    correct, attempted, failed = True, 0, 0
    setup_s, times, windows, spent, op_total = [], [], 0, 0.0, 0.0

    def setup() -> None:
        # Two directories in turn: the operations read the last complete one.
        directory = workdir / f"setup{len(setup_s) % 2}"
        shutil.rmtree(directory, ignore_errors=True)
        t0 = time.perf_counter()
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            workload.setup(directory)
        setup_s.append(time.perf_counter() - t0)

    try:
        while len(setup_s) < MIN_SETUPS:
            setup()
        while attempted < 2 or spent < seconds:
            for op in workload.round():
                attempted += 1
                warmup = attempted == 1
                t0 = time.perf_counter()
                with tracer.span("warmup" if warmup else "op") if tracer else contextlib.nullcontext():
                    try:
                        ok = all(cli.main(argv) == 0 for argv in op.argvs)
                    except Exception:
                        traceback.print_exc()
                        ok = False
                elapsed = time.perf_counter() - t0
                op_total += elapsed
                spent += 0.0 if warmup else elapsed
                if ok:
                    try:
                        classified = op.check()
                    except checks.CheckFailed as exc:
                        print(f"check failed: {exc}", file=sys.stderr)
                        correct = ok = False
                # A wrong output is a failed operation: its time is not measured.
                if not ok:
                    failed += 1
                elif not warmup:
                    times.append(elapsed)
                    windows += classified
            while sum(setup_s) < SETUP_SHARE * op_total:
                setup()
        if tracer:
            tracer.uninstall()
        try:
            workload.final_check(ecgstress)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        if tracer:
            metrics = tracer.summarize(windows / len(times) if times else 0.0)
            probe = workload.probe_windows(ecgstress)
            metrics.update(
                tracing.probe_layers(neuralnet, pipeline, probe, seed) if probe
                else dict.fromkeys(tracing.probe_names(neuralnet), 0.0)
            )
            tracer.write(OUT / f"trace-{name}-s{seed}.json")
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "op_ms_p50": 1000.0 * statistics.median(times) if times else 0.0,
                "windows_per_s": windows / sum(times) if times else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name} seed {seed}: set-ups {[round(t, 3) for t in setup_s]} s, "
          f"operations {[round(t, 3) for t in times]} s", file=sys.stderr)
    units = END_TO_END_UNITS if not traced else {k: per_layer_unit(k) for k in metrics}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ecgstress" / "cli.py").is_file():
        print(f"perfbench: no ecgstress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
