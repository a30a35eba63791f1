#!/usr/bin/env python3
"""Benchmark of the `postdedup dedup` batch job.

Usage (from the root of a checkout):

    python3 bench/run.py --workload flat-2k --seed 7 --seconds 40 --trace 0

Inputs are generated from --seed with `synth_corpus`. Every run starts each
of its `dedup` commands in a fresh interpreter (bench/child.py) and repeats
until --seconds of measuring are used. With --trace 0 the runs are untraced
and the end-to-end metrics are printed; with --trace 1 untraced and traced
runs alternate, and the per-layer metrics are printed, together with the
tracing overhead (traced minus untraced run_s). Every run's outputs are
checked: each command exits 0, results.csv has one sha256 per command
across all runs, and macro-F1 against the gold pairs equals
EXPECTED_MACRO_F1. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, EXPECTED_MACRO_F1, HELD_OUT_SEED, WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

MIN_RUNS = 3  # untraced runs, even if --seconds is short
HARD_LIMIT_S = 150.0  # start no run that would end past this point of the benchmark's life
KILL_AT_S = 165.0  # kill any command still running at this point
COMMAND_TIMEOUT_S = 120.0
CLASSES = ("FULL", "SEMANTIC", "TEMPORAL")


@dataclass
class Run:
    traced: bool
    run_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    macro_f1: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    processes: list = field(default_factory=list)  # traced runs: child dumps


def macro_f1(predicted: dict, gold: dict) -> float:
    """Macro-F1 over the three duplicate classes; 0/0 ratios count as 0."""
    f1s = []
    for cls in CLASSES:
        tp = sum(1 for key, label in predicted.items() if label == cls and gold.get(key) == cls)
        n_pred = sum(1 for label in predicted.values() if label == cls)
        n_gold = sum(1 for label in gold.values() if label == cls)
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gold if n_gold else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / len(f1s)


def read_results(path: Path) -> tuple[dict, int]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [((r["id1"], r["id2"]), r["label"]) for r in csv.DictReader(fh)]
    return dict(rows), len(rows)


def spawn(argv: list[str], log: Path, deadline: float):
    """Run one process to exit; return (exit code, spawn, exit, rusage)."""
    with open(log, "wb") as out:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        timer = threading.Timer(max(1.0, deadline - started), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, started, ended, usage


def dir_sizes(out_dir: Path) -> tuple[int, int]:
    """Bytes of the .pdix index files and of all artifacts in an output dir."""
    files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.is_dir() else []
    index_bytes = sum(p.stat().st_size for p in files if p.suffix == ".pdix")
    return index_bytes, sum(p.stat().st_size for p in files)


class Bench:
    def __init__(self, inputs, work: Path, kill_at: float) -> None:
        self.inputs = inputs
        self.work = work
        self.kill_at = kill_at
        self.digests: dict[str, str] = {}  # command name -> results.csv sha256

    def run(self, traced: bool) -> Run:
        run = Run(traced=traced)
        for command in self.inputs.commands:
            shutil.rmtree(command.out_dir, ignore_errors=True)
        if self.inputs.cache_path is not None and self.inputs.cache_path.exists():
            self.inputs.cache_path.unlink()

        finished = []
        for command in self.inputs.commands:
            probe = self.work / f"probe-{command.name}.json"
            if probe.exists():
                probe.unlink()
            argv = [
                sys.executable, str(CHILD), str(SRC), "trace" if traced else "plain",
                str(probe), "--",
                *command.argv(self.inputs.dictionary, self.inputs.config),
            ]
            run.attempted += 1
            deadline = min(time.monotonic() + COMMAND_TIMEOUT_S, self.kill_at)
            if deadline - time.monotonic() < 1.0:
                run.failed += 1
                run.problems.append(f"{command.name}: not started, out of time")
                continue
            code, spawned, exited, usage = spawn(argv, self.work / f"log-{command.name}.txt", deadline)
            run.cpu_s += usage.ru_utime + usage.ru_stime
            run.peak_rss_mb = max(run.peak_rss_mb, usage.ru_maxrss / 1024.0)
            finished.append((command, probe, code, spawned, exited))
        if finished:
            run.run_s = finished[-1][4] - finished[0][3]

        # Outputs are checked only after the last command exits, so that no
        # checking work falls inside run_s.
        predicted_all: dict = {}
        gold_all: dict = {}
        for command in self.inputs.commands:
            gold_all.update(command.gold)
        for command, probe, code, spawned, exited in finished:
            problems = self._check(command, code, probe)
            results = command.out_dir / "results.csv"
            n_rows = 0
            if code == 0 and results.is_file():
                predicted, n_rows = read_results(results)
                predicted_all.update(predicted)
                score = macro_f1(predicted, command.gold)
                if n_rows != len(predicted):
                    problems.append(f"{command.name}: duplicate pairs in results.csv")
                if abs(score - EXPECTED_MACRO_F1) > 1e-12:
                    problems.append(f"{command.name}: macro-F1 {score:.6f} != {EXPECTED_MACRO_F1}")
            if code == 0 and probe.is_file():
                record = json.loads(probe.read_text(encoding="utf-8"))
                first_call = (
                    min((s[1] for s in record["spans"]), default=None)
                    if traced else record["first_call"]
                )
                if first_call is None:
                    problems.append(f"{command.name}: no pipeline layer call seen")
                else:
                    run.setup_s += first_call - spawned
                if traced:
                    index_bytes, artifact_bytes = dir_sizes(command.out_dir)
                    record.update(exit=exited, index_bytes=index_bytes,
                                  artifact_bytes=artifact_bytes, output_pairs=n_rows)
                    run.processes.append(record)
            if problems:
                run.failed += 1
                run.problems += problems
        run.macro_f1 = macro_f1(predicted_all, gold_all)
        return run

    def _check(self, command, code: int, probe: Path) -> list[str]:
        if code != 0:
            log = (self.work / f"log-{command.name}.txt").read_text(errors="replace")
            return [f"{command.name}: exit code {code}: {log.strip()[-300:]}"]
        results = command.out_dir / "results.csv"
        if not results.is_file() or not probe.is_file():
            return [f"{command.name}: missing results.csv or probe"]
        digest = hashlib.sha256(results.read_bytes()).hexdigest()
        expected = self.digests.setdefault(command.name, digest)
        if digest != expected:
            return [f"{command.name}: results.csv sha256 {digest[:12]} != {expected[:12]}"]
        return []


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads_env = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": threads_env or "unset",
        "platform": platform.platform(),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "?"


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def end_to_end(runs: list[Run], n_postings: int) -> dict:
    run_s = statistics.median([r.run_s for r in runs])
    return {
        "run_s": (run_s, "s"),
        "postings_per_s": (n_postings / run_s if run_s else 0.0, "1/s"),
        "cpu_s": (statistics.median([r.cpu_s for r in runs]), "s"),
        "setup_s": (statistics.median([r.setup_s for r in runs]), "s"),
        "peak_rss_mb": (statistics.median([r.peak_rss_mb for r in runs]), "MB"),
        "macro_f1": (statistics.median([r.macro_f1 for r in runs]), "ratio"),
    }


def per_layer(plain: list[Run], traced: list[Run]) -> dict:
    import tracing

    per_run = [tracing.layer_metrics(r.processes) for r in traced]
    out = {}
    for name, (_, unit) in per_run[0].items():
        out[name] = (statistics.median([m[name][0] for m in per_run]), unit)
    traced_s = statistics.median([r.run_s for r in traced])
    plain_s = statistics.median([r.run_s for r in plain])
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    return out


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "postdedup" / "cli.py").is_file():
        print(f"error: {SRC}/postdedup not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    load_before = os.getloadavg()
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(workload, args.seed, work)
        bench = Bench(inputs, work, kill_at=started + KILL_AT_S)
        warm = spawn([sys.executable, str(CHILD), str(SRC), "warmup", "-", "--"],
                     work / "log-warmup.txt", time.monotonic() + COMMAND_TIMEOUT_S)
        if warm[0] != 0:
            print("error: the program does not import; see the warm-up log", file=sys.stderr)
            return 3

        plain: list[Run] = []
        traced: list[Run] = []
        min_runs = 2 if args.trace else MIN_RUNS
        measure_from = time.monotonic()
        cycles = []
        while True:
            cycle_start = time.monotonic()
            plain.append(bench.run(traced=False))
            if args.trace:
                traced.append(bench.run(traced=True))
            now = time.monotonic()
            cycles.append(now - cycle_start)
            expected_end = now + statistics.median(cycles)
            if expected_end > started + HARD_LIMIT_S:
                break
            if len(plain) >= min_runs and expected_end > measure_from + args.seconds:
                break
        measured_s = time.monotonic() - measure_from
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    runs = plain + traced
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, inputs.n_postings)

    machine = machine_info()
    machine.update(load_before=load_before, load_after=load_after)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} (held-out seed for claims: {HELD_OUT_SEED}); "
          f"{len(inputs.commands)} command(s), {inputs.n_postings} postings per run")
    print("machine " + json.dumps(machine))
    print(f"{len(plain)} untraced and {len(traced)} traced runs in {measured_s:.1f} s")
    for r in runs:
        print(f"  {'traced ' if r.traced else 'plain  '} run_s={r.run_s:.3f} cpu_s={r.cpu_s:.3f} "
              f"setup_s={r.setup_s:.3f} peak_rss_mb={r.peak_rss_mb:.1f} macro_f1={r.macro_f1:.4f}")
    for problem in [p for r in runs for p in r.problems]:
        print(f"  FAILED CHECK {problem}")
    missing = sorted({m for r in traced for p in r.processes for m in p["missing"]})
    if missing:
        print(f"  not traced (names not found): {', '.join(missing)}")
    print(f"failed_fraction {failed / attempted if attempted else 1.0:.4f} "
          f"({failed} of {attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
