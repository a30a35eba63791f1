#!/usr/bin/env python3
"""Check that two checkouts write the same artifacts for a bench workload.

Usage:

    python3 scripts/compare_outputs.py BASE_CHECKOUT HEAD_CHECKOUT \\
        --workload flat-2k --seed 7

The workload's inputs are generated from the seed with
`bench/workloads.make_inputs` of HEAD_CHECKOUT (which the script only
imports), once for each side, in a fresh directory. Every `postdedup dedup`
command of the workload then runs in a fresh interpreter from that side's
`src/`. After each one, the script writes that command's gold pairs as
`gold.csv` in its output directory, and runs `eval` and `report --format
json` there; the report's output is kept as `report-format-json.out`.
Afterwards every file of every output directory is compared byte for
byte (`eval.json` included), except `report.json` and the report's
output, which are compared as JSON without the run's `stage_seconds` (the
timings), and the translation cache, which is compared record by record
without its per-run `timestamp`. The script prints each artifact that
differs, and for the two reports the top-level keys that differ; it exits
1 if any artifact differs, 2 if a command fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPORT = "report.json"
RENDERED = "report-format-json.out"  # the output of `report --format json`


class CommandFailed(Exception):
    pass


def _load_workloads(checkout: Path):
    sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
    import workloads

    return workloads


def _write_gold(gold: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id1", "id2", "label"])
        writer.writerows([id_a, id_b, label] for (id_a, id_b), label in sorted(gold.items()))


def _run_side(checkout: Path, workloads, workload, seed: int, work: Path):
    """Generate the inputs under `work`, run every command, and score and
    report each one's output; return the inputs."""
    inputs = workloads.make_inputs(workload, seed, work)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))

    def run(name: str, args: list[str]) -> str:
        argv = [sys.executable, "-m", "postdedup.cli", *args]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise CommandFailed(f"{checkout}: {name} exited {done.returncode}")
        return done.stdout

    for command in inputs.commands:
        run(command.name, command.argv(inputs.dictionary, inputs.config))
        _write_gold(command.gold, command.out_dir / "gold.csv")
        out = ["--out", str(command.out_dir)]
        run(f"{command.name} eval", ["eval", *out])
        rendered = run(f"{command.name} report", ["report", *out, "--format", "json"])
        (command.out_dir / RENDERED).write_text(rendered, encoding="utf-8")
    return inputs


def _cache_records(path: Path) -> list[dict]:
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("timestamp", None)
        records.append(record)
    return records


def _report_keys(base: Path, head: Path) -> list[str]:
    """The top-level keys on which two run reports, or two rendered
    reports, differ, timings aside."""
    sides = [json.loads(path.read_text(encoding="utf-8")) for path in (base, head)]
    for report in sides:
        run = report["run"] if base.name == RENDERED else report
        run.pop("stage_seconds", None)
    b, h = sides
    missing = object()
    return sorted(key for key in b.keys() | h.keys() if b.get(key, missing) != h.get(key, missing))


def _differences(base_dir: Path, head_dir: Path) -> list[str]:
    names = {p.name for p in base_dir.iterdir()} | {p.name for p in head_dir.iterdir()}
    out = []
    for name in sorted(names):
        base, head = base_dir / name, head_dir / name
        if not (base.is_file() and head.is_file()):
            out.append(f"{name}: only in {'base' if base.is_file() else 'head'}")
        elif name in (REPORT, RENDERED):
            keys = _report_keys(base, head)
            if keys:
                out.append(f"{name}: keys differ: {', '.join(keys)}")
        elif base.read_bytes() != head.read_bytes():
            out.append(f"{name}: bytes differ")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the parent change")
    parser.add_argument("head", type=Path, help="checkout of the change under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--keep", action="store_true", help="keep the work directory")
    args = parser.parse_args()

    base, head = args.base.resolve(), args.head.resolve()
    workloads = _load_workloads(head)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    work = Path(tempfile.mkdtemp(prefix=f"compare-{workload.name}-{args.seed}-"))
    try:
        sides = {
            label: _run_side(checkout, workloads, workload, args.seed, work / label)
            for label, checkout in (("base", base), ("head", head))
        }
        problems = []
        for b_cmd, h_cmd in zip(sides["base"].commands, sides["head"].commands):
            problems += [f"{b_cmd.name}/{d}" for d in _differences(b_cmd.out_dir, h_cmd.out_dir)]
        b_cache, h_cache = sides["base"].cache_path, sides["head"].cache_path
        if b_cache is not None and _cache_records(b_cache) != _cache_records(h_cache):
            problems.append(f"{b_cache.name}: records differ")
    except CommandFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if args.keep:
            print(f"work directory: {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"DIFFERS {problem}")
    verdict = "differ" if problems else "identical"
    commands = len(sides["base"].commands)
    print(f"{workload.name} seed {args.seed}: {commands} command(s), artifacts {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
