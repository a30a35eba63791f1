#!/usr/bin/env python3
"""Check that two checkouts write the same artifacts for a bench workload.

Usage:

    python3 scripts/compare_outputs.py BASE_CHECKOUT HEAD_CHECKOUT \\
        --workload flat-2k --seed 7

The workload's inputs are generated from the seed with
`bench/workloads.make_inputs` of HEAD_CHECKOUT (which the script only
imports), once for each side, in a fresh directory. Every `postdedup dedup`
command of the workload then runs in a fresh interpreter from that side's
`src/`. Afterwards every file of every output directory is compared byte
for byte, except `report.json` (it holds timings), and the translation
cache is compared record by record without its per-run `timestamp`. The
script prints each artifact that differs and exits 1 if any does, 2 if a
command fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SKIPPED = {"report.json"}


class CommandFailed(Exception):
    pass


def _load_workloads(checkout: Path):
    sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
    import workloads

    return workloads


def _run_side(checkout: Path, workloads, workload, seed: int, work: Path):
    """Generate the inputs under `work` and run every command; return them."""
    inputs = workloads.make_inputs(workload, seed, work)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for command in inputs.commands:
        argv = [sys.executable, "-m", "postdedup.cli"]
        argv += command.argv(inputs.dictionary, inputs.config)
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise CommandFailed(f"{checkout}: {command.name} exited {done.returncode}")
    return inputs


def _cache_records(path: Path) -> list[dict]:
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("timestamp", None)
        records.append(record)
    return records


def _differences(base_dir: Path, head_dir: Path) -> list[str]:
    names = {p.name for p in base_dir.iterdir()} | {p.name for p in head_dir.iterdir()}
    out = []
    for name in sorted(names - SKIPPED):
        base, head = base_dir / name, head_dir / name
        if not (base.is_file() and head.is_file()):
            out.append(f"{name}: only in {'base' if base.is_file() else 'head'}")
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
