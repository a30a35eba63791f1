"""Workload definitions and seeded input generation for the benchmark.

Every workload runs the `postdedup dedup` batch job with the same pipeline
settings (two_step mode, dictionary translator, the example expert rules,
k=100, theta=0.25, one thread). Inputs come from `synth_corpus` and are a
pure function of the workload seed; the program under test receives only
the generated files.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

# Macro-F1 of results.csv against the generator's gold pairs. Every workload
# scores exactly this on every seed; any other value fails the run.
EXPECTED_MACRO_F1 = 1.0

# The default seed, and the held-out seed on which any later performance
# claim must also hold.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009

# Flags shared by every `dedup` command. The pipeline's own seed (k-means
# seeding) is part of the workload definition, not of the input draw.
CLI_FLAGS = (
    "--mode", "two_step",
    "--rules", "example",
    "--k", "100",
    "--theta", "0.25",
    "--threads", "1",
    "--seed", "7",
)

PLAN_RATES = dict(full_rate=0.15, semantic_rate=0.15, temporal_rate=0.10,
                  hard_semantic_fraction=0.3)


@dataclass(frozen=True)
class Workload:
    name: str
    n_base: int  # base postings drawn from synth_corpus (partners come on top)
    index: dict  # the `index` section of the pipeline config
    days: int = 0  # 0: one dedup over the whole corpus; else one per day
    repost_fraction: float = 0.0  # share of yesterday's new units reposted today
    why: str = ""


FLAT = {"kind": "flat"}
IVF = {"kind": "ivf", "nlist": 64, "nprobe": 8, "kmeans_iters": 20}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flat-2k", 2000, FLAT,
            why="one dedup, n_base=2000, flat index: exact k-NN search dominates",
        ),
        Workload(
            "ivf-4k", 1000, IVF,
            why="one dedup, n_base=1000, IVF nlist=64/nprobe=8: k-means build and "
                "rules over more candidates dominate",
        ),
        Workload(
            "daily-cli", 1200, FLAT, days=10, repost_fraction=0.3,
            why="10 daily dedup processes sharing a translation cache: process "
                "setup, ingest, normalize, cache and artifact I/O dominate",
        ),
    )
}


@dataclass
class Command:
    """One `postdedup dedup` process: its input, output dir and gold pairs."""

    name: str
    input_path: Path
    out_dir: Path
    n_postings: int
    gold: dict = field(default_factory=dict)  # (id_a, id_b) -> label string

    def argv(self, dictionary: Path, config: Path) -> list[str]:
        return [
            "dedup",
            "--input", str(self.input_path),
            "--out", str(self.out_dir),
            "--dict", str(dictionary),
            "--config", str(config),
            *CLI_FLAGS,
        ]


@dataclass
class Inputs:
    commands: list[Command]
    dictionary: Path
    config: Path
    cache_path: Path | None

    @property
    def n_postings(self) -> int:
        return sum(c.n_postings for c in self.commands)


def _units(postings) -> list[list]:
    """Split synth output into units: a base posting plus its planted partner."""
    units: list[list] = []
    for posting in postings:
        if units and posting.id == units[-1][0].id + "x":
            units[-1].append(posting)
        else:
            units.append([posting])
    return units


def _gold_within(units, gold_pairs, rename=None) -> dict:
    out = {}
    for unit in units:
        if len(unit) == 2:
            key = (unit[0].id, unit[1].id)
            label = gold_pairs[key].value
            if rename:
                key = (rename(key[0]), rename(key[1]))
            out[key] = label
    return out


def _day_plan(workload: Workload, synth, seed: int) -> list[tuple[list, dict]]:
    """Postings and gold for each day of the daily workload.

    Fresh units are dealt to days in order. From day 1 on, each day also
    reposts a seeded sample of the previous day's fresh units under new ids
    (prefix r<day>) and with retrieval dates one day later; pairs among the
    reposts keep their original labels, since both members shift together.
    """
    units = _units(synth.postings)
    per_day = len(units) // workload.days
    rng = random.Random(seed * 1_000_003 + 17)
    gold_pairs = synth.gold.pairs
    days = []
    previous: list = []
    for day in range(workload.days):
        fresh = units[day * per_day:(day + 1) * per_day]
        picked = rng.sample(previous, round(workload.repost_fraction * len(previous)))
        prefix = f"r{day:02d}"
        rename = prefix.__add__
        postings = [p for unit in fresh for p in unit]
        postings += [
            dataclasses.replace(
                p, id=rename(p.id), retrieval_date=p.retrieval_date + timedelta(days=1)
            )
            for unit in picked
            for p in unit
        ]
        gold = _gold_within(fresh, gold_pairs)
        gold.update(_gold_within(picked, gold_pairs, rename))
        days.append((postings, gold))
        previous = fresh
    return days


def make_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's corpus files, dictionary and config under `work`."""
    from postdedup.corpus import save_postings
    from postdedup.synth import DupPlan, synth_corpus

    synth = synth_corpus(workload.n_base, DupPlan(**PLAN_RATES), seed=seed)
    work.mkdir(parents=True, exist_ok=True)
    dictionary = work / "dictionary.json"
    dictionary.write_text(
        json.dumps(synth.translation_dict, sort_keys=True), encoding="utf-8"
    )

    if workload.days:
        parts = _day_plan(workload, synth, seed)
        names = [f"day{d:02d}" for d in range(workload.days)]
    else:
        gold = {key: label.value for key, label in synth.gold.pairs.items()}
        parts = [(synth.postings, gold)]
        names = ["corpus"]

    commands = []
    for name, (postings, gold) in zip(names, parts):
        input_path = work / f"{name}.jsonl"
        save_postings(postings, input_path)
        commands.append(Command(name, input_path, work / f"out-{name}", len(postings), gold))

    cache_path = work / "translation_cache.jsonl" if workload.days else None
    raw: dict = {"index": dict(workload.index)}
    if cache_path is not None:
        raw["translate"] = {"cache_path": str(cache_path)}
    config = work / "config.json"  # JSON is a YAML subset; the CLI reads either
    config.write_text(json.dumps(raw), encoding="utf-8")
    return Inputs(commands, dictionary, config, cache_path)
