#!/usr/bin/env python3
"""Compare pipeline variants on a synthetic corpus with planted duplicates.

Runs three configurations over the same generated corpus and prints
per-class F1 and wall time for each:

  multilingual   identity translation, embed original-language text
  two_step       dictionary translation to the base language, then embed
  two_step+rules two_step plus the example expert ruleset

Usage: python scripts/run_synth_benchmark.py --n-base 2000 --seed 7
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from postdedup.config import PipelineConfig, config_from_dict
from postdedup.evaluation import score
from postdedup.pipeline import run_pipeline
from postdedup.synth import DupPlan, synth_corpus


def build_config(mode: str, dictionary_path: Path, theta: float, k: int, rules) -> PipelineConfig:
    raw = {
        "mode": mode,
        "translate": {"kind": "dictionary", "dictionary_path": str(dictionary_path)},
        "embed": {"kind": "hashed", "dim": 256},
        "dedup": {"k": k, "base_theta": theta},
    }
    if rules:
        raw["dedup"]["rules"] = rules
    return config_from_dict(raw)


def variants(dictionary_path: Path, theta: float, k: int) -> list[tuple[str, PipelineConfig]]:
    """The compared variants as (name, config), from the weakest to the strongest.

    The paper's claim is this order: SEMANTIC F1 and macro-F1 each rise from
    one variant to the next.
    """
    return [
        ("multilingual", build_config("multilingual", dictionary_path, theta, k, None)),
        ("two_step", build_config("two_step", dictionary_path, theta, k, None)),
        ("two_step+rules", build_config("two_step", dictionary_path, theta, k, "example")),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-base", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--theta", type=float, default=0.25)
    parser.add_argument("--hard-semantic-fraction", type=float, default=0.3)
    args = parser.parse_args()

    plan = DupPlan(0.15, 0.15, 0.10, hard_semantic_fraction=args.hard_semantic_fraction)
    synth = synth_corpus(args.n_base, plan, seed=args.seed)
    print(
        f"corpus: {len(synth.postings)} postings, {len(synth.gold)} gold pairs, "
        f"{len(synth.languages)} pseudo-languages"
    )

    with tempfile.TemporaryDirectory() as tmp:
        dictionary_path = Path(tmp) / "dictionary.json"
        dictionary_path.write_text(json.dumps(synth.translation_dict), encoding="utf-8")

        print(f"\n{'variant':>16} {'FULL':>7} {'SEMANTIC':>9} {'TEMPORAL':>9} {'macro':>7} {'wall':>7}")
        for name, config in variants(dictionary_path, args.theta, args.k):
            started = time.perf_counter()
            result = run_pipeline(synth.postings, config)
            wall = time.perf_counter() - started
            scores = score(result.label_map(), synth.gold)
            print(
                f"{name:>16} {scores['FULL']['f1']:>7.3f} {scores['SEMANTIC']['f1']:>9.3f} "
                f"{scores['TEMPORAL']['f1']:>9.3f} {scores['macro_f1']:>7.3f} {wall:>6.1f}s"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
