#!/usr/bin/env python3
"""Sweep L2 thresholds over candidate pairs from a synthetic corpus.

Prints the kept-pair table for each threshold, the automatically chosen
threshold (midpoint of the widest flat stretch), and per-class F1 at a
few thresholds around it.

Usage: python scripts/sweep_thresholds.py --n-base 1000 --seed 3
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from postdedup.config import config_from_dict
from postdedup.dedup import choose_theta
from postdedup.evaluation import score
from postdedup.pipeline import run_pipeline
from postdedup.synth import DupPlan, synth_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-base", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--theta-min", type=float, default=0.05)
    parser.add_argument("--theta-max", type=float, default=0.95)
    parser.add_argument("--theta-step", type=float, default=0.05)
    args = parser.parse_args()

    synth = synth_corpus(args.n_base, DupPlan(0.15, 0.15, 0.10), seed=args.seed)
    grid = []
    theta = args.theta_min
    while theta <= args.theta_max + 1e-9:
        grid.append(round(theta, 4))
        theta += args.theta_step

    with tempfile.TemporaryDirectory() as tmp:
        dictionary_path = Path(tmp) / "dictionary.json"
        dictionary_path.write_text(json.dumps(synth.translation_dict), encoding="utf-8")

        def config_at(base_theta: float):
            return config_from_dict(
                {
                    "mode": "two_step",
                    "translate": {"kind": "dictionary", "dictionary_path": str(dictionary_path)},
                    "dedup": {"k": args.k, "base_theta": base_theta, "sweep_thetas": grid},
                }
            )

        probe = run_pipeline(synth.postings, config_at(grid[len(grid) // 2]))
        print(f"{'theta':>8} {'kept':>8} {'fraction':>9}")
        for theta, kept, fraction in probe.report["sweep"]:
            print(f"{theta:>8.3f} {kept:>8d} {fraction:>9.2e}")

        chosen = choose_theta(probe.report["sweep"])
        print(f"\nchosen theta (widest flat stretch): {chosen:.3f}")

        print(f"\n{'theta':>8} {'FULL':>7} {'SEMANTIC':>9} {'TEMPORAL':>9}")
        for theta in sorted({round(chosen / 2, 3), round(chosen, 3), round(min(2.0, chosen * 1.5), 3)}):
            result = run_pipeline(synth.postings, config_at(theta))
            scores = score(result.label_map(), synth.gold)
            print(
                f"{theta:>8.3f} {scores['FULL']['f1']:>7.3f} {scores['SEMANTIC']['f1']:>9.3f} "
                f"{scores['TEMPORAL']['f1']:>9.3f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
