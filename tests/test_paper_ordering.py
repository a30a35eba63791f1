"""The paper's ordering of its pipeline variants, on the synthetic benchmark.

Translating to one language before embedding (two_step) finds semantic
duplicates across languages that embedding the original text
(multilingual) misses, and the expert rules recover more of them. The
variants are those of `scripts/run_synth_benchmark.py`, loaded as the
script is, run on the corpus it builds by default.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from postdedup.evaluation import score
from postdedup.pipeline import run_pipeline
from postdedup.synth import DupPlan, synth_corpus

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synth_benchmark.py"


@pytest.fixture
def synth_benchmark(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache file under scripts/
    spec = importlib.util.spec_from_file_location("run_synth_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [7, 1009])
def test_two_step_beats_multilingual_and_rules_beat_both(synth_benchmark, tmp_path, seed):
    synth = synth_corpus(1000, DupPlan(0.15, 0.15, 0.10, hard_semantic_fraction=0.3), seed=seed)
    dictionary_path = tmp_path / "dictionary.json"
    dictionary_path.write_text(json.dumps(synth.translation_dict), encoding="utf-8")
    semantic, macro = [], []
    for _, config in synth_benchmark.variants(dictionary_path, theta=0.25, k=100):
        scores = score(run_pipeline(synth.postings, config).label_map(), synth.gold)
        semantic.append(scores["SEMANTIC"]["f1"])
        macro.append(scores["macro_f1"])
    assert semantic[0] < semantic[1] < semantic[2], semantic
    assert macro[0] < macro[1] < macro[2], macro
