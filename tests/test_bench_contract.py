"""What the benchmark's tracer (`bench/tracing.py`) reads from the program.

The tracer wraps layer functions by name and counts work from their
arguments and results. These tests load it as it is and check that every
name it wraps exists and is called by a stagewise run and `dedup`, and
that its rule counts equal the run report's.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from postdedup import pipeline
from postdedup.config import config_from_dict
from postdedup.synth import DupPlan, synth_corpus

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache file under bench/
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracing):
    for module, cls, attr, span, _ in tracing.TARGETS:
        owner = importlib.import_module(f"postdedup.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), span


def test_traced_rule_counts_are_the_report_counters(tracing, tmp_path, monkeypatch):
    synth = synth_corpus(120, DupPlan(0.15, 0.15, 0.10, hard_semantic_fraction=0.3), seed=3)
    dict_path = tmp_path / "dict.json"
    dict_path.write_text(json.dumps(synth.translation_dict), encoding="utf-8")
    config = config_from_dict(
        {
            "mode": "two_step",
            "translate": {"kind": "dictionary", "dictionary_path": str(dict_path)},
            "dedup": {"k": 20, "base_theta": 0.25, "rules": "example"},
        }
    )
    calls = []
    apply_rules = pipeline.apply_rules_detailed

    def spy(*args, **kwargs):
        out = apply_rules(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(pipeline, "apply_rules_detailed", spy)
    counters = pipeline.run_pipeline(synth.postings, config).report["counters"]
    [(args, kwargs, out)] = calls
    assert len(args[0]) == counters["candidate_pairs"]
    assert len(out) == counters["kept_representative_pairs"] > 0
    counts = Counter()
    tracing._count_rules(counts, args, kwargs, out, 0.0)
    assert counts == {
        "dedup.candidates": counters["candidate_pairs"],
        "dedup.kept": counters["kept_representative_pairs"],
    }


def test_every_trace_target_is_called_by_a_stagewise_run_and_dedup(tracing, tmp_path, monkeypatch):
    # A name that resolves but is never called would read 0 without warning.
    from postdedup.cli import main

    for module, cls, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"postdedup.{module}")
        owner = getattr(owner, cls) if cls is not None else owner
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored at teardown
    tracer = tracing.Tracer()
    assert tracing.install(tracer) == []

    corpus, run = tmp_path / "corpus", tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "translate": {"cache_path": str(tmp_path / "cache.jsonl")},
                "index": {"kind": "ivf", "nlist": 4, "nprobe": 2},
                "dedup": {"k": 10, "base_theta": 0.35},
            }
        ),
        encoding="utf-8",
    )
    assert main(["synth", "--out", str(corpus), "--n-base", "40", "--seed", "3"]) == 0
    flags = ["--out", str(run), "--config", str(config), "--dict", str(corpus / "dictionary.json")]
    assert main(["ingest", "--input", str(corpus / pipeline.POSTINGS_FILE), *flags]) == 0
    for command in ("normalize", "translate", "embed", "index", "dedup"):
        assert main([command, *flags]) == 0, command

    recorded = Counter(span[tracing.NAME] for span in tracer.spans)
    assert [name for name in tracing.SPAN_NAMES if not recorded[name]] == []
