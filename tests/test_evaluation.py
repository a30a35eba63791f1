from __future__ import annotations

import json
import random

import numpy as np
import pytest

from postdedup.dedup import DuplicateLabel
from postdedup.errors import DataError, MalformedRecord
from postdedup.evaluation import (
    GoldSet,
    read_results_csv,
    render_report,
    score,
    write_results_csv,
)
from postdedup.pipeline import PipelineResult

from conftest import candidate_pairs

FULL = DuplicateLabel.FULL
SEMANTIC = DuplicateLabel.SEMANTIC
TEMPORAL = DuplicateLabel.TEMPORAL


def test_perfect_prediction_scores_one():
    gold = GoldSet({("a", "b"): FULL, ("c", "d"): SEMANTIC, ("e", "f"): TEMPORAL})
    predicted = {("a", "b"): FULL, ("c", "d"): SEMANTIC, ("e", "f"): TEMPORAL}
    report = score(predicted, gold)
    assert all(report[cls]["f1"] == 1.0 for cls in ("FULL", "SEMANTIC", "TEMPORAL"))
    assert report["macro_f1"] == 1.0


def test_empty_prediction_all_zero():
    gold = GoldSet({("a", "b"): FULL})
    report = score({}, gold)
    for cls in ("FULL", "SEMANTIC", "TEMPORAL"):
        m = report[cls]
        assert (m["precision"], m["recall"], m["f1"]) == (0.0, 0.0, 0.0)
    assert report["macro_f1"] == 0.0


def test_hand_enumerated_mixed_case():
    gold = GoldSet({("a", "b"): SEMANTIC, ("c", "d"): FULL})
    predicted = {("a", "b"): SEMANTIC, ("c", "d"): SEMANTIC}
    report = score(predicted, gold)
    semantic = report["SEMANTIC"]
    assert semantic["precision"] == pytest.approx(1 / 2)
    assert semantic["recall"] == pytest.approx(1.0)
    assert semantic["f1"] == pytest.approx(2 / 3)
    full = report["FULL"]
    assert (full["precision"], full["recall"], full["f1"]) == (0.0, 0.0, 0.0)
    assert full["fn"] == 1


def test_gold_absent_prediction_counts_as_fp():
    gold = GoldSet({})
    report = score({("a", "b"): FULL}, gold)
    assert report["FULL"]["fp"] == 1


def test_scoring_invariant_to_order():
    gold = GoldSet({("a", "b"): FULL, ("c", "d"): SEMANTIC})
    predicted = [(("a", "b"), FULL), (("c", "d"), TEMPORAL)]
    forward = score(dict(predicted), gold)
    backward = score(dict(reversed(predicted)), gold)
    assert forward == backward


def _random_case(rng: random.Random):
    ids = [f"n{i:03d}" for i in range(30)]
    labels = [FULL, SEMANTIC, TEMPORAL]
    gold = {}
    for _ in range(rng.randint(1, 25)):
        a, b = rng.sample(ids, 2)
        gold[(min(a, b), max(a, b))] = rng.choice(labels)
    predicted = {}
    for _ in range(rng.randint(0, 25)):
        a, b = rng.sample(ids, 2)
        predicted[(min(a, b), max(a, b))] = rng.choice(labels)
    return GoldSet(gold), predicted


def test_adding_correct_prediction_never_lowers_recall():
    rng = random.Random(13)
    for _ in range(50):
        gold, predicted = _random_case(rng)
        before = score(predicted, gold)
        missing = [k for k in gold.pairs if k not in predicted]
        if not missing:
            continue
        key = rng.choice(missing)
        after = score({**predicted, key: gold.pairs[key]}, gold)
        for cls in ("FULL", "SEMANTIC", "TEMPORAL"):
            assert after[cls]["recall"] >= before[cls]["recall"]


def test_adding_incorrect_prediction_never_raises_precision():
    rng = random.Random(14)
    for _ in range(50):
        gold, predicted = _random_case(rng)
        before = score(predicted, gold)
        key = ("x000", "x001")  # ids outside the gold universe: always wrong
        if key in predicted:
            continue
        label = rng.choice([FULL, SEMANTIC, TEMPORAL])
        after = score({**predicted, key: label}, gold)
        assert after[label.value]["precision"] <= before[label.value]["precision"]


def test_gold_csv_round_trip(tmp_path):
    gold = GoldSet({("a", "b"): FULL, ("c", "d"): TEMPORAL})
    path = tmp_path / "gold.csv"
    gold.save_csv(path)
    assert GoldSet.load_csv(path).pairs == gold.pairs


def test_gold_validation():
    with pytest.raises(DataError):
        GoldSet({("b", "a"): FULL})


def test_results_csv_round_trip(tmp_path):
    pairs = candidate_pairs([("a", "b", 0.0), ("c", "d", 0.19999999999), ("e", "f", 0.0)])
    labels = np.array([0, 1, 2], dtype=np.int8)  # FULL, SEMANTIC, TEMPORAL
    reason_names = ["exact_fingerprint", "semantic_threshold", "rule(1)"]
    reasons = np.array([0, 2, 0], dtype=np.int64)
    result = PipelineResult(pairs, labels, reasons, reason_names, report={})
    path = tmp_path / "results.csv"
    write_results_csv(result, path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "id1,id2,label,distance,reason",
        "a,b,FULL,0.0,exact_fingerprint",
        "c,d,SEMANTIC,0.19999999999,rule(1)",
        "e,f,TEMPORAL,0.0,exact_fingerprint",
    ]
    assert read_results_csv(path) == result.label_map()


def test_results_csv_reader_takes_an_empty_distance(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("id1,id2,label,distance,reason\ne,f,TEMPORAL,,exact_fingerprint\n")
    assert read_results_csv(path) == {("e", "f"): TEMPORAL}


@pytest.mark.parametrize(
    "row", ["a,b,FULL,close,exact_fingerprint", "a,b,FULL,0.1"], ids=["bad-distance", "no-reason"]
)
def test_results_row_with_a_bad_distance_or_no_reason_is_malformed(tmp_path, row):
    path = tmp_path / "results.csv"
    path.write_text(f"id1,id2,label,distance,reason\n{row}\n")
    with pytest.raises(MalformedRecord, match="results.csv:2"):
        read_results_csv(path)


def test_render_json_round_trips():
    gold = GoldSet({("a", "b"): FULL})
    eval_report = score({("a", "b"): FULL}, gold)
    run = {"mode": "two_step", "k": 100, "stage_seconds": {"normalize": 0.1}}
    document = json.loads(render_report(run, eval_report, format="json"))
    assert document["run"] == run
    assert document["eval"] == eval_report


def test_render_text_contains_required_sections():
    gold = GoldSet({("a", "b"): FULL})
    eval_report = score({("a", "b"): FULL}, gold)
    run = {
        "mode": "two_step",
        "k": 100,
        "base_theta": 0.25,
        "stage_seconds": {"normalize": 0.1, "embed": 0.2},
        "counters": {"candidate_pairs": 12},
        "label_counts": {"FULL": 1},
        "truncation": {
            "n_total": 10,
            "n_truncated": 2,
            "fraction_truncated": 0.2,
            "mean_tokens_lost": 5.0,
            "median_tokens_lost": 5.0,
        },
        "saturation": {"count": 1, "k": 100, "theta": 0.25},
        "sweep": [[0.1, 0, 0.0], [0.2, 1, 0.5]],
    }
    text = render_report(run, eval_report, format="text")
    for section in ("Run", "stage timings", "counters", "labels", "truncation",
                    "saturation", "threshold sweep", "Evaluation", "macro F1"):
        assert section in text


def test_render_sweep_rows_match_input():
    run = {"sweep": [[round(0.1 + 0.05 * i, 2), i, i / 8] for i in range(8)]}
    text = render_report(run, None, format="text")
    sweep_lines = [l for l in text.splitlines() if l.strip() and l.lstrip()[0] == "0"]
    assert len(sweep_lines) == 8


def test_unknown_format_rejected():
    with pytest.raises(DataError):
        render_report({}, None, format="xml")
