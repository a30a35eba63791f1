from __future__ import annotations

import json
import os
import stat
import statistics
import struct
import tempfile
import zlib
from collections import Counter
from dataclasses import replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postdedup import index as index_module
from postdedup import pipeline
from postdedup.cli import main
from postdedup.config import config_from_dict
from postdedup.corpus import corpus_stats, save_postings
from postdedup.dedup import DuplicateLabel, default_rule, example_ruleset
from postdedup.errors import DataError, DuplicateId, ZeroVector
from postdedup.embed import tokenize
from postdedup.evaluation import GoldSet, render_report, score, write_results_csv
from postdedup.atomic import atomic_write, write_json
from postdedup.index import FlatIndex, load_index
from postdedup.normalize import canonicalize, group_exact
from postdedup.pipeline import (
    CANONICAL_FILE,
    DICTIONARY_FILE,
    EMBED_META_FILE,
    EMBEDDINGS_FILE,
    EVAL_FILE,
    GOLD_FILE,
    POSTINGS_FILE,
    REPORT_FILE,
    RESULTS_FILE,
    run_pipeline,
    stage_index,
    stage_normalize,
    write_canonical_file,
    write_run,
)
from postdedup.synth import DupPlan, synth_corpus

import reference
from conftest import (
    STAGE_FILES,
    make_posting,
    result_rows,
    spy_on_chain,
    write_chain_artifacts,
    write_stage_artifacts,
)


def small_corpus_setup(tmp_path, n_base=120, seed=3, hard=0.0):
    result = synth_corpus(n_base, DupPlan(0.15, 0.15, 0.10, hard_semantic_fraction=hard), seed=seed)
    dict_path = tmp_path / "dict.json"
    dict_path.write_text(json.dumps(result.translation_dict), encoding="utf-8")
    config = config_from_dict(
        {
            "mode": "two_step",
            "translate": {"kind": "dictionary", "dictionary_path": str(dict_path)},
            "dedup": {"k": 20, "base_theta": 0.35},
        }
    )
    return result, config


def test_single_posting_yields_no_pairs():
    config = config_from_dict({"mode": "multilingual"})
    result = run_pipeline([make_posting("only", title="solo role")], config)
    assert result_rows(result) == []
    assert result.report["n_postings"] == 1


def test_two_identical_postings_same_date_one_full_pair():
    config = config_from_dict({"mode": "multilingual"})
    p1 = make_posting("a", title="Chef de Cuisine", description="run the kitchen")
    p2 = make_posting("b", title="Chef de Cuisine", description="run the kitchen")
    result = run_pipeline([p1, p2], config)
    assert len(result.pairs) == 1
    [pair] = result_rows(result)
    assert (pair.id_a, pair.id_b, pair.label) == ("a", "b", DuplicateLabel.FULL)
    assert pair.reason == "exact_fingerprint"


def test_identical_text_different_dates_temporal():
    config = config_from_dict({"mode": "multilingual"})
    p1 = make_posting("a", title="Chef", retrieval_date=date(2024, 3, 1))
    p2 = make_posting("b", title="chef", retrieval_date=date(2024, 5, 2))
    result = run_pipeline([p1, p2], config)
    assert [p.label for p in result_rows(result)] == [DuplicateLabel.TEMPORAL]


def test_semantic_label_propagates_to_exact_group_members():
    # a and b are byte-identical up to case (one exact group); c differs by
    # a single token, close enough to pass the threshold: the semantic
    # match found for the representative must expand to both members
    config = config_from_dict({"mode": "multilingual", "dedup": {"k": 5, "base_theta": 0.35}})
    words = [f"tok{i:02d}" for i in range(20)]
    text = " ".join(words)
    near = " ".join(["swapped" if w == "tok07" else w for w in words])
    pa = make_posting("a", title="", description=text)
    pb = make_posting("b", title="", description=text.upper())
    pc = make_posting("c", title="", description=near)
    result = run_pipeline([pa, pb, pc], config)
    by_key = {p.key: p for p in result_rows(result)}
    assert by_key[("a", "b")].label == DuplicateLabel.FULL
    assert by_key[("a", "c")].label == DuplicateLabel.SEMANTIC
    assert by_key[("b", "c")].label == DuplicateLabel.SEMANTIC
    assert by_key[("a", "c")].distance == by_key[("b", "c")].distance
    assert by_key[("b", "c")].reason == "semantic_threshold"


def test_semantic_expansion_respects_member_dates():
    config = config_from_dict({"mode": "multilingual", "dedup": {"k": 5, "base_theta": 0.35}})
    words = [f"tok{i:02d}" for i in range(20)]
    text = " ".join(words)
    near = " ".join(["swapped" if w == "tok07" else w for w in words])
    pa = make_posting("a", title="", description=text)
    pb = make_posting("b", title="", description=text, retrieval_date=date(2024, 7, 1))
    pc = make_posting("c", title="", description=near)
    result = run_pipeline([pa, pb, pc], config)
    by_key = result.label_map()
    assert by_key[("a", "b")] == DuplicateLabel.TEMPORAL  # same text, new date
    assert by_key[("a", "c")] == DuplicateLabel.SEMANTIC  # same date
    assert by_key[("b", "c")] == DuplicateLabel.TEMPORAL  # dates differ


def test_exact_group_of_three_expands_to_all_pairs():
    config = config_from_dict({"mode": "multilingual"})
    same = dict(title="Night Shift Lead", description="run the floor")
    p1 = make_posting("a", **same)
    p2 = make_posting("b", title="NIGHT SHIFT LEAD", description="run the floor")
    p3 = make_posting("c", retrieval_date=date(2024, 6, 1), **same)
    result = run_pipeline([p1, p2, p3], config)
    assert len(result.pairs) == 3  # pair_count(3)
    by_key = result.label_map()
    assert by_key[("a", "b")] == DuplicateLabel.FULL
    assert by_key[("a", "c")] == DuplicateLabel.TEMPORAL
    assert by_key[("b", "c")] == DuplicateLabel.TEMPORAL
    assert all(p.reason == "exact_fingerprint" for p in result_rows(result))


def test_empty_text_posting_reported_not_indexed():
    config = config_from_dict({"mode": "multilingual"})
    p1 = make_posting("a", title="<br>", description="<hr/>")
    p2 = make_posting("b", title="real role")
    result = run_pipeline([p1, p2], config)
    assert result.report["n_zero_vectors"] == 1
    assert result_rows(result) == []


def test_full_run_on_synthetic_corpus(tmp_path):
    synth, config = small_corpus_setup(tmp_path)
    result = run_pipeline(synth.postings, config)
    report = score(result.label_map(), synth.gold)
    assert report["FULL"]["f1"] == 1.0
    assert report["SEMANTIC"]["f1"] >= 0.9
    assert report["TEMPORAL"]["f1"] >= 0.9
    counters = result.report["counters"]
    assert counters["candidate_pairs"] <= counters["brute_force_pairs"]
    assert result.report["sweep"]  # sweep table present


def test_report_dict_schema(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=40)
    result = run_pipeline(synth.postings, config)
    raw = result.report
    for key in (
        "mode", "k", "base_theta", "n_postings", "n_groups",
        "n_zero_vectors", "counters", "label_counts", "stage_seconds",
        "truncation", "saturation", "sweep",
    ):
        assert key in raw
    assert json.loads(json.dumps(raw)) == raw


def test_staged_equals_in_memory(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=80)
    outdir = tmp_path / "staged"
    outdir.mkdir()
    save_postings(synth.postings, outdir / POSTINGS_FILE)
    flags = ["--mode", "two_step", "--dict", config.translate.dictionary_path]
    assert main(["dedup", "--out", str(outdir), *flags, "--k", "20", "--theta", "0.35"]) == 0

    expected = tmp_path / "expected.csv"
    write_results_csv(run_pipeline(synth.postings, config), expected)
    assert (outdir / RESULTS_FILE).read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("text", ["chef", "baker"], ids=["same-text", "different-text"])
def test_a_repeated_id_is_rejected_before_any_stage(monkeypatch, text):
    postings = [
        make_posting("a", "chef"),
        make_posting("a", text, retrieval_date=date(2024, 3, 2)),
        make_posting("b", "chef"),
    ]
    calls = spy_on_chain(monkeypatch)
    with pytest.raises(DuplicateId, match="duplicate posting id 'a'"):
        run_pipeline(postings, config_from_dict({}))
    assert calls == {name: [] for name in calls}


def test_individual_stages_compose_byte_identically(tmp_path, monkeypatch):
    synth, config = small_corpus_setup(tmp_path, n_base=80)
    calls = spy_on_chain(monkeypatch)
    run_pipeline(synth.postings, config)
    monkeypatch.undo()
    chain = write_chain_artifacts(calls, tmp_path / "chain")

    stages = write_stage_artifacts(synth.postings, config, tmp_path / "stages")
    for name in STAGE_FILES:
        assert (chain / name).read_bytes() == (stages / name).read_bytes(), name


def test_stage_requires_previous_artifact(tmp_path):
    config = config_from_dict({})
    with pytest.raises(DataError):
        stage_normalize(config, tmp_path)
    save_postings([make_posting("a")], tmp_path / POSTINGS_FILE)
    stage_normalize(config, tmp_path)
    assert (tmp_path / CANONICAL_FILE).exists()
    with pytest.raises(DataError):
        stage_index(config, tmp_path)  # no embeddings yet


def test_ivf_pipeline_matches_flat(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=150)
    flat_result = run_pipeline(synth.postings, config)
    ivf_config = config_from_dict(
        {
            "mode": "two_step",
            "translate": {
                "kind": "dictionary",
                "dictionary_path": config.translate.dictionary_path,
            },
            "seed": 5,
            "dedup": {"k": 20, "base_theta": 0.35},
            "index": {"kind": "ivf", "nlist": 8, "nprobe": 8},
        }
    )
    ivf_result = run_pipeline(synth.postings, ivf_config)
    assert result_rows(ivf_result) == result_rows(flat_result)  # nprobe = nlist: exact


def test_expert_rules_recover_hard_pairs(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=200, seed=11, hard=0.4)
    base_config = config_from_dict(
        {
            "mode": "two_step",
            "translate": {
                "kind": "dictionary",
                "dictionary_path": config.translate.dictionary_path,
            },
            "dedup": {"k": 20, "base_theta": 0.25},
        }
    )
    plain = run_pipeline(synth.postings, base_config)
    with_rules = run_pipeline(
        synth.postings,
        config_from_dict(
            {
                "mode": "two_step",
                "translate": {
                    "kind": "dictionary",
                    "dictionary_path": config.translate.dictionary_path,
                },
                "dedup": {"k": 20, "base_theta": 0.25, "rules": "example"},
            }
        ),
    )
    f1_plain = score(plain.label_map(), synth.gold)["SEMANTIC"]["f1"]
    f1_rules = score(with_rules.label_map(), synth.gold)["SEMANTIC"]["f1"]
    assert f1_rules > f1_plain
    rule_reasons = {p.reason for p in result_rows(with_rules)}
    assert any(r.startswith("rule(") for r in rule_reasons)


def test_results_independent_of_thread_count(tmp_path):
    synth, _ = small_corpus_setup(tmp_path, n_base=80, seed=17)
    def config_with_threads(n):
        return config_from_dict(
            {"mode": "multilingual", "threads": n, "dedup": {"k": 20, "base_theta": 0.35}}
        )
    single = run_pipeline(synth.postings, config_with_threads(1))
    threaded = run_pipeline(synth.postings, config_with_threads(4))
    assert result_rows(single) == result_rows(threaded)


def test_explicit_rule_list_in_config(tmp_path):
    synth, base = small_corpus_setup(tmp_path, n_base=60, seed=19)
    config = config_from_dict(
        {
            "mode": "two_step",
            "translate": {
                "kind": "dictionary",
                "dictionary_path": base.translate.dictionary_path,
            },
            "dedup": {
                "k": 20,
                "base_theta": 0.25,
                "rules": [
                    {"company": "same", "location": "same", "action": "threshold", "threshold": 0.30},
                    {"action": "threshold", "threshold": 0.25},
                ],
            },
        }
    )
    assert len(config.dedup.rules) == 2
    result = run_pipeline(synth.postings, config)
    assert len(result.pairs)


def test_multilingual_mode_uses_identity_translation(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=100, seed=13)
    ml_config = config_from_dict({"mode": "multilingual", "dedup": {"k": 20, "base_theta": 0.35}})
    two_step = run_pipeline(synth.postings, config)
    multilingual = run_pipeline(synth.postings, ml_config)
    f1_two = score(two_step.label_map(), synth.gold)["SEMANTIC"]["f1"]
    f1_ml = score(multilingual.label_map(), synth.gold)["SEMANTIC"]["f1"]
    assert f1_two > f1_ml  # cross-language pairs are invisible without translation


def test_flat_index_comparisons_equal_brute_force_comparisons(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    report = run_pipeline(synth.postings, config).report
    n = report["n_groups"] - report["n_zero_vectors"]  # queries = indexed rows
    assert n > 1
    counters = report["counters"]
    assert counters["index_comparisons"] == counters["brute_force_comparisons"] == n * n
    assert report["counters"]["brute_force_pairs"] == n * (n - 1) // 2


def test_partial_ivf_probe_compares_less_than_brute_force(tmp_path):
    synth, flat = small_corpus_setup(tmp_path, n_base=60)
    config = replace(flat, index=replace(flat.index, kind="ivf", nlist=8, nprobe=2))
    counters = run_pipeline(synth.postings, config).report["counters"]
    assert 0 < counters["index_comparisons"] < counters["brute_force_comparisons"]


def independent_candidates(outdir, config) -> dict:
    """Candidate pairs and their distances, from a float64 scan of the written embeddings.

    Every representative's k nearest others by (d2, id), as unordered
    pairs, those at a distance under the search radius.
    """
    radius = config.dedup.search_radius
    embedded = load_index(outdir / EMBEDDINGS_FILE)
    ids, X = embedded.ids, embedded.vectors.astype(np.float64)
    pairs = {}
    for i, vid in enumerate(ids):
        d2 = np.square(X - X[i]).sum(axis=1)
        others = sorted((j for j in range(len(ids)) if j != i), key=lambda j: (d2[j], ids[j]))
        pairs.update(
            (tuple(sorted((vid, ids[j]))), float(np.sqrt(d2[j])))
            for j in others[: config.dedup.k]
            if np.sqrt(d2[j]) < radius
        )
    return pairs


def test_candidate_reduction_matches_independent_pair_count(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "staged")
    counters = run_pipeline(synth.postings, config).report["counters"]
    pairs = independent_candidates(outdir, config)
    n = len(load_index(outdir / EMBEDDINGS_FILE))
    brute = n * (n - 1) // 2
    assert counters["candidate_pairs"] == len(pairs)
    assert counters["brute_force_pairs"] == brute
    assert counters["candidate_reduction"] == 1 - len(pairs) / brute
    assert 0 < counters["candidate_reduction"] < 1


def test_sweep_fractions_are_shares_of_brute_force_pairs(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "staged")
    report = run_pipeline(synth.postings, config).report
    distances = list(independent_candidates(outdir, config).values())
    brute = report["counters"]["brute_force_pairs"]
    assert [theta for theta, _, _ in report["sweep"]] == list(config.dedup.sweep_thetas)
    for theta, count, fraction in report["sweep"]:
        assert count == sum(d < theta for d in distances)
        assert fraction == count / brute
    # The last theta is the search radius: every candidate lies under it,
    # but only a small share of all pairs does.
    assert report["sweep"][-1][0] == config.dedup.search_radius
    assert 0 < report["sweep"][-1][2] < 0.1


def test_rerank_rows_count_rows_through_the_exact_expression(tmp_path, monkeypatch):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    exact, rows_seen = index_module._row_sq_dists, []

    def counted(rows, query, buf):
        rows_seen.append(len(rows))
        return exact(rows, query, buf)

    monkeypatch.setattr(index_module, "_row_sq_dists", counted)
    counters = run_pipeline(synth.postings, config).report["counters"]
    assert counters["rerank_rows"] == sum(rows_seen)
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "staged")
    # Independent: the unordered pairs of distinct rows under the search
    # radius, in a float64 scan of the written embeddings. No row has more
    # than k + 1 rows under it, itself included, so the flat self-join
    # keeps each such pair and re-ranks it once.
    X = load_index(outdir / EMBEDDINGS_FILE).vectors.astype(np.float64)
    under = np.array(
        [np.sqrt(np.square(X - x).sum(axis=1)) < config.dedup.search_radius for x in X]
    )
    assert under.sum(axis=1).max() <= config.dedup.k + 1
    bound = int(np.triu(under, k=1).sum())
    assert bound > 0  # some row has a row under the radius besides itself
    assert bound <= counters["rerank_rows"] <= counters["index_comparisons"]


@pytest.mark.parametrize(
    "dedup, radius",
    [
        # base_theta is the largest
        ({"base_theta": 0.9, "sweep_thetas": [0.1, 0.5]}, 0.9),
        # a threshold rule is; the reject rule has none
        (
            {
                "base_theta": 0.35,
                "rules": [
                    {"company": "different", "action": "reject"},
                    {"company": "same", "action": "threshold", "threshold": 0.8},
                    {"action": "threshold", "threshold": 0.3},
                ],
            },
            0.8,
        ),
        # the last of the sweep thetas is
        ({"base_theta": 0.35, "rules": "example", "sweep_thetas": [0.1, 0.6]}, 0.6),
    ],
    ids=["base-theta", "rule-threshold", "sweep-theta"],
)
def test_report_search_radius_is_the_largest_threshold_in_play(tmp_path, dedup, radius):
    synth, base = small_corpus_setup(tmp_path, n_base=40)
    config = config_from_dict(
        {
            "translate": {"kind": "dictionary", "dictionary_path": base.translate.dictionary_path},
            "dedup": {"k": 20, **dedup},
        }
    )
    outdir = tmp_path / "run"
    outdir.mkdir()
    write_run(run_pipeline(synth.postings, config), outdir)
    report = json.loads((outdir / REPORT_FILE).read_text(encoding="utf-8"))
    assert config.dedup.search_radius == report["search_radius"] == radius
    assert f"search_radius: {radius}" in render_report(report).splitlines()


def test_ivf_compares_the_probed_rows_and_reranks_those_under_the_radius(tmp_path):
    synth, flat = small_corpus_setup(tmp_path, n_base=60)
    config = replace(flat, index=replace(flat.index, kind="ivf", nlist=8, nprobe=2))
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "staged")
    counters = run_pipeline(synth.postings, config).report["counters"]
    # Independent: each query's 2 nearest centroids (ties by list number),
    # the sizes of their lists, and their rows under the search radius
    # (the query itself included), read from the index `index` builds.
    index = stage_index(config, outdir)
    centroids = index._cent32.astype(np.float64)
    bounds = index._bounds
    sizes = np.diff(bounds)
    rows = index.vectors.astype(np.float64)
    probed = under = 0
    for vec in load_index(outdir / EMBEDDINGS_FILE).vectors.astype(np.float64):
        d2 = np.square(centroids - vec).sum(axis=1)
        lists = np.lexsort((np.arange(len(d2)), d2))[:2]
        probed += int(sizes[lists].sum())
        for j in lists:
            list_rows = rows[bounds[j] : bounds[j + 1]]
            distances = np.sqrt(np.square(list_rows - vec).sum(axis=1))
            under += int((distances < config.dedup.search_radius).sum())
    assert counters["index_comparisons"] == probed
    assert under > len(rows)  # some query has a probed row under the radius besides itself
    assert under <= counters["rerank_rows"] <= probed


def test_report_ivf_list_sizes_are_those_of_the_built_index(tmp_path):
    synth, flat = small_corpus_setup(tmp_path, n_base=60)
    config = replace(flat, index=replace(flat.index, kind="ivf", nlist=8, nprobe=2))
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "staged")
    write_run(run_pipeline(synth.postings, config), outdir)
    report = json.loads((outdir / REPORT_FILE).read_text(encoding="utf-8"))
    # Independent: each written embedding's nearest centroid of the index
    # `index` builds (ties by list number) by a float64 scan, counted per list.
    index = stage_index(config, outdir)
    centroids = index._cent32.astype(np.float64)
    X = load_index(outdir / EMBEDDINGS_FILE).vectors.astype(np.float64)
    nearest = [int(np.argmin(np.square(centroids - x).sum(axis=1))) for x in X]
    sizes = np.bincount(nearest, minlength=len(centroids)).tolist()
    expected = {"min": min(sizes), "median": statistics.median(sizes), "max": max(sizes)}
    assert len(sizes) == 8 and sizes == np.diff(index._bounds).tolist()
    assert report["ivf_list_sizes"] == expected
    lines = render_report(report).splitlines()
    assert lines[lines.index("-- ivf list sizes --") + 1] == (
        f"min {expected['min']}, median {float(expected['median'])}, max {expected['max']}"
    )
    assert run_pipeline(synth.postings, flat).report["ivf_list_sizes"] is None


def test_report_ivf_kmeans_iterations_are_the_iterations_run(tmp_path, monkeypatch):
    synth, flat = small_corpus_setup(tmp_path, n_base=60)
    assign, calls = index_module._assign, []
    monkeypatch.setattr(index_module, "_assign", lambda X, c: calls.append(1) or assign(X, c))
    # Each iteration assigns the rows once. One iteration does not reach
    # the fixed point, so the rows are assigned once more to its centers;
    # 50 do, and k-means stops at the first that leaves the centers as
    # they were.
    for iters, expected in ((1, lambda: len(calls) - 1), (50, lambda: len(calls))):
        config = replace(
            flat, index=replace(flat.index, kind="ivf", nlist=8, nprobe=2, kmeans_iters=iters)
        )
        calls.clear()
        report = run_pipeline(synth.postings, config).report
        assert report["ivf_kmeans_iterations"] == expected()
        assert 1 <= report["ivf_kmeans_iterations"] < 50
        lines = render_report(report).splitlines()
        assert f"ivf k-means iterations: {expected()}" in lines
    report = run_pipeline(synth.postings, flat).report
    assert report["ivf_kmeans_iterations"] is None
    assert not any("k-means" in line for line in render_report(report).splitlines())


class WriteFailed(Exception):
    pass


def fail_after(items, n):
    """Yield the first n items, then raise: a writer that fails partway."""
    yield from items[:n]
    raise WriteFailed


class FailingList(list):
    """A list whose reads fail after the first n, as a writer reads it."""

    def __init__(self, items, n):
        super().__init__(items)
        self.reads = n

    def __getitem__(self, i):
        if not self.reads:
            raise WriteFailed
        self.reads -= 1
        return super().__getitem__(i)


class FailingDocument(dict):
    """A mapping whose entries fail partway through being read, as a writer reads them."""

    def items(self):
        return fail_after(list(super().items()), 2)


def failing_gold(gold: GoldSet) -> GoldSet:
    """`gold` with its pairs swapped, after validation, for a FailingDocument."""
    failing = GoldSet(dict(gold.pairs))
    object.__setattr__(failing, "pairs", FailingDocument(gold.pairs))
    return failing


@pytest.mark.parametrize(
    "name",
    [
        "postings.jsonl", "postings.csv", CANONICAL_FILE, RESULTS_FILE,
        "corpus_stats.json", EVAL_FILE, DICTIONARY_FILE, GOLD_FILE,
    ],
)
def test_failed_artifact_write_keeps_previous_file(tmp_path, name):
    config = config_from_dict({})
    synth = synth_corpus(20, DupPlan(0.2, 0.2, 0.1), seed=4)
    postings = synth.postings
    canonicals = [canonicalize(p, config.normalize) for p in postings]
    result = run_pipeline(postings, config)
    stats = corpus_stats(postings, tokenize)
    evaluation = score(result.label_map(), synth.gold)
    # (what is written, the same failing partway, the writer the program uses)
    items, failing, write = {
        "postings.jsonl": (postings, fail_after(postings, 2), save_postings),
        "postings.csv": (
            postings, fail_after(postings, 2), lambda items, path: save_postings(items, path, "csv")
        ),
        CANONICAL_FILE: (
            canonicals,
            fail_after(canonicals, 2),
            lambda texts, path: write_canonical_file([p.id for p in postings], texts, path),
        ),
        RESULTS_FILE: (
            result,
            replace(result, reason_names=FailingList(result.reason_names, 2)),
            write_results_csv,
        ),
        "corpus_stats.json": (stats, FailingDocument(stats), write_json),
        EVAL_FILE: (evaluation, FailingDocument(evaluation), write_json),
        DICTIONARY_FILE: (
            synth.translation_dict,
            FailingDocument(synth.translation_dict),
            lambda doc, path: write_json(doc, path, indent=0, sort_keys=True),
        ),
        GOLD_FILE: (synth.gold, failing_gold(synth.gold), lambda gold, path: gold.save_csv(path)),
    }[name]
    path = tmp_path / name
    write(items, path)
    before = path.read_bytes()
    with pytest.raises(WriteFailed):
        write(failing, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind


def test_atomic_write_failing_partway_keeps_previous_index(tmp_path):
    path = tmp_path / EMBEDDINGS_FILE
    FlatIndex(["a", "b"], [[1, 0], [0, 1]]).save(path)
    before = path.read_bytes()
    with pytest.raises(WriteFailed):
        with atomic_write(path, "wb") as fh:  # as `save` writes a .pdix
            fh.write(before[:10])
            raise WriteFailed
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_fsyncs_the_file_then_renames_then_fsyncs_the_directory(
    tmp_path, monkeypatch
):
    calls = []
    fsync, rename = os.fsync, os.replace

    def record_fsync(fd):
        info = os.fstat(fd)  # a file's size shows its bytes were flushed first
        calls.append(("fsync", "directory" if stat.S_ISDIR(info.st_mode) else info.st_size))
        fsync(fd)

    def record_replace(src, dst):
        calls.append(("replace", Path(dst).name))
        rename(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    write_json({"pairs": list(range(100))}, tmp_path / REPORT_FILE)
    size = (tmp_path / REPORT_FILE).stat().st_size
    assert calls == [("fsync", size), ("replace", REPORT_FILE), ("fsync", "directory")]


def crafted_embeddings(raw: bytes, corruption: str) -> bytes:
    """A valid flat `.pdix` file with one corruption, its CRC recomputed."""
    index = index_module.index_from_bytes(raw)
    dim, ids = index.dim, index.ids
    payload = bytearray(raw[:-4])
    rows = 4 + struct.calcsize("<HBIQ")  # magic, header fields
    table = rows + 4 * len(ids) * dim
    if corruption == "nan_row":
        nan = struct.pack("<f", float("nan"))
        payload[rows + 4 * dim : rows + 4 * dim + 4] = nan  # second row, first entry
    elif corruption == "zero_row":
        payload[rows : rows + 4 * dim] = bytes(4 * dim)
    elif corruption == "repeated_id":
        repeated = [ids[0], ids[0], *ids[2:]]
        payload[table:] = b"".join(
            struct.pack("<I", len(vid.encode())) + vid.encode() for vid in repeated
        )
    return bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)))


@pytest.mark.parametrize(
    "corruption, error, match",
    [
        ("nan_row", DataError, "non-finite vector"),
        ("zero_row", ZeroVector, "zero vector"),
        ("repeated_id", DuplicateId, "duplicate"),
    ],
)
def test_crafted_embeddings_file_fails_load_and_index_command(
    tmp_path, capsys, corruption, error, match
):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "staged")
    path = outdir / EMBEDDINGS_FILE
    path.write_bytes(crafted_embeddings(path.read_bytes(), corruption))
    with pytest.raises(error, match=match):  # each is a DataError (exit 3)
        load_index(path)
    assert main(["index", "--out", str(outdir)]) == 3
    assert match in capsys.readouterr().err


def test_expanded_pairs_carry_their_representatives_distance(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=80, hard=0.3)
    rules = tuple(example_ruleset(config.dedup.base_theta))
    config = replace(config, dedup=replace(config.dedup, rules=rules))
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "staged")
    result = run_pipeline(synth.postings, config)
    # Independent: each member's representative from the written canonical
    # file, and the L2 distance of the two representatives' stored vectors.
    ids, texts = zip(*sorted(pipeline.read_canonical_file(outdir / CANONICAL_FILE)))
    rep = {ids[member]: ids[group[0]] for group in group_exact(texts) for member in group}
    embedded = load_index(outdir / EMBEDDINGS_FILE)
    vectors = dict(zip(embedded.ids, embedded.vectors.astype(np.float64)))
    thresholds = {f"rule({i})": rule.threshold for i, rule in enumerate(rules[:-1])}
    thresholds["semantic_threshold"] = rules[-1].threshold
    semantic = [p for p in result_rows(result) if p.reason != "exact_fingerprint"]
    assert semantic
    for p in semantic:
        distance = float(np.sqrt(np.square(vectors[rep[p.id_a]] - vectors[rep[p.id_b]]).sum()))
        assert p.distance == pytest.approx(distance, rel=1e-12, abs=1e-15)
        assert p.distance < thresholds[p.reason]


# Ids with commas, quotes, spaces and non-ASCII, which csv quoting must keep.
_ID_CHARS = ["a", "b", "c", ",", '"', " ", "é", "日"]
# Word-order swaps embed identically (a bag of tokens) but differ in canonical
# text, so they give kept pairs across exact groups; with three orders of one
# bag, a row can have more than k rows at distance 0 ahead of it by id. Texts
# sharing some of their words lie at distances between 0 and the radius. Case
# and spacing do not change a fingerprint, and an empty text is a group of
# its own.
_DIFF_TEXTS = [
    "senior chef", "chef senior", "line cook", "cook line", "senior line cook",
    "night shift porter", "porter night shift", "shift porter night", "night porter", "",
]
_MATCHERS = {
    "company": ["same", "different", "any_missing", "any"],
    "language": ["same", "different", "any"],
    "location": ["same", "different", "any_missing", "any"],
}


@st.composite
def _ruleset(draw, thresholds) -> list[dict]:
    """Up to two drawn rules of one or two matchers before a catch-all; any
    of them may reject, and a threshold rule takes one of `thresholds`."""
    rules = []
    for _ in range(draw(st.integers(0, 2))):
        fields = draw(
            st.lists(st.sampled_from(sorted(_MATCHERS)), min_size=1, max_size=2, unique=True)
        )
        rules.append({field: draw(st.sampled_from(_MATCHERS[field])) for field in fields})
    rules.append({})
    for rule in rules:
        if draw(st.booleans()) and len(rules) > 1:
            rule["action"] = "reject"
        else:
            rule.update(action="threshold", threshold=draw(st.sampled_from(thresholds)))
    return rules


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_results_csv_equals_the_object_expansion(data):
    n = data.draw(st.integers(2, 40), label="postings")
    # A drawn prefix orders the ids; the posting's place makes each unique.
    ids = [data.draw(st.text(st.sampled_from(_ID_CHARS), max_size=2)) + str(i) for i in range(n)]
    n_dates = data.draw(st.integers(1, 3), label="dates")
    meta = st.sampled_from([None, "x", "y"])
    postings = [
        make_posting(
            pid,
            data.draw(
                st.sampled_from(_DIFF_TEXTS).flatmap(
                    lambda t: st.sampled_from([t, t.upper(), f" {t} "])
                )
            ),
            retrieval_date=date(2024, 3, 1 + data.draw(st.integers(0, n_dates - 1))),
            company=data.draw(meta),
            location=data.draw(meta),
            language=data.draw(meta),
        )
        for pid in ids
    ]
    # A k under the texts' representatives, so that the cap binds; an IVF
    # index probes every list, so that it finds what flat does, or some of
    # them, so that a row finds only the rows of the lists it probes.
    k = data.draw(st.integers(1, 3), label="k")
    nlist = data.draw(st.integers(1, 4), label="nlist")
    nprobe = data.draw(st.integers(1, nlist), label="nprobe")
    index = data.draw(
        st.sampled_from(
            [{}, *({"kind": "ivf", "nlist": nlist, "nprobe": p} for p in (nlist, nprobe))]
        )
    )

    def configured(rules):
        return config_from_dict(
            {
                "mode": "multilingual",
                "embed": {"dim": 32},
                "index": index,
                "dedup": {"k": k, "base_theta": 0.9, "rules": rules},
            }
        )

    # Thresholds may be distances of the corpus's own candidate pairs, so
    # that a pair lies exactly at its rule's threshold, which a strict rule
    # leaves out. A larger radius keeps every candidate of a smaller one.
    distances = {d for *_, d in reference.candidate_triples(postings, configured([])) if d > 0}
    thresholds = [0.2, 0.9, 1.5, *sorted(distances)]
    rules = data.draw(st.one_of(st.just([]), _ruleset(thresholds)), label="rules")
    config = configured(rules)
    # The candidates, the groups, the rules and the expansion are the
    # reference's own; only the lists a row probes are the run's index.
    built = []

    def build(*args):
        built.append(index_module.build_index(*args))
        return built[-1]

    with mock.patch.object(pipeline, "build_index", build):
        result = run_pipeline(postings, config)
    groups = reference.exact_groups(postings, config.normalize)
    rules = list(config.dedup.rules) or [default_rule(config.dedup.base_theta)]
    candidates = reference.candidate_triples(postings, config, *built)
    kept = reference.per_pair_rules(candidates, {p.id: p for p in postings}, rules)
    rows = reference.expand_pairs(kept, rules, groups, postings)
    with tempfile.TemporaryDirectory() as outdir:
        write_run(result, outdir)
        assert (Path(outdir) / RESULTS_FILE).read_bytes() == reference.results_csv_bytes(rows)
    rule_kept = Counter(index for _, index in kept)
    assert result.report["rule_kept"] == [rule_kept[i] for i in range(len(rules))]
    counters = result.report["counters"]
    assert counters["candidate_pairs"] == len(candidates)
    assert counters["kept_representative_pairs"] == len(kept)
    assert counters["output_pairs"] == len(rows)
    assert counters["exact_group_pairs"] == sum(r.reason == "exact_fingerprint" for r in rows)
    labels = Counter(row.label.value for row in rows)
    assert result.report["label_counts"] == dict(sorted(labels.items()))
