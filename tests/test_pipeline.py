from __future__ import annotations

import json
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from postdedup import index as index_module
from postdedup import pipeline
from postdedup.config import config_from_dict
from postdedup.corpus import save_postings
from postdedup.dedup import DuplicateLabel
from postdedup.errors import DataError
from postdedup.evaluation import score, write_results_csv
from postdedup.index import load_index
from postdedup.pipeline import (
    CANONICAL_FILE,
    EMBEDDINGS_FILE,
    INDEX_FILE,
    POSTINGS_FILE,
    REPORT_FILE,
    RESULTS_FILE,
    TRANSLATED_FILE,
    run_pipeline,
    run_staged,
    stage_dedup,
    stage_embed,
    stage_index,
    stage_normalize,
    stage_translate,
)
from postdedup.synth import DupPlan, synth_corpus

from conftest import make_posting


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
    assert result.pairs == []
    assert result.report.n_postings == 1


def test_two_identical_postings_same_date_one_full_pair():
    config = config_from_dict({"mode": "multilingual"})
    p1 = make_posting("a", title="Chef de Cuisine", description="run the kitchen")
    p2 = make_posting("b", title="Chef de Cuisine", description="run the kitchen")
    result = run_pipeline([p1, p2], config)
    assert len(result.pairs) == 1
    pair = result.pairs[0]
    assert (pair.id_a, pair.id_b, pair.label) == ("a", "b", DuplicateLabel.FULL)
    assert pair.reason == "exact_fingerprint"


def test_identical_text_different_dates_temporal():
    config = config_from_dict({"mode": "multilingual"})
    p1 = make_posting("a", title="Chef", retrieval_date=date(2024, 3, 1))
    p2 = make_posting("b", title="chef", retrieval_date=date(2024, 5, 2))
    result = run_pipeline([p1, p2], config)
    assert [p.label for p in result.pairs] == [DuplicateLabel.TEMPORAL]


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
    by_key = {p.key: p for p in result.pairs}
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
    by_key = {p.key: p.label for p in result.pairs}
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
    by_key = {p.key: p.label for p in result.pairs}
    assert by_key[("a", "b")] == DuplicateLabel.FULL
    assert by_key[("a", "c")] == DuplicateLabel.TEMPORAL
    assert by_key[("b", "c")] == DuplicateLabel.TEMPORAL
    assert all(p.reason == "exact_fingerprint" for p in result.pairs)


def test_empty_text_posting_reported_not_indexed():
    config = config_from_dict({"mode": "multilingual"})
    p1 = make_posting("a", title="<br>", description="<hr/>")
    p2 = make_posting("b", title="real role")
    result = run_pipeline([p1, p2], config)
    assert result.report.n_zero_vectors == 1
    assert result.pairs == []


def test_full_run_on_synthetic_corpus(tmp_path):
    synth, config = small_corpus_setup(tmp_path)
    result = run_pipeline(synth.postings, config)
    report = score(result.pairs, synth.gold)
    assert report.per_class["FULL"].f1 == 1.0
    assert report.per_class["SEMANTIC"].f1 >= 0.9
    assert report.per_class["TEMPORAL"].f1 >= 0.9
    assert result.report.counters["candidate_pairs"] <= result.report.counters["brute_force_pairs"]
    assert result.report.sweep  # sweep table present


def test_report_dict_schema(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=40)
    result = run_pipeline(synth.postings, config)
    raw = result.report.to_dict()
    for key in (
        "mode", "k", "base_theta", "n_postings", "n_groups", "n_representatives",
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

    staged = run_staged(config, outdir)
    in_memory = run_pipeline(synth.postings, config)
    assert staged.pairs == in_memory.pairs

    expected = tmp_path / "expected.csv"
    write_results_csv(in_memory.pairs, expected)
    assert (outdir / RESULTS_FILE).read_bytes() == expected.read_bytes()


def test_individual_stages_compose_byte_identically(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=80)
    one = tmp_path / "one"
    two = tmp_path / "two"
    for outdir in (one, two):
        outdir.mkdir()
        save_postings(synth.postings, outdir / POSTINGS_FILE)

    run_staged(config, one)

    stage_normalize(config, two)
    stage_translate(config, two)
    stage_embed(config, two)
    stage_index(config, two)
    stage_dedup(config, two)

    assert (one / RESULTS_FILE).read_bytes() == (two / RESULTS_FILE).read_bytes()


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
            "dedup": {"k": 20, "base_theta": 0.35},
            "index": {"kind": "ivf", "nlist": 8, "nprobe": 8, "seed": 5},
        }
    )
    ivf_result = run_pipeline(synth.postings, ivf_config)
    assert ivf_result.pairs == flat_result.pairs  # nprobe = nlist: exact


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
    f1_plain = score(plain.pairs, synth.gold).per_class["SEMANTIC"].f1
    f1_rules = score(with_rules.pairs, synth.gold).per_class["SEMANTIC"].f1
    assert f1_rules > f1_plain
    rule_reasons = {p.reason for p in with_rules.pairs}
    assert any(r.startswith("rule(") for r in rule_reasons)


def test_results_independent_of_thread_count(tmp_path):
    synth, _ = small_corpus_setup(tmp_path, n_base=80, seed=17)
    def config_with_threads(n):
        return config_from_dict(
            {"mode": "multilingual", "threads": n, "dedup": {"k": 20, "base_theta": 0.35}}
        )
    single = run_pipeline(synth.postings, config_with_threads(1))
    threaded = run_pipeline(synth.postings, config_with_threads(4))
    assert single.pairs == threaded.pairs


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
    assert result.pairs


def test_multilingual_mode_uses_identity_translation(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=100, seed=13)
    ml_config = config_from_dict({"mode": "multilingual", "dedup": {"k": 20, "base_theta": 0.35}})
    two_step = run_pipeline(synth.postings, config)
    multilingual = run_pipeline(synth.postings, ml_config)
    f1_two = score(two_step.pairs, synth.gold).per_class["SEMANTIC"].f1
    f1_ml = score(multilingual.pairs, synth.gold).per_class["SEMANTIC"].f1
    assert f1_two > f1_ml  # cross-language pairs are invisible without translation


def test_run_staged_reads_no_artifact_but_postings(tmp_path, monkeypatch):
    synth, config = small_corpus_setup(tmp_path, n_base=40)
    outdir = tmp_path / "staged"
    outdir.mkdir()
    save_postings(synth.postings, outdir / POSTINGS_FILE)
    real_artifact = pipeline._artifact

    def postings_only(out, name):
        assert name == POSTINGS_FILE, f"run_staged read back {name}"
        return real_artifact(out, name)

    def no_read(*args, **kwargs):
        raise AssertionError("run_staged read back an artifact")

    monkeypatch.setattr(pipeline, "_artifact", postings_only)
    for reader in ("read_canonical_file", "read_translated_file", "load_index"):
        monkeypatch.setattr(pipeline, reader, no_read)
    staged = run_staged(config, outdir)
    assert staged.pairs == run_pipeline(synth.postings, config).pairs
    for name in (CANONICAL_FILE, TRANSLATED_FILE, EMBEDDINGS_FILE, INDEX_FILE, REPORT_FILE):
        assert (outdir / name).exists()


def test_stage_seconds_names_match_across_paths(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=40)
    outdir = tmp_path / "staged"
    outdir.mkdir()
    save_postings(synth.postings, outdir / POSTINGS_FILE)
    run_staged(config, outdir)
    on_disk = json.loads((outdir / REPORT_FILE).read_text(encoding="utf-8"))
    in_memory = run_pipeline(synth.postings, config).report.stage_seconds
    assert list(on_disk["stage_seconds"]) == list(in_memory) == [
        "normalize", "group_exact", "translate", "embed", "index", "candidates", "classify",
    ]


def test_flat_index_comparisons_equal_brute_force_comparisons(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    report = run_pipeline(synth.postings, config).report
    n = report.n_representatives - report.n_zero_vectors  # queries = indexed rows
    assert n > 1
    assert report.counters["index_comparisons"] == report.counters["brute_force_comparisons"] == n * n
    assert report.counters["brute_force_pairs"] == n * (n - 1) // 2


def test_partial_ivf_probe_compares_less_than_brute_force(tmp_path):
    synth, flat = small_corpus_setup(tmp_path, n_base=60)
    config = replace(flat, index=replace(flat.index, kind="ivf", nlist=8, nprobe=2))
    counters = run_pipeline(synth.postings, config).report.counters
    assert 0 < counters["index_comparisons"] < counters["brute_force_comparisons"]


def test_candidate_reduction_matches_independent_pair_count(tmp_path):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    outdir = tmp_path / "staged"
    outdir.mkdir()
    save_postings(synth.postings, outdir / POSTINGS_FILE)
    counters = run_staged(config, outdir).report.counters
    # Independent: every representative's k nearest others by (d2, id) in
    # a float64 scan of the written embeddings, as unordered pairs.
    items = load_index(outdir / EMBEDDINGS_FILE).items()
    ids = [vid for vid, _ in items]
    X = np.stack([vec.values for _, vec in items]).astype(np.float64)
    pairs = set()
    for i, vid in enumerate(ids):
        d2 = np.square(X - X[i]).sum(axis=1)
        others = sorted((j for j in range(len(ids)) if j != i), key=lambda j: (d2[j], ids[j]))
        pairs.update(tuple(sorted((vid, ids[j]))) for j in others[: config.dedup.k])
    brute = len(ids) * (len(ids) - 1) // 2
    assert counters["candidate_pairs"] == len(pairs)
    assert counters["brute_force_pairs"] == brute
    assert counters["candidate_reduction"] == 1 - len(pairs) / brute
    assert 0 < counters["candidate_reduction"] < 1


def test_rerank_rows_count_rows_through_the_exact_expression(tmp_path, monkeypatch):
    synth, config = small_corpus_setup(tmp_path, n_base=60)
    exact, rows_seen = index_module._row_sq_dists, []

    def counted(rows, query, buf):
        rows_seen.append(len(rows))
        return exact(rows, query, buf)

    monkeypatch.setattr(index_module, "_row_sq_dists", counted)
    report = run_pipeline(synth.postings, config).report
    n = report.n_representatives - report.n_zero_vectors
    counters = report.counters
    assert counters["rerank_rows"] == sum(rows_seen)
    assert n * (config.dedup.k + 1) <= counters["rerank_rows"] <= counters["index_comparisons"]


def test_ivf_rerank_rows_are_the_probed_rows(tmp_path):
    synth, flat = small_corpus_setup(tmp_path, n_base=60)
    config = replace(flat, index=replace(flat.index, kind="ivf", nlist=8, nprobe=2))
    outdir = tmp_path / "staged"
    outdir.mkdir()
    save_postings(synth.postings, outdir / POSTINGS_FILE)
    counters = run_staged(config, outdir).report.counters
    # Independent: each query's 2 nearest centroids (ties by list number)
    # and the sizes of their lists, read from the written index.
    index = load_index(outdir / INDEX_FILE)
    centroids = index._cent32.astype(np.float64)
    sizes = np.array(index.list_sizes())
    probed = 0
    for _, vec in load_index(outdir / EMBEDDINGS_FILE).items():
        d2 = np.square(centroids - vec.values.astype(np.float64)).sum(axis=1)
        probed += int(sizes[np.lexsort((np.arange(len(d2)), d2))[:2]].sum())
    assert counters["rerank_rows"] == counters["index_comparisons"] == probed
