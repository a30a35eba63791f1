"""Acceptance suite: one test per acceptance criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with the measured values.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from postdedup.config import config_from_dict
from postdedup.corpus import pair_count
from postdedup.dedup import choose_theta, collect_hits, saturation_report, threshold_sweep
from postdedup.embed import HashedEmbedder, truncation_report
from postdedup.errors import CorruptIndex
from postdedup.evaluation import score, write_results_csv
from postdedup.index import FlatIndex, IndexConfig, build_index, index_from_bytes
from postdedup.normalize import NormalizeConfig, clean_text
from postdedup.pipeline import (
    DICTIONARY_FILE,
    EMBEDDINGS_FILE,
    RESULTS_FILE,
    run_pipeline,
)
from postdedup.synth import DupPlan, synth_corpus
from postdedup.translate import translate_batch

from conftest import (
    fuzz_noisy_string,
    probed_rows,
    scan,
    scan_one,
    unit_vectors,
    write_stage_artifacts,
)


def _ok(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def _oracle_top_k(ids, matrix64, query32, k):
    # Exhaustive scan and a full python sort over (distance, id) tuples;
    # independent of the index's partition/lexsort selection path.
    d = np.sqrt(np.square(matrix64 - query32.astype(np.float64)).sum(axis=1))
    distances = sorted(zip(d.tolist(), ids))
    return distances[:k]


def test_criterion_1_flat_oracle_exactness():
    """Flat top-k equals the brute-force oracle, including tie order."""
    started = time.perf_counter()
    ids, matrix = vectors = unit_vectors(5_000, 64, seed=101)
    index = build_index(FlatIndex(*vectors), IndexConfig(kind="flat", dim=64))
    matrix = matrix.astype(np.float64)

    rng = np.random.default_rng(102)
    queries = rng.normal(size=(500, 64))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    queries = queries.astype(np.float32)

    for k in (1, 10, 100):
        for qi in range(500):
            hits = scan_one(index, queries[qi], k)
            oracle = _oracle_top_k(ids, matrix, queries[qi], k)
            assert [(d, vid) for vid, d in hits] == oracle, (k, qi)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok("1", f"5000 vectors, 500 queries, k in {{1,10,100}} exact in {elapsed:.1f}s")


def _join_by_id(index, k):
    """`self_join_arrays` hits as (query id rank, row id rank, distance), by query id."""
    qi, rows, distances = index.self_join_arrays(k)
    ranks = index._id_ranks
    order = np.argsort(ranks[qi], kind="stable")
    return ranks[qi][order], ranks[rows][order], distances[order]


def test_criterion_2_ivf_completeness_and_recall():
    """IVF probing all lists is exact; probing nlist/8 keeps recall@100 >= 0.95."""
    vectors = FlatIndex(*unit_vectors(5_000, 64, seed=101))
    flat = build_index(vectors, IndexConfig(kind="flat", dim=64))
    ivf = build_index(
        vectors, IndexConfig(kind="ivf", dim=64, nlist=64, nprobe=64, kmeans_iters=20, seed=7)
    )
    for flat_part, ivf_part in zip(_join_by_id(flat, 10), _join_by_id(ivf, 10)):
        assert flat_part.tobytes() == ivf_part.tobytes()

    # recall on a 16-component Gaussian mixture of 20,000 points
    rng = np.random.default_rng(104)
    centers = rng.normal(size=(16, 32)) * 10.0
    assignments = rng.integers(16, size=20_000)
    points = (centers[assignments] + rng.normal(size=(20_000, 32))).astype(np.float32)
    gmm_vectors = FlatIndex([f"g{i:05d}" for i in range(20_000)], points)
    gmm_flat = build_index(gmm_vectors, IndexConfig(kind="flat", dim=32))
    gmm_ivf = build_index(
        gmm_vectors, IndexConfig(kind="ivf", dim=32, nlist=64, nprobe=8, kmeans_iters=20, seed=9)
    )
    query_assign = rng.integers(16, size=200)
    queries = (centers[query_assign] + rng.normal(size=(200, 32))).astype(np.float32)
    # The exhaustive top 100 of each query, and that of the rows it probes,
    # which the IVF self-join scans exactly (test_index.py).
    truth_qi, truth_rows, _, _ = scan(gmm_flat, queries, 100)
    recalls = []
    for i, query in enumerate(queries):
        truth = {gmm_flat.ids[r] for r in truth_rows[truth_qi == i].tolist()}
        probed = probed_rows(gmm_ivf, query)
        d2 = np.square(gmm_ivf.vectors[probed].astype(np.float64) - query).sum(axis=1)
        approx = {gmm_ivf.ids[r] for r in probed[np.argsort(d2, kind="stable")[:100]].tolist()}
        recalls.append(len(truth & approx) / 100)
    mean_recall = float(np.mean(recalls))
    assert mean_recall >= 0.95
    _ok("2", f"nprobe=nlist exact; recall@100 at nprobe=8 = {mean_recall:.4f} >= 0.95")


def test_criterion_3_comparison_reduction_arithmetic():
    """Pair-count arithmetic and the candidate-generation work reduction."""
    assert pair_count(112_000) == 6_271_944_000
    assert pair_count(61_500) == 1_891_094_250
    reduction = 1 - pair_count(61_500) / pair_count(112_000)
    assert abs(reduction - 0.70) <= 0.002  # +/- 0.2 percentage points

    vectors = FlatIndex(*unit_vectors(10_000, 16, seed=105))
    index = build_index(vectors, IndexConfig(kind="flat", dim=16))
    pairs, _ = collect_hits(index, vectors, k=100)
    brute = pair_count(10_000)
    assert brute == 49_995_000
    assert len(pairs) <= 1_000_000
    candidate_reduction = 1 - len(pairs) / brute
    assert candidate_reduction >= 0.98
    _ok(
        "3",
        f"reduction 69.85% within 0.2pp of 70%; {len(pairs)} candidates vs "
        f"{brute} brute pairs ({candidate_reduction:.2%} reduction)",
    )


def _two_step_config(dictionary_path, base_theta, rules=None, sweep=None):
    raw = {
        "mode": "two_step",
        "translate": {"kind": "dictionary", "dictionary_path": str(dictionary_path)},
        "embed": {"kind": "hashed", "dim": 256, "max_tokens": 384},
        "dedup": {"k": 100, "base_theta": base_theta},
    }
    if rules is not None:
        raw["dedup"]["rules"] = rules
    if sweep is not None:
        raw["dedup"]["sweep_thetas"] = sweep
    return config_from_dict(raw)


def test_criterion_4_end_to_end_planted_duplicates(tmp_path):
    """Two-step pipeline recovers planted duplicates; expert rules add lift."""
    started = time.perf_counter()
    synth = synth_corpus(2_000, DupPlan(0.15, 0.15, 0.10), seed=401)
    dictionary_path = tmp_path / "dictionary.json"
    dictionary_path.write_text(json.dumps(synth.translation_dict), encoding="utf-8")

    # tune theta from a sweep of candidate distances, then score at that theta
    sweep_grid = [round(0.05 * i, 2) for i in range(1, 20)]
    probe = run_pipeline(
        synth.postings, _two_step_config(dictionary_path, 0.25, sweep=sweep_grid)
    )
    theta = choose_theta(probe.report["sweep"])
    result = run_pipeline(synth.postings, _two_step_config(dictionary_path, theta))
    report = score(result.label_map(), synth.gold)
    assert report["FULL"]["f1"] >= 0.99
    assert report["SEMANTIC"]["f1"] >= 0.90
    assert report["TEMPORAL"]["f1"] >= 0.90

    # a generator with metadata signal: the example expert ruleset must add
    # at least 0.02 absolute semantic F1 over the plain 0.25 threshold
    hard = synth_corpus(2_000, DupPlan(0.15, 0.15, 0.10, hard_semantic_fraction=0.3), seed=402)
    hard_dict = tmp_path / "hard_dictionary.json"
    hard_dict.write_text(json.dumps(hard.translation_dict), encoding="utf-8")
    plain = run_pipeline(hard.postings, _two_step_config(hard_dict, 0.25))
    ruled = run_pipeline(hard.postings, _two_step_config(hard_dict, 0.25, rules="example"))
    f1_plain = score(plain.label_map(), hard.gold)["SEMANTIC"]["f1"]
    f1_ruled = score(ruled.label_map(), hard.gold)["SEMANTIC"]["f1"]
    assert f1_ruled - f1_plain >= 0.02

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _ok(
        "4",
        f"theta={theta:.3f}: FULL={report['FULL']['f1']:.3f} "
        f"SEMANTIC={report['SEMANTIC']['f1']:.3f} "
        f"TEMPORAL={report['TEMPORAL']['f1']:.3f}; "
        f"rules lift {f1_plain:.3f}->{f1_ruled:.3f} in {elapsed:.1f}s",
    )


def test_criterion_5_normalization_idempotence():
    """clean(clean(x)) == clean(x) on 10,000 fuzzed strings, zero failures."""
    rng = random.Random(501)
    config = NormalizeConfig()
    failures = 0
    for _ in range(10_000):
        text = fuzz_noisy_string(rng)
        once = clean_text(text, config)
        if clean_text(once, config) != once:
            failures += 1
    assert failures == 0
    _ok("5", "10000 fuzzed strings, clean o clean == clean, 0 failures")


def test_criterion_6_threshold_geometry():
    """d^2 tracks 2(1-cos) to 1e-10 on unit vectors; sweep matches histogram."""
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(1_000):
        u = rng.normal(size=32)
        u /= np.linalg.norm(u)
        v = rng.normal(size=32)
        v /= np.linalg.norm(v)
        d2 = float(((u - v) ** 2).sum())
        cos = float(np.dot(u, v))
        worst = max(worst, abs(d2 - 2 * (1 - cos)))
    assert worst <= 1e-10

    distances = rng.uniform(0, 1.5, size=5_000)
    thetas = [0.1, 0.2, 0.25, 0.3, 0.45, 0.7, 1.0, 1.4]
    rows = threshold_sweep(distances, thetas, distances.size)
    counts = [count for _, count, _ in rows]
    assert counts == sorted(counts)
    for theta, count, _ in rows:
        assert count == int((distances < theta).sum())
    _ok("6", f"max |d^2 - 2(1-cos)| = {worst:.2e} <= 1e-10; sweep matches histogram")


def test_criterion_7_diagnostics_correctness():
    """Truncation stats match hand computation; saturation flags the clique."""
    texts = [" ".join(f"w{i}" for i in range(c)) for c in (100, 400, 500, 384, 385)]
    counts: list[int] = []
    HashedEmbedder(dim=16, max_tokens=384).embed_many(texts, counts)
    report = truncation_report(counts, 384)
    # losses: 16, 116, 1 -> over truncated records only
    assert report["n_total"] == 5
    assert report["n_truncated"] == 3
    assert report["fraction_truncated"] == pytest.approx(3 / 5)
    assert report["mean_tokens_lost"] == pytest.approx((16 + 116 + 1) / 3)
    assert report["median_tokens_lost"] == 16.0

    k, dim, theta = 10, 16, 0.25
    rng = np.random.default_rng(701)
    anchor = rng.normal(size=dim)
    anchor /= np.linalg.norm(anchor)
    clique = anchor + rng.normal(size=(k + 5, dim)) * 1e-3
    clique /= np.linalg.norm(clique, axis=1, keepdims=True)
    clique_ids = [f"c{i:02d}" for i in range(k + 5)]
    background_ids, background = unit_vectors(200, dim, seed=702)
    vectors = FlatIndex(
        clique_ids + [f"z{vid}" for vid in background_ids],
        np.concatenate([clique.astype(np.float32), background]),
    )
    index = build_index(vectors, IndexConfig(kind="flat", dim=dim))
    _, kth = collect_hits(index, vectors, k=k)
    sat = saturation_report(vectors.ids, kth, theta=theta, k=k)
    assert sat["saturated_ids"] == sorted(clique_ids)
    assert sat["count"] == k + 5
    _ok("7", f"truncation stats exact; saturation flags exactly the {k + 5} clique members")


def test_criterion_8_determinism_and_persistence(tmp_path):
    """Byte-identical reruns; bit-exact embeddings round-trip; corruption rejected."""
    outputs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        outdir.mkdir()
        synth = synth_corpus(150, DupPlan(0.2, 0.2, 0.1), seed=801)
        (outdir / DICTIONARY_FILE).write_text(
            json.dumps(synth.translation_dict), encoding="utf-8"
        )
        config = config_from_dict(
            {
                "mode": "two_step",
                "seed": 801,
                "translate": {
                    "kind": "dictionary",
                    "dictionary_path": str(outdir / DICTIONARY_FILE),
                },
                "dedup": {"k": 20, "base_theta": 0.35},
                "index": {"kind": "ivf", "nlist": 16, "nprobe": 16},
            }
        )
        result = run_pipeline(synth.postings, config)
        write_results_csv(result, outdir / RESULTS_FILE)
        write_stage_artifacts(synth.postings, config, outdir)
        outputs.append(
            (
                (outdir / RESULTS_FILE).read_bytes(),
                (outdir / EMBEDDINGS_FILE).read_bytes(),
                result.report["ivf_list_sizes"],
            )
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][2]["max"] > 0  # the IVF index each run built

    index_bytes = outputs[0][1]
    loaded = index_from_bytes(index_bytes)
    assert loaded.to_bytes() == index_bytes  # bit-exact round trip

    corrupted = bytearray(index_bytes)
    corrupted[len(corrupted) // 2] ^= 0x01
    with pytest.raises(CorruptIndex):
        index_from_bytes(bytes(corrupted))
    with pytest.raises(CorruptIndex):
        index_from_bytes(index_bytes[: len(index_bytes) - 7])
    _ok("8", "rerun byte-identical (results.csv, embeddings.pdix); corruption rejected")


class _SlowBackend:
    name = "slow"

    def __init__(self, latency: float):
        self.latency = latency

    def translate(self, texts, source, target):
        time.sleep(self.latency)
        return [t.upper() for t in texts]


def test_criterion_9_bounded_concurrency_contract():
    """4-way concurrency at least halves wall time; serial stays near B*L."""
    latency, n_batches = 0.05, 20
    texts = [f"text {i}" for i in range(n_batches)]
    serial_budget = n_batches * latency

    started = time.perf_counter()
    concurrent_out = translate_batch(
        texts, [None] * n_batches, _SlowBackend(latency), batch_size=1, max_in_flight=4
    )
    concurrent_wall = time.perf_counter() - started
    assert concurrent_wall <= 0.5 * serial_budget

    started = time.perf_counter()
    serial_out = translate_batch(
        texts, [None] * n_batches, _SlowBackend(latency), batch_size=1, max_in_flight=1
    )
    serial_wall = time.perf_counter() - started
    assert serial_wall >= 0.9 * serial_budget

    assert concurrent_out == serial_out == [f"TEXT {i}" for i in range(n_batches)]
    _ok(
        "9",
        f"B*L={serial_budget:.2f}s: wall {concurrent_wall:.2f}s at C=4, "
        f"{serial_wall:.2f}s at C=1, outputs identical",
    )
