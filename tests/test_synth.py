from __future__ import annotations

import numpy as np
import pytest

from postdedup.corpus import save_postings
from postdedup.dedup import DuplicateLabel
from postdedup.embed import HashedEmbedder, token_hash
from postdedup.errors import ConfigError
from postdedup.normalize import canonicalize, fingerprint_text, group_exact
from postdedup.synth import (
    DupPlan,
    make_pseudo_languages,
    make_vocabulary,
    synth_corpus,
)
from postdedup.translate import DictionaryTranslator


def test_zero_rates_give_empty_gold():
    result = synth_corpus(20, DupPlan(0.0, 0.0, 0.0), seed=1)
    assert len(result.gold) == 0
    assert len(result.postings) == 20


def test_full_rate_half_plants_five_pairs():
    result = synth_corpus(10, DupPlan(0.5, 0.0, 0.0), seed=2)
    assert len(result.postings) == 15
    labels = list(result.gold.pairs.values())
    assert labels.count(DuplicateLabel.FULL) == 5
    # every planted FULL pair is canonicalization-equal
    fingerprints = {p.id: fingerprint_text(canonicalize(p)) for p in result.postings}
    for id_a, id_b in result.gold.pairs:
        assert fingerprints[id_a] == fingerprints[id_b]


def test_rates_validated():
    with pytest.raises(ConfigError):
        DupPlan(0.6, 0.3, 0.2)
    with pytest.raises(ConfigError):
        DupPlan(-0.1, 0.0, 0.0)


def test_fixed_seed_is_byte_identical(tmp_path):
    a = synth_corpus(60, DupPlan(0.2, 0.2, 0.1), seed=9)
    b = synth_corpus(60, DupPlan(0.2, 0.2, 0.1), seed=9)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_postings(a.postings, path_a)
    save_postings(b.postings, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert a.gold.pairs == b.gold.pairs
    assert a.translation_dict == b.translation_dict


def test_different_seeds_differ():
    a = synth_corpus(30, DupPlan(0.2, 0.2, 0.1), seed=1)
    b = synth_corpus(30, DupPlan(0.2, 0.2, 0.1), seed=2)
    assert [p.title for p in a.postings] != [p.title for p in b.postings]


def test_vocabulary_is_bucket_distinct():
    vocab = make_vocabulary(dim=256, size=200, seed=0)
    buckets = [token_hash(w) % 256 for w in vocab]
    assert len(set(buckets)) == len(vocab) == 200
    assert all("q" not in w for w in vocab)


def test_vocabulary_size_capped_by_dim():
    with pytest.raises(ConfigError):
        make_vocabulary(dim=64, size=100)


def test_pseudo_language_round_trip():
    vocab = make_vocabulary(seed=3)
    languages = make_pseudo_languages(["qaa", "qab"], vocab)
    merged = {}
    for lang in languages:
        assert set(lang.mapping) == set(vocab)
        for word, foreign in lang.mapping.items():
            assert foreign.startswith("q")
            merged[foreign] = word
    translator = DictionaryTranslator(merged)
    text = " ".join(languages[0].mapping[w] for w in vocab[:8])
    assert translator.translate([text], None, "en") == [" ".join(vocab[:8])]


def test_temporal_pairs_shift_dates():
    result = synth_corpus(40, DupPlan(0.0, 0.0, 0.5), seed=4)
    postings = {p.id: p for p in result.postings}
    assert len(result.gold) == 20
    for (id_a, id_b), label in result.gold.pairs.items():
        assert label == DuplicateLabel.TEMPORAL
        assert postings[id_a].retrieval_date != postings[id_b].retrieval_date


def test_semantic_pairs_share_dates():
    result = synth_corpus(40, DupPlan(0.0, 0.5, 0.0), seed=5)
    postings = {p.id: p for p in result.postings}
    for (id_a, id_b), label in result.gold.pairs.items():
        assert label == DuplicateLabel.SEMANTIC
        assert postings[id_a].retrieval_date == postings[id_b].retrieval_date


def test_hard_pairs_share_present_metadata():
    result = synth_corpus(100, DupPlan(0.0, 0.4, 0.0, hard_semantic_fraction=1.0), seed=6)
    postings = {p.id: p for p in result.postings}
    for id_a, id_b in result.gold.pairs:
        a, b = postings[id_a], postings[id_b]
        assert a.company is not None and a.company == b.company
        assert a.location is not None and a.location == b.location


def test_generator_separation_margin_brute_force():
    """Every planted pair embeds under the declared margin after translation;
    every other pair embeds above it."""
    result = synth_corpus(
        300, DupPlan(0.15, 0.15, 0.10, hard_semantic_fraction=0.3), seed=7
    )
    postings = sorted(result.postings, key=lambda p: p.id)
    canonicals = [canonicalize(p) for p in postings]
    groups = group_exact(canonicals)
    rep_text = {postings[g[0]].id: canonicals[g[0]] for g in groups}
    rep_of = {postings[member].id: postings[g[0]].id for g in groups for member in g}

    translator = DictionaryTranslator(result.translation_dict)
    embedder = HashedEmbedder(dim=256)
    reps = sorted(rep_text)
    vectors = embedder.embed_many(translator.translate([rep_text[r] for r in reps], None, "en"))
    matrix = vectors.astype(np.float64)
    index_of = {r: i for i, r in enumerate(reps)}

    gold_rep_pairs = set()
    for id_a, id_b in result.gold.pairs:
        ra, rb = rep_of[id_a], rep_of[id_b]
        if ra != rb:
            gold_rep_pairs.add((min(ra, rb), max(ra, rb)))

    # brute force over all representative pairs
    margin = result.separation_margin
    distances = np.sqrt(
        ((matrix[:, None, :] - matrix[None, :, :]) ** 2).sum(axis=2)
    )
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            d = distances[i, j]
            if (reps[i], reps[j]) in gold_rep_pairs:
                assert d < margin, (reps[i], reps[j], d)
            else:
                assert d > margin, (reps[i], reps[j], d)


def test_language_mix_and_countries():
    result = synth_corpus(200, DupPlan(0.1, 0.1, 0.1), seed=8)
    languages = {p.language for p in result.postings}
    assert "en" in languages
    assert any(lang and lang.startswith("qa") for lang in languages)
    foreign = [p for p in result.postings if p.language != "en"]
    assert foreign
    # foreign postings render in their pseudo-language (canonicalize first:
    # full-duplicate partners carry presentation noise like tags and case flips)
    for p in foreign[:5]:
        words = canonicalize(p).lower().split()
        assert words and all(w.startswith("q") for w in words)
