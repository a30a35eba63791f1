from __future__ import annotations

import json
import math
import random
import tracemalloc
from collections import Counter
from datetime import date
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import postdedup.index

from postdedup.dedup import (
    DuplicateLabel,
    ExpertRule,
    apply_rules_detailed,
    choose_theta,
    classify,
    collect_hits,
    default_rule,
    example_ruleset,
    saturation_report,
    threshold_sweep,
)
from postdedup.config import config_from_dict
from postdedup.errors import ConfigError, NoMatchingRule
from postdedup.evaluation import render_report
from postdedup.index import FlatIndex, IndexConfig, IVFIndex, build_index, load_index
from postdedup.normalize import canonicalize, fingerprint_text
from postdedup.pipeline import EMBEDDINGS_FILE, run_pipeline
from postdedup.synth import DupPlan, synth_corpus

from reference import per_pair_rules

from conftest import (
    candidate_pairs,
    make_posting,
    pair_keys,
    pair_triples,
    result_rows,
    search_hits,
    unit_vectors,
    write_stage_artifacts,
)


def rules_from_config(rules: list) -> tuple[ExpertRule, ...]:
    return config_from_dict({"dedup": {"rules": rules}}).dedup.rules


def pair(a, b, d) -> tuple[str, str, float]:
    return (a, b, d)


def rules_over(triples, postings_by_id, rules, base_theta=0.25):
    """`apply_rules_detailed` over the pairs of `triples`, with the postings
    of their names aligned to them."""
    pairs = candidate_pairs(triples)
    return apply_rules_detailed(pairs, [postings_by_id[n] for n in pairs.names], rules, base_theta)


def kept_under(pairs, theta):
    """The pairs a lone default rule at theta keeps (a strict distance comparison)."""
    postings = {pid: make_posting(pid) for a, b, _ in pairs for pid in (a, b)}
    return set(pair_triples(rules_over(pairs, postings, [default_rule(theta)], theta).pairs))


def distances_of(pairs) -> np.ndarray:
    return np.array([d for _, _, d in pairs], dtype=np.float64)


def count_under(pairs, theta):
    """The sweep's count at theta: pairs strictly under it."""
    return threshold_sweep(distances_of(pairs), [theta], len(pairs))[0][1]


class TestCandidatePairs:
    def test_three_identical_vectors_complete_graph(self):
        vectors = FlatIndex([f"v{i}" for i in range(3)], [[1, 0]] * 3)
        index = build_index(vectors, IndexConfig(dim=2))
        pairs, _ = collect_hits(index, vectors.ids, k=2)
        assert pair_keys(pairs) == {("v0", "v1"), ("v0", "v2"), ("v1", "v2")}
        assert (pairs.distances == 0.0).all()

    def test_k_capped_by_index_size(self):
        vectors = FlatIndex(["a", "b"], [[1, 0], [0, 1]])
        index = build_index(vectors, IndexConfig(dim=2))
        pairs, _ = collect_hits(index, vectors.ids, k=100)
        assert pair_keys(pairs) == {("a", "b")}

    def test_matches_exhaustive_knn_oracle(self):
        ids, matrix = vectors = unit_vectors(500, 16, seed=77)
        index = build_index(FlatIndex(*vectors), IndexConfig(dim=16))
        got = pair_keys(collect_hits(index, index.ids, k=10)[0])

        # oracle: full distance matrix in float64, take each row's true
        # 10 nearest (excluding self, ties by id), union as sorted pairs
        matrix = matrix.astype(np.float64)
        expected = set()
        for i in range(len(ids)):
            d = np.sqrt(((matrix - matrix[i]) ** 2).sum(axis=1))
            order = sorted(range(len(ids)), key=lambda j: (d[j], ids[j]))
            neighbors = [j for j in order if j != i][:10]
            for j in neighbors:
                expected.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
        assert got == expected

    def test_own_row_outside_the_k_plus_one_nearest(self):
        # Four equal rows tie at 0 and break ties by id, so "d" finds "a" and
        # "b" but not itself among its k + 1 = 2 nearest; it keeps "a" only.
        vectors = FlatIndex(["d", "c", "b", "a"], [[1, 0]] * 4)
        pairs, kth = collect_hits(vectors, sorted(vectors.ids), k=1)
        assert pair_keys(pairs) == {("a", "b"), ("a", "c"), ("a", "d")}
        assert kth.tolist() == [0.0] * 4

    def test_canonical_form(self):
        index = build_index(FlatIndex(*unit_vectors(50, 8, seed=78)), IndexConfig(dim=8))
        pairs, _ = collect_hits(index, index.ids, k=5)
        assert pairs.names == sorted(pairs.names)
        triples = pair_triples(pairs)
        assert all(a < b for a, b, _ in triples)
        assert [(a, b) for a, b, _ in triples] == sorted({(a, b) for a, b, _ in triples})


class TestThreshold:
    def test_strictly_below(self):
        pairs = {pair("a", "b", 0.10), pair("a", "c", 0.30)}
        assert {p[:2] for p in kept_under(pairs, 0.25)} == {("a", "b")}
        assert count_under(pairs, 0.25) == 1

    def test_theta_zero_keeps_nothing(self):
        assert count_under({pair("a", "b", 0.0)}, 0.0) == 0

    def test_exactly_at_threshold_excluded(self):
        assert kept_under({pair("a", "b", 0.25)}, 0.25) == set()
        assert count_under({pair("a", "b", 0.25)}, 0.25) == 0

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(6)
        pairs = {pair(f"a{i:05d}", f"b{i:05d}", rng.uniform(0, 2)) for i in range(10_000)}
        theta = 0.8
        got = kept_under(pairs, theta)
        expected = {p for p in pairs if p[2] < theta}
        assert got == expected
        assert count_under(pairs, theta) == len(expected)

    def test_monotone_in_theta(self):
        rng = random.Random(7)
        pairs = {pair(f"a{i}", f"b{i}", rng.uniform(0, 2)) for i in range(500)}
        previous = set()
        for theta in (0.1, 0.5, 0.9, 1.5, 2.0):
            kept = kept_under(pairs, theta)
            assert previous <= kept
            previous = kept
        assert previous == {p for p in pairs if p[2] < 2.0}


class TestSweep:
    def test_counts_at_thresholds(self):
        pairs = {pair("a", "b", 0.1), pair("a", "c", 0.2), pair("b", "c", 0.3)}
        rows = threshold_sweep(distances_of(pairs), [0.15, 0.25, 0.45], len(pairs))
        assert [(theta, count) for theta, count, _ in rows] == [(0.15, 1), (0.25, 2), (0.45, 3)]
        assert rows[-1][2] == pytest.approx(1.0)

    def test_empty_pairs(self):
        rows = threshold_sweep(np.array([]), [0.1, 0.2], 0)
        assert [(c, f) for _, c, f in rows] == [(0, 0.0), (0, 0.0)]

    def test_unsorted_thetas_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(np.array([]), [0.2, 0.1], 0)

    def test_matches_histogram_oracle(self):
        rng = random.Random(8)
        pairs = {pair(f"a{i:05d}", f"b{i:05d}", rng.uniform(0, 1.5)) for i in range(5_000)}
        thetas = [0.1, 0.25, 0.45, 0.8, 1.2, 1.6]
        rows = threshold_sweep(distances_of(pairs), thetas, len(pairs))
        distances = [d for _, _, d in pairs]
        for theta, count, fraction in rows:
            expected = sum(1 for d in distances if d < theta)
            assert count == expected
            assert fraction == pytest.approx(expected / len(distances))
        counts = [c for _, c, _ in rows]
        assert counts == sorted(counts)


    def test_six_percent_band_fraction(self):
        # pair set shaped so a 0.25 threshold keeps about 6% of pairs;
        # the swept fraction must equal an independent count exactly
        rng = random.Random(23)
        distances = [rng.uniform(0.0, 0.25) for _ in range(600)]
        distances += [rng.uniform(0.5, 1.5) for _ in range(9_400)]
        pairs = {pair(f"a{i:05d}", f"b{i:05d}", d) for i, d in enumerate(distances)}
        rows = threshold_sweep(distances_of(pairs), [0.1, 0.25, 0.45], len(pairs))
        _, kept, fraction = rows[1]
        independent = sum(1 for d in distances if d < 0.25)
        assert kept == independent
        assert fraction == independent / 10_000
        assert abs(fraction - 0.06) <= 0.01


class TestChooseTheta:
    def test_picks_midpoint_of_widest_kept_gap(self):
        pairs = {pair(f"a{i}", f"b{i}", d) for i, d in enumerate([0.1, 0.12, 0.15, 1.3, 1.35])}
        thetas = [round(0.05 * i, 2) for i in range(1, 30)]
        rows = threshold_sweep(distances_of(pairs), thetas, len(pairs))
        theta = choose_theta(rows)
        assert 0.15 < theta < 1.3  # inside the duplicate/non-duplicate gap

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            choose_theta([])


class TestRules:
    def setup_method(self):
        self.postings = {
            "a": make_posting("a", company="acme", location="riga", language="en"),
            "b": make_posting("b", company="acme", location="riga", language="en"),
            "c": make_posting("c", company="other", location="riga", language="en"),
            "d": make_posting("d", company=None, location=None, language=None),
            "e": make_posting("e", company=None, location=None),
            "f": make_posting("f", company="", location="", language=""),
        }

    def apply(self, triples, rules, base_theta=0.25):
        return rules_over(triples, self.postings, rules, base_theta)

    def first_rule(self, id_a, id_b, **matchers) -> int:
        """The index of the rule that fires on (id_a, id_b): 0 if a rule with
        these matchers accepts the pair, else 1 for the catch-all behind it."""
        rules = [ExpertRule(action="threshold", threshold=1.0, **matchers), default_rule(1.0)]
        kept = self.apply([pair(id_a, id_b, 0.1)], rules)
        assert pair_keys(kept.pairs) == {(id_a, id_b)}
        return int(kept.rule_indices[0])

    def test_override_keeps_pair_under_relaxed_threshold(self):
        rules = [
            ExpertRule(company="same", location="same", action="threshold", threshold=0.30),
            default_rule(0.25),
        ]
        kept = self.apply([pair("a", "b", 0.28)], rules)
        assert pair_keys(kept.pairs) == {("a", "b")}
        assert kept.rule_indices.tolist() == [0]

    def test_different_company_falls_to_base(self):
        rules = [
            ExpertRule(company="same", location="same", action="threshold", threshold=0.30),
            default_rule(0.25),
        ]
        assert len(self.apply([pair("a", "c", 0.28)], rules)) == 0
        assert self.apply([pair("a", "c", 0.2)], rules).rule_indices.tolist() == [1]

    def test_default_only_equals_distance_comparison(self):
        rng = random.Random(9)
        ids = list(self.postings)
        pairs = set()
        while len(pairs) < 40:
            x, y = rng.sample(ids, 2)
            pairs.add(pair(min(x, y), max(x, y), rng.uniform(0, 1)))
        under = {p for p in pairs if p[2] < 0.25}
        for rules in ([default_rule(0.25)], None):
            kept = self.apply(pairs, rules)
            assert set(pair_triples(kept.pairs)) == under
            assert kept.rule_indices.tolist() == [0] * len(under)

    def test_reject_action_drops_pair(self):
        rules = [
            ExpertRule(company="different", action="reject"),
            default_rule(0.5),
        ]
        assert len(self.apply([pair("a", "c", 0.01)], rules, 0.5)) == 0

    def test_missing_value_matches_any_missing_only(self):
        assert self.first_rule("a", "d", company="any_missing") == 0
        assert self.first_rule("a", "d", company="same") == 1
        assert self.first_rule("a", "d", company="different") == 1

    def test_missing_language_compares_as_und(self):
        assert self.first_rule("d", "e", language="same") == 0
        assert self.first_rule("a", "d", language="different") == 0
        assert self.first_rule("d", "f", language="same") == 0  # None and "" alike

    def test_no_matching_rule_raises(self):
        rules = [ExpertRule(company="same", action="threshold", threshold=0.3)]
        with pytest.raises(NoMatchingRule, match="'a', 'd'"):
            self.apply([pair("a", "b", 0.1), pair("a", "d", 0.1), pair("b", "d", 0.1)], rules)

    def test_postings_must_be_aligned_with_the_names(self):
        pairs = candidate_pairs([pair("a", "b", 0.1)])
        with pytest.raises(ValueError, match="aligned"):
            apply_rules_detailed(pairs, [self.postings["a"]], [default_rule(0.25)], 0.25)

    def test_prefilter_keeps_errors_of_pairs_over_every_threshold(self):
        # A pair far over every threshold still raises when no rule matches it.
        no_default = [ExpertRule(company="same", action="threshold", threshold=0.3)]
        with pytest.raises(NoMatchingRule):
            self.apply([pair("a", "d", 1.9)], no_default)

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            ExpertRule(company="sometimes")
        with pytest.raises(ConfigError):
            ExpertRule(action="threshold", threshold=None)
        with pytest.raises(ConfigError):
            ExpertRule(action="threshold", threshold=3.0)
        with pytest.raises(ConfigError):
            ExpertRule(action="reject", threshold=0.3)
        with pytest.raises(ConfigError):
            rules_from_config([{"company": "same", "action": "reject", "bogus": 1}])

    def test_rule_dict_round_trip(self):
        raw = {"company": "same", "location": "same", "action": "threshold", "threshold": 0.3}
        assert rules_from_config([raw]) == (
            ExpertRule(company="same", location="same", action="threshold", threshold=0.3),
        )
        reject = {"company": "different", "action": "reject"}
        assert rules_from_config([reject]) == (ExpertRule(company="different", action="reject"),)

    def test_example_ruleset_shape(self):
        rules = example_ruleset(0.25)
        assert rules[-1].is_catch_all
        assert rules[0].threshold == 0.30
        assert rules[1].threshold == 0.28
        assert rules[2].threshold == 0.25


MARCH, APRIL = date(2024, 3, 1).toordinal(), date(2024, 4, 2).toordinal()


def classify_one(same_text, day_a, day_b):
    """The label `classify` gives a single pair."""
    codes = classify(same_text, np.array([day_a], dtype=np.int64), np.array([day_b], dtype=np.int64))
    return list(DuplicateLabel)[int(codes[0])]


class TestClassify:
    # `same_text` is True for a pair inside one exact group (equal
    # fingerprints), False for a kept pair across two (the semantic pass).
    def test_equal_fingerprints_equal_dates_full(self):
        assert classify_one(True, MARCH, MARCH) == DuplicateLabel.FULL

    def test_equal_fingerprints_different_dates_temporal(self):
        assert classify_one(True, MARCH, APRIL) == DuplicateLabel.TEMPORAL

    def test_semantic_pass_equal_dates_semantic(self):
        assert classify_one(False, MARCH, MARCH) == DuplicateLabel.SEMANTIC

    def test_semantic_pass_different_dates_temporal(self):
        assert classify_one(False, APRIL, MARCH) == DuplicateLabel.TEMPORAL


# `same_text` is True for pairs inside one exact group (equal fingerprints),
# False for kept pairs across two (the semantic pass).
@pytest.mark.parametrize(
    "same_text, same_day_label",
    [(True, DuplicateLabel.FULL), (False, DuplicateLabel.SEMANTIC)],
    ids=["exact-group", "kept-pair"],
)
def test_classify_labels_by_text_and_day(same_text, same_day_label):
    day_a = np.array([MARCH, MARCH, APRIL], dtype=np.int64)
    day_b = np.array([MARCH, APRIL, MARCH], dtype=np.int64)
    codes = classify(same_text, day_a, day_b)
    labels = list(DuplicateLabel)
    assert [labels[c] for c in codes.tolist()] == [
        same_day_label, DuplicateLabel.TEMPORAL, DuplicateLabel.TEMPORAL
    ]
    assert classify(same_text, day_a[:0], day_b[:0]).size == 0


def fingerprint_label(id_a, id_b, postings_by_id, fingerprints_by_id, semantic_pass):
    """The label rule that compared both ids' fingerprints; None where it gave NONE."""
    same_date = postings_by_id[id_a].retrieval_date == postings_by_id[id_b].retrieval_date
    if fingerprints_by_id[id_a] == fingerprints_by_id[id_b]:
        return DuplicateLabel.FULL if same_date else DuplicateLabel.TEMPORAL
    if semantic_pass:
        return DuplicateLabel.SEMANTIC if same_date else DuplicateLabel.TEMPORAL
    return None


# Word-order swaps embed identically (a bag of tokens) but differ in canonical
# text, so they give kept pairs across exact groups; case and spacing do not
# change a fingerprint.
LABEL_TEXTS = ("senior chef", "chef senior", "senior chef kitchen", "line cook", "cook line")
LABEL_CONFIG = config_from_dict({"embed": {"dim": 64}, "dedup": {"k": 20, "base_theta": 0.9}})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_labels_equal_the_fingerprint_rule(data):
    counts = data.draw(
        st.lists(st.integers(0, 4), min_size=len(LABEL_TEXTS), max_size=len(LABEL_TEXTS))
        .filter(lambda c: sum(c) >= 2),
        label="members per text",
    )
    texts = [text for text, n in zip(LABEL_TEXTS, counts) for _ in range(n)]
    ids = data.draw(st.permutations([f"p{i:02d}" for i in range(len(texts))]), label="ids")
    n_dates = data.draw(st.integers(2, 3), label="dates")
    postings = [
        make_posting(
            pid,
            data.draw(st.sampled_from([text, text.upper(), text.title(), f" {text}  "])),
            retrieval_date=date(2024, 3, 1 + data.draw(st.integers(0, n_dates - 1))),
        )
        for pid, text in zip(ids, texts)
    ]
    pairs = result_rows(run_pipeline(postings, LABEL_CONFIG))

    postings_by_id = {p.id: p for p in postings}
    fingerprints = {
        p.id: fingerprint_text(canonicalize(p, LABEL_CONFIG.normalize)) for p in postings
    }
    same_text = {
        (a, b)
        for a, b in combinations(sorted(fingerprints), 2)
        if fingerprints[a] == fingerprints[b]
    }
    assert {p.key for p in pairs if p.reason == "exact_fingerprint"} == same_text
    for pair in pairs:
        semantic_pass = pair.reason != "exact_fingerprint"
        expected = fingerprint_label(
            pair.id_a, pair.id_b, postings_by_id, fingerprints, semantic_pass
        )
        assert pair.label == expected, pair


class TestSaturation:
    def test_all_hits_under_theta_saturated(self):
        vectors = FlatIndex(["q", "n1", "n2"], [[1, 0], [1, 0.01], [1, 0.02]])
        index = build_index(vectors, IndexConfig(dim=2))
        names = sorted(vectors.ids)
        _, kth = collect_hits(index, names, k=2)
        report = saturation_report(names, kth, theta=0.25, k=2)
        assert "q" in report["saturated_ids"]

    def test_kth_hit_over_theta_not_saturated(self):
        vectors = FlatIndex(["q", "n1", "far"], [[1, 0], [1, 0.1], [0, 1]])
        index = build_index(vectors, IndexConfig(dim=2))
        names = sorted(vectors.ids)
        _, kth = collect_hits(index, names, k=2)
        report = saturation_report(names, kth, theta=0.25, k=2)
        assert "q" not in report["saturated_ids"]

    def test_planted_clique_flagged_exactly(self):
        # clique of k+5 near-identical vectors plus a scattered background;
        # oracle: the full brute-force distance matrix
        k, dim, theta = 10, 8, 0.25
        rng = np.random.default_rng(55)
        clique = rng.normal(size=dim)
        clique /= np.linalg.norm(clique)
        noisy = clique + rng.normal(size=(k + 5, dim)) * 0.001
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        background_ids, background = unit_vectors(100, dim, seed=56)
        ids = [f"c{i:02d}" for i in range(k + 5)] + [f"z{vid}" for vid in background_ids]
        matrix = np.concatenate([noisy.astype(np.float32), background])

        index = build_index(FlatIndex(ids, matrix), IndexConfig(dim=dim))
        _, kth = collect_hits(index, index.ids, k=k)
        report = saturation_report(index.ids, kth, theta=theta, k=k)

        matrix = matrix.astype(np.float64)
        expected = []
        for i, vid in enumerate(ids):
            d = np.sqrt(((matrix - matrix[i]) ** 2).sum(axis=1))
            others = sorted(d[j] for j in range(len(ids)) if j != i)
            if len(others) >= k and others[k - 1] < theta:
                expected.append(vid)
        assert report["saturated_ids"] == sorted(expected)
        assert set(report["saturated_ids"]) == {f"c{i:02d}" for i in range(k + 5)}
        assert report["count"] == k + 5

    def test_ivf_query_found_by_k_others_but_finding_none_not_saturated(self):
        # Unit rows in 2-D at the angles below, each in its nearest list;
        # every query probes its two nearest lists. "n1" and "n2" probe
        # lists B and A and find "q", but "q" probes A and C and finds
        # neither. "q" is in k = 2 pairs under theta, so a rule on pair
        # degrees would flag it; it has no k-th hit of its own.
        k, theta = 2, 0.25
        unit = lambda degrees: [np.cos(np.radians(degrees)), np.sin(np.radians(degrees))]
        vectors = FlatIndex(
            ["n1", "n2", "q", "z"], np.array([unit(11), unit(12), unit(0), unit(-100)])
        )
        index = IVFIndex(
            vectors,
            np.array([unit(0), unit(20), unit(-15)]),  # lists A, B, C
            np.array([2, 0, 1, 3]),  # "q" in A, "n1" and "n2" in B, "z" in C
            [0, 1, 3, 4],
            nprobe=2,
        )
        assert index.ids == ["q", "n1", "n2", "z"]
        assert index.id_ranks.tolist() == [2, 0, 1, 3]
        pairs, kth = collect_hits(index, vectors.ids, k=k)
        report = saturation_report(vectors.ids, kth, theta=theta, k=k)

        under = [(a, b) for a, b, d in pair_triples(pairs) if d < theta]
        degree = Counter(name for pair in under for name in pair)
        assert degree["q"] == k
        assert report["saturated_ids"] == ["n1", "n2"]
        _, expected_kth = collect_hits_oracle(index, vectors.ids, k)
        assert [d.hex() for d in kth.tolist()] == expected_kth


# --- collect_hits against a per-query loop over a brute-force search -------

def pair_bits(pairs):
    """Each pair of a `CandidatePairs` as (id_a, id_b, distance bits), in its order."""
    return [(a, b, d.hex()) for a, b, d in pair_triples(pairs)]


def collect_hits_oracle(index, names, k, radius=math.inf):
    """Pairs as sorted (id_a, id_b, distance bits) and the k-th hit's bits of each of `names`.

    One query at a time over its k + 1 nearest probed rows by brute force
    (`search_hits`), those under `radius`: drop the query's own id, keep
    the first k, and take the union; a pair keeps the distance of its
    first hit.
    """
    found = search_hits(index, k + 1, radius)
    pairs, kth = {}, []
    for vid in names:
        hits = [(other, d) for other, d in found[vid] if other != vid][:k]
        for other, d in hits:
            pairs.setdefault(tuple(sorted((vid, other))), d.hex())
        kth.append(hits[k - 1][1].hex() if len(hits) == k else np.inf.hex())
    return [(a, b, bits) for (a, b), bits in sorted(pairs.items())], kth


def random_rows(rng, dim, n_background, clique, copies):
    """Unit rows: a near-identical clique, a background, and `copies` repeats of one row."""
    anchor = rng.normal(size=dim)
    near = anchor / np.linalg.norm(anchor) + rng.normal(size=(clique, dim)) * 1e-3
    rows = np.concatenate([near, rng.normal(size=(n_background, dim))])
    if not len(rows):
        rows = rng.normal(size=(1, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    repeated = np.repeat(rows[rng.integers(len(rows), size=1)], copies, axis=0)
    return np.concatenate([rows, repeated]).astype(np.float32)


def radius_near_a_hit(rng, rows, k, pick):
    """A radius at the distance from a row to one of its k + 1 nearest, or one ulp either side."""
    X = rows.astype(np.float64)
    nearest = np.sort(np.sqrt(np.square(X - X[rng.integers(len(X))]).sum(axis=1)))
    d = float(nearest[rng.integers(min(k + 1, len(X)))])
    return {
        "distance": d,
        "ulp_below": float(np.nextafter(d, 0)),
        "ulp_above": float(np.nextafter(d, np.inf)),
        "clique": 0.05,
        "everything": 2.5,
    }[pick]


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from([3, 8]),
    n_background=st.integers(0, 30),
    clique=st.integers(0, 12),
    copies=st.integers(0, 9),  # one row repeated: more than k ties at 0 hide the own row
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    pick=st.sampled_from(["none", "distance", "ulp_below", "ulp_above"]),
    kind=st.sampled_from(["flat", "ivf"]),
    nprobe=st.integers(1, 4),
    kmeans_iters=st.integers(1, 3),
    threads=st.sampled_from([1, 4]),
)
def test_collect_hits_equals_per_query_loop(
    dim, n_background, clique, copies, k, seed, pick, kind, nprobe, kmeans_iters, threads
):
    rng = np.random.default_rng(seed)
    rows = random_rows(rng, dim, n_background, clique, copies)
    ids = [f"v{i:03d}" for i in rng.permutation(len(rows))]
    radius = math.inf if pick == "none" else radius_near_a_hit(rng, rows, k, pick)
    vectors = FlatIndex(ids, rows)
    # Several probes of a few roughly trained lists make the search
    # asymmetric: a query can find a row that does not find it.
    nlist = min(4, len(rows))
    config = IndexConfig(
        kind=kind, dim=dim, nlist=nlist, nprobe=min(nprobe, nlist), kmeans_iters=kmeans_iters
    )
    index = build_index(vectors, config)
    expected_pairs, expected_kth = collect_hits_oracle(index, sorted(ids), k, radius)
    # Blocks of one to two queries, so four threads have blocks to spread.
    join = mock.patch.object(postdedup.index, "_self_join", wraps=postdedup.index._self_join)
    with mock.patch.object(postdedup.index, "_BLOCK_BYTES", 20 * len(rows)), join as spy:
        pairs, kth = collect_hits(index, sorted(ids), k, threads=threads, radius=radius)
    # A flat index decides each pair of its rows once.
    assert spy.called == (kind == "flat")
    assert pairs.names == sorted(ids)
    assert pair_bits(pairs) == expected_pairs
    assert [d.hex() for d in kth.tolist()] == expected_kth


def test_collect_hits_memory_follows_the_hits_not_k():
    # 500 near pairs of unit rows in 32 dimensions: under the radius each
    # query has one hit whatever k is, flat or probing 2 of 8 IVF lists.
    # Hits padded to (n, k + 1) would take 24 MB more at k = 1000 than at
    # k = 10.
    rng = np.random.default_rng(5)
    n, dim = 1000, 32
    rows = rng.normal(size=(n, dim))
    rows[1::2] = rows[::2] + rng.normal(size=(n // 2, dim)) * 1e-3
    rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
    flat = FlatIndex([f"v{i:04d}" for i in range(n)], rows)
    ivf = build_index(flat, IndexConfig(kind="ivf", dim=dim, nlist=8, nprobe=2, kmeans_iters=2))
    for index in (flat, ivf):
        peaks = []
        for k in (10, 1000):
            pairs, _ = collect_hits(index, flat.ids, k, radius=0.3)  # warm-up
            assert len(pairs) == n // 2, index.kind
            tracemalloc.start()
            try:
                collect_hits(index, flat.ids, k, radius=0.3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, (index.kind, peaks)


def test_collect_hits_is_a_self_join():
    # The names must be the index's ids in ascending order: other ids, too
    # few or too many, or the right ids in the wrong order are rejected.
    vectors = FlatIndex(["b", "c", "a"], [[1, 0], [0, 1], [1, 1]])
    assert len(collect_hits(vectors, ["a", "b", "c"], k=2)[0]) == 3
    for names in (["a", "b", "d"], ["a", "b"], ["a", "b", "c", "d"], ["b", "c", "a"]):
        with pytest.raises(ValueError, match="self-join"):
            collect_hits(vectors, names, k=2)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from([3, 8, 16]),
    n_background=st.integers(0, 30),
    clique=st.integers(0, 12),  # near-identical rows, often more than k
    copies=st.integers(0, 4),  # exact repeats of rows: ties at every distance
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    pick=st.sampled_from(["distance", "ulp_below", "ulp_above", "clique", "everything"]),
    kind=st.sampled_from(["flat", "ivf"]),
    threads=st.sampled_from([1, 4]),
)
def test_radius_search_equals_knn_then_filter(
    dim, n_background, clique, copies, k, seed, pick, kind, threads
):
    rng = np.random.default_rng(seed)
    anchor = rng.normal(size=dim)
    near = anchor / np.linalg.norm(anchor) + rng.normal(size=(clique, dim)) * 1e-3
    rows = np.concatenate([near, rng.normal(size=(n_background, dim))])
    if not len(rows):
        rows = rng.normal(size=(1, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = np.concatenate([rows, rows[rng.integers(len(rows), size=copies)]]).astype(np.float32)
    ids = [f"v{i:03d}" for i in rng.permutation(len(rows))]
    # The radius: the distance from a row to one of its k nearest (a tie at
    # R, met before the k cap), one ulp either side of it, one holding the
    # clique, or one holding every row.
    radius = radius_near_a_hit(rng, rows, k, pick)
    vectors = FlatIndex(ids, rows)
    config = IndexConfig(kind=kind, dim=dim, nlist=min(3, len(rows)), nprobe=min(2, len(rows)))
    index = build_index(vectors, config)
    names = sorted(ids)
    knn, knn_kth = collect_hits(index, names, k)
    # Blocks of one to two queries, so four threads have blocks to spread.
    with mock.patch.object(postdedup.index, "_BLOCK_BYTES", 20 * len(rows)):
        bounded, bounded_kth = collect_hits(index, names, k, threads=threads, radius=radius)

    under = [t for t in pair_bits(knn) if float.fromhex(t[2]) < radius]
    assert pair_bits(bounded) == under
    # A query has k hits under R iff its k-th k-NN hit is under R.
    expected_kth = np.where(knn_kth < radius, knn_kth, np.inf)
    assert [d.hex() for d in bounded_kth.tolist()] == [d.hex() for d in expected_kth.tolist()]
    for theta in (radius, radius / 2):
        assert saturation_report(names, bounded_kth, theta, k) == saturation_report(
            names, knn_kth, theta, k
        )
    thetas = [radius / 4, radius / 2, float(np.nextafter(radius, 0)), radius]
    sweep = [n for _, n, _ in threshold_sweep(bounded.distances, thetas, len(knn))]
    assert sweep == [n for _, n, _ in threshold_sweep(knn.distances, thetas, len(knn))]


@settings(max_examples=50)
@given(
    st.sets(
        st.tuples(st.integers(0, 30), st.integers(0, 30), st.floats(0, 2)).filter(
            lambda t: t[0] != t[1]
        ),
        max_size=30,
    ),
    st.floats(min_value=0, max_value=2),
)
def test_rule_threshold_keeps_strict_subset_property(raw, theta):
    pairs = {
        pair(f"n{min(a, b):02d}", f"n{max(a, b):02d}", d) for a, b, d in raw
    }
    assert count_under(pairs, theta) == sum(p[2] < theta for p in pairs)
    if theta == 0:
        return  # a threshold rule needs theta > 0
    kept = kept_under(pairs, theta)
    assert kept <= pairs
    assert all(p[2] < theta for p in kept)
    assert all(p[2] >= theta for p in pairs - kept)


# --- the array rule matcher against the per-pair one of `reference` ---------

_FIELD_VALUES = st.sampled_from([None, "", "x", "y"])
_THRESHOLDS = [0.2, 0.25, 0.5, 1.0]


@st.composite
def rulesets(draw):
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        reject = draw(st.booleans())
        rules.append(
            ExpertRule(
                company=draw(st.sampled_from(["same", "different", "any_missing", "any"])),
                language=draw(st.sampled_from(["same", "different", "any"])),
                location=draw(st.sampled_from(["same", "different", "any_missing", "any"])),
                action="reject" if reject else "threshold",
                threshold=None if reject else draw(st.sampled_from(_THRESHOLDS)),
            )
        )
    if draw(st.sampled_from([True, True, False])):
        rules.append(default_rule(draw(st.sampled_from(_THRESHOLDS))))
    return rules


@settings(max_examples=300, deadline=None)
@given(
    postings=st.lists(
        st.tuples(_FIELD_VALUES, _FIELD_VALUES, _FIELD_VALUES), min_size=6, max_size=6
    ),
    raw_pairs=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda t: t[0] < t[1]),
        st.one_of(st.sampled_from(_THRESHOLDS), st.floats(0, 1.2)),
        min_size=1,
        max_size=15,
    ),
    rules=rulesets(),
)
def test_array_rules_equal_per_pair_matcher(postings, raw_pairs, rules):
    ids = [f"p{i}" for i in range(6)]
    postings_by_id = {
        pid: make_posting(pid, company=company, location=location, language=language)
        for pid, (company, location, language) in zip(ids, postings)
    }
    triples = [(ids[a], ids[b], d) for (a, b), d in raw_pairs.items()]
    try:
        expected = per_pair_rules(triples, postings_by_id, rules)
    except NoMatchingRule as err:
        with pytest.raises(NoMatchingRule) as got:
            rules_over(triples, postings_by_id, rules)
        assert str(got.value) == str(err)
        return
    kept = rules_over(triples, postings_by_id, rules)
    assert list(zip(pair_triples(kept.pairs), kept.rule_indices.tolist())) == expected
    assert kept.rule_indices.dtype == np.int64


def test_report_rule_kept_counts_the_per_pair_matcher(tmp_path):
    synth = synth_corpus(60, DupPlan(0.15, 0.15, 0.10, hard_semantic_fraction=0.5), seed=3)
    dictionary = tmp_path / "dict.json"
    dictionary.write_text(json.dumps(synth.translation_dict), encoding="utf-8")
    # k over the corpus size: the candidates are every pair under the radius.
    config = config_from_dict(
        {
            "translate": {"kind": "dictionary", "dictionary_path": str(dictionary)},
            "dedup": {"k": 200, "base_theta": 0.25, "rules": "example"},
        }
    )
    outdir = write_stage_artifacts(synth.postings, config, tmp_path / "run")
    report = run_pipeline(synth.postings, config).report
    # Independent: every pair of embedded representatives under the search
    # radius, from a float64 scan, through the per-pair matcher.
    embedded = load_index(outdir / EMBEDDINGS_FILE)
    ids, X = embedded.ids, embedded.vectors.astype(np.float64)
    triples = []
    for i, vid in enumerate(ids):
        distances = np.sqrt(np.square(X - X[i]).sum(axis=1))
        triples += [
            (vid, ids[j], float(distances[j]))
            for j in range(len(ids))
            if vid < ids[j] and distances[j] < config.dedup.search_radius
        ]
    postings_by_id = {p.id: p for p in synth.postings}
    rules = list(config.dedup.rules)
    counts = Counter(index for _, index in per_pair_rules(triples, postings_by_id, rules))
    assert report["rule_kept"] == [counts[i] for i in range(len(rules))]
    assert len([c for c in report["rule_kept"] if c]) > 1  # more than one rule keeps pairs
    assert sum(report["rule_kept"]) == report["counters"]["kept_representative_pairs"]
    assert "-- kept per rule --" in render_report(report)
