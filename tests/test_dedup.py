from __future__ import annotations

import random
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postdedup.dedup import (
    CandidatePair,
    DuplicateLabel,
    ExpertRule,
    apply_rules,
    choose_theta,
    classify,
    collect_hits,
    default_rule,
    example_ruleset,
    pairs_from_hits,
    saturation_report,
    threshold_sweep,
)
from postdedup.embed import EmbeddingVector
from postdedup.errors import ConfigError, NoMatchingRule, UnknownId
from postdedup.index import IndexConfig, build_index

from conftest import make_posting, unit_vectors


def ev(values) -> EmbeddingVector:
    return EmbeddingVector(np.asarray(values, dtype=np.float32), "unit")


def pair(a, b, d) -> CandidatePair:
    return CandidatePair(a, b, d)


def kept_under(pairs, theta):
    """The pairs a lone default rule at theta keeps (a strict distance comparison)."""
    postings = {pid: make_posting(pid) for p in pairs for pid in p.key}
    return apply_rules(pairs, postings, [default_rule(theta)], theta)


def count_under(pairs, theta):
    """The sweep's count at theta: pairs strictly under it."""
    return threshold_sweep(pairs, [theta])[0][1]


class TestCandidatePairs:
    def test_three_identical_vectors_complete_graph(self):
        vectors = [(f"v{i}", ev([1, 0])) for i in range(3)]
        index = build_index(vectors, IndexConfig(dim=2))
        pairs = pairs_from_hits(collect_hits(index, vectors, k=2))
        assert {p.key for p in pairs} == {("v0", "v1"), ("v0", "v2"), ("v1", "v2")}
        assert all(p.distance == 0.0 for p in pairs)

    def test_k_capped_by_index_size(self):
        vectors = [("a", ev([1, 0])), ("b", ev([0, 1]))]
        index = build_index(vectors, IndexConfig(dim=2))
        pairs = pairs_from_hits(collect_hits(index, vectors, k=100))
        assert {p.key for p in pairs} == {("a", "b")}

    def test_matches_exhaustive_knn_oracle(self):
        vectors = unit_vectors(500, 16, seed=77)
        index = build_index(vectors, IndexConfig(dim=16))
        got = {p.key for p in pairs_from_hits(collect_hits(index, vectors, k=10))}

        # oracle: full distance matrix in float64, take each row's true
        # 10 nearest (excluding self, ties by id), union as sorted pairs
        matrix = np.stack([v.values for _, v in vectors]).astype(np.float64)
        ids = [vid for vid, _ in vectors]
        expected = set()
        for i in range(len(ids)):
            d = np.sqrt(((matrix - matrix[i]) ** 2).sum(axis=1))
            order = sorted(range(len(ids)), key=lambda j: (d[j], ids[j]))
            neighbors = [j for j in order if j != i][:10]
            for j in neighbors:
                expected.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
        assert got == expected

    def test_canonical_form(self):
        vectors = unit_vectors(50, 8, seed=78)
        index = build_index(vectors, IndexConfig(dim=8))
        pairs = pairs_from_hits(collect_hits(index, vectors, k=5))
        for p in pairs:
            assert p.id_a < p.id_b

    def test_pair_requires_ordered_ids(self):
        with pytest.raises(ValueError):
            CandidatePair("b", "a", 0.1)
        with pytest.raises(ValueError):
            CandidatePair("a", "a", 0.1)


class TestThreshold:
    def test_strictly_below(self):
        pairs = {pair("a", "b", 0.10), pair("a", "c", 0.30)}
        assert {p.key for p in kept_under(pairs, 0.25)} == {("a", "b")}
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
        expected = {p for p in pairs if p.distance < theta}
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
        assert previous == {p for p in pairs if p.distance < 2.0}


class TestSweep:
    def test_counts_at_thresholds(self):
        pairs = {pair("a", "b", 0.1), pair("a", "c", 0.2), pair("b", "c", 0.3)}
        rows = threshold_sweep(pairs, [0.15, 0.25, 0.45])
        assert [(theta, count) for theta, count, _ in rows] == [(0.15, 1), (0.25, 2), (0.45, 3)]
        assert rows[-1][2] == pytest.approx(1.0)

    def test_empty_pairs(self):
        rows = threshold_sweep(set(), [0.1, 0.2])
        assert [(c, f) for _, c, f in rows] == [(0, 0.0), (0, 0.0)]

    def test_unsorted_thetas_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(set(), [0.2, 0.1])

    def test_matches_histogram_oracle(self):
        rng = random.Random(8)
        pairs = {pair(f"a{i:05d}", f"b{i:05d}", rng.uniform(0, 1.5)) for i in range(5_000)}
        thetas = [0.1, 0.25, 0.45, 0.8, 1.2, 1.6]
        rows = threshold_sweep(pairs, thetas)
        distances = [p.distance for p in pairs]
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
        rows = threshold_sweep(pairs, [0.1, 0.25, 0.45])
        _, kept, fraction = rows[1]
        independent = sum(1 for d in distances if d < 0.25)
        assert kept == independent
        assert fraction == independent / 10_000
        assert abs(fraction - 0.06) <= 0.01


class TestChooseTheta:
    def test_picks_midpoint_of_widest_kept_gap(self):
        pairs = {pair(f"a{i}", f"b{i}", d) for i, d in enumerate([0.1, 0.12, 0.15, 1.3, 1.35])}
        thetas = [round(0.05 * i, 2) for i in range(1, 30)]
        rows = threshold_sweep(pairs, thetas)
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
        }

    def test_override_keeps_pair_under_relaxed_threshold(self):
        rules = [
            ExpertRule(company="same", location="same", action="threshold", threshold=0.30),
            default_rule(0.25),
        ]
        kept = apply_rules({pair("a", "b", 0.28)}, self.postings, rules, 0.25)
        assert {p.key for p in kept} == {("a", "b")}

    def test_different_company_falls_to_base(self):
        rules = [
            ExpertRule(company="same", location="same", action="threshold", threshold=0.30),
            default_rule(0.25),
        ]
        kept = apply_rules({pair("a", "c", 0.28)}, self.postings, rules, 0.25)
        assert kept == set()

    def test_default_only_equals_distance_comparison(self):
        rng = random.Random(9)
        ids = list(self.postings)
        pairs = set()
        while len(pairs) < 40:
            x, y = rng.sample(ids, 2)
            pairs.add(pair(min(x, y), max(x, y), rng.uniform(0, 1)))
        under = {p for p in pairs if p.distance < 0.25}
        assert apply_rules(pairs, self.postings, [default_rule(0.25)], 0.25) == under
        assert apply_rules(pairs, self.postings, None, 0.25) == under

    def test_reject_action_drops_pair(self):
        rules = [
            ExpertRule(company="different", action="reject"),
            default_rule(0.5),
        ]
        kept = apply_rules({pair("a", "c", 0.01)}, self.postings, rules, 0.5)
        assert kept == set()

    def test_missing_value_matches_any_missing_only(self):
        def rule(**kwargs):
            return ExpertRule(action="reject", **kwargs)

        assert rule(company="any_missing").matches(self.postings["a"], self.postings["d"])
        assert not rule(company="same").matches(self.postings["a"], self.postings["d"])
        assert not rule(company="different").matches(self.postings["a"], self.postings["d"])

    def test_missing_language_compares_as_und(self):
        def rule(**kwargs):
            return ExpertRule(action="reject", **kwargs)

        assert rule(language="same").matches(self.postings["d"], self.postings["e"])
        assert rule(language="different").matches(self.postings["a"], self.postings["d"])

    def test_no_matching_rule_raises(self):
        rules = [ExpertRule(company="same", action="threshold", threshold=0.3)]
        with pytest.raises(NoMatchingRule):
            apply_rules({pair("a", "d", 0.1)}, self.postings, rules, 0.25)

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownId):
            apply_rules({pair("a", "zz", 0.1)}, self.postings, [default_rule(0.25)], 0.25)

    def test_prefilter_keeps_errors_of_pairs_over_every_threshold(self):
        # The distance prefilter must not hide a pair that no rule matches,
        # or a pair with an unknown id, because it is far apart.
        no_default = [ExpertRule(company="same", action="threshold", threshold=0.3)]
        with pytest.raises(NoMatchingRule):
            apply_rules({pair("a", "d", 1.9)}, self.postings, no_default, 0.25)
        with pytest.raises(UnknownId):
            apply_rules({pair("a", "zz", 1.9)}, self.postings, [default_rule(0.25)], 0.25)

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
            ExpertRule.from_dict({"company": "same", "action": "reject", "bogus": 1})

    def test_rule_dict_round_trip(self):
        rule = ExpertRule(company="same", location="same", action="threshold", threshold=0.3)
        assert ExpertRule.from_dict(rule.to_dict()) == rule
        reject = ExpertRule(company="different", action="reject")
        assert ExpertRule.from_dict(reject.to_dict()) == reject

    def test_example_ruleset_shape(self):
        rules = example_ruleset(0.25)
        assert rules[-1].is_catch_all
        assert rules[0].threshold == 0.30
        assert rules[1].threshold == 0.28
        assert rules[2].threshold == 0.25


class TestClassify:
    def setup_method(self):
        self.postings = {
            "a": make_posting("a", retrieval_date=date(2024, 3, 1)),
            "b": make_posting("b", retrieval_date=date(2024, 3, 1)),
            "c": make_posting("c", retrieval_date=date(2024, 4, 2)),
        }
        self.fps = {"a": "f1", "b": "f1", "c": "f2"}

    def test_equal_fingerprints_equal_dates_full(self):
        assert classify("a", "b", self.postings, self.fps, False) == DuplicateLabel.FULL

    def test_equal_fingerprints_different_dates_temporal(self):
        fps = {"a": "f1", "c": "f1"}
        assert classify("a", "c", self.postings, fps, False) == DuplicateLabel.TEMPORAL

    def test_semantic_pass_equal_dates_semantic(self):
        fps = {"a": "f1", "b": "f9"}
        assert classify("a", "b", self.postings, fps, True) == DuplicateLabel.SEMANTIC

    def test_semantic_pass_different_dates_temporal(self):
        assert classify("a", "c", self.postings, self.fps, True) == DuplicateLabel.TEMPORAL

    def test_no_semantic_pass_none(self):
        assert classify("a", "c", self.postings, self.fps, False) == DuplicateLabel.NONE

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            classify("a", "zz", self.postings, self.fps, True)

    def test_deterministic(self):
        first = classify("a", "b", self.postings, self.fps, True)
        assert all(
            classify("a", "b", self.postings, self.fps, True) == first for _ in range(5)
        )


class TestSaturation:
    def test_all_hits_under_theta_saturated(self):
        vectors = [("q", ev([1, 0])), ("n1", ev([1, 0.01])), ("n2", ev([1, 0.02]))]
        index = build_index(vectors, IndexConfig(dim=2))
        hits = collect_hits(index, vectors, k=2)
        report = saturation_report(hits, theta=0.25, k=2)
        assert "q" in report.saturated_ids

    def test_kth_hit_over_theta_not_saturated(self):
        vectors = [("q", ev([1, 0])), ("n1", ev([1, 0.1])), ("far", ev([0, 1]))]
        index = build_index(vectors, IndexConfig(dim=2))
        hits = collect_hits(index, vectors, k=2)
        report = saturation_report(hits, theta=0.25, k=2)
        assert "q" not in report.saturated_ids

    def test_planted_clique_flagged_exactly(self):
        # clique of k+5 near-identical vectors plus a scattered background;
        # oracle: the full brute-force distance matrix
        k, dim, theta = 10, 8, 0.25
        rng = np.random.default_rng(55)
        clique = rng.normal(size=dim)
        clique /= np.linalg.norm(clique)
        vectors = []
        for i in range(k + 5):
            noisy = clique + rng.normal(size=dim) * 0.001
            noisy /= np.linalg.norm(noisy)
            vectors.append((f"c{i:02d}", ev(noisy)))
        background = unit_vectors(100, dim, seed=56)
        vectors += [(f"z{vid}", vec) for vid, vec in background]

        index = build_index(vectors, IndexConfig(dim=dim))
        hits = collect_hits(index, vectors, k=k)
        report = saturation_report(hits, theta=theta, k=k)

        matrix = np.stack([v.values for _, v in vectors]).astype(np.float64)
        ids = [vid for vid, _ in vectors]
        expected = []
        for i, vid in enumerate(ids):
            d = np.sqrt(((matrix - matrix[i]) ** 2).sum(axis=1))
            others = sorted(d[j] for j in range(len(ids)) if j != i)
            if len(others) >= k and others[k - 1] < theta:
                expected.append(vid)
        assert report.saturated_ids == sorted(expected)
        assert set(report.saturated_ids) == {f"c{i:02d}" for i in range(k + 5)}
        assert report.count == k + 5


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
    assert count_under(pairs, theta) == sum(p.distance < theta for p in pairs)
    if theta == 0:
        return  # a threshold rule needs theta > 0
    kept = kept_under(pairs, theta)
    assert kept <= pairs
    assert all(p.distance < theta for p in kept)
    assert all(p.distance >= theta for p in pairs - kept)
