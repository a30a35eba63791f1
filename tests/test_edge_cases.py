"""Adversarial and degenerate-input coverage across modules."""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from postdedup.config import config_from_dict
from postdedup.dedup import collect_hits
from postdedup.errors import CorruptIndex
from postdedup.index import FlatIndex, IndexConfig, build_index, index_from_bytes
from postdedup.normalize import clean_text, decode_entities
from postdedup.pipeline import run_pipeline
from postdedup.translate import TranslationCache

from conftest import join_hits, pair_keys, unit_vectors


def one_point() -> FlatIndex:
    return FlatIndex(["only"], [[1.0, 0.0]])


class TestDegenerateIndexes:
    def test_ivf_with_duplicate_heavy_data_leaves_empty_lists(self):
        # only two distinct points: most clusters stay empty, search still exact
        ids = [f"v{i:02d}" for i in range(10)] + [f"w{i:02d}" for i in range(10)]
        vectors = FlatIndex(ids, [[1.0, 0.0]] * 10 + [[0.0, 1.0]] * 10)
        ivf = build_index(vectors, IndexConfig(kind="ivf", dim=2, nlist=8, nprobe=8, seed=0))
        assert sum(ivf.list_sizes()) == 20
        hits = join_hits(ivf, 20)["v03"]
        assert hits[:10] == [(f"v{i:02d}", 0.0) for i in range(10)]

    def test_ivf_nlist_equal_to_point_count(self):
        flat = build_index(FlatIndex(*unit_vectors(12, 4, seed=31)), IndexConfig(dim=4))
        ivf = build_index(flat, IndexConfig(kind="ivf", dim=4, nlist=12, nprobe=12, seed=2))
        assert join_hits(ivf, 5) == join_hits(flat, 5)

    def test_single_point_index(self):
        index = build_index(one_point(), IndexConfig(dim=2))
        assert join_hits(index, 5) == {"only": [("only", 0.0)]}

    def test_search_rejects_nonpositive_k(self):
        index = build_index(one_point(), IndexConfig(dim=2))
        with pytest.raises(ValueError):
            index.self_join_arrays(0)

    def test_candidate_pairs_on_two_point_index(self):
        vectors = FlatIndex(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        index = build_index(vectors, IndexConfig(dim=2))
        assert pair_keys(collect_hits(index, vectors, k=5)[0]) == {("a", "b")}


class TestStructuralCorruption:
    """Corruptions that keep the CRC valid must still be rejected."""

    @staticmethod
    def _reseal(raw: bytes, mutate) -> bytes:
        payload = bytearray(raw[:-4])
        mutate(payload)
        return bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)))

    def test_unsupported_version(self):
        raw = FlatIndex(["a"], [[1.0, 0.0]]).to_bytes()

        def bump_version(payload):
            payload[4:6] = struct.pack("<H", 99)

        with pytest.raises(CorruptIndex, match="version"):
            index_from_bytes(self._reseal(raw, bump_version))

    def test_unknown_kind(self):
        # Only flat files are read; 1 was the IVF layout, which is not stored.
        raw = FlatIndex(["a"], [[1.0, 0.0]]).to_bytes()
        for kind in (1, 7):

            def set_kind(payload):
                payload[6] = kind

            with pytest.raises(CorruptIndex, match=f"unknown index kind {kind}"):
                index_from_bytes(self._reseal(raw, set_kind))

    def test_trailing_garbage_rejected(self):
        raw = FlatIndex(["a"], [[1.0, 0.0]]).to_bytes()

        def append_garbage(payload):
            payload.extend(b"XX")

        with pytest.raises(CorruptIndex):
            index_from_bytes(self._reseal(raw, append_garbage))


class TestNormalizeAdversarial:
    def test_surrogate_reference_left_verbatim(self):
        assert decode_entities("&#xD800;") == "&#xD800;"
        assert decode_entities("&#1114112;") == "&#1114112;"  # beyond U+10FFFF
        # and the cleaned text stays UTF-8 encodable
        clean_text("&#xD800; job").encode("utf-8")

    def test_filtering_can_assemble_a_reference(self):
        # the trademark sign is filtered out, exposing "&amp;", which the
        # next pipeline pass decodes; the fixpoint keeps clean idempotent
        once = clean_text("&am™p;")
        assert once == clean_text(once)
        assert once == "&"

    def test_filtering_can_expose_camel_boundary(self):
        once = clean_text("a™B")
        assert once == "a B"
        assert clean_text(once) == once

    def test_nested_double_escapes(self):
        assert clean_text("&amp;amp;lt;") == "<" or clean_text("&amp;amp;lt;") == ""
        # whatever it resolves to, it must be a fixed point
        once = clean_text("&amp;amp;lt;")
        assert clean_text(once) == once


class TestTranslationCacheFile:
    def test_last_entry_wins_on_load(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        records = [
            {"fingerprint": "f", "target": "en", "backend": "dictionary",
             "translated_text": "old", "timestamp": 1.0},
            {"fingerprint": "f", "target": "en", "backend": "dictionary",
             "translated_text": "new", "timestamp": 2.0},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        cache = TranslationCache(path)
        assert cache.get("f", "en", "dictionary") == "new"

    def test_put_does_not_duplicate_existing_key(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranslationCache(path)
        cache.put([("f", "en", "dictionary", "dog")])
        cache.put([("f", "en", "dictionary", "DOG")])  # ignored: key exists
        assert cache.get("f", "en", "dictionary") == "dog"
        assert len(path.read_text().strip().splitlines()) == 1


def test_run_pipeline_on_empty_corpus():
    config = config_from_dict({"mode": "multilingual"})
    result = run_pipeline([], config)
    assert len(result.pairs) == 0
    assert result.report["n_postings"] == 0
    assert result.report["counters"]["candidate_pairs"] == 0
