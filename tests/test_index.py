from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postdedup.embed import EmbeddingVector
from postdedup.errors import (
    CorruptIndex,
    DimensionMismatch,
    DuplicateId,
    EmptyInput,
    NlistExceedsPoints,
    ZeroVector,
)
from postdedup.index import (
    FlatIndex,
    IndexConfig,
    IVFIndex,
    _row_sq_dists,
    build_index,
    index_from_bytes,
    load_index,
)

from conftest import unit_vectors


def brute_force_search(ids, matrix32, query32, k):
    """Independent oracle: exhaustive scan over every row, full python sort.

    Distances follow the same contract as the index (float64 accumulation
    over float32 values with numpy's reduction), so agreement is bitwise.
    """
    q = np.asarray(query32, dtype=np.float32).astype(np.float64)
    hits = []
    for i, vid in enumerate(ids):
        diff = matrix32[i].astype(np.float64) - q
        hits.append((float(np.sqrt(np.square(diff).sum())), vid))
    hits.sort()
    return hits[:k]


def as_matrix(vectors):
    return np.stack([vec.values for _, vec in vectors])


def ev(values) -> EmbeddingVector:
    return EmbeddingVector(np.asarray(values, dtype=np.float32), "unit")


class TestFlatBasics:
    def test_two_vector_index(self):
        index = build_index([("e1", ev([1, 0])), ("e2", ev([0, 1]))], IndexConfig(dim=2))
        assert len(index) == 2

    def test_nearest_at_distance_zero(self):
        index = build_index([("e1", ev([1, 0])), ("e2", ev([0, 1]))], IndexConfig(dim=2))
        hits = index.search(ev([1, 0]), 1)
        assert [(h.id, h.distance) for h in hits] == [("e1", 0.0)]

    def test_second_hit_is_sqrt2(self):
        index = build_index([("e1", ev([1, 0])), ("e2", ev([0, 1]))], IndexConfig(dim=2))
        hits = index.search(ev([1, 0]), 2)
        assert hits[0].id == "e1"
        assert hits[1].id == "e2"
        assert hits[1].distance == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_k_larger_than_index_returns_all(self):
        index = build_index([("e1", ev([1, 0])), ("e2", ev([0, 1]))], IndexConfig(dim=2))
        assert len(index.search(ev([1, 0]), 100)) == 2

    def test_ties_break_by_ascending_id(self):
        vectors = [("z", ev([1, 0])), ("a", ev([1, 0])), ("m", ev([1, 0]))]
        index = build_index(vectors, IndexConfig(dim=2))
        hits = index.search(ev([1, 0]), 3)
        assert [h.id for h in hits] == ["a", "m", "z"]


class TestBuildValidation:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_index([], IndexConfig(dim=2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_index([("a", ev([1, 0, 0]))], IndexConfig(dim=2))

    def test_zero_vector_rejected(self):
        zero = EmbeddingVector(np.zeros(2, dtype=np.float32), "zero")
        with pytest.raises(ZeroVector):
            build_index([("a", zero)], IndexConfig(dim=2))

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateId):
            build_index([("a", ev([1, 0])), ("a", ev([0, 1]))], IndexConfig(dim=2))

    def test_nlist_exceeds_points(self):
        vectors = [(f"v{i}", ev([i, 1])) for i in range(4)]
        with pytest.raises(NlistExceedsPoints):
            build_index(vectors, IndexConfig(kind="ivf", dim=2, nlist=8, nprobe=1))

    def test_nprobe_exceeds_nlist_rejected(self):
        with pytest.raises(ValueError):
            IndexConfig(kind="ivf", dim=2, nlist=4, nprobe=8)

    def test_search_dimension_mismatch(self):
        index = build_index([("a", ev([1, 0]))], IndexConfig(dim=2))
        with pytest.raises(DimensionMismatch):
            index.search(ev([1, 0, 0]), 1)


def test_flat_equals_brute_force_oracle_with_ties():
    vectors = unit_vectors(1_000, 16, seed=3)
    # plant exact duplicates to force distance ties
    vectors += [("dup_" + vid, vec) for vid, vec in vectors[:20]]
    index = build_index(vectors, IndexConfig(dim=16))
    matrix = as_matrix(vectors)
    ids = [vid for vid, _ in vectors]
    rng = np.random.default_rng(9)
    for _ in range(25):
        q = rng.normal(size=16).astype(np.float32)
        for k in (1, 7, 100):
            hits = index.search(q, k)
            oracle = brute_force_search(ids, matrix, q, k)
            assert [(h.distance, h.id) for h in hits] == oracle


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
)
def test_flat_matches_oracle_property(n, k, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-3, 4, size=(n, 3)).astype(np.float32)
    matrix[matrix.sum(axis=1) == 0] += 1.0  # avoid all-zero rows
    vectors = [(f"v{i:03d}", ev(matrix[i])) for i in range(n)]
    index = build_index(vectors, IndexConfig(dim=3))
    q = rng.integers(-3, 4, size=3).astype(np.float32)
    hits = index.search(q, k)
    oracle = brute_force_search([v for v, _ in vectors], as_matrix(vectors), q, k)
    assert [(h.distance, h.id) for h in hits] == oracle


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
def test_ivf_probe_all_equals_flat_property(n, nlist_div, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, 4)).astype(np.float32)
    vectors = [(f"v{i:03d}", ev(matrix[i])) for i in range(n)]
    nlist = max(1, n // (nlist_div * 2))
    flat = build_index(vectors, IndexConfig(dim=4))
    ivf = build_index(
        vectors, IndexConfig(kind="ivf", dim=4, nlist=nlist, nprobe=nlist, seed=seed % 1000)
    )
    q = rng.normal(size=4).astype(np.float32)
    assert [(h.id, h.distance) for h in ivf.search(q, 7)] == [
        (h.id, h.distance) for h in flat.search(q, 7)
    ]


class TestIVF:
    def test_two_separated_clusters_fill_two_lists(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 8)) + 100.0
        b = rng.normal(size=(50, 8)) - 100.0
        vectors = [(f"a{i:02d}", ev(a[i])) for i in range(50)]
        vectors += [(f"b{i:02d}", ev(b[i])) for i in range(50)]
        index = build_index(
            vectors, IndexConfig(kind="ivf", dim=8, nlist=2, nprobe=1, seed=11)
        )
        assert sorted(index.list_sizes()) == [50, 50]
        # each inverted list holds exactly one planted cluster
        offsets = index._offsets
        first = {index.ids[i][0] for i in range(int(offsets[0]), int(offsets[1]))}
        second = {index.ids[i][0] for i in range(int(offsets[1]), int(offsets[2]))}
        assert first != second
        assert len(first) == len(second) == 1

    def test_matches_reference_lloyd_assignment(self):
        # Reference oracle: plain Lloyd's from the same seeded init.
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 4)) + 50.0
        b = rng.normal(size=(50, 4)) - 50.0
        X = np.concatenate([a, b]).astype(np.float32)
        vectors = [(f"v{i:03d}", ev(X[i])) for i in range(100)]
        index = build_index(
            vectors, IndexConfig(kind="ivf", dim=4, nlist=2, nprobe=2, seed=5)
        )
        # with fully separated clusters any Lloyd's run converges to the
        # same partition regardless of initialization
        sizes = sorted(index.list_sizes())
        assert sizes == [50, 50]

    def test_probe_all_equals_flat_exactly(self):
        vectors = unit_vectors(400, 12, seed=21)
        flat = build_index(vectors, IndexConfig(dim=12))
        ivf = build_index(
            vectors, IndexConfig(kind="ivf", dim=12, nlist=16, nprobe=16, seed=2)
        )
        rng = np.random.default_rng(3)
        for _ in range(40):
            q = rng.normal(size=12).astype(np.float32)
            fhits = flat.search(q, 25)
            ihits = ivf.search(q, 25)
            assert [(h.id, h.distance) for h in fhits] == [(h.id, h.distance) for h in ihits]

    def test_partial_probe_scans_only_probed_lists(self):
        vectors = unit_vectors(300, 8, seed=1)
        ivf = build_index(
            vectors, IndexConfig(kind="ivf", dim=8, nlist=10, nprobe=3, seed=7)
        )
        ivf.reset_comparison_count()
        ivf.search(vectors[0][1], 5)
        assert ivf.comparison_count < 300
        sizes = sorted(ivf.list_sizes(), reverse=True)
        assert ivf.comparison_count <= sum(sizes[:3])

    def test_flat_comparison_counter(self):
        vectors = unit_vectors(50, 4, seed=2)
        flat = build_index(vectors, IndexConfig(dim=4))
        flat.reset_comparison_count()
        flat.search(vectors[0][1], 3)
        flat.search(vectors[1][1], 3)
        assert flat.comparison_count == 100


class TestBatch:
    def test_batch_of_one_equals_single(self):
        vectors = unit_vectors(64, 8, seed=4)
        index = build_index(vectors, IndexConfig(dim=8))
        q = vectors[5][1]
        assert index.search_batch([q], 3) == [index.search(q, 3)]

    def test_self_queries_hit_themselves(self):
        vectors = unit_vectors(128, 8, seed=5)
        index = build_index(vectors, IndexConfig(dim=8))
        results = index.search_batch([vec for _, vec in vectors], 1)
        for (vid, _), hits in zip(vectors, results):
            assert hits[0].id == vid
            assert hits[0].distance == 0.0

    def test_batch_equals_sequential_loop(self):
        vectors = unit_vectors(128, 8, seed=6)
        index = build_index(vectors, IndexConfig(dim=8))
        rng = np.random.default_rng(8)
        queries = [rng.normal(size=8).astype(np.float32) for _ in range(5_000)]
        batched = index.search_batch(queries, 10)
        sequential = [index.search(q, 10) for q in queries]
        assert batched == sequential

    def test_threaded_batch_equals_sequential(self):
        vectors = unit_vectors(200, 8, seed=7)
        index = build_index(vectors, IndexConfig(dim=8))
        rng = np.random.default_rng(10)
        queries = [rng.normal(size=8).astype(np.float32) for _ in range(100)]
        assert index.search_batch(queries, 5, threads=4) == index.search_batch(queries, 5)

    def test_threads_never_share_a_distance_buffer(self):
        # More threads than cores and a tiny switch interval interleave the
        # searches; a buffer shared between threads would corrupt distances.
        vectors = unit_vectors(400, 16, seed=9)
        rng = np.random.default_rng(11)
        queries = [rng.normal(size=16).astype(np.float32) for _ in range(300)]
        ivf = IndexConfig(kind="ivf", dim=16, nlist=8, nprobe=3, seed=1)
        for config in (IndexConfig(dim=16), ivf):
            index = build_index(vectors, config)
            expected = [index.search(q, 7) for q in queries]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = index.search_batch(queries, 7, threads=8)
            finally:
                sys.setswitchinterval(interval)
            assert got == expected, config.kind


class TestPersistence:
    def test_flat_round_trip_preserves_search(self, tmp_path):
        vectors = unit_vectors(150, 8, seed=12)
        index = build_index(vectors, IndexConfig(dim=8))
        path = tmp_path / "flat.pdix"
        index.save(path)
        loaded = load_index(path)
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = rng.normal(size=8).astype(np.float32)
            assert index.search(q, 10) == loaded.search(q, 10)

    def test_round_trip_bytes_stable(self, tmp_path):
        vectors = unit_vectors(80, 8, seed=13)
        for config in (
            IndexConfig(dim=8),
            IndexConfig(kind="ivf", dim=8, nlist=4, nprobe=2, seed=3),
        ):
            index = build_index(vectors, config)
            raw = index.to_bytes()
            assert index_from_bytes(raw).to_bytes() == raw

    def test_same_seed_builds_byte_identical_index(self):
        vectors = unit_vectors(120, 8, seed=14)
        config = IndexConfig(kind="ivf", dim=8, nlist=8, nprobe=2, seed=42)
        assert build_index(vectors, config).to_bytes() == build_index(vectors, config).to_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        vectors = unit_vectors(20, 4, seed=15)
        index = build_index(vectors, IndexConfig(dim=4))
        raw = index.to_bytes()
        for cut in (3, len(raw) // 2, len(raw) - 1):
            with pytest.raises(CorruptIndex):
                index_from_bytes(raw[:cut])

    def test_flipped_byte_rejected(self):
        vectors = unit_vectors(20, 4, seed=16)
        raw = bytearray(build_index(vectors, IndexConfig(dim=4)).to_bytes())
        raw[10] ^= 0xFF
        with pytest.raises(CorruptIndex):
            index_from_bytes(bytes(raw))

    def test_bad_magic_rejected(self):
        vectors = unit_vectors(5, 4, seed=17)
        raw = bytearray(build_index(vectors, IndexConfig(dim=4)).to_bytes())
        raw[0:4] = b"NOPE"
        with pytest.raises(CorruptIndex):
            index_from_bytes(bytes(raw))

    def test_unicode_ids_survive(self, tmp_path):
        vectors = [("żółć-1", ev([1, 0])), ("日本-2", ev([0, 1]))]
        index = build_index(vectors, IndexConfig(dim=2))
        path = tmp_path / "uni.pdix"
        index.save(path)
        assert load_index(path).ids == ["żółć-1", "日本-2"]

    def test_loaded_ivf_defaults_to_exact_probing(self, tmp_path):
        vectors = unit_vectors(64, 8, seed=18)
        ivf = build_index(vectors, IndexConfig(kind="ivf", dim=8, nlist=8, nprobe=2, seed=1))
        path = tmp_path / "ivf.pdix"
        ivf.save(path)
        loaded = load_index(path)
        assert isinstance(loaded, IVFIndex)
        assert loaded.nprobe == loaded.nlist


def test_distance_matches_high_precision_oracle():
    vectors = unit_vectors(200, 32, seed=19)
    index = build_index(vectors, IndexConfig(dim=32))
    matrix = as_matrix(vectors)
    rng = np.random.default_rng(20)
    for _ in range(20):
        q = rng.normal(size=32).astype(np.float32)
        hits = index.search(q, 10)
        by_id = {vid: i for i, (vid, _) in enumerate(vectors)}
        for hit in hits:
            row = matrix[by_id[hit.id]].astype(np.float64)
            exact = float(np.sqrt(((row - q.astype(np.float64)) ** 2).sum()))
            assert hit.distance == pytest.approx(exact, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
)
def test_buffered_distances_equal_plain_expression_bitwise(n, dim, seed, grid):
    # Grid values make exact ties common; repeated rows make duplicates.
    rng = np.random.default_rng(seed)
    if grid:
        rows32 = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    else:
        rows32 = rng.normal(size=(n, dim)).astype(np.float32)
    rows32 = np.concatenate([rows32, rows32[: max(1, n // 3)]])
    rows64 = rows32.astype(np.float64)
    q64 = rows64[int(rng.integers(len(rows64)))] + rng.normal(size=dim) * (not grid)
    expected = np.square(rows64 - q64).sum(axis=1)
    buf = np.full((len(rows64) + 3, dim), np.nan)  # larger and dirty, as reused
    got = _row_sq_dists(rows64, q64, buf[: len(rows64)])
    assert got.tobytes() == expected.tobytes()
    gathered = np.take(rows64, np.arange(len(rows64))[::-1], axis=0)
    in_place = _row_sq_dists(gathered, q64, gathered)
    assert in_place.tobytes() == expected[::-1].tobytes()


def test_repeated_searches_allocate_no_rows_by_dim_array():
    n, dim = 2000, 256
    vectors = unit_vectors(n, dim, seed=21)
    limit = n * dim * 8  # one (n, dim) float64 array
    flat = build_index(vectors, IndexConfig(kind="flat", dim=dim))
    ivf = build_index(
        vectors, IndexConfig(kind="ivf", dim=dim, nlist=16, nprobe=4, kmeans_iters=2, seed=3)
    )
    for index in (flat, ivf):
        index.search(vectors[0][1], 10)  # warm-up: allocates this thread's buffer
        tracemalloc.start()
        try:
            for i in range(50):
                index.search(vectors[i][1], 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (index.kind, peak, limit)
