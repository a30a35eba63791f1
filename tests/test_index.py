from __future__ import annotations

import ast
import math
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import postdedup.index
from postdedup.errors import (
    CorruptIndex,
    DataError,
    DimensionMismatch,
    DuplicateId,
    ZeroVector,
)
from postdedup.index import (
    FlatIndex,
    IndexConfig,
    _assign,
    _kmeans,
    _kmeans_pp_init,
    _lower_sq_dists,
    _margin,
    _row_sq_dists,
    _sq_norms,
    build_index,
    index_from_bytes,
    load_index,
)

from conftest import (
    index_state,
    join_hits,
    probed_rows,
    scan,
    scan_hits,
    scan_one,
    search_hits,
    unit_vectors,
)


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


def two_axes() -> FlatIndex:
    return FlatIndex(["e1", "e2"], [[1, 0], [0, 1]])


class TestFlatBasics:
    def test_two_vector_index(self):
        index = build_index(two_axes(), IndexConfig(dim=2))
        assert len(index) == 2

    def test_nearest_at_distance_zero(self):
        index = build_index(two_axes(), IndexConfig(dim=2))
        assert scan_one(index, [1, 0], 1) == [("e1", 0.0)]

    def test_second_hit_is_sqrt2(self):
        index = build_index(two_axes(), IndexConfig(dim=2))
        hits = scan_one(index, [1, 0], 2)
        assert hits[0][0] == "e1"
        assert hits[1][0] == "e2"
        assert hits[1][1] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_k_larger_than_index_returns_all(self):
        index = build_index(two_axes(), IndexConfig(dim=2))
        assert len(scan_one(index, [1, 0], 100)) == 2

    def test_ties_break_by_ascending_id(self):
        index = build_index(FlatIndex(["z", "a", "m"], [[1, 0]] * 3), IndexConfig(dim=2))
        assert [vid for vid, _ in scan_one(index, [1, 0], 3)] == ["a", "m", "z"]

    def test_flat_build_returns_the_flat_index(self):
        flat = two_axes()
        assert build_index(flat, IndexConfig(kind="flat", dim=2)) is flat

    def test_vectors_are_the_stored_rows_read_only(self):
        rows = np.array([[1, 0], [0.5, 0.5]], dtype=np.float32)
        index = FlatIndex(["a", "b"], rows)
        assert index.vectors.tobytes() == rows.tobytes()
        with pytest.raises(ValueError):
            index.vectors[0, 0] = 2.0
        rows[0, 0] = 3.0  # the caller's array stays writable
        assert rows.flags.writeable

    def test_id_ranks_are_the_places_of_the_ids_in_sorted_order_read_only(self):
        index = FlatIndex(["z", "a", "m"], [[1, 0], [0, 1], [1, 1]])
        assert index.id_ranks.tolist() == [2, 0, 1]
        with pytest.raises(ValueError):
            index.id_ranks[0] = 0


class TestBuildValidation:
    def test_empty_index_finds_no_hits_and_round_trips(self, tmp_path):
        empty = FlatIndex([], np.empty((0, 2), dtype=np.float32))
        assert (len(empty), empty.dim) == (0, 2)
        for radius in (math.inf, 0.5):
            qi, rows, distances = empty.self_join_arrays(3, radius)
            assert qi.size == rows.size == distances.size == 0
            assert empty.comparison_count == empty.rerank_count == 0
        for kind in ("flat", "ivf"):
            assert build_index(empty, IndexConfig(kind=kind, dim=2)) is empty
        empty.save(tmp_path / "empty.pdix")
        loaded = load_index(tmp_path / "empty.pdix")
        assert isinstance(loaded, FlatIndex) and (loaded.ids, loaded.dim) == ([], 2)
        assert loaded.to_bytes() == (tmp_path / "empty.pdix").read_bytes()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_index(FlatIndex(["a"], [[1, 0, 0]]), IndexConfig(dim=2))

    def test_shape_other_than_one_row_per_id_rejected(self):
        for rows in ([[1, 0]], [1, 0], [[[1, 0]], [[0, 1]]]):
            with pytest.raises(DataError):
                FlatIndex(["a", "b"], rows)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            FlatIndex(["a", "b"], [[1, 0], [0, -0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        for row in ([bad, 1.0], [bad, 0.0]):
            with pytest.raises(DataError, match="non-finite vector for id 'b'"):
                FlatIndex(["a", "b"], [[1, 0], row])

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateId):
            FlatIndex(["a", "a"], [[1, 0], [0, 1]])

    def test_nlist_over_the_row_count_gives_one_list_per_row(self):
        flat = FlatIndex([f"v{i}" for i in range(4)], [[i, 1] for i in range(4)])
        ivf = build_index(flat, IndexConfig(kind="ivf", dim=2, nlist=8, nprobe=8))
        assert (ivf.nlist, ivf.nprobe, ivf.list_sizes()) == (4, 4, [1, 1, 1, 1])
        # Every list probed: the flat index's hits, bit for bit.
        assert join_hits(ivf, 4) == join_hits(flat, 4)
        few = build_index(flat, IndexConfig(kind="ivf", dim=2, nlist=8, nprobe=2))
        assert (few.nlist, few.nprobe) == (4, 2)

    def test_nprobe_exceeds_nlist_rejected(self):
        with pytest.raises(ValueError):
            IndexConfig(kind="ivf", dim=2, nlist=4, nprobe=8)


def test_flat_equals_brute_force_oracle_with_ties():
    ids, matrix = unit_vectors(1_000, 16, seed=3)
    # plant exact duplicates to force distance ties
    ids += ["dup_" + vid for vid in ids[:20]]
    matrix = np.concatenate([matrix, matrix[:20]])
    index = build_index(FlatIndex(ids, matrix), IndexConfig(dim=16))
    rng = np.random.default_rng(9)
    for _ in range(25):
        q = rng.normal(size=16).astype(np.float32)
        for k in (1, 7, 100):
            hits = scan_one(index, q, k)
            oracle = brute_force_search(ids, matrix, q, k)
            assert [(d, vid) for vid, d in hits] == oracle


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
    ids = [f"v{i:03d}" for i in range(n)]
    index = build_index(FlatIndex(ids, matrix), IndexConfig(dim=3))
    q = rng.integers(-3, 4, size=3).astype(np.float32)
    hits = scan_one(index, q, k)
    assert [(d, vid) for vid, d in hits] == brute_force_search(ids, matrix, q, k)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
def test_ivf_probe_all_equals_flat_property(n, nlist_div, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, 4)).astype(np.float32)
    vectors = FlatIndex([f"v{i:03d}" for i in range(n)], matrix)
    nlist = max(1, n // (nlist_div * 2))
    flat = build_index(vectors, IndexConfig(dim=4))
    ivf = build_index(
        vectors, IndexConfig(kind="ivf", dim=4, nlist=nlist, nprobe=nlist, seed=seed % 1000)
    )
    assert join_hits(ivf, 7) == join_hits(flat, 7) == search_hits(flat, 7)


class TestIVF:
    def test_ivf_takes_the_flat_rows_norms_and_id_ranks_in_list_order(self, monkeypatch):
        ids, rows = unit_vectors(300, 8, seed=12)
        flat = FlatIndex(ids[::-1], rows)  # ids descending: the ranks are no arange
        # The flat index validated and ranked the rows; the IVF build does not again.
        monkeypatch.setattr(postdedup.index._BaseIndex, "__init__", None)
        ivf = build_index(flat, IndexConfig(kind="ivf", dim=8, nlist=6, nprobe=2, seed=3))
        place = {vid: i for i, vid in enumerate(flat.ids)}
        order = [place[vid] for vid in ivf.ids]
        assert sorted(order) == list(range(300)) and order != sorted(order)
        assert ivf.vectors.tobytes() == flat.vectors[order].tobytes()
        assert ivf._sq.tobytes() == flat._sq[order].tobytes()
        assert ivf.id_ranks.tolist() == flat.id_ranks[order].tolist()
        with pytest.raises(ValueError):
            ivf.id_ranks[0] = 0

    def test_two_separated_clusters_fill_two_lists(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 8)) + 100.0
        b = rng.normal(size=(50, 8)) - 100.0
        ids = [f"a{i:02d}" for i in range(50)] + [f"b{i:02d}" for i in range(50)]
        index = build_index(
            FlatIndex(ids, np.concatenate([a, b])),
            IndexConfig(kind="ivf", dim=8, nlist=2, nprobe=1, seed=11),
        )
        assert sorted(index.list_sizes()) == [50, 50]
        # each inverted list holds exactly one planted cluster
        bounds = index._bounds
        first = {index.ids[i][0] for i in range(bounds[0], bounds[1])}
        second = {index.ids[i][0] for i in range(bounds[1], bounds[2])}
        assert first != second
        assert len(first) == len(second) == 1

    def test_matches_reference_lloyd_assignment(self):
        # Reference oracle: plain Lloyd's from the same seeded init.
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 4)) + 50.0
        b = rng.normal(size=(50, 4)) - 50.0
        X = np.concatenate([a, b]).astype(np.float32)
        index = build_index(
            FlatIndex([f"v{i:03d}" for i in range(100)], X),
            IndexConfig(kind="ivf", dim=4, nlist=2, nprobe=2, seed=5),
        )
        # with fully separated clusters any Lloyd's run converges to the
        # same partition regardless of initialization
        sizes = sorted(index.list_sizes())
        assert sizes == [50, 50]

    def test_probe_all_equals_flat_exactly(self):
        vectors = FlatIndex(*unit_vectors(400, 12, seed=21))
        flat = build_index(vectors, IndexConfig(dim=12))
        ivf = build_index(
            vectors, IndexConfig(kind="ivf", dim=12, nlist=16, nprobe=16, seed=2)
        )
        assert join_hits(flat, 25) == join_hits(ivf, 25)

    def test_partial_probe_scans_only_probed_lists(self):
        ivf = build_index(
            FlatIndex(*unit_vectors(300, 8, seed=1)),
            IndexConfig(kind="ivf", dim=8, nlist=10, nprobe=3, seed=7),
        )
        ivf.self_join_arrays(5)
        sizes = sorted(ivf.list_sizes(), reverse=True)
        assert ivf.comparison_count <= 300 * sum(sizes[:3]) < 300 * 300

    def test_flat_comparison_counter(self):
        flat = build_index(FlatIndex(*unit_vectors(50, 4, seed=2)), IndexConfig(dim=4))
        flat.self_join_arrays(3)
        assert flat.comparison_count == 50 * 50
        flat.self_join_arrays(3, radius=0.1)
        assert flat.comparison_count == 50 * 50  # each search sets the count, not adds to it


class TestBatch:
    def test_batch_of_one_equals_single(self):
        _, matrix = vectors = unit_vectors(64, 8, seed=4)
        index = build_index(FlatIndex(*vectors), IndexConfig(dim=8))
        _, alone_rows, alone_dist, _ = scan(index, matrix[5:6], 3)
        qi, rows, dist, _ = scan(index, matrix, 3)
        assert alone_rows.tobytes() == rows[qi == 5].tobytes()
        assert alone_dist.tobytes() == dist[qi == 5].tobytes()

    def test_self_queries_hit_themselves(self):
        index = build_index(FlatIndex(*unit_vectors(128, 8, seed=5)), IndexConfig(dim=8))
        for vid, hits in join_hits(index, 1).items():
            assert hits == [(vid, 0.0)]

    def test_batch_equals_sequential_loop(self):
        index = build_index(FlatIndex(*unit_vectors(128, 8, seed=6)), IndexConfig(dim=8))
        rng = np.random.default_rng(8)
        queries = rng.normal(size=(5_000, 8)).astype(np.float32)
        batched = scan_hits(index, queries, 10)
        sequential = [scan_one(index, q, 10) for q in queries]
        assert batched == sequential

    def test_threaded_batch_equals_sequential(self):
        index = build_index(FlatIndex(*unit_vectors(200, 8, seed=7)), IndexConfig(dim=8))
        rng = np.random.default_rng(10)
        queries = rng.normal(size=(100, 8)).astype(np.float32)
        assert scan_hits(index, queries, 5, threads=4) == scan_hits(index, queries, 5)

    def test_threads_never_share_a_distance_buffer(self):
        # More threads than cores and a tiny switch interval interleave the
        # searches; a buffer shared between threads would corrupt distances.
        vectors = FlatIndex(*unit_vectors(400, 16, seed=9))
        ivf = IndexConfig(kind="ivf", dim=16, nlist=8, nprobe=3, seed=1)
        for config in (IndexConfig(dim=16), ivf):
            index = build_index(vectors, config)
            expected = search_hits(index, 7)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = join_hits(index, 7, threads=8)
            finally:
                sys.setswitchinterval(interval)
            assert got == expected, config.kind


class TestPersistence:
    def test_flat_round_trip_preserves_search(self, tmp_path):
        index = build_index(FlatIndex(*unit_vectors(150, 8, seed=12)), IndexConfig(dim=8))
        path = tmp_path / "flat.pdix"
        index.save(path)
        loaded = load_index(path)
        assert join_hits(index, 10) == join_hits(loaded, 10)

    def test_round_trip_bytes_stable(self, tmp_path):
        vectors = FlatIndex(*unit_vectors(80, 8, seed=13))
        raw = build_index(vectors, IndexConfig(dim=8)).to_bytes()
        assert index_from_bytes(raw).to_bytes() == raw
        # Only a flat index is stored; IVF is built for one run.
        ivf = build_index(vectors, IndexConfig(kind="ivf", dim=8, nlist=4, nprobe=2, seed=3))
        with pytest.raises(NotImplementedError):
            ivf.save(tmp_path / "ivf.pdix")
        assert not (tmp_path / "ivf.pdix").exists()

    def test_same_seed_builds_byte_identical_index(self):
        vectors = FlatIndex(*unit_vectors(120, 8, seed=14))
        config = IndexConfig(kind="ivf", dim=8, nlist=8, nprobe=2, seed=42)
        one, two = build_index(vectors, config), build_index(vectors, config)
        assert one is not two and one.kind == "ivf"
        assert index_state(one) == index_state(two)  # ids, rows, centroids, bounds

    def test_truncated_file_rejected(self, tmp_path):
        index = build_index(FlatIndex(*unit_vectors(20, 4, seed=15)), IndexConfig(dim=4))
        raw = index.to_bytes()
        for cut in (3, len(raw) // 2, len(raw) - 1):
            with pytest.raises(CorruptIndex):
                index_from_bytes(raw[:cut])

    def test_flipped_byte_rejected(self):
        raw = bytearray(FlatIndex(*unit_vectors(20, 4, seed=16)).to_bytes())
        raw[10] ^= 0xFF
        with pytest.raises(CorruptIndex):
            index_from_bytes(bytes(raw))

    def test_bad_magic_rejected(self):
        raw = bytearray(FlatIndex(*unit_vectors(5, 4, seed=17)).to_bytes())
        raw[0:4] = b"NOPE"
        with pytest.raises(CorruptIndex):
            index_from_bytes(bytes(raw))

    def test_unicode_ids_survive(self, tmp_path):
        index = build_index(FlatIndex(["żółć-1", "日本-2"], [[1, 0], [0, 1]]), IndexConfig(dim=2))
        path = tmp_path / "uni.pdix"
        index.save(path)
        assert load_index(path).ids == ["żółć-1", "日本-2"]


def test_distance_matches_high_precision_oracle():
    ids, matrix = vectors = unit_vectors(200, 32, seed=19)
    index = build_index(FlatIndex(*vectors), IndexConfig(dim=32))
    by_id = {vid: i for i, vid in enumerate(ids)}
    rng = np.random.default_rng(20)
    for _ in range(20):
        q = rng.normal(size=32).astype(np.float32)
        for vid, distance in scan_one(index, q, 10):
            row = matrix[by_id[vid]].astype(np.float64)
            exact = float(np.sqrt(((row - q.astype(np.float64)) ** 2).sum()))
            assert distance == pytest.approx(exact, rel=1e-6)


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
    limit = n * dim * 8  # one (n, dim) float64 array
    flat = build_index(FlatIndex(*unit_vectors(n, dim, seed=21)), IndexConfig(dim=dim))
    ivf = build_index(
        flat, IndexConfig(kind="ivf", dim=dim, nlist=16, nprobe=4, kmeans_iters=2, seed=3)
    )
    for index in (flat, ivf):
        index.self_join_arrays(10)  # warm-up
        tracemalloc.start()
        try:
            for _ in range(2):
                index.self_join_arrays(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (index.kind, peak, limit)


# -- blocked kernel against independent per-row oracles ------------------------

def per_row_top_k(ids, rows32, query32, k):
    """Per-row float64 loop: upcast, subtract, square, sum; sort by (d2, id)."""
    q = np.asarray(query32, dtype=np.float32).astype(np.float64)
    d2 = [float(np.square(rows32[i].astype(np.float64) - q).sum()) for i in range(len(ids))]
    order = sorted(range(len(ids)), key=lambda i: (d2[i], ids[i]))[:k]
    return [(ids[i], float(np.sqrt(d2[i]))) for i in order]


def loop_assign(X, centers):
    """The k-means assign step as a loop over centers, lowest index on ties."""
    d2 = np.empty((centers.shape[0], X.shape[0]))
    for j in range(centers.shape[0]):
        d2[j] = np.square(X - centers[j]).sum(axis=1)
    return d2.argmin(axis=0)


def running_sum_kmeans(X, k, iters, rng):
    """Lloyd's iterations with the loop assign and np.add.at running sums, all
    `iters` of them: (centers, assignment, the first iteration that left the
    centers unchanged, else `iters`)."""
    centers = _kmeans_pp_init(X, k, rng)
    stopped = iters
    for iteration in range(1, iters + 1):
        previous = centers.copy()
        assign = loop_assign(X, centers)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros((k, X.shape[1]))
        np.add.at(sums, assign, X)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in np.nonzero(~nonempty)[0]:
            big = int(np.argmax(counts))
            if counts[big] <= 1:
                continue
            members = np.nonzero(assign == big)[0]
            far = members[int(np.argmax(np.square(X[members] - centers[big]).sum(axis=1)))]
            centers[int(j)] = X[far]
            assign[far] = j
            counts[big] -= 1
            counts[int(j)] += 1
        if stopped == iters and previous.tobytes() == centers.tobytes():
            stopped = iteration
    return centers, loop_assign(X, centers), stopped


def adversarial_rows(kind, n, dim, rng):
    """float32 rows with exact ties, or ulp-scale near ties, or norms from
    1e-3 to 1e3 (near ties at any of these norms), a third of them duplicated."""
    if kind == "grid":
        rows = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    elif kind == "ulp":
        base = (rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        steps = rng.integers(-3, 4, size=(n, dim)).astype(np.float32)
        rows = (base + steps * np.spacing(base)).astype(np.float32)
    else:
        scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        rows = (rng.normal(size=(n, dim)) * scale).astype(np.float32)
    rows = np.concatenate([rows, rows[: n // 3]])
    rows[~rows.any(axis=1)] = 1.0  # an index holds no zero vector
    return rows


def adversarial_queries(kind, rows, rng):
    picks = rows[rng.integers(len(rows), size=4)]
    if kind == "grid":
        fresh = rng.integers(-2, 3, size=(3, rows.shape[1])).astype(np.float32)
    else:
        fresh = (picks[:3] + np.spacing(picks[:3]) * rng.integers(-2, 3, size=picks[:3].shape))
    return np.concatenate([picks, fresh.astype(np.float32)])


ADVERSARIAL_DATA = dict(
    kind=st.sampled_from(["grid", "ulp", "scaled"]),
    n=st.integers(min_value=1, max_value=30),
    dim=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(
    **ADVERSARIAL_DATA,
    k_extra=st.integers(min_value=-29, max_value=3),
    threads=st.sampled_from([1, 4]),
)
def test_blocked_kernel_equals_per_row_oracle(kind, n, dim, seed, k_extra, threads):
    rng = np.random.default_rng(seed)
    rows = adversarial_rows(kind, n, dim, rng)
    ids = [f"v{p:03d}" for p in rng.permutation(len(rows))]  # id order != row order
    k = max(1, len(rows) + k_extra)  # k >= n included
    queries = adversarial_queries(kind, rows, rng)
    vectors = FlatIndex(ids, rows)
    expected = [per_row_top_k(ids, rows, q, k) for q in queries]
    assert scan_hits(vectors, queries, k, threads=threads) == expected
    # The self-join of the rows, flat and probing every list of an IVF index.
    expected = {vid: per_row_top_k(ids, rows, row, k) for vid, row in zip(ids, rows)}
    nlist = int(rng.integers(1, min(4, len(rows)) + 1))
    for config in (
        IndexConfig(dim=dim),
        IndexConfig(kind="ivf", dim=dim, nlist=nlist, nprobe=nlist, kmeans_iters=3, seed=seed % 97),
    ):
        index = build_index(vectors, config)
        assert join_hits(index, k, threads=threads) == expected, config.kind


@settings(max_examples=120, deadline=None)
@given(**ADVERSARIAL_DATA)
def test_assign_equals_loop_over_centers(kind, n, dim, seed):
    rng = np.random.default_rng(seed)
    X = adversarial_rows(kind, n, dim, rng).astype(np.float64)
    n_centers = int(rng.integers(1, 9))
    centers = X[rng.integers(len(X), size=n_centers)].copy()  # exact ties with rows
    means = rng.integers(len(X), size=(n_centers, 3))
    mixed = rng.random(n_centers) < 0.5
    centers[mixed] = X[means[mixed]].mean(axis=1)  # centers off the float32 grid
    centers[-1] = centers[0]  # duplicated center: ties go to the lower index
    assert _assign(X, centers).tolist() == loop_assign(X, centers).tolist()


# The same rows at the sizes BLAS kernels block and tile: dimensions that
# are and are not a multiple of the SIMD width, and enough rows that k < n,
# so each query cuts at its k-th smallest approximate distance.
BLAS_SIZED_DATA = dict(
    kind=st.sampled_from(["grid", "ulp", "scaled"]),
    n=st.integers(min_value=20, max_value=200),
    dim=st.sampled_from([64, 256, 300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(
    **BLAS_SIZED_DATA,
    k_pick=st.integers(min_value=0, max_value=2**16),
    threads=st.sampled_from([1, 4]),
)
def test_blas_sized_search_equals_per_row_oracle(kind, n, dim, seed, k_pick, threads):
    rng = np.random.default_rng(seed)
    rows = adversarial_rows(kind, n, dim, rng)
    ids = [f"v{p:03d}" for p in rng.permutation(len(rows))]
    k = 1 + k_pick % (len(rows) - 1)  # k < n
    queries = adversarial_queries(kind, rows, rng)
    expected = [per_row_top_k(ids, rows, q, k) for q in queries]
    # About two queries a block, so four threads have blocks to spread.
    with mock.patch.object(postdedup.index, "_BLOCK_BYTES", 100 * len(rows)):
        got = scan_hits(FlatIndex(ids, rows), queries, k, threads=threads)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    **BLAS_SIZED_DATA,
    n_centers=st.integers(min_value=2, max_value=70),
    small_blocks=st.booleans(),
)
def test_blas_sized_assign_equals_loop_over_centers(kind, n, dim, seed, n_centers, small_blocks):
    rng = np.random.default_rng(seed)
    X = adversarial_rows(kind, n, dim, rng).astype(np.float64)
    centers = X[rng.integers(len(X), size=n_centers)].copy()  # exact ties with rows
    mixed = rng.random(n_centers) < 0.5
    centers[mixed] = X[rng.integers(len(X), size=(n_centers, 3))[mixed]].mean(axis=1)
    centers[-1] = centers[0]  # duplicated center: ties go to the lower index
    # Without the patch one block holds every row; with it, a few rows each.
    budget = 100 * (n_centers + dim) if small_blocks else postdedup.index._BLOCK_BYTES
    with mock.patch.object(postdedup.index, "_BLOCK_BYTES", budget):
        assert _assign(X, centers).tolist() == loop_assign(X, centers).tolist()


@settings(max_examples=40, deadline=None)
@given(**ADVERSARIAL_DATA, dtype=st.sampled_from(["float32", "float64"]))
def test_kmeans_equals_running_sum_reference(kind, n, dim, seed, dtype):
    # float32 rows are what an index trains on; k-means casts them as it reads.
    X = adversarial_rows(kind, n, dim, np.random.default_rng(seed)).astype(dtype)
    X[::4, 0] = -0.0  # signed zeros must sum as a running sum from 0.0 does
    k = int(np.random.default_rng(seed).integers(1, len(X) + 1))
    centers, assign, iterations = _kmeans(X, k, 4, np.random.default_rng(seed))
    expected = running_sum_kmeans(X, k, 4, np.random.default_rng(seed))
    assert centers.tobytes() == expected[0].tobytes()
    assert assign.tolist() == expected[1].tolist()
    assert iterations == expected[2]


@settings(max_examples=100, deadline=None)
@given(
    **{**ADVERSARIAL_DATA, "n": st.integers(min_value=1, max_value=150)},
    iters=st.integers(min_value=1, max_value=25),
)
def test_kmeans_stopping_at_its_fixed_point_equals_running_every_iteration(
    kind, n, dim, seed, iters
):
    X = adversarial_rows(kind, n, dim, np.random.default_rng(seed)).astype(np.float64)
    # k up to the row count, with a third of the rows duplicated: k-means++
    # then seeds duplicate centers, whose empty clusters the repair refills.
    k = int(np.random.default_rng(seed).integers(1, len(X) + 1))
    centers, assign, iterations = _kmeans(X, k, iters, np.random.default_rng(seed))
    expected = running_sum_kmeans(X, k, iters, np.random.default_rng(seed))
    assert centers.tobytes() == expected[0].tobytes()
    assert assign.tolist() == expected[1].tolist()
    assert iterations == expected[2]


def full_pass_kmeans_pp_init(X, k, rng):
    """k-means++ seeding that runs every row through the exact expression for each center."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = _row_sq_dists(X, centers[0], None)
    for j in range(1, k):
        total = float(d2.sum())
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        centers[j] = X[idx]
        d2 = np.minimum(d2, _row_sq_dists(X, centers[j], None))
    return centers


@settings(max_examples=100, deadline=None)
@given(**ADVERSARIAL_DATA, grid=st.sampled_from(["float32", "float64", "subnormal"]))
def test_kmeans_pp_seeding_equals_the_full_pass_loop(kind, n, dim, seed, grid):
    rng = np.random.default_rng(seed)
    X = adversarial_rows(kind, n, dim, rng).astype(np.float64)
    if grid == "float64":  # off the float32 grid: the squares round too
        X *= 1 + rng.normal(size=X.shape) * 1e-9
    elif grid == "subnormal":  # squares and products underflow
        X *= 1e-160
    k = int(rng.integers(1, len(X) + 1))
    centers = _kmeans_pp_init(X, k, np.random.default_rng(seed))
    expected = full_pass_kmeans_pp_init(X, k, np.random.default_rng(seed))
    assert centers.tobytes() == expected.tobytes()
    # The running minimum after every center, against the full pass.
    x_sq = _sq_norms(X)
    x_norm, margin = np.sqrt(x_sq), _margin(X.shape[1], X.dtype)
    picks = rng.integers(len(X), size=k)
    d2 = _row_sq_dists(X, X[picks[0]], None)
    full = d2.copy()
    for idx in picks[1:]:
        _lower_sq_dists(d2, X, x_sq, x_norm, int(idx), margin)
        full = np.minimum(full, _row_sq_dists(X, X[idx], None))
        assert d2.tobytes() == full.tobytes()


def _matrix_products(tree: ast.AST) -> int:
    """How many `@`, `@=`, `dot(...)` and `matmul(...)` the tree holds."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            count += 1
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            count += name in ("dot", "matmul")
    return count


def test_only_preselect_forms_a_matrix_product():
    # Search, IVF probe, k-means assign and seeding share one product, the
    # one `_preselect`'s error bound is proved for.
    tree = ast.parse(Path(postdedup.index.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    preselect = functions["_preselect"]
    assert _matrix_products(preselect) > 0
    assert _matrix_products(tree) == _matrix_products(preselect)


def test_kmeans_stops_when_an_iteration_leaves_the_centers_unchanged(monkeypatch):
    import postdedup.index

    calls = []
    assign = postdedup.index._assign
    monkeypatch.setattr(postdedup.index, "_assign", lambda X, c: calls.append(1) or assign(X, c))
    # Three distinct points, four centers: k-means++ seeds a duplicate center,
    # whose cluster is empty in every iteration (ties go to the lower index)
    # and is repaired to the same point each time. The first iteration moves
    # that center, the second repeats itself, and the loop stops there with
    # the second iteration's assignment.
    X = np.array([[0, 0], [0, 0], [0, 0], [5, 5], [5, 5], [9, 0]], dtype=np.float64)
    centers, assign, iterations = _kmeans(X, 4, 50, np.random.default_rng(1))
    ref_centers, ref_assign, _ = running_sum_kmeans(X, 4, 50, np.random.default_rng(1))
    assert centers.tobytes() == ref_centers.tobytes()
    assert assign.tolist() == ref_assign.tolist()
    assert len(calls) == iterations == 2  # one assignment per iteration run


@settings(max_examples=60, deadline=None)
@given(
    **{**ADVERSARIAL_DATA, "n": st.integers(min_value=1, max_value=150)},
    iters=st.integers(min_value=1, max_value=25),
)
def test_build_index_equals_the_running_sum_reference(kind, n, dim, seed, iters):
    rng = np.random.default_rng(seed)
    rows = adversarial_rows(kind, n, dim, rng)
    rows[::4, 0] = -0.0  # signed zeros must sum as a running sum from 0.0 does
    rows[~rows.any(axis=1)] = 1.0
    # Up to one list per row, with a third of the rows duplicated: k-means++
    # then seeds duplicate centers, whose empty clusters the repair refills.
    nlist = int(rng.integers(1, len(rows) + 1))
    flat = FlatIndex([f"v{p:03d}" for p in rng.permutation(len(rows))], rows)
    config = IndexConfig(
        kind="ivf", dim=dim, nlist=nlist, nprobe=1, kmeans_iters=iters, seed=seed % 97
    )
    built = build_index(flat, config)
    with mock.patch.object(postdedup.index, "_kmeans", running_sum_kmeans):
        expected = build_index(flat, config)
    assert index_state(built) == index_state(expected)
    assert built.kmeans_iterations == expected.kmeans_iterations


def test_build_index_holds_no_float64_copy_of_the_rows():
    # k-means runs on the stored float32 rows, casting block by block; the
    # index keeps its own float32 rows, grouped by list.
    n, dim = 4000, 256
    flat = FlatIndex(*unit_vectors(n, dim, seed=27))
    config = IndexConfig(kind="ivf", dim=dim, nlist=64, nprobe=8, kmeans_iters=3, seed=7)
    build_index(flat, config)  # warm-up
    tracemalloc.start()
    try:
        build_index(flat, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * dim * 8, peak  # one (n, dim) float64 array


def test_scan_and_self_join_arrays_are_the_hits_in_query_order():
    ids, matrix = vectors = unit_vectors(300, 16, seed=23)
    index = build_index(FlatIndex(*vectors), IndexConfig(dim=16))
    for queries, (qi, rows, distances, reranked) in (
        (matrix[:40], scan(index, matrix[:40], 12)),
        (matrix, (*index.self_join_arrays(12), index.rerank_count)),
    ):
        assert len(queries) * 12 <= reranked <= len(queries) * 300
        hits = [per_row_top_k(ids, matrix, q, 12) for q in queries]
        assert qi.tolist() == [q for q, row in enumerate(hits) for _ in row]
        assert [index.ids[r] for r in rows.tolist()] == [vid for row in hits for vid, _ in row]
        assert distances.tolist() == [d for row in hits for _, d in row]
    assert index.comparison_count == 300 * 300


@pytest.mark.parametrize("distinct", [1, 50])
def test_block_temporaries_stay_under_rows_by_dim(distinct):
    # All rows equal (every row ties) or 40 copies of each of 50 vectors.
    n, dim = 2000, 256
    _, base = unit_vectors(distinct, dim, seed=24)
    rows = np.repeat(base, n // distinct, axis=0)
    index = FlatIndex([f"v{i:05d}" for i in range(n)], rows)
    queries = rows[:: n // 64]
    scan(index, queries[:1], 101)  # warm-up
    tracemalloc.start()
    try:
        scan(index, queries, 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * dim * 8, peak


@pytest.mark.parametrize("distinct", [1, 50])
def test_ivf_block_temporaries_stay_under_rows_by_dim(distinct):
    # As the flat test: all rows equal (one list holds nearly all) or 40
    # copies of each of 50 vectors, probing a quarter of the lists. Every
    # row is a query of the join; k is small, so its n·k hits are too. No
    # warm-up: with every row tied, one join re-ranks 4 million pairs.
    n, dim = 2000, 256
    _, base = unit_vectors(distinct, dim, seed=24)
    rows = np.repeat(base, n // distinct, axis=0)
    index = build_index(
        FlatIndex([f"v{i:05d}" for i in range(n)], rows),
        IndexConfig(kind="ivf", dim=dim, nlist=16, nprobe=4, kmeans_iters=3),
    )
    tracemalloc.start()
    try:
        index.self_join_arrays(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * dim * 8, peak


def test_a_clique_under_a_radius_holds_the_block_budget():
    # Every row equal: under any radius each query keeps every row, the most
    # a block can re-rank. The kept rows go through the re-rank in runs of
    # queries within the budget, so the search holds what a common block
    # does: the product and mask, then the candidates and one exact-distance
    # chunk, each about `_BLOCK_BYTES`. A block that re-ranked all its kept
    # rows at once held about six times the budget here.
    n, dim = 2000, 256
    _, base = unit_vectors(1, dim, seed=24)
    index = FlatIndex([f"v{i:05d}" for i in range(n)], np.repeat(base, n, axis=0))
    queries = index.vectors[:: n // 64]
    scan(index, queries[:1], 101, radius=0.1)  # warm-up
    tracemalloc.start()
    try:
        _, _, _, reranked = scan(index, queries, 101, radius=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = postdedup.index._BLOCK_BYTES
    assert peak < 2.5 * budget, peak / budget
    assert reranked == len(queries) * n
    hits = scan_hits(index, queries, 101, radius=0.1)
    assert [len(found) for found in hits] == [101] * len(queries)


def test_a_self_join_clique_under_a_radius_holds_the_block_budget():
    # Every row equal and a radius holding them all: each row keeps every
    # row, so every query falls back to the search above. The self-join
    # blocks hold no more than a search block, and no pair is stored once
    # both its ends keep more than k rows.
    n, dim, k = 2000, 64, 3
    _, base = unit_vectors(1, dim, seed=24)
    index = FlatIndex([f"v{i:05d}" for i in range(n)], np.repeat(base, n, axis=0))
    index.self_join_arrays(k, radius=0.1)  # warm-up
    tracemalloc.start()
    try:
        qi, rows, distances = index.self_join_arrays(k, radius=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = postdedup.index._BLOCK_BYTES
    assert peak < 2.5 * budget, peak / budget
    assert (index.comparison_count, index.rerank_count) == (n * n, n * n)
    assert qi.tolist() == np.repeat(np.arange(n), k).tolist()
    assert rows.tolist() == list(range(k)) * n  # ties at 0 break by id
    assert not distances.any()


def test_self_join_searches_again_only_the_rows_over_k():
    # A clique of k + 2 equal rows among scattered ones, under a radius
    # that holds the clique only: each clique row keeps more than k rows
    # and is searched again, as a query of one list of every row; no other
    # row is.
    k, radius = 3, 0.5
    ids, rows = unit_vectors(40, 16, seed=25)
    rows[: k + 2] = rows[0]
    index = FlatIndex(ids, rows)
    searched = []
    search = postdedup.index._search

    def spy(queries, *args):
        searched.append(len(queries))
        return search(queries, *args)

    with mock.patch.object(postdedup.index, "_search", spy):
        hits = join_hits(index, k, radius)
    assert sum(searched) == k + 2
    assert hits == search_hits(index, k, radius)
    assert sum(map(len, hits.values())) == (k + 2) * k + 40 - (k + 2)


@pytest.mark.parametrize("radius", [math.inf, 3.0])
def test_a_join_with_every_pair_under_the_radius_forms_no_triangle_product(radius):
    # Unit rows lie within 2 of each other, so under these radii every row
    # keeps all n > k rows: the join searches every row as a query of one
    # list of every row, whose preselect takes the search's k, and forms
    # none of the triangle products, which take k = n.
    k = 5
    index = FlatIndex(*unit_vectors(300, 16, seed=26))
    ks = []
    preselect = postdedup.index._preselect

    def spy(*args):
        ks.append(args[5])
        return preselect(*args)

    with mock.patch.object(postdedup.index, "_preselect", spy):
        hits = join_hits(index, k, radius)
    assert ks and set(ks) == {k}
    assert hits == search_hits(index, k, radius)


# --- the bounded IVF scan against re-ranking every probed row ---------------

def clique_rows(rng, dim, n_background, clique, copies):
    """Ids and unit float32 rows: `clique` near-identical rows, background
    rows, and `copies` exact repeats of random rows (ties at every distance)."""
    anchor = rng.normal(size=dim)
    near = anchor / np.linalg.norm(anchor) + rng.normal(size=(clique, dim)) * 1e-3
    rows = np.concatenate([near, rng.normal(size=(n_background, dim))])
    if not len(rows):
        rows = rng.normal(size=(1, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = np.concatenate([rows, rows[rng.integers(len(rows), size=copies)]]).astype(np.float32)
    return [f"v{i:03d}" for i in rng.permutation(len(rows))], rows


def pair_distance(rng, rows):
    """The exact float64 distance between two random rows."""
    X = rows.astype(np.float64)
    pair = np.sqrt(np.square(X - X[rng.integers(len(X))]).sum(axis=1))
    return float(pair[rng.integers(len(X))])


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from([3, 8, 16]),
    n_background=st.integers(0, 30),
    clique=st.integers(0, 12),  # near-identical rows, often more than k
    copies=st.integers(0, 4),  # exact repeats of rows: ties at every distance
    k=st.integers(1, 6),
    nlist=st.integers(1, 6),
    probe_all=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    pick=st.sampled_from(["distance", "ulp_below", "ulp_above", "clique", "everything"]),
    threads=st.sampled_from([1, 4]),
)
def test_bounded_ivf_scan_equals_reranking_every_probed_row(
    dim, n_background, clique, copies, k, nlist, probe_all, seed, pick, threads
):
    rng = np.random.default_rng(seed)
    ids, rows = clique_rows(rng, dim, n_background, clique, copies)
    nlist = min(nlist, len(rows))
    nprobe = nlist if probe_all else int(rng.integers(1, nlist + 1))
    index = build_index(
        FlatIndex(ids, rows),
        IndexConfig(kind="ivf", dim=dim, nlist=nlist, nprobe=nprobe, seed=seed % 97),
    )
    # The radius: an exact pair distance (a tie at R), one ulp either side
    # of it, one holding the clique, or one holding every row.
    d = pair_distance(rng, rows)
    radius = {
        "distance": d,
        "ulp_below": float(np.nextafter(d, 0)),
        "ulp_above": float(np.nextafter(d, np.inf)),
        "clique": 0.05,
        "everything": 2.5,
    }[pick]
    probed = sum(probed_rows(index, row).size for row in index.vectors)
    # Blocks of one to two queries, so four threads have blocks to spread.
    with mock.patch.object(postdedup.index, "_BLOCK_BYTES", 20 * len(rows)):
        assert join_hits(index, k, threads=threads) == search_hits(index, k)
        assert index.comparison_count == probed
        assert index.rerank_count <= index.comparison_count
        bounded = join_hits(index, k, radius, threads=threads)
    assert bounded == search_hits(index, k, radius)
    assert index.comparison_count == probed
    under = sum(map(len, bounded.values()))
    assert under <= index.rerank_count <= index.comparison_count


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([3, 8, 16]),
    n_background=st.integers(0, 30),
    k=st.integers(1, 6),
    over_k=st.integers(1, 6),  # the clique holds more than k rows
    copies=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    threads=st.sampled_from([1, 4]),
)
def test_flat_is_an_ivf_with_one_list(dim, n_background, k, over_k, copies, seed, threads):
    rng = np.random.default_rng(seed)
    ids, rows = clique_rows(rng, dim, n_background, k + over_k, copies)
    flat = FlatIndex(ids, rows)
    ivf = build_index(flat, IndexConfig(kind="ivf", dim=dim, nlist=1, nprobe=1, seed=seed % 97))
    # Blocks of one to two queries, so four threads have blocks to spread.
    # The flat index decides each pair once, so only the hits and the
    # comparisons are the IVF index's.
    with mock.patch.object(postdedup.index, "_BLOCK_BYTES", 20 * len(rows)):
        for radius in (math.inf, 0.05, pair_distance(rng, rows)):
            found = [
                (join_hits(index, k, radius, threads=threads), index.comparison_count)
                for index in (flat, ivf)
            ]
            assert found[0] == found[1]
    # Every row lies under 100 of every row (unit rows), so a query keeps
    # more than k rows and falls back to the unbounded cutoff: it re-ranks
    # what it re-ranks without R. Blocks of one query make both searches
    # form A from the same products.
    with mock.patch.object(postdedup.index, "_BLOCK_BYTES", 1):
        for index in (flat, ivf):
            index.self_join_arrays(k, radius=100.0)
            bounded = index.rerank_count
            index.self_join_arrays(k)
            assert bounded == index.rerank_count
