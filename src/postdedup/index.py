"""Exact (flat) and IVF approximate nearest-neighbor indexes over L2 distance.

Distances are true L2 (square root taken), not squared L2 as some
libraries report, so distance thresholds from the pipeline apply
literally. Every distance an index reports comes from one fixed per-row
float64 expression over the stored float32 vectors (`_row_sq_dists`), so
a query returns bitwise-identical results no matter how searches are
batched or threaded, and an IVF index probing all of its lists
reproduces the flat index exactly, including tie order (ties break by
ascending id everywhere).

Search kernel. Queries run in blocks whose temporaries are sized by a
byte budget (`_BLOCK_BYTES`), not by a query count. For each block a
flat scan first computes the approximate squared distance
``A = ‖q‖² + ‖x‖² − 2·q·x`` of every stored row from one product of the
block's queries with the stored float32 vectors. It keeps, per query,
every row with ``A ≤ a_k + 2Δ``, where ``a_k`` is the query's k-th
smallest ``A`` and

    Δ = (γ_d + 2·γ'_(d+2) + 6u)·(‖q‖ + max‖x‖)² + (2d + 4)·η

bounds ``|A − exact d²|`` for every row (u: unit roundoff of the stored
dtype, 2⁻²⁴ for float32; γ_n = n·u/(1 − n·u), γ' the same for float64;
η: half the smallest subnormal; d: dimension; derivation at
`_preselect`). Only the kept rows are re-ranked with the exact
expression, and the top k is chosen by (exact d², id), so the result
equals an exhaustive exact scan bit for bit, ties included. IVF gathers
the rows of its probed lists and re-ranks all of them exactly; the
k-means assign step uses the same preselect and exact re-check against
the centroids.

The product is a plain ``np.einsum`` without ``optimize``, never a BLAS
call (``@``, ``matmul``, ``dot``, ``tensordot``): numpy's OpenBLAS runs
worker threads that the program cannot switch off, and they spin. On a
2-vCPU x86_64 VM a ``matmul`` version of this kernel spent 13-20% more
CPU on the ten-process daily workload (7.2-7.4 s against 6.2-6.3 s) and
3.5 s against 3.1 s on the 2,800-posting flat run, with ~0.5-1 MB more
peak RSS; CPU time is a benchmark metric, so the kernel stays BLAS-free.

Persistence uses a little-endian binary format:

    magic "PDIX" | version u16 | kind u8 (0=flat, 1=ivf) | dim u32 | count u64
    [ivf only: nlist u32 | centroids float32[nlist*dim] | offsets u64[nlist+1]]
    vectors float32[count*dim] row-major
    id table: count entries of (u32 byte length + UTF-8 bytes)
    crc32 u32 of all preceding bytes

Serialization is canonical: re-saving a loaded index reproduces the file
byte for byte.
"""

from __future__ import annotations

import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .embed import EmbeddingVector
from .errors import (
    CorruptIndex,
    DimensionMismatch,
    DuplicateId,
    EmptyInput,
    NlistExceedsPoints,
    ZeroVector,
)

_MAGIC = b"PDIX"
_VERSION = 1
_KIND_FLAT = 0
_KIND_IVF = 1

# Bytes of temporaries one block of queries may hold. A block takes as
# many queries as fit when every candidate (query, row) entry costs
# `_CANDIDATE_BYTES` (indices, exact d², sort order) plus, for a
# preselecting scan, two approximate distances and a mask flag.
_BLOCK_BYTES = 1 << 20
_CANDIDATE_BYTES = 40

QueryVector = Union[EmbeddingVector, np.ndarray, Sequence[float]]


@dataclass(frozen=True)
class IndexConfig:
    kind: str = "flat"  # "flat" | "ivf"
    dim: int = 256
    nlist: int = 64
    nprobe: int = 8
    kmeans_iters: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "ivf"):
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.kind == "ivf":
            if self.nlist < 1 or self.nprobe < 1:
                raise ValueError("nlist and nprobe must be positive")
            if self.nprobe > self.nlist:
                raise ValueError(f"nprobe={self.nprobe} exceeds nlist={self.nlist}")
            if self.kmeans_iters < 1:
                raise ValueError("kmeans_iters must be positive")


@dataclass(frozen=True)
class SearchHit:
    id: str
    distance: float  # true L2


def _row_sq_dists(rows: np.ndarray, query: np.ndarray, buf: np.ndarray | None) -> np.ndarray:
    # The one exact distance expression used everywhere: upcast to float64,
    # subtract, square, and reduce each row on its own, so a row's value
    # does not depend on which or how many rows share the batch. `query` is
    # one vector or one per row; `buf` (float64, rows' shape, may be rows
    # itself) receives the differences, or None to allocate.
    diff = np.subtract(rows, query, out=buf, dtype=np.float64)
    np.square(diff, out=diff)
    return diff.sum(axis=1)


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row, summed in float64."""
    return np.einsum("ij,ij->i", rows, rows, dtype=np.float64)


def _gamma(n: int, u: float) -> float:
    return n * u / (1.0 - n * u)


def _preselect(
    queries: np.ndarray, rows: np.ndarray, row_sq: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(query, row) index pairs that can be in a query's exact top k.

    For a query q and a row x let D = ‖q − x‖² in real arithmetic and
    S = (‖q‖ + ‖x‖)², so that ‖q‖² + ‖x‖² ≤ S, 2|q·x| ≤ S and D ≤ S.
    With u and η of the rows' dtype and d the dimension:
      * q·x is a sum of d products. In any summation order (einsum's
        SIMD partial sums included) its error is at most
        γ_d·Σ|q_l·x_l| ≤ γ_d·‖q‖‖x‖, plus d·η of underflow, so −2q·x
        is off by at most γ_d·S + 2d·η;
      * the squared norms are float64 sums, together off by ≤ γ'_d·S;
      * the two additions forming A = −2q·x + ‖x‖² + ‖q‖² each round in
        float64 and then to the dtype: ≤ 2(u + u')(1 + γ_d)·S + 2η;
      * the exact re-rank value E (float64 subtract, square, sum) is off
        from D by ≤ γ'_(d+2)·D ≤ γ'_(d+2)·S, whatever its order.
    So |A − E| ≤ Δ with Δ as in the module docstring, taking the largest
    row norm; the 6u also covers rounding the cutoff below. The k rows
    with the smallest A (at most a_k) have E ≤ a_k + Δ, so the k-th
    smallest E is at most a_k + Δ; a row of the exact top k has E no
    larger, hence A ≤ E + Δ ≤ a_k + 2Δ. Keeping A ≤ a_k + 2Δ therefore
    keeps every row the exact top k can hold, through any ties. The
    bound scales with the norms and holds for any summation order.
    """
    m, n = len(queries), len(rows)
    if k >= n:  # every row is in the top k
        return np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
    approx = np.einsum("ik,jk->ij", queries, rows)
    approx *= -2
    approx += row_sq
    q_sq = _sq_norms(queries)
    approx += q_sq[:, None]
    kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
    d = rows.shape[1]
    info = np.finfo(rows.dtype)
    u = float(info.eps) / 2
    coeff = _gamma(d, u) + 2 * _gamma(d + 2, float(np.finfo(np.float64).eps) / 2) + 6 * u
    floor = (2 * d + 4) * float(info.smallest_subnormal) / 2
    delta = coeff * (np.sqrt(q_sq) + np.sqrt(row_sq.max())) ** 2 + floor
    cutoff = kth.astype(np.float64) + 2 * delta
    return np.nonzero(approx <= cutoff[:, None])


def _exact_sq_dists(
    queries: np.ndarray, rows: np.ndarray, qi: np.ndarray, rj: np.ndarray
) -> np.ndarray:
    """Exact d² of each pair (queries[qi[t]], rows[rj[t]]), in budgeted chunks."""
    out = np.empty(qi.size)
    step = max(1, _BLOCK_BYTES // (16 * rows.shape[1]))
    for start in range(0, qi.size, step):
        chunk = slice(start, start + step)
        gathered = rows[rj[chunk]].astype(np.float64, copy=False)
        out[chunk] = _row_sq_dists(gathered, queries[qi[chunk]], gathered)
    return out


def _top_k(
    qi: np.ndarray,
    rj: np.ndarray,
    d2: np.ndarray,
    ranks: np.ndarray,
    rows_out: np.ndarray,
    d2_out: np.ndarray,
) -> None:
    """Write each query's smallest candidates by (d², rank) into its output row.

    A query with fewer candidates than columns keeps its padding.
    """
    if qi.size == 0:
        return
    k = rows_out.shape[1]
    order = np.lexsort((ranks[rj], d2, qi))
    counts = np.bincount(qi, minlength=len(rows_out))
    starts = np.cumsum(counts) - counts
    col = np.arange(k)
    valid = col < counts[:, None]
    pick = order[(starts[:, None] + col)[valid]]
    rows_out[valid] = rj[pick]
    d2_out[valid] = d2[pick]


def _blocked_top_k(
    queries: np.ndarray,
    rows: np.ndarray,
    k: int,
    ranks: np.ndarray,
    candidates: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    entry_bytes: int,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact top k rows per query under (d², rank), one block of queries at a time.

    `candidates(block)` returns the (query, row) index pairs to re-rank for
    a block of queries; `entry_bytes` is what one (query, stored row) entry
    may cost the block. Returns (m, k) row indices (-1 where a query has
    fewer than k) and exact d² (inf there), and the number of pairs
    re-ranked. Blocks are independent, so `threads` only spreads them.
    """
    m = len(queries)
    out_rows = np.full((m, k), -1, dtype=np.int64)
    out_d2 = np.full((m, k), np.inf)
    size = max(1, _BLOCK_BYTES // max(1, entry_bytes * len(rows)))

    def run(start: int) -> int:
        block = slice(start, start + size)
        qi, rj = candidates(queries[block])
        d2 = _exact_sq_dists(queries[block], rows, qi, rj)
        _top_k(qi, rj, d2, ranks, out_rows[block], out_d2[block])
        return int(qi.size)

    starts = range(0, m, size)
    if threads <= 1 or len(starts) <= 1:
        reranked = sum(map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reranked = sum(pool.map(run, starts))
    return out_rows, out_d2, reranked


def _nearest(
    queries: np.ndarray,
    rows: np.ndarray,
    row_sq: np.ndarray,
    k: int,
    ranks: np.ndarray,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact top k of all `rows` per query: preselect, then exact re-rank."""
    return _blocked_top_k(
        queries,
        rows,
        k,
        ranks,
        lambda block: _preselect(block, rows, row_sq, k),
        2 * rows.itemsize + 1 + _CANDIDATE_BYTES,
        threads,
    )


def _spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges [starts[i], starts[i] + sizes[i])."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - sizes), sizes)


def _as_queries(queries, dim: int) -> np.ndarray:
    """Queries as one (m, dim) float32 array, rounded to float32 like stored rows."""
    if not (isinstance(queries, np.ndarray) and queries.ndim == 2):
        arrays = [
            q.values if isinstance(q, EmbeddingVector) else np.asarray(q, dtype=np.float32)
            for q in queries
        ]
        for values in arrays:
            if values.ndim != 1 or values.shape[0] != dim:
                raise DimensionMismatch(dim, int(values.shape[-1]) if values.ndim else 0)
        queries = np.array(arrays, dtype=np.float32).reshape(len(arrays), dim)
    if queries.shape[1] != dim:
        raise DimensionMismatch(dim, int(queries.shape[1]))
    return np.ascontiguousarray(queries, dtype=np.float32)


class _BaseIndex:
    kind: str

    def __init__(self, ids: list[str], vecs32: np.ndarray) -> None:
        self.ids = ids
        self._vecs32 = np.ascontiguousarray(vecs32, dtype=np.float32)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ranks = np.empty(len(ids), dtype=np.int64)
        ranks[order] = np.arange(len(ids))
        self._id_ranks = ranks
        self._comparisons = 0
        self._reranked = 0
        self._counter_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self._vecs32.shape[1])

    def items(self) -> list[tuple[str, EmbeddingVector]]:
        """Stored (id, vector) pairs in storage order."""
        return [
            (vid, EmbeddingVector(self._vecs32[i].copy(), "unit"))
            for i, vid in enumerate(self.ids)
        ]

    @property
    def comparison_count(self) -> int:
        """Total stored vectors compared across all searches so far."""
        with self._counter_lock:
            return self._comparisons

    @property
    def rerank_count(self) -> int:
        """Total stored vectors re-ranked with the exact expression so far."""
        with self._counter_lock:
            return self._reranked

    def reset_comparison_count(self) -> None:
        """Zero the comparison and re-rank counters."""
        with self._counter_lock:
            self._comparisons = 0
            self._reranked = 0

    def _count(self, compared: int, reranked: int) -> None:
        with self._counter_lock:
            self._comparisons += compared
            self._reranked += reranked

    def _queries(self, queries, k: int) -> np.ndarray:
        if k < 1:
            raise ValueError("k must be positive")
        return _as_queries(queries, self.dim)

    def _hits(self, rows: np.ndarray, distances: np.ndarray) -> list[list[SearchHit]]:
        return [
            [SearchHit(self.ids[r], d) for r, d in zip(row, dist) if r >= 0]
            for row, dist in zip(rows.tolist(), distances.tolist())
        ]

    def search_arrays(self, queries, k: int, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Top k per query as (m, k) arrays of stored row indices and true L2 distances.

        Each row ascends with ties by id; -1 and inf pad a query with fewer
        than k hits. Results are equal for any thread count.
        """
        raise NotImplementedError

    def search(self, query: QueryVector, k: int) -> list[SearchHit]:
        return self.search_batch([query], k)[0]

    def search_batch(
        self, queries: Sequence[QueryVector], k: int, threads: int = 1
    ) -> list[list[SearchHit]]:
        """Element-wise equal to calling `search` per query, in any thread count."""
        return self._hits(*self.search_arrays(queries, k, threads=threads))

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    def to_bytes(self) -> bytes:
        raise NotImplementedError


class FlatIndex(_BaseIndex):
    """Exhaustive exact L2 scan; the oracle-grade baseline."""

    kind = "flat"

    def __init__(self, ids: list[str], vecs32: np.ndarray) -> None:
        super().__init__(ids, vecs32)
        self._sq = _sq_norms(self._vecs32)

    def search_arrays(self, queries, k: int, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
        queries = self._queries(queries, k)
        rows, d2, reranked = _nearest(queries, self._vecs32, self._sq, k, self._id_ranks, threads)
        self._count(len(queries) * len(self), reranked)
        return rows, np.sqrt(d2)

    def to_bytes(self) -> bytes:
        return _serialize(_KIND_FLAT, self.dim, self.ids, self._vecs32, None, None)


class IVFIndex(_BaseIndex):
    """Inverted-file index: k-means coarse quantizer plus per-centroid lists.

    Vectors are stored grouped by list; a query scans only the `nprobe`
    lists whose centroids are nearest. `nprobe` is a search-time knob and
    is not part of the serialized file.
    """

    kind = "ivf"

    def __init__(
        self,
        ids: list[str],
        vecs32: np.ndarray,
        centroids32: np.ndarray,
        offsets: np.ndarray,
        nprobe: int,
    ) -> None:
        super().__init__(ids, vecs32)
        self._cent32 = np.ascontiguousarray(centroids32, dtype=np.float32)
        self._cent_sq = _sq_norms(self._cent32)
        self._offsets = np.asarray(offsets, dtype=np.uint64)
        bounds = self._offsets.astype(np.int64)
        self._list_starts, self._list_sizes = bounds[:-1], np.diff(bounds)
        self.nprobe = nprobe

    @property
    def nlist(self) -> int:
        return int(self._cent32.shape[0])

    def list_sizes(self) -> list[int]:
        return self._list_sizes.tolist()

    def _probe(self, queries: np.ndarray, nprobe: int) -> tuple[np.ndarray, np.ndarray]:
        """(query, row) pairs of every row in each query's nprobe nearest lists."""
        lists, _, _ = _nearest(
            queries, self._cent32, self._cent_sq, nprobe, np.arange(self.nlist)
        )
        sizes = self._list_sizes[lists]
        rows = _spans(self._list_starts[lists].ravel(), sizes.ravel())
        return np.repeat(np.arange(len(queries)), sizes.sum(axis=1)), rows

    def search_arrays(
        self, queries, k: int, threads: int = 1, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._queries(queries, k)
        nprobe = self.nprobe if nprobe is None else nprobe
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, {self.nlist}]")
        rows, d2, scanned = _blocked_top_k(
            queries,
            self._vecs32,
            k,
            self._id_ranks,
            lambda block: self._probe(block, nprobe),
            _CANDIDATE_BYTES,
            threads,
        )
        self._count(scanned, scanned)
        return rows, np.sqrt(d2)

    def search(self, query: QueryVector, k: int, nprobe: int | None = None) -> list[SearchHit]:
        return self._hits(*self.search_arrays([query], k, nprobe=nprobe))[0]

    def to_bytes(self) -> bytes:
        return _serialize(_KIND_IVF, self.dim, self.ids, self._vecs32, self._cent32, self._offsets)


VectorIndex = Union[FlatIndex, IVFIndex]


def _validate_vectors(
    vectors: Sequence[tuple[str, EmbeddingVector]], dim: int
) -> tuple[list[str], np.ndarray]:
    if not vectors:
        raise EmptyInput("cannot build an index from zero vectors")
    ids: list[str] = []
    seen: set[str] = set()
    rows = np.empty((len(vectors), dim), dtype=np.float32)
    for i, (vid, vec) in enumerate(vectors):
        values = vec.values if isinstance(vec, EmbeddingVector) else np.asarray(vec, np.float32)
        if values.shape != (dim,):
            raise DimensionMismatch(dim, int(values.shape[-1]) if values.ndim else 0)
        flagged_zero = isinstance(vec, EmbeddingVector) and vec.is_zero
        if flagged_zero or not values.any():
            raise ZeroVector(f"zero vector for id {vid!r} cannot be indexed")
        if vid in seen:
            raise DuplicateId(vid)
        seen.add(vid)
        ids.append(vid)
        rows[i] = values
    return ids, rows


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[int(rng.integers(n))]
    buf = np.empty_like(X)
    d2 = _row_sq_dists(X, centers[0], buf)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        d2 = np.minimum(d2, _row_sq_dists(X, centers[j], buf))
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest center by the exact expression, lowest index on ties."""
    nearest, _, _ = _nearest(X, centers, _sq_norms(centers), 1, np.arange(len(centers)))
    return nearest[:, 0]


def _kmeans(
    X: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding and a fixed iteration count.

    Empty clusters are repaired by seeding them with the farthest point of
    the currently largest cluster.
    """
    centers = _kmeans_pp_init(X, k, rng)
    grouped = np.empty_like(X)
    for _ in range(iters):
        assign = _assign(X, centers)
        counts = np.bincount(assign, minlength=k)
        nonempty = counts > 0
        # Each cluster's rows, in ascending row order, summed one row after
        # another, as a running sum from zero would; adding 0.0 turns the
        # -0.0 that an all -0.0 column sums to into that running sum's 0.0.
        np.take(X, np.argsort(assign, kind="stable"), axis=0, out=grouped, mode="clip")
        starts = (np.cumsum(counts) - counts)[nonempty]
        sums = np.add.reduceat(grouped, starts, axis=0) + 0.0
        centers[nonempty] = sums / counts[nonempty, None]
        for j in np.nonzero(~nonempty)[0]:
            big = int(np.argmax(counts))
            if counts[big] <= 1:
                continue
            members = np.nonzero(assign == big)[0]
            rows = X[members]
            far = members[int(np.argmax(_row_sq_dists(rows, centers[big], rows)))]
            centers[int(j)] = X[far]
            assign[far] = j
            counts[big] -= 1
            counts[int(j)] += 1
    return centers, _assign(X, centers)


def build_index(
    vectors: Sequence[tuple[str, EmbeddingVector]], config: IndexConfig
) -> VectorIndex:
    """Build a flat or IVF index; deterministic given config.seed."""
    ids, rows = _validate_vectors(vectors, config.dim)
    if config.kind == "flat":
        return FlatIndex(ids, rows)
    if config.nlist > len(ids):
        raise NlistExceedsPoints(config.nlist, len(ids))
    rng = np.random.default_rng(config.seed)
    centers, assign = _kmeans(rows.astype(np.float64), config.nlist, config.kmeans_iters, rng)
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=config.nlist)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.uint64)
    grouped_ids = [ids[int(i)] for i in order]
    return IVFIndex(
        grouped_ids,
        rows[order],
        centers.astype(np.float32),
        offsets,
        nprobe=config.nprobe,
    )


def _serialize(
    kind: int,
    dim: int,
    ids: list[str],
    vecs32: np.ndarray,
    centroids32: np.ndarray | None,
    offsets: np.ndarray | None,
) -> bytes:
    parts = [_MAGIC, struct.pack("<HBIQ", _VERSION, kind, dim, len(ids))]
    if kind == _KIND_IVF:
        assert centroids32 is not None and offsets is not None
        parts.append(struct.pack("<I", centroids32.shape[0]))
        parts.append(np.ascontiguousarray(centroids32, dtype="<f4").tobytes())
        parts.append(np.ascontiguousarray(offsets, dtype="<u8").tobytes())
    parts.append(np.ascontiguousarray(vecs32, dtype="<f4").tobytes())
    for vid in ids:
        raw = vid.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload))


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptIndex("index file truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_index(path: str | Path) -> VectorIndex:
    """Load a PDIX file, verifying magic, version, structure, and CRC-32."""
    data = Path(path).read_bytes()
    return index_from_bytes(data)


def index_from_bytes(data: bytes) -> VectorIndex:
    if len(data) < len(_MAGIC) + struct.calcsize("<HBIQ") + 4:
        raise CorruptIndex("index file too short")
    payload, (stored_crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise CorruptIndex("checksum mismatch")
    reader = _Reader(payload)
    if reader.take(4) != _MAGIC:
        raise CorruptIndex("bad magic")
    version, kind, dim, count = reader.unpack("<HBIQ")
    if version != _VERSION:
        raise CorruptIndex(f"unsupported format version {version}")
    if kind not in (_KIND_FLAT, _KIND_IVF):
        raise CorruptIndex(f"unknown index kind {kind}")
    if dim < 1:
        raise CorruptIndex("non-positive dimension")
    centroids32 = offsets = None
    if kind == _KIND_IVF:
        (nlist,) = reader.unpack("<I")
        if nlist < 1:
            raise CorruptIndex("non-positive nlist")
        centroids32 = np.frombuffer(reader.take(4 * nlist * dim), dtype="<f4").reshape(nlist, dim)
        offsets = np.frombuffer(reader.take(8 * (nlist + 1)), dtype="<u8")
        if int(offsets[0]) != 0 or int(offsets[-1]) != count or np.any(np.diff(offsets.astype(np.int64)) < 0):
            raise CorruptIndex("inconsistent list offsets")
    vecs32 = np.frombuffer(reader.take(4 * count * dim), dtype="<f4").reshape(count, dim)
    ids = []
    for _ in range(count):
        (length,) = reader.unpack("<I")
        try:
            ids.append(reader.take(length).decode("utf-8"))
        except UnicodeDecodeError as err:
            raise CorruptIndex("undecodable id entry") from err
    if reader.pos != len(payload):
        raise CorruptIndex("trailing bytes after id table")
    if kind == _KIND_FLAT:
        return FlatIndex(ids, vecs32.copy())
    assert centroids32 is not None and offsets is not None
    return IVFIndex(ids, vecs32.copy(), centroids32.copy(), offsets.copy(), nprobe=int(offsets.shape[0] - 1))


__all__ = [
    "IndexConfig",
    "SearchHit",
    "FlatIndex",
    "IVFIndex",
    "VectorIndex",
    "build_index",
    "load_index",
    "index_from_bytes",
]
