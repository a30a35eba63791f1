"""Exact (flat) and IVF approximate nearest-neighbor indexes over L2 distance.

Distances are true L2 (square root taken), not squared L2 as some
libraries report, so distance thresholds from the pipeline apply
literally. All distance sums are accumulated in float64 from the stored
float32 vectors with one fixed per-row expression, so a query returns
bitwise-identical results no matter how searches are batched or threaded,
and an IVF index probing all of its lists reproduces the flat index
exactly, including tie order (ties break by ascending id everywhere).

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
from typing import Sequence, Union

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


def _row_sq_dists(rows64: np.ndarray, query64: np.ndarray, buf: np.ndarray) -> np.ndarray:
    # The one distance expression used everywhere: per-row float64 reduction,
    # independent of how many rows are in the batch. `buf` is scratch space
    # of rows64's shape (it may be rows64 itself), so no rows x dim array is
    # allocated per call.
    diff = np.subtract(rows64, query64, out=buf)
    np.square(diff, out=diff)
    return diff.sum(axis=1)


def _as_query64(query: QueryVector, dim: int) -> np.ndarray:
    if isinstance(query, EmbeddingVector):
        values = query.values
    else:
        values = np.asarray(query, dtype=np.float32)
    if values.ndim != 1 or values.shape[0] != dim:
        raise DimensionMismatch(dim, int(values.shape[-1]) if values.ndim else 0)
    return values.astype(np.float64)


class _BaseIndex:
    kind: str

    def __init__(self, ids: list[str], vecs32: np.ndarray) -> None:
        self.ids = ids
        self._vecs32 = np.ascontiguousarray(vecs32, dtype=np.float32)
        self._vecs64 = self._vecs32.astype(np.float64)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ranks = np.empty(len(ids), dtype=np.int64)
        ranks[order] = np.arange(len(ids))
        self._id_ranks = ranks
        self._comparisons = 0
        self._counter_lock = threading.Lock()
        self._scratch = threading.local()

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

    def reset_comparison_count(self) -> None:
        with self._counter_lock:
            self._comparisons = 0

    def _count(self, n: int) -> None:
        with self._counter_lock:
            self._comparisons += n

    def _buffer(self) -> np.ndarray:
        """This thread's (count, dim) float64 scratch array for distances."""
        buf = getattr(self._scratch, "buf", None)
        if buf is None:
            buf = self._scratch.buf = np.empty_like(self._vecs64)
        return buf

    def _hits_from_rows(self, rows: np.ndarray, d2: np.ndarray, k: int) -> list[SearchHit]:
        m = d2.shape[0]
        if k < m:
            # All rows with d2 <= (k+1)-th smallest cover the top k under
            # (distance, id) ordering even through ties at the boundary.
            kth = np.partition(d2, k)[k]
            sel = np.nonzero(d2 <= kth)[0]
        else:
            sel = np.arange(m)
        order = np.lexsort((self._id_ranks[rows[sel]], d2[sel]))
        chosen = sel[order[: min(k, m)]]
        return [
            SearchHit(self.ids[int(rows[i])], float(np.sqrt(d2[i]))) for i in chosen
        ]

    def search(self, query: QueryVector, k: int) -> list[SearchHit]:
        raise NotImplementedError

    def search_batch(
        self, queries: Sequence[QueryVector], k: int, threads: int = 1
    ) -> list[list[SearchHit]]:
        """Element-wise equal to calling `search` per query, in any thread count.

        The distance buffers of the batch's threads are released at the end.
        """
        try:
            if threads <= 1:
                return [self.search(q, k) for q in queries]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(lambda q: self.search(q, k), queries))
        finally:
            self._scratch = threading.local()

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    def to_bytes(self) -> bytes:
        raise NotImplementedError


class FlatIndex(_BaseIndex):
    """Exhaustive exact L2 scan; the oracle-grade baseline."""

    kind = "flat"

    def search(self, query: QueryVector, k: int) -> list[SearchHit]:
        if k < 1:
            raise ValueError("k must be positive")
        q64 = _as_query64(query, self.dim)
        d2 = _row_sq_dists(self._vecs64, q64, self._buffer())
        self._count(len(self))
        return self._hits_from_rows(np.arange(len(self)), d2, k)

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
        self._cent64 = self._cent32.astype(np.float64)
        self._offsets = np.asarray(offsets, dtype=np.uint64)
        self.nprobe = nprobe

    @property
    def nlist(self) -> int:
        return int(self._cent32.shape[0])

    def list_sizes(self) -> list[int]:
        return [int(n) for n in np.diff(self._offsets.astype(np.int64))]

    def _probe_rows(self, q64: np.ndarray, nprobe: int, buf: np.ndarray) -> np.ndarray:
        dc2 = _row_sq_dists(self._cent64, q64, buf[: self.nlist])
        probe = np.lexsort((np.arange(self.nlist), dc2))[:nprobe]
        spans = [
            np.arange(int(self._offsets[j]), int(self._offsets[j + 1]))
            for j in probe
        ]
        return np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)

    def search(self, query: QueryVector, k: int, nprobe: int | None = None) -> list[SearchHit]:
        if k < 1:
            raise ValueError("k must be positive")
        nprobe = self.nprobe if nprobe is None else nprobe
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, {self.nlist}]")
        q64 = _as_query64(query, self.dim)
        buf = self._buffer()
        rows = self._probe_rows(q64, nprobe, buf)
        self._count(int(rows.size))
        if rows.size == 0:
            return []
        # mode="clip" writes straight into `out`; "raise" would buffer a copy.
        probed = np.take(self._vecs64, rows, axis=0, out=buf[: rows.size], mode="clip")
        d2 = _row_sq_dists(probed, q64, probed)
        return self._hits_from_rows(rows, d2, k)

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
    d2 = np.empty((centers.shape[0], X.shape[0]), dtype=np.float64)
    buf = np.empty_like(X)
    for j in range(centers.shape[0]):
        d2[j] = _row_sq_dists(X, centers[j], buf)
    return d2.argmin(axis=0)


def _kmeans(
    X: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding and a fixed iteration count.

    Empty clusters are repaired by seeding them with the farthest point of
    the currently largest cluster.
    """
    centers = _kmeans_pp_init(X, k, rng)
    for _ in range(iters):
        assign = _assign(X, centers)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros((k, X.shape[1]), dtype=np.float64)
        np.add.at(sums, assign, X)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
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
