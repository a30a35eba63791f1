"""Exact (flat) and IVF approximate nearest-neighbor indexes over L2 distance.

Distances are true L2 (square root taken), not squared L2 as some
libraries report, so distance thresholds from the pipeline apply
literally. Every distance an index reports comes from one fixed per-row
float64 expression over the stored float32 vectors (`_row_sq_dists`), so
a query returns bitwise-identical results no matter how searches are
batched or threaded, and an IVF index probing all of its lists
reproduces the flat index exactly, including tie order (ties break by
ascending id everywhere).

An index has one search, `self_join_arrays`: the all-pairs search of
Bayardo, Ma & Srikant ("Scaling Up All Pairs Similarity Search", WWW
2007), each stored row's k nearest stored rows under a radius R (inf
for none). That is the search the pipeline makes of the embeddings.

Search kernel. One function, `_search`, finds every exact top k here,
by the IVF list scan of Johnson, Douze & Jégou (arXiv:1702.08734): a
query scans the lists of rows it probes. A one-list search, every row
probed by every query, serves the flat self-join's fallback; an IVF
index's rows probe their ``nprobe`` nearest lists, and that probe is a
one-list search over the centroids, as the k-means assign step is over
the centers. Queries run in blocks whose temporaries are sized by a byte
budget (`_BLOCK_BYTES`), not by a query count. Each list a block probes
gets one product with the queries probing it (`_preselect`, the only
place that forms it): the block itself, a slice of the queries, when
every query of the block probes the list, as in a one-list search, and a
gathered copy of those queries otherwise. The product gives the
approximate squared distance ``A = ‖q‖² + ‖x‖² − 2·q·x`` of every row of
the list, formed in the dtype both sides hold exactly: float32 for
stored rows and centroids, float64 against the float64 k-means centers,
a float32 block being cast to float64 block by block. Every search has a
radius R, the largest distance the caller can keep (a range search next
to k-NN, as in Johnson et al.; the threshold bounds all-pairs search as
in Bayardo et al.), and R = inf is the unbounded search. Per query the
scan keeps every row with ``A ≤ R² + 2Δ``, where

    Δ = (γ_d + 2·γ'_(d+2) + 6u)·(‖q‖ + max‖x‖)² + (5d + 4)·η

bounds ``|A − exact d²|`` for every row of the list (u: unit roundoff of
the product's dtype, 2⁻²⁴ for float32; γ_n = n·u/(1 − n·u), γ' the same
for float64; η: half the smallest subnormal; d: dimension; derivation at
`_preselect`). A query that keeps more than k rows of a list that way
keeps ``A ≤ a_k + 2Δ`` instead, ``a_k`` being its k-th smallest ``A``
in the list. Only the kept rows are re-ranked with the exact expression,
and the top k is chosen by (exact d², id), so the hits under R equal
those of an exhaustive exact scan of the probed rows bit for bit, ties
included, while the re-rank sees the few rows near each query. The
k-means++ seeding shares the same preselect, bounded per row by its
distance to the nearest center so far, to skip the rows a new center
cannot bring closer. k-means runs on the stored float32 rows and makes
no float64 copy of them (`_kmeans`).

Self-join. A flat index decides each unordered pair once, as the
all-pairs search of Bayardo et al. does (`_self_join`): a query block
forms its product only against the rows from its own on, and each kept
pair is re-ranked once and mirrored; the rows that keep more than k rows
in all are searched by `_search` instead. On the flat-2k rows
(2,395 × 256) the blocks hold 46 queries, as `_search`'s do (1 MiB ÷
(9 × 2,395 + 1,024)), but the 53 products cover half the (query, row)
pairs. An IVF index runs `_search` with its rows as the queries, each
probing its own ``nprobe`` lists.

The product is one BLAS GEMM, ``(rows @ queries.T).T``, as in blocked
exact search (Johnson et al.). The CLI runs OpenBLAS with one thread (see
``postdedup.cli``), so the only parallelism is the block pool of
``threads``. On the flat-2k rows, every row against every row in blocks
of 8 queries, the one-thread product takes 0.075 s against 0.24 s for
the ``np.einsum`` it replaced; ``queries @ rows.T`` takes 0.16 s.

An index may hold zero rows; every search of it finds no hits. Rows and
ids are validated, and ids ranked (`id_ranks`), once, by the `FlatIndex`
of the embeddings; an IVF index trained on it takes them in list order.

Only a flat index is stored: it is how embeddings travel between runs. An
IVF index is trained by `build_index` for the run that searches it and is
never written. The stored format is little-endian binary:

    magic "PDIX" | version u16 | kind u8 (0=flat) | dim u32 | count u64
    vectors float32[count*dim] row-major
    id table: count entries of (u32 byte length + UTF-8 bytes)
    crc32 u32 of all preceding bytes

Any other kind byte is rejected. Serialization is canonical: re-saving a
loaded index reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .atomic import atomic_write
from .errors import (
    CorruptIndex,
    DataError,
    DimensionMismatch,
    DuplicateId,
    ZeroVector,
)

_MAGIC = b"PDIX"
_VERSION = 1
_KIND_FLAT = 0

# Bytes of temporaries one block of queries may hold (`_block_size`): each
# query costs a copy in the dtype of the product, the one BLAS packs (an IVF
# list's gathered queries, a part of the block, come next to it), one more
# when it is cast to float64 against float64 rows, as the k-means assign
# casts the rows, and, per row it can reach (those of the `nprobe` largest
# lists, all n rows for a one-list search), two approximate distances and a
# mask flag. Candidates are not counted: a block re-ranks its kept rows in
# runs of queries that hold at most the budget at `_CANDIDATE_BYTES`
# (indices, exact d², sort order) each, so a clique under the radius holds
# no more than a common block. See `_search`.
_BLOCK_BYTES = 1 << 20
_CANDIDATE_BYTES = 40


def _block_size(queries: np.ndarray, rows: np.ndarray, reach: int) -> int:
    """Queries per block when each can reach `reach` of `rows` (see `_BLOCK_BYTES`)."""
    dtype = np.result_type(queries, rows)
    entry_bytes = 2 * dtype.itemsize + 1
    query_bytes = (1 + (queries.dtype != dtype)) * dtype.itemsize * queries.shape[1]
    return max(1, _BLOCK_BYTES // (entry_bytes * reach + query_bytes))


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
            if self.seed < 0:  # it seeds numpy's generator, which takes no negative seed
                raise ValueError(f"seed must be non-negative for an ivf index, got {self.seed}")


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


# Unit roundoff u and smallest subnormal (2η) of each dtype the kernel
# scans: float32 for stored rows and centroids, float64 for k-means.
_ROUNDING = {
    np.dtype(np.float32): (2.0**-24, 2.0**-149),
    np.dtype(np.float64): (2.0**-53, 2.0**-1074),
}


def _margin(dim: int, dtype) -> Callable[[np.ndarray, float], np.ndarray]:
    """Δ as a function of the query norms and the largest norm of the rows.

    Δ per query bounds |A − E| against any row of norm at most the one
    given; u and η are those of the rows' `dtype` (see `_preselect`). Its
    coefficient depends only on `dim` and `dtype`, so a search works it
    out once. The bound takes the largest row norm, so it holds for any
    subset of the rows.
    """
    u, tiny = _ROUNDING[dtype]
    coeff = _gamma(dim, u) + 2 * _gamma(dim + 2, 2.0**-53) + 6 * u
    floor = (5 * dim + 4) * tiny / 2
    return lambda q_norm, max_row_norm: coeff * (q_norm + max_row_norm) ** 2 + floor


def _preselect(
    queries: np.ndarray,
    q_sq: np.ndarray,
    rows: np.ndarray,
    row_sq: np.ndarray,
    delta: np.ndarray,
    k: int,
    r2: float | np.ndarray,
) -> np.ndarray:
    """Mask (m, n) of the (query, row) pairs that can be a query's top-k hits under `r2`.

    `q_sq` and `row_sq` are the squared norms of `queries` and `rows`, and
    `delta` is Δ per query (`_margin`, from the largest norm of `rows`).
    For a query q and a row x let D = ‖q − x‖² in real arithmetic and
    S = (‖q‖ + ‖x‖)², so that ‖q‖² + ‖x‖² ≤ S, 2|q·x| ≤ S and D ≤ S.
    Both operands hold values exact in the dtype the product is formed
    in; with u and η of that dtype and d the dimension:
      * q·x is a sum of d products. In any summation order (BLAS's
        blocked, fused multiply-add partial sums included) its error is
        at most γ_d·Σ|q_l·x_l| ≤ γ_d·‖q‖‖x‖, plus d·η of underflow, so
        −2q·x is off by at most γ_d·S + 2d·η;
      * the squared norms are float64 sums, together off by ≤ γ'_d·S
        (≤ γ_d·S + 2d·η for float64 rows, whose squares also round);
      * the two additions forming A = −2q·x + ‖x‖² + ‖q‖² each round in
        float64 and then to the dtype: ≤ 2(u + u')(1 + γ_d)·S + 2η;
      * the exact re-rank value E (float64 subtract, square, sum) is off
        from D by ≤ γ'_(d+2)·D ≤ γ'_(d+2)·S, whatever its order, plus
        d·η of underflow for float64 rows.
    So |A − E| ≤ Δ with Δ as in the module docstring, taking the largest
    row norm (`_margin`); the 6u also covers rounding the cutoffs below.

    Only the rows with E under a bound ρ are needed, and `r2` is one
    value for all queries or one per query. A search with a radius R
    passes R·R (inf for R = inf): the distance is the float64 square root
    of E, correctly rounded and R a float64, so √E < R implies E < ρ = R².
    The k-means++ seeding passes each row's running d² as ρ itself. A row
    with E < ρ has A < ρ + Δ. The cutoff r2 + 2Δ comes from ρ with at
    most two float64 roundings, which lose at most 2u'(ρ + 2Δ): less than
    Δ when ρ ≤ Δ/(2u'), and when ρ is larger every row passes anyway,
    since then ρ > 3S + 2d·η/u', far above A ≤ E + Δ. So keeping
    A ≤ r2 + 2Δ keeps every row with E < ρ. A query that keeps more than
    k rows this way cuts at its k-th smallest A over the list, a_k,
    instead: the k rows with the smallest A have E ≤ a_k + Δ, so the k-th
    smallest E is at most a_k + Δ; a row of the exact top k has E no
    larger, hence A ≤ E + Δ ≤ a_k + 2Δ, and keeping A ≤ a_k + 2Δ keeps
    every row the exact top k can hold, through any ties. Either way the
    query's kept set holds every row of its top k with E < ρ.

    A search calls this once per list it probes (flat: one list of every
    row), and a probed list is a flat scan of its rows: a row in a
    query's top k of all its probed rows is in the top k of its own
    list. So the rows kept from all its lists hold every row of the
    probed top k that lies under R. A kept row under R outside the probed
    top k sorts after all k of its rows by (E, id); they then lie under
    R too and are kept, so that row is not in the top k of the kept rows
    either. The top k of the kept rows therefore has the probed top k's
    hits under R, bit for bit; under R = inf that is the probed top k.
    """
    # BLAS is fastest on this orientation; the copy makes the arithmetic,
    # partition and mask below run on rows of contiguous memory.
    approx = np.ascontiguousarray((rows @ queries.T).T)
    approx *= -2
    approx += row_sq
    approx += q_sq[:, None]
    keep = approx <= (r2 + 2 * delta)[:, None]
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if over.size:
        approx = approx[over]
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        keep[over] = approx <= (kth.astype(np.float64) + 2 * delta[over])[:, None]
    return keep


def _exact_sq_dists(
    queries: np.ndarray, rows: np.ndarray, qi: np.ndarray, rj: np.ndarray
) -> np.ndarray:
    """Exact d² of each pair (queries[qi[t]], rows[rj[t]]), in budgeted chunks.

    A chunk holds half the budget, as the caller's block is alive beside
    it: per pair and dimension, 16 bytes of gathered rows, their float64
    copy and gathered queries.
    """
    out = np.empty(qi.size)
    step = max(1, _BLOCK_BYTES // (2 * 16 * rows.shape[1]))
    for start in range(0, qi.size, step):
        chunk = slice(start, start + step)
        gathered = rows[rj[chunk]].astype(np.float64, copy=False)
        out[chunk] = _row_sq_dists(gathered, queries[qi[chunk]], gathered)
    return out


def _top_k(
    qi: np.ndarray, rj: np.ndarray, d2: np.ndarray, ranks: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's k smallest candidates by (d², rank): (query, row, d²) in that order."""
    order = np.lexsort((ranks[rj], d2, qi))
    qi = qi[order]
    first_k = np.arange(qi.size) - np.searchsorted(qi, qi) < k
    order = order[first_k]
    return qi[first_k], rj[order], d2[order]


def _runs(counts: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Consecutive runs [a, b) of `counts`, each as long as its sum stays at most `cap`.

    A count over `cap` is a run of its own.
    """
    total = np.cumsum(counts)
    cuts = [0]
    while cuts[-1] < len(counts):
        before = total[cuts[-1] - 1] if cuts[-1] else 0
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(total, before + cap, side="right"))))
    return list(zip(cuts, cuts[1:]))


_NO_HITS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))


def _in_order(fn: Callable, items: Sequence, threads: int) -> Iterator:
    """`fn` of each item, yielded in order, with at most `threads` calls running or unread.

    Calls run on a pool of `threads` threads (inline for one), so the
    results depend only on the items; the bound on unread results keeps a
    slow consumer from holding every block's temporaries at once.
    """
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _search(
    queries: np.ndarray,
    rows: np.ndarray,
    row_sq: np.ndarray,
    ranks: np.ndarray,
    k: int,
    threads: int = 1,
    r2: float = math.inf,
    lists: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Exact top k per query by (d², rank) over the rows of the lists it probes.

    `lists` is (bounds, probes): list i holds rows bounds[i]:bounds[i + 1]
    and query q probes the lists probes[q]; None is one list of every
    row, probed by every query. The queries run in slices of
    `_block_size`, each cast to the dtype of the product, float64 when
    the rows are (as the k-means centers are), into a fresh buffer. A
    block sends each list it probes through `_preselect`, with the
    queries probing it (the block itself when all of them do) and the
    squared radius `r2` (inf for none), and re-ranks the kept rows
    exactly, in runs of queries whose kept rows fit the budget
    (`_CANDIDATE_BYTES` each), a query over it in a run of its own.
    Returns the hits as flat arrays (query, row, exact d²) in (query, d²,
    rank) order, at most k per query and fewer where a query reaches or
    keeps fewer rows, so they take memory in proportion to the hits; and
    the number of pairs re-ranked. Blocks are independent, so `threads`
    only spreads them.
    """
    if lists is None:
        lists = np.array([0, len(rows)]), np.zeros((len(queries), 1), dtype=np.int64)
    bounds, probes = lists
    firsts, sizes = bounds[:-1], np.diff(bounds)
    nprobe = probes.shape[1]
    dtype = np.result_type(queries, rows)
    margin = _margin(rows.shape[1], dtype)
    size = _block_size(queries, rows, int(np.sort(sizes)[-nprobe:].sum()))
    cap = _BLOCK_BYTES // _CANDIDATE_BYTES  # kept rows one re-rank may hold

    def run(start: int) -> tuple[list[tuple[np.ndarray, ...]], int]:
        block = queries[start : start + size].astype(dtype, copy=False)
        block_sq = _sq_norms(block)
        block_norm = np.sqrt(block_sq)
        # Each (query, list) probe of the block, grouped by list in query order.
        probed = probes[start : start + size].ravel()
        by_list = np.argsort(probed, kind="stable")
        counts = np.bincount(probed, minlength=len(sizes))
        ends = np.cumsum(counts)
        masks, kept = [], 0
        for lst in np.flatnonzero((counts > 0) & (sizes > 0)):
            probing = by_list[ends[lst] - counts[lst] : ends[lst]] // nprobe
            # A list the whole block probes scans the block, not a gathered copy.
            some = probing if probing.size < len(block) else slice(None)
            span = slice(firsts[lst], firsts[lst] + sizes[lst])
            delta = margin(block_norm[some], np.sqrt(row_sq[span].max()))
            keep = _preselect(block[some], block_sq[some], rows[span], row_sq[span], delta, k, r2)
            masks.append((probing, firsts[lst], keep))
            kept += np.count_nonzero(keep)
        runs = [(0, len(block))]
        if kept > cap:  # say, a clique under the radius: split by each query's kept rows
            per_query = np.zeros(len(block), dtype=np.int64)
            for probing, _, keep in masks:
                per_query[probing] += np.count_nonzero(keep, axis=1)
            runs = _runs(per_query, cap)
        hits = []
        for a, b in runs:
            # The kept rows of queries a:b of the block; `probing` ascends.
            found = [_NO_HITS[:2]]
            for probing, first, keep in masks:
                lo, hi = np.searchsorted(probing, (a, b))
                qi, rj = np.nonzero(keep[lo:hi])
                found.append((probing[qi + lo], rj + first))
            qi, rj = (np.concatenate(part) for part in zip(*found))
            del found
            hits.append(_top_k(qi + start, rj, _exact_sq_dists(block, rows, qi, rj), ranks, k))
        return hits, int(kept)

    found = list(_in_order(run, range(0, len(queries), size), threads))
    hits = [hit for block, _ in found for hit in block]
    qi, rj, d2 = (np.concatenate(part) for part in zip(_NO_HITS, *hits))
    return qi, rj, d2, sum(reranked for _, reranked in found)


def _self_join(
    rows: np.ndarray, row_sq: np.ndarray, ranks: np.ndarray, k: int, threads: int, r2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """`_search` of every row against all the rows under `r2`, deciding each unordered pair once.

    Returns what that search returns under `r2` (top k per query by
    (d², rank), the hits under the radius bit for bit), and the number of
    pairs re-ranked. Query block [s, e) forms its product only against
    rows [s, n), through `_preselect` with one Δ for every pair (that of
    the largest row norm against itself, which bounds |A − E| in both
    orientations) and a k of at least the row count, so that only the
    radius mask applies; in its own rows the block keeps the strict upper
    triangle. A row also keeps itself (E = 0, so A ≤ Δ), at d² 0, the
    bits the exact expression gives, without re-ranking it. A row's
    running count is its kept rows so far, itself included; after the
    block it is in, the count is final.

    A query that keeps at most k rows in all keeps every row with E under
    r2, so the top k under the radius is all of them (the argument at
    `_preselect`). Its hits are its kept rows: each pair is re-ranked once
    with the exact expression when it is stored, and mirrored, since E is
    bitwise symmetric (x − q = −(q − x) exactly in floating point). The
    queries that keep more rows are searched by `_search`, over one list
    of all rows, so their hits are that search's by construction. A pair
    is stored only while one of its ends keeps at most k rows, so the
    stored pairs follow the hits, and blocks are sized as `_search` sizes
    them. Results are equal for any `threads`.
    """
    n, dim = rows.shape
    if not n:
        return (*_NO_HITS, 0)
    top = float(np.sqrt(row_sq.max()))
    delta = _margin(dim, rows.dtype)(top, top)
    # Blocks of as many queries as a `_search` block. Block [s, e) reaches
    # only n - s rows, but a larger block would make BLAS pack, and the
    # process hold, more of its queries at once.
    size = _block_size(rows, rows, n)
    cuts = [*range(0, n, size), n]

    def kept(block: tuple[int, int]) -> np.ndarray:
        s, e = block
        deltas = np.full(e - s, delta)
        keep = _preselect(rows[s:e], row_sq[s:e], rows[s:], row_sq[s:], deltas, n, r2)
        keep[:, : e - s] &= ~np.tri(e - s, dtype=bool)
        return keep

    counts, reranked = np.zeros(n, dtype=np.int64), 0
    pi, pj, pd = _NO_HITS
    blocks = list(zip(cuts, cuts[1:]))
    if n > k and r2 >= 4 * row_sq.max():  # ‖q − x‖ ≤ ‖q‖ + ‖x‖: every row keeps all n
        blocks, counts[:] = [], n
    for (s, e), keep in zip(blocks, _in_order(kept, blocks, threads)):
        flags = keep.view(np.uint8)
        counts[s:] += flags.sum(axis=0, dtype=np.int32)
        counts[s:e] += flags.sum(axis=1, dtype=np.int32) + 1  # and its own row
        open_ = counts[s:] <= k
        # Row-major coordinates of the pairs to store (np.nonzero is slower).
        qi, rj = np.divmod(np.flatnonzero(keep & (open_[: e - s, None] | open_)), n - s)
        del keep, flags
        qi += s
        rj += s
        alive = (counts[pi] <= k) | (counts[pj] <= k)
        pi, pj = np.concatenate((pi[alive], qi)), np.concatenate((pj[alive], rj))
        pd = np.concatenate((pd[alive], _exact_sq_dists(rows, rows, qi, rj)))
        reranked += qi.size
    # The rows over k, as the queries of one list of every row, one block of
    # them (as `_search` sizes it) copied at a time.
    over = np.flatnonzero(counts > k)
    chunks = np.split(over, range(size, over.size, size))

    def search(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        return _search(rows[chunk], rows, row_sq, ranks, k, 1, r2)

    found = [_NO_HITS]
    for chunk, (fqi, frj, fd2, searched) in zip(chunks, _in_order(search, chunks, threads)):
        found.append((chunk[fqi], frj, fd2))
        reranked += searched
    fqi, frj, fd2 = (np.concatenate(part) for part in zip(*found))
    forward, back, itself = counts[pi] <= k, counts[pj] <= k, np.flatnonzero(counts <= k)
    qi, rj, d2 = _top_k(
        np.concatenate((pi[forward], pj[back], itself, fqi)),
        np.concatenate((pj[forward], pi[back], itself, frj)),
        np.concatenate((pd[forward], pd[back], np.zeros(itself.size), fd2)),
        ranks,
        k,
    )
    return qi, rj, d2, reranked


def id_order(ids: Sequence[str]) -> list[int]:
    """The places of `ids` in ascending id order; a repeated id raises DuplicateId."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    if repeated := [ids[a] for a, b in zip(order, order[1:]) if ids[a] == ids[b]]:
        raise DuplicateId(repeated[0])
    return order


class _BaseIndex:
    """Rows and ids every index holds, validated and ranked once.

    The constructor (a `FlatIndex`'s) rejects what no index may hold: a shape
    other than (len(ids), dim) (DataError), an all-zero row (ZeroVector), a
    NaN or infinite entry (DataError) and a repeated id (DuplicateId).
    """

    kind: str

    def __init__(self, ids: Sequence[str], vectors) -> None:
        ids = list(ids)
        vecs32 = np.ascontiguousarray(vectors, dtype=np.float32)
        if vecs32.ndim != 2 or len(vecs32) != len(ids):
            raise DataError(f"{len(ids)} ids need a ({len(ids)}, dim) matrix, got {vecs32.shape}")
        self._sq = _sq_norms(vecs32)
        # The float64 square of a float32 entry is 0 or not finite only if
        # the entry is, so the squared norms show both kinds of bad row.
        zero, bad = self._sq == 0, ~np.isfinite(self._sq)
        if zero.any():
            raise ZeroVector(f"zero vector for id {ids[int(np.argmax(zero))]!r} cannot be indexed")
        if bad.any():
            vid = ids[int(np.argmax(bad))]
            raise DataError(f"non-finite vector for id {vid!r} cannot be indexed")
        self.ids = ids
        self._vecs32 = vecs32
        # Read-only; `ids[i]` is the `id_ranks[i]`-th smallest id.
        self.id_ranks = np.argsort(id_order(ids))
        self.id_ranks.flags.writeable = False
        # Stored vectors the last search compared, and re-ranked with the
        # exact expression; each search sets both.
        self.comparison_count = self.rerank_count = 0

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self._vecs32.shape[1])

    @property
    def vectors(self) -> np.ndarray:
        """The stored (n, dim) float32 rows in storage order, read-only; row i is `ids[i]`."""
        view = self._vecs32.view()
        view.flags.writeable = False
        return view

    def self_join_arrays(
        self, k: int, radius: float = math.inf, threads: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each stored row's top k of the rows it probes, as flat hit arrays.

        The arrays hold the querying row, the stored row and the true L2
        distance. The hits run in query order, each query's ascending with
        ties by id; a query with fewer than k hits has only those, so the
        arrays hold as many entries as there are hits. Hits at a distance
        of `radius` or more may be left out, but every hit of the top k
        under it is there, with the same bits. Results are equal for any
        thread count.
        """
        if k < 1:
            raise ValueError("k must be positive")
        qi, rows, d2 = self._join(k, radius * radius, threads)
        return qi, rows, np.sqrt(d2)

    def _join(self, k: int, r2: float, threads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`self_join_arrays` with exact d²; sets both counts."""
        raise NotImplementedError

    def save(self, path: str | Path) -> None:
        with atomic_write(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self) -> bytes:
        raise NotImplementedError(f"a {self.kind} index is not stored")


class FlatIndex(_BaseIndex):
    """Exhaustive exact L2 scan; the oracle-grade baseline.

    It is also how a batch of embeddings travels: row i of `vectors` is
    the embedding of `ids[i]`.
    """

    kind = "flat"

    def _join(self, k: int, r2: float, threads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Each pair of rows decided once; the comparisons are the n² ordered
        # pairs the search decided.
        qi, rows, d2, self.rerank_count = _self_join(
            self._vecs32, self._sq, self.id_ranks, k, threads, r2
        )
        self.comparison_count = len(self) ** 2
        return qi, rows, d2

    def to_bytes(self) -> bytes:
        parts = [_MAGIC, struct.pack("<HBIQ", _VERSION, _KIND_FLAT, self.dim, len(self))]
        parts.append(np.ascontiguousarray(self._vecs32, dtype="<f4").tobytes())
        for vid in self.ids:
            raw = vid.encode("utf-8")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)
        payload = b"".join(parts)
        return payload + struct.pack("<I", zlib.crc32(payload))


class IVFIndex(_BaseIndex):
    """Inverted-file index: k-means coarse quantizer plus per-centroid lists.

    Vectors are stored grouped by list, list i holding rows
    bounds[i]:bounds[i + 1]; a row's search scans only the `nprobe` lists
    whose centroids are nearest to it. `build_index` makes it, from k-means
    centroids of finite rows, and it is never written to a file. Its row i
    is row `order[i]` of `flat`, with its id, squared norm and id rank.
    """

    kind = "ivf"

    def __init__(
        self,
        flat: FlatIndex,
        centroids32: np.ndarray,
        order: np.ndarray,
        bounds: np.ndarray,
        nprobe: int,
        kmeans_iterations: int = 0,
    ) -> None:
        self.ids = [flat.ids[i] for i in order.tolist()]
        self._vecs32 = flat._vecs32[order]
        self._sq = flat._sq[order]
        self.id_ranks = flat.id_ranks[order]
        self.id_ranks.flags.writeable = False
        self.comparison_count = self.rerank_count = 0
        self._cent32 = np.ascontiguousarray(centroids32, dtype=np.float32)
        self._cent_sq = _sq_norms(self._cent32)
        self._bounds = np.asarray(bounds, dtype=np.int64)
        self.nprobe = nprobe
        # The Lloyd iterations that trained the centroids (`_kmeans`); 0 for
        # centroids given as they are.
        self.kmeans_iterations = kmeans_iterations

    @property
    def nlist(self) -> int:
        return int(self._cent32.shape[0])

    def list_sizes(self) -> list[int]:
        return np.diff(self._bounds).tolist()

    def _join(self, k: int, r2: float, threads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Each row probes the lists of its `nprobe` nearest centroids; it
        # reaches every centroid, so it keeps exactly nprobe of them.
        rows, n = self._vecs32, len(self)
        ranks = np.arange(self.nlist)
        _, probes, _, _ = _search(rows, self._cent32, self._cent_sq, ranks, self.nprobe, threads)
        probes = probes.reshape(n, self.nprobe)
        lists = (self._bounds, probes)
        qi, found, d2, self.rerank_count = _search(
            rows, rows, self._sq, self.id_ranks, k, threads, r2, lists
        )
        self.comparison_count = int(np.diff(self._bounds)[probes].sum())
        return qi, found, d2


VectorIndex = Union[FlatIndex, IVFIndex]


def _lower_sq_dists(
    d2: np.ndarray, X: np.ndarray, x_sq: np.ndarray, x_norm: np.ndarray, center: int, margin
) -> None:
    """d2 ← min(d2, exact d² of each row of X to the row `center`), in place.

    `x_sq` and `x_norm` are the rows' squared norms and norms, and
    `margin` is `_margin` of X, all worked out once for every center.
    Only the rows `_preselect` keeps under r2 = d2 go through the exact
    expression, in budgeted chunks (`_exact_sq_dists`); any other row's
    exact d² is at least d2, so the minimum keeps d2's bits there. Where
    d2 is inf every row goes through.
    """
    one = slice(center, center + 1)
    delta = margin(x_norm, x_norm[center])
    near = np.flatnonzero(_preselect(X, x_sq, X[one], x_sq[one], delta, 1, d2))
    exact = _exact_sq_dists(X, X, np.full(near.size, center), near)
    d2[near] = np.minimum(d2[near], exact)


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k float64 centers drawn from the rows of X by k-means++ seeding."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    x_sq = _sq_norms(X)
    x_norm, margin = np.sqrt(x_sq), _margin(X.shape[1], X.dtype)
    # Each row's d² to its nearest center so far. It starts at inf, so the
    # first center is drawn uniformly and every row takes its exact d².
    d2 = np.full(n, np.inf)
    for j in range(k):
        total = float(d2.sum())
        if j and total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        _lower_sq_dists(d2, X, x_sq, x_norm, idx, margin)
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest center by the exact expression, lowest index on ties."""
    k = len(centers)
    # Each row keeps at least one center, so it has exactly one hit.
    _, nearest, _, _ = _search(X, centers, _sq_norms(centers), np.arange(k), 1)
    return nearest


def _cluster_sums(X: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Each of k clusters' float64 sum of its rows of X, a running sum from 0.0 in row order.

    `np.add.at` adds each entry of X, cast to float64, into its cluster's
    entry of the flattened sums, one after another in row order; a chunk
    of rows holds its entries' flat indices and values within half the
    budget. Starting from 0.0 turns the -0.0 that an all -0.0 column
    would sum to into 0.0.
    """
    dim = X.shape[1]
    sums, cols = np.zeros(k * dim), np.arange(dim)
    step = max(1, _BLOCK_BYTES // (2 * 16 * dim))
    for start in range(0, len(X), step):
        chunk = slice(start, start + step)
        entries = (assign[chunk, None] * dim + cols).ravel()
        np.add.at(sums, entries, X[chunk].astype(np.float64, copy=False).ravel())
    return sums.reshape(k, dim)


def _kmeans(
    X: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """Lloyd's algorithm with k-means++ seeding and at most `iters` iterations.

    Returns the float64 centers, each row's nearest center and the number
    of iterations run. X is used as it is stored, float32 for an index,
    and never copied to float64: each float64 expression casts the rows it
    reads exactly, a block at a time (the assign's product against the
    float64 centers in `_search`, the exact distances, each center's
    running sum from 0.0 in `_cluster_sums`), so the result has the bits
    a float64 copy of X would give. Empty clusters are repaired by
    seeding them with the farthest point of the currently largest
    cluster. An iteration is a deterministic function of the centers,
    repair included, so once one leaves them bitwise unchanged every
    later one would too, and the loop stops there; the assignment to
    those centers is then the one that iteration computed.
    """
    centers = _kmeans_pp_init(X, k, rng)
    previous = np.empty_like(centers)
    for iteration in range(1, iters + 1):
        previous[:] = centers
        nearest = _assign(X, centers)
        assign = nearest.copy()  # the repair moves rows between clusters
        counts = np.bincount(assign, minlength=k)
        nonempty = counts > 0
        centers[nonempty] = _cluster_sums(X, assign, k)[nonempty] / counts[nonempty, None]
        for j in np.nonzero(~nonempty)[0]:
            big = int(np.argmax(counts))
            if counts[big] <= 1:
                continue
            members = np.nonzero(assign == big)[0]
            spread = _exact_sq_dists(centers, X, np.full(members.size, big), members)
            far = members[int(np.argmax(spread))]
            centers[int(j)] = X[far]
            assign[far] = j
            counts[big] -= 1
            counts[int(j)] += 1
        if np.array_equal(previous.view(np.uint64), centers.view(np.uint64)):
            return centers, nearest, iteration
    return centers, _assign(X, centers), iters


def build_index(flat: FlatIndex, config: IndexConfig) -> VectorIndex:
    """The search index over `flat`'s rows: `flat` itself, or IVF trained on them.

    This is the one sizing rule: IVF takes min(nlist, rows) lists and
    probes min(nprobe, lists) of them, so a corpus smaller than `nlist`
    gets one list per row; zero rows train nothing and give `flat`, the
    empty flat index. Deterministic given config.seed.
    """
    if flat.dim != config.dim:
        raise DimensionMismatch(config.dim, flat.dim)
    if config.kind == "flat" or not len(flat):
        return flat
    nlist = min(config.nlist, len(flat))
    rng = np.random.default_rng(config.seed)
    centers, assign, iterations = _kmeans(flat.vectors, nlist, config.kmeans_iters, rng)
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=nlist)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return IVFIndex(
        flat,
        centers.astype(np.float32),
        order,
        bounds,
        nprobe=min(config.nprobe, nlist),
        kmeans_iterations=iterations,
    )


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


def load_index(path: str | Path) -> FlatIndex:
    """Load a PDIX file, verifying magic, version, kind, structure, and CRC-32."""
    data = Path(path).read_bytes()
    return index_from_bytes(data)


def index_from_bytes(data: bytes) -> FlatIndex:
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
    if kind != _KIND_FLAT:
        raise CorruptIndex(f"unknown index kind {kind}")
    if dim < 1:
        raise CorruptIndex("non-positive dimension")
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
    return FlatIndex(ids, vecs32.copy())


__all__ = [
    "IndexConfig",
    "FlatIndex",
    "IVFIndex",
    "VectorIndex",
    "build_index",
    "id_order",
    "load_index",
    "index_from_bytes",
]
