"""Tokenization, truncation diagnostics, and pluggable text embedders.

The default backend is a deterministic hashed bag-of-tokens embedder:
each token is hashed to a bucket with a ±1 sign, bucket sums are
accumulated as integers (so the result is exactly order-insensitive),
and the vector is L2-normalized. Empty inputs produce a zero vector
flagged `norm_flag="zero"`; zero vectors must never enter an index.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from .errors import BackendUnavailable, DimensionMismatch

DEFAULT_MAX_TOKENS = 384


@dataclass(frozen=True)
class EmbeddingVector:
    values: np.ndarray  # float32, shape (dim,)
    norm_flag: str  # "unit" | "zero"

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    @property
    def is_zero(self) -> bool:
        return self.norm_flag == "zero"


@dataclass(frozen=True)
class TruncationReport:
    """Corpus-level view of how much text a token limit cuts off.

    Mean/median losses are computed over truncated records only; an
    untruncated corpus reports zeros.
    """

    n_total: int
    n_truncated: int
    fraction_truncated: float
    mean_tokens_lost: float
    median_tokens_lost: float
    histogram_over_limit: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_total": self.n_total,
            "n_truncated": self.n_truncated,
            "fraction_truncated": self.fraction_truncated,
            "mean_tokens_lost": self.mean_tokens_lost,
            "median_tokens_lost": self.median_tokens_lost,
            "histogram_over_limit": dict(self.histogram_over_limit),
        }


def tokenize(text: str) -> list[str]:
    """Split on whitespace, then peel leading/trailing punctuation into own tokens."""
    tokens: list[str] = []
    for chunk in text.split():
        start, end = 0, len(chunk)
        while start < end and not chunk[start].isalnum():
            tokens.append(chunk[start])
            start += 1
        trailing: list[str] = []
        while end > start and not chunk[end - 1].isalnum():
            trailing.append(chunk[end - 1])
            end -= 1
        if end > start:
            tokens.append(chunk[start:end])
        tokens.extend(reversed(trailing))
    return tokens


def truncate_tokens(tokens: Sequence[str], max_tokens: int = DEFAULT_MAX_TOKENS) -> tuple[list[str], int]:
    """Keep the first max_tokens tokens; report how many fell off the end."""
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    kept = list(tokens[:max_tokens])
    return kept, max(0, len(tokens) - max_tokens)


def _loss_bucket(n_lost: int) -> str:
    if n_lost >= 1000:
        return "1000+"
    lo = ((n_lost - 1) // 100) * 100 + 1
    return f"{lo}-{lo + 99}"


def truncation_report(texts: Iterable[str], max_tokens: int = DEFAULT_MAX_TOKENS) -> TruncationReport:
    """Aggregate truncation losses over a corpus of (canonical) texts."""
    losses: list[int] = []
    n_total = 0
    histogram: dict[str, int] = {}
    for text in texts:
        n_total += 1
        _, n_lost = truncate_tokens(tokenize(text), max_tokens)
        if n_lost > 0:
            losses.append(n_lost)
            bucket = _loss_bucket(n_lost)
            histogram[bucket] = histogram.get(bucket, 0) + 1
    n_truncated = len(losses)
    return TruncationReport(
        n_total=n_total,
        n_truncated=n_truncated,
        fraction_truncated=n_truncated / n_total if n_total else 0.0,
        mean_tokens_lost=float(statistics.fmean(losses)) if losses else 0.0,
        median_tokens_lost=float(statistics.median(losses)) if losses else 0.0,
        histogram_over_limit=dict(sorted(histogram.items())),
    )


def token_hash(token: str) -> int:
    """Stable 64-bit hash of a token, identical across runs and platforms."""
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little")


def hashed_bow_embed(
    tokens: Sequence[str], dim: int, max_tokens: int = DEFAULT_MAX_TOKENS
) -> EmbeddingVector:
    """Signed hashed bag-of-tokens embedding.

    Bucket sums are integers before normalization, so permuting the
    tokens gives a bitwise-identical vector. The token limit applies
    before hashing.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    kept, _ = truncate_tokens(tokens, max_tokens)
    buckets = np.zeros(dim, dtype=np.int64)
    for token in kept:
        h = token_hash(token)
        sign = 1 if h >> 63 else -1
        buckets[h % dim] += sign
    accum = buckets.astype(np.float64)
    norm = float(np.sqrt(np.dot(accum, accum)))
    if norm == 0.0:
        return EmbeddingVector(np.zeros(dim, dtype=np.float32), "zero")
    return EmbeddingVector((accum / norm).astype(np.float32), "unit")


class Embedder(Protocol):
    name: str
    dim: int

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


class HashedEmbedder:
    """Deterministic offline embedder: tokenize, truncate, hashed bag-of-tokens."""

    def __init__(self, dim: int = 256, max_tokens: int = DEFAULT_MAX_TOKENS) -> None:
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.name = "hashed"
        self.dim = dim
        self.max_tokens = max_tokens

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [hashed_bow_embed(tokenize(t), self.dim, self.max_tokens) for t in texts]


class RemoteEmbedder:
    """HTTP embedder: POST {"texts": [...]} -> {"dim": D, "vectors": [[...], ...]}.

    The response dimension must match the configured one (declared
    handshake); vectors are re-normalized locally so the unit-norm
    invariant holds regardless of the service. Requests run under the
    same bounded in-flight contract and failure mapping as the
    translation client: HTTP 429 is RateLimited, and an unreachable
    endpoint, an error status or a body without a "vectors" list is
    BackendUnavailable.
    """

    def __init__(
        self,
        endpoint: str,
        dim: int,
        timeout: float = 30.0,
        session=None,
        batch_size: int = 32,
        max_in_flight: int = 4,
    ) -> None:
        import requests

        self.name = "remote"
        self.endpoint = endpoint
        self.dim = dim
        self.timeout = timeout
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self._session = session or requests.Session()

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        from .batching import map_batches

        return map_batches(
            list(texts),
            self._embed_one_batch,
            batch_size=self.batch_size,
            max_in_flight=self.max_in_flight,
        )

    def _embed_one_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        from .batching import list_field, post_json

        payload = post_json(
            self._session, self.endpoint, {"texts": list(texts)}, timeout=self.timeout, what="embed"
        )
        dim = payload.get("dim")
        if dim != self.dim:
            raise DimensionMismatch(self.dim, dim if isinstance(dim, int) else -1)
        vectors = []
        for row in list_field(payload, "vectors", "embed"):
            try:
                values = np.asarray(row, dtype=np.float32)
            except (TypeError, ValueError) as err:
                raise BackendUnavailable("embed endpoint returned a non-numeric vector") from err
            if values.shape != (self.dim,):
                raise DimensionMismatch(self.dim, int(values.shape[0]) if values.ndim else 0)
            norm = float(np.sqrt(np.dot(values.astype(np.float64), values.astype(np.float64))))
            if norm == 0.0:
                vectors.append(EmbeddingVector(np.zeros(self.dim, dtype=np.float32), "zero"))
            else:
                vectors.append(
                    EmbeddingVector((values.astype(np.float64) / norm).astype(np.float32), "unit")
                )
        if len(vectors) != len(texts):
            raise BackendUnavailable("embed endpoint returned wrong number of vectors")
        return vectors


def embed_batch(texts: Sequence[str], backend: Embedder) -> list[EmbeddingVector]:
    """Embed texts in order; raises DimensionMismatch on inconsistent output."""
    vectors = backend.embed_many(texts)
    for vector in vectors:
        if vector.dim != backend.dim:
            raise DimensionMismatch(backend.dim, vector.dim)
    return vectors


__all__ = [
    "DEFAULT_MAX_TOKENS",
    "EmbeddingVector",
    "TruncationReport",
    "tokenize",
    "truncate_tokens",
    "truncation_report",
    "token_hash",
    "hashed_bow_embed",
    "Embedder",
    "HashedEmbedder",
    "RemoteEmbedder",
    "embed_batch",
]
