"""Tokenization, truncation diagnostics, and pluggable text embedders.

The default backend is a deterministic hashed bag-of-tokens embedder:
each token is hashed to a bucket with a ±1 sign, bucket sums are
small integers (so the result is exactly order-insensitive),
and the vector is L2-normalized. Every embedder's `embed_many` turns a
batch of texts into one (n, dim) float32 matrix, and appends each text's
`tokenize` count to `token_counts` when given; an all-zero row marks a
text with nothing to embed, and such rows must never enter an index.
"""

from __future__ import annotations

import functools
import hashlib
import re
from typing import Iterable, Sequence

import numpy as np

from .errors import BackendUnavailable, DimensionMismatch

DEFAULT_MAX_TOKENS = 384

# Budget of one embedding chunk: its float64 bucket accumulator plus four
# 8-byte values (hash, cell, sign, row) per kept token.
_CHUNK_BYTES = 1 << 20


# A token runs from an alphanumeric character to the last alphanumeric one
# of its whitespace chunk; any other non-space character is a token alone.
# In `re`, [^\W_] is exactly str.isalnum() and \S exactly not str.isspace(),
# which is what str.split() splits on.
_TOKEN_RE = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")


def tokenize(text: str) -> list[str]:
    """Split on whitespace, then peel leading/trailing punctuation into own tokens.

    No token spans whitespace, so each `str.split` chunk is tokenized on
    its own: an all-alphanumeric chunk is one token, and only the others
    go through the regex.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if chunk.isalnum():
            tokens.append(chunk)
        else:
            tokens += _TOKEN_RE.findall(chunk)
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


def truncation_report(token_counts: Iterable[int], max_tokens: int = DEFAULT_MAX_TOKENS) -> dict:
    """How much text a token limit cuts off, over texts with these `tokenize`
    token counts: the `truncation` document of the run report.

    Mean/median losses are over truncated texts only; an untruncated corpus
    reports zeros.
    """
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    losses: list[int] = []
    n_total = 0
    histogram: dict[str, int] = {}
    for count in token_counts:
        n_total += 1
        n_lost = count - max_tokens
        if n_lost > 0:
            losses.append(n_lost)
            bucket = _loss_bucket(n_lost)
            histogram[bucket] = histogram.get(bucket, 0) + 1
    n_truncated = len(losses)
    mean = median = 0.0
    if losses:  # statistics is loaded only once a text is truncated
        import statistics

        mean, median = float(statistics.fmean(losses)), float(statistics.median(losses))
    return {
        "n_total": n_total,
        "n_truncated": n_truncated,
        "fraction_truncated": n_truncated / n_total if n_total else 0.0,
        "mean_tokens_lost": mean,
        "median_tokens_lost": median,
        "histogram_over_limit": dict(sorted(histogram.items())),
    }


def token_hash(token: str) -> int:
    """Stable 64-bit hash of a token, identical across runs and platforms."""
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little")


# Tokens repeat across texts, so each one is hashed once while it stays
# among the most recently used.
_cached_token_hash = functools.lru_cache(maxsize=1 << 15)(token_hash)


def _bow_rows(tokens: Sequence[str], lengths: Sequence[int], dim: int) -> np.ndarray:
    """Signed hashed bag-of-tokens embeddings of consecutive runs of `tokens`.

    One (dim,) float32 row per run length: a unit vector, or zeros where
    the run is empty or its sums cancel. A token adds its sign (+1 if the
    top bit of its hash is set, else -1) to bucket hash % dim of its row,
    and one bincount fills every row. Bucket sums and their squares are
    small integers, which float64 adds exactly in any order, so a row has
    the bits of its run embedded alone, in any token order.
    """
    hashes = np.fromiter(map(_cached_token_hash, tokens), dtype=np.uint64, count=len(tokens))
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cells = rows * dim + (hashes % np.uint64(dim)).astype(np.intp)
    signs = np.where(hashes >> np.uint64(63), 1.0, -1.0)
    accum = np.bincount(cells, weights=signs, minlength=len(lengths) * dim)
    accum = accum.reshape(len(lengths), dim)
    norms = np.sqrt(np.einsum("ij,ij->i", accum, accum))[:, None]
    unit = np.divide(accum, norms, out=np.zeros(accum.shape), where=norms != 0.0)
    return unit.astype(np.float32)


class HashedEmbedder:
    """Deterministic offline embedder: tokenize, truncate, hashed bag-of-tokens."""

    def __init__(self, dim: int = 256, max_tokens: int = DEFAULT_MAX_TOKENS) -> None:
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
        self.name = "hashed"
        self.dim = dim
        self.max_tokens = max_tokens

    def embed_many(
        self, texts: Sequence[str], token_counts: list[int] | None = None
    ) -> np.ndarray:
        # Texts are embedded in chunks whose accumulator and kept tokens fit
        # _CHUNK_BYTES: the whole batch at once would hold every text's
        # tokens in memory together.
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        chunk: list[str] = []
        lengths: list[int] = []
        start = 0
        for end, text in enumerate(texts, 1):
            tokens = tokenize(text)
            if token_counts is not None:
                token_counts.append(len(tokens))
            kept, _ = truncate_tokens(tokens, self.max_tokens)
            chunk += kept
            lengths.append(len(kept))
            if 8 * (len(lengths) * self.dim + 4 * len(chunk)) >= _CHUNK_BYTES or end == len(texts):
                out[start:end] = _bow_rows(chunk, lengths, self.dim)
                chunk, lengths, start = [], [], end
        return out


class RemoteEmbedder:
    """HTTP embedder: POST {"texts": [...]} -> {"dim": D, "vectors": [[...], ...]}.

    The response dimension must match the configured one (declared
    handshake); vectors are re-normalized locally so the unit-norm
    invariant holds regardless of the service. Requests run under the
    same bounded in-flight contract and failure mapping as the
    translation client: HTTP 429 is RateLimited, and an unreachable
    endpoint, an error status, a body without a "vectors" list, one with
    a vector count other than the batch size, or a vector with a
    non-numeric, NaN or infinite entry is BackendUnavailable. An endpoint
    that is not an http(s) URL is a ConfigError.
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

        from .batching import check_endpoint

        self.name = "remote"
        self.endpoint = check_endpoint(endpoint)
        self.dim = dim
        self.timeout = timeout
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self._session = session or requests.Session()

    def embed_many(
        self, texts: Sequence[str], token_counts: list[int] | None = None
    ) -> np.ndarray:
        from .batching import map_batches

        if token_counts is not None:
            token_counts.extend(len(tokenize(text)) for text in texts)
        rows = map_batches(
            list(texts),
            self._embed_one_batch,
            batch_size=self.batch_size,
            max_in_flight=self.max_in_flight,
        )
        return np.array(rows, dtype=np.float32).reshape(len(rows), self.dim)

    def _embed_one_batch(self, texts: list[str]) -> np.ndarray:
        from .batching import list_field, post_json

        payload = post_json(
            self._session, self.endpoint, {"texts": list(texts)}, timeout=self.timeout, what="embed"
        )
        dim = payload.get("dim")
        if dim != self.dim:
            raise DimensionMismatch(self.dim, dim if isinstance(dim, int) else -1)
        rows = list_field(payload, "vectors", "embed")
        out = np.zeros((len(rows), self.dim), dtype=np.float32)
        for vector, row in zip(out, rows):
            try:
                values = np.asarray(row, dtype=np.float32)
            except (TypeError, ValueError) as err:
                raise BackendUnavailable("embed endpoint returned a non-numeric vector") from err
            if values.shape != (self.dim,):
                raise DimensionMismatch(self.dim, int(values.shape[0]) if values.ndim else 0)
            if not np.isfinite(values).all():
                raise BackendUnavailable("embed endpoint returned a NaN or infinite entry")
            values = values.astype(np.float64)
            norm = float(np.sqrt(np.dot(values, values)))
            if norm != 0.0:
                vector[:] = values / norm
        return out


__all__ = [
    "DEFAULT_MAX_TOKENS",
    "tokenize",
    "truncate_tokens",
    "truncation_report",
    "token_hash",
    "HashedEmbedder",
    "RemoteEmbedder",
]
