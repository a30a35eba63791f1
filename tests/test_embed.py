from __future__ import annotations

import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import postdedup.embed
from postdedup.embed import (
    HashedEmbedder,
    RemoteEmbedder,
    token_hash,
    tokenize,
    truncate_tokens,
    truncation_report,
)
from postdedup.errors import BackendUnavailable, DimensionMismatch

from conftest import FakeResponse, FakeSession, answer


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("shift manager") == ["shift", "manager"]

    def test_trailing_punct_split(self):
        assert tokenize("apply!") == ["apply", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_leading_and_trailing(self):
        assert tokenize("(hello)!") == ["(", "hello", ")", "!"]

    def test_inner_punct_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_all_punct_chunk(self):
        assert tokenize("?!") == ["?", "!"]


class TestTruncate:
    def test_over_limit(self):
        kept, lost = truncate_tokens([f"t{i}" for i in range(400)], 384)
        assert len(kept) == 384
        assert lost == 16

    def test_under_limit(self):
        kept, lost = truncate_tokens([f"t{i}" for i in range(100)], 384)
        assert (len(kept), lost) == (100, 0)

    def test_reported_mean_loss_magnitude(self):
        kept, lost = truncate_tokens([f"t{i}" for i in range(924)], 384)
        assert (len(kept), lost) == (384, 540)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            truncate_tokens(["a"], 0)


def _text_with_tokens(n: int) -> str:
    return " ".join(f"w{i}" for i in range(n))


class TestTruncationReport:
    def test_hand_computed_statistics(self):
        report = truncation_report([100, 400, 500], 384)
        assert report["n_total"] == 3
        assert report["n_truncated"] == 2
        assert report["fraction_truncated"] == pytest.approx(2 / 3)
        assert report["mean_tokens_lost"] == 66.0  # losses 16 and 116
        assert report["median_tokens_lost"] == 66.0

    def test_no_truncation(self):
        report = truncation_report([10, 384], 384)
        assert report["n_truncated"] == 0
        assert report["fraction_truncated"] == 0.0
        assert report["mean_tokens_lost"] == 0.0
        assert report["median_tokens_lost"] == 0.0
        assert report["histogram_over_limit"] == {}

    def test_matches_second_pass_counting_oracle(self):
        rng = random.Random(31)
        counts = [rng.randint(0, 900) for _ in range(10_000)]
        report = truncation_report(iter(counts), 384)

        losses = [c - 384 for c in counts if c > 384]
        assert report["n_total"] == 10_000
        assert report["n_truncated"] == len(losses)
        assert report["fraction_truncated"] == len(losses) / 10_000
        assert report["mean_tokens_lost"] == pytest.approx(sum(losses) / len(losses))
        assert report["median_tokens_lost"] == float(np.median(losses))
        assert sum(report["histogram_over_limit"].values()) == len(losses)

    def test_monotone_in_limit(self):
        counts = [10, 200, 390, 500, 800]
        lo = truncation_report(counts, 256)
        hi = truncation_report(counts, 384)
        assert hi["n_truncated"] <= lo["n_truncated"]
        assert hi["mean_tokens_lost"] <= lo["mean_tokens_lost"]


def truncation_loop(texts, max_tokens):
    """Oracle: tokenize and truncate text by text, as a second pass over the texts."""
    losses = []
    for text in texts:
        _, n_lost = truncate_tokens(tokenize_loop(text), max_tokens)
        if n_lost:
            losses.append(n_lost)
    return losses


@pytest.mark.parametrize("max_tokens", [1, 5, 384])
def test_truncation_report_of_the_embedding_token_counts_equals_second_pass(max_tokens):
    rng = random.Random(max_tokens)
    texts = [_text_with_tokens(rng.choice([0, 1, 4, 5, 6, 383, 384, 385, 1500])) for _ in range(60)]
    texts += ["(on-call)! nurse", "", "!!"]
    counts = []
    vectors = HashedEmbedder(dim=64, max_tokens=max_tokens).embed_many(texts, counts)
    assert counts == [len(tokenize_loop(text)) for text in texts]
    report = truncation_report(counts, max_tokens)

    losses = truncation_loop(texts, max_tokens)
    assert report["n_total"] == len(texts) and report["n_truncated"] == len(losses)
    assert report["fraction_truncated"] == len(losses) / len(texts)
    assert report["mean_tokens_lost"] == (float(np.mean(losses)) if losses else 0.0)
    assert report["median_tokens_lost"] == (float(np.median(losses)) if losses else 0.0)
    assert sum(report["histogram_over_limit"].values()) == len(losses)
    assert len(vectors) == len(texts)


@pytest.mark.parametrize("budget", [1, 3000, 1 << 20])
def test_embedding_chunks_of_any_size_give_the_same_rows(monkeypatch, budget):
    # A budget of 1 byte makes every text its own chunk; 3000 a few texts each.
    rng = random.Random(budget)
    texts = [_text_with_tokens(rng.randint(0, 40)) + " nurse!" * rng.randint(0, 2) for _ in range(50)]
    monkeypatch.setattr(postdedup.embed, "_CHUNK_BYTES", budget)
    batch = HashedEmbedder(dim=64, max_tokens=20).embed_many(texts)
    for text, row in zip(texts, batch):
        assert row.tobytes() == bow_loop(tokenize_loop(text), 64, 20).tobytes()


def embed_text(text: str, dim: int, max_tokens: int = 384) -> np.ndarray:
    """The embedding of one text, through the batch path the pipeline uses."""
    return HashedEmbedder(dim=dim, max_tokens=max_tokens).embed_many([text])[0]


class TestHashedEmbedding:
    def test_empty_tokens_zero_vector(self):
        vec = embed_text("", 64)
        assert vec.shape == (64,) and vec.dtype == np.float32
        assert not vec.any()

    def test_single_token_single_coordinate(self):
        vec = embed_text("nurse", 64)
        nonzero = np.nonzero(vec)[0]
        assert len(nonzero) == 1
        assert abs(abs(float(vec[nonzero[0]])) - 1.0) < 1e-7

    def test_deterministic_bitwise(self):
        a = embed_text("a b c", 128)
        b = embed_text("a b c", 128)
        assert a.tobytes() == b.tobytes()

    def test_equal_multisets_identical(self):
        a = embed_text("x y z x", 128)
        b = embed_text("z x x y", 128)
        assert a.tobytes() == b.tobytes()

    def test_scaling_invariance_against_dot_oracle(self):
        rng = random.Random(17)
        for _ in range(50):
            text = " ".join(f"tok{rng.randint(0, 400)}" for _ in range(rng.randint(1, 60)))
            a = embed_text(text, 256)
            doubled = embed_text(text + " " + text, 256)
            if not a.any():
                assert not doubled.any()
                continue
            # doubling every count scales the pre-normalization vector by
            # exactly 2, so the normalized vectors are bitwise identical
            assert a.tobytes() == doubled.tobytes()
            cos = float(np.dot(a.astype(np.float64), doubled.astype(np.float64)))
            assert cos == pytest.approx(1.0, abs=1e-6)

    def test_truncation_applied_before_hashing(self):
        words = [f"t{i}" for i in range(500)]
        full = embed_text(" ".join(words), 128, max_tokens=384)
        head = embed_text(" ".join(words[:384]), 128, max_tokens=384)
        assert full.tobytes() == head.tobytes()

    def test_token_hash_is_stable(self):
        # Frozen 64-bit value of blake2b("nurse", digest_size=8), little-endian.
        assert token_hash("nurse") == int.from_bytes(
            __import__("hashlib").blake2b(b"nurse", digest_size=8).digest(), "little"
        )
        assert token_hash("nurse") == token_hash("nurse")

    def test_min_dim(self):
        with pytest.raises(ValueError):
            HashedEmbedder(dim=1)


@settings(max_examples=100)
@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50))
def test_unit_norm_invariant(words):
    vec = embed_text(" ".join(words), 64)
    norm = float(np.linalg.norm(vec.astype(np.float64)))
    if vec.any():
        assert abs(norm - 1.0) <= 1e-4
    else:
        assert norm == 0.0


@settings(max_examples=60)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=30), st.randoms())
def test_bag_property_random_permutations(words, pyrandom):
    # Tokens never span whitespace, so shuffling the words shuffles the tokens.
    shuffled = list(words)
    pyrandom.shuffle(shuffled)
    a = embed_text(" ".join(words), 64)
    b = embed_text(" ".join(shuffled), 64)
    assert a.tobytes() == b.tobytes()


# -- regex tokenizer and bucket sums against the per-token loops --------------

def tokenize_loop(text: str) -> list[str]:
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


def bow_loop(tokens, dim: int, max_tokens: int) -> np.ndarray:
    buckets = np.zeros(dim, dtype=np.int64)
    for token in list(tokens)[:max_tokens]:
        h = token_hash(token)
        buckets[h % dim] += 1 if h >> 63 else -1
    accum = buckets.astype(np.float64)
    norm = float(np.sqrt(np.dot(accum, accum)))
    if norm == 0.0:
        return np.zeros(dim, dtype=np.float32)
    return (accum / norm).astype(np.float32)


# Words drawn from a small vocabulary repeat across texts, so most hashes come
# from the cache; punctuation around and inside them exercises the peeling.
_WORD = st.one_of(
    st.sampled_from(["nurse", "Nurse", "shift", "manager", "x", "a1", "_", "--", "(on-call)!"]),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6),
)
_SEP = st.sampled_from([" ", "  ", "\t", "\n", "\u3000", ""])
_TEXT = st.lists(st.tuples(_WORD, _SEP), max_size=40).map(
    lambda parts: "".join(word + sep for word, sep in parts)
)


@settings(max_examples=300)
@given(st.one_of(_TEXT, st.text(max_size=60)))
def test_tokenize_equals_per_chunk_loop(text):
    assert tokenize(text) == tokenize_loop(text)


# Empty, blank and punctuation-only texts.
_EMPTYISH = st.sampled_from(["", "   ", "\t\n", "!!", "?", "-- ..", "! !", "!! !!"])


@settings(max_examples=200)
@given(
    st.lists(st.one_of(_TEXT, _EMPTYISH), max_size=10),
    st.sampled_from([1, 3, 384]),
    st.randoms(use_true_random=False),
)
def test_hashed_embedding_equals_bucket_loop_bitwise(texts, max_tokens, pyrandom):
    texts = texts + ["", "   ", "!!", "nurse on call"]
    pyrandom.shuffle(texts)  # empty, punctuation-only and normal texts interleaved
    for dim in (64, 257):  # two widths in one process: buckets depend on dim
        embedder = HashedEmbedder(dim=dim, max_tokens=max_tokens)
        batch = embedder.embed_many(texts)
        assert batch.shape == (len(texts), dim) and batch.dtype == np.float32
        for text, vec in zip(texts, batch):
            expected = bow_loop(tokenize_loop(text), dim, max_tokens)
            assert np.array_equal(vec.view(np.uint32), expected.view(np.uint32))


def test_distance_cosine_link_at_threshold():
    # On unit vectors d^2 = 2(1 - cos); the 0.25 threshold is cos 0.96875.
    assert abs((1 - 0.25**2 / 2) - 0.96875) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(100):
        u = rng.normal(size=32)
        u /= np.linalg.norm(u)
        v = rng.normal(size=32)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        w = 0.96875 * u + math.sqrt(1 - 0.96875**2) * v  # unit, cos(u, w) = 0.96875
        d = float(np.linalg.norm(u - w))
        assert abs(d - 0.25) < 1e-12


def test_embed_batch_order_and_flags():
    backend = HashedEmbedder(dim=64)
    vectors = backend.embed_many(["nurse on call", "", "nurse on call"])
    assert vectors.shape == (3, 64) and vectors.dtype == np.float32
    assert vectors[0].any() and not vectors[1].any()
    assert vectors[2].tobytes() == vectors[0].tobytes()
    assert backend.embed_many([]).shape == (0, 64)


# -- remote embedder ------------------------------------------------------------

class _EmbedHandler(BaseHTTPRequestHandler):
    dim = 4
    calls = 0

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).calls += 1
        vectors = [[float(len(t)), 1.0, 0.0, 0.0][: type(self).dim] for t in body["texts"]]
        raw = json.dumps({"dim": type(self).dim, "vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbedHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _EmbedHandler.dim = 4
    _EmbedHandler.calls = 0
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()


def test_remote_embedder_handshake(embed_server):
    backend = RemoteEmbedder(embed_server, dim=4)
    vectors = backend.embed_many(["abc", "defgh"])
    assert vectors.shape == (2, 4) and vectors.dtype == np.float32
    assert all(abs(np.linalg.norm(v) - 1.0) < 1e-4 for v in vectors)


def test_remote_embedder_dimension_mismatch(embed_server):
    backend = RemoteEmbedder(embed_server, dim=8)
    with pytest.raises(DimensionMismatch):
        backend.embed_many(["abc"])


def test_remote_embedder_bounded_batches(embed_server):
    backend = RemoteEmbedder(embed_server, dim=4, batch_size=2, max_in_flight=2)
    out = backend.embed_many([f"text{i}" for i in range(5)])
    assert len(out) == 5
    assert _EmbedHandler.calls == 3  # ceil(5 / 2) batches


# -- remote embedder against a scripted offline session -------------------------

MALFORMED_VECTORS = [
    "<html>upstream busy</html>",  # not JSON
    json.dumps([[1.0, 0.0, 0.0, 0.0]]),  # JSON, but not an object
    json.dumps({"dim": 4}),  # no vectors key
    json.dumps({"dim": 4, "vectors": "1,0,0,0"}),  # not a list
    json.dumps({"dim": 4, "vectors": [["a", "b", "c", "d"]]}),  # not numbers
]


@pytest.fixture
def no_backoff(monkeypatch):
    delays = []
    monkeypatch.setattr("postdedup.batching.time.sleep", delays.append)
    return delays


@pytest.mark.parametrize("body", MALFORMED_VECTORS)
def test_remote_embedder_malformed_body_is_retried_then_unavailable(body, no_backoff):
    session = FakeSession(FakeResponse(200, body))
    backend = RemoteEmbedder("http://embed.invalid/embed", dim=4, session=session)
    with pytest.raises(BackendUnavailable):
        backend.embed_many(["abc"])
    assert len(session.calls) == 5  # every attempt of the default retry policy


def test_remote_embedder_non_finite_entry_is_retried_then_unavailable(no_backoff):
    # Python's json reads the NaN and Infinity literals as floats.
    body = '{"dim": 2, "vectors": [[NaN, 1.0], [Infinity, 0.0], [1.0, 0.0]]}'
    for vectors in (body, body.replace("Infinity", "-Infinity").replace("NaN", "0.5")):
        session = FakeSession(FakeResponse(200, vectors))
        backend = RemoteEmbedder("http://embed.invalid/embed", dim=2, session=session)
        with pytest.raises(BackendUnavailable, match="NaN or infinite"):
            backend.embed_many(["a", "b", "c"])
        assert len(session.calls) == 5


def test_remote_embedder_rate_limit_waits_retry_after(no_backoff):
    session = FakeSession(
        FakeResponse(429, "", {"Retry-After": "3"}),
        answer({"dim": 4, "vectors": [[3.0, 4.0, 0.0, 0.0]]}),
    )
    backend = RemoteEmbedder("http://embed.invalid/embed", dim=4, session=session)
    [vector] = backend.embed_many(["abc"])
    assert vector.tolist() == pytest.approx([0.6, 0.8, 0.0, 0.0])
    assert no_backoff and no_backoff[0] >= 3.0
