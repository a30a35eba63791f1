from __future__ import annotations

import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postdedup.embed import (
    HashedEmbedder,
    RemoteEmbedder,
    embed_batch,
    hashed_bow_embed,
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
        report = truncation_report([_text_with_tokens(c) for c in (100, 400, 500)], 384)
        assert report.n_total == 3
        assert report.n_truncated == 2
        assert report.fraction_truncated == pytest.approx(2 / 3)
        assert report.mean_tokens_lost == 66.0  # losses 16 and 116
        assert report.median_tokens_lost == 66.0

    def test_no_truncation(self):
        report = truncation_report([_text_with_tokens(c) for c in (10, 384)], 384)
        assert report.n_truncated == 0
        assert report.fraction_truncated == 0.0
        assert report.mean_tokens_lost == 0.0
        assert report.median_tokens_lost == 0.0
        assert report.histogram_over_limit == {}

    def test_matches_second_pass_counting_oracle(self):
        rng = random.Random(31)
        counts = [rng.randint(0, 900) for _ in range(10_000)]
        report = truncation_report((_text_with_tokens(c) for c in counts), 384)

        losses = [c - 384 for c in counts if c > 384]
        assert report.n_total == 10_000
        assert report.n_truncated == len(losses)
        assert report.fraction_truncated == len(losses) / 10_000
        assert report.mean_tokens_lost == pytest.approx(sum(losses) / len(losses))
        assert report.median_tokens_lost == float(np.median(losses))
        assert sum(report.histogram_over_limit.values()) == len(losses)

    def test_monotone_in_limit(self):
        texts = [_text_with_tokens(c) for c in (10, 200, 390, 500, 800)]
        lo = truncation_report(texts, 256)
        hi = truncation_report(texts, 384)
        assert hi.n_truncated <= lo.n_truncated
        assert hi.mean_tokens_lost <= lo.mean_tokens_lost


class TestHashedEmbedding:
    def test_empty_tokens_zero_vector(self):
        vec = hashed_bow_embed([], 64)
        assert vec.norm_flag == "zero"
        assert not vec.values.any()

    def test_single_token_single_coordinate(self):
        vec = hashed_bow_embed(["nurse"], 64)
        nonzero = np.nonzero(vec.values)[0]
        assert len(nonzero) == 1
        assert abs(abs(float(vec.values[nonzero[0]])) - 1.0) < 1e-7

    def test_deterministic_bitwise(self):
        a = hashed_bow_embed(["a", "b", "c"], 128)
        b = hashed_bow_embed(["a", "b", "c"], 128)
        assert a.values.tobytes() == b.values.tobytes()

    def test_equal_multisets_identical(self):
        a = hashed_bow_embed(["x", "y", "z", "x"], 128)
        b = hashed_bow_embed(["z", "x", "x", "y"], 128)
        assert a.values.tobytes() == b.values.tobytes()

    def test_scaling_invariance_against_dot_oracle(self):
        rng = random.Random(17)
        for _ in range(50):
            tokens = [f"tok{rng.randint(0, 400)}" for _ in range(rng.randint(1, 60))]
            a = hashed_bow_embed(tokens, 256)
            doubled = hashed_bow_embed(tokens + tokens, 256)
            if a.norm_flag == "zero":
                assert doubled.norm_flag == "zero"
                continue
            # doubling every count scales the pre-normalization vector by
            # exactly 2, so the normalized vectors are bitwise identical
            assert a.values.tobytes() == doubled.values.tobytes()
            cos = float(
                np.dot(a.values.astype(np.float64), doubled.values.astype(np.float64))
            )
            assert cos == pytest.approx(1.0, abs=1e-6)

    def test_truncation_applied_before_hashing(self):
        tokens = [f"t{i}" for i in range(500)]
        full = hashed_bow_embed(tokens, 128, max_tokens=384)
        head = hashed_bow_embed(tokens[:384], 128, max_tokens=384)
        assert full.values.tobytes() == head.values.tobytes()

    def test_token_hash_is_stable(self):
        # Frozen 64-bit value of blake2b("nurse", digest_size=8), little-endian.
        assert token_hash("nurse") == int.from_bytes(
            __import__("hashlib").blake2b(b"nurse", digest_size=8).digest(), "little"
        )
        assert token_hash("nurse") == token_hash("nurse")

    def test_min_dim(self):
        with pytest.raises(ValueError):
            hashed_bow_embed(["a"], 1)


@settings(max_examples=100)
@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50))
def test_unit_norm_invariant(tokens):
    vec = hashed_bow_embed(tokens, 64)
    norm = float(np.linalg.norm(vec.values.astype(np.float64)))
    if vec.norm_flag == "unit":
        assert abs(norm - 1.0) <= 1e-4
    else:
        assert norm == 0.0


@settings(max_examples=60)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=30), st.randoms())
def test_bag_property_random_permutations(tokens, pyrandom):
    shuffled = list(tokens)
    pyrandom.shuffle(shuffled)
    a = hashed_bow_embed(tokens, 64)
    b = hashed_bow_embed(shuffled, 64)
    assert a.values.tobytes() == b.values.tobytes()


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
    vectors = embed_batch(["nurse on call", ""], backend)
    assert vectors[0].norm_flag == "unit"
    assert vectors[1].norm_flag == "zero"


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


def test_remote_embedder_handshake(embed_server):
    backend = RemoteEmbedder(embed_server, dim=4)
    vectors = backend.embed_many(["abc", "defgh"])
    assert all(v.norm_flag == "unit" for v in vectors)
    assert all(abs(np.linalg.norm(v.values) - 1.0) < 1e-4 for v in vectors)


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


def test_remote_embedder_rate_limit_waits_retry_after(no_backoff):
    session = FakeSession(
        FakeResponse(429, "", {"Retry-After": "3"}),
        answer({"dim": 4, "vectors": [[3.0, 4.0, 0.0, 0.0]]}),
    )
    backend = RemoteEmbedder("http://embed.invalid/embed", dim=4, session=session)
    [vector] = backend.embed_many(["abc"])
    assert vector.values.tolist() == pytest.approx([0.6, 0.8, 0.0, 0.0])
    assert no_backoff and no_backoff[0] >= 3.0
