from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from postdedup.batching import RetryPolicy, map_batches
from postdedup.errors import (
    BackendUnavailable,
    ConfigError,
    DataError,
    InvalidLanguage,
    RateLimited,
)
from postdedup.translate import (
    DictionaryTranslator,
    IdentityTranslator,
    RemoteTranslator,
    TranslationCache,
    TranslationRequest,
    make_backend,
    translate_batch,
)

from conftest import FakeResponse, FakeSession, answer

FAST_RETRY = RetryPolicy(attempts=5, backoff_base=0.001, backoff_cap=0.002)


def req(text: str, fingerprint: str | None = None, source: str | None = None) -> TranslationRequest:
    return TranslationRequest(
        fingerprint=fingerprint or f"fp-{text}", text=text, source_language=source
    )


class CountingBackend:
    """Identity backend that records calls, concurrency, and batch contents."""

    name = "counting"

    def __init__(self, latency: float = 0.0, fail_first: int = 0):
        self.calls = 0
        self.batches: list[list[str]] = []
        self.latency = latency
        self.fail_first = fail_first
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def translate(self, texts, source, target):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.batches.append(list(texts))
            if self.calls <= self.fail_first:
                self.in_flight -= 1
                raise BackendUnavailable("injected failure")
        if self.latency:
            time.sleep(self.latency)
        with self._lock:
            self.in_flight -= 1
        return list(texts)


def test_identity_backend():
    backend = IdentityTranslator()
    assert translate_batch([req("hund")], backend) == ["hund"]


def test_dictionary_backend_word_map():
    backend = DictionaryTranslator({"hund": "dog"})
    assert translate_batch([req("hund kennel")], backend) == ["dog kennel"]


def test_dictionary_empty_map_passthrough():
    backend = DictionaryTranslator({})
    assert backend.translate(["unknown words pass"], None, "en") == ["unknown words pass"]


def test_dictionary_longest_match_first():
    backend = DictionaryTranslator({"data engineer": "datentechniker", "data": "daten"})
    assert backend.translate(["senior data engineer data"], None, "en") == [
        "senior datentechniker daten"
    ]


def test_dictionary_lookup_case_insensitive():
    backend = DictionaryTranslator({"Hund": "dog"})
    assert backend.translate(["hund HUND"], None, "en") == ["dog dog"]


def test_dictionary_from_file(tmp_path):
    path = tmp_path / "dict.json"
    path.write_text(json.dumps({"hund": "dog"}), encoding="utf-8")
    backend = DictionaryTranslator.from_file(path)
    assert backend.translate(["hund"], None, "en") == ["dog"]
    with pytest.raises(ConfigError):
        DictionaryTranslator.from_file(tmp_path / "missing.json")


def test_make_backend_kinds(tmp_path):
    assert make_backend("identity").name == "identity"
    path = tmp_path / "d.json"
    path.write_text("{}", encoding="utf-8")
    assert make_backend("dictionary", path=path).name == "dictionary"
    assert make_backend("remote", endpoint="http://127.0.0.1:9").name == "remote"
    with pytest.raises(ConfigError):
        make_backend("dictionary")
    with pytest.raises(ConfigError):
        make_backend("babelfish")


def test_remote_unreachable_endpoint_fails_on_first_use():
    backend = make_backend("remote", endpoint="http://127.0.0.1:9/translate")
    with pytest.raises(BackendUnavailable):
        backend.translate(["hello"], None, "en")


def test_invalid_language_rejected():
    with pytest.raises(InvalidLanguage):
        TranslationRequest(fingerprint="f", text="text", target_language="ENGLISH")
    with pytest.raises(InvalidLanguage):
        TranslationRequest(fingerprint="f", text="text", target_language="")


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        TranslationRequest(fingerprint="f", text="")


def test_cache_second_submission_is_a_hit():
    backend = CountingBackend()
    cache = TranslationCache()
    first = translate_batch([req("hallo", fingerprint="same")], backend, cache=cache)
    second = translate_batch([req("hallo", fingerprint="same")], backend, cache=cache)
    assert first == second == ["hallo"]
    assert backend.calls == 1


def test_duplicate_fingerprints_within_one_call_translated_once():
    backend = CountingBackend()
    out = translate_batch(
        [req("hallo", fingerprint="same"), req("hallo", fingerprint="same")],
        backend,
        cache=TranslationCache(),
        batch_size=1,
    )
    assert out == ["hallo", "hallo"]
    assert backend.calls == 1


def test_warm_cache_means_zero_backend_calls(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    requests = [req(f"text {i}") for i in range(10)]
    backend = CountingBackend()
    first = translate_batch(requests, backend, cache=TranslationCache(cache_path))
    assert backend.calls > 0

    cold_backend = CountingBackend()
    second = translate_batch(requests, cold_backend, cache=TranslationCache(cache_path))
    assert cold_backend.calls == 0
    assert second == first


def test_cache_keyed_by_backend_name(tmp_path):
    cache = TranslationCache(tmp_path / "cache.jsonl")
    cache.put("fp", "en", "dictionary", "dog")
    assert cache.get("fp", "en", "dictionary") == "dog"
    assert cache.get("fp", "en", "identity") is None
    assert cache.get("fp", "de", "dictionary") is None


def test_cache_drops_torn_tail_and_appends_cleanly(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    cache = TranslationCache(cache_path)
    cache.put("fp1", "en", "dictionary", "dog")
    cache.put("fp2", "en", "dictionary", "cat")
    intact = cache_path.read_bytes()
    cache_path.write_bytes(intact + b'{"fingerprint": "fp3", "tar')  # crash mid-append

    reloaded = TranslationCache(cache_path)
    assert len(reloaded) == 2
    assert cache_path.read_bytes() == intact
    reloaded.put("fp3", "en", "dictionary", "cow")
    again = TranslationCache(cache_path)
    assert [again.get(fp, "en", "dictionary") for fp in ("fp1", "fp2", "fp3")] == [
        "dog", "cat", "cow",
    ]


def test_cache_malformed_inner_line_raises_data_error(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    TranslationCache(cache_path).put("fp1", "en", "dictionary", "dog")
    good = cache_path.read_bytes()
    for bad in (b"{not json\n", b'{"fingerprint": "fp2"}\n', b"[1, 2]\n"):
        cache_path.write_bytes(bad + good)
        with pytest.raises(DataError):
            TranslationCache(cache_path)
        assert cache_path.read_bytes() == bad + good  # never rewritten


def test_order_preserved_under_concurrency():
    class JitterBackend:
        name = "jitter"

        def __init__(self):
            self._rng = random.Random(7)

        def translate(self, texts, source, target):
            time.sleep(self._rng.uniform(0, 0.01))
            return [t.upper() for t in texts]

    requests = [req(f"text {i}") for i in range(40)]
    out = translate_batch(requests, JitterBackend(), batch_size=3, max_in_flight=8)
    assert out == [f"TEXT {i}" for i in range(40)]


def test_bounded_in_flight_window():
    backend = CountingBackend(latency=0.02)
    requests = [req(f"text {i}") for i in range(24)]
    translate_batch(requests, backend, batch_size=2, max_in_flight=3)
    assert backend.max_in_flight <= 3
    assert backend.calls == 12


def test_retry_recovers_from_transient_failures():
    backend = CountingBackend(fail_first=2)
    out = translate_batch(
        [req("hello")], backend, batch_size=1, max_in_flight=1, retry=FAST_RETRY
    )
    assert out == ["hello"]
    assert backend.calls == 3


def test_retries_exhausted_raises_backend_unavailable():
    backend = CountingBackend(fail_first=10**6)
    with pytest.raises(BackendUnavailable):
        translate_batch([req("hello")], backend, retry=FAST_RETRY)
    assert backend.calls == FAST_RETRY.attempts


def test_map_batches_validates_result_length():
    with pytest.raises(BackendUnavailable):
        map_batches(
            [1, 2, 3], lambda batch: batch[:-1], batch_size=3, max_in_flight=1, retry=FAST_RETRY
        )


def test_grouped_by_language_pair():
    backend = CountingBackend()
    requests = [
        req("eins", source="de"),
        req("uno", source="es"),
        req("zwei", source="de"),
    ]
    out = translate_batch(requests, backend, batch_size=32)
    assert out == ["eins", "uno", "zwei"]
    assert sorted(len(b) for b in backend.batches) == [1, 2]


# -- remote backend against a live local server --------------------------------

class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    seen_auth: list[str | None] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen_auth.append(self.headers.get("Authorization"))
        if type(self).behavior == "rate_limit_once":
            type(self).behavior = "ok"
            self.send_response(429)
            self.send_header("Retry-After", "0")
            self.end_headers()
            return
        if type(self).behavior == "error":
            self.send_response(500)
            self.end_headers()
            return
        payload = {"translations": [t.upper() for t in body["texts"]]}
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def translate_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behavior = "ok"
    _Handler.seen_auth = []
    yield f"http://127.0.0.1:{server.server_port}/translate"
    server.shutdown()


def test_remote_backend_round_trip(translate_server, monkeypatch):
    monkeypatch.setenv("DEDUP_TRANSLATE_API_KEY", "sekret")
    backend = make_backend("remote", endpoint=translate_server)
    out = translate_batch([req("hallo"), req("welt")], backend, batch_size=2)
    assert out == ["HALLO", "WELT"]
    assert _Handler.seen_auth == ["Bearer sekret"]


def test_remote_backend_retries_rate_limit(translate_server):
    _Handler.behavior = "rate_limit_once"
    backend = make_backend("remote", endpoint=translate_server)
    out = translate_batch([req("hallo")], backend, retry=FAST_RETRY)
    assert out == ["HALLO"]


def test_remote_backend_server_error_surfaces(translate_server):
    _Handler.behavior = "error"
    backend = make_backend("remote", endpoint=translate_server)
    _Handler.behavior = "error"
    with pytest.raises(BackendUnavailable):
        backend.translate(["x"], None, "en")


def test_remote_malformed_endpoint_rejected():
    with pytest.raises(ConfigError):
        make_backend("remote", endpoint="not a url")


# -- remote backend against a scripted offline session -------------------------

MALFORMED_TRANSLATIONS = [
    "<html>upstream busy</html>",  # not JSON
    json.dumps(["HALLO"]),  # JSON, but not an object
    json.dumps({"result": ["HALLO"]}),  # no translations key
    json.dumps({"translations": "HALLO"}),  # not a list
]


@pytest.mark.parametrize("body", MALFORMED_TRANSLATIONS)
def test_remote_malformed_body_is_backend_unavailable(body):
    session = FakeSession(FakeResponse(200, body))
    backend = RemoteTranslator("http://translate.invalid/t", session=session)
    with pytest.raises(BackendUnavailable):
        backend.translate(["hallo"], None, "en")


def test_remote_malformed_body_is_retried():
    session = FakeSession(FakeResponse(200, "not json"), answer({"translations": ["HALLO"]}))
    backend = RemoteTranslator("http://translate.invalid/t", session=session)
    assert translate_batch([req("hallo")], backend, retry=FAST_RETRY) == ["HALLO"]
    assert len(session.calls) == 2


def test_remote_rate_limit_reads_retry_after_seconds_only():
    for header, expected in (("7", 7.0), ("Wed, 21 Oct 2015 07:28:00 GMT", None)):
        session = FakeSession(FakeResponse(429, "", {"Retry-After": header}))
        backend = RemoteTranslator("http://translate.invalid/t", session=session)
        with pytest.raises(RateLimited) as info:
            backend.translate(["hallo"], None, "en")
        assert info.value.retry_after == expected
