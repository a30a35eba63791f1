from __future__ import annotations

import json
import random
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

import postdedup.batching
import postdedup.translate
from postdedup.batching import RetryPolicy, map_batches
from postdedup.config import config_from_dict
from postdedup.errors import (
    BackendUnavailable,
    ConfigError,
    DataError,
    RateLimited,
)
from postdedup.pipeline import make_translator
from postdedup.translate import (
    DictionaryTranslator,
    IdentityTranslator,
    RemoteTranslator,
    TranslationCache,
    text_key,
    translate_batch,
)

from conftest import FakeResponse, FakeSession, answer

FAST_RETRY = RetryPolicy(attempts=5, backoff_base=0.001, backoff_cap=0.002)


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
    assert translate_batch(["hund"], [None], backend) == ["hund"]


def test_dictionary_backend_word_map():
    backend = DictionaryTranslator({"hund": "dog"})
    assert translate_batch(["hund kennel"], [None], backend) == ["dog kennel"]


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


def translate_loop(mapping: dict[str, str], text: str) -> str:
    """Oracle: at each token, try every span up to the longest key, longest first."""
    lowered = {k.lower(): v for k, v in mapping.items()}
    max_key_tokens = max((len(k.split()) for k in lowered), default=1)
    tokens = text.split()
    out: list[str] = []
    i = 0
    while i < len(tokens):
        for span in range(min(max_key_tokens, len(tokens) - i), 0, -1):
            key = " ".join(tokens[i : i + span]).lower()
            if key in lowered:
                out.append(lowered[key])
                i += span
                break
        else:
            out.append(tokens[i])
            i += 1
    return " ".join(out)


# Letters whose lowercase depends on context (final sigma), changes length
# (İ), or is a titlecase or uppercase-only form, and a case-ignorable quote.
_LETTERS = "aAbBΣσςİiẞßǅǆǈ'."
_KEY_SEPARATORS = [" ", " ", " ", "  ", "\t", " \n"]
_TEXT_SEPARATORS = [" ", "  ", "\t", "\n", "\u00a0", "\u3000"]


@st.composite
def dictionary_case(draw):
    """A mapping and texts over one small vocabulary, so keys overlap and match."""
    vocab = draw(st.lists(st.text(alphabet=_LETTERS, min_size=1, max_size=3), min_size=1, max_size=4))
    word = st.sampled_from(vocab).flatmap(
        lambda w: st.sampled_from([w, w.lower(), w.upper(), w.title(), w.casefold()])
    )

    def joined(separators, max_words):
        parts = draw(st.lists(word, min_size=1, max_size=max_words))
        out = parts[0]
        for part in parts[1:]:
            out += draw(st.sampled_from(separators)) + part
        edges = st.sampled_from(["", "", "", " ", "\t"])
        return draw(edges) + out + draw(edges)

    mapping = {joined(_KEY_SEPARATORS, 3): draw(st.text(max_size=3)) for _ in range(draw(st.integers(0, 8)))}
    texts = [joined(_TEXT_SEPARATORS, 12) for _ in range(draw(st.integers(0, 4)))]
    return mapping, texts


@settings(max_examples=500, deadline=None)
@given(dictionary_case())
def test_dictionary_equals_span_loop(case):
    mapping, texts = case
    backend = DictionaryTranslator(mapping)
    assert backend.translate(texts, None, "en") == [translate_loop(mapping, t) for t in texts]


def test_dictionary_overlapping_and_irregular_keys():
    mapping = {
        "a b": "AB", "b c": "BC", "a b c": "ABC", "c": "C",
        "x  y": "never", "x\ty": "never", " x": "never", "y ": "never",
    }
    backend = DictionaryTranslator(mapping)
    texts = ["a b b c a b c c x y", "ΑΣ b\tc", "x  y"]
    assert backend.translate(texts, None, "en") == [translate_loop(mapping, t) for t in texts]
    assert backend.translate(texts, None, "en")[0] == "AB BC ABC C x y"


def test_lowercasing_a_text_splits_like_lowercasing_each_token():
    # DictionaryTranslator splits text.lower() where it splits text. That
    # holds when a character lowercases to whitespace iff it is whitespace,
    # whitespace lowercases to itself, and whitespace ends the context of
    # final sigma on both sides.
    spaces = []
    for code_point in range(0x110000):
        ch = chr(code_point)
        lower = ch.lower()
        assert any(c.isspace() for c in lower) == ch.isspace(), hex(code_point)
        if ch.isspace():
            assert lower == ch, hex(code_point)
            spaces.append(ch)
    assert len(spaces) > 20
    for w in spaces:
        for text in ("A\u03a3" + w + "B", "A" + w + "\u03a3"):
            assert text.lower().split() == [t.lower() for t in text.split()], hex(ord(w))


def test_in_process_backends_start_no_thread_pool(monkeypatch):
    pools = []

    class SpyPool(postdedup.batching.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(postdedup.batching, "ThreadPoolExecutor", SpyPool)
    texts = [f"hund {i}" for i in range(50)]
    sources = [("de", "es")[i % 2] for i in range(50)]
    for backend in (IdentityTranslator(), DictionaryTranslator({"hund": "dog"})):
        translate_batch(texts, sources, backend, batch_size=4, max_in_flight=4)
    assert pools == []
    translate_batch(texts, sources, CountingBackend(), batch_size=4, max_in_flight=4)
    assert len(pools) == 2  # a backend of any other kind: one pool per language pair


def test_dictionary_backend_is_called_once_per_language_pair():
    calls = []

    class Spy(DictionaryTranslator):
        def translate(self, texts, source, target):
            calls.append((source, len(texts)))
            return super().translate(texts, source, target)

    texts = [f"hund {i}" for i in range(50)]
    sources = [("de", "es")[i % 2] for i in range(50)]
    out = translate_batch(texts, sources, Spy({"hund": "dog"}), batch_size=4)
    assert out == [f"dog {i}" for i in range(50)]
    assert calls == [("de", 25), ("es", 25)]


def test_dictionary_from_file(tmp_path):
    path = tmp_path / "dict.json"
    path.write_text(json.dumps({"hund": "dog"}), encoding="utf-8")
    backend = DictionaryTranslator.from_file(path)
    assert backend.translate(["hund"], None, "en") == ["dog"]
    with pytest.raises(ConfigError):
        DictionaryTranslator.from_file(tmp_path / "missing.json")


def test_make_translator_kinds(tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"hund": "dog"}', encoding="utf-8")
    dictionary = {"kind": "dictionary", "dictionary_path": str(path)}
    remote = {"kind": "remote", "endpoint": "http://127.0.0.1:9"}
    for raw, kind in (
        ({}, IdentityTranslator),
        ({"translate": dictionary}, DictionaryTranslator),
        ({"translate": remote}, RemoteTranslator),
        ({"mode": "multilingual", "translate": dictionary}, IdentityTranslator),
    ):
        assert type(make_translator(config_from_dict(raw))) is kind, raw
    translator = make_translator(config_from_dict({"translate": dictionary}))
    assert translator.translate(["hund"], None, "en") == ["dog"]


def test_remote_unreachable_endpoint_fails_on_first_use():
    backend = RemoteTranslator("http://127.0.0.1:9/translate")
    with pytest.raises(BackendUnavailable):
        backend.translate(["hello"], None, "en")


def test_empty_text_makes_no_backend_or_cache_call():
    class SpyCache(TranslationCache):
        def __init__(self):
            super().__init__()
            self.looked_up = []

        def get(self, fingerprint, target, backend_name):
            self.looked_up.append(fingerprint)
            return super().get(fingerprint, target, backend_name)

    backend, cache = CountingBackend(), SpyCache()
    cache.put([(text_key(""), "en", backend.name, "a cached text for the empty one")])
    texts = ["", "hallo", ""]
    assert translate_batch(texts, [None, None, "el"], backend, cache=cache) == ["", "hallo", ""]
    assert cache.looked_up == [text_key("hallo")]
    assert backend.batches == [["hallo"]]
    assert len(cache) == 2  # "hallo" alone was added
    backend = CountingBackend()
    assert translate_batch([""], ["el"], backend, cache=cache) == [""]
    assert backend.calls == 0 and cache.looked_up == [text_key("hallo")]


def test_a_call_without_a_cache_hashes_no_text(monkeypatch):
    # Equal texts of one call are found equal by the text itself; the key is
    # made only for the cache.
    def refuse(text):
        raise AssertionError(f"hashed {text!r}")

    monkeypatch.setattr(postdedup.translate, "text_key", refuse)
    backend = CountingBackend()
    out = translate_batch(["hallo", "Hallo", "hallo", ""], [None, None, "de", None], backend)
    assert out == ["hallo", "Hallo", "hallo", ""]
    assert backend.batches == [["hallo", "Hallo"]]


def test_cache_second_submission_is_a_hit():
    backend = CountingBackend()
    cache = TranslationCache()
    first = translate_batch(["hallo"], [None], backend, cache=cache)
    second = translate_batch(["hallo"], [None], backend, cache=cache)
    assert first == second == ["hallo"]
    assert backend.calls == 1


def test_duplicate_fingerprints_within_one_call_translated_once():
    backend = CountingBackend()
    out = translate_batch(
        ["hallo", "hallo"],
        [None, None],
        backend,
        cache=TranslationCache(),
        batch_size=1,
    )
    assert out == ["hallo", "hallo"]
    assert backend.calls == 1


def test_warm_cache_means_zero_backend_calls(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    texts = [f"text {i}" for i in range(10)]
    backend = CountingBackend()
    first = translate_batch(texts, [None] * 10, backend, cache=TranslationCache(cache_path))
    assert backend.calls > 0

    cold_backend = CountingBackend()
    second = translate_batch(
        texts, [None] * 10, cold_backend, cache=TranslationCache(cache_path)
    )
    assert cold_backend.calls == 0
    assert second == first


def test_cache_keyed_by_backend_name(tmp_path):
    cache = TranslationCache(tmp_path / "cache.jsonl")
    cache.put([("fp", "en", "dictionary", "dog")])
    assert cache.get("fp", "en", "dictionary") == "dog"
    assert cache.get("fp", "en", "identity") is None
    assert cache.get("fp", "de", "dictionary") is None


def test_cache_drops_torn_tail_and_appends_cleanly(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    cache = TranslationCache(cache_path)
    cache.put([("fp1", "en", "dictionary", "dog")])
    cache.put([("fp2", "en", "dictionary", "cat")])
    intact = cache_path.read_bytes()
    cache_path.write_bytes(intact + b'{"fingerprint": "fp3", "tar')  # crash mid-append

    reloaded = TranslationCache(cache_path)
    assert len(reloaded) == 2
    assert cache_path.read_bytes() == intact
    reloaded.put([("fp3", "en", "dictionary", "cow")])
    again = TranslationCache(cache_path)
    assert [again.get(fp, "en", "dictionary") for fp in ("fp1", "fp2", "fp3")] == [
        "dog", "cat", "cow",
    ]


def test_cache_appends_once_per_language_pair(tmp_path, monkeypatch):
    cache_path = tmp_path / "cache.jsonl"
    cache = TranslationCache(cache_path)  # opens the file once itself, before any put
    appends = []
    real_open = open

    def spy_open(file, mode="r", *args, **kwargs):
        if "a" in mode:
            appends.append(file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(postdedup.translate, "open", spy_open, raising=False)
    texts = [f"text {i}" for i in range(30)]
    sources = [("de", "es")[i % 2] for i in range(30)]
    translate_batch(texts, sources, CountingBackend(), cache=cache, batch_size=4)
    assert appends == [cache_path, cache_path]
    assert len(cache_path.read_text(encoding="utf-8").splitlines()) == 30


def test_batched_append_cut_off_mid_line_loses_only_the_torn_tail(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    TranslationCache(cache_path).put([("fp0", "en", "dictionary", "zero")])
    TranslationCache(cache_path).put([(f"fp{i}", "en", "dictionary", f"t{i}") for i in (1, 2, 3)])
    data = cache_path.read_bytes()
    last = data.splitlines(keepends=True)[-1]
    intact = data[: len(data) - len(last)]
    cache_path.write_bytes(intact + last[: len(last) // 2])  # crash mid-write of the batch

    reloaded = TranslationCache(cache_path)
    assert [reloaded.get(f"fp{i}", "en", "dictionary") for i in range(4)] == [
        "zero", "t1", "t2", None,
    ]
    assert cache_path.read_bytes() == intact


def test_cache_malformed_inner_line_raises_data_error(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    TranslationCache(cache_path).put([("fp1", "en", "dictionary", "dog")])
    good = cache_path.read_bytes()
    lone = good.replace(b"dog", b"d\\ud800")  # a lone surrogate escape
    for bad in (b"{not json\n", b'{"fingerprint": "fp2"}\n', b"[1, 2]\n", lone):
        cache_path.write_bytes(bad + good)
        with pytest.raises(DataError, match="cache.jsonl:1"):
            TranslationCache(cache_path)
        assert cache_path.read_bytes() == bad + good  # never rewritten


@pytest.mark.parametrize("field", ["fingerprint", "target", "backend", "translated_text"])
def test_cache_record_with_a_non_string_field_raises_data_error(tmp_path, field):
    record = dict(fingerprint="fp1", target="en", backend="dictionary", translated_text="dog")
    cache_path = tmp_path / "cache.jsonl"
    for value in (5, None, ["dog"]):
        cache_path.write_text(json.dumps({**record, field: value}) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="cache.jsonl:1"):
            TranslationCache(cache_path)


def test_order_preserved_under_concurrency():
    class JitterBackend:
        name = "jitter"

        def __init__(self):
            self._rng = random.Random(7)

        def translate(self, texts, source, target):
            time.sleep(self._rng.uniform(0, 0.01))
            return [t.upper() for t in texts]

    texts = [f"text {i}" for i in range(40)]
    out = translate_batch(texts, [None] * 40, JitterBackend(), batch_size=3, max_in_flight=8)
    assert out == [f"TEXT {i}" for i in range(40)]


def test_bounded_in_flight_window():
    backend = CountingBackend(latency=0.02)
    texts = [f"text {i}" for i in range(24)]
    translate_batch(texts, [None] * 24, backend, batch_size=2, max_in_flight=3)
    assert backend.max_in_flight <= 3
    assert backend.calls == 12


def test_retry_recovers_from_transient_failures():
    backend = CountingBackend(fail_first=2)
    out = translate_batch(
        ["hello"], [None], backend, batch_size=1, max_in_flight=1, retry=FAST_RETRY
    )
    assert out == ["hello"]
    assert backend.calls == 3


def test_retries_exhausted_raises_backend_unavailable():
    backend = CountingBackend(fail_first=10**6)
    with pytest.raises(BackendUnavailable):
        translate_batch(["hello"], [None], backend, retry=FAST_RETRY)
    assert backend.calls == FAST_RETRY.attempts


def test_map_batches_validates_result_length():
    calls = []

    def short(batch):
        calls.append(batch)
        return batch[:-1]

    with pytest.raises(BackendUnavailable):
        map_batches([1, 2, 3], short, batch_size=3, max_in_flight=1, retry=FAST_RETRY)
    assert len(calls) == FAST_RETRY.attempts


def test_map_batches_retries_a_batch_that_came_back_short():
    # A wrong result count is retried like any other backend failure, as the
    # remote embedder's malformed bodies are.
    calls = []

    def short_once(batch):
        calls.append(batch)
        return batch[:-1] if len(calls) == 1 else [x * 10 for x in batch]

    out = map_batches([1, 2, 3], short_once, batch_size=3, max_in_flight=1, retry=FAST_RETRY)
    assert out == [10, 20, 30]
    assert len(calls) == 2


STORM_RETRY = RetryPolicy(attempts=4, backoff_base=1.0, backoff_cap=8.0)


def test_map_batches_429_storm_makes_exactly_the_bounded_attempts(monkeypatch):
    sleeps, calls = [], []
    monkeypatch.setattr(postdedup.batching.time, "sleep", sleeps.append)

    def storm(batch):
        calls.append(batch)
        raise RateLimited(retry_after=7.5)

    with pytest.raises(RateLimited):
        map_batches([1, 2], storm, batch_size=2, max_in_flight=1, retry=STORM_RETRY)
    assert len(calls) == STORM_RETRY.attempts
    assert len(sleeps) == STORM_RETRY.attempts - 1  # no sleep after the last attempt
    assert all(seconds >= 7.5 for seconds in sleeps)


def test_map_batches_429_storm_ending_before_the_bound_keeps_submission_order(monkeypatch):
    calls, sleeps, lock = Counter(), [], threading.Lock()
    told = threading.local()  # the Retry-After this thread's batch was last given
    monkeypatch.setattr(
        postdedup.batching.time, "sleep", lambda seconds: sleeps.append((told.value, seconds))
    )

    def storm_then_answer(batch):
        # Each batch is rate limited on all but its last allowed attempt,
        # and later batches are told to wait longer, up to the backoff cap.
        with lock:
            calls[batch[0]] += 1
            limited = calls[batch[0]] < STORM_RETRY.attempts
        if limited:
            told.value = 2.0 + batch[0] / 2
            raise RateLimited(retry_after=told.value)
        return [x * 10 for x in batch]

    items = list(range(10))
    out = map_batches(items, storm_then_answer, batch_size=2, max_in_flight=3, retry=STORM_RETRY)
    assert out == [x * 10 for x in items]
    assert calls == {first: STORM_RETRY.attempts for first in range(0, 10, 2)}
    assert len(sleeps) == 5 * (STORM_RETRY.attempts - 1)
    assert all(seconds >= retry_after for retry_after, seconds in sleeps)


def test_grouped_by_language_pair():
    backend = CountingBackend()
    out = translate_batch(["eins", "uno", "zwei"], ["de", "es", "de"], backend, batch_size=32)
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
    server.server_close()


def test_remote_backend_round_trip(translate_server, monkeypatch):
    monkeypatch.setenv("DEDUP_TRANSLATE_API_KEY", "sekret")
    backend = RemoteTranslator(translate_server)
    out = translate_batch(["hallo", "welt"], [None, None], backend, batch_size=2)
    assert out == ["HALLO", "WELT"]
    assert _Handler.seen_auth == ["Bearer sekret"]


def test_remote_backend_retries_rate_limit(translate_server):
    _Handler.behavior = "rate_limit_once"
    backend = RemoteTranslator(translate_server)
    out = translate_batch(["hallo"], [None], backend, retry=FAST_RETRY)
    assert out == ["HALLO"]


def test_remote_backend_server_error_surfaces(translate_server):
    _Handler.behavior = "error"
    backend = RemoteTranslator(translate_server)
    _Handler.behavior = "error"
    with pytest.raises(BackendUnavailable):
        backend.translate(["x"], None, "en")


def test_remote_malformed_endpoint_rejected():
    with pytest.raises(ConfigError):
        RemoteTranslator("not a url")


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
    assert translate_batch(["hallo"], [None], backend, retry=FAST_RETRY) == ["HALLO"]
    assert len(session.calls) == 2


def test_remote_rate_limit_reads_retry_after_seconds_only():
    for header, expected in (
        ("7", 7.0),
        ("0", 0.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", None),
        ("inf", None),
        ("-inf", None),
        ("nan", None),
        ("-1", None),
    ):
        session = FakeSession(FakeResponse(429, "", {"Retry-After": header}))
        backend = RemoteTranslator("http://translate.invalid/t", session=session)
        with pytest.raises(RateLimited) as info:
            backend.translate(["hallo"], None, "en")
        assert info.value.retry_after == expected


def test_retry_after_inf_is_ignored_and_the_call_retried():
    # time.sleep(inf) raises OverflowError, which no exit code maps.
    session = FakeSession(
        FakeResponse(429, "", {"Retry-After": "inf"}), answer({"translations": ["HALLO"]})
    )
    backend = RemoteTranslator("http://translate.invalid/t", session=session)
    assert translate_batch(["hallo"], [None], backend, retry=FAST_RETRY) == ["HALLO"]
    assert len(session.calls) == 2


@pytest.mark.parametrize("header", ["1e10", "3600"])
def test_retry_after_past_the_backoff_cap_ends_the_retries_unslept(monkeypatch, header):
    # 1e10 s overflows time.sleep; 3600 s would stall the run for an hour.
    sleeps = []
    monkeypatch.setattr(postdedup.batching.time, "sleep", sleeps.append)
    session = FakeSession(
        FakeResponse(429, "", {"Retry-After": header}), answer({"translations": ["HALLO"]})
    )
    backend = RemoteTranslator("http://translate.invalid/t", session=session)
    with pytest.raises(RateLimited) as info:
        translate_batch(["hallo"], [None], backend)
    assert info.value.retry_after == float(header)
    assert sleeps == []
    assert len(session.calls) == 1


def test_retry_after_within_the_backoff_cap_is_slept_and_the_call_retried(monkeypatch):
    sleeps = []
    monkeypatch.setattr(postdedup.batching.time, "sleep", sleeps.append)
    session = FakeSession(
        FakeResponse(429, "", {"Retry-After": "2"}), answer({"translations": ["HALLO"]})
    )
    backend = RemoteTranslator("http://translate.invalid/t", session=session)
    assert translate_batch(["hallo"], [None], backend) == ["HALLO"]
    assert len(sleeps) == 1 and sleeps[0] >= 2.0
    assert len(session.calls) == 2
