"""Pluggable translation stage with caching and bounded-concurrency batching.

Backends implement a single `translate(texts, source, target)` call. The
identity and dictionary backends are deterministic and run offline; the
remote backend speaks a small JSON-over-HTTP protocol and authenticates
via the DEDUP_TRANSLATE_API_KEY environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Protocol, Sequence

from .corpus import parse_json, read_json
from .errors import ConfigError, DataError

if TYPE_CHECKING:  # batching is loaded only for a remote backend
    from .batching import RetryPolicy

# The two-step mode translates every text into English. The target is part
# of each cache key and of each remote request body.
TARGET_LANGUAGE = "en"


def text_key(text: str) -> str:
    """The cache key of a text: the sha256 of its exact UTF-8 bytes, as 64 hex characters.

    Case is part of the key, since translations keep it.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Translator(Protocol):
    name: str

    def translate(
        self, texts: Sequence[str], source: Optional[str], target: str
    ) -> list[str]: ...


class IdentityTranslator:
    """Returns inputs unchanged; the stand-in used by multilingual mode."""

    name = "identity"

    def translate(self, texts: Sequence[str], source: Optional[str], target: str) -> list[str]:
        return list(texts)


class DictionaryTranslator:
    """Deterministic word-map translator for offline pipelines and tests.

    Tokenization is whitespace-based; multiword keys are matched longest
    first; lookup is case-insensitive; unknown tokens pass through
    unchanged. Only the key lengths that start with a word are tried
    there, so a word that starts no multiword key costs one lookup in the
    mapping. The name, under which the cache keeps its translations, is
    "dictionary:" and 16 hex characters of the mapping's sha256, so a
    translation made with another mapping is never served.
    """

    def __init__(self, mapping: dict[str, str]) -> None:
        self._mapping = {k.lower(): v for k, v in mapping.items()}
        canonical = json.dumps(sorted(self._mapping.items()), ensure_ascii=False)
        self.name = "dictionary:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        # The first word of each multiword key, mapped to the lengths in words
        # of the keys it starts, longest first. Only a single-space-joined key
        # can equal a span of lowercased tokens, so no other key is indexed.
        starts: dict[str, set[int]] = {}
        for key in self._mapping:
            words = key.split(" ")
            if len(words) > 1 and all(words):
                starts.setdefault(words[0], set()).add(len(words))
        self._starts = {word: sorted(spans, reverse=True) for word, spans in starts.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> "DictionaryTranslator":
        mapping = read_json(path, ConfigError)
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise ConfigError(f"dictionary file {path} must map strings to strings")
        return cls(mapping)

    def _translate_one(self, text: str) -> str:
        # Lowercasing the text equals lowercasing it token by token: a
        # character lowercases to whitespace iff it is whitespace, and to
        # itself then, and whitespace ends the context of str.lower's only
        # context rule (final sigma).
        tokens = text.split()
        words = text.lower().split()
        mapping = self._mapping
        if self._starts.keys().isdisjoint(words):  # every word is looked up alone
            return " ".join(map(mapping.get, words, tokens))
        out: list[str] = []
        i = 0
        while i < len(words):
            for span in self._starts.get(words[i], ()):
                key = " ".join(words[i : i + span])
                if key in mapping:
                    out.append(mapping[key])
                    i += span
                    break
            else:
                out.append(mapping.get(words[i], tokens[i]))
                i += 1
        return " ".join(out)

    def translate(self, texts: Sequence[str], source: Optional[str], target: str) -> list[str]:
        return [self._translate_one(t) for t in texts]


class RemoteTranslator:
    """HTTP translation client.

    POST {"texts": [...], "target": "en", "source": optional} and expects
    {"translations": [...]}. HTTP 429 surfaces as RateLimited with any
    Retry-After hint; connection failures, other error statuses and bodies
    without a "translations" list surface as BackendUnavailable so the
    retry policy can engage.
    """

    name = "remote"

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        timeout: float = 30.0,
        session=None,
    ) -> None:
        import requests

        from .batching import check_endpoint

        self.endpoint = check_endpoint(endpoint)
        self.timeout = timeout
        self._api_key = api_key if api_key is not None else os.environ.get("DEDUP_TRANSLATE_API_KEY")
        self._session = session or requests.Session()

    def translate(self, texts: Sequence[str], source: Optional[str], target: str) -> list[str]:
        from .batching import list_field, post_json

        body: dict = {"texts": list(texts), "target": target}
        if source:
            body["source"] = source
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        payload = post_json(
            self._session,
            self.endpoint,
            body,
            timeout=self.timeout,
            what="translate",
            headers=headers,
        )
        return [str(t) for t in list_field(payload, "translations", "translate")]


_CACHE_FIELDS = ("fingerprint", "target", "backend", "translated_text")


class TranslationCache:
    """Append-only JSONL cache keyed by (fingerprint, target, backend).

    `translate_batch` keys a text by `text_key`, 64 hex characters:
    translations keep case, so a record keyed by a case-insensitive
    32-hex-character canonical fingerprint, which may hold another casing's
    translation, matches no text it translates.

    Re-runs must not re-bill an external API: hits are served from memory,
    new entries are appended under a lock, and the newest entry for a key
    wins when loading. The file is opened for appending (and made, if it is
    missing) when the cache is, so a path that cannot be written fails
    before any translation is paid for, not at the first `put`. A final
    line without its newline is an append cut off by a crash: loading drops
    it and truncates the file back to the last newline. Any other malformed
    line, including one whose key fields or translated text are not
    strings, raises DataError.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, str, str], str] = {}
        self._lock = threading.Lock()
        if self._path is not None:
            with open(self._path, "a+b") as fh:
                fh.seek(0)
                self._load(fh, self._path)

    def _load(self, fh, path: Path) -> None:
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        for line_no, line in enumerate(data[:complete].split(b"\n"), 1):
            if not line.strip():
                continue
            try:
                record = parse_json(line.decode("utf-8"))
                fields = [record[name] for name in _CACHE_FIELDS]
                if not all(isinstance(value, str) for value in fields):
                    raise TypeError("cache record fields must be strings")
                self._entries[tuple(fields[:3])] = fields[3]
            except (ValueError, KeyError, TypeError) as err:
                raise DataError(f"malformed translation cache record at {path}:{line_no}") from err
        if complete < len(data):
            fh.truncate(complete)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str, target: str, backend_name: str) -> Optional[str]:
        return self._entries.get((fingerprint, target, backend_name))

    def put(self, entries: Iterable[tuple[str, str, str, str]]) -> None:
        """Add (fingerprint, target, backend, translated text) entries.

        Keys already cached keep their text. The new entries are appended to
        the file in one write, fsynced before `put` returns.
        """
        lines = []
        timestamp = time.time()
        with self._lock:
            for fingerprint, target, backend_name, text in entries:
                key = (fingerprint, target, backend_name)
                if key in self._entries:
                    continue
                self._entries[key] = text
                if self._path is not None:
                    record = dict(zip(_CACHE_FIELDS, (*key, text)), timestamp=timestamp)
                    lines.append(json.dumps(record, ensure_ascii=False) + "\n")
            if lines:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write("".join(lines))
                    fh.flush()
                    os.fsync(fh.fileno())


# Deterministic and CPU-bound: they run inline, since threads would only
# contend for the GIL, and have no transient failure to retry.
_IN_PROCESS = (IdentityTranslator, DictionaryTranslator)


def translate_batch(
    texts: Sequence[str],
    sources: Sequence[Optional[str]],
    backend: Translator,
    cache: TranslationCache | None = None,
    max_in_flight: int = 4,
    batch_size: int = 32,
    retry: RetryPolicy | None = None,
) -> list[str]:
    """Translate texts, each from its source language, preserving order;
    cache hits bypass the backend.

    Equal texts of one call are translated once; the cache keys a text by
    `text_key(text)`, which is computed only for its `get` and `put`. An
    empty text translates to "" with no cache or backend call. Misses are
    grouped by source language (a repeated text by its first source). The in-process backends
    translate each group in one call in the calling thread; any other
    backend gets it cut into batches of `batch_size`, dispatched with at
    most `max_in_flight` calls outstanding, each failed batch retried with
    exponential backoff. Each group's translations reach the cache in one
    `put`.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    results = [""] * len(texts)
    # Indexes of the texts still to translate, by text.
    pending: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        if not text:
            continue
        if cache is not None:
            cached = cache.get(text_key(text), TARGET_LANGUAGE, backend.name)
            if cached is not None:
                results[i] = cached
                continue
        pending.setdefault(text, []).append(i)

    by_source: dict[Optional[str], list[str]] = {}
    for text, indices in pending.items():
        by_source.setdefault(sources[indices[0]], []).append(text)

    for source, group in by_source.items():
        if isinstance(backend, _IN_PROCESS):
            translated = backend.translate(group, source, TARGET_LANGUAGE)
        else:
            from .batching import map_batches

            translated = map_batches(
                group,
                lambda batch, s=source: backend.translate(batch, s, TARGET_LANGUAGE),
                batch_size=batch_size,
                max_in_flight=max_in_flight,
                retry=retry,
            )
        for text, translation in zip(group, translated):
            for i in pending[text]:
                results[i] = translation
        if cache is not None:
            cache.put(
                (text_key(text), TARGET_LANGUAGE, backend.name, translation)
                for text, translation in zip(group, translated)
            )

    return results


__all__ = [
    "text_key",
    "Translator",
    "IdentityTranslator",
    "DictionaryTranslator",
    "RemoteTranslator",
    "TranslationCache",
    "translate_batch",
]
