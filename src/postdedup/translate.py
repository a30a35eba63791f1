"""Pluggable translation stage with caching and bounded-concurrency batching.

Backends implement a single `translate(texts, source, target)` call. The
identity and dictionary backends are deterministic and run offline; the
remote backend speaks a small JSON-over-HTTP protocol and authenticates
via the DEDUP_TRANSLATE_API_KEY environment variable.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence

from .batching import RetryPolicy, list_field, map_batches, post_json
from .errors import ConfigError, DataError, InvalidLanguage

_LANG_RE = re.compile(r"^[a-z]{2,3}$")


def validate_language(code: str) -> str:
    if not _LANG_RE.match(code or ""):
        raise InvalidLanguage(code)
    return code


@dataclass(frozen=True)
class TranslationRequest:
    fingerprint: str
    text: str
    source_language: Optional[str] = None
    target_language: str = "en"

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("translation request text must be non-empty")
        validate_language(self.target_language)


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
    unchanged.
    """

    name = "dictionary"

    def __init__(self, mapping: dict[str, str]) -> None:
        self._mapping = {k.lower(): v for k, v in mapping.items()}
        self._max_key_tokens = max((len(k.split()) for k in self._mapping), default=1)

    @classmethod
    def from_file(cls, path: str | Path) -> "DictionaryTranslator":
        try:
            mapping = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read dictionary file {path}: {err}") from err
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise ConfigError(f"dictionary file {path} must map strings to strings")
        return cls(mapping)

    def _translate_one(self, text: str) -> str:
        tokens = text.split()
        out: list[str] = []
        i = 0
        while i < len(tokens):
            for span in range(min(self._max_key_tokens, len(tokens) - i), 0, -1):
                key = " ".join(tokens[i : i + span]).lower()
                if key in self._mapping:
                    out.append(self._mapping[key])
                    i += span
                    break
            else:
                out.append(tokens[i])
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

        if not endpoint.startswith(("http://", "https://")):
            raise ConfigError(f"malformed endpoint {endpoint!r}")
        self.endpoint = endpoint
        self.timeout = timeout
        self._api_key = api_key if api_key is not None else os.environ.get("DEDUP_TRANSLATE_API_KEY")
        self._session = session or requests.Session()

    def translate(self, texts: Sequence[str], source: Optional[str], target: str) -> list[str]:
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


def make_backend(
    kind: str,
    *,
    path: str | Path | None = None,
    endpoint: str | None = None,
    api_key: str | None = None,
) -> Translator:
    """Construct a translator: identity, dictionary(path), or remote(endpoint)."""
    if kind == "identity":
        return IdentityTranslator()
    if kind == "dictionary":
        if path is None:
            raise ConfigError("dictionary backend needs a path")
        return DictionaryTranslator.from_file(path)
    if kind == "remote":
        if endpoint is None:
            raise ConfigError("remote backend needs an endpoint")
        return RemoteTranslator(endpoint, api_key=api_key)
    raise ConfigError(f"unknown translator kind {kind!r}")


class TranslationCache:
    """Append-only JSONL cache keyed by (fingerprint, target, backend).

    Re-runs must not re-bill an external API: hits are served from memory,
    new entries are appended under a lock, and the newest entry for a key
    wins when loading. A final line without its newline is an append cut
    off by a crash: loading drops it and truncates the file back to the
    last newline. Any other malformed line raises DataError.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, str, str], str] = {}
        self._lock = threading.Lock()
        if self._path is not None and self._path.exists():
            self._load(self._path)

    def _load(self, path: Path) -> None:
        data = path.read_bytes()
        complete = data.rfind(b"\n") + 1
        for line_no, line in enumerate(data[:complete].split(b"\n"), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                key = (record["fingerprint"], record["target"], record["backend"])
                self._entries[key] = record["translated_text"]
            except (ValueError, KeyError, TypeError) as err:
                raise DataError(f"malformed translation cache record at {path}:{line_no}") from err
        if complete < len(data):
            os.truncate(path, complete)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str, target: str, backend_name: str) -> Optional[str]:
        return self._entries.get((fingerprint, target, backend_name))

    def put(self, fingerprint: str, target: str, backend_name: str, text: str) -> None:
        key = (fingerprint, target, backend_name)
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = text
            if self._path is not None:
                record = {
                    "fingerprint": fingerprint,
                    "target": target,
                    "backend": backend_name,
                    "translated_text": text,
                    "timestamp": time.time(),
                }
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def translate_batch(
    requests: Sequence[TranslationRequest],
    backend: Translator,
    cache: TranslationCache | None = None,
    max_in_flight: int = 4,
    batch_size: int = 32,
    retry: RetryPolicy | None = None,
) -> list[str]:
    """Translate requests, preserving order; cache hits bypass the backend.

    Misses are grouped by (source, target) language pair, cut into batches
    of `batch_size`, and dispatched with at most `max_in_flight` backend
    calls outstanding. Failed batches are retried with exponential backoff.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    results: list[Optional[str]] = [None] * len(requests)
    # Requests sharing (fingerprint, target) are translated once, whether the
    # earlier copy came from the cache or from this same call.
    pending: dict[tuple[str, str], list[int]] = {}
    for i, request in enumerate(requests):
        validate_language(request.target_language)
        cached = (
            cache.get(request.fingerprint, request.target_language, backend.name)
            if cache is not None
            else None
        )
        if cached is not None:
            results[i] = cached
        else:
            pending.setdefault((request.fingerprint, request.target_language), []).append(i)

    by_language_pair: dict[tuple[Optional[str], str], list[int]] = {}
    for indices in pending.values():
        first = indices[0]
        pair = (requests[first].source_language, requests[first].target_language)
        by_language_pair.setdefault(pair, []).append(first)

    for (source, target), firsts in by_language_pair.items():
        translated = map_batches(
            [requests[i].text for i in firsts],
            lambda texts, s=source, t=target: backend.translate(texts, s, t),
            batch_size=batch_size,
            max_in_flight=max_in_flight,
            retry=retry,
        )
        for first, text in zip(firsts, translated):
            request = requests[first]
            for i in pending[(request.fingerprint, request.target_language)]:
                results[i] = text
            if cache is not None:
                cache.put(request.fingerprint, request.target_language, backend.name, text)

    return [r if r is not None else "" for r in results]


__all__ = [
    "TranslationRequest",
    "Translator",
    "IdentityTranslator",
    "DictionaryTranslator",
    "RemoteTranslator",
    "make_backend",
    "TranslationCache",
    "translate_batch",
    "validate_language",
]
