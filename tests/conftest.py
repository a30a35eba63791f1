from __future__ import annotations

import json
import random
from datetime import date

import numpy as np
import pytest

from postdedup.corpus import Posting
from postdedup.embed import EmbeddingVector


def make_posting(pid: str, title: str = "chef", description: str = "", **kwargs) -> Posting:
    defaults = dict(retrieval_date=date(2024, 3, 1), source="jobnet")
    defaults.update(kwargs)
    return Posting(id=pid, title=title, description=description, **defaults)


_FUZZ_TAGS = ["<b>", "</b>", "<br/>", "<div class='x'>", "<", ">", "<h1>"]
_FUZZ_ENTITIES = ["&amp;", "&#65;", "&notareference;", "&amp;amp;", "&lt;", "&#x26;"]
_FUZZ_CAMEL = ["endOfAd", "DataEngineer", "aB", "startUp"]
_FUZZ_PUNCT = ["!!!", "??", "..", ";;", "--", "?!?!"]
_FUZZ_UNICODE = ["café", "münchen", "ŠKODA", "ελληνικά", "日本語", "a™b", " ", "​"]
_FUZZ_POOLS = [_FUZZ_TAGS, _FUZZ_ENTITIES, _FUZZ_CAMEL, _FUZZ_PUNCT, _FUZZ_UNICODE]


def fuzz_noisy_string(rng: random.Random) -> str:
    """Random tag/entity/camel-case/punctuation/Unicode soup for clean() fuzzing."""
    parts = []
    for _ in range(rng.randint(1, 14)):
        parts.append(rng.choice(rng.choice(_FUZZ_POOLS)))
        if rng.random() < 0.5:
            parts.append(rng.choice([" ", "  ", "\t", "word", "x"]))
        if rng.random() < 0.15:
            parts.append(chr(rng.randint(32, 0x2FFF)))
    return "".join(parts)


def unit_vectors(n: int, dim: int, seed: int = 0) -> list[tuple[str, EmbeddingVector]]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return [
        (f"v{i:06d}", EmbeddingVector(X[i].astype(np.float32), "unit")) for i in range(n)
    ]


class FakeResponse:
    """A canned HTTP answer: status, headers, and a body that may or may not be JSON."""

    def __init__(self, status: int = 200, body: str = "", headers: dict | None = None):
        self.status_code = status
        self.headers = headers or {}
        self.text = body

    def json(self):
        return json.loads(self.text)  # ValueError on a non-JSON body, as requests raises


def answer(payload) -> FakeResponse:
    return FakeResponse(200, json.dumps(payload))


class FakeSession:
    """Offline stand-in for requests.Session: POSTs get the scripted answers
    in order, and the last one repeats."""

    def __init__(self, *answers: FakeResponse):
        self.answers = list(answers)
        self.calls: list = []

    def post(self, url, **kwargs):
        self.calls.append(kwargs.get("json"))
        return self.answers[min(len(self.calls), len(self.answers)) - 1]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
