from __future__ import annotations

import json
import math
import random
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from postdedup import pipeline
from postdedup.corpus import Posting, save_postings
from postdedup.dedup import CandidatePairs, DuplicateLabel
from postdedup.index import _one_list, _search
from postdedup.pipeline import (
    CANONICAL_FILE,
    EMBED_META_FILE,
    EMBEDDINGS_FILE,
    POSTINGS_FILE,
    TRANSLATED_FILE,
    stage_embed,
    stage_index,
    stage_normalize,
    stage_translate,
    write_canonical_file,
)

# What the stage commands `normalize` through `index` write to `--out`;
# `index` writes nothing.
STAGE_FILES = (CANONICAL_FILE, TRANSLATED_FILE, EMBED_META_FILE, EMBEDDINGS_FILE)


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


def write_stage_artifacts(postings, config, outdir: Path) -> Path:
    """`outdir` holding `postings` as postings.jsonl and what the stage
    commands write from it, `normalize` through `embed`; `index` is run
    too and writes nothing."""
    outdir.mkdir(parents=True, exist_ok=True)
    save_postings(postings, outdir / POSTINGS_FILE)
    for stage in (stage_normalize, stage_translate, stage_embed, stage_index):
        stage(config, outdir)
    return outdir


def spy_on_chain(monkeypatch) -> dict[str, list]:
    """Record each call of the chain's stage functions in `pipeline` as (args, result)."""
    calls = {}
    for name in ("_normalize", "_translate", "_embed", "build_index"):
        real, calls[name] = getattr(pipeline, name), []

        def recorded(*args, _real=real, _calls=calls[name], **kwargs):
            out = _real(*args, **kwargs)
            _calls.append((args, out))
            return out

        monkeypatch.setattr(pipeline, name, recorded)
    return calls


def write_chain_artifacts(calls: dict[str, list], outdir: Path) -> Path:
    """The values of one recorded chain run, written by the stage commands' writers."""
    (((postings, *_), canonicals),) = calls["_normalize"]
    ((_, texts),) = calls["_translate"]
    (((rep_ids, *_), (embedded, meta, _)),) = calls["_embed"]
    outdir.mkdir(parents=True, exist_ok=True)
    write_canonical_file([p.id for p in postings], canonicals, outdir / CANONICAL_FILE)
    pipeline._write_translated(rep_ids, texts, outdir)
    pipeline._write_embedded(embedded, meta, outdir)
    return outdir


def index_state(index) -> tuple:
    """Everything a search of `index` reads, as comparable bytes: kind, ids,
    rows, and for IVF its centroids, list bounds and nprobe."""
    state = (index.kind, index.ids, index.vectors.tobytes())
    if index.kind == "ivf":
        state += (index._cent32.tobytes(), index._bounds.tolist(), index.nprobe)
    return state


def unit_vectors(n: int, dim: int, seed: int = 0) -> tuple[list[str], np.ndarray]:
    """Ids v000000, v000001, ... and an (n, dim) float32 matrix of random unit rows."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return [f"v{i:06d}" for i in range(n)], X.astype(np.float32)


def candidate_pairs(triples) -> CandidatePairs:
    """`CandidatePairs` of (id_a, id_b, distance) triples with id_a < id_b, sorted by (id_a, id_b)."""
    triples = list(triples)
    if any(a >= b for a, b, _ in triples):
        raise ValueError("pair ids must satisfy id_a < id_b")
    names = sorted({a for a, _, _ in triples} | {b for _, b, _ in triples})
    rank = {name: i for i, name in enumerate(names)}
    lo = np.array([rank[a] for a, _, _ in triples], dtype=np.int64)
    hi = np.array([rank[b] for _, b, _ in triples], dtype=np.int64)
    distances = np.array([d for _, _, d in triples], dtype=np.float64)
    order = np.lexsort((hi, lo))
    return CandidatePairs(names, lo[order], hi[order], distances[order])


def pair_triples(pairs: CandidatePairs) -> list[tuple[str, str, float]]:
    """The (id_a, id_b, distance) of each pair, in the pairs' order."""
    names = pairs.names
    return [
        (names[lo], names[hi], d)
        for lo, hi, d in zip(pairs.lo.tolist(), pairs.hi.tolist(), pairs.distances.tolist())
    ]


def pair_keys(pairs: CandidatePairs) -> set[tuple[str, str]]:
    return {(a, b) for a, b, _ in pair_triples(pairs)}


class ResultRow(NamedTuple):
    """One labeled pair, as a row of `results.csv` holds it."""

    id_a: str
    id_b: str
    label: DuplicateLabel
    distance: float
    reason: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.id_a, self.id_b)


def result_rows(result) -> list[ResultRow]:
    """The labeled pairs of a `PipelineResult`, one row each, in its order."""
    labels = list(DuplicateLabel)
    return [
        ResultRow(id_a, id_b, labels[code], distance, result.reason_names[reason])
        for (id_a, id_b, distance), code, reason in zip(
            pair_triples(result.pairs), result.labels.tolist(), result.reasons.tolist()
        )
    ]


def join_hits(index, k: int, radius: float = math.inf, **kwargs) -> dict[str, list]:
    """Each stored row's hits from `self_join_arrays` under `radius`, as
    (id, distance) pairs, keyed by the row's id."""
    qi, rows, distances = index.self_join_arrays(k, radius, **kwargs)
    hits: dict[str, list] = {vid: [] for vid in index.ids}
    for q, r, d in zip(qi.tolist(), rows.tolist(), distances.tolist()):
        if d < radius:
            hits[index.ids[q]].append((index.ids[r], d))
    return hits


def probed_rows(index, vector) -> np.ndarray:
    """The rows a float32 `vector` probes in `index`: every row of a flat
    index; the rows of its `nprobe` nearest lists, ties by list number, of
    an IVF index."""
    every = np.arange(len(index))
    if index.kind == "flat":
        return every
    vector = np.asarray(vector, dtype=np.float32).astype(np.float64)
    cent = np.square(index._cent32.astype(np.float64) - vector).sum(axis=1)
    lists = sorted(range(index.nlist), key=lambda j: (cent[j], j))[: index.nprobe]
    bounds = index._bounds
    return np.concatenate([every[bounds[j] : bounds[j + 1]] for j in lists])


def search_hits(index, k: int, radius: float = math.inf) -> dict[str, list]:
    """The oracle of `join_hits`: per row, a brute force over the rows it probes.

    Each probed row's d² is the float64 expression over the float32
    values, and a Python sort by (d², id) gives the top k, of which the
    hits under `radius` are kept.
    """
    ids, X = index.ids, index.vectors.astype(np.float64)
    hits = {}
    for q, vid in enumerate(ids):
        probed = probed_rows(index, index.vectors[q])
        d2 = np.square(X[probed] - X[q]).sum(axis=1).tolist()
        top = sorted(zip(d2, (ids[r] for r in probed.tolist())))[:k]
        hits[vid] = [(other, float(np.sqrt(e))) for e, other in top if np.sqrt(e) < radius]
    return hits


def scan(index, queries, k: int, threads: int = 1, radius: float = math.inf):
    """The search kernel `_search` of arbitrary queries over one list of
    every row of `index`: (query, row, distance) hit arrays and the count
    of pairs re-ranked."""
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    lists = _one_list(len(queries), len(index))
    qi, rows, d2, reranked = _search(
        queries, index.vectors, index._sq, index._id_ranks, lists, k, threads, radius * radius
    )
    return qi, rows, np.sqrt(d2), reranked


def scan_hits(index, queries, k: int, **kwargs) -> list[list[tuple[str, float]]]:
    """Each query's hits from `scan` as (id, distance) pairs."""
    qi, rows, distances, _ = scan(index, queries, k, **kwargs)
    hits: list[list[tuple[str, float]]] = [[] for _ in range(len(queries))]
    for q, r, d in zip(qi.tolist(), rows.tolist(), distances.tolist()):
        hits[q].append((index.ids[r], d))
    return hits


def scan_one(index, query, k: int, **kwargs) -> list[tuple[str, float]]:
    """One query's hits from `scan` as (id, distance) pairs."""
    return scan_hits(index, [query], k, **kwargs)[0]


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
