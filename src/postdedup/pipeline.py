"""The dedup pipeline: one chain of stages, run in memory or over files.

The chain: canonicalize -> group exact duplicates (these already settle
FULL/TEMPORAL for identical text) -> translate one representative per group
(optional) -> embed -> index -> k-NN candidate pairs -> expert rules ->
classify -> expand group labels back to all members -> run report.

`run_pipeline` runs the chain in memory; `run_staged` (the CLI `dedup`
command) runs it from `postings.jsonl`, writing each artifact as it is
produced and reading none back. Each `stage_*` function reads one stage's
input artifacts, calls the same stage function and writes its output; all
paths give byte-identical results because every artifact round-trips
exactly (float32 vectors, UTF-8 text).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations, product
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .config import PipelineConfig
from .corpus import Posting, load_postings, pair_count, save_postings
from .dedup import (
    CandidatePair,
    KnnHits,
    LabeledPair,
    apply_rules_detailed,
    classify,
    collect_hits,
    default_rule,
    pairs_from_hits,
    saturation_report,
    threshold_sweep,
)
from .embed import EmbeddingVector, HashedEmbedder, RemoteEmbedder, truncation_report
from .errors import DataError
from .evaluation import write_results_csv
from .index import IndexConfig, IVFIndex, build_index, load_index
from .normalize import CanonicalText, ExactGroup, canonicalize, group_exact
from .translate import TranslationCache, TranslationRequest, make_backend, translate_batch

POSTINGS_FILE = "postings.jsonl"
CANONICAL_FILE = "canonical.jsonl"
TRANSLATED_FILE = "translated.jsonl"
EMBEDDINGS_FILE = "embeddings.pdix"
EMBED_META_FILE = "embed_meta.json"
INDEX_FILE = "index.pdix"
RESULTS_FILE = "results.csv"
REPORT_FILE = "report.json"
GOLD_FILE = "gold.csv"
DICTIONARY_FILE = "dictionary.json"
EVAL_FILE = "eval.json"


@dataclass
class RunReport:
    mode: str
    k: int
    base_theta: float
    n_postings: int = 0
    n_groups: int = 0
    n_representatives: int = 0
    n_zero_vectors: int = 0
    counters: dict = field(default_factory=dict)
    label_counts: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)
    truncation: Optional[dict] = None
    saturation: Optional[dict] = None
    sweep: list = field(default_factory=list)

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["sweep"] = [list(row) for row in self.sweep]
        return raw


@dataclass
class PipelineResult:
    pairs: list[LabeledPair]
    report: RunReport


def make_translator(config: PipelineConfig):
    kind = config.effective_translate_kind()
    return make_backend(
        kind,
        path=config.translate.dictionary_path,
        endpoint=config.translate.endpoint,
    )


def make_embedder(config: PipelineConfig):
    if config.embed.kind == "hashed":
        return HashedEmbedder(dim=config.embed.dim, max_tokens=config.embed.max_tokens)
    return RemoteEmbedder(config.embed.endpoint, dim=config.embed.dim)


def _timed(timings: dict, name: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    timings[name] = time.perf_counter() - t0
    return out


def _normalize(postings: Sequence[Posting], config: PipelineConfig) -> list[CanonicalText]:
    return [canonicalize(p, config.normalize) for p in postings]


def _translate(
    postings: Sequence[Posting],
    canonicals: Sequence[CanonicalText],
    groups: Sequence[ExactGroup],
    config: PipelineConfig,
    translator=None,
    cache: TranslationCache | None = None,
) -> list[str]:
    """The text to embed for each group's representative, in group order."""
    if translator is None:
        translator = make_translator(config)
    if cache is None and config.translate.cache_path:
        cache = TranslationCache(config.translate.cache_path)
    canonical_by_id = {c.source_id: c for c in canonicals}
    language_by_id = {p.id: p.language for p in postings}
    reps = [canonical_by_id[g.representative_id] for g in groups]
    requests = []
    slots = []
    for i, rep in enumerate(reps):
        if not rep.text:
            continue  # empty canonical text never reaches a backend
        requests.append(
            TranslationRequest(
                fingerprint=rep.fingerprint,
                text=rep.text,
                source_language=language_by_id[rep.source_id],
            )
        )
        slots.append(i)
    translated = translate_batch(
        requests,
        translator,
        cache=cache,
        max_in_flight=config.translate.max_in_flight,
        batch_size=config.translate.batch_size,
    )
    texts = [""] * len(reps)
    for slot, text in zip(slots, translated):
        texts[slot] = text
    return texts


def _embed(
    rep_ids: Sequence[str], texts: Sequence[str], config: PipelineConfig, embedder=None
) -> tuple[list[tuple[str, EmbeddingVector]], dict]:
    """The non-zero embeddings as (id, vector) pairs, and their metadata."""
    if embedder is None:
        embedder = make_embedder(config)
    vectors = embedder.embed_many(texts)
    id_vectors = [(rid, vec) for rid, vec in zip(rep_ids, vectors) if not vec.is_zero]
    meta = {
        "dim": config.embed.dim,
        "max_tokens": config.embed.max_tokens,
        "zero_vector_ids": [rid for rid, vec in zip(rep_ids, vectors) if vec.is_zero],
        "truncation": truncation_report(texts, config.embed.max_tokens).to_dict(),
    }
    return id_vectors, meta


def _build_search_index(id_vectors, config: PipelineConfig):
    if not id_vectors:
        return None
    index_config = config.index
    if index_config.kind == "ivf":
        # Desk-scale corpora can undershoot the configured partition count.
        nlist = min(index_config.nlist, len(id_vectors))
        index_config = replace(index_config, nlist=nlist, nprobe=min(index_config.nprobe, nlist))
    return build_index(id_vectors, index_config)


def _expand_pairs(
    kept: Sequence[tuple[CandidatePair, int]],
    rules,
    groups: Sequence[ExactGroup],
    postings_by_id: Mapping[str, Posting],
    fingerprints_by_id: Mapping[str, str],
) -> tuple[list[LabeledPair], int]:
    group_by_rep = {g.representative_id: g for g in groups}
    pairs: list[LabeledPair] = []

    for group in groups:
        for id_a, id_b in combinations(sorted(group.member_ids), 2):
            label = classify(id_a, id_b, postings_by_id, fingerprints_by_id, semantic_pass=False)
            pairs.append(LabeledPair(id_a, id_b, label, 0.0, "exact_fingerprint"))
    n_exact = len(pairs)

    for pair, rule_index in kept:
        reason = (
            "semantic_threshold" if rules[rule_index].is_catch_all else f"rule({rule_index})"
        )
        members_a = sorted(group_by_rep[pair.id_a].member_ids)
        members_b = sorted(group_by_rep[pair.id_b].member_ids)
        for ma, mb in product(members_a, members_b):
            id_a, id_b = (ma, mb) if ma < mb else (mb, ma)
            label = classify(id_a, id_b, postings_by_id, fingerprints_by_id, semantic_pass=True)
            pairs.append(LabeledPair(id_a, id_b, label, pair.distance, reason))

    pairs.sort(key=lambda p: p.key)
    return pairs, n_exact


def _dedup(
    postings: Sequence[Posting],
    canonicals: Sequence[CanonicalText],
    groups: Sequence[ExactGroup],
    meta: dict,
    queries: Sequence[tuple[str, EmbeddingVector]],
    index,
    config: PipelineConfig,
    timings: dict,
) -> PipelineResult:
    """Candidates, rules, classification, expansion; assembles the run report."""
    t0 = time.perf_counter()
    if index is not None:
        index.reset_comparison_count()
        hits = collect_hits(index, queries, config.dedup.k, threads=config.threads)
        comparisons, reranked = index.comparison_count, index.rerank_count
    else:
        hits, comparisons, reranked = KnnHits.empty(config.dedup.k), 0, 0
    timings["candidates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    k, base_theta = config.dedup.k, config.dedup.base_theta
    postings_by_id = {p.id: p for p in postings}
    fingerprints_by_id = {c.source_id: c.fingerprint for c in canonicals}
    candidates = pairs_from_hits(hits)
    rules = list(config.dedup.rules) or [default_rule(base_theta)]
    kept = apply_rules_detailed(candidates, postings_by_id, rules, base_theta)
    pairs, n_exact = _expand_pairs(kept, rules, groups, postings_by_id, fingerprints_by_id)
    sweep = threshold_sweep(candidates, list(config.dedup.sweep_thetas))
    saturation = saturation_report(hits, base_theta, k).to_dict()
    label_counts = Counter(pair.label.value for pair in pairs)
    timings["classify"] = time.perf_counter() - t0
    brute_force_pairs = pair_count(len(hits))
    report = RunReport(
        mode=config.mode,
        k=k,
        base_theta=base_theta,
        n_postings=len(postings),
        n_groups=len(groups),
        n_representatives=len(groups),
        n_zero_vectors=len(meta["zero_vector_ids"]),
        counters={
            # Ordered query x row evaluations, on the same basis as each other.
            "index_comparisons": comparisons,
            "brute_force_comparisons": len(hits) * (len(index) if index is not None else 0),
            "rerank_rows": reranked,
            # Unordered pairs, on the same basis as each other.
            "brute_force_pairs": brute_force_pairs,
            "candidate_pairs": len(candidates),
            "candidate_reduction": (
                1 - len(candidates) / brute_force_pairs if brute_force_pairs else 0.0
            ),
            "kept_representative_pairs": len(kept),
            "exact_group_pairs": n_exact,
            "output_pairs": len(pairs),
        },
        label_counts=dict(sorted(label_counts.items())),
        stage_seconds=dict(timings),
        truncation=meta["truncation"],
        saturation=saturation,
        sweep=sweep,
    )
    return PipelineResult(pairs=pairs, report=report)


def _run(
    postings: Sequence[Posting],
    config: PipelineConfig,
    translator=None,
    embedder=None,
    cache: TranslationCache | None = None,
    outdir: str | Path | None = None,
) -> PipelineResult:
    """The whole chain; with `outdir`, write each artifact as it is produced."""
    timings: dict[str, float] = {}
    canonicals = _timed(timings, "normalize", _normalize, postings, config)
    groups = _timed(timings, "group_exact", group_exact, canonicals)
    if outdir is not None:
        write_canonical_file(canonicals, Path(outdir) / CANONICAL_FILE)

    texts = _timed(
        timings, "translate", _translate, postings, canonicals, groups, config, translator, cache
    )
    if outdir is not None:
        _write_translated(groups, texts, outdir)

    rep_ids = [g.representative_id for g in groups]
    id_vectors, meta = _timed(timings, "embed", _embed, rep_ids, texts, config, embedder)
    if outdir is not None:
        _write_embedded(id_vectors, meta, outdir)

    index = _timed(timings, "index", _build_search_index, id_vectors, config)
    if outdir is not None and index is not None:
        index.save(Path(outdir) / INDEX_FILE)

    result = _dedup(postings, canonicals, groups, meta, id_vectors, index, config, timings)
    if outdir is not None:
        _write_result(result, outdir)
    return result


def run_pipeline(
    postings: Sequence[Posting],
    config: PipelineConfig,
    translator=None,
    embedder=None,
    cache: TranslationCache | None = None,
) -> PipelineResult:
    """Run the full dedup pipeline in memory over already-loaded postings."""
    return _run(postings, config, translator, embedder, cache)


# --- artifact files and single-stage runners ---------------------------------

def _artifact(outdir: str | Path, name: str) -> Path:
    path = Path(outdir) / name
    if not path.exists():
        raise DataError(f"missing stage artifact {path}; run the producing stage first")
    return path


def _write_jsonl(records, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _read_jsonl(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_canonical_file(canonicals: Sequence[CanonicalText], path: str | Path) -> None:
    _write_jsonl(
        (
            {"id": c.source_id, "canonical_text": c.text, "fingerprint": c.fingerprint}
            for c in canonicals
        ),
        path,
    )


def read_canonical_file(path: str | Path) -> list[CanonicalText]:
    return [
        CanonicalText(text=r["canonical_text"], fingerprint=r["fingerprint"], source_id=r["id"])
        for r in _read_jsonl(path)
    ]


def _write_translated(
    groups: Sequence[ExactGroup], texts: Sequence[str], outdir: str | Path
) -> None:
    records = ({"id": g.representative_id, "text": text} for g, text in zip(groups, texts))
    _write_jsonl(records, Path(outdir) / TRANSLATED_FILE)


def read_translated_file(path: str | Path) -> list[tuple[str, str]]:
    return [(r["id"], r["text"]) for r in _read_jsonl(path)]


def _write_embedded(id_vectors, meta: dict, outdir: str | Path) -> None:
    outdir = Path(outdir)
    (outdir / EMBED_META_FILE).write_text(json.dumps(meta, indent=2), encoding="utf-8")
    if id_vectors:
        # The embeddings dump is a flat index file.
        build_index(id_vectors, IndexConfig(kind="flat", dim=meta["dim"])).save(
            outdir / EMBEDDINGS_FILE
        )
    else:
        # drop stale artifacts so a re-run cannot mix corpora
        for name in (EMBEDDINGS_FILE, INDEX_FILE):
            (outdir / name).unlink(missing_ok=True)


def _write_result(result: PipelineResult, outdir: str | Path) -> None:
    write_results_csv(result.pairs, Path(outdir) / RESULTS_FILE)
    (Path(outdir) / REPORT_FILE).write_text(
        json.dumps(result.report.to_dict(), indent=2), encoding="utf-8"
    )


def stage_ingest(config: PipelineConfig, outdir: str | Path) -> list[Posting]:
    if not config.io.input_path:
        raise DataError("no input path configured; pass --input or set io.input_path")
    postings = load_postings(config.io.input_path, config.io.input_format)
    Path(outdir).mkdir(parents=True, exist_ok=True)
    save_postings(postings, Path(outdir) / POSTINGS_FILE)
    return postings


def stage_normalize(config: PipelineConfig, outdir: str | Path) -> list[CanonicalText]:
    canonicals = _normalize(load_postings(_artifact(outdir, POSTINGS_FILE)), config)
    write_canonical_file(canonicals, Path(outdir) / CANONICAL_FILE)
    return canonicals


def stage_translate(config: PipelineConfig, outdir: str | Path, translator=None) -> list[str]:
    postings = load_postings(_artifact(outdir, POSTINGS_FILE))
    canonicals = read_canonical_file(_artifact(outdir, CANONICAL_FILE))
    groups = group_exact(canonicals)
    texts = _translate(postings, canonicals, groups, config, translator)
    _write_translated(groups, texts, outdir)
    return texts


def stage_embed(
    config: PipelineConfig, outdir: str | Path, embedder=None
) -> list[tuple[str, EmbeddingVector]]:
    translated = read_translated_file(_artifact(outdir, TRANSLATED_FILE))
    rep_ids, texts = [rid for rid, _ in translated], [text for _, text in translated]
    id_vectors, meta = _embed(rep_ids, texts, config, embedder)
    _write_embedded(id_vectors, meta, outdir)
    return id_vectors


def stage_index(config: PipelineConfig, outdir: str | Path):
    index = _build_search_index(load_index(_artifact(outdir, EMBEDDINGS_FILE)).items(), config)
    index.save(Path(outdir) / INDEX_FILE)
    return index


def stage_dedup(config: PipelineConfig, outdir: str | Path) -> PipelineResult:
    """Final stage: candidates, rules, classification, expansion, reports."""
    postings = load_postings(_artifact(outdir, POSTINGS_FILE))
    canonicals = read_canonical_file(_artifact(outdir, CANONICAL_FILE))
    meta = json.loads(_artifact(outdir, EMBED_META_FILE).read_text(encoding="utf-8"))
    queries, index = [], None
    embeddings_path = Path(outdir) / EMBEDDINGS_FILE
    if embeddings_path.exists():
        queries = load_index(embeddings_path).items()
        index = load_index(_artifact(outdir, INDEX_FILE))
        if isinstance(index, IVFIndex):
            # nprobe is a search-time knob, not persisted in the file.
            index.nprobe = min(config.index.nprobe, index.nlist)
    groups = group_exact(canonicals)
    result = _dedup(postings, canonicals, groups, meta, queries, index, config, {})
    _write_result(result, outdir)
    return result


def run_staged(config: PipelineConfig, outdir: str | Path, translator=None, embedder=None) -> PipelineResult:
    """The `dedup` command: load postings.jsonl, run the chain, write every artifact."""
    postings = load_postings(_artifact(outdir, POSTINGS_FILE))
    return _run(postings, config, translator, embedder, outdir=outdir)


__all__ = [
    "POSTINGS_FILE",
    "CANONICAL_FILE",
    "TRANSLATED_FILE",
    "EMBEDDINGS_FILE",
    "EMBED_META_FILE",
    "INDEX_FILE",
    "RESULTS_FILE",
    "REPORT_FILE",
    "GOLD_FILE",
    "DICTIONARY_FILE",
    "EVAL_FILE",
    "RunReport",
    "PipelineResult",
    "run_pipeline",
    "run_staged",
    "make_translator",
    "make_embedder",
    "stage_ingest",
    "stage_normalize",
    "stage_translate",
    "stage_embed",
    "stage_index",
    "stage_dedup",
    "read_canonical_file",
    "write_canonical_file",
    "read_translated_file",
]
