"""The dedup pipeline: one chain of stages, run in memory.

The chain: canonicalize (a posting's canonical text is a plain `str`) ->
group exact duplicates (one group per lowercased canonical text, the text
itself the key) -> translate one representative per group (optional) ->
embed -> index -> k-NN candidate pairs under the search radius (the
largest threshold the rules or the sweep use), made straight from one
search of the embeddings against their own index (`collect_hits`) ->
expert rules -> label every member pair -> run report. A pair inside one
exact group shares its canonical text and is FULL; a kept pair across two
groups does not and is SEMANTIC; either is TEMPORAL when the retrieval
dates differ.

The postings are sorted by id once, up front (`_id_order`, which rejects a
repeated id), and every later stage refers to a posting by its place in
that order, which is its id's rank: groups, rules and expansion map no id
back to its row.

`run_pipeline` is the only function that runs the chain. The CLI `dedup`
command calls it over the corpus it reads (`load_postings`, looked up here
at call time) and writes only its outputs, `results.csv` and `report.json`
(`write_run`); it writes no other file and removes none. The `stage_*`
functions (ingest through index, one per CLI stage command) each read the
previous stage's artifact, call the same stage function the chain calls
and, up to embed, write their output; they are the only writers of the
intermediate artifacts. `canonical.jsonl` also holds each text's
fingerprint (`fingerprint_text`), made only as it is written, for the
file's readers; `translate` reads back the ids and texts. Every artifact
round-trips exactly (float32 vectors, UTF-8 text), so the stage commands
write the bytes of the chain's in-memory values. The search index lives
for one run: `stage_index` builds it and writes nothing, and candidates,
rules and results run only inside the whole chain.

The run report is the `report.json` document: `_dedup` builds it as one
dict, in the key order it is written in, holding the stage mappings of
`truncation_report` and `saturation_report`.

Nothing to embed is no special case: the embeddings are then a flat index
of zero rows, which is written, read, indexed and searched like any other.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import chain, combinations, compress, product
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import atomic_write, write_json
from .config import PipelineConfig
from .corpus import Posting, jsonl_records, load_postings, pair_count, save_postings
from .dedup import (
    CandidatePairs,
    DuplicateLabel,
    KeptPairs,
    apply_rules_detailed,
    classify,
    collect_hits,
    default_rule,
    saturation_report,
    threshold_sweep,
)
from .embed import HashedEmbedder, RemoteEmbedder, truncation_report
from .errors import DataError, DuplicateId, MalformedRecord
from .evaluation import write_results_csv
from .index import FlatIndex, IVFIndex, VectorIndex, build_index, load_index
from .normalize import canonicalize, fingerprint_text, group_exact
from .translate import (
    DictionaryTranslator,
    IdentityTranslator,
    RemoteTranslator,
    TranslationCache,
    translate_batch,
)

POSTINGS_FILE = "postings.jsonl"
CANONICAL_FILE = "canonical.jsonl"
TRANSLATED_FILE = "translated.jsonl"
EMBEDDINGS_FILE = "embeddings.pdix"
EMBED_META_FILE = "embed_meta.json"
RESULTS_FILE = "results.csv"
REPORT_FILE = "report.json"
GOLD_FILE = "gold.csv"
DICTIONARY_FILE = "dictionary.json"
EVAL_FILE = "eval.json"


@dataclass
class PipelineResult:
    """A run's labeled pairs as aligned columns, and its run report: pair i of
    `pairs` (an exact pair at distance 0.0) is `DuplicateLabel` number
    `labels[i]`, for reason `reason_names[reasons[i]]`."""

    pairs: CandidatePairs
    labels: np.ndarray  # int8 codes, the places of the labels in DuplicateLabel
    reasons: np.ndarray  # int64 indexes into reason_names
    reason_names: list[str]  # "exact_fingerprint", then one per rule
    report: dict  # the `report.json` document

    def label_map(self) -> dict[tuple[str, str], DuplicateLabel]:
        """Each pair's label, keyed by (id_a, id_b): what `score` reads."""
        names, labels, pairs = self.pairs.names, list(DuplicateLabel), self.pairs
        lo, hi, codes = pairs.lo.tolist(), pairs.hi.tolist(), self.labels.tolist()
        return {(names[a], names[b]): labels[c] for a, b, c in zip(lo, hi, codes)}


def make_translator(config: PipelineConfig):
    kind = config.effective_translate_kind()
    if kind == "dictionary":
        return DictionaryTranslator.from_file(config.translate.dictionary_path)
    if kind == "remote":
        return RemoteTranslator(config.translate.endpoint)
    return IdentityTranslator()


def make_embedder(config: PipelineConfig):
    if config.embed.kind == "hashed":
        return HashedEmbedder(dim=config.embed.dim, max_tokens=config.embed.max_tokens)
    return RemoteEmbedder(config.embed.endpoint, dim=config.embed.dim)


def _timed(timings: dict, name: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    timings[name] = time.perf_counter() - t0
    return out


def _id_order(postings: Sequence[Posting]) -> list[int]:
    """The places of `postings` in id order; a repeated id raises DuplicateId."""
    ids = [p.id for p in postings]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    if repeated := [ids[a] for a, b in zip(order, order[1:]) if ids[a] == ids[b]]:
        raise DuplicateId(repeated[0])
    return order


def _normalize(postings: Sequence[Posting], config: PipelineConfig) -> list[str]:
    return [canonicalize(p, config.normalize) for p in postings]


def _translate(
    postings: Sequence[Posting],
    canonicals: Sequence[str],
    groups: Sequence[list[int]],
    config: PipelineConfig,
    translator=None,
    cache: TranslationCache | None = None,
) -> list[str]:
    """The text to embed for each group's representative, in group order;
    `postings` and `canonicals` are aligned, in id order."""
    if translator is None:
        translator = make_translator(config)
    if cache is None and config.translate.cache_path:
        cache = TranslationCache(config.translate.cache_path)
    return translate_batch(
        [canonicals[g[0]] for g in groups],
        [postings[g[0]].language for g in groups],
        translator,
        cache=cache,
        max_in_flight=config.translate.max_in_flight,
        batch_size=config.translate.batch_size,
    )


def _embed(
    rep_ids: Sequence[str], texts: Sequence[str], config: PipelineConfig, embedder=None
) -> tuple[FlatIndex, dict, np.ndarray]:
    """The non-zero embeddings as a flat index (no rows if none), their
    metadata, and which texts have one (a bool per text)."""
    if embedder is None:
        embedder = make_embedder(config)
    token_counts: list[int] = []
    vectors = embedder.embed_many(texts, token_counts)
    nonzero = vectors.any(axis=1)
    flags = nonzero.tolist()
    ids = [rid for rid, keep in zip(rep_ids, flags) if keep]
    meta = {
        "dim": config.embed.dim,
        "max_tokens": config.embed.max_tokens,
        "zero_vector_ids": [rid for rid, keep in zip(rep_ids, flags) if not keep],
        "truncation": truncation_report(token_counts, config.embed.max_tokens),
    }
    # The embedder's matrix becomes the index as it is; a copy is made only
    # to drop zero rows.
    embedded = FlatIndex(ids, vectors if len(ids) == len(rep_ids) else vectors[nonzero])
    return embedded, meta, nonzero


def _expand_pairs(
    kept: KeptPairs,
    rules,
    groups: Sequence[list[int]],
    named: Sequence[list[int]],
    postings: Sequence[Posting],
) -> tuple[CandidatePairs, np.ndarray, np.ndarray, list[str]]:
    """Every member pair of each exact group (FULL), and of each kept pair of
    representatives (SEMANTIC); either is TEMPORAL when the dates differ.
    `postings` are in id order, a group holds the places of its members and
    `named[i]` is the group of `kept.pairs.names[i]`. Returns the columns of
    a `PipelineResult`: the pairs over the posting ids, sorted by (id_a,
    id_b), their label and reason codes, and the reason names."""
    days = np.array([p.retrieval_date.toordinal() for p in postings], dtype=np.int64)
    # Places order as ids do: a pair whose places ascend has ids that ascend.
    place_pair = np.dtype((np.int64, 2))

    exact = np.fromiter(chain.from_iterable(combinations(g, 2) for g in groups), dtype=place_pair)
    exact_labels = classify(True, days[exact[:, 0]], days[exact[:, 1]])

    sides = [(named[a], named[b]) for a, b in zip(kept.pairs.lo.tolist(), kept.pairs.hi.tolist())]
    semantic = np.fromiter(
        chain.from_iterable(product(ma, mb) for ma, mb in sides), dtype=place_pair
    )
    semantic.sort(axis=1)
    per_kept = np.array([len(ma) * len(mb) for ma, mb in sides], dtype=np.int64)
    semantic_labels = classify(False, days[semantic[:, 0]], days[semantic[:, 1]])

    places = np.concatenate([exact, semantic])
    order = np.lexsort((places[:, 1], places[:, 0]))
    distances = np.concatenate([np.zeros(len(exact)), np.repeat(kept.pairs.distances, per_kept)])
    labels = np.concatenate([exact_labels, semantic_labels])
    reasons = np.concatenate(
        [np.zeros(len(exact), dtype=np.int64), np.repeat(kept.rule_indices + 1, per_kept)]
    )
    reason_names = ["exact_fingerprint"] + [
        "semantic_threshold" if rule.is_catch_all else f"rule({i})" for i, rule in enumerate(rules)
    ]
    names = [p.id for p in postings]
    pairs = CandidatePairs(names, places[order, 0], places[order, 1], distances[order])
    return pairs, labels[order], reasons[order], reason_names


def _dedup(
    postings: Sequence[Posting],
    groups: Sequence[list[int]],
    named: Sequence[list[int]],
    meta: dict,
    queries: FlatIndex,
    index: VectorIndex,
    config: PipelineConfig,
    timings: dict,
) -> PipelineResult:
    """Candidates, rules, classification, expansion; assembles the run report.
    `named[i]` is the group of `queries.ids[i]`, the i-th candidate name."""
    t0 = time.perf_counter()
    k, base_theta = config.dedup.k, config.dedup.base_theta
    radius = config.dedup.search_radius
    candidates, kth = collect_hits(index, queries, k, threads=config.threads, radius=radius)
    timings["candidates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rules = list(config.dedup.rules) or [default_rule(base_theta)]
    kept = apply_rules_detailed(candidates, [postings[g[0]] for g in named], rules, base_theta)
    pairs, labels, reasons, reason_names = _expand_pairs(kept, rules, groups, named, postings)
    n = len(queries)
    brute_force_pairs = pair_count(n)
    sweep = threshold_sweep(
        candidates.distances, list(config.dedup.sweep_thetas), brute_force_pairs
    )
    saturation = saturation_report(queries.ids, kth, base_theta, k)
    label_counts = np.bincount(labels, minlength=len(DuplicateLabel)).tolist()
    timings["classify"] = time.perf_counter() - t0
    list_sizes = None
    if isinstance(index, IVFIndex):
        sizes = index.list_sizes()
        list_sizes = {"min": min(sizes), "median": float(np.median(sizes)), "max": max(sizes)}
    report = {
        "mode": config.mode,
        "k": k,
        "base_theta": base_theta,
        "search_radius": radius,
        "n_postings": len(postings),
        "n_groups": len(groups),
        "n_zero_vectors": len(meta["zero_vector_ids"]),
        "counters": {
            # Ordered query x row evaluations, on the same basis as each other.
            "index_comparisons": index.comparison_count,
            "brute_force_comparisons": n * n,  # a self-join
            "rerank_rows": index.rerank_count,
            # Unordered pairs, on the same basis as each other.
            "brute_force_pairs": brute_force_pairs,
            "candidate_pairs": len(candidates),
            "candidate_reduction": (
                1 - len(candidates) / brute_force_pairs if brute_force_pairs else 0.0
            ),
            "kept_representative_pairs": len(kept),
            "exact_group_pairs": int(np.count_nonzero(reasons == 0)),
            "output_pairs": len(pairs),
        },
        # The labels given, in name order, which is DuplicateLabel's.
        "label_counts": {k.value: n for k, n in zip(DuplicateLabel, label_counts) if n},
        "rule_kept": np.bincount(kept.rule_indices, minlength=len(rules)).tolist(),
        "ivf_list_sizes": list_sizes,
        "stage_seconds": dict(timings),
        "truncation": meta["truncation"],
        "saturation": saturation,
        "sweep": [list(row) for row in sweep],
    }
    return PipelineResult(pairs, labels, reasons, reason_names, report)


def run_pipeline(
    postings: Sequence[Posting],
    config: PipelineConfig,
    translator=None,
    embedder=None,
    cache: TranslationCache | None = None,
) -> PipelineResult:
    """Run the full dedup chain in memory over already-loaded postings, in
    any order; a repeated id raises DuplicateId before any stage runs."""
    timings: dict[str, float] = {}
    order = _id_order(postings)
    canonicals = _timed(timings, "normalize", _normalize, postings, config)
    postings, canonicals = [postings[i] for i in order], [canonicals[i] for i in order]
    groups = _timed(timings, "group_exact", group_exact, canonicals)
    texts = _timed(
        timings, "translate", _translate, postings, canonicals, groups, config, translator, cache
    )
    rep_ids = [postings[g[0]].id for g in groups]
    embedded, meta, nonzero = _timed(timings, "embed", _embed, rep_ids, texts, config, embedder)
    index = _timed(timings, "index", build_index, embedded, config.index)
    named = list(compress(groups, nonzero))
    return _dedup(postings, groups, named, meta, embedded, index, config, timings)


# --- artifact files and single-stage runners ---------------------------------

def _write_jsonl(records, path: str | Path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _read_jsonl(path: str | Path, fields: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The named fields of each record of a JSONL artifact; each must be a string."""
    records = []
    for record, line_no in jsonl_records(path):
        values = tuple(record.get(name) for name in fields)
        if not all(isinstance(value, str) for value in values):
            raise MalformedRecord(path, line_no, f"expected string fields {', '.join(fields)}")
        records.append(values)
    return records


def write_canonical_file(ids: Sequence[str], texts: Sequence[str], path: str | Path) -> None:
    """Each posting's id and canonical text, with the text's fingerprint for readers."""
    records = (
        {"id": pid, "canonical_text": text, "fingerprint": fingerprint_text(text)}
        for pid, text in zip(ids, texts)
    )
    _write_jsonl(records, path)


def read_canonical_file(path: str | Path) -> list[tuple[str, str]]:
    """The (id, canonical_text) pairs of `canonical.jsonl`; its fingerprints are not read back."""
    fields = ("id", "canonical_text", "fingerprint")
    return [(pid, text) for pid, text, _ in _read_jsonl(path, fields)]


def _write_translated(rep_ids: Sequence[str], texts: Sequence[str], outdir: str | Path) -> None:
    records = ({"id": rid, "text": text} for rid, text in zip(rep_ids, texts))
    _write_jsonl(records, Path(outdir) / TRANSLATED_FILE)


def read_translated_file(path: str | Path) -> list[tuple[str, str]]:
    return _read_jsonl(path, ("id", "text"))


def _write_embedded(embedded: FlatIndex, meta: dict, outdir: str | Path) -> None:
    write_json(meta, Path(outdir) / EMBED_META_FILE)
    embedded.save(Path(outdir) / EMBEDDINGS_FILE)


def write_run(result: PipelineResult, outdir: str | Path) -> None:
    """The outputs of `dedup`: the labeled pairs and the run report."""
    Path(outdir).mkdir(parents=True, exist_ok=True)
    write_results_csv(result, Path(outdir) / RESULTS_FILE)
    write_json(result.report, Path(outdir) / REPORT_FILE)


def stage_ingest(path: str | Path, format: str, outdir: str | Path) -> list[Posting]:
    postings = load_postings(path, format)
    Path(outdir).mkdir(parents=True, exist_ok=True)
    save_postings(postings, Path(outdir) / POSTINGS_FILE)
    return postings


def stage_normalize(config: PipelineConfig, outdir: str | Path) -> list[str]:
    postings = load_postings(Path(outdir) / POSTINGS_FILE)
    canonicals = _normalize(postings, config)
    write_canonical_file([p.id for p in postings], canonicals, Path(outdir) / CANONICAL_FILE)
    return canonicals


def stage_translate(config: PipelineConfig, outdir: str | Path, translator=None) -> list[str]:
    postings = load_postings(Path(outdir) / POSTINGS_FILE)
    records = read_canonical_file(Path(outdir) / CANONICAL_FILE)
    if [pid for pid, _ in records] != [p.id for p in postings]:
        raise DataError(
            f"{Path(outdir) / CANONICAL_FILE} does not hold the ids of {POSTINGS_FILE} "
            "in order; run the normalize stage again"
        )
    order = _id_order(postings)
    postings, canonicals = [postings[i] for i in order], [records[i][1] for i in order]
    groups = group_exact(canonicals)
    texts = _translate(postings, canonicals, groups, config, translator)
    _write_translated([postings[g[0]].id for g in groups], texts, outdir)
    return texts


def stage_embed(config: PipelineConfig, outdir: str | Path, embedder=None) -> FlatIndex:
    translated = read_translated_file(Path(outdir) / TRANSLATED_FILE)
    rep_ids, texts = [rid for rid, _ in translated], [text for _, text in translated]
    embedded, meta, _ = _embed(rep_ids, texts, config, embedder)
    _write_embedded(embedded, meta, outdir)
    return embedded


def stage_index(config: PipelineConfig, outdir: str | Path) -> VectorIndex:
    """The configured index over `embeddings.pdix`, built as `dedup` builds it; writes nothing."""
    embeddings = Path(outdir) / EMBEDDINGS_FILE
    if not embeddings.exists():
        raise DataError(f"missing {embeddings}; run the embed stage first")
    return build_index(load_index(embeddings), config.index)


__all__ = [
    "POSTINGS_FILE",
    "CANONICAL_FILE",
    "TRANSLATED_FILE",
    "EMBEDDINGS_FILE",
    "EMBED_META_FILE",
    "RESULTS_FILE",
    "REPORT_FILE",
    "GOLD_FILE",
    "DICTIONARY_FILE",
    "EVAL_FILE",
    "PipelineResult",
    "run_pipeline",
    "write_run",
    "make_translator",
    "make_embedder",
    "stage_ingest",
    "stage_normalize",
    "stage_translate",
    "stage_embed",
    "stage_index",
    "read_canonical_file",
    "write_canonical_file",
    "read_translated_file",
]
