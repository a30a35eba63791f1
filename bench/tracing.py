"""Spans around the layer functions of postdedup, and the per-layer metrics
derived from them.

The traced child process calls `install`, which replaces the public names
that `postdedup.pipeline` looks up at call time (and a few class methods)
with wrappers. Each wrapper records one span: name, start, end, parent
span, and the process's minor page faults and system CPU time at both ends
(`getrusage(RUSAGE_SELF)`). Work counts are taken from the wrapped calls'
arguments and results, outside the program. Nothing under src/ changes.

`layer_metrics` turns the spans of all processes of one run into the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import resource
import threading
import time
from collections import Counter, defaultdict

# Span fields, as stored and dumped.
NAME, START, END, PARENT, FLT0, FLT1, SYS0, SYS1 = range(8)


class Tracer:
    """Keeps spans in memory; `dump` returns them when the process ends.

    Spans opened in worker threads (translation batches) take the main
    thread's innermost open span as parent, since that span caused them.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.lock = threading.Lock()  # guards spans, stacks and counts
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        now = time.monotonic()
        with self.lock:
            stack = self._stack()
            outer = stack or self._main_stack
            idx = len(self.spans)
            self.spans.append(
                [name, now, now, outer[-1] if outer else None,
                 usage.ru_minflt, usage.ru_minflt, usage.ru_stime, usage.ru_stime]
            )
            stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        now = time.monotonic()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with self.lock:
            span = self.spans[idx]
            span[END], span[FLT1], span[SYS1] = now, usage.ru_minflt, usage.ru_stime
            self._stack().pop()
        return now - span[START]

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _wrap(tracer: Tracer, owner, attr: str, name: str, on_result=None, on_error=None):
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception:
            tracer.close(idx)
            if on_error is not None:
                with tracer.lock:
                    on_error(tracer.counts)
            raise
        seconds = tracer.close(idx)
        if on_result is not None:
            # Translation batches call back from worker threads.
            with tracer.lock:
                on_result(tracer.counts, args, kwargs, out, seconds)
        return out

    setattr(owner, attr, traced)


# --- work counters, read from the wrapped calls' arguments and results -------

def _count_cache_get(counts, args, kwargs, out, seconds):
    counts["translate.cache_hits" if out is not None else "translate.cache_misses"] += 1


def _count_backend(counts, args, kwargs, out, seconds):
    counts["translate.backend_batches"] += 1
    counts["translate.backend_texts"] += len(args[1])


def _count_embed(counts, args, kwargs, out, seconds):
    counts["embed.texts"] += len(args[1])
    for vec in out:
        zero = getattr(vec, "is_zero", None)
        counts["embed.zero_vectors"] += bool(zero if zero is not None else not vec.any())


def _count_build(counts, args, kwargs, out, seconds):
    config = args[1] if len(args) > 1 else kwargs["config"]
    if config.kind == "ivf":
        counts["index.ivf_builds"] += 1
        counts["index.kmeans_iters"] += config.kmeans_iters
        counts["index.ivf_build_s"] += seconds


def _count_search(counts, args, kwargs, out, seconds):
    index, queries = args[0], args[1]
    counts["index.queries"] += len(queries)
    counts["index.query_rows"] += len(queries) * len(index)  # ordered query x row
    counts["index.comparisons"] += index.comparison_count  # ordered, reset before


def _count_rules(counts, args, kwargs, out, seconds):
    counts["dedup.candidates"] += len(args[0])
    counts["dedup.kept"] += len(out)


def _count_retry(counts):
    counts["batching.retries"] += 1


# (module of postdedup, class or None, attribute, span name, work counter).
# Module-level names are wrapped in `pipeline`, whose functions look them up
# at call time.
TARGETS = (
    ("pipeline", None, "load_postings", "corpus.load_postings", None),
    ("pipeline", None, "save_postings", "corpus.save_postings", None),
    ("pipeline", None, "canonicalize", "normalize.canonicalize", None),
    ("pipeline", None, "group_exact", "normalize.group_exact", None),
    ("pipeline", None, "translate_batch", "translate.translate_batch", None),
    ("translate", "TranslationCache", "__init__", "translate.cache_load", None),
    ("translate", "TranslationCache", "get", "translate.cache_get", _count_cache_get),
    ("translate", "TranslationCache", "put", "translate.cache_put", None),
    ("translate", "DictionaryTranslator", "translate", "translate.backend", _count_backend),
    ("embed", "HashedEmbedder", "embed_many", "embed.embed_many", _count_embed),
    ("pipeline", None, "build_index", "index.build_index", _count_build),
    ("pipeline", None, "load_index", "index.load_index", None),
    ("index", "_BaseIndex", "save", "index.save", None),
    ("pipeline", None, "collect_hits", "dedup.collect_hits", _count_search),
    ("pipeline", None, "apply_rules_detailed", "dedup.apply_rules_detailed", _count_rules),
    ("pipeline", None, "_expand_pairs", "pipeline.expand_pairs", None),
    ("pipeline", None, "classify", "dedup.classify", None),
    ("pipeline", None, "write_results_csv", "evaluation.write_results_csv", None),
    ("pipeline", None, "read_canonical_file", "pipeline.read_canonical_file", None),
    ("pipeline", None, "write_canonical_file", "pipeline.write_canonical_file", None),
    ("pipeline", None, "read_translated_file", "pipeline.read_translated_file", None),
)
SPAN_NAMES = tuple(target[3] for target in TARGETS)


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer functions; return the names that were not found."""
    import importlib

    missing = []
    for module, cls, attr, name, on_result in TARGETS:
        owner = importlib.import_module(f"postdedup.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            continue
        on_error = _count_retry if name == "translate.backend" else None
        _wrap(tracer, owner, attr, name, on_result, on_error)
    return missing


# --- derivation --------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_totals(spans: list) -> tuple[dict, float, float]:
    """Per-name totals, the union of top-level spans, and the first start.

    Per name: calls, seconds, self seconds (duration minus the part its
    child spans cover), minor faults and system seconds.
    """
    children: dict = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    totals: dict = defaultdict(lambda: dict(calls=0, s=0.0, self_s=0.0, minflt=0, sys_s=0.0))
    top = []
    for idx, span in enumerate(spans):
        row = totals[span[NAME]]
        duration = span[END] - span[START]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - _union_length(children.get(idx, ()))
        row["minflt"] += span[FLT1] - span[FLT0]
        row["sys_s"] += span[SYS1] - span[SYS0]
        if span[PARENT] is None:
            top.append((span[START], span[END]))
    first = min((s[START] for s in spans), default=None)
    return dict(totals), _union_length(top), first


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(processes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one run, summed over its processes.

    Each entry of `processes` holds the child's dump plus `exit` (parent
    clock at process exit) and file sizes measured in its output dir:
    `index_bytes`, `artifact_bytes` and `output_pairs`.
    """
    agg: dict = defaultdict(lambda: dict(calls=0, s=0.0, self_s=0.0, minflt=0, sys_s=0.0))
    counts: Counter = Counter()
    uncovered = import_s = 0.0
    n_spans = 0
    sizes: Counter = Counter()
    for proc in processes:
        totals, covered, first = span_totals(proc["spans"])
        n_spans += len(proc["spans"])
        for name, row in totals.items():
            for key, value in row.items():
                agg[name][key] += value
        counts.update(proc["counts"])
        import_s += proc["import_s"]
        if first is not None:
            uncovered += proc["exit"] - first - covered
        for key in ("index_bytes", "artifact_bytes", "output_pairs"):
            sizes[key] += proc[key]

    def s(name):
        return agg[name]["s"]

    queries = counts["index.queries"]
    candidates = counts["dedup.candidates"]
    cache_lookups = counts["translate.cache_hits"] + counts["translate.cache_misses"]
    search, build = agg["dedup.collect_hits"], agg["index.build_index"]
    canon = agg["normalize.canonicalize"]
    out = {
        "index.search_s": (s("dedup.collect_hits"), "s"),
        "index.us_per_query": (_ratio(s("dedup.collect_hits"), queries, 1e6), "us"),
        "index.rows_per_query": (_ratio(counts["index.comparisons"], queries), "count"),
        "index.scan_fraction": (
            _ratio(counts["index.comparisons"], counts["index.query_rows"]), "ratio"
        ),
        "index.search_minor_faults": (search["minflt"], "count"),
        "index.search_sys_s": (search["sys_s"], "s"),
        "index.build_s": (s("index.build_index"), "s"),
        "index.kmeans_iter_s": (
            _ratio(counts["index.ivf_build_s"], counts["index.kmeans_iters"]), "s"
        ),
        "index.build_minor_faults": (build["minflt"], "count"),
        "index.build_sys_s": (build["sys_s"], "s"),
        "index.save_s": (s("index.save"), "s"),
        "index.load_s": (s("index.load_index"), "s"),
        "index.bytes": (sizes["index_bytes"], "B"),
        "dedup.candidates": (candidates, "count"),
        "dedup.kept": (counts["dedup.kept"], "count"),
        "dedup.kept_ratio": (_ratio(counts["dedup.kept"], candidates), "ratio"),
        "dedup.rules_us_per_candidate": (
            _ratio(s("dedup.apply_rules_detailed"), candidates, 1e6), "us"
        ),
        "dedup.expand_s": (s("pipeline.expand_pairs"), "s"),
        "dedup.output_pairs": (sizes["output_pairs"], "count"),
        "normalize.us_per_doc": (_ratio(canon["s"], canon["calls"], 1e6), "us"),
        "normalize.group_exact_s": (s("normalize.group_exact"), "s"),
        "embed.us_per_text": (_ratio(s("embed.embed_many"), counts["embed.texts"], 1e6), "us"),
        "embed.zero_vectors": (counts["embed.zero_vectors"], "count"),
        "translate.s": (s("translate.translate_batch"), "s"),
        "translate.backend_texts": (counts["translate.backend_texts"], "count"),
        "translate.backend_batches": (counts["translate.backend_batches"], "count"),
        "translate.cache_hits": (counts["translate.cache_hits"], "count"),
        "translate.cache_misses": (counts["translate.cache_misses"], "count"),
        "translate.cache_hit_ratio": (_ratio(counts["translate.cache_hits"], cache_lookups), "ratio"),
        "translate.cache_load_s": (s("translate.cache_load"), "s"),
        "translate.cache_put_s": (s("translate.cache_put"), "s"),
        "batching.retries": (counts["batching.retries"], "count"),
        "corpus.load_s": (s("corpus.load_postings"), "s"),
        "corpus.save_s": (s("corpus.save_postings"), "s"),
        "pipeline.artifact_read_s": (
            s("pipeline.read_canonical_file") + s("pipeline.read_translated_file"), "s"
        ),
        "pipeline.artifact_write_s": (s("pipeline.write_canonical_file"), "s"),
        "pipeline.artifact_bytes": (sizes["artifact_bytes"], "B"),
        "evaluation.results_write_s": (s("evaluation.write_results_csv"), "s"),
        "cli.import_s": (import_s, "s"),
        "trace.uncovered_s": (uncovered, "s"),
        "trace.spans": (n_spans, "count"),
    }
    for name in SPAN_NAMES:
        out[f"self_s.{name}"] = (agg[name]["self_s"], "s")
    return out
