"""postdedup: batch duplicate detection for multilingual text corpora.

Pipeline: normalize -> (translate) -> embed -> approximate k-NN candidate
search -> threshold and expert rules -> classify -> evaluate. All model
and service dependencies sit behind pluggable backends with deterministic
offline defaults, so the whole pipeline runs and tests without network
access.
"""

from .config import PipelineConfig, load_config
from .corpus import CorpusStats, Posting, corpus_stats, load_postings, pair_count, save_postings
from .dedup import (
    DuplicateLabel,
    ExpertRule,
    LabeledPair,
    classify,
    example_ruleset,
    saturation_report,
    threshold_sweep,
)
from .embed import (
    HashedEmbedder,
    TruncationReport,
    hashed_bow_embed,
    tokenize,
    truncate_tokens,
    truncation_report,
)
from .evaluation import EvalReport, GoldSet, render_report, score
from .index import FlatIndex, IndexConfig, IVFIndex, build_index, load_index
from .normalize import (
    CanonicalText,
    ExactGroup,
    NormalizeConfig,
    canonicalize,
    clean_text,
    group_exact,
)
from .pipeline import PipelineResult, RunReport, run_pipeline
from .synth import DupPlan, PseudoLanguage, synth_corpus
from .translate import (
    DictionaryTranslator,
    IdentityTranslator,
    TranslationCache,
    TranslationRequest,
    make_backend,
    translate_batch,
)

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "load_config",
    "Posting",
    "CorpusStats",
    "corpus_stats",
    "load_postings",
    "save_postings",
    "pair_count",
    "DuplicateLabel",
    "ExpertRule",
    "LabeledPair",
    "classify",
    "example_ruleset",
    "saturation_report",
    "threshold_sweep",
    "HashedEmbedder",
    "TruncationReport",
    "hashed_bow_embed",
    "tokenize",
    "truncate_tokens",
    "truncation_report",
    "EvalReport",
    "GoldSet",
    "render_report",
    "score",
    "FlatIndex",
    "IVFIndex",
    "IndexConfig",
    "build_index",
    "load_index",
    "CanonicalText",
    "ExactGroup",
    "NormalizeConfig",
    "canonicalize",
    "clean_text",
    "group_exact",
    "PipelineResult",
    "RunReport",
    "run_pipeline",
    "DupPlan",
    "PseudoLanguage",
    "synth_corpus",
    "DictionaryTranslator",
    "IdentityTranslator",
    "TranslationCache",
    "TranslationRequest",
    "make_backend",
    "translate_batch",
    "__version__",
]
