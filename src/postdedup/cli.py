"""Command-line interface: stagewise and end-to-end pipeline runs.

Exit codes: 0 success, 2 configuration error, 3 data/artifact error,
4 backend error. Each stage command reads the previous stage's artifact
from the output directory and writes its own, even if empty, except
`index`, which builds the index of one run and writes nothing; only the
stage commands write those artifacts, and no command removes a file.
`dedup` is corpus in, labels out: it reads the `--input` corpus, else
`postings.jsonl`, runs the whole chain in memory, and writes only
`results.csv` and `report.json`; it reads no stage artifact and writes no
other file, so a failed run leaves the output directory as it was. The
corpus is named by `--input` and `--format` alone (`ingest`, or `dedup
--input`). Flags are merged into the config document before it is read,
so a flag and a file key are checked alike: a key that is not in the
schema, or a value of the wrong type, exits 2 naming the dotted key.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# OpenBLAS reads this once, when numpy first loads it, so it is set before
# the imports below. Its default is one thread per CPU; the extra workers
# spin at start-up and between calls, and on a 2-vCPU x86_64 VM they cost
# ~0.1 s of CPU in every process at `import numpy` alone (0.27 s against
# 0.17 s for the whole interpreter). The program's parallelism is the
# block pool of `threads`; with one BLAS thread per call, the search
# product can go through BLAS. A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import pipeline
from .atomic import write_json
from .config import PipelineConfig, _read_document, _read_json_or_yaml, config_from_dict
from .corpus import corpus_stats, read_json, save_postings
from .embed import tokenize
from .errors import BackendError, ConfigError, DataError, DedupError
from .evaluation import SCORE_KEYS, GoldSet, read_results_csv, render_report, score
from .pipeline import (
    DICTIONARY_FILE,
    EVAL_FILE,
    GOLD_FILE,
    POSTINGS_FILE,
    REPORT_FILE,
    RESULTS_FILE,
    run_pipeline,
    stage_embed,
    stage_index,
    stage_ingest,
    stage_normalize,
    stage_translate,
    write_run,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML or JSON config file; flags override file values")
    parser.add_argument("--out", default="dedup_out", help="artifact directory")
    parser.add_argument("--mode", choices=("two_step", "multilingual"))
    parser.add_argument("--k", type=int, help="neighbors per query")
    parser.add_argument("--theta", type=float, help="base L2 threshold")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--paper-strict",
        action="store_true",
        help="preset: ascii_only cleaning, k=100, theta=0.25, 384-token limit",
    )
    parser.add_argument("--dict", dest="dictionary", help="dictionary translator JSON file")
    parser.add_argument("--rules", help="'example', 'none', or a YAML/JSON rules file")
    parser.add_argument("--ascii-only", action="store_true", default=None)


# The strict preset as config keys; it is applied after, and so wins over,
# the other flags.
_PAPER_STRICT = {
    "normalize.ascii_only": True,
    "embed.max_tokens": 384,
    "dedup.k": 100,
    "dedup.base_theta": 0.25,
}


def _overlay(raw: dict, dotted: str, value) -> None:
    *sections, key = dotted.split(".")
    node = raw
    for name in sections:
        if node.get(name) is None:
            node[name] = {}
        node = node[name]
        if not isinstance(node, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
    node[key] = value


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """Merge the flags into the config document, then build the config once."""
    raw = _read_document(args.config) if args.config else {}
    flags = {
        "mode": args.mode,
        "seed": args.seed,
        "threads": args.threads,
        "dedup.k": args.k,
        "dedup.base_theta": args.theta,
        "normalize.ascii_only": args.ascii_only,
    }
    if args.dictionary:
        flags["translate.kind"] = "dictionary"
        flags["translate.dictionary_path"] = args.dictionary
    if args.rules in ("example", "none"):
        flags["dedup.rules"] = args.rules
    elif args.rules:
        rules = _read_json_or_yaml(args.rules, "rules file")
        if not isinstance(rules, list):
            raise ConfigError("rules file must contain a list of rule objects")
        flags["dedup.rules"] = rules
    if args.paper_strict:
        flags.update(_PAPER_STRICT)
    for dotted, value in flags.items():
        if value is not None:
            _overlay(raw, dotted, value)
    return config_from_dict(raw)


def _cmd_ingest(args, config: PipelineConfig) -> int:
    postings = stage_ingest(args.input, args.format, args.out)
    write_json(corpus_stats(postings, tokenize), Path(args.out) / "corpus_stats.json")
    print(f"ingested {len(postings)} postings into {args.out}/{POSTINGS_FILE}")
    return 0


def _cmd_normalize(args, config: PipelineConfig) -> int:
    canonicals = stage_normalize(config, args.out)
    print(f"normalized {len(canonicals)} postings")
    return 0


def _cmd_translate(args, config: PipelineConfig) -> int:
    texts = stage_translate(config, args.out)
    print(f"translated {len(texts)} representative texts")
    return 0


def _cmd_embed(args, config: PipelineConfig) -> int:
    embedded = stage_embed(config, args.out)
    print(f"embedded {len(embedded)} non-empty representatives")
    return 0


def _cmd_index(args, config: PipelineConfig) -> int:
    index = stage_index(config, args.out)
    print(f"built {index.kind} index over {len(index)} vectors")
    return 0


def _cmd_dedup(args, config: PipelineConfig) -> int:
    outdir = Path(args.out)
    # Through `pipeline`, where a tracer finds every name the chain calls.
    if args.input:
        postings = pipeline.load_postings(args.input, args.format)
    else:
        postings = pipeline.load_postings(outdir / POSTINGS_FILE)
    result = run_pipeline(postings, config)
    write_run(result, outdir)
    print(
        f"wrote {len(result.pairs)} labeled pairs to {outdir / RESULTS_FILE} "
        f"(labels: {result.report['label_counts']})"
    )
    return 0


def _cmd_eval(args, config: PipelineConfig) -> int:
    results_path = Path(args.results or Path(args.out) / RESULTS_FILE)
    gold_path = Path(args.gold or Path(args.out) / GOLD_FILE)
    predicted = read_results_csv(results_path)
    gold = GoldSet.load_csv(gold_path)
    scores = score(predicted, gold)
    out_path = Path(args.out) / EVAL_FILE
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(scores, out_path)
    print(render_report(None, scores, format="text"), end="")
    print(f"wrote {out_path}")
    return 0


def _cmd_synth(args, config: PipelineConfig) -> int:
    from .synth import DupPlan, synth_corpus

    plan = DupPlan(
        full_rate=args.full_rate,
        semantic_rate=args.semantic_rate,
        temporal_rate=args.temporal_rate,
        hard_semantic_fraction=args.hard_semantic_fraction,
    )
    result = synth_corpus(
        args.n_base, plan, seed=config.seed, embed_dim=config.embed.dim
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_postings(result.postings, outdir / POSTINGS_FILE)
    result.gold.save_csv(outdir / GOLD_FILE)
    write_json(result.translation_dict, outdir / DICTIONARY_FILE, indent=0, sort_keys=True)
    print(
        f"synthesized {len(result.postings)} postings "
        f"({len(result.gold)} gold pairs) into {outdir}"
    )
    return 0


def _cmd_report(args, config: PipelineConfig) -> int:
    run_path = Path(args.run or Path(args.out) / REPORT_FILE)
    run = read_json(run_path)
    if not isinstance(run, dict):
        raise DataError(f"malformed run report {run_path}: expected a JSON object")
    scores = None
    eval_path = Path(args.eval or Path(args.out) / EVAL_FILE)
    if args.eval or eval_path.exists():  # a file named by --eval must exist
        scores = read_json(eval_path)
        try:
            render_report(None, scores)  # every value must render
            for name, entry in scores.items():
                if name != "macro_f1" and set(entry) != set(SCORE_KEYS):
                    raise ValueError(f"class {name!r} must hold exactly {', '.join(SCORE_KEYS)}")
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise DataError(f"malformed eval report {eval_path}: {err!r}") from err
    try:
        text = render_report(run, scores, format=args.format)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"malformed run report {run_path}: {err!r}") from err
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postdedup",
        description="Batch duplicate detection for multilingual text corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus file and store the postings artifact")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_ingest)

    for name, func, help_text in (
        ("normalize", _cmd_normalize, "clean postings and fingerprint them"),
        ("translate", _cmd_translate, "translate group representatives"),
        ("embed", _cmd_embed, "embed translated representatives"),
        ("index", _cmd_index, "build the configured index over the embeddings; writes no file"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("dedup", help="label the duplicate pairs of a corpus")
    p.add_argument("--input", help=f"corpus file to read instead of <out>/{POSTINGS_FILE}")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_dedup)

    p = sub.add_parser("eval", help="score results against a gold pair file")
    p.add_argument("--results", help=f"defaults to <out>/{RESULTS_FILE}")
    p.add_argument("--gold", help=f"defaults to <out>/{GOLD_FILE}")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus with gold labels")
    p.add_argument("--n-base", type=int, default=500)
    p.add_argument("--full-rate", type=float, default=0.15)
    p.add_argument("--semantic-rate", type=float, default=0.15)
    p.add_argument("--temporal-rate", type=float, default=0.10)
    p.add_argument("--hard-semantic-fraction", type=float, default=0.0)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="render run and eval reports")
    p.add_argument("--run", help=f"defaults to <out>/{REPORT_FILE}")
    p.add_argument("--eval", help=f"must exist if named; defaults to <out>/{EVAL_FILE} if any")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command reads the config, so a broken one fails each alike.
        return args.func(args, _config_from_args(args))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as err:
        print(f"backend error: {err}", file=sys.stderr)
        return EXIT_BACKEND
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except DedupError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
