"""Pair-level per-class precision/recall/F1 scoring and report rendering.

Scoring is competition-style over a sparse gold set assumed complete:
a predicted pair absent from gold counts as a false positive for its
predicted class, and 0/0 precision or recall is defined as 0. `score`
returns the `eval.json` document itself, and `render_report` reads the run
report and the scores as the mappings they are written as.

`gold.csv` and `results.csv` are pair files, read by one row reader
(`_read_pairs`) into the mapping `score` takes: a row with an unknown label,
ids that do not ascend or a pair listed twice is a MalformedRecord naming
`file:line`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .atomic import atomic_write
from .corpus import csv_records
from .dedup import DuplicateLabel
from .errors import DataError, MalformedRecord

if TYPE_CHECKING:
    from .pipeline import PipelineResult


# The columns of a results file; a gold file has the first three.
_PAIR_COLUMNS = ("id1", "id2", "label", "distance", "reason")


@dataclass(frozen=True)
class GoldSet:
    """Canonical-keyed map of the true duplicate pairs, each with its label;
    a pair that is no duplicate is absent."""

    pairs: Mapping[tuple[str, str], DuplicateLabel]

    def __post_init__(self) -> None:
        for id_a, id_b in self.pairs:
            if id_a >= id_b:
                raise DataError(f"gold key ({id_a!r}, {id_b!r}) is not canonically ordered")

    def __len__(self) -> int:
        return len(self.pairs)

    def save_csv(self, path: str | Path) -> None:
        with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_PAIR_COLUMNS[:3])
            for (id_a, id_b), label in sorted(self.pairs.items()):
                writer.writerow([id_a, id_b, label.value])

    @classmethod
    def load_csv(cls, path: str | Path) -> "GoldSet":
        return cls(_read_pairs(path, "gold"))


# The keys of each class entry of `eval.json`, in the order they are written.
SCORE_KEYS = ("precision", "recall", "f1", "tp", "fp", "fn")


def score(predicted: Mapping[tuple[str, str], DuplicateLabel], gold: GoldSet) -> dict:
    """The `eval.json` document: per class, its precision, recall, f1, tp, fp
    and fn against gold (0/0 ratios are 0), then `macro_f1` over the classes."""
    scores: dict = {}
    f1s = []
    for cls in DuplicateLabel:
        tp = sum(
            1
            for key, label in predicted.items()
            if label == cls and gold.pairs.get(key) == cls
        )
        fp = sum(1 for label in predicted.values() if label == cls) - tp
        fn = sum(1 for label in gold.pairs.values() if label == cls) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores[cls.value] = dict(zip(SCORE_KEYS, (precision, recall, f1, tp, fp, fn)))
        f1s.append(f1)
    scores["macro_f1"] = sum(f1s) / len(f1s)
    return scores


# Rows per `writerows` call: the Python values of one chunk are alive at once.
_WRITE_CHUNK = 65536


def write_results_csv(result: PipelineResult, path: str | Path) -> None:
    """Results file: id1,id2,label,distance,reason, one row per pair of
    `result` in its order, which is (id1, id2)."""
    pairs, names, reason_names = result.pairs, result.pairs.names, result.reason_names
    label_names = [label.value for label in DuplicateLabel]
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PAIR_COLUMNS)
        for start in range(0, len(pairs), _WRITE_CHUNK):
            rows = slice(start, start + _WRITE_CHUNK)
            writer.writerows(
                zip(
                    map(names.__getitem__, pairs.lo[rows].tolist()),
                    map(names.__getitem__, pairs.hi[rows].tolist()),
                    map(label_names.__getitem__, result.labels[rows].tolist()),
                    map(repr, pairs.distances[rows].tolist()),
                    map(reason_names.__getitem__, result.reasons[rows].tolist()),
                )
            )


def _read_pairs(path: str | Path, what: str) -> dict:
    """The label of each pair of a pair file, keyed by (id1, id2); `what` is
    "gold" or "results", whose rows also hold a distance and a reason.

    A file whose first line is not a header naming id1, id2 and label (an
    empty file included) is a MalformedRecord at `file:1`; a header alone
    is a file of no pairs. A row whose fields do not parse (an unknown
    label, a missing cell, a non-empty distance that is no number), whose
    ids do not ascend, or that lists a pair a second time is a
    MalformedRecord naming `file:line`.
    """
    pairs: dict[tuple[str, str], DuplicateLabel] = {}
    for row, line_no in csv_records(path, required=_PAIR_COLUMNS[:3]):
        try:
            key = (row["id1"], row["id2"])
            label = DuplicateLabel(row["label"])
            if what == "results":
                distance, _ = row["distance"], row["reason"]  # both cells present
                if distance:
                    float(distance)
        except (KeyError, ValueError) as err:
            raise MalformedRecord(path, line_no, f"{what} row {err!r}") from err
        if key[0] >= key[1]:
            raise MalformedRecord(path, line_no, f"{what} ids {key} do not ascend")
        if key in pairs:
            raise MalformedRecord(path, line_no, f"{what} pair {key} listed twice")
        pairs[key] = label
    return pairs


def read_results_csv(path: str | Path) -> dict[tuple[str, str], DuplicateLabel]:
    """The label of each pair of a results file, keyed by (id1, id2)."""
    return _read_pairs(path, "results")


def render_report(run: Mapping | None, scores: Mapping | None = None, format: str = "text") -> str:
    """Render the run report (and optional `eval.json` scores) as text or JSON.

    The JSON form is the exact serialization of the report mappings, so
    reparsing it reproduces the input field for field.
    """
    run = dict(run) if run else {}
    if format == "json":
        document: dict = {"run": run}
        if scores is not None:
            document["eval"] = scores
        return json.dumps(document, indent=2)
    if format != "text":
        raise DataError(f"unknown report format {format!r}")

    lines = []
    if run:
        lines.append("== Run ==")
        for key in ("mode", "k", "base_theta", "search_radius", "n_postings", "n_groups"):
            if key in run:
                lines.append(f"{key}: {run[key]}")
        if run.get("stage_seconds"):
            lines.append("-- stage timings (s) --")
            for stage, seconds in run["stage_seconds"].items():
                lines.append(f"{stage:>12}: {seconds:.3f}")
        if run.get("counters"):
            lines.append("-- counters --")
            for name, value in run["counters"].items():
                lines.append(f"{name}: {value}")
        if run.get("label_counts"):
            lines.append("-- labels --")
            for name, value in run["label_counts"].items():
                lines.append(f"{name}: {value}")
        if run.get("rule_kept"):
            lines.append("-- kept per rule --")
            for index, kept in enumerate(run["rule_kept"]):
                lines.append(f"rule({index}): {kept}")
        if run.get("ivf_list_sizes"):
            sizes = run["ivf_list_sizes"]
            lines.append("-- ivf list sizes --")
            lines.append(f"min {sizes['min']}, median {sizes['median']}, max {sizes['max']}")
        if run.get("ivf_kmeans_iterations") is not None:
            lines.append(f"ivf k-means iterations: {run['ivf_kmeans_iterations']}")
        if run.get("truncation"):
            t = run["truncation"]
            lines.append("-- truncation --")
            lines.append(
                f"truncated {t['n_truncated']}/{t['n_total']} "
                f"(fraction {t['fraction_truncated']:.3f}), "
                f"mean lost {t['mean_tokens_lost']:.1f}, median lost {t['median_tokens_lost']:.1f}"
            )
        if run.get("saturation"):
            s = run["saturation"]
            lines.append("-- saturation --")
            lines.append(f"{s['count']} queries with all {s['k']} hits under {s['theta']}")
        if run.get("sweep"):
            lines.append("-- threshold sweep --")
            lines.append(f"{'theta':>8} {'kept':>8} {'fraction':>9}")
            for theta, kept, fraction in run["sweep"]:
                lines.append(f"{theta:>8.3f} {kept:>8d} {fraction:>9.2e}")
    if scores is not None:
        lines.append("== Evaluation ==")
        lines.append(f"{'class':>9} {'precision':>10} {'recall':>8} {'f1':>8} {'tp':>6} {'fp':>6} {'fn':>6}")
        for name, m in scores.items():
            if name != "macro_f1":
                lines.append(
                    f"{name:>9} {m['precision']:>10.4f} {m['recall']:>8.4f} {m['f1']:>8.4f} "
                    f"{m['tp']:>6d} {m['fp']:>6d} {m['fn']:>6d}"
                )
        lines.append(f"macro F1: {scores['macro_f1']:.4f}")
    return "\n".join(lines) + "\n"


__all__ = [
    "GoldSet",
    "SCORE_KEYS",
    "score",
    "write_results_csv",
    "read_results_csv",
    "render_report",
]
