"""Candidate-pair generation, thresholding, expert rules, and classification.

Candidate pairs come straight from one k-NN search of the embeddings
against the index built from them (`collect_hits`, a self-join by id
rank), and travel as arrays (`CandidatePairs`), canonically ordered
(id_a < id_b) and unordered-unique; expert rules are matched over them as
one boolean mask per rule, never pair by pair, reading the postings given
aligned with the pairs' names by place. Thresholds are strict: a
pair at exactly the threshold is excluded. A pair receives exactly one
label; differing retrieval dates make an otherwise full or semantic
duplicate TEMPORAL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .corpus import Posting
from .errors import ConfigError, NoMatchingRule
from .index import FlatIndex, VectorIndex


class DuplicateLabel(Enum):
    FULL = "FULL"
    SEMANTIC = "SEMANTIC"
    TEMPORAL = "TEMPORAL"


_COMPANY_MODES = ("same", "different", "any_missing", "any")
_LANGUAGE_MODES = ("same", "different", "any")
_ACTIONS = ("threshold", "reject")


@dataclass(frozen=True)
class ExpertRule:
    """Metadata-conditioned override of the distance threshold.

    Rules are evaluated in order and the first match wins; a pair that no
    rule matches is an error, so a ruleset normally ends with a catch-all
    default. Company and location comparisons treat a missing value on
    either side as matching only `any_missing` (or `any`); an empty string
    is a value like any other. A missing or empty language tag compares as
    the value "und".
    """

    company: str = "any"
    language: str = "any"
    location: str = "any"
    action: str = "threshold"
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.company not in _COMPANY_MODES:
            raise ConfigError(f"bad company matcher {self.company!r}")
        if self.language not in _LANGUAGE_MODES:
            raise ConfigError(f"bad language matcher {self.language!r}")
        if self.location not in _COMPANY_MODES:
            raise ConfigError(f"bad location matcher {self.location!r}")
        if self.action not in _ACTIONS:
            raise ConfigError(f"bad rule action {self.action!r}")
        if self.action == "threshold":
            if self.threshold is None or not 0.0 < self.threshold <= 2.0:
                raise ConfigError("threshold action needs a threshold in (0, 2]")
        elif self.threshold is not None:
            raise ConfigError("reject action takes no threshold")

    @property
    def is_catch_all(self) -> bool:
        return self.company == "any" and self.language == "any" and self.location == "any"


def example_ruleset(base_theta: float) -> list[ExpertRule]:
    """Documented default ruleset; the override values are engine defaults.

    Same company and location relaxes the threshold to 0.30; same company
    across languages to 0.28; pairs with all metadata missing and everything
    else fall back to the base threshold.
    """
    return [
        ExpertRule(company="same", location="same", action="threshold", threshold=0.30),
        ExpertRule(company="same", language="different", action="threshold", threshold=0.28),
        ExpertRule(
            company="any_missing", location="any_missing", action="threshold", threshold=base_theta
        ),
        default_rule(base_theta),
    ]


def default_rule(base_theta: float) -> ExpertRule:
    return ExpertRule(action="threshold", threshold=base_theta)


@dataclass(frozen=True, eq=False)
class CandidatePairs:
    """Unordered candidate pairs as arrays, sorted by (id_a, id_b).

    Pair i is `(names[lo[i]], names[hi[i]])` at `distances[i]`; `names` is
    sorted, so lo < hi means id_a < id_b.
    """

    names: list[str]
    lo: np.ndarray  # int64 indexes into names
    hi: np.ndarray  # int64 indexes into names
    distances: np.ndarray  # float64 true L2

    def __len__(self) -> int:
        return int(self.lo.size)


def collect_hits(
    index: VectorIndex,
    queries: FlatIndex,
    k: int = 100,
    threads: int = 1,
    radius: float = math.inf,
) -> tuple[CandidatePairs, np.ndarray]:
    """Candidate pairs of a self-join, and each query's k-th hit distance.

    `queries` holds the same ids as `index` (the embeddings the index was
    built from), else ValueError. A query's hits are its k nearest rows
    at a distance under `radius`, its own row excluded. Those are exactly
    the k-NN hits under `radius`, bit for bit, so every threshold and
    sweep at or under it counts the same pairs, and every saturated query
    is still found; the index re-ranks only the rows that can lie under
    `radius` (see `postdedup.index`). Queries may fan out over threads;
    results are identical for any thread count.

    The hits come as the flat arrays of one `index.self_join_arrays(k +
    1, radius)` call, so the memory they take follows the hits found, not
    k. The pairs are the union of every query's hits, with names
    `sorted(index.ids)`; a pair found from both ends keeps the distance of
    its first hit in the index's row order (both ends compute the same
    bits). `kth[q]` is the distance of the k-th hit of `queries.ids[q]`,
    inf where it has fewer than k.
    """
    names = sorted(index.ids)
    if sorted(queries.ids) != names:
        raise ValueError("collect_hits is a self-join: queries must hold the index's ids")
    qi, rows, d = index.self_join_arrays(k + 1, radius, threads=threads)
    under = d < radius
    qi, rows, d = qi[under], rows[under], d[under]
    # Each hit as (query row, query's id rank, row's id rank, distance), in
    # query order, then ascending within a query; the own row is the hit
    # of equal rank.
    a, b = index._id_ranks[qi], index._id_ranks[rows]
    other = a != b
    qi, a, b, d = qi[other], a[other], b[other], d[other]
    # qi ascends, so a hit's place among its query's hits is its offset
    # from the query's first hit.
    place = np.arange(qi.size) - np.searchsorted(qi, qi)
    kth = np.full(len(names), np.inf)  # by id rank
    last = place == k - 1
    kth[a[last]] = d[last]
    keep = place < k
    a, b, d = a[keep], b[keep], d[keep]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    n = len(names)
    codes, first = np.unique(lo * n + hi, return_index=True)
    return CandidatePairs(names, codes // n, codes % n, d[first]), kth[queries._id_ranks]


def threshold_sweep(
    distances: np.ndarray, thetas: Sequence[float], total: int
) -> list[tuple[float, int, float]]:
    """Per threshold of an ascending list: the count of `distances` strictly
    under it, and that count's share of `total`."""
    if list(thetas) != sorted(thetas):
        raise ValueError("thetas must be sorted ascending")
    distances = np.sort(np.asarray(distances, dtype=np.float64))
    kept = np.searchsorted(distances, np.asarray(thetas, dtype=np.float64), side="left")
    return [
        (theta, int(n), int(n) / total if total else 0.0) for theta, n in zip(thetas, kept)
    ]


def choose_theta(sweep_rows: Sequence[tuple[float, int, float]]) -> float:
    """Pick a threshold from a sweep: the midpoint of the widest flat stretch.

    A wide range of thresholds over which the kept count does not grow
    marks the gap between the duplicate cluster and the non-duplicate
    cloud; flat stretches that keep nothing are only used as a fallback.
    """
    if not sweep_rows:
        raise ValueError("cannot choose a threshold from an empty sweep")
    if len(sweep_rows) == 1:
        return sweep_rows[0][0]
    runs: list[tuple[float, float, int]] = []  # (theta_start, theta_end, count)
    start_theta, current = sweep_rows[0][0], sweep_rows[0][1]
    last_theta = start_theta
    for theta, count, _ in sweep_rows[1:]:
        if count != current:
            runs.append((start_theta, last_theta, current))
            start_theta, current = theta, count
        last_theta = theta
    runs.append((start_theta, last_theta, current))
    candidates = [r for r in runs if r[2] > 0] or runs
    best = max(candidates, key=lambda r: r[1] - r[0])
    return (best[0] + best[1]) / 2


@dataclass(frozen=True, eq=False)
class KeptPairs:
    """The candidate pairs the rules keep, and the index of the rule that kept each one."""

    pairs: CandidatePairs
    rule_indices: np.ndarray  # int64, aligned with pairs

    def __len__(self) -> int:
        return len(self.pairs)


def _codes(values: Sequence[Optional[str]]) -> np.ndarray:
    """One int64 code per value, equal codes for equal values; None is -1."""
    table: dict[str, int] = {}
    return np.array(
        [-1 if v is None else table.setdefault(v, len(table)) for v in values], dtype=np.int64
    )


def _field_mask(mode: str, codes: np.ndarray, pairs: CandidatePairs) -> np.ndarray:
    """Which pairs a matcher mode accepts, from per-name codes (-1 missing)."""
    a, b = codes[pairs.lo], codes[pairs.hi]
    missing = (a < 0) | (b < 0)
    if mode == "any_missing":
        return missing
    return ~missing & ((a == b) if mode == "same" else (a != b))


def apply_rules_detailed(
    pairs: CandidatePairs,
    postings: Sequence[Posting],
    rules: Sequence[ExpertRule] | None,
    base_theta: float,
) -> KeptPairs:
    """Kept pairs, in (id_a, id_b) order, with the index of the rule that kept each one.

    `postings[i]` is the posting of `pairs.names[i]`. An empty ruleset
    degenerates to a single default rule at base_theta. Each pair is
    matched by the first rule whose matchers all accept it and kept iff
    its distance is strictly under that rule's threshold (never, for
    `reject`). A pair that no rule matches raises NoMatchingRule, naming
    the first such pair.
    """
    if len(postings) != len(pairs.names):
        raise ValueError("postings must be aligned with the pairs' names")
    rules = list(rules) if rules else [default_rule(base_theta)]
    fields = {
        "company": _codes([p.company for p in postings]),
        "location": _codes([p.location for p in postings]),
        "language": _codes([p.language or "und" for p in postings]),
    }
    masks = np.ones((len(rules), len(pairs)), dtype=bool)
    for mask, rule in zip(masks, rules):
        for name, codes in fields.items():
            mode = getattr(rule, name)
            if mode != "any":
                mask &= _field_mask(mode, codes, pairs)
    unmatched = ~masks.any(axis=0)
    if unmatched.any():
        i = int(np.argmax(unmatched))
        key = (pairs.names[pairs.lo[i]], pairs.names[pairs.hi[i]])
        raise NoMatchingRule(f"no rule matched pair {key}; add a terminal default rule")
    first = masks.argmax(axis=0)
    thresholds = np.array(
        [rule.threshold if rule.action == "threshold" else -np.inf for rule in rules],
        dtype=np.float64,
    )
    kept = np.flatnonzero(pairs.distances < thresholds[first])
    return KeptPairs(
        CandidatePairs(pairs.names, pairs.lo[kept], pairs.hi[kept], pairs.distances[kept]),
        first[kept],
    )


# The code of each label in label arrays: its place in DuplicateLabel.
_FULL, _SEMANTIC, _TEMPORAL = range(len(DuplicateLabel))


def classify(same_text: bool, day_a: np.ndarray, day_b: np.ndarray) -> np.ndarray:
    """Label codes of duplicate pairs from their members' retrieval days:
    shared canonical text (one exact group) makes FULL, a kept pair across
    two groups SEMANTIC, and differing days turn either into TEMPORAL."""
    same_day = _FULL if same_text else _SEMANTIC
    return np.where(day_a != day_b, _TEMPORAL, same_day).astype(np.int8)


def saturation_report(query_ids: Sequence[str], kth: np.ndarray, theta: float, k: int) -> dict:
    """The queries whose whole k-NN list sits under theta: the `saturation`
    document of the run report.

    A query is saturated iff its k-th hit (`kth`, inf for fewer than k hits)
    is under theta. For these the k cap, not the threshold, limited the
    matches, so true duplicates beyond the k-th neighbor may have been cut off.
    """
    flags = (kth < theta).tolist()
    saturated = sorted(vid for vid, flag in zip(query_ids, flags) if flag)
    return {"k": k, "theta": theta, "count": len(saturated), "saturated_ids": saturated}


__all__ = [
    "DuplicateLabel",
    "ExpertRule",
    "example_ruleset",
    "default_rule",
    "CandidatePairs",
    "KeptPairs",
    "collect_hits",
    "threshold_sweep",
    "choose_theta",
    "apply_rules_detailed",
    "classify",
    "saturation_report",
]
