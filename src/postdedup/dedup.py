"""Candidate-pair generation, thresholding, expert rules, and classification.

Pairs are always canonically ordered (id_a < id_b) and unordered-unique.
Thresholds are strict: a pair at exactly the threshold is excluded. A pair
receives exactly one label; differing retrieval dates make an otherwise
full or semantic duplicate TEMPORAL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .corpus import Posting
from .errors import ConfigError, NoMatchingRule, UnknownId
from .index import VectorIndex


class DuplicateLabel(Enum):
    FULL = "FULL"
    SEMANTIC = "SEMANTIC"
    TEMPORAL = "TEMPORAL"
    NONE = "NONE"


@dataclass(frozen=True)
class CandidatePair:
    id_a: str
    id_b: str
    distance: float

    def __post_init__(self) -> None:
        if self.id_a >= self.id_b:
            raise ValueError(f"pair ids must satisfy id_a < id_b, got {self.id_a!r}, {self.id_b!r}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.id_a, self.id_b)


@dataclass(frozen=True)
class LabeledPair:
    id_a: str
    id_b: str
    label: DuplicateLabel
    distance: Optional[float]
    reason: str  # "exact_fingerprint" | "semantic_threshold" | "rule(<index>)"

    @property
    def key(self) -> tuple[str, str]:
        return (self.id_a, self.id_b)


_COMPANY_MODES = ("same", "different", "any_missing", "any")
_LANGUAGE_MODES = ("same", "different", "any")
_ACTIONS = ("threshold", "reject")


@dataclass(frozen=True)
class ExpertRule:
    """Metadata-conditioned override of the distance threshold.

    Rules are evaluated in order and the first match wins; a ruleset must
    end with a catch-all default. Company and location comparisons treat a
    missing value on either side as matching only `any_missing` (or `any`);
    a missing language tag compares as the value "und".
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

    def matches(self, a: Posting, b: Posting) -> bool:
        return (
            _optional_match(self.company, a.company, b.company)
            and _language_match(self.language, a.language, b.language)
            and _optional_match(self.location, a.location, b.location)
        )

    def to_dict(self) -> dict:
        out = {
            "company": self.company,
            "language": self.language,
            "location": self.location,
            "action": self.action,
        }
        if self.threshold is not None:
            out["threshold"] = self.threshold
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExpertRule":
        known = {"company", "language", "location", "action", "threshold"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown rule keys: {sorted(unknown)}")
        return cls(**raw)


def _optional_match(mode: str, va: Optional[str], vb: Optional[str]) -> bool:
    if mode == "any":
        return True
    missing = va is None or vb is None
    if mode == "any_missing":
        return missing
    if missing:
        return False
    return (va == vb) if mode == "same" else (va != vb)


def _language_match(mode: str, va: Optional[str], vb: Optional[str]) -> bool:
    if mode == "any":
        return True
    la, lb = va or "und", vb or "und"
    return (la == lb) if mode == "same" else (la != lb)


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
class KnnHits:
    """Each query's k nearest neighbors, its own id excluded, as arrays.

    Row i belongs to `query_ids[i]`: `rows[i]` indexes `ids` (-1 where the
    query has fewer than k hits) and `distances[i]` holds the true L2
    distances (inf there), ascending with ties by id.
    """

    query_ids: list[str]
    ids: Sequence[str]
    rows: np.ndarray  # (n, k) int64
    distances: np.ndarray  # (n, k) float64

    def __len__(self) -> int:
        return len(self.query_ids)

    @classmethod
    def empty(cls, k: int) -> "KnnHits":
        return cls([], [], np.empty((0, k), dtype=np.int64), np.empty((0, k)))


def collect_hits(
    index: VectorIndex, vectors: Sequence[tuple[str, object]], k: int = 100, threads: int = 1
) -> KnnHits:
    """Per-query k-NN hits with the query's own id excluded.

    Queries may fan out over threads; results are identical for any
    thread count.
    """
    query_ids = [vid for vid, _ in vectors]
    rows, distances = index.search_arrays([vec for _, vec in vectors], k + 1, threads=threads)
    row_of = {vid: i for i, vid in enumerate(index.ids)}
    own = np.array([row_of.get(vid, -2) for vid in query_ids], dtype=np.int64)
    # Move each query's own row (matched by id) behind its other hits, then
    # keep k: the (k+1)-th hit drops where the query did not find itself.
    keep = np.argsort(rows == own[:, None], axis=1, kind="stable")[:, :k]
    return KnnHits(
        query_ids,
        index.ids,
        np.take_along_axis(rows, keep, axis=1),
        np.take_along_axis(distances, keep, axis=1),
    )


@dataclass(frozen=True, eq=False)
class CandidatePairs:
    """Unordered candidate pairs as arrays, sorted by (id_a, id_b).

    Pair i is `(names[lo[i]], names[hi[i]])` at `distances[i]`; `names` is
    sorted, so lo < hi means id_a < id_b. Iterating yields CandidatePair.
    """

    names: list[str]
    lo: np.ndarray
    hi: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return int(self.lo.size)

    def __getitem__(self, i: int) -> CandidatePair:
        return CandidatePair(
            self.names[self.lo[i]], self.names[self.hi[i]], float(self.distances[i])
        )

    def __iter__(self) -> Iterator[CandidatePair]:
        return (self[i] for i in range(len(self)))

    @classmethod
    def from_pairs(cls, pairs: Iterable[CandidatePair]) -> "CandidatePairs":
        if isinstance(pairs, CandidatePairs):
            return pairs
        pairs = list(pairs)
        names = sorted({p.id_a for p in pairs} | {p.id_b for p in pairs})
        rank = {name: i for i, name in enumerate(names)}
        lo = np.array([rank[p.id_a] for p in pairs], dtype=np.int64)
        hi = np.array([rank[p.id_b] for p in pairs], dtype=np.int64)
        order = np.lexsort((hi, lo))
        distances = np.array([p.distance for p in pairs], dtype=np.float64)
        return cls(names, lo[order], hi[order], distances[order])


def pairs_from_hits(hits: KnnHits) -> CandidatePairs:
    """Union of per-query hits as unordered, deduplicated pairs.

    A pair found from both ends keeps the distance of its first hit in
    query order (both ends compute the same bits).
    """
    names = sorted(set(hits.query_ids).union(hits.ids))
    rank = {name: i for i, name in enumerate(names)}
    query_rank = np.array([rank[vid] for vid in hits.query_ids], dtype=np.int64)
    row_rank = np.array([rank[vid] for vid in hits.ids], dtype=np.int64)
    found = hits.rows >= 0
    a = np.broadcast_to(query_rank[:, None], hits.rows.shape)[found]
    b = row_rank[hits.rows[found]]
    distances = hits.distances[found]
    distinct = a != b
    a, b, distances = a[distinct], b[distinct], distances[distinct]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    codes, first = np.unique(lo * len(names) + hi, return_index=True)
    return CandidatePairs(names, codes // len(names), codes % len(names), distances[first])


def threshold_sweep(
    pairs: Iterable[CandidatePair], thetas: Sequence[float]
) -> list[tuple[float, int, float]]:
    """Kept-pair counts and fractions for an ascending list of thresholds."""
    if list(thetas) != sorted(thetas):
        raise ValueError("thetas must be sorted ascending")
    distances = np.sort(CandidatePairs.from_pairs(pairs).distances)
    total = distances.size
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


def match_rule(
    pair: CandidatePair, postings_by_id: Mapping[str, Posting], rules: Sequence[ExpertRule]
) -> tuple[int, ExpertRule]:
    try:
        a = postings_by_id[pair.id_a]
        b = postings_by_id[pair.id_b]
    except KeyError as err:
        raise UnknownId(str(err.args[0])) from err
    for rule_index, rule in enumerate(rules):
        if rule.matches(a, b):
            return rule_index, rule
    raise NoMatchingRule(f"no rule matched pair {pair.key}; add a terminal default rule")


def apply_rules_detailed(
    pairs: Iterable[CandidatePair],
    postings_by_id: Mapping[str, Posting],
    rules: Sequence[ExpertRule] | None,
    base_theta: float,
) -> list[tuple[CandidatePair, int]]:
    """Kept pairs, in (id_a, id_b) order, with the index of the rule that kept each one.

    An empty ruleset degenerates to a single default rule at base_theta.
    A non-empty ruleset is expected to end with a catch-all; a pair that no
    rule matches raises NoMatchingRule.
    """
    pairs = CandidatePairs.from_pairs(pairs)
    rules = list(rules) if rules else [default_rule(base_theta)]
    if any(rule.is_catch_all for rule in rules):
        # Every pair matches some rule, so a pair at or over the largest
        # threshold is dropped whichever rule it matches: only the pairs
        # under it need matching. Unknown ids still fail, as they would there.
        used = np.zeros(len(pairs.names), dtype=bool)
        used[pairs.lo] = True
        used[pairs.hi] = True
        for i in np.flatnonzero(used).tolist():
            if pairs.names[i] not in postings_by_id:
                raise UnknownId(pairs.names[i])
        limit = max((r.threshold for r in rules if r.action == "threshold"), default=-np.inf)
        candidates = np.flatnonzero(pairs.distances < limit).tolist()
    else:
        candidates = range(len(pairs))
    kept: list[tuple[CandidatePair, int]] = []
    for i in candidates:
        pair = pairs[i]
        rule_index, rule = match_rule(pair, postings_by_id, rules)
        if rule.action == "reject":
            continue
        assert rule.threshold is not None
        if pair.distance < rule.threshold:
            kept.append((pair, rule_index))
    return kept


def apply_rules(
    pairs: Iterable[CandidatePair],
    postings_by_id: Mapping[str, Posting],
    rules: Sequence[ExpertRule] | None,
    base_theta: float,
) -> set[CandidatePair]:
    """First matching rule decides: keep under its threshold, or reject."""
    return {pair for pair, _ in apply_rules_detailed(pairs, postings_by_id, rules, base_theta)}


def classify(
    id_a: str,
    id_b: str,
    postings_by_id: Mapping[str, Posting],
    fingerprints_by_id: Mapping[str, str],
    semantic_pass: bool,
) -> DuplicateLabel:
    """Label a pair: exact fingerprints make FULL, passing the semantic
    filter makes SEMANTIC, and differing retrieval dates turn either into
    TEMPORAL."""
    for posting_id in (id_a, id_b):
        if posting_id not in postings_by_id or posting_id not in fingerprints_by_id:
            raise UnknownId(posting_id)
    same_date = postings_by_id[id_a].retrieval_date == postings_by_id[id_b].retrieval_date
    if fingerprints_by_id[id_a] == fingerprints_by_id[id_b]:
        return DuplicateLabel.FULL if same_date else DuplicateLabel.TEMPORAL
    if semantic_pass:
        return DuplicateLabel.SEMANTIC if same_date else DuplicateLabel.TEMPORAL
    return DuplicateLabel.NONE


@dataclass(frozen=True)
class SaturationReport:
    """Queries whose whole k-NN list sits under the threshold.

    For these, the k cap (not the threshold) limited the matches, so true
    duplicates beyond the k-th neighbor may have been cut off.
    """

    k: int
    theta: float
    saturated_ids: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.saturated_ids)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "theta": self.theta,
            "count": self.count,
            "saturated_ids": list(self.saturated_ids),
        }


def saturation_report(hits: KnnHits, theta: float, k: int) -> SaturationReport:
    """A query is saturated iff it has exactly k hits and the k-th is under theta."""
    if k > hits.rows.shape[1]:
        return SaturationReport(k=k, theta=theta)
    full = (hits.rows >= 0).sum(axis=1) == k
    flags = full & (hits.distances[:, k - 1] < theta)
    saturated = [vid for vid, flag in zip(hits.query_ids, flags.tolist()) if flag]
    return SaturationReport(k=k, theta=theta, saturated_ids=sorted(saturated))


__all__ = [
    "DuplicateLabel",
    "CandidatePair",
    "LabeledPair",
    "ExpertRule",
    "example_ruleset",
    "default_rule",
    "KnnHits",
    "CandidatePairs",
    "collect_hits",
    "pairs_from_hits",
    "threshold_sweep",
    "choose_theta",
    "match_rule",
    "apply_rules",
    "apply_rules_detailed",
    "classify",
    "SaturationReport",
    "saturation_report",
]
