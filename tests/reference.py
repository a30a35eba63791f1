"""Plain reference implementations that tests compare the program against.

Each is written one object per posting, group or pair, keyed by id, and
shares no ordering with the program:

- `exact_groups` groups postings by the fingerprint of `canonicalize`; an
  empty text is a group of its own, and a group's smallest id represents it;
- `candidate_triples` finds the candidate pairs of the representatives from
  a full distance matrix of their embeddings, each row's k nearest other
  rows under the search radius, of all rows or of those the row probes in
  an IVF index (`conftest.probed_rows`);
- `per_pair_rules` matches the expert rules pair by pair, the first match
  winning;
- `expand_pairs` expands kept representative pairs and exact groups into
  labeled member pairs: every pair of each group, every member pair of each
  kept pair, a label per pair from its two dates, and one sort at the end;
- `results_csv_bytes` writes rows one `writerow` at a time, as
  `results.csv` holds them.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations, product

import numpy as np

from postdedup.dedup import DuplicateLabel
from postdedup.embed import HashedEmbedder
from postdedup.errors import NoMatchingRule
from postdedup.normalize import canonicalize, fingerprint_text

from conftest import ResultRow, probed_rows


def exact_groups(postings, config=None) -> dict[str, list[str]]:
    """Each exact group's sorted member ids, keyed by its representative."""
    by_key: dict = {}
    for posting in postings:
        text = canonicalize(posting, config)
        key = fingerprint_text(text) if text else ("empty text", posting.id)
        by_key.setdefault(key, []).append(posting.id)
    return {min(ids): sorted(ids) for ids in by_key.values()}


def candidate_triples(postings, config, index=None) -> list[tuple[str, str, float]]:
    """The (id_a, id_b, distance) candidate pairs of a run with identity
    translation and the hashed embedder, sorted.

    Each representative's canonical text is embedded, and the zero rows
    are dropped. Each row takes its k nearest other rows by (float64 d²,
    id), the d² of a pair being the upcast float32 rows' difference,
    squared and summed, and keeps those at a distance under the search
    radius; the pairs are the union over every row. Given the run's
    search `index`, a row takes its k nearest of the rows it probes there.
    """
    by_id = {p.id: p for p in postings}
    reps = sorted(exact_groups(postings, config.normalize))
    texts = [canonicalize(by_id[rep], config.normalize) for rep in reps]
    vectors = HashedEmbedder(config.embed.dim, config.embed.max_tokens).embed_many(texts)
    nonzero = vectors.any(axis=1)
    ids = [rep for rep, keep in zip(reps, nonzero) if keep]
    X = vectors[nonzero].astype(np.float64)
    d2 = np.array([np.square(X - row).sum(axis=1) for row in X])
    k, radius = config.dedup.k, config.dedup.search_radius
    pairs = {}
    for a, row in enumerate(d2.tolist()):
        reach = set(ids) if index is None else _probed_ids(index, ids[a])
        nearest = sorted((e, ids[b]) for b, e in enumerate(row) if b != a and ids[b] in reach)[:k]
        for e, other in nearest:
            if math.sqrt(e) < radius:
                pairs[min(ids[a], other), max(ids[a], other)] = math.sqrt(e)
    return sorted((id_a, id_b, d) for (id_a, id_b), d in pairs.items())


def _probed_ids(index, vid: str) -> set[str]:
    """The ids of the rows that the row of `vid` probes in `index`."""
    row = index.vectors[index.ids.index(vid)]
    return {index.ids[r] for r in probed_rows(index, row).tolist()}


def _optional_match(mode, va, vb) -> bool:
    if mode == "any":
        return True
    missing = va is None or vb is None
    if mode == "any_missing":
        return missing
    if missing:
        return False
    return (va == vb) if mode == "same" else (va != vb)


def _language_match(mode, va, vb) -> bool:
    if mode == "any":
        return True
    la, lb = va or "und", vb or "und"
    return (la == lb) if mode == "same" else (la != lb)


def per_pair_rules(triples, postings_by_id, rules):
    """Kept (id_a, id_b, distance) triples and rule indices, one pair at a time.

    Pairs go in (id_a, id_b) order, each to the first rule that matches
    it, and are kept strictly under that rule's threshold.
    """
    kept = []
    for a, b, d in sorted(triples):
        pa, pb = postings_by_id[a], postings_by_id[b]
        for index, rule in enumerate(rules):
            if (
                _optional_match(rule.company, pa.company, pb.company)
                and _language_match(rule.language, pa.language, pb.language)
                and _optional_match(rule.location, pa.location, pb.location)
            ):
                break
        else:
            raise NoMatchingRule(f"no rule matched pair {(a, b)}; add a terminal default rule")
        if rule.action == "threshold" and d < rule.threshold:
            kept.append(((a, b, d), index))
    return kept


def expand_pairs(kept, rules, groups, postings) -> list[ResultRow]:
    """The labeled member pairs of exact groups and of kept pairs (as
    `per_pair_rules` gives them), sorted by (id_a, id_b)."""
    dates = {p.id: p.retrieval_date for p in postings}

    def label(same_text: bool, id_a: str, id_b: str) -> DuplicateLabel:
        if dates[id_a] != dates[id_b]:
            return DuplicateLabel.TEMPORAL
        return DuplicateLabel.FULL if same_text else DuplicateLabel.SEMANTIC

    rows = []
    for ids in groups.values():
        for id_a, id_b in combinations(ids, 2):
            rows.append(ResultRow(id_a, id_b, label(True, id_a, id_b), 0.0, "exact_fingerprint"))
    reasons = [
        "semantic_threshold" if rule.is_catch_all else f"rule({i})" for i, rule in enumerate(rules)
    ]
    for (rep_a, rep_b, distance), rule_index in kept:
        for ma, mb in product(groups[rep_a], groups[rep_b]):
            id_a, id_b = (ma, mb) if ma < mb else (mb, ma)
            rows.append(
                ResultRow(id_a, id_b, label(False, id_a, id_b), distance, reasons[rule_index])
            )
    rows.sort(key=lambda row: row.key)
    return rows


def results_csv_bytes(rows) -> bytes:
    """The bytes of a `results.csv` holding `rows` in their order."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["id1", "id2", "label", "distance", "reason"])
    for row in rows:
        writer.writerow([row.id_a, row.id_b, row.label.value, repr(row.distance), row.reason])
    return out.getvalue().encode("utf-8")
