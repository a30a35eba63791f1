"""Plain reference implementations that tests compare the program against.

`expand_pairs` is the expansion of kept representative pairs and exact
groups into labeled member pairs, written one object per pair: every pair
of each group, every member pair of each kept pair, a label per pair from
its two dates, and one sort at the end. `results_csv_bytes` writes its rows
one `writerow` at a time, as `results.csv` holds them.
"""

from __future__ import annotations

import csv
import io
from itertools import combinations, product

from postdedup.dedup import DuplicateLabel

from conftest import ResultRow, pair_triples


def expand_pairs(kept, rules, groups, postings) -> list[ResultRow]:
    """The labeled member pairs of exact groups and kept pairs, sorted by (id_a, id_b)."""
    members = {g.representative_id: sorted(g.member_ids) for g in groups}
    dates = {p.id: p.retrieval_date for p in postings}

    def label(same_text: bool, id_a: str, id_b: str) -> DuplicateLabel:
        if dates[id_a] != dates[id_b]:
            return DuplicateLabel.TEMPORAL
        return DuplicateLabel.FULL if same_text else DuplicateLabel.SEMANTIC

    rows = []
    for ids in members.values():
        for id_a, id_b in combinations(ids, 2):
            rows.append(ResultRow(id_a, id_b, label(True, id_a, id_b), 0.0, "exact_fingerprint"))
    reasons = [
        "semantic_threshold" if rule.is_catch_all else f"rule({i})" for i, rule in enumerate(rules)
    ]
    for (rep_a, rep_b, distance), rule_index in zip(
        pair_triples(kept.pairs), kept.rule_indices.tolist()
    ):
        for ma, mb in product(members[rep_a], members[rep_b]):
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
