from __future__ import annotations

import ast
import json
from collections import Counter
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from postdedup import corpus
from postdedup.corpus import (
    Posting,
    corpus_stats,
    load_postings,
    pair_count,
    parse_date,
    save_postings,
)
from postdedup.embed import tokenize
from postdedup.errors import DataError, DuplicateId, MalformedRecord, MissingRequiredField

from conftest import make_posting

FULL_RECORD = {
    "id": "a1",
    "title": "Chef de Cuisine",
    "description": "Run the kitchen",
    "company": "arbeta group",
    "location": "cork",
    "country": "IE",
    "language": "en",
    "retrieval_date": "2024-03-01",
    "source": "jobnet",
}


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_load_single_jsonl_record(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [FULL_RECORD])
    postings = load_postings(path)
    assert len(postings) == 1
    assert postings[0].id == "a1"
    assert postings[0].retrieval_date == date(2024, 3, 1)
    assert postings[0].company == "arbeta group"


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    other = {**FULL_RECORD, "id": "b2"}
    write_jsonl(path, [FULL_RECORD, other, other, FULL_RECORD])
    with pytest.raises(DuplicateId) as err:
        load_postings(path)
    assert err.value.posting_id == "b2"
    # The repeated record's file:line, and the line where the id came first.
    assert str(err.value) == f"duplicate posting id 'b2' at {path}:3 (first at line 2)"


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_postings(path) == []


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(FULL_RECORD) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_postings(path)
    assert err.value.line_no == 2


# Pieces of a JSON string: escaped backslashes, quotes and characters, high
# and low surrogate escapes alone and as a pair, and text that follows an
# escaped backslash as a surrogate escape would.
_JSON_PIECES = [
    "a", "é", "\\\\", '\\"', "\\u00e9", "\\ud800", "\\uDBFF", "\\udc00", "\\uDFFF",
    "\\ud83d\\ude00", "u", "d800",
]


@given(st.lists(st.sampled_from(_JSON_PIECES), max_size=8))
def test_parse_json_rejects_exactly_the_strings_holding_a_lone_surrogate(pieces):
    text = '{"k": "' + "".join(pieces) + '"}'
    value = json.loads(text)["k"]
    if any("\ud800" <= char <= "\udfff" for char in value):
        with pytest.raises(json.JSONDecodeError, match="lone surrogate"):
            corpus.parse_json(text)
    else:
        assert corpus.parse_json(text) == {"k": value}


def test_missing_required_field(tmp_path):
    path = tmp_path / "corpus.jsonl"
    record = dict(FULL_RECORD)
    del record["source"]
    write_jsonl(path, [record])
    with pytest.raises(MissingRequiredField):
        load_postings(path)


def test_both_title_and_description_empty_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    record = dict(FULL_RECORD, title="", description=None)
    write_jsonl(path, [record])
    with pytest.raises(MissingRequiredField):
        load_postings(path)


def test_optional_fields_null_or_absent_mean_missing(tmp_path):
    path = tmp_path / "corpus.jsonl"
    record = dict(FULL_RECORD, company=None)
    del record["location"]
    write_jsonl(path, [record])
    posting = load_postings(path)[0]
    assert posting.company is None
    assert posting.location is None


def test_datetime_truncated_to_date():
    assert parse_date("2024-05-01T12:33:00") == date(2024, 5, 1)
    assert parse_date("2024-05-01T12:33:00Z") == date(2024, 5, 1)
    with pytest.raises(ValueError):
        parse_date("not-a-date")


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [FULL_RECORD])
    with pytest.raises(DataError):
        load_postings(path, format="parquet")


def test_jsonl_round_trip(tmp_path):
    records = [
        FULL_RECORD,
        dict(FULL_RECORD, id="a2", company=None, language=None),
        dict(FULL_RECORD, id="a3", title="", description="body only"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    postings = load_postings(path)
    out = tmp_path / "again.jsonl"
    save_postings(postings, out)
    assert load_postings(out) == postings


def test_csv_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [FULL_RECORD, dict(FULL_RECORD, id="a2", company=None)])
    postings = load_postings(path)
    csv_path = tmp_path / "corpus.csv"
    save_postings(postings, csv_path, format="csv")
    assert load_postings(csv_path, format="csv") == postings


def test_csv_empty_cell_means_missing(tmp_path):
    csv_path = tmp_path / "corpus.csv"
    csv_path.write_text(
        "id,title,description,company,location,country,language,retrieval_date,source\n"
        'a1,"Chef, senior",kitchen,,,IE,en,2024-03-01,jobnet\n',
        encoding="utf-8",
    )
    posting = load_postings(csv_path, format="csv")[0]
    assert posting.title == "Chef, senior"
    assert posting.company is None
    assert posting.location is None


def test_language_histogram_counts():
    postings = [
        make_posting("a", language="de"),
        make_posting("b", language="de"),
        make_posting("c", language="en"),
    ]
    stats = corpus_stats(postings, tokenize)
    assert stats["language_histogram"] == {"de": 2, "en": 1}


def test_missing_language_bucketed_as_und():
    stats = corpus_stats([make_posting("a")], tokenize)
    assert stats["language_histogram"] == {"und": 1}


def test_missing_company_fraction():
    stats = corpus_stats([make_posting("a", company=None)], tokenize)
    assert stats["missing_company_fraction"] == 1.0


def test_stats_on_empty_corpus():
    stats = corpus_stats([], tokenize)
    assert stats["n_postings"] == 0
    assert stats["missing_company_fraction"] == 0.0


def test_histogram_totals_match_single_pass_oracle():
    # Independent oracle: plain Counter over the same inputs.
    import random

    rng = random.Random(99)
    languages = ["en", "de", "fr", "lt", None]
    postings = [
        make_posting(
            f"p{i:05d}",
            title="word " * rng.randint(1, 6),
            description="token " * rng.randint(0, 1200),
            language=rng.choice(languages),
            company="arbeta group" if rng.random() < 0.75 else None,
            location="cork" if rng.random() < 0.5 else None,
        )
        for i in range(10_000)
    ]
    stats = corpus_stats(postings, tokenize)

    oracle_langs: Counter[str] = Counter()
    oracle_missing_company = 0
    for p in postings:
        oracle_langs[p.language or "und"] += 1
        oracle_missing_company += p.company is None
    assert stats["n_postings"] == 10_000
    assert stats["language_histogram"] == dict(sorted(oracle_langs.items()))
    assert sum(stats["language_histogram"].values()) == 10_000
    assert sum(stats["token_count_histogram"].values()) == 10_000
    assert stats["missing_company_fraction"] == oracle_missing_company / 10_000


def test_pair_count_known_values():
    assert pair_count(112_000) == 6_271_944_000
    assert pair_count(61_500) == 1_891_094_250
    assert pair_count(1) == 0
    assert pair_count(0) == 0


def test_pair_count_negative_rejected():
    with pytest.raises(ValueError):
        pair_count(-1)


def test_pair_count_huge_exact():
    n = 10**9
    assert pair_count(n) == n * (n - 1) // 2


def test_dedup_reduction_ratio():
    reduction = 1 - pair_count(61_500) / pair_count(112_000)
    assert abs(reduction - 0.70) < 0.002  # within 0.2 percentage points


@given(st.integers(min_value=0, max_value=10**12))
def test_pair_count_telescopes(n):
    assert pair_count(n + 1) - pair_count(n) == n


def _text_reads(tree: ast.AST) -> list[int]:
    """Lines of `open(..., encoding=...)` in a read mode and of `.read_text(...)` calls."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "read_text":
            lines.append(node.lineno)
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open" and any(kw.arg == "encoding" for kw in node.keywords):
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            mode = modes[0] if modes else ast.Constant("r")
            if isinstance(mode, ast.Constant) and not set("wax") & set(mode.value):
                lines.append(node.lineno)
    return lines


def test_only_the_reader_opens_files_for_text_reading():
    src = Path(corpus.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    assert len(_text_reads(trees.pop("corpus.py"))) == 1  # `_lines`
    assert {name: lines for name, tree in trees.items() if (lines := _text_reads(tree))} == {}
