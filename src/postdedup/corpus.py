"""Corpus loading, validation, summary statistics, and pair-count arithmetic."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Iterable, Optional

from .atomic import atomic_write
from .errors import DataError, DuplicateId, MalformedRecord, MissingRequiredField

_OPTIONAL_FIELDS = ("company", "location", "country", "language")
_COLUMNS = (
    "id",
    "title",
    "description",
    "company",
    "location",
    "country",
    "language",
    "retrieval_date",
    "source",
)


@dataclass(frozen=True)
class Posting:
    """One corpus record: a single scraped job advertisement."""

    id: str
    title: str
    description: str
    retrieval_date: date
    source: str
    company: Optional[str] = None
    location: Optional[str] = None
    country: Optional[str] = None
    language: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "description": self.description,
            "company": self.company,
            "location": self.location,
            "country": self.country,
            "language": self.language,
            "retrieval_date": self.retrieval_date.isoformat(),
            "source": self.source,
        }


@dataclass(frozen=True)
class CorpusStats:
    """Per-corpus summary: language mix, token-count histogram, missingness."""

    n_postings: int
    language_histogram: dict[str, int]
    token_count_histogram: dict[str, int]
    missing_company_fraction: float
    missing_location_fraction: float

    def to_dict(self) -> dict:
        return {
            "n_postings": self.n_postings,
            "language_histogram": dict(self.language_histogram),
            "token_count_histogram": dict(self.token_count_histogram),
            "missing_company_fraction": self.missing_company_fraction,
            "missing_location_fraction": self.missing_location_fraction,
        }


def parse_date(value: str) -> date:
    """Parse an ISO-8601 date, truncating any time component to the day."""
    value = value.strip()
    try:
        return date.fromisoformat(value)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00")).date()
    except ValueError as err:
        raise ValueError(f"not an ISO-8601 date: {value!r}") from err


def _posting_from_record(record: dict, line_no: int) -> Posting:
    for field in ("id", "retrieval_date", "source"):
        if record.get(field) in (None, ""):
            raise MissingRequiredField(field, line_no)
    title = record.get("title") or ""
    description = record.get("description") or ""
    if not title and not description:
        raise MissingRequiredField("title/description", line_no)
    try:
        retrieval_date = parse_date(str(record["retrieval_date"]))
    except ValueError as err:
        raise MalformedRecord(line_no, str(err)) from err
    optional = {k: (record.get(k) or None) for k in _OPTIONAL_FIELDS}
    return Posting(
        id=str(record["id"]),
        title=str(title),
        description=str(description),
        retrieval_date=retrieval_date,
        source=str(record["source"]),
        **optional,
    )


def _iter_jsonl_records(path: Path) -> Iterable[tuple[dict, int]]:
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise MalformedRecord(line_no, err.msg) from err
            if not isinstance(record, dict):
                raise MalformedRecord(line_no, "expected a JSON object")
            yield record, line_no


def _iter_csv_records(path: Path) -> Iterable[tuple[dict, int]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return
        unknown = set(reader.fieldnames) - set(_COLUMNS)
        if unknown:
            raise MalformedRecord(1, f"unknown columns: {sorted(unknown)}")
        for line_no, row in enumerate(reader, start=2):
            if row.get(None):
                raise MalformedRecord(line_no, "row has more cells than the header")
            yield {k: v for k, v in row.items() if k is not None}, line_no


def load_postings(path: str | Path, format: str = "jsonl") -> list[Posting]:
    """Load and validate a corpus file; order is preserved.

    JSONL: one object per line; absent or null optional keys mean missing.
    CSV: comma-separated, double-quote escaped, header row required; empty
    cells mean missing.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")
    if format == "jsonl":
        records = _iter_jsonl_records(path)
    elif format == "csv":
        records = _iter_csv_records(path)
    else:
        raise DataError(f"unknown corpus format {format!r}")

    postings: list[Posting] = []
    seen: set[str] = set()
    try:
        for record, line_no in records:
            posting = _posting_from_record(record, line_no)
            if posting.id in seen:
                raise DuplicateId(posting.id)
            seen.add(posting.id)
            postings.append(posting)
    except UnicodeDecodeError as err:
        raise not_utf8(path) from err
    return postings


def not_utf8(path: str | Path) -> DataError:
    """The error for a text file holding bytes that are not UTF-8.

    It names the line of the first such byte, counting lines as the text
    readers split them (at \\n, \\r\\n or \\r). A text reader decodes
    in chunks, so where its UnicodeDecodeError is raised says nothing of
    the line; the file is read again to find it.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start].decode("utf-8")
        line_no = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return DataError(f"byte {data[err.start]:#04x} is not UTF-8 at {path}:{line_no}")
    return DataError(f"bytes that are not UTF-8 in {path}")  # changed since it was read


def save_postings(postings: Iterable[Posting], path: str | Path, format: str = "jsonl") -> None:
    """Write postings in a form that `load_postings` reads back identically."""
    path = Path(path)
    if format == "jsonl":
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for posting in postings:
                fh.write(json.dumps(posting.to_dict(), ensure_ascii=False) + "\n")
    elif format == "csv":
        with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(_COLUMNS))
            writer.writeheader()
            for posting in postings:
                row = posting.to_dict()
                writer.writerow({k: ("" if row[k] is None else row[k]) for k in _COLUMNS})
    else:
        raise DataError(f"unknown corpus format {format!r}")


def _token_bucket(count: int) -> str:
    if count >= 1000:
        return "1000+"
    lo = (count // 100) * 100
    return f"{lo}-{lo + 99}"


def corpus_stats(postings: list[Posting], tokenizer: Callable[[str], list[str]]) -> CorpusStats:
    """Summarize language mix, per-posting token counts, and field missingness.

    Postings without a language tag are bucketed under "und"; histogram
    counts always sum to the number of postings.
    """
    languages: Counter[str] = Counter()
    token_buckets: Counter[str] = Counter()
    missing_company = 0
    missing_location = 0
    for posting in postings:
        languages[posting.language or "und"] += 1
        n_tokens = len(tokenizer(posting.title + " " + posting.description))
        token_buckets[_token_bucket(n_tokens)] += 1
        missing_company += posting.company is None
        missing_location += posting.location is None
    n = len(postings)
    return CorpusStats(
        n_postings=n,
        language_histogram=dict(sorted(languages.items())),
        token_count_histogram=dict(sorted(token_buckets.items())),
        missing_company_fraction=missing_company / n if n else 0.0,
        missing_location_fraction=missing_location / n if n else 0.0,
    )


def pair_count(n: int) -> int:
    """Number of unordered pairs among n items: n*(n-1)/2, exact at any scale."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n * (n - 1) // 2


__all__ = [
    "Posting",
    "CorpusStats",
    "parse_date",
    "load_postings",
    "save_postings",
    "corpus_stats",
    "pair_count",
]
