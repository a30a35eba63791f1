"""The reader of every input file; corpus loading, validation, pair counts,
and the `corpus_stats.json` document that `ingest` writes (`corpus_stats`)."""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .atomic import atomic_write
from .errors import DataError, DedupError, DuplicateId, MalformedRecord, MissingRequiredField

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


def _posting_from_record(record: dict, path: str | Path, line_no: int) -> Posting:
    for field in _COLUMNS:
        if not isinstance(record.get(field), (str, type(None))):
            raise MalformedRecord(path, line_no, f"field {field!r} must be a string or null")
    for field in ("id", "retrieval_date", "source"):
        if not record.get(field):
            raise MissingRequiredField(field, path, line_no)
    title = record.get("title") or ""
    description = record.get("description") or ""
    if not title and not description:
        raise MissingRequiredField("title/description", path, line_no)
    try:
        retrieval_date = parse_date(record["retrieval_date"])
    except ValueError as err:
        raise MalformedRecord(path, line_no, str(err)) from err
    return Posting(
        id=record["id"],
        title=title,
        description=description,
        retrieval_date=retrieval_date,
        source=record["source"],
        **{k: record.get(k) or None for k in _OPTIONAL_FIELDS},
    )


# --- the reader of every input file ------------------------------------------
#
# Every file the program reads as text is read by the functions below, and
# every decision about bad input is made in them: a file that cannot be
# opened, a byte that is not UTF-8, a line that is not JSON or not an object,
# and the line each error names. Decoding with "surrogateescape" turns each
# byte that is not UTF-8 into one of U+DC80..U+DCFF, which valid UTF-8 never
# decodes to, so the first such character is the first bad byte of the file.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _lines(path: str | Path, error: type[DedupError]) -> Iterator[tuple[int, str]]:
    """(line number, line) of a UTF-8 text file, lines split at \\n, \\r\\n or \\r.

    A file that cannot be opened or a byte that is not UTF-8 raises `error`.
    """
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as err:
        raise error(f"cannot read {path}: {err.strerror or err}") from err
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and (bad := _NOT_UTF8.search(line)):
                byte = ord(bad.group()) - 0xDC00
                raise error(f"byte {byte:#04x} is not UTF-8 at {path}:{line_no}")
            yield line_no, line


def read_text(path: str | Path, error: type[DedupError]) -> str:
    """The whole text of a UTF-8 document (config, rules, dictionary, report).

    The error class follows what the file is: ConfigError for a file the
    configuration names, DataError for data and artifacts.
    """
    return "".join(line for _, line in _lines(path, error))


# A JSON string, an opening or closing bracket, or a line break.
_JSON_NESTING = re.compile(r'"(?:[^"\\\n]|\\.)*"|[\[{]|[\]}]|\n')


def _deepest_line(text: str) -> int:
    """The line on which the brackets of a JSON text first nest deepest."""
    depth = deepest = 0
    line = at = 1
    for token in _JSON_NESTING.finditer(text):
        char = token.group()
        if char == "\n":
            line += 1
        elif char in "[{":
            depth += 1
            if depth > deepest:
                deepest, at = depth, line
        elif char in "]}":
            depth -= 1
    return at


_JSON_ESCAPE = re.compile(r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|(u[dD][89a-fA-F]..)|.)")


def parse_json(text: str):
    """`json.loads`, but a lone surrogate escape raises JSONDecodeError at
    its place: no UTF-8 file can hold the string it makes. The text is
    decoded UTF-8, so holds no surrogate itself, and in valid JSON each
    backslash starts an escape: a pair, a lone surrogate (group 1) or another."""
    value = json.loads(text)
    if "\\ud" in text or "\\uD" in text:
        for escape in _JSON_ESCAPE.finditer(text):
            if escape.group(1):
                lone = f"lone surrogate \\{escape.group(1)}"
                raise json.JSONDecodeError(lone, text, escape.start())
    return value


def read_json(path: str | Path, error: type[DedupError] = DataError):
    """The value of a JSON document; text that is not JSON raises `error` at `path:line`.

    Nesting too deep for the parser is named at the line where it is deepest.
    """
    text = read_text(path, error)
    try:
        return parse_json(text)
    except json.JSONDecodeError as err:
        raise error(f"malformed JSON at {path}:{err.lineno}: {err.msg}") from err
    except RecursionError as err:
        raise error(f"JSON nested too deeply at {path}:{_deepest_line(text)}") from err


def jsonl_records(path: str | Path) -> Iterator[tuple[dict, int]]:
    """Each record of a JSONL file with its line number; blank lines are skipped.

    A line that is not a JSON object, or nests too deeply to parse, is a
    MalformedRecord.
    """
    for line_no, line in _lines(path, DataError):
        if line.isspace():
            continue
        try:
            record = parse_json(line)
        except json.JSONDecodeError as err:
            raise MalformedRecord(path, line_no, err.msg) from err
        except RecursionError as err:
            raise MalformedRecord(path, line_no, "JSON nested too deeply") from err
        if not isinstance(record, dict):
            raise MalformedRecord(path, line_no, "expected a JSON object")
        yield record, line_no


def csv_records(
    path: str | Path, columns: Sequence[str] | None = None
) -> Iterator[tuple[dict, int]]:
    """Each row of a CSV file as a dict keyed by the header, with the line it starts on.

    Cells are comma-separated and double-quote escaped, and a quoted cell may
    span lines; blank lines are skipped and a short row lacks the keys of its
    missing cells. A header name outside `columns` (when given) or named
    twice, a row with more cells than the header or text the csv module
    rejects is a MalformedRecord.
    """
    reader = csv.reader(line for _, line in _lines(path, DataError))
    try:
        header = next(reader, None)
        if header is None:
            return
        if columns is not None and (unknown := set(header) - set(columns)):
            raise MalformedRecord(path, 1, f"unknown columns: {sorted(unknown)}")
        if repeated := sorted({name for name in header if header.count(name) > 1}):
            raise MalformedRecord(path, 1, f"repeated columns: {repeated}")
        end = reader.line_num
        for row in reader:
            start, end = end + 1, reader.line_num
            if len(row) > len(header):
                raise MalformedRecord(path, start, "row has more cells than the header")
            if row:
                yield dict(zip(header, row)), start
    except csv.Error as err:
        raise MalformedRecord(path, reader.line_num, str(err)) from err


def load_postings(path: str | Path, format: str = "jsonl") -> list[Posting]:
    """Load and validate a corpus file; order is preserved.

    JSONL: one object per line; absent or null optional keys mean missing.
    CSV: header row required, empty cells mean missing (see `csv_records`).
    """
    if format == "jsonl":
        records = jsonl_records(path)
    elif format == "csv":
        records = csv_records(path, _COLUMNS)
    else:
        raise DataError(f"unknown corpus format {format!r}")

    postings: list[Posting] = []
    first_line: dict[str, int] = {}
    for record, line_no in records:
        posting = _posting_from_record(record, path, line_no)
        first = first_line.setdefault(posting.id, line_no)
        if first != line_no:
            raise DuplicateId(posting.id, f"at {path}:{line_no} (first at line {first})")
        postings.append(posting)
    return postings


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


def corpus_stats(postings: list[Posting], tokenizer: Callable[[str], list[str]]) -> dict:
    """The `corpus_stats.json` document: language mix, per-posting token
    counts, and field missingness.

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
    return {
        "n_postings": n,
        "language_histogram": dict(sorted(languages.items())),
        "token_count_histogram": dict(sorted(token_buckets.items())),
        "missing_company_fraction": missing_company / n if n else 0.0,
        "missing_location_fraction": missing_location / n if n else 0.0,
    }


def pair_count(n: int) -> int:
    """Number of unordered pairs among n items: n*(n-1)/2, exact at any scale."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n * (n - 1) // 2


__all__ = [
    "Posting",
    "parse_date",
    "read_text",
    "parse_json",
    "read_json",
    "jsonl_records",
    "csv_records",
    "load_postings",
    "save_postings",
    "corpus_stats",
    "pair_count",
]
