"""Text cleaning and exact-duplicate grouping.

The cleaning pipeline runs five steps in a fixed order: strip HTML tags,
decode character references, split camelCase boundaries, filter the
character set, collapse repeated punctuation and whitespace. The composed
pipeline is applied until the text stops changing, which makes
`clean_text` idempotent even when one step uncovers work for an earlier
one (e.g. filtering "&am™p;" down to "&amp;").

A canonical text is the cleaned text itself, a plain `str` that keeps its
case. Exact groups (`group_exact`) are keyed by the lowercased text, so
capitalization-only variants share a group and no two different texts can;
they name their members by place in id order, the first place the
representative. `fingerprint_text` hashes a text only for the readers of
`canonical.jsonl`.
"""

from __future__ import annotations

import functools
import hashlib
import html.entities
import re
import unicodedata
from dataclasses import dataclass
from typing import Callable, Sequence

DEFAULT_KEEP_PUNCT = frozenset('.,;:!?()/-&\'+%"')

# A hard ceiling on pipeline passes; real inputs converge in 2-3.
_MAX_PASSES = 32

_TAG_RE = re.compile(r"<[^>]*>")
_ENTITY_RE = re.compile(r"&(#[0-9]+|#[xX][0-9a-fA-F]+|[a-zA-Z][a-zA-Z0-9]*);")
# A character that is neither whitespace nor alphanumeric: in `re`, \w is
# exactly str.isalnum() plus "_" and \s exactly str.isspace(), which is
# also what str.split() and str.strip() split and trim on.
_PUNCT = r"[^\w\s]|_"


@dataclass(frozen=True)
class NormalizeConfig:
    ascii_only: bool = False
    keep_punct: frozenset[str] = DEFAULT_KEEP_PUNCT


def strip_html(text: str) -> str:
    """Replace every complete `<`...`>` span with one space.

    A `<` with no closing `>` before end of string is left verbatim, so
    plain-text inequalities like "3 < 4" survive.
    """
    return _TAG_RE.sub(" ", text)


def _decode_reference(match: re.Match) -> str:
    body = match.group(1)
    if body.startswith("#"):
        try:
            code_point = int(body[2:], 16) if body[1] in "xX" else int(body[1:])
        except ValueError:
            return match.group(0)
        # Reject surrogates and out-of-range values rather than emitting
        # text that cannot be UTF-8 encoded.
        if 0 <= code_point <= 0x10FFFF and not 0xD800 <= code_point <= 0xDFFF:
            return chr(code_point)
        return match.group(0)
    return html.entities.html5.get(body + ";", match.group(0))


def decode_entities(text: str) -> str:
    """Decode named and numeric HTML character references to code points.

    Only semicolon-terminated references are decoded; unknown references
    (and legacy semicolon-less forms) pass through verbatim. Decoding
    repeats until the text is stable so that doubly-escaped input
    ("&amp;amp;") canonicalizes the same as its visible form.
    """
    while True:
        decoded = _ENTITY_RE.sub(_decode_reference, text)
        if decoded == text:
            return decoded
        text = decoded


class _CodePointTable(dict):
    """A `str.translate` table that fills itself: the first lookup of a code
    point runs `rule` on its character and keeps the answer.

    Every entry is the rule's own answer for that code point, so translating
    through the table gives what a loop calling `rule` per character would.
    """

    def __init__(self, rule: Callable[[str], str | None]) -> None:
        super().__init__()
        self._rule = rule

    def __missing__(self, code_point: int) -> str | None:
        value = self[code_point] = self._rule(chr(code_point))
        return value


def _case_class(ch: str) -> str:
    return "l" if ch.islower() else "u" if ch.isupper() else "."


_CASE_CLASSES = _CodePointTable(_case_class)
_LOWER_UPPER_RE = re.compile("lu")


def split_camel_case(text: str) -> str:
    """Insert a space between each lowercase letter followed by an uppercase one.

    The text is mapped to one case class per character ("l", "u" or "."),
    and every "lu" in that string is a cut point. Two "lu" cannot overlap,
    so scanning for them finds every cut.
    """
    cuts = [m.start() + 1 for m in _LOWER_UPPER_RE.finditer(text.translate(_CASE_CLASSES))]
    if not cuts:
        return text
    bounds = [0, *cuts, len(text)]
    return " ".join(text[a:b] for a, b in zip(bounds, bounds[1:]))


@functools.lru_cache(maxsize=16)
def _charset_table(ascii_only: bool, keep_punct: frozenset[str]) -> _CodePointTable:
    def keep(ch: str) -> str | None:
        if ch in keep_punct:
            return ch
        if ch.isspace():
            return ch if not ascii_only or ch.isascii() else None
        if ascii_only:
            return ch if ch.isascii() and ch.isalnum() else None
        if not unicodedata.category(ch).startswith("C") and (ch.isalpha() or ch.isdigit()):
            return ch
        return None

    return _CodePointTable(keep)


def filter_charset(
    text: str, ascii_only: bool = False, keep_punct: frozenset[str] = DEFAULT_KEEP_PUNCT
) -> str:
    """Drop characters outside letters, digits, whitespace, and keep_punct.

    With ascii_only, letters/digits/whitespace are restricted to ASCII.
    Whitespace (including tabs and newlines) is kept in both modes and
    collapsed later; non-whitespace control and format characters are
    always removed. Removal deletes the character without inserting a
    space. One `str.translate` call does the work, through a table per
    (ascii_only, keep_punct) that learns each code point's verdict on
    first sight.
    """
    if not keep_punct:
        raise ValueError("keep_punct must not be empty")
    return text.translate(_charset_table(ascii_only, frozenset(keep_punct)))


@functools.lru_cache(maxsize=16)
def _punct_run_re(keep_punct: frozenset[str]) -> re.Pattern | None:
    """Runs of one punctuation character of `keep_punct`; None if it holds none.

    A class of a few listed characters scans faster than the Unicode
    classes of `_PUNCT`.
    """
    punct = sorted(ch for ch in keep_punct if re.fullmatch(_PUNCT, ch))
    if not punct:
        return None
    return re.compile("([" + "".join(map(re.escape, punct)) + "])\\1+")


def collapse_punct_and_ws(text: str, keep_punct: frozenset[str]) -> str:
    """Collapse runs of one punctuation character to one, whitespace to one space, trim.

    Only runs of `keep_punct`'s punctuation collapse, which are all the
    runs of punctuation in a `filter_charset` output with that `keep_punct`.
    """
    pattern = _punct_run_re(frozenset(keep_punct))
    if pattern is not None:
        text = pattern.sub(r"\1", text)
    return " ".join(text.split())


def _pipeline_once(text: str, config: NormalizeConfig) -> str:
    text = strip_html(text)
    text = decode_entities(text)
    text = split_camel_case(text)
    text = filter_charset(text, config.ascii_only, config.keep_punct)
    return collapse_punct_and_ws(text, config.keep_punct)


def clean_text(text: str, config: NormalizeConfig | None = None) -> str:
    """Run the full cleaning pipeline to a fixed point."""
    config = config or NormalizeConfig()
    for _ in range(_MAX_PASSES):
        cleaned = _pipeline_once(text, config)
        if cleaned == text:
            return cleaned
        text = cleaned
    return text


def fingerprint_text(text: str) -> str:
    """128-bit case-insensitive fingerprint, stable across runs and platforms."""
    return hashlib.md5(text.lower().encode("utf-8")).hexdigest()


def canonicalize(posting, config: NormalizeConfig | None = None) -> str:
    """The canonical text of a posting: `title + " " + description`, cleaned.

    It keeps case; `group_exact` lowercases it, so capitalization-only
    variants land in the same exact group.
    """
    return clean_text((posting.title or "") + " " + (posting.description or ""), config)


def group_exact(texts: Sequence[str]) -> list[list[int]]:
    """Partition canonical texts, given in id order, by lowercased text; singletons included.

    A group is the ascending places of its members in `texts`: the first is
    its representative, the smallest id, and groups come in its order. An
    empty text is a group of its own, keyed by its place: a posting that
    cleans to nothing shares no text with another.
    """
    by_text: dict[str | int, list[int]] = {}
    for place, text in enumerate(texts):
        by_text.setdefault(text.lower() if text else place, []).append(place)
    return list(by_text.values())


__all__ = [
    "DEFAULT_KEEP_PUNCT",
    "NormalizeConfig",
    "strip_html",
    "decode_entities",
    "split_camel_case",
    "filter_charset",
    "collapse_punct_and_ws",
    "clean_text",
    "fingerprint_text",
    "canonicalize",
    "group_exact",
]
