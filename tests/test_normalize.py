from __future__ import annotations

import random
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postdedup.normalize import (
    DEFAULT_KEEP_PUNCT,
    NormalizeConfig,
    canonicalize,
    clean_text,
    collapse_punct_and_ws,
    decode_entities,
    filter_charset,
    fingerprint_text,
    group_exact,
    split_camel_case,
    strip_html,
)

from conftest import make_posting


class TestStripHtml:
    def test_tags_become_spaces(self):
        assert strip_html("<br>Chef</b>") == " Chef "

    def test_self_closing_tag(self):
        assert strip_html("a<br/>b") == "a b"

    def test_unclosed_angle_left_verbatim(self):
        assert strip_html("3 < 4") == "3 < 4"


class TestDecodeEntities:
    def test_named_reference(self):
        assert decode_entities("Fl&amp;M") == "Fl&M"

    def test_numeric_reference(self):
        assert decode_entities("&#65;BC") == "ABC"

    def test_unknown_reference_verbatim(self):
        assert decode_entities("&notareference;") == "&notareference;"

    def test_double_escaped_decodes_fully(self):
        assert decode_entities("&amp;amp;") == "&"


class TestSplitCamelCase:
    def test_basic_split(self):
        assert split_camel_case("DataEngineer") == "Data Engineer"

    def test_all_caps_untouched(self):
        assert split_camel_case("ABC") == "ABC"

    def test_repeated_boundaries(self):
        assert split_camel_case("endOfAdNextAd") == "end Of Ad Next Ad"


class TestFilterCharset:
    def test_ascii_only_drops_accents(self):
        assert filter_charset("café", ascii_only=True) == "caf"

    def test_unicode_letters_kept_by_default(self):
        assert filter_charset("café", ascii_only=False) == "café"

    def test_symbols_outside_keep_set_dropped(self):
        assert filter_charset("a™b", ascii_only=False) == "ab"

    def test_empty_keep_punct_rejected(self):
        with pytest.raises(ValueError):
            filter_charset("x", keep_punct=frozenset())


class TestCollapse:
    def test_repeated_punct_collapsed(self):
        assert collapse_punct_and_ws("Now!!!  Apply", DEFAULT_KEEP_PUNCT) == "Now! Apply"

    def test_whitespace_collapsed_and_trimmed(self):
        assert collapse_punct_and_ws("  a  b  ", DEFAULT_KEEP_PUNCT) == "a b"

    def test_alternating_punct_not_a_run(self):
        assert collapse_punct_and_ws("?!?!", DEFAULT_KEEP_PUNCT) == "?!?!"

    def test_repeated_letters_kept(self):
        assert collapse_punct_and_ws("jazz!!", DEFAULT_KEEP_PUNCT) == "jazz!"


def test_canonicalize_pipeline_order():
    posting = make_posting(
        "a1", title="<b>Senior DataEngineer</b>", description="Apply&amp;Join!!!"
    )
    assert canonicalize(posting) == "Senior Data Engineer Apply&Join!"


def test_canonicalize_already_clean_is_identity():
    posting = make_posting("a1", title="shift manager", description="run the line")
    assert canonicalize(posting) == "shift manager run the line"


def test_fingerprint_is_stable_and_case_insensitive():
    fp = fingerprint_text("Chef de Cuisine")
    assert fp == fingerprint_text("chef DE cuisine")
    assert len(fp) == 32
    assert int(fp, 16) >= 0


def test_fingerprint_frozen_value():
    # MD5 of the UTF-8 lowercased text, hex-encoded; must never drift.
    assert fingerprint_text("Chef de Cuisine") == "5c1177c649550bb3bb57fb87e6b3dcb1"


def test_clean_text_ascii_mode():
    config = NormalizeConfig(ascii_only=True)
    assert clean_text("café & Bar™", config) == "caf & Bar"


# -- fuzzed idempotence -------------------------------------------------------

from conftest import fuzz_noisy_string


@pytest.mark.parametrize("ascii_only", [False, True])
def test_clean_text_idempotent_on_fuzzed_strings(ascii_only):
    rng = random.Random(2024 + ascii_only)
    config = NormalizeConfig(ascii_only=ascii_only)
    for _ in range(2_000):
        text = fuzz_noisy_string(rng)
        once = clean_text(text, config)
        assert clean_text(once, config) == once


def test_recanonicalizing_a_cleaned_posting_is_stable():
    # rebuilding a posting from cleaned text and canonicalizing again must
    # reproduce the same canonical text
    from conftest import fuzz_noisy_string

    rng = random.Random(77)
    for _ in range(300):
        posting = make_posting("x", title=fuzz_noisy_string(rng), description=fuzz_noisy_string(rng))
        first = canonicalize(posting)
        rebuilt = make_posting("x", title="", description=first)
        assert canonicalize(rebuilt) == first


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_clean_text_idempotent_property(text):
    once = clean_text(text)
    assert clean_text(once) == once


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_canonical_text_has_no_artifacts(text):
    cleaned = clean_text(text)
    assert "  " not in cleaned
    assert cleaned == cleaned.strip()
    assert "<br>" not in cleaned


# -- table-driven steps against per-character loops ---------------------------
#
# The loops below are the reference versions of split_camel_case,
# filter_charset and collapse_punct_and_ws; the library steps must give the
# same strings on any input, including on a second call that reads the
# tables' cached answers.

def split_camel_case_loop(text: str) -> str:
    if len(text) < 2:
        return text
    out = [text[0]]
    for prev, cur in zip(text, text[1:]):
        if prev.islower() and cur.isupper():
            out.append(" ")
        out.append(cur)
    return "".join(out)


def filter_charset_loop(text: str, ascii_only: bool, keep_punct: frozenset[str]) -> str:
    out = []
    for ch in text:
        if ch in keep_punct:
            out.append(ch)
        elif ch.isspace():
            if not ascii_only or ch.isascii():
                out.append(ch)
        elif ascii_only:
            if ch.isascii() and ch.isalnum():
                out.append(ch)
        elif not unicodedata.category(ch).startswith("C") and (ch.isalpha() or ch.isdigit()):
            out.append(ch)
    return "".join(out)


def collapse_loop(text: str) -> str:
    def shrink(match: re.Match) -> str:
        ch = match.group(1)
        return ch if not ch.isalnum() else match.group(0)

    text = re.sub(r"(\S)\1+", shrink, text)
    return re.sub(r"\s+", " ", text).strip()


# Characters where a per-character rule is easy to get subtly wrong:
# control (Cc) and format (Cf) characters, non-BMP letters with case, lone
# surrogates, letters whose case mapping changes length, titlecase and
# numeric letters, circled letters (So with case), Unicode whitespace and
# digits, and the underscore.
_TRICKY = (
    "\x00\x1f\x7f\x85\x9f"  # Cc
    "\u00ad\u200b\u200e\u2066\ufeff"  # Cf
    "\U0001d400\U0001d41a\U00010400\U00010428\U0001f600\U000e0001"  # non-BMP
    "\ud800\udbff\udfff"  # lone surrogates
    "\u0130\u0131\u1e9e\u00df\ufb01"  # İ ı ẞ ß ﬁ
    "\u01c5\u01c8\u01f2\u1f88"  # titlecase
    "\u2160\u2170\u2185"  # Ⅰ ⅰ ↅ
    "\u24b6\u24d0\u24cf"  # Ⓐ ⓐ Ⓩ
    "\u00aa\u00ba\u02b0"  # ª º ʰ
    "\u00a0\u2028\u3000\u1680\t\n\x0b"  # whitespace
    "\u00b2\u00bd\u0663\u09e6"  # digits and numerics
    "_\u00b7\u2014\u2026!!&&"
    "aAzZ09 .,"
)
_TRICKY_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(_TRICKY)), max_size=60
)
_CUSTOM_KEEP_PUNCT = frozenset("\u00b7\u2014\u00df_\u00bf")  # · — ß _ ¿


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=60), _TRICKY_TEXT))
def test_split_camel_case_equals_per_character_loop(text):
    expected = split_camel_case_loop(text)
    assert split_camel_case(text) == expected
    assert split_camel_case(text) == expected  # every class now from the table


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=60), _TRICKY_TEXT))
def test_filter_charset_equals_per_character_loop(text):
    for ascii_only in (False, True):
        for keep_punct in (DEFAULT_KEEP_PUNCT, _CUSTOM_KEEP_PUNCT):
            expected = filter_charset_loop(text, ascii_only, keep_punct)
            assert filter_charset(text, ascii_only, keep_punct) == expected
            assert filter_charset(text, ascii_only, keep_punct) == expected


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=60), _TRICKY_TEXT))
def test_collapse_equals_shrink_callback(text):
    # On `filter_charset` output with the same keep_punct, its precondition.
    for ascii_only in (False, True):
        for keep_punct in (DEFAULT_KEEP_PUNCT, _CUSTOM_KEEP_PUNCT):
            for raw in (text, "".join(ch * 3 for ch in text)):
                filtered = filter_charset(raw, ascii_only, keep_punct)
                assert collapse_punct_and_ws(filtered, keep_punct) == collapse_loop(filtered)


@pytest.mark.parametrize("ascii_only", [False, True])
def test_clean_text_equals_loop_pipeline_on_fuzzed_strings(ascii_only):
    # The pipeline collapses runs of keep_punct's punctuation only; the loop
    # collapses runs of any. The last keep_punct holds "_", a letter and a
    # whitespace character.
    for keep_punct in (DEFAULT_KEEP_PUNCT, _CUSTOM_KEEP_PUNCT, frozenset("_q\u3000")):
        config = NormalizeConfig(ascii_only=ascii_only, keep_punct=keep_punct)

        def clean_loop(text):
            for _ in range(32):
                step = strip_html(text)
                step = decode_entities(step)
                step = split_camel_case_loop(step)
                step = filter_charset_loop(step, ascii_only, keep_punct)
                step = collapse_loop(step)
                if step == text:
                    break
                text = step
            return text

        rng = random.Random(4242 + ascii_only)
        for _ in range(1_000):
            text = fuzz_noisy_string(rng) + rng.choice(_TRICKY) + fuzz_noisy_string(rng)
            assert clean_text(text, config) == clean_loop(text), keep_punct


def test_regex_classes_are_the_str_predicates_on_every_code_point():
    # collapse_punct_and_ws and the tokenizer rely on re's \w and \s meaning
    # str.isalnum() (plus "_") and str.isspace(), which str.split() also
    # splits on.
    alnum = re.compile(r"[^\W_]")
    punct = re.compile(r"[^\w\s]|_")
    space = re.compile(r"\s")
    for code_point in range(0x110000):
        ch = chr(code_point)
        assert bool(space.match(ch)) == ch.isspace(), hex(code_point)
        assert bool(alnum.match(ch)) == ch.isalnum(), hex(code_point)
        assert bool(punct.match(ch)) == (not ch.isspace() and not ch.isalnum()), hex(code_point)


# -- exact grouping -----------------------------------------------------------

def test_group_exact_case_insensitive():
    groups = group_exact(["Chef de Cuisine", "chef de cuisine"])
    assert groups == [[0, 1]]  # places in id order; the first is the representative


def test_group_exact_distinct_texts():
    groups = group_exact(["chef", "baker"])
    assert groups == [[0], [1]]


def test_group_exact_groups_come_in_representative_order():
    texts = ["chef", "", "baker", "Chef", "", "BAKER", "chef"]
    groups = group_exact(texts)
    # Each empty text is a group of its own.
    assert groups == [[0, 3, 6], [1], [2, 5], [4]]


def test_group_exact_matches_all_pairs_equality_oracle():
    # Oracle: the full boolean equality matrix over lowercased texts,
    # vectorized with numpy; groups are rows with identical equality rows.
    rng = random.Random(5)
    base_texts = [f"role {i} in unit {i % 37}" for i in range(800)]
    texts = []
    for i in range(5_000):
        t = rng.choice(base_texts)
        if rng.random() < 0.5:
            t = t.upper() if rng.random() < 0.5 else t.title()
        texts.append(t)
    lowered = np.array([t.lower() for t in texts])
    equal = lowered[:, None] == lowered[None, :]
    oracle_groups = {tuple(np.nonzero(equal[i])[0].tolist()) for i in range(len(texts))}

    groups = group_exact(texts)  # in id order
    assert {tuple(g) for g in groups} == oracle_groups  # each ascending
    # partition: disjoint and covering
    all_places = [place for g in groups for place in g]
    assert sorted(all_places) == list(range(5_000))
    # the representative is the smallest id, and groups come in its order
    assert [g[0] for g in groups] == sorted(g[0] for g in groups)


def test_group_count_never_exceeds_posting_count():
    from postdedup.corpus import pair_count

    texts = [f"text {i % 10}" for i in range(100)]
    groups = group_exact(texts)
    assert pair_count(len(groups)) <= pair_count(len(texts))
