"""Synthetic corpus generator with planted, gold-labeled duplicates.

Every posting is a bag of distinct words drawn from a vocabulary whose
words are chosen to occupy distinct hashed-embedder buckets. With counts
of one and no bucket collisions, the distance between two postings that
differ in s of their T tokens is exactly sqrt(2*s/T) (up to float32
rounding), so planted duplicates can be placed on either side of a
threshold by choosing s:

    T = 50 tokens per posting
    s = 1  ->  d = 0.2000   (easy semantic pair, under a 0.25 threshold)
    s = 2  ->  d = 0.2828   (hard pair: over 0.25, under the 0.30
                             same-company-and-location rule override)

Unrelated postings overlap in ~12 of 50 tokens on average, which keeps
them above distance ~1.0, far beyond the declared separation margin.

Full-duplicate partners perturb only presentation (word case, whitespace,
HTML tags, character references), all invariant under canonicalization.
Semantic partners swap synonyms, shuffle word order (the embedder is a
bag), and optionally re-render in a pseudo-language: a per-language token
bijection that the dictionary translator inverts exactly. Temporal
partners are either kind with a shifted retrieval date.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, timedelta

from .corpus import Posting
from .dedup import DuplicateLabel
from .embed import token_hash
from .errors import ConfigError
from .evaluation import GoldSet

_TOKENS_PER_POSTING = 50
_TITLE_TOKENS = 3
_VOCAB_SIZE = 200
_SYNONYM_POOL = 100  # first half of the vocabulary, paired into synonyms

_CONSONANTS = "bcdfghjklmnprstvwz"  # no 'q': pseudo-language words get a q-prefix
_VOWELS = "aeiou"

_COMPANIES = [
    "arbeta group", "blufjord media", "cedertal logistics", "danholm retail",
    "elvestad energy", "fjellmark foods", "granlund systems", "havsten clinic",
    "ilmatar works", "jarnvik motors", "kastanje bank", "lindqvist labs",
    "moravia textiles", "nordlys software", "ostrava steel", "pellervo farms",
    "quintara consulting", "rheinau chemie", "solbacken care", "tallinn digital",
    "uppvind marine", "valkea insurance", "westerbro construction", "ystad analytics",
]
_LOCATIONS = [
    "aarhus", "bratislava", "cork", "dresden", "espoo", "florence", "gdansk",
    "helsinki", "innsbruck", "jelgava", "kaunas", "leuven", "maribor",
    "nijmegen", "ostrava", "porto", "riga", "salzburg", "tartu", "utrecht",
]
_SOURCES = ["jobnet", "workhub", "careerbay", "hirebridge"]
_EN_COUNTRIES = ["GB", "IE", "MT"]


@dataclass(frozen=True)
class DupPlan:
    """Planted-duplicate rates, as fractions of the base postings.

    hard_semantic_fraction routes that share of semantic pairs to the
    metadata-signal regime: two synonym swaps (distance 0.283) plus a
    shared, non-missing company and location, so only a relaxed expert
    rule recovers them at a 0.25 base threshold.
    """

    full_rate: float = 0.15
    semantic_rate: float = 0.15
    temporal_rate: float = 0.10
    hard_semantic_fraction: float = 0.0

    def __post_init__(self) -> None:
        rates = (self.full_rate, self.semantic_rate, self.temporal_rate)
        if any(r < 0 for r in rates) or not 0 <= self.hard_semantic_fraction <= 1:
            raise ConfigError("duplicate rates must be non-negative")
        if sum(rates) > 1:
            raise ConfigError("duplicate rates must sum to at most 1")


@dataclass(frozen=True)
class PseudoLanguage:
    code: str
    mapping: dict[str, str]  # base word -> foreign word, a bijection


@dataclass
class SynthResult:
    postings: list[Posting]
    gold: GoldSet
    translation_dict: dict[str, str]  # foreign word -> base word, all languages merged
    vocabulary: list[str]
    languages: list[PseudoLanguage]
    # Planted pairs embed below this L2 distance after translation; all
    # other pairs embed above it. Verified by brute force in the tests.
    separation_margin: float = 0.5


def make_vocabulary(dim: int = 256, size: int = _VOCAB_SIZE, seed: int = 0) -> list[str]:
    """Pseudo-words whose hashes occupy `size` distinct buckets at `dim`."""
    if size > dim:
        raise ConfigError(f"cannot fit {size} bucket-distinct words into dim={dim}")
    rng = random.Random(seed ^ 0x5EED)
    words: list[str] = []
    seen_words: set[str] = set()
    used_buckets: set[int] = set()
    while len(words) < size:
        n_syllables = rng.randint(2, 4)
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n_syllables)
        )
        if word in seen_words:
            continue
        seen_words.add(word)
        bucket = token_hash(word) % dim
        if bucket in used_buckets:
            continue
        used_buckets.add(bucket)
        words.append(word)
    return words


def make_pseudo_languages(codes: list[str], vocabulary: list[str]) -> list[PseudoLanguage]:
    """One token bijection per language: word -> "q<code><word>".

    Base words never contain 'q', so foreign words collide neither with the
    base vocabulary nor across languages, and the merged dictionary inverts
    every rendering exactly.
    """
    languages = []
    for code in codes:
        if not (code.isalpha() and code.islower() and 2 <= len(code) <= 3):
            raise ConfigError(f"bad pseudo-language code {code!r}")
        mapping = {word: f"q{code}{word}" for word in vocabulary}
        languages.append(PseudoLanguage(code=code, mapping=mapping))
    return languages


def _synonym_map(vocabulary: list[str]) -> dict[str, str]:
    pool = vocabulary[:_SYNONYM_POOL]
    pairs: dict[str, str] = {}
    for i in range(0, len(pool) - 1, 2):
        pairs[pool[i]] = pool[i + 1]
        pairs[pool[i + 1]] = pool[i]
    return pairs


@dataclass
class _Draft:
    """A posting before rendering: base-language tokens plus metadata."""

    id: str
    tokens: list[str]
    language: str  # "en" or a pseudo-language code
    company: str | None
    location: str | None
    country: str | None
    retrieval_date: date
    source: str
    noisy: bool = False  # apply canonicalization-invariant presentation noise


class _Generator:
    def __init__(self, plan: DupPlan, languages: list[PseudoLanguage], rng: random.Random):
        self.plan = plan
        self.languages = languages
        self.by_code = {lang.code: lang for lang in languages}
        self.rng = rng

    def pick_language(self) -> str:
        if self.languages and self.rng.random() < 0.4:
            return self.rng.choice([lang.code for lang in self.languages])
        return "en"

    def pick_country(self, language: str) -> str | None:
        if self.rng.random() < 0.1:
            return None
        if language == "en":
            return self.rng.choice(_EN_COUNTRIES)
        return "X" + language[-1].upper()

    def render(self, draft: _Draft) -> Posting:
        words = draft.tokens
        if draft.language != "en":
            mapping = self.by_code[draft.language].mapping
            words = [mapping[w] for w in words]
        title = " ".join(words[:_TITLE_TOKENS])
        description = " ".join(words[_TITLE_TOKENS:])
        if draft.noisy:
            title, description = self._presentation_noise(title, description)
        return Posting(
            id=draft.id,
            title=title,
            description=description,
            company=draft.company,
            location=draft.location,
            country=draft.country,
            language=draft.language,
            retrieval_date=draft.retrieval_date,
            source=draft.source,
        )

    def _presentation_noise(self, title: str, description: str) -> tuple[str, str]:
        """Perturbations that canonicalize away: case, whitespace, tags, references."""
        rng = self.rng

        def perturb_words(text: str) -> str:
            out = []
            for word in text.split():
                roll = rng.random()
                if roll < 0.10:
                    word = word.upper()
                elif roll < 0.22:
                    word = word.capitalize()
                elif roll < 0.30:
                    pos = rng.randrange(len(word))
                    word = word[:pos] + f"&#{ord(word[pos])};" + word[pos + 1 :]
                out.append(word)
                if rng.random() < 0.08:
                    out.append(rng.choice(["<br/>", "<b></b>", ""]))
            joined = []
            for piece in out:
                joined.append(piece)
                joined.append("  " if rng.random() < 0.10 else " ")
            return "".join(joined)

        title = perturb_words(title)
        if rng.random() < 0.5:
            title = f"<h2>{title.strip()}</h2>"
        description = perturb_words(description)
        if rng.random() < 0.3:
            description = " " + description + "  "
        return title, description

    def swap_synonyms(self, tokens: list[str], n_swaps: int, synonyms: dict[str, str]) -> list[str]:
        """Replace n_swaps tokens by synonyms not present in the bag.

        Keeping replacements outside the bag preserves unit counts, which
        keeps the pair distance at exactly sqrt(2*s/T).
        """
        token_set = set(tokens)
        candidates = [
            i
            for i, word in enumerate(tokens)
            if word in synonyms and synonyms[word] not in token_set
        ]
        chosen = self.rng.sample(candidates, min(n_swaps, len(candidates)))
        out = list(tokens)
        used: set[str] = set()
        swapped = 0
        for i in chosen:
            replacement = synonyms[out[i]]
            if replacement in used:
                continue
            out[i] = replacement
            used.add(replacement)
            swapped += 1
            if swapped == n_swaps:
                break
        return out


def synth_corpus(
    n_base: int,
    plan: DupPlan,
    seed: int = 0,
    embed_dim: int = 256,
) -> SynthResult:
    """Generate base postings and planted duplicate partners with gold labels.

    Each base posting receives at most one partner, so the gold set is
    exactly the planted pairs with no transitive closure. Identical seeds
    produce byte-identical corpora.
    """
    if n_base < 0:
        raise ConfigError("n_base must be non-negative")
    rng = random.Random(seed)
    vocabulary = make_vocabulary(dim=embed_dim, seed=seed)
    languages = make_pseudo_languages(["qaa", "qab", "qac"], vocabulary)
    synonyms = _synonym_map(vocabulary)
    gen = _Generator(plan, languages, rng)

    n_full = math.floor(n_base * plan.full_rate + 0.5)
    n_semantic = math.floor(n_base * plan.semantic_rate + 0.5)
    n_temporal = math.floor(n_base * plan.temporal_rate + 0.5)
    n_hard = math.floor(n_semantic * plan.hard_semantic_fraction + 0.5)

    assignment = list(range(n_base))
    rng.shuffle(assignment)
    kind_by_base: dict[int, str] = {}
    cursor = 0
    for kind, count in (
        ("full", n_full),
        ("hard_semantic", n_hard),
        ("semantic", n_semantic - n_hard),
        ("temporal", n_temporal),
    ):
        for base in assignment[cursor : cursor + count]:
            kind_by_base[base] = kind
        cursor += count

    postings: list[Posting] = []
    gold_pairs: dict[tuple[str, str], DuplicateLabel] = {}
    base_date = date(2024, 1, 1)

    for i in range(n_base):
        kind = kind_by_base.get(i)
        tokens = rng.sample(vocabulary, _TOKENS_PER_POSTING)
        language = gen.pick_language()
        force_metadata = kind == "hard_semantic"
        company = (
            rng.choice(_COMPANIES)
            if force_metadata or rng.random() < 0.75
            else None
        )
        location = (
            rng.choice(_LOCATIONS)
            if force_metadata or rng.random() < 0.50
            else None
        )
        base = _Draft(
            id=f"p{i:05d}",
            tokens=tokens,
            language=language,
            company=company,
            location=location,
            country=gen.pick_country(language),
            retrieval_date=base_date + timedelta(days=rng.randrange(180)),
            source=rng.choice(_SOURCES),
        )
        postings.append(gen.render(base))
        if kind is None:
            continue

        partner_id = base.id + "x"
        if kind == "full":
            partner = _Draft(
                id=partner_id,
                tokens=list(base.tokens),
                language=base.language,
                company=base.company if rng.random() < 0.9 else None,
                location=base.location if rng.random() < 0.9 else None,
                country=base.country,
                retrieval_date=base.retrieval_date,
                source=rng.choice(_SOURCES),
                noisy=True,
            )
            label = DuplicateLabel.FULL
        elif kind in ("semantic", "hard_semantic"):
            n_swaps = 2 if kind == "hard_semantic" else 1
            tokens = gen.swap_synonyms(base.tokens, n_swaps, synonyms)
            body = tokens[_TITLE_TOKENS:]
            rng.shuffle(body)
            tokens = tokens[:_TITLE_TOKENS] + body
            if kind == "hard_semantic":
                company, location = base.company, base.location
            else:
                company = base.company if rng.random() < 0.8 else rng.choice(_COMPANIES)
                location = base.location if rng.random() < 0.7 else None
            language = gen.pick_language() if rng.random() < 0.5 else base.language
            partner = _Draft(
                id=partner_id,
                tokens=tokens,
                language=language,
                company=company,
                location=location,
                country=gen.pick_country(language),
                retrieval_date=base.retrieval_date,
                source=rng.choice(_SOURCES),
            )
            label = DuplicateLabel.SEMANTIC
        else:  # temporal: a full- or semantic-style partner on a shifted date
            shifted = base.retrieval_date + timedelta(days=rng.randint(1, 30))
            if rng.random() < 0.5:
                partner = _Draft(
                    id=partner_id,
                    tokens=list(base.tokens),
                    language=base.language,
                    company=base.company,
                    location=base.location if rng.random() < 0.8 else None,
                    country=base.country,
                    retrieval_date=shifted,
                    source=rng.choice(_SOURCES),
                    noisy=True,
                )
            else:
                tokens = gen.swap_synonyms(base.tokens, 1, synonyms)
                body = tokens[_TITLE_TOKENS:]
                rng.shuffle(body)
                tokens = tokens[:_TITLE_TOKENS] + body
                language = gen.pick_language() if rng.random() < 0.5 else base.language
                partner = _Draft(
                    id=partner_id,
                    tokens=tokens,
                    language=language,
                    company=base.company if rng.random() < 0.8 else None,
                    location=base.location,
                    country=gen.pick_country(language),
                    retrieval_date=shifted,
                    source=rng.choice(_SOURCES),
                )
            label = DuplicateLabel.TEMPORAL
        postings.append(gen.render(partner))
        gold_pairs[(base.id, partner_id)] = label

    translation_dict: dict[str, str] = {}
    for lang in languages:
        for word, foreign in lang.mapping.items():
            translation_dict[foreign] = word

    return SynthResult(
        postings=postings,
        gold=GoldSet(gold_pairs),
        translation_dict=translation_dict,
        vocabulary=vocabulary,
        languages=languages,
    )


__all__ = [
    "DupPlan",
    "PseudoLanguage",
    "SynthResult",
    "make_vocabulary",
    "make_pseudo_languages",
    "synth_corpus",
]
