"""Pipeline configuration: the section dataclasses are the schema.

A config document is a mapping of `mode`, `seed`, `threads` and one
mapping per section: `normalize`, `translate`, `embed`, `index`, `dedup`.
`_section` reads each mapping through its dataclass's fields, so a key
that is no field, or a value that does not fit its field's annotation, is
a ConfigError naming the dotted key. `index.dim` and `index.seed` are not
keys (they are `embed.dim` and `seed`), and each entry of a `dedup.rules`
list is read as an `ExpertRule` the same way.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from .corpus import read_text
from .dedup import ExpertRule, example_ruleset
from .errors import ConfigError
from .index import IndexConfig
from .normalize import NormalizeConfig

MODES = ("two_step", "multilingual")
DEFAULT_SWEEP_THETAS = tuple(round(0.10 + 0.05 * i, 2) for i in range(8))  # 0.10 .. 0.45


@dataclass(frozen=True)
class TranslateConfig:
    kind: str = "identity"  # identity | dictionary | remote
    dictionary_path: Optional[str] = None
    endpoint: Optional[str] = None
    max_in_flight: int = 4
    batch_size: int = 32
    cache_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "dictionary", "remote"):
            raise ConfigError(f"unknown translator kind {self.kind!r}")
        if self.kind == "dictionary" and not self.dictionary_path:
            raise ConfigError("dictionary translator needs dictionary_path")
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("remote translator needs endpoint")
        if self.max_in_flight < 1 or self.batch_size < 1:
            raise ConfigError("max_in_flight and batch_size must be positive")


@dataclass(frozen=True)
class EmbedConfig:
    kind: str = "hashed"  # hashed | remote
    dim: int = 256
    max_tokens: int = 384
    endpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("hashed", "remote"):
            raise ConfigError(f"unknown embedder kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("remote embedder needs endpoint")
        if self.dim < 2 or self.max_tokens < 1:
            raise ConfigError("dim must be >= 2 and max_tokens >= 1")


@dataclass(frozen=True)
class DedupConfig:
    k: int = 100
    base_theta: float = 0.25
    rules: tuple[ExpertRule, ...] = ()  # empty: plain threshold at base_theta
    sweep_thetas: tuple[float, ...] = DEFAULT_SWEEP_THETAS

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("k must be positive")
        if not 0 < self.base_theta <= 2:
            raise ConfigError("base_theta must be in (0, 2]")
        thetas = list(self.sweep_thetas)
        if not all(0 < theta <= 2 for theta in thetas):  # NaN fails every comparison
            raise ConfigError(f"dedup.sweep_thetas must each be in (0, 2], got {thetas}")
        if thetas != sorted(thetas):
            raise ConfigError("sweep_thetas must be ascending")

    @property
    def search_radius(self) -> float:
        """The largest distance a run can keep or count: the candidate search's bound.

        The largest of `base_theta`, the threshold of every threshold rule
        and the last of `sweep_thetas`; every threshold is strict, so no
        pair at this distance or beyond is kept or counted.
        """
        thresholds = [rule.threshold for rule in self.rules if rule.action == "threshold"]
        return max([self.base_theta, *thresholds, *self.sweep_thetas[-1:]])


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "two_step"
    seed: int = 0
    threads: int = 1
    normalize: NormalizeConfig = field(default_factory=NormalizeConfig)
    translate: TranslateConfig = field(default_factory=TranslateConfig)
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    dedup: DedupConfig = field(default_factory=DedupConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.threads < 1:
            raise ConfigError("threads must be positive")

    def effective_translate_kind(self) -> str:
        # Multilingual mode embeds original-language text directly.
        return "identity" if self.mode == "multilingual" else self.translate.kind


def _kind(kind: type, what: str):
    """A reader that takes only a value of `kind`; a bool is not an int."""

    def read(value, name: str):
        if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
            return value
        raise ConfigError(f"{name} must be {what}, got {value!r}")

    return read


def _float(value, name: str) -> float:
    """`value` read with float(), so that a YAML 1.1 `1e-1` string counts; a bool does not."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _floats(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_float(item, name) for item in value)


def _chars(value, name: str) -> frozenset[str]:
    if value and isinstance(value, (str, list)) and all(
        isinstance(ch, str) and len(ch) == 1 for ch in value
    ):
        return frozenset(value)
    raise ConfigError(f"{name} must be a non-empty string or list of characters, got {value!r}")


def _optional(read):
    return lambda value, name: None if value is None else read(value, name)


# The reader of each field annotation that a config key may have.
_READERS = {
    int: _kind(int, "an integer"),
    bool: _kind(bool, "true or false"),
    str: _kind(str, "a string"),
    float: _float,
    Optional[str]: _optional(_kind(str, "a string")),
    Optional[float]: _optional(_float),
    tuple[float, ...]: _floats,
    frozenset[str]: _chars,
}


@functools.cache
def _field_types(cls) -> dict:
    """Each field of dataclass `cls` with its resolved annotation, worked out once."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _mapping(raw, where: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {raw!r}")
    return dict(raw)


def _section(cls, raw, where: str, **given):
    """`cls` read from the mapping `raw`, whose keys are the fields of `cls` not `given`.

    Each value goes through the reader of its field's annotation; `where`
    is the section's dotted name, "" for the top level of the document.
    """
    raw = _mapping(raw, where or "config document")
    types = _field_types(cls)
    unknown = [key for key in raw if key not in types or key in given]
    if unknown:
        raise ConfigError(f"unknown {where or 'config'} keys: {sorted(map(str, unknown))}")
    values = {
        key: _READERS[types[key]](value, f"{where}.{key}" if where else key)
        for key, value in raw.items()
    }
    return cls(**values, **given)


def _rules(raw, base_theta: float) -> tuple[ExpertRule, ...]:
    if raw in (None, "none"):
        return ()
    if raw == "example":
        return tuple(example_ruleset(base_theta))
    if isinstance(raw, list):
        return tuple(_section(ExpertRule, rule, f"dedup.rules[{i}]") for i, rule in enumerate(raw))
    raise ConfigError("dedup.rules must be 'example', 'none', or a list of rule objects")


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a PipelineConfig from a nested plain-dict document."""
    top = _mapping(raw, "config document")
    names = ("normalize", "translate", "embed", "index", "dedup")
    sections = {name: _mapping(top.pop(name, None), name) for name in names}
    run = _section(PipelineConfig, top, "")  # mode, seed and threads
    rules = sections["dedup"].pop("rules", None)
    dedup = _section(DedupConfig, sections["dedup"], "dedup")
    embed = _section(EmbedConfig, sections["embed"], "embed")
    try:
        index = _section(IndexConfig, sections["index"], "index", dim=embed.dim, seed=run.seed)
    except ValueError as err:  # IndexConfig's own checks
        raise ConfigError(str(err)) from err
    return replace(
        run,
        normalize=_section(NormalizeConfig, sections["normalize"], "normalize"),
        translate=_section(TranslateConfig, sections["translate"], "translate"),
        embed=embed,
        index=index,
        dedup=replace(dedup, rules=_rules(rules, dedup.base_theta)),
    )


def _read_json_or_yaml(path: str | Path, what: str):
    """Parse a JSON or YAML file; failures are ConfigError.

    A document that parses as JSON is read with `json`, so yaml is loaded
    only for one that does not. The two read a few JSON texts differently
    (YAML 1.1 reads `1e-1`, `NaN` and `Infinity` as strings, JSON as
    floats); the readers of `_READERS` take a float key's value either way.
    """
    text = read_text(path, ConfigError)
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        pass
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {what} {path}: {err}") from err


def _read_document(path: str | Path) -> dict:
    return _mapping(_read_json_or_yaml(path, "config"), "config document")


__all__ = [
    "MODES",
    "DEFAULT_SWEEP_THETAS",
    "TranslateConfig",
    "EmbedConfig",
    "DedupConfig",
    "PipelineConfig",
    "config_from_dict",
]
