"""Pipeline configuration: dataclasses, YAML loading, flag overrides."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import yaml

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
        if list(self.sweep_thetas) != sorted(self.sweep_thetas):
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
class IOConfig:
    input_path: Optional[str] = None
    input_format: str = "jsonl"

    def __post_init__(self) -> None:
        if self.input_format not in ("jsonl", "csv"):
            raise ConfigError(f"unknown input format {self.input_format!r}")


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
    io: IOConfig = field(default_factory=IOConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.threads < 1:
            raise ConfigError("threads must be positive")
        if self.index.dim != self.embed.dim:
            raise ConfigError(
                f"index dim {self.index.dim} must match embed dim {self.embed.dim}"
            )

    def effective_translate_kind(self) -> str:
        # Multilingual mode embeds original-language text directly.
        return "identity" if self.mode == "multilingual" else self.translate.kind


# Keys whose value must be an int, per section ("" is the top level).
_INT_KEYS = {
    "": ("seed", "threads"),
    "translate": ("max_in_flight", "batch_size"),
    "embed": ("dim", "max_tokens"),
    "index": ("nlist", "nprobe", "kmeans_iters", "seed"),
    "dedup": ("k",),
}


def _check_ints(raw: dict) -> None:
    """Reject a float, bool, string or other non-int under an integer key, naming it."""
    for section, keys in _INT_KEYS.items():
        values = raw.get(section) if section else raw
        if not isinstance(values, dict):
            continue
        for key in keys:
            value = values.get(key, 0)  # an absent key keeps its int default
            if isinstance(value, bool) or not isinstance(value, int):
                name = f"{section}.{key}" if section else key
                raise ConfigError(f"{name} must be an integer, got {value!r}")


def _float(value, name: str) -> float:
    """`value` read with float(), so that a YAML 1.1 `1e-1` string counts; a bool does not."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _check_keys(raw: dict, allowed: Sequence[str], where: str) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _rules_from_config(raw, base_theta: float) -> tuple[ExpertRule, ...]:
    if raw in (None, "none"):
        return ()
    if raw == "example":
        return tuple(example_ruleset(base_theta))
    if isinstance(raw, list):
        rules = []
        for i, entry in enumerate(raw):
            if isinstance(entry, dict) and entry.get("threshold") is not None:
                threshold = _float(entry["threshold"], f"dedup.rules[{i}].threshold")
                entry = {**entry, "threshold": threshold}
            rules.append(ExpertRule.from_dict(entry))
        return tuple(rules)
    raise ConfigError("dedup.rules must be 'example', 'none', or a list of rule objects")


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a PipelineConfig from a nested plain-dict document."""
    try:
        return _config_from_dict(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _config_from_dict(raw: dict) -> PipelineConfig:
    _check_keys(
        raw,
        ("mode", "seed", "threads", "normalize", "translate", "embed", "index", "dedup", "io"),
        "config",
    )
    _check_ints(raw)
    normalize_raw = dict(raw.get("normalize") or {})
    _check_keys(normalize_raw, ("ascii_only", "keep_punct"), "normalize")
    if "keep_punct" in normalize_raw:
        normalize_raw["keep_punct"] = frozenset(normalize_raw["keep_punct"])
    normalize = NormalizeConfig(**normalize_raw)

    translate_raw = dict(raw.get("translate") or {})
    _check_keys(
        translate_raw,
        ("kind", "dictionary_path", "endpoint", "max_in_flight", "batch_size", "cache_path"),
        "translate",
    )
    translate = TranslateConfig(**translate_raw)

    embed_raw = dict(raw.get("embed") or {})
    _check_keys(embed_raw, ("kind", "dim", "max_tokens", "endpoint"), "embed")
    embed = EmbedConfig(**embed_raw)

    index_raw = dict(raw.get("index") or {})
    _check_keys(index_raw, ("kind", "nlist", "nprobe", "kmeans_iters", "seed"), "index")
    index_raw.setdefault("seed", raw.get("seed", 0))
    index = IndexConfig(dim=embed.dim, **index_raw)

    dedup_raw = dict(raw.get("dedup") or {})
    _check_keys(dedup_raw, ("k", "base_theta", "rules", "sweep_thetas"), "dedup")
    base_theta = _float(dedup_raw.pop("base_theta", 0.25), "dedup.base_theta")
    rules = _rules_from_config(dedup_raw.pop("rules", None), base_theta)
    if "sweep_thetas" in dedup_raw:
        thetas = dedup_raw["sweep_thetas"]
        dedup_raw["sweep_thetas"] = tuple(_float(t, "dedup.sweep_thetas") for t in thetas)
    dedup = DedupConfig(base_theta=base_theta, rules=rules, **dedup_raw)

    io_raw = dict(raw.get("io") or {})
    _check_keys(io_raw, ("input_path", "input_format"), "io")
    io = IOConfig(**io_raw)

    return PipelineConfig(
        mode=raw.get("mode", "two_step"),
        seed=raw.get("seed", 0),
        threads=raw.get("threads", 1),
        normalize=normalize,
        translate=translate,
        embed=embed,
        index=index,
        dedup=dedup,
        io=io,
    )


def _read_yaml(path: str | Path, what: str):
    """Parse a YAML (or JSON, a YAML subset) file; failures are ConfigError."""
    text = read_text(path, ConfigError)
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {what} {path}: {err}") from err


def _read_document(path: str | Path) -> dict:
    raw = _read_yaml(path, "config")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a mapping")
    return raw


__all__ = [
    "MODES",
    "DEFAULT_SWEEP_THETAS",
    "TranslateConfig",
    "EmbedConfig",
    "DedupConfig",
    "IOConfig",
    "PipelineConfig",
    "config_from_dict",
]
