"""The config schema: every key is a dataclass field, read and type-checked alike."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Optional

import pytest
import yaml

import postdedup
from postdedup.cli import main
from postdedup.config import PipelineConfig, _read_document, config_from_dict
from postdedup.dedup import ExpertRule
from postdedup.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
SRC = Path(postdedup.__file__).resolve().parents[1]

# Fields that are no config key: `index.dim` is `embed.dim`, `index.seed` is `seed`.
NOT_KEYS = {"index.dim", "index.seed"}
# A rule entry is an ExpertRule read at this key; a valid base for one field's case.
RULE = "dedup.rules[0]"
RULE_BASE = {"action": "threshold", "threshold": 0.3}

# For each annotation a field may have, wrong values and the start of the message.
NOT_A_STRING = [(5, "must be a string"), ([1], "must be a string")]
NOT_A_NUMBER = [("x", "must be a number"), (True, "must be a number")]
WRONG = {
    int: [(1.5, "must be an integer"), (True, "must be an integer"), ("3", "must be an integer")],
    bool: [("no", "must be true or false"), (1, "must be true or false")],
    float: NOT_A_NUMBER,
    str: NOT_A_STRING,
    Optional[str]: NOT_A_STRING,
    Optional[float]: NOT_A_NUMBER,
    tuple[float, ...]: [
        (0.3, "must be a list of numbers"),
        (["a", "b"], "must be a number"),
        ([True, 0.2], "must be a number"),
    ],
    frozenset[str]: [
        ("", "must be a non-empty string or list of characters"),
        ([1, 2], "must be a non-empty string or list of characters"),
        (["ab"], "must be a non-empty string or list of characters"),
    ],
}


def schema(cls=PipelineConfig, where=""):
    """Yield (dotted key, annotation) of every config key, walking the dataclass fields."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        key = f"{where}.{f.name}" if where else f.name
        kind = hints[f.name]
        if key in NOT_KEYS:
            continue
        if is_dataclass(kind):
            yield from schema(kind, key)
        elif kind == tuple[ExpertRule, ...]:
            yield from schema(ExpertRule, RULE)
        else:
            yield key, kind


def document(key: str, value) -> dict:
    """The config document that sets the dotted `key` to `value`."""
    if key == RULE:
        return document("dedup.rules", [value])
    if key.startswith(f"{RULE}."):
        return document(RULE, {**RULE_BASE, key.rpartition(".")[2]: value})
    *path, name = key.split(".")
    for section in reversed(path):
        value, name = {name: value}, section
    return {name: value}


SECTIONS = sorted({key.rpartition(".")[0] for key, _ in schema()} - {""})
CASES = [
    pytest.param(document(key, value), f"{key} {message}", id=f"{key}={value!r}")
    for key, kind in schema()
    for value, message in WRONG[kind]
] + [
    pytest.param(document(section, 5), f"{section} must be a mapping", id=f"{section}=5")
    for section in SECTIONS
] + [
    pytest.param(document("dedup.rules", 5), "dedup.rules must be 'example'", id="rules=5"),
    *(
        pytest.param(
            {section: {"kind": "remote", "endpoint": 5}},
            f"{section}.endpoint must be a string",
            id=f"{section}.kind=remote,endpoint=5",
        )
        for section in ("embed", "translate")
    ),
    pytest.param({"index": {"seed": 3}}, "unknown index keys: ['seed']", id="index.seed=3"),
    pytest.param(
        {"translate": {"kind": "babelfish"}},
        "unknown translator kind 'babelfish'",
        id="translate.kind=babelfish",
    ),
    pytest.param(
        {"translate": {"kind": "dictionary"}},
        "dictionary translator needs dictionary_path",
        id="translate.kind=dictionary,no-path",
    ),
]


@pytest.mark.parametrize("raw, message", CASES)
def test_wrong_config_type_exits_2_naming_the_key(tmp_path, capsys, raw, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["dedup", "--out", str(tmp_path), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err


def test_the_walk_reaches_every_section_and_rule_entries():
    assert SECTIONS == ["dedup", RULE, "embed", "index", "normalize", "translate"]


def test_rule_entry_keys_are_checked_like_a_section():
    with pytest.raises(ConfigError, match=r"unknown dedup.rules\[1\] keys"):
        config_from_dict({"dedup": {"rules": [RULE_BASE, {**RULE_BASE, "bogus": 1}]}})


def test_index_dim_is_no_key_and_follows_embed_dim():
    with pytest.raises(ConfigError, match="unknown index keys"):
        config_from_dict({"index": {"dim": 64}})
    config = config_from_dict({"embed": {"dim": 64}, "seed": 3})
    assert (config.index.dim, config.index.seed) == (64, 3)


# One config as a JSON document and as a YAML one. It has exponents without
# a dot, which YAML 1.1 reads as strings and JSON as numbers, and quoted
# numbers, which both read as strings.
PARITY_JSON = """{
  "mode": "two_step", "seed": 7, "threads": 2,
  "normalize": {"ascii_only": true, "keep_punct": "-+"},
  "translate": {"kind": "identity", "cache_path": "1e-1"},
  "embed": {"dim": 64, "max_tokens": 100},
  "index": {"kind": "ivf", "nlist": 4, "nprobe": 2},
  "dedup": {
    "k": 10, "base_theta": 1e-1, "sweep_thetas": ["5e-2", 1e-1, 0.2, "3E-1"],
    "rules": [
      {"company": "same", "action": "threshold", "threshold": 25e-2},
      {"action": "threshold", "threshold": "0.2"}
    ]
  }
}
"""
PARITY_YAML = """\
mode: two_step
seed: 7
threads: 2
normalize: {ascii_only: true, keep_punct: "-+"}
translate:
  kind: identity
  cache_path: "1e-1"  # a comment: this document is not JSON
embed: {dim: 64, max_tokens: 100}
index: {kind: ivf, nlist: 4, nprobe: 2}
dedup:
  k: 10
  base_theta: 1e-1
  sweep_thetas: ["5e-2", 1e-1, 0.2, "3E-1"]
  rules:
    - {company: same, action: threshold, threshold: 25e-2}
    - {action: threshold, threshold: "0.2"}
"""


def test_a_config_reads_the_same_as_json_and_as_yaml(tmp_path):
    with pytest.raises(ValueError):
        json.loads(PARITY_YAML)
    read = []
    for name, text in (("run.json", PARITY_JSON), ("run.yaml", PARITY_YAML)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        read.append(config_from_dict(_read_document(tmp_path / name)))
    assert read[0] == read[1]
    # yaml reads the JSON text to the same config as well.
    assert config_from_dict(yaml.safe_load(PARITY_JSON)) == read[0]
    dedup = read[0].dedup
    assert (dedup.base_theta, dedup.sweep_thetas) == (0.1, (0.05, 0.1, 0.2, 0.3))
    assert [rule.threshold for rule in dedup.rules] == [0.25, 0.2]
    assert read[0].translate.cache_path == "1e-1"


def readme_config() -> dict:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1]
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.S).group(1))


def named_keys(raw: dict, where="") -> set[str]:
    keys = set()
    for name, value in raw.items():
        key = f"{where}.{name}" if where else name
        if isinstance(value, dict):
            keys |= named_keys(value, key)
        elif name == "rules" and isinstance(value, list):
            keys |= {f"{RULE}.{field}" for rule in value for field in rule}
        else:
            keys.add(key)
    return keys


def test_readme_configuration_parses_and_names_every_key():
    raw = readme_config()
    config_from_dict(raw)
    assert named_keys(raw) == {key for key, _ in schema()}


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_synth_benchmark.py", "--n-base 60"),
        ("sweep_thresholds.py", "--n-base 40 --theta-min 0.1 --theta-max 0.5 --theta-step 0.1"),
    ],
)
def test_scripts_that_build_configs_run(script, args):
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args.split()],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
