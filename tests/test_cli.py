from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import struct
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import postdedup
from postdedup import pipeline
from postdedup.cli import _config_from_args, build_parser, main
from postdedup.config import config_from_dict
from postdedup.corpus import save_postings
from postdedup.index import FlatIndex, load_index
from postdedup.pipeline import (
    CANONICAL_FILE,
    DICTIONARY_FILE,
    EMBEDDINGS_FILE,
    EVAL_FILE,
    GOLD_FILE,
    POSTINGS_FILE,
    REPORT_FILE,
    RESULTS_FILE,
    TRANSLATED_FILE,
)
from postdedup.translate import IdentityTranslator

from conftest import (
    STAGE_FILES,
    index_state,
    make_posting,
    spy_on_chain,
    write_chain_artifacts,
)

REPO = Path(__file__).resolve().parents[1]
RESULTS_HEADER = "id1,id2,label,distance,reason"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def synth_args(outdir, n_base=60, seed=5, extra=()):
    return [
        "synth", "--out", outdir, "--n-base", n_base, "--seed", seed,
        "--full-rate", 0.15, "--semantic-rate", 0.15, "--temporal-rate", 0.10,
        *extra,
    ]


def test_golden_path_synth_dedup_eval(tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir)) == 0
    assert (outdir / POSTINGS_FILE).exists()
    assert (outdir / GOLD_FILE).exists()
    assert (outdir / DICTIONARY_FILE).exists()

    assert run_cli(
        "dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE,
        "--k", 20, "--theta", 0.35, "--seed", 5,
    ) == 0
    assert (outdir / RESULTS_FILE).exists()
    assert (outdir / REPORT_FILE).exists()

    assert run_cli("eval", "--out", outdir) == 0
    assert (outdir / EVAL_FILE).exists()
    eval_doc = json.loads((outdir / EVAL_FILE).read_text())
    assert eval_doc["FULL"]["f1"] == 1.0
    assert eval_doc["SEMANTIC"]["f1"] >= 0.9

    assert run_cli("report", "--out", outdir) == 0
    out = capsys.readouterr().out
    assert "threshold sweep" in out
    assert "macro F1" in out


def dedup_with_embed_session(tmp_path, monkeypatch, capsys, session) -> tuple[int, str]:
    """Run `dedup` with the remote embedder talking to `session`; return code and stderr."""
    import requests

    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=20)) == 0
    config = tmp_path / "remote.yaml"
    config.write_text(
        yaml.safe_dump({"embed": {"kind": "remote", "endpoint": "http://embed.invalid/e"}}),
        encoding="utf-8",
    )
    monkeypatch.setattr(requests, "Session", lambda: session)
    monkeypatch.setattr("postdedup.batching.time.sleep", lambda seconds: None)
    capsys.readouterr()
    code = run_cli(
        "dedup", "--out", outdir, "--config", config, "--dict", outdir / DICTIONARY_FILE,
    )
    return code, capsys.readouterr().err


def test_malformed_embed_response_exits_backend_error(tmp_path, monkeypatch, capsys):
    from conftest import FakeResponse, FakeSession

    session = FakeSession(FakeResponse(200, "<html>upstream busy</html>"))
    code, err = dedup_with_embed_session(tmp_path, monkeypatch, capsys, session)
    assert code == 4, err
    assert "backend error" in err
    assert len(session.calls) == 5  # retried before giving up


def test_nan_in_embed_response_exits_backend_error(tmp_path, monkeypatch, capsys):
    from conftest import FakeResponse

    class NaNSession:
        """Answers every batch with the right count and dimension, one entry NaN."""

        calls = 0

        def post(self, url, **kwargs):
            self.calls += 1
            vectors = [[1.0] * 256 for _ in kwargs["json"]["texts"]]
            vectors[-1][0] = float("nan")
            return FakeResponse(200, json.dumps({"dim": 256, "vectors": vectors}))

    session = NaNSession()
    code, err = dedup_with_embed_session(tmp_path, monkeypatch, capsys, session)
    assert code == 4, err
    assert "NaN or infinite" in err
    assert session.calls == 5  # one batch, retried before giving up


@pytest.mark.parametrize("section", ["embed", "translate"])
def test_malformed_remote_endpoint_is_config_error(tmp_path, monkeypatch, capsys, section):
    # Both remote clients check the scheme before any POST, so a value that
    # is not a URL is a config error at once, not a backend error after retries.
    import requests
    from conftest import FakeSession

    session = FakeSession()
    monkeypatch.setattr(requests, "Session", lambda: session)
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=20)) == 0
    config = tmp_path / "remote.yaml"
    config.write_text(
        yaml.safe_dump({section: {"kind": "remote", "endpoint": "not a url"}}), encoding="utf-8"
    )
    capsys.readouterr()
    assert run_cli("dedup", "--out", outdir, "--config", config) == 2
    assert "config error: malformed endpoint 'not a url'" in capsys.readouterr().err
    assert session.calls == []


def test_dedup_without_ingest_artifact_is_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("dedup", "--out", empty) == 3


def test_eval_missing_files_is_data_error(tmp_path):
    assert run_cli("eval", "--out", tmp_path) == 3


def test_eval_of_a_results_row_whose_ids_do_not_ascend_is_data_error(tmp_path, capsys):
    # Scored as it stands, the first row would miss the gold pair (a, b)
    # and the second would list it a second time unnoticed.
    (tmp_path / GOLD_FILE).write_text("id1,id2,label\na,b,FULL\n", encoding="utf-8")
    (tmp_path / RESULTS_FILE).write_text(
        f"{RESULTS_HEADER}\nb,a,FULL,0.0,exact_fingerprint\na,b,SEMANTIC,0.1,semantic_threshold\n",
        encoding="utf-8",
    )
    assert run_cli("eval", "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / RESULTS_FILE}:2: results ids ('b', 'a') do not ascend" in err
    assert not (tmp_path / EVAL_FILE).exists()


@pytest.mark.parametrize("headerless", [False, True], ids=["empty", "no-header"])
@pytest.mark.parametrize("name", [RESULTS_FILE, GOLD_FILE])
def test_eval_of_a_pair_file_without_a_header_is_data_error(tmp_path, capsys, name, headerless):
    # Read as they stand, an empty file and a file whose first row is taken
    # for its header hold no pairs: eval would score them and exit 0.
    headers = {RESULTS_FILE: RESULTS_HEADER, GOLD_FILE: "id1,id2,label"}
    rows = {RESULTS_FILE: "a,b,FULL,0.1,rule(0)\n", GOLD_FILE: "a,b,FULL\n"}
    for file, header in headers.items():
        (tmp_path / file).write_text(f"{header}\n{rows[file]}", encoding="utf-8")
    (tmp_path / name).write_text(rows[name] if headerless else "", encoding="utf-8")
    assert run_cli("eval", "--out", tmp_path) == 3
    assert f"{tmp_path / name}:1: " in capsys.readouterr().err
    assert not (tmp_path / EVAL_FILE).exists()
    # A header alone is a file of no pairs.
    (tmp_path / name).write_text(f"{headers[name]}\n", encoding="utf-8")
    assert run_cli("eval", "--out", tmp_path) == 0


def test_report_of_a_named_eval_file_that_is_missing_is_data_error(tmp_path, capsys):
    (tmp_path / REPORT_FILE).write_text('{"mode": "two_step"}', encoding="utf-8")
    missing = tmp_path / "nosuch.json"
    assert run_cli("report", "--out", tmp_path, "--eval", missing) == 3
    captured = capsys.readouterr()
    assert f"cannot read {missing}" in captured.err
    assert captured.out == ""
    # The default eval.json stays optional.
    assert run_cli("report", "--out", tmp_path) == 0
    assert "== Evaluation ==" not in capsys.readouterr().out


def test_bad_config_file_is_config_error(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("mode: warp_speed\n", encoding="utf-8")
    assert run_cli("dedup", "--out", tmp_path, "--config", config) == 2


def test_unknown_config_key_is_config_error(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("dedupe: {}\n", encoding="utf-8")
    assert run_cli("dedup", "--out", tmp_path, "--config", config) == 2


def test_removed_output_dir_key_is_config_error(tmp_path, capsys):
    # `--out` alone picks the artifact directory, and `--input` the corpus;
    # the removed `io` section must not be accepted and then ignored.
    config = tmp_path / "old.yaml"
    config.write_text("io: {output_dir: run}\n", encoding="utf-8")
    assert run_cli("dedup", "--out", tmp_path, "--config", config) == 2
    assert "unknown config keys: ['io']" in capsys.readouterr().err


def test_yaml_exponent_floats_are_read_as_numbers(tmp_path):
    # YAML 1.1 reads a float only with a dot, so `1e-1` loads as a string;
    # every threshold key must still read it as the number JSON would give.
    text = (
        "dedup:\n"
        "  base_theta: 3e-1\n"
        "  sweep_thetas: [1e-1, 2e-1]\n"
        "  rules: [{company: same, action: threshold, threshold: 25e-2}]\n"
    )
    assert yaml.safe_load(text)["dedup"]["sweep_thetas"] == ["1e-1", "2e-1"]
    assert json.loads('{"theta": 1e-1}')["theta"] == 0.1
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=20)) == 0
    config = tmp_path / "config.yaml"
    config.write_text(text, encoding="utf-8")
    assert run_cli("dedup", "--out", outdir, "--config", config) == 0
    report = json.loads((outdir / REPORT_FILE).read_text())
    assert report["base_theta"] == 0.3
    assert [row[0] for row in report["sweep"]] == [0.1, 0.2]
    assert report["search_radius"] == 0.3


def test_same_config_and_seed_byte_identical_results(tmp_path):
    results = []
    for name in ("one", "two"):
        outdir = tmp_path / name
        assert run_cli(*synth_args(outdir, seed=7)) == 0
        assert run_cli(
            "dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE,
            "--k", 20, "--theta", 0.35, "--seed", 7,
        ) == 0
        results.append((outdir / RESULTS_FILE).read_bytes())
    assert results[0] == results[1]


def test_ingest_jsonl_and_csv(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=10)) == 0

    csv_src = tmp_path / "corpus.csv"
    from postdedup.corpus import load_postings, save_postings

    postings = load_postings(outdir / POSTINGS_FILE)
    save_postings(postings, csv_src, format="csv")

    ingest_dir = tmp_path / "ingested"
    assert run_cli("ingest", "--input", csv_src, "--format", "csv", "--out", ingest_dir) == 0
    assert load_postings(ingest_dir / POSTINGS_FILE) == postings
    assert (ingest_dir / "corpus_stats.json").exists()


def test_dedup_input_csv_equals_ingest_then_dedup(tmp_path):
    # `dedup --input` reads the corpus itself and writes no postings.jsonl;
    # the results equal those of the two-step path.
    synth_dir = tmp_path / "synth"
    assert run_cli(*synth_args(synth_dir, n_base=40, seed=3)) == 0
    from postdedup.corpus import load_postings, save_postings

    postings = load_postings(synth_dir / POSTINGS_FILE)
    postings[0] = replace(postings[0], company=None, location="Zürich \"Mitte\", CH")
    csv_src = tmp_path / "corpus.csv"
    save_postings(postings, csv_src, format="csv")
    flags = ["--dict", synth_dir / DICTIONARY_FILE, "--k", 20, "--theta", 0.35, "--seed", 3]

    one, two = tmp_path / "one", tmp_path / "two"
    assert run_cli("dedup", "--input", csv_src, "--format", "csv", "--out", one, *flags) == 0
    assert run_cli("ingest", "--input", csv_src, "--format", "csv", "--out", two) == 0
    assert run_cli("dedup", "--out", two, *flags) == 0
    assert (one / RESULTS_FILE).read_bytes() == (two / RESULTS_FILE).read_bytes()
    assert not (one / POSTINGS_FILE).exists()


def test_ingest_missing_input_is_data_error(tmp_path):
    assert run_cli("ingest", "--input", tmp_path / "nope.jsonl", "--out", tmp_path) == 3


@pytest.mark.parametrize("command", ["ingest", "dedup"])
@pytest.mark.parametrize(
    "field, value",
    [("company", ["x"]), ("location", {"city": "x"}), ("country", 5), ("language", ["en"])],
)
def test_optional_field_that_is_not_a_string_is_malformed(tmp_path, capsys, command, field, value):
    corpus = tmp_path / "corpus.jsonl"
    records = [dict(_POSTING, id="a", **{field: "x"}), dict(_POSTING, id="b", **{field: value})]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert run_cli(command, "--input", corpus, "--out", tmp_path / "run") == 3
    err = capsys.readouterr().err
    assert f"{corpus}:2" in err
    assert f"field {field!r} must be a string or null" in err


@pytest.mark.parametrize("command", ["ingest", "dedup"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("id", 5),
        ("title", ["chef", "cook"]),
        ("description", {"x": 1}),
        ("source", ["s"]),
        ("retrieval_date", 20240101),
    ],
)
def test_text_field_that_is_not_a_string_is_malformed(tmp_path, capsys, command, field, value):
    # Not read as its Python text: an id of "5", a title of "['chef', 'cook']".
    corpus = tmp_path / "corpus.jsonl"
    records = [_POSTING, {**_POSTING, "id": "b", field: value}]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert run_cli(command, "--input", corpus, "--out", tmp_path / "run") == 3
    err = capsys.readouterr().err
    assert f"{corpus}:2" in err
    assert f"field {field!r} must be a string or null" in err


def test_dedup_does_not_depend_on_the_order_of_the_input_lines(tmp_path):
    corpus = tmp_path / "corpus"
    assert run_cli(*synth_args(corpus, n_base=60, seed=6)) == 0
    lines = (corpus / POSTINGS_FILE).read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(6).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines), encoding="utf-8")
    runs = []
    for name, source in (("as-written", corpus / POSTINGS_FILE), ("shuffled", shuffled)):
        out, cache, config = (tmp_path / f"{name}{ext}" for ext in ("", ".cache.jsonl", ".json"))
        config.write_text(json.dumps({"translate": {"cache_path": str(cache)}}), encoding="utf-8")
        assert run_cli(
            "dedup", "--input", source, "--out", out, "--config", config, "--mode", "two_step",
            "--dict", corpus / DICTIONARY_FILE, "--rules", "example", "--k", 20, "--theta", 0.35,
        ) == 0
        report = json.loads((out / REPORT_FILE).read_text(encoding="utf-8"))
        del report["stage_seconds"]
        records = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()]
        for record in records:
            del record["timestamp"]
        runs.append(((out / RESULTS_FILE).read_bytes(), report, records))
    assert runs[0] == runs[1]
    counters = runs[0][1]["counters"]
    assert 0 < counters["exact_group_pairs"] < counters["output_pairs"]  # both kinds of pair
    assert runs[0][2]  # the run translated through the cache


def test_canonical_file_bytes_are_pinned(tmp_path):
    # The stagewise test writes both sides with one writer; these are the
    # bytes any reader of canonical.jsonl sees, the MD5 of the lowercased
    # text included.
    corpus = tmp_path / "corpus.jsonl"
    record = {"id": "a1", "title": "Chef de Cuisine", "retrieval_date": "2024-01-01", "source": "s"}
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    outdir = tmp_path / "run"
    assert run_cli("ingest", "--input", corpus, "--out", outdir) == 0
    assert run_cli("normalize", "--out", outdir) == 0
    assert (outdir / CANONICAL_FILE).read_bytes() == (
        b'{"id": "a1", "canonical_text": "Chef de Cuisine", '
        b'"fingerprint": "5c1177c649550bb3bb57fb87e6b3dcb1"}\n'
    )


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_stagewise_commands_match_dedup(tmp_path, monkeypatch, kind):
    index = {"kind": kind, "nlist": 8, "nprobe": 2} if kind == "ivf" else {"kind": kind}
    config_path = tmp_path / "index.yaml"
    config_path.write_text(yaml.safe_dump({"index": index}), encoding="utf-8")
    one = tmp_path / "one"
    two = tmp_path / "two"
    for outdir in (one, two):
        assert run_cli(*synth_args(outdir, seed=9)) == 0

    def flags(outdir):
        return [
            "--out", outdir, "--dict", outdir / DICTIONARY_FILE, "--config", config_path,
            "--k", 20, "--theta", 0.35, "--seed", 9,
        ]

    calls = spy_on_chain(monkeypatch)
    assert run_cli("dedup", *flags(one)) == 0
    chain = write_chain_artifacts(calls, tmp_path / "chain")
    for command in ("normalize", "translate", "embed", "index"):
        assert run_cli(command, *flags(two)) == 0
    monkeypatch.undo()
    # The stage commands write the bytes of the values `dedup` kept in
    # memory, and `index` builds the index `dedup` searched.
    for name in STAGE_FILES:
        assert (chain / name).read_bytes() == (two / name).read_bytes(), name
    (_, searched), (_, built) = calls["build_index"]
    assert searched.kind == kind
    assert index_state(built) == index_state(searched)
    assert run_cli("dedup", *flags(two)) == 0

    assert (one / RESULTS_FILE).read_bytes() == (two / RESULTS_FILE).read_bytes()


def test_translate_on_the_canonical_file_of_another_corpus_is_data_error(tmp_path, capsys):
    one, two = tmp_path / "one", tmp_path / "two"
    assert run_cli(*synth_args(one, n_base=20, seed=1)) == 0
    assert run_cli(*synth_args(two, n_base=20, seed=2)) == 0
    assert run_cli("normalize", "--out", one) == 0
    (two / CANONICAL_FILE).write_bytes((one / CANONICAL_FILE).read_bytes())
    capsys.readouterr()
    assert run_cli("translate", "--out", two, "--dict", two / DICTIONARY_FILE) == 3
    err = capsys.readouterr().err
    assert f"{two / CANONICAL_FILE} does not hold the ids of {POSTINGS_FILE}" in err
    assert not (two / TRANSLATED_FILE).exists()


def test_dedup_input_leaves_the_files_of_another_corpus_alone(tmp_path):
    a, b, run, fresh = (tmp_path / name for name in ("a", "b", "run", "fresh"))
    assert run_cli(*synth_args(a, n_base=20, seed=1)) == 0
    assert run_cli(*synth_args(b, n_base=20, seed=2)) == 0
    flags = ["--dict", a / DICTIONARY_FILE]
    assert run_cli("ingest", "--input", a / POSTINGS_FILE, "--out", run, *flags) == 0
    for command in ("normalize", "translate", "embed", "index"):
        assert run_cli(command, "--out", run, *flags) == 0
    kept = (POSTINGS_FILE, "corpus_stats.json", *STAGE_FILES)
    before = {name: (run / name).read_bytes() for name in kept}

    assert run_cli("dedup", "--input", b / POSTINGS_FILE, "--out", run, *flags) == 0
    assert {name: (run / name).read_bytes() for name in kept} == before
    assert run_cli("dedup", "--input", b / POSTINGS_FILE, "--out", fresh, *flags) == 0
    assert (run / RESULTS_FILE).read_bytes() == (fresh / RESULTS_FILE).read_bytes()


def test_failed_dedup_input_changes_no_file(tmp_path, capsys):
    # Corpus A's outputs must not be left beside a half-run over corpus B.
    a, b, run = tmp_path / "a", tmp_path / "b", tmp_path / "run"
    assert run_cli(*synth_args(a, n_base=20, seed=1)) == 0
    assert run_cli(*synth_args(b, n_base=20, seed=2)) == 0
    flags = ["--out", run, "--dict", a / DICTIONARY_FILE, "--k", 20, "--theta", 0.35]
    assert run_cli("ingest", "--input", a / POSTINGS_FILE, *flags) == 0
    assert run_cli("dedup", *flags) == 0
    rules = tmp_path / "no_catch_all.yaml"
    rules.write_text("- {company: same, action: threshold, threshold: 0.3}\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in run.iterdir()}

    capsys.readouterr()
    assert run_cli("dedup", "--input", b / POSTINGS_FILE, *flags, "--rules", rules) == 3
    assert "no rule matched pair" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


# Runs `postdedup` and writes to argv[1] every file it opened, with the
# open flags, as an audit hook sees them.
_RECORD_OPENS = """
import json, os, sys
from postdedup import cli

opened = []

def hook(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        opened.append((os.fsdecode(args[0]), args[2]))

sys.addaudithook(hook)
code = cli.main(sys.argv[2:])
record = list(opened)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(record, fh)
sys.exit(code)
"""


def test_dedup_reads_no_file_but_its_corpus(tmp_path):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    assert run_cli(*synth_args(corpus, n_base=20, seed=4)) == 0
    flags = ["--out", run, "--dict", corpus / DICTIONARY_FILE]
    assert run_cli("ingest", "--input", corpus / POSTINGS_FILE, *flags) == 0
    for command in ("normalize", "translate", "embed", "index"):
        assert run_cli(command, *flags) == 0

    log = tmp_path / "opened.json"
    subprocess.run(
        [sys.executable, "-c", _RECORD_OPENS, str(log), "dedup", *map(str, flags)],
        env=_env_without_blas_threads(),
        capture_output=True,
        check=True,
    )
    opened = json.loads(log.read_text(encoding="utf-8"))
    read = {  # a directory opened to fsync a write into it is not a file read
        Path(path).resolve()
        for path, how in opened
        if how & os.O_ACCMODE == os.O_RDONLY and not Path(path).is_dir()
    }
    assert {path for path in read if path.is_relative_to(run.resolve())} == {
        (run / POSTINGS_FILE).resolve()
    }


def readme_command_files() -> dict[str, set[str]]:
    """The README's table of what each command writes to `--out`."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Commands and their files\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|(.*)\|$", section, re.M)
    return {command: set(re.findall(r"`([^`]+)`", writes)) for command, writes in rows}


def test_readme_names_the_files_each_command_writes(tmp_path):
    table = readme_command_files()
    assert list(table) == [
        "synth", "ingest --input FILE", "normalize", "translate", "embed", "index",
        "dedup", "dedup --input FILE", "eval", "report",
    ]
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    assert run_cli(*synth_args(corpus, n_base=20, seed=6)) == 0
    flags = ["--out", run, "--dict", corpus / DICTIONARY_FILE, "--k", 20, "--theta", 0.35]

    def state(outdir):
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in outdir.glob("*")}

    for command, writes in table.items():
        argv = command.replace("FILE", str(corpus / POSTINGS_FILE)).split()
        if command == "synth":
            argv += ["--n-base", "20"]
        before = state(run) if run.exists() else {}
        assert run_cli(*argv, *flags) == 0, command
        after = state(run)
        assert {name for name in after if before.get(name) != after[name]} == writes, command
        assert set(before) <= set(after), command  # no command removes a file

    # `dedup --input` in an empty directory leaves exactly what it writes.
    fresh = tmp_path / "fresh"
    assert run_cli("dedup", "--input", corpus / POSTINGS_FILE, *flags[2:], "--out", fresh) == 0
    assert set(state(fresh)) == table["dedup --input FILE"]


def ivf_config(tmp_path) -> Path:
    path = tmp_path / "ivf.json"
    path.write_text('{"index": {"kind": "ivf", "nlist": 4, "nprobe": 2}}', encoding="utf-8")
    return path


def test_stage_commands_on_a_corpus_with_nothing_to_embed(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    save_postings([make_posting("a", "\U0001f642"), make_posting("b", "\U0001f389" * 2)], corpus)
    outdir = tmp_path / "run"
    outdir.mkdir()
    # The embeddings of an earlier corpus.
    FlatIndex(["old"], [[1.0, 0.0]]).save(outdir / EMBEDDINGS_FILE)
    ivf = ivf_config(tmp_path)
    assert run_cli("ingest", "--input", corpus, "--out", outdir) == 0
    for command in ("normalize", "translate", "embed", "index"):
        before = set(outdir.iterdir())
        assert run_cli(command, "--out", outdir, "--config", ivf) == 0, command
        assert before <= set(outdir.iterdir()), command  # no file is removed
    out = capsys.readouterr().out
    assert "embedded 0 non-empty representatives" in out
    assert "built flat index over 0 vectors" in out
    embedded = load_index(outdir / EMBEDDINGS_FILE)
    assert (embedded.ids, embedded.dim) == ([], 256)
    assert run_cli("dedup", "--out", outdir, "--config", ivf) == 0
    assert (outdir / RESULTS_FILE).read_text().splitlines() == [RESULTS_HEADER]
    report = json.loads((outdir / REPORT_FILE).read_text())
    assert (report["n_groups"], report["n_zero_vectors"], report["label_counts"]) == (2, 2, {})


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_index_command_builds_the_index_and_writes_no_file(tmp_path, capsys, kind):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    assert run_cli(*synth_args(corpus, n_base=20, seed=8)) == 0
    flags = ["--out", run, "--dict", corpus / DICTIONARY_FILE]
    if kind == "ivf":
        flags += ["--config", ivf_config(tmp_path)]
    assert run_cli("ingest", "--input", corpus / POSTINGS_FILE, *flags) == 0
    for command in ("normalize", "translate", "embed"):
        assert run_cli(command, *flags) == 0
    capsys.readouterr()

    def state():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in run.iterdir()}

    before = state()
    assert run_cli("index", *flags) == 0
    assert state() == before
    n = len(load_index(run / EMBEDDINGS_FILE))
    assert capsys.readouterr().out == f"built {kind} index over {n} vectors\n"


def test_index_command_on_a_pdix_of_kind_1_is_data_error(tmp_path, capsys):
    # Kind 1 was the IVF layout; no IVF index is stored any more.
    FlatIndex(["a"], [[1.0, 0.0]]).save(tmp_path / EMBEDDINGS_FILE)
    payload = bytearray((tmp_path / EMBEDDINGS_FILE).read_bytes()[:-4])
    payload[6] = 1  # the kind byte, after magic and version
    resealed = bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)))
    (tmp_path / EMBEDDINGS_FILE).write_bytes(resealed)
    assert run_cli("index", "--out", tmp_path) == 3
    assert "data error: unknown index kind 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [EMBEDDINGS_FILE]


def test_postings_that_clean_to_nothing_are_not_duplicates(tmp_path):
    # Under ascii_only, Greek and Japanese text cleans to nothing; in every
    # mode so do emoji. An empty text is an exact group of its own.
    corpus = tmp_path / "corpus.jsonl"
    postings = [
        ("cook", "Μάγειρας", "Ζητείται μάγειρας για εστιατόριο στην Αθήνα"),
        ("driver", "Οδηγός φορτηγού", "Ζητείται οδηγός φορτηγού με δίπλωμα"),
        ("engineer", "エンジニア", "東京のソフトウェアエンジニアを募集しています"),
        ("smile", "\U0001f642"),
        ("party", "\U0001f389"),
        ("chef", "Chef", "Chef wanted for a restaurant in Athens"),
    ]
    save_postings([make_posting(*posting) for posting in postings], corpus)
    for name, flags in (("default", []), ("strict", ["--paper-strict"])):
        outdir = tmp_path / name
        assert run_cli("dedup", "--input", corpus, "--out", outdir, *flags) == 0, name
        assert (outdir / RESULTS_FILE).read_text().splitlines() == [RESULTS_HEADER], name
        assert json.loads((outdir / REPORT_FILE).read_text())["n_groups"] == 6, name


@pytest.mark.parametrize("thetas", ["[0.1, NaN]", "[0.1, Infinity]", "[-0.5, 0.1]", "[0.1, 5.0]"])
def test_sweep_theta_outside_0_to_2_is_config_error(tmp_path, capsys, thetas):
    config = tmp_path / "config.json"
    config.write_text(f'{{"dedup": {{"sweep_thetas": {thetas}}}}}', encoding="utf-8")
    assert run_cli("dedup", "--out", tmp_path, "--config", config) == 2
    assert "config error: dedup.sweep_thetas must each be in (0, 2]" in capsys.readouterr().err
    assert not (tmp_path / REPORT_FILE).exists()


def test_report_is_strict_json(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=20)) == 0
    config = ivf_config(tmp_path)
    flags = ["--dict", outdir / DICTIONARY_FILE, "--k", 5, "--theta", 2.0, "--config", config]
    assert run_cli("dedup", "--out", outdir, *flags) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads((outdir / REPORT_FILE).read_text(), parse_constant=refuse)
    assert report["search_radius"] == 2.0 and report["ivf_list_sizes"]


def test_negative_seed_with_an_ivf_index_is_config_error(tmp_path, capsys):
    config = ivf_config(tmp_path)
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=20)) == 0
    assert run_cli("dedup", "--out", outdir, "--config", config, "--seed", -1) == 2
    err = capsys.readouterr().err
    assert "config error: seed must be non-negative for an ivf index, got -1" in err


_POSTING = {"id": "a", "title": "chef", "retrieval_date": "2024-03-01", "source": "s"}
_CSV_CORPUS_HEADER = "id,title,description,retrieval_date,source"
_CSV_CORPUS_ROW = "a1,chef,cooks food,2024-01-01,s"
_CANONICAL_LINE = json.dumps({"id": "a", "canonical_text": "chef", "fingerprint": "f"}) + "\n"


@pytest.mark.parametrize(
    "command, files, named",
    [
        ("report", {REPORT_FILE: "not json"}, REPORT_FILE),
        (
            "report",
            {REPORT_FILE: "{}", EVAL_FILE: '{"full": {"precision": 1.0}, "macro_f1": 1.0}'},
            EVAL_FILE,
        ),
        (
            "eval",
            {RESULTS_FILE: "id1,id2,label,distance,reason\n", GOLD_FILE: "id1,id2,label\na,b,bogus\n"},
            f"{GOLD_FILE}:2",
        ),
        (
            "eval",
            {RESULTS_FILE: "id1,id2,label,reason\na,b,full,x\n", GOLD_FILE: "id1,id2,label\n"},
            f"{RESULTS_FILE}:2",
        ),
        (
            "translate",
            {POSTINGS_FILE: json.dumps(_POSTING) + "\n", CANONICAL_FILE: "not json\n"},
            f"{CANONICAL_FILE}:1",
        ),
        ("report", {REPORT_FILE: "[1, 2]"}, REPORT_FILE),
        (
            "report",
            {
                REPORT_FILE: "{}",
                EVAL_FILE: '{"full": {"precision": 1.0, "recall": 1.0, "f1": 1.0,'
                ' "tp": 1, "fp": 0, "fn": 0, "support": 1}, "macro_f1": 1.0}',
            },
            EVAL_FILE,
        ),
        (
            "report",
            {
                REPORT_FILE: "{}",
                EVAL_FILE: '{"full": {"precision": "high", "recall": 1.0, "f1": 1.0,'
                ' "tp": 1, "fp": 0, "fn": 0}, "macro_f1": 1.0}',
            },
            EVAL_FILE,
        ),
        # A run report whose fields `report` cannot render.
        *(
            ("report", {REPORT_FILE: json.dumps(run)}, REPORT_FILE)
            for run in (
                {"truncation": {"n_total": 3}},
                {"sweep": [[0.1, 2]]},
                {"stage_seconds": {"x": "fast"}},
                {"ivf_list_sizes": [1, 2]},
                {"saturation": {"count": 1}},
            )
        ),
        (
            "translate",
            {POSTINGS_FILE: json.dumps(_POSTING) + "\n", CANONICAL_FILE: "[1, 2]\n"},
            f"{CANONICAL_FILE}:1",
        ),
        (
            "translate",
            {
                POSTINGS_FILE: json.dumps(_POSTING) + "\n",
                CANONICAL_FILE: _CANONICAL_LINE + '{"id": "b"}\n',
            },
            f"{CANONICAL_FILE}:2",
        ),
        (
            "translate",
            {
                POSTINGS_FILE: json.dumps(_POSTING) + "\n",
                CANONICAL_FILE: '{"id": "a", "canonical_text": 5, "fingerprint": "f"}\n',
            },
            f"{CANONICAL_FILE}:1",
        ),
        ("embed", {TRANSLATED_FILE: '"x"\n'}, f"{TRANSLATED_FILE}:1"),
        ("embed", {TRANSLATED_FILE: '{"id": "a", "text": "chef"}\n{"id": "b"}\n'}, f"{TRANSLATED_FILE}:2"),
        # A byte that is not UTF-8, past the first chunk a text reader decodes.
        (
            "ingest --input corpus.jsonl",
            {
                "corpus.jsonl": "".join(
                    json.dumps({**_POSTING, "id": f"p{i}"}) + "\n" for i in range(300)
                ).encode()
                + b'{"id": "b", "title": "k\xf6ch"}\n'
            },
            "corpus.jsonl:301",
        ),
        (
            "ingest --input corpus.csv --format csv",
            {
                "corpus.csv": b"id,title,retrieval_date,source\r\n"
                b"a,chef,2024-03-01,s\r\nb,k\xf6ch,2024-03-01,s\r\n"
            },
            "corpus.csv:3",
        ),
        (
            "translate",
            {
                POSTINGS_FILE: json.dumps(_POSTING) + "\n",
                CANONICAL_FILE: _CANONICAL_LINE.encode() + b"\xff\n",
            },
            f"{CANONICAL_FILE}:2",
        ),
        ("embed", {TRANSLATED_FILE: b'{"id": "a", "text": "\xc3"}\n'}, f"{TRANSLATED_FILE}:1"),
        (
            "eval",
            {
                RESULTS_FILE: "id1,id2,label,distance,reason\n",
                GOLD_FILE: b"id1,id2,label\r\na,b,FULL\r\nc,\xff,FULL\r\n",
            },
            f"{GOLD_FILE}:3",
        ),
        (
            "eval",
            {
                RESULTS_FILE: b"id1,id2,label,distance,reason\na,b,FULL,0.1,caf\xe9\n",
                GOLD_FILE: "id1,id2,label\n",
            },
            f"{RESULTS_FILE}:2",
        ),
        (
            "normalize",
            {POSTINGS_FILE: json.dumps(_POSTING) + "\n{not json\n"},
            f"{POSTINGS_FILE}:2",
        ),
        # Records whose quoted cells span two lines are named by the line
        # each record starts on, in the corpus and in the gold file alike.
        (
            "ingest --input corpus.csv --format csv",
            {
                "corpus.csv": "id,title,description,retrieval_date,source\r\n"
                'a,chef,"one\r\ntwo",2024-03-01,s\r\n'
                'b,cook,"three\r\nfour",2024-03-01,\r\n'
            },
            "corpus.csv:4",
        ),
        (
            "eval",
            {
                RESULTS_FILE: "id1,id2,label,distance,reason\n",
                GOLD_FILE: 'id1,id2,label\r\n"a\r\nb",c,FULL\r\n"d\r\ne",f,bogus\r\n',
            },
            f"{GOLD_FILE}:4",
        ),
        (
            "ingest --input corpus.csv --format csv",
            {
                "corpus.csv": "id,title,description,retrieval_date,source\n"
                f"a,chef,{'x' * 140_000},2024-03-01,s\n"  # over the csv module's cell limit
            },
            "corpus.csv:2",
        ),
        (
            "eval",
            {
                RESULTS_FILE: "id1,id2,label,distance,reason\na,b,NONE,0.1,x\n",
                GOLD_FILE: "id1,id2,label\n",
            },
            f"{RESULTS_FILE}:2",
        ),
        (
            "eval",
            {
                RESULTS_FILE: "id1,id2,label,distance,reason\n",
                GOLD_FILE: "id1,id2,label\na,b,NONE\n",
            },
            f"{GOLD_FILE}:2",
        ),
        # gold.csv and results.csv are read by one row reader, and report
        # the same faults alike.
        (
            "eval",
            {RESULTS_FILE: f"{RESULTS_HEADER}\n", GOLD_FILE: "id1,id2,label\nb,a,FULL\n"},
            f"{GOLD_FILE}:2: gold ids ('b', 'a') do not ascend",
        ),
        (
            "eval",
            {
                RESULTS_FILE: f"{RESULTS_HEADER}\na,b,FULL,0.0,exact_fingerprint\n"
                "a,b,SEMANTIC,0.1,semantic_threshold\n",
                GOLD_FILE: "id1,id2,label\na,b,FULL\n",
            },
            f"{RESULTS_FILE}:3: results pair ('a', 'b') listed twice",
        ),
        # Every CSV reader refuses a header naming a column twice, whose last
        # cell would silently win; the corpus reader also refuses a column it
        # does not know, where the gold and results readers take extra ones.
        *(
            (
                f"{command} --input corpus.csv --format csv",
                {"corpus.csv": f"{_CSV_CORPUS_HEADER},{column}\n{_CSV_CORPUS_ROW},x\n"},
                f"corpus.csv:1: {fault} columns: [{column!r}]",
            )
            for command in ("ingest", "dedup")
            for column, fault in (("salary", "unknown"), ("title", "repeated"))
        ),
        (
            "eval",
            {RESULTS_FILE: f"{RESULTS_HEADER}\n", GOLD_FILE: "id1,id2,label,id2\na,b,FULL,c\n"},
            f"{GOLD_FILE}:1: repeated columns: ['id2']",
        ),
        (
            "eval",
            {
                RESULTS_FILE: f"{RESULTS_HEADER},label\na,b,FULL,0.0,exact_fingerprint,x\n",
                GOLD_FILE: "id1,id2,label\n",
            },
            f"{RESULTS_FILE}:1: repeated columns: ['label']",
        ),
        # A lone surrogate escape decodes to a string no artifact can hold.
        *(
            (
                f"{command} --input corpus.jsonl",
                {
                    "corpus.jsonl": json.dumps(_POSTING)
                    + "\n"
                    + json.dumps({**_POSTING, "id": "a\ud800"})
                    + "\n"
                },
                "corpus.jsonl:2: lone surrogate \\ud800",
            )
            for command in ("ingest", "dedup")
        ),
    ],
    ids=[
        "report-not-json", "eval-json-missing-fields", "gold-unknown-label",
        "results-without-distance", "canonical-not-json", "report-not-object",
        "eval-json-extra-field",
        "eval-json-string-metric", "report-truncation", "report-sweep", "report-stage-seconds",
        "report-ivf-list-sizes", "report-saturation",
        "canonical-not-object", "canonical-missing-field", "canonical-non-string-field",
        "translated-not-object", "translated-missing-field", "corpus-jsonl-not-utf8",
        "corpus-csv-not-utf8", "canonical-not-utf8", "translated-not-utf8",
        "gold-not-utf8", "results-not-utf8", "postings-not-json",
        "corpus-csv-multiline-cells", "gold-multiline-cells", "corpus-csv-cell-too-large",
        "results-none-label", "gold-none-label", "gold-ids-descend", "results-pair-twice",
        "ingest-csv-unknown-column", "ingest-csv-repeated-column",
        "dedup-csv-unknown-column", "dedup-csv-repeated-column",
        "gold-repeated-column", "results-repeated-column",
        "ingest-lone-surrogate", "dedup-lone-surrogate",
    ],
)
def test_malformed_input_file_is_data_error(tmp_path, monkeypatch, capsys, command, files, named):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert run_cli(*command.split(), "--out", tmp_path) == 3
    assert named in capsys.readouterr().err


def test_deeply_nested_corpus_line_exits_3_without_traceback(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(_POSTING) + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
    done = subprocess.run(
        [
            sys.executable, "-m", "postdedup.cli", "ingest",
            "--input", str(corpus), "--out", str(tmp_path / "run"),
        ],
        env=_env_without_blas_threads(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 3
    assert f"{corpus}:2" in done.stderr
    assert "Traceback" not in done.stderr


def test_deeply_nested_json_document_names_its_deepest_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / REPORT_FILE).write_text(
        '{"k": [1, "[[[["],\n "deep":\n' + "[" * 100_000 + "\n", encoding="utf-8"
    )
    assert run_cli("report", "--out", tmp_path) == 3
    assert f"{REPORT_FILE}:3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, name, content, named",
    [
        ("--config", "run.yaml", b"mode: two_step\nseed: 7  # caf\xe9\n", "run.yaml:2"),
        ("--rules", "rules.yaml", b"- {name: r\xff}\n", "rules.yaml:1"),
        ("--dict", "dict.json", b'{"chef": "cook",\n "k\xe9": "x"}\n', "dict.json:2"),
        ("--dict", "dict.json", b'{"chef": "cook",\n "koch"}\n', "dict.json:2"),
        ("--dict", "dict.json", b'{"chef": "cook",\n "hi": "hi\\ud800 there"}\n', "dict.json:2"),
    ],
    ids=[
        "config-not-utf8", "rules-not-utf8", "dictionary-not-utf8", "dictionary-not-json",
        "dictionary-lone-surrogate",
    ],
)
def test_malformed_config_file_is_config_error(
    tmp_path, monkeypatch, capsys, flag, name, content, named
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(content)
    (tmp_path / POSTINGS_FILE).write_text(json.dumps(_POSTING) + "\n", encoding="utf-8")
    assert run_cli("dedup", flag, name, "--out", tmp_path) == 2
    assert named in capsys.readouterr().err


def _commands() -> list[str]:
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices)


@pytest.mark.parametrize("bad", [("--k", 0), ("--config", "missing.yaml")], ids=["k-0", "no-file"])
@pytest.mark.parametrize("command", _commands())
def test_every_command_checks_the_config(tmp_path, monkeypatch, capsys, command, bad):
    monkeypatch.chdir(tmp_path)
    extra = ("--input", "missing.jsonl") if command == "ingest" else ()
    assert run_cli(command, "--out", "run", *bad, *extra) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_drives_run(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, seed=11)) == 0
    config_path = tmp_path / "run.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "mode": "two_step",
                "seed": 11,
                "translate": {
                    "kind": "dictionary",
                    "dictionary_path": str(outdir / DICTIONARY_FILE),
                },
                "dedup": {"k": 20, "base_theta": 0.35},
            }
        ),
        encoding="utf-8",
    )
    assert run_cli("dedup", "--out", outdir, "--config", config_path) == 0
    assert run_cli("eval", "--out", outdir) == 0


def test_paper_strict_preset(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, seed=13)) == 0
    assert run_cli(
        "dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE, "--paper-strict",
    ) == 0
    report = json.loads((outdir / REPORT_FILE).read_text())
    assert report["k"] == 100
    assert report["base_theta"] == 0.25


def test_rules_from_yaml_file(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, seed=17)) == 0
    rules_path = tmp_path / "rules.yaml"
    rules_path.write_text(
        yaml.safe_dump(
            [
                {"company": "same", "location": "same", "action": "threshold", "threshold": 0.30},
                {"action": "threshold", "threshold": 0.25},
            ]
        ),
        encoding="utf-8",
    )
    assert run_cli(
        "dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE,
        "--k", 20, "--theta", 0.25, "--rules", rules_path,
    ) == 0
    assert (outdir / RESULTS_FILE).exists()


def test_report_json_format(tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, seed=15)) == 0
    assert run_cli(
        "dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE,
        "--k", 20, "--theta", 0.35,
    ) == 0
    capsys.readouterr()
    assert run_cli("report", "--out", outdir, "--format", "json") == 0
    document = json.loads(capsys.readouterr().out)
    assert document["run"]["k"] == 20


def catch_all_thresholds(config):
    return [rule.threshold for rule in config.dedup.rules if rule.is_catch_all]


def test_theta_flag_reaches_example_rules_from_config_file(tmp_path):
    config_path = tmp_path / "run.yaml"
    config_path.write_text("dedup: {rules: example}\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["dedup", "--out", str(tmp_path), "--config", str(config_path), "--theta", "0.35"]
    )
    config = _config_from_args(args)
    assert config.dedup.base_theta == 0.35
    assert catch_all_thresholds(config) == [0.35]


def test_paper_strict_sets_theta_of_example_rules_too(tmp_path):
    args = build_parser().parse_args(
        ["dedup", "--out", str(tmp_path), "--rules", "example", "--theta", "0.35", "--paper-strict"]
    )
    config = _config_from_args(args)
    assert (config.dedup.k, config.dedup.base_theta) == (100, 0.25)
    assert catch_all_thresholds(config) == [0.25]


def test_malformed_translation_cache_line_is_data_error(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=10)) == 0
    cache_path = tmp_path / "cache.jsonl"
    cache_path.write_text("not json\n{}\n", encoding="utf-8")
    config_path = tmp_path / "run.yaml"
    config_path.write_text(
        yaml.safe_dump({"translate": {"cache_path": str(cache_path)}}), encoding="utf-8"
    )
    assert run_cli(
        "dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE, "--config", config_path
    ) == 3


def test_non_string_translation_cache_text_is_data_error(tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=10)) == 0
    cache_path = tmp_path / "cache.jsonl"
    config_path = tmp_path / "run.yaml"
    config_path.write_text(
        yaml.safe_dump({"translate": {"cache_path": str(cache_path)}}), encoding="utf-8"
    )
    args = ("dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE, "--config", config_path)
    assert run_cli(*args) == 0
    records = [json.loads(line) for line in cache_path.read_text(encoding="utf-8").splitlines()]
    records[0]["translated_text"] = 5  # a hit for the next run, but not text
    cache_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*args) == 3
    assert "malformed translation cache record" in capsys.readouterr().err


def cache_config(tmp_path, cache_path) -> Path:
    config_path = tmp_path / "cache.yaml"
    config_path.write_text(
        yaml.safe_dump({"translate": {"cache_path": str(cache_path)}}), encoding="utf-8"
    )
    return config_path


@pytest.mark.parametrize("route", ["run_pipeline", "dedup"])
def test_cache_path_in_a_missing_directory_fails_before_any_translation(
    tmp_path, monkeypatch, capsys, route
):
    # The cache opens its file when it is made, so a path that cannot be
    # written stops the run before the backend translates anything.
    batches = []

    class Counting(IdentityTranslator):
        def translate(self, texts, source, target):
            batches.append(list(texts))
            return super().translate(texts, source, target)

    cache_path = tmp_path / "missing" / "cache.jsonl"
    postings = [make_posting("a1", "Koch"), make_posting("a2", "Kellner")]
    if route == "run_pipeline":
        config = config_from_dict({"translate": {"cache_path": str(cache_path)}})
        with pytest.raises(FileNotFoundError, match=re.escape(str(cache_path))):
            pipeline.run_pipeline(postings, config, translator=Counting())
    else:
        monkeypatch.setattr(pipeline, "make_translator", lambda config: Counting())
        save_postings(postings, tmp_path / "corpus.jsonl")
        config = cache_config(tmp_path, cache_path)
        args = ("--input", tmp_path / "corpus.jsonl", "--out", tmp_path / "run", "--config", config)
        assert run_cli("dedup", *args) == 3
        assert str(cache_path) in capsys.readouterr().err
    assert batches == []
    assert not cache_path.parent.exists()


def test_translation_cache_serves_no_translation_of_another_dictionary(tmp_path):
    corpus = tmp_path / "corpus"
    assert run_cli(*synth_args(corpus, n_base=40, seed=3)) == 0
    mapping = json.loads((corpus / DICTIONARY_FILE).read_text(encoding="utf-8"))
    other = tmp_path / "zzz.json"
    other.write_text(json.dumps(dict.fromkeys(mapping, "zzz")), encoding="utf-8")
    config = cache_config(tmp_path, tmp_path / "cache.jsonl")

    def results(name, dictionary, *flags):
        outdir = tmp_path / name
        args = ("--input", corpus / POSTINGS_FILE, "--out", outdir, "--dict", dictionary)
        assert run_cli("dedup", *args, *flags) == 0
        return (outdir / RESULTS_FILE).read_text(encoding="utf-8")

    first = results("first", corpus / DICTIONARY_FILE, "--config", config)
    uncached = results("uncached", other)
    assert uncached != first
    assert results("cached", other, "--config", config) == uncached


def test_translation_cache_serves_no_translation_of_another_casing(tmp_path):
    # Both days' texts share a lowercase fingerprint, but the embedder hashes
    # tokens as they are cased, so day 2 must embed its own casing.
    dictionary = tmp_path / "empty.json"
    dictionary.write_text("{}", encoding="utf-8")
    text = "Senior Data Engineer Berlin python spark airflow"
    days = {
        "day1": [make_posting("a1", text)],
        "day2": [
            make_posting("b1", text.upper()),
            make_posting("b2", "Senior Data Engineer Berlin python spark kafka"),
        ],
    }
    config = cache_config(tmp_path, tmp_path / "cache.jsonl")

    def results(day, *flags):
        corpus, outdir = tmp_path / f"{day}.jsonl", tmp_path / f"{day}-{len(flags)}"
        save_postings(days[day], corpus)
        args = ("--input", corpus, "--out", outdir, "--dict", dictionary, "--theta", 0.9)
        assert run_cli("dedup", *args, *flags) == 0
        return (outdir / RESULTS_FILE).read_text(encoding="utf-8").splitlines()

    results("day1", "--config", config)
    assert results("day2") == [RESULTS_HEADER]
    assert results("day2", "--config", config) == [RESULTS_HEADER]


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    src = str(Path(postdedup.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, postdedup; "
        "print(sorted(m for m in sys.modules if m.startswith('postdedup.') or m == 'numpy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# What `dedup` with an in-process translator, the hashed embedder, one
# thread and a JSON config does not run, so importing the CLI loads none.
_NOT_RUN_BY_DEDUP = (
    "yaml",
    "postdedup.synth",
    "postdedup.batching",
    "statistics",
    "concurrent.futures",
    "requests",
)


def test_cli_loads_only_the_modules_dedup_runs(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(json.dumps({**_POSTING, "id": vid}) + "\n" for vid in "abc"), encoding="utf-8"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dedup": {"base_theta": 1e-1, "k": 2}}), encoding="utf-8")
    code = (
        "import json, sys\n"
        "from postdedup import cli\n"
        f"names = {list(_NOT_RUN_BY_DEDUP)!r}\n"
        "imported = [m for m in names if m in sys.modules]\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, imported, [m for m in names if m in sys.modules]]))\n"
    )
    argv = ["dedup", "--input", str(corpus), "--out", str(tmp_path / "run")]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--config", str(config), "--rules", "example"],
        env=_env_without_blas_threads(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [0, [], []]
    assert "exact_fingerprint" in (tmp_path / "run" / RESULTS_FILE).read_text(encoding="utf-8")


def _env_without_blas_threads(**extra) -> dict:
    """This process's environment minus OPENBLAS_NUM_THREADS, with `src` importable."""
    src = str(Path(postdedup.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**env, **extra}


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
def test_cli_loads_numpy_with_one_blas_thread_unless_set(preset, seen):
    code = (
        "import os, sys\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
        "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.addaudithook(hook)\n"
        "import postdedup.cli\n"
        "print(seen)\n"
    )
    env = _env_without_blas_threads(**({"OPENBLAS_NUM_THREADS": preset} if preset else {}))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == repr([seen])


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_dedup_outputs_do_not_depend_on_threads_with_one_blas_thread(tmp_path, kind):
    index = {"kind": kind, "nlist": 8, "nprobe": 2} if kind == "ivf" else {"kind": kind}
    config_path = tmp_path / "index.yaml"
    config_path.write_text(yaml.safe_dump({"index": index}), encoding="utf-8")
    outputs = []
    for threads in (4, 1):
        outdir = tmp_path / f"threads{threads}"
        assert run_cli(*synth_args(outdir, n_base=300, seed=13)) == 0
        subprocess.run(
            [
                sys.executable, "-m", "postdedup.cli", "dedup", "--out", str(outdir),
                "--dict", str(outdir / DICTIONARY_FILE), "--config", str(config_path),
                "--k", "20", "--theta", "0.35", "--seed", "13", "--threads", str(threads),
            ],
            env=_env_without_blas_threads(),
            capture_output=True,
            check=True,
        )
        report = json.loads((outdir / REPORT_FILE).read_text(encoding="utf-8"))
        del report["stage_seconds"]
        outputs.append([(outdir / RESULTS_FILE).read_bytes(), report])
    assert outputs[0] == outputs[1]


# Runs `postdedup dedup` with os.replace wrapped so that the process
# SIGKILLs itself just before `results.csv` would be replaced.
_KILLED_AT_RESULTS = """
import os, signal, sys
import postdedup.atomic
from postdedup import cli

replace = postdedup.atomic.os.replace

def kill_before_results(src, dst):
    if os.path.basename(dst) == "results.csv":
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)

postdedup.atomic.os.replace = kill_before_results
sys.exit(cli.main(sys.argv[1:]))
"""


def test_sigkill_during_an_artifact_write_then_dedup_again(tmp_path):
    run, fresh = tmp_path / "run", tmp_path / "fresh"
    for outdir in (run, fresh):
        assert run_cli(*synth_args(outdir, n_base=40, seed=9)) == 0

    def dedup(outdir, theta):
        return ["dedup", "--out", outdir, "--dict", outdir / DICTIONARY_FILE, "--k", 20,
                "--theta", theta, "--seed", 9]

    # An earlier good run with another theta, so its results differ.
    assert run_cli(*dedup(run, 0.2)) == 0
    earlier = (run / RESULTS_FILE).read_bytes()
    assert run_cli(*dedup(fresh, 0.35)) == 0
    assert (fresh / RESULTS_FILE).read_bytes() != earlier

    killed = subprocess.run(
        [sys.executable, "-c", _KILLED_AT_RESULTS, *map(str, dedup(run, 0.35))],
        env=_env_without_blas_threads(),
        capture_output=True,
    )
    assert killed.returncode == -signal.SIGKILL
    assert (run / RESULTS_FILE).read_bytes() == earlier
    # Nothing cleans up under SIGKILL: the finished temp file stays behind.
    (orphan,) = run.glob(f".{RESULTS_FILE}.*.tmp")
    orphan.write_bytes(b"not a results file\n")

    assert run_cli(*dedup(run, 0.35)) == 0
    assert orphan.read_bytes() == b"not a results file\n"  # the rerun neither reads nor removes it
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in run.iterdir() if p != orphan) == names
    for name in names:
        if name == REPORT_FILE:
            reports = [json.loads((d / name).read_text()) for d in (run, fresh)]
            for report in reports:
                del report["stage_seconds"]
            assert reports[0] == reports[1]
        else:
            assert (run / name).read_bytes() == (fresh / name).read_bytes(), name
