from __future__ import annotations

import json

import yaml

from postdedup.cli import _config_from_args, build_parser, main
from postdedup.pipeline import (
    DICTIONARY_FILE,
    EVAL_FILE,
    GOLD_FILE,
    POSTINGS_FILE,
    REPORT_FILE,
    RESULTS_FILE,
)


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


def test_malformed_embed_response_exits_backend_error(tmp_path, monkeypatch, capsys):
    import requests

    from conftest import FakeResponse, FakeSession

    outdir = tmp_path / "run"
    assert run_cli(*synth_args(outdir, n_base=20)) == 0
    config = tmp_path / "remote.yaml"
    config.write_text(
        yaml.safe_dump({"embed": {"kind": "remote", "endpoint": "http://embed.invalid/e"}}),
        encoding="utf-8",
    )
    session = FakeSession(FakeResponse(200, "<html>upstream busy</html>"))
    monkeypatch.setattr(requests, "Session", lambda: session)
    monkeypatch.setattr("postdedup.batching.time.sleep", lambda seconds: None)
    capsys.readouterr()
    code = run_cli(
        "dedup", "--out", outdir, "--config", config, "--dict", outdir / DICTIONARY_FILE,
    )
    err = capsys.readouterr().err
    assert code == 4, err
    assert "backend error" in err
    assert len(session.calls) == 5  # retried before giving up


def test_dedup_without_ingest_artifact_is_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("dedup", "--out", empty) == 3


def test_eval_missing_files_is_data_error(tmp_path):
    assert run_cli("eval", "--out", tmp_path) == 3


def test_bad_config_file_is_config_error(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("mode: warp_speed\n", encoding="utf-8")
    assert run_cli("dedup", "--out", tmp_path, "--config", config) == 2


def test_unknown_config_key_is_config_error(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("dedupe: {}\n", encoding="utf-8")
    assert run_cli("dedup", "--out", tmp_path, "--config", config) == 2


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


def test_ingest_missing_input_is_data_error(tmp_path):
    assert run_cli("ingest", "--input", tmp_path / "nope.jsonl", "--out", tmp_path) == 3


def test_stagewise_commands_match_dedup(tmp_path):
    one = tmp_path / "one"
    two = tmp_path / "two"
    for outdir in (one, two):
        assert run_cli(*synth_args(outdir, seed=9)) == 0

    common = ["--dict", one / DICTIONARY_FILE, "--k", 20, "--theta", 0.35, "--seed", 9]
    assert run_cli("dedup", "--out", one, *common) == 0

    common_two = ["--dict", two / DICTIONARY_FILE, "--k", 20, "--theta", 0.35, "--seed", 9]
    for command in ("normalize", "translate", "embed", "index"):
        assert run_cli(command, "--out", two, *common_two) == 0
    assert run_cli("dedup", "--out", two, *common_two) == 0

    assert (one / RESULTS_FILE).read_bytes() == (two / RESULTS_FILE).read_bytes()


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
