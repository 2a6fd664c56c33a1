"""Command line surface: subcommand behavior and exit codes."""

import io
import json
import sys

import pytest

from espunct.cli import main
from espunct.corpus import read_jsonl, render, write_jsonl
from espunct.synthetic import rule_corpus
from espunct.tagger import TaggerModel

from helpers import BAD_MODEL_CHANGES, labels, lu


@pytest.fixture()
def text_file(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text(
        "bueno; quiero «una» cita...\n"
        "¿cómo funciona?\n"
        "\n"
        "vale, gracias.\n",
        encoding="utf-8",
    )
    return path


def test_normalize_writes_jsonl(tmp_path, text_file):
    out = tmp_path / "norm.jsonl"
    assert main(["normalize", "--in", str(text_file), "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert [r.text for r in records] == [
        "bueno, quiero una cita.",
        "¿cómo funciona?",
        "vale, gracias.",
    ]


def test_normalize_rejects_labeled_input(tmp_path):
    bad = tmp_path / "labeled.jsonl"
    write_jsonl([lu("hola ya", "N P")], bad)
    assert main(["normalize", "--in", str(bad), "--out", str(tmp_path / "o")]) == 3


def test_extract_labels_lines(tmp_path, text_file):
    out = tmp_path / "labeled.jsonl"
    assert main(["extract", "--in", str(text_file), "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert records[0].tokens == ("bueno", "quiero", "una", "cita")
    assert records[0].labels == labels("C N N P")
    assert records[1].labels == labels("OQ CQ")


def test_select_keeps_low_perplexity_and_reports(tmp_path):
    model_corpus = tmp_path / "model.txt"
    model_corpus.write_text(
        "\n".join(["quiero una cita hoy."] * 8), encoding="utf-8"
    )
    pool = tmp_path / "pool.txt"
    pool.write_text(
        "quiero una cita ya.\nzzyx blorp vex glon.\nquiero una cita hoy.\n",
        encoding="utf-8",
    )
    out = tmp_path / "kept.jsonl"
    report = tmp_path / "scores.tsv"
    code = main([
        "select", "--model-corpus", str(model_corpus), "--pool", str(pool),
        "--k", "2", "--order", "3", "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    kept = read_jsonl(out)
    assert [r.text for r in kept] == ["quiero una cita ya.", "quiero una cita hoy."]
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "pool_index\tperplexity"
    assert len(lines) == 4


def test_select_keeps_labeled_pool_records(tmp_path):
    model_corpus = tmp_path / "model.jsonl"
    write_jsonl([lu("quiero una cita hoy", "N N N P")] * 8, model_corpus)
    pool_records = [
        lu("quiero una cita ya", "N N N P", source="os", lang="es"),
        lu("zzyx blorp vex glon", "N N N P", source="alien", lang="xx"),
        lu("quiero una cita hoy", "OQ N N CQ", source="os", lang="es"),
    ]
    pool = tmp_path / "pool.jsonl"
    write_jsonl(pool_records, pool)
    out = tmp_path / "kept.jsonl"
    code = main([
        "select", "--model-corpus", str(model_corpus), "--pool", str(pool),
        "--k", "2", "--order", "3", "--out", str(out),
    ])
    assert code == 0
    assert read_jsonl(out) == [pool_records[0], pool_records[2]]


def test_augment_matches_target_and_reports(tmp_path):
    singles = tmp_path / "singles.jsonl"
    write_jsonl(
        [lu(f"linea n{i} corta", "N N P") for i in range(40)], singles
    )
    target = tmp_path / "target.jsonl"
    write_jsonl(
        [lu("una frase aquí", "N N P"), lu("dos frases aquí ya", "N P N P")],
        target,
    )
    out = tmp_path / "grown.jsonl"
    report = tmp_path / "hist.tsv"
    code = main([
        "augment", "--source", str(singles), "--target-corpus", str(target),
        "--seed", "5", "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    grown = read_jsonl(out)
    assert sum(len(u.tokens) for u in grown) == 120
    counts = {sum(1 for l in u.labels if l.is_terminating) for u in grown}
    assert counts <= {1, 2}
    assert report.read_text(encoding="utf-8").startswith("terminals\ttarget\tbefore\tafter")


def test_convert_rewrites_conventions(tmp_path):
    source = tmp_path / "en.jsonl"
    write_jsonl([lu("ok how are you", "C N N CQ", lang="en")], source)
    out = tmp_path / "converted.jsonl"
    assert main(["convert", "--in", str(source), "--out", str(out)]) == 0
    assert read_jsonl(out)[0].labels == labels("C OQ N CQ")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-train")
    corpus = rule_corpus(150, seed=21)
    es = base / "es.jsonl"
    write_jsonl(corpus[:120], es)
    test = base / "test.jsonl"
    write_jsonl(corpus[120:], test)
    model = base / "model.json"
    code = main([
        "train", "--strategy", "es_only", "--es", str(es),
        "--epochs", "3", "--seed", "1", "--out", str(model),
    ])
    assert code == 0
    return base, model, test


def test_train_then_eval(trained, tmp_path, capsys):
    base, model, test = trained
    report = tmp_path / "report.json"
    code = main(["eval", "--model", str(model), "--test", str(test), "--out", str(report)])
    assert code == 0
    table = capsys.readouterr().out
    assert "micro-F1 (punctuation):" in table
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["utterances"] == 30
    assert payload["micro_f1_non_none"] > 0.8


def test_train_seed_env_override(trained, tmp_path, monkeypatch):
    base, model, test = trained
    flagged = tmp_path / "flagged.json"
    main([
        "train", "--strategy", "es_only", "--es", str(base / "es.jsonl"),
        "--epochs", "2", "--seed", "9", "--out", str(flagged),
    ])
    enved = tmp_path / "enved.json"
    monkeypatch.setenv("PUNCT_SEED", "9")
    main([
        "train", "--strategy", "es_only", "--es", str(base / "es.jsonl"),
        "--epochs", "2", "--seed", "0", "--out", str(enved),
    ])
    assert flagged.read_bytes() == enved.read_bytes()


def test_predict_prints_rendered_line(trained, capsys):
    base, model, test = trained
    code = main(["predict", "--model", str(model), "--text", "bueno necesito ayuda"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("Bueno,")


def test_serve_stdio_round_trip(trained, capsys, monkeypatch):
    base, model, test = trained
    request = json.dumps({"id": "q1", "text": "bueno necesito ayuda"})
    monkeypatch.setattr(sys, "stdin", io.StringIO(request + "\n"))
    assert main(["serve", "--model", str(model)]) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["id"] == "q1"
    assert response["text"].startswith("Bueno,")


def test_experiment_prints_rows(tmp_path, capsys):
    es = tmp_path / "es.jsonl"
    write_jsonl(rule_corpus(40, seed=22), es)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "schema_version": 1,
            "datasets": {"es_indomain": "es.jsonl"},
            "strategies": ["ES_ONLY"],
            "train": {"epochs": 1},
            "output_dir": str(tmp_path / "out"),
        }),
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "es_only: micro-F1" in out
    assert "comparison.md" in out


def test_serve_rejects_unusable_model(tmp_path):
    good = TaggerModel().to_json_dict()
    TaggerModel.from_json_dict(good)
    for name, change in BAD_MODEL_CHANGES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**good, **change}), encoding="utf-8")
        assert main(["serve", "--model", str(path)]) == 2, name


def test_exit_codes(tmp_path, trained, monkeypatch):
    base, model, test = trained
    # unknown strategy and bad listen address are configuration mistakes
    assert main([
        "train", "--strategy", "es_maybe", "--es", str(base / "es.jsonl"),
        "--out", str(tmp_path / "m.json"),
    ]) == 2
    assert main(["serve", "--model", str(model), "--listen", "noport"]) == 2
    assert main(["experiment", "--config", str(tmp_path / "absent.json")]) == 2
    monkeypatch.setenv("PUNCT_SEED", "not-a-number")
    assert main([
        "train", "--strategy", "es_only", "--es", str(base / "es.jsonl"),
        "--out", str(tmp_path / "m.json"),
    ]) == 2
    monkeypatch.delenv("PUNCT_SEED")
    # a data problem, not a usage problem
    broken = tmp_path / "broken.jsonl"
    broken.write_text("{not json}\n", encoding="utf-8")
    assert main(["extract", "--in", str(broken), "--out", str(tmp_path / "o")]) == 3
    missing = tmp_path / "missing.txt"
    assert main(["extract", "--in", str(missing), "--out", str(tmp_path / "o")]) == 3
    # a line that normalizes to nothing is a data error too
    empty = tmp_path / "quotes.txt"
    empty.write_text("vale.\n\u00ab\u00bb\n", encoding="utf-8")
    assert main(["extract", "--in", str(empty), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--model-corpus", "m.txt", "--pool", "p.txt", "--k", "-1", "--out", "o"],
        ["select", "--model-corpus", "m.txt", "--pool", "p.txt", "--k", "2",
         "--order", "0", "--out", "o"],
        ["augment", "--source", "s.jsonl", "--target-corpus", "t.jsonl",
         "--max-tokens", "0", "--out", "o"],
        ["train", "--strategy", "es_only", "--es", "es.jsonl", "--epochs", "0",
         "--out", "o"],
        ["train", "--strategy", "es_only", "--es", "es.jsonl", "--epochs", "many",
         "--out", "o"],
    ],
    ids=["k-negative", "order-zero", "max-tokens-zero", "epochs-zero", "epochs-not-int"],
)
def test_bad_numeric_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


def test_eval_out_into_missing_directory_is_a_data_error(trained, tmp_path):
    base, model, test = trained
    out = tmp_path / "absent" / "report.json"
    assert main(["eval", "--model", str(model), "--test", str(test), "--out", str(out)]) == 3
