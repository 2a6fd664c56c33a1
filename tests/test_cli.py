"""Command line surface: subcommand behavior and exit codes."""

import io
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from espunct.cli import main
from espunct.corpus import RawUtterance, read_jsonl, render, write_jsonl
from espunct.evaluate import DEFAULT_REPAIR
from espunct.selection import MAX_ORDER
from espunct.tagger import TaggerModel

from generators import rule_corpus
from helpers import BAD_MODEL_CHANGES, child_process_left, labels, lu


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


@pytest.mark.parametrize("line", ["[hola] que tal.", "(hola) que tal.", '{"a": NaN}'])
def test_extract_refuses_brackets_at_token_edges(tmp_path, line):
    text = tmp_path / "in.txt"
    text.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert main(["extract", "--in", str(text), "--out", str(out)]) == 3
    assert not out.exists()


def test_extract_labels_lines(tmp_path, text_file):
    out = tmp_path / "labeled.jsonl"
    assert main(["extract", "--in", str(text_file), "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert records[0].tokens == ("bueno", "quiero", "una", "cita")
    assert records[0].labels == labels("C N N P")
    assert records[1].labels == labels("OQ CQ")


def test_text_lines_split_on_newline_only(tmp_path):
    # U+2028 and U+0085 are whitespace inside a line, not line breaks.
    path = tmp_path / "breaks.txt"
    path.write_text("hola\u2028que tal.\r\n\u00abvale\u00bb \u0085 bien.\n\n", encoding="utf-8")
    out = tmp_path / "labeled.jsonl"
    assert main(["extract", "--in", str(path), "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert [r.tokens for r in records] == [("hola", "que", "tal"), ("vale", "bien")]
    assert [r.labels for r in records] == [labels("N N P"), labels("N P")]


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


def test_failed_select_writes_nothing(tmp_path, capsys):
    model_corpus = tmp_path / "model.txt"
    model_corpus.write_text("quiero una cita hoy.\n", encoding="utf-8")
    pool = tmp_path / "pool.txt"
    pool.write_text("quiero una cita ya.\nvale.\n", encoding="utf-8")
    out, report = tmp_path / "kept.jsonl", tmp_path / "rep.tsv"
    code = main([
        "select", "--model-corpus", str(model_corpus), "--pool", str(pool),
        "--k", "5", "--out", str(out), "--report", str(report),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()
    assert not out.exists()
    # An --out that cannot be written fails after the selection, and the
    # report is not written either.
    out.mkdir()
    code = main([
        "select", "--model-corpus", str(model_corpus), "--pool", str(pool),
        "--k", "1", "--out", str(out), "--report", str(report),
    ])
    assert code == 3
    assert "Is a directory" in capsys.readouterr().err
    assert not report.exists()
    # A --report that cannot be written fails after --out is written, and
    # --out is not put in place either.
    out = tmp_path / "kept_too.jsonl"
    code = main([
        "select", "--model-corpus", str(model_corpus), "--pool", str(pool),
        "--k", "1", "--out", str(out), "--report", str(tmp_path / "missing" / "rep.tsv"),
    ])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl", "model.txt", "pool.txt"]


def test_failed_augment_writes_nothing(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    target = tmp_path / "target.jsonl"
    write_jsonl([lu("una frase aquí", "N N P")], target)
    out, report = tmp_path / "grown.jsonl", tmp_path / "hist.tsv"
    code = main([
        "augment", "--source", str(empty), "--target-corpus", str(target),
        "--out", str(out), "--report", str(report),
    ])
    assert code == 3
    assert "no utterances" in capsys.readouterr().err
    assert not report.exists()
    assert not out.exists()
    # A --report that cannot be written leaves --out as it was.
    out.write_text("old\n", encoding="utf-8")
    code = main([
        "augment", "--source", str(target), "--target-corpus", str(target),
        "--out", str(out), "--report", str(tmp_path / "missing" / "hist.tsv"),
    ])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "old\n"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["empty.jsonl", "grown.jsonl", "target.jsonl"]


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


def test_augment_refuses_a_target_line_without_a_final_mark(tmp_path, capsys):
    source = tmp_path / "s.txt"
    source.write_text("hola.\nvale, gracias.\n", encoding="utf-8")
    target = tmp_path / "t.txt"
    target.write_text("bueno necesito ayuda.\nvale gracias\n", encoding="utf-8")
    out = tmp_path / "o.jsonl"
    code = main([
        "augment", "--source", str(source), "--target-corpus", str(target),
        "--out", str(out),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


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
    assert payload["repaired"] is DEFAULT_REPAIR


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


def test_train_refuses_unconverted_english(trained, tmp_path, capsys):
    base, _, _ = trained
    raw = tmp_path / "en.jsonl"
    write_jsonl([lu("ok how are you", "C N N CQ"), lu("yes thanks", "N P")], raw)
    converted = tmp_path / "en_converted.jsonl"
    assert main(["convert", "--in", str(raw), "--out", str(converted)]) == 0
    for en, want in ((raw, 3), (converted, 0)):
        out = tmp_path / f"joint_{en.stem}.json"
        code = main([
            "train", "--strategy", "joint", "--es", str(base / "es.jsonl"),
            "--en", str(en), "--epochs", "1", "--out", str(out),
        ])
        assert code == want, en
        assert out.exists() == (want == 0)
    assert "espunct convert" in capsys.readouterr().err


def test_predict_prints_rendered_line(trained, capsys):
    base, model, test = trained
    code = main(["predict", "--model", str(model), "--text", "bueno necesito ayuda"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("Bueno,")


def _stdin(payload: bytes) -> io.TextIOWrapper:
    """A stdin whose text layer is strict UTF-8, as under PYTHONIOENCODING=utf-8."""
    return io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8", errors="strict")


_REQUEST = json.dumps({"id": "q1", "text": "bueno necesito ayuda"}).encode("utf-8") + b"\n"


def test_serve_stdio_round_trip(trained, capsys, monkeypatch):
    base, model, test = trained
    monkeypatch.setattr(sys, "stdin", _stdin(_REQUEST))
    assert main(["serve", "--model", str(model)]) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["id"] == "q1"
    assert response["text"].startswith("Bueno,")


def test_serve_stdio_reads_bytes_past_a_strict_text_layer(trained, capsys, monkeypatch):
    base, model, test = trained
    monkeypatch.setattr(sys, "stdin", _stdin(b'{"id":"q0","text":"qu\xe9"}\n' + _REQUEST))
    assert main(["serve", "--model", str(model)]) == 0
    first, second = map(json.loads, capsys.readouterr().out.splitlines())
    assert (first["id"], first["error"]) == (None, "MalformedRequest")
    assert second["id"] == "q1"
    assert second["text"].startswith("Bueno,")


def test_serve_stdio_stops_quietly_when_the_reader_goes_away(trained, tmp_path):
    base, model, test = trained
    requests = tmp_path / "requests.jsonl"
    requests.write_bytes(_REQUEST * 3000)  # far more answers than a pipe holds
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with requests.open("rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "espunct.cli", "serve", "--model", str(model)],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
    try:
        assert json.loads(proc.stdout.readline())["id"] == "q1"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert (proc.returncode, err.decode()) == (0, "")


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


def test_experiment_failure_in_a_worker_exits_3(tmp_path, capsys):
    write_jsonl(rule_corpus(40, seed=22), tmp_path / "es.jsonl")
    en = [RawUtterance(f"ok, can you check item n{i}?", lang="en") for i in range(10)]
    write_jsonl(en, tmp_path / "en.jsonl")
    (tmp_path / "out" / "model_joint.json").mkdir(parents=True)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "schema_version": 1,
            "datasets": {"es_indomain": "es.jsonl", "en_indomain": "en.jsonl"},
            "strategies": ["ES_ONLY", "JOINT"],
            "train": {"epochs": 1},
            "output_dir": str(tmp_path / "out"),
        }),
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'train:joint': ") and err.count("\n") == 1, err
    assert child_process_left() is None


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


def _serve_listen_fails(model, address, capsys):
    """serve --listen address exits 2 with one error line and no traceback."""
    assert main(["serve", "--model", str(model), "--listen", address]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "address",
    ["127.0.0.1:70000", "127.0.0.1:\u00b2", "127.0.0.1:-1", os.fsdecode(b"x\xff") + ":0"],
    ids=["port-out-of-range", "non-ascii-digit", "negative-port", "unencodable-host"],
)
def test_serve_rejects_bad_listen_address(trained, capsys, address):
    _serve_listen_fails(trained[1], address, capsys)


def test_serve_on_a_port_in_use_is_a_config_error(trained, capsys):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = held.getsockname()[1]
        _serve_listen_fails(trained[1], f"127.0.0.1:{port}", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--model-corpus", "m.txt", "--pool", "p.txt", "--k", "-1", "--out", "o"],
        ["select", "--model-corpus", "m.txt", "--pool", "p.txt", "--k", "2",
         "--order", "0", "--out", "o"],
        ["select", "--model-corpus", "m.txt", "--pool", "p.txt", "--k", "2",
         "--order", str(MAX_ORDER + 1), "--out", "o"],
        ["augment", "--source", "s.jsonl", "--target-corpus", "t.jsonl",
         "--max-tokens", "0", "--out", "o"],
        ["train", "--strategy", "es_only", "--es", "es.jsonl", "--epochs", "0",
         "--out", "o"],
        ["train", "--strategy", "es_only", "--es", "es.jsonl", "--epochs", "many",
         "--out", "o"],
    ],
    ids=[
        "k-negative", "order-zero", "order-above-ceiling", "max-tokens-zero", "epochs-zero",
        "epochs-not-int",
    ],
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


@pytest.mark.parametrize(
    "argv, name, content, code, message",
    [
        (["extract"], "bad.jsonl", b'{"text": "vale."}\n{"text": "caf\xff."}\n', 3,
         "line 2: not UTF-8"),
        (["extract"], "bad.txt", b"vale.\n\ncaf\xff.\n", 3, "line 3: not UTF-8"),
        (["experiment", "--config"], "bad.json", b'{"schema_version": 1, "x": "\xff"}', 2,
         "cannot read config"),
        (["predict", "--text", "hola", "--model"], "bad.json", b'{"weights": "\xff"}', 2,
         "cannot read"),
    ],
    ids=["jsonl", "text", "config", "model"],
)
def test_non_utf8_input_is_a_typed_error(tmp_path, capsys, argv, name, content, code, message):
    path = tmp_path / name
    path.write_bytes(content)
    if argv == ["extract"]:
        argv = ["extract", "--out", str(tmp_path / "o"), "--in"]
    assert main(argv + [str(path)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b"[" * 200_000, b"1" * 5_000], ids=["deep-nesting", "huge-integer"]
)
@pytest.mark.parametrize(
    "argv, name, code",
    [
        (["extract"], "bad.jsonl", 3),
        (["experiment", "--config"], "bad.json", 2),
        (["predict", "--text", "hola", "--model"], "bad.json", 2),
    ],
    ids=["jsonl", "config", "model"],
)
def test_hostile_json_is_a_typed_error(tmp_path, capsys, argv, name, code, content):
    path = tmp_path / name
    path.write_bytes(content)
    if argv == ["extract"]:
        argv = ["extract", "--out", str(tmp_path / "o"), "--in"]
    assert main(argv + [str(path)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "o").exists()


_STACKED = "line {}: token 'tal?!' stacks trailing marks\n"


@pytest.mark.parametrize(
    "command, name, content, expected",
    [
        ("extract", "blank.txt", "\nvale.\n\n\u00ab\u00bb\n", "line 4: text has no tokens"),
        ("extract", "breaks.txt", "hola\u2028que tal.\n\u00abvale\u00bb \u0085 bien.\n\n\u00ab\u00bb\n",
         "line 4: text has no tokens"),
        ("extract", "mixed.jsonl",
         '{"text": "vale."}\n{"text": "ya."}\n{"tokens": ["ya"], "labels": ["PERIOD"]}\n',
         "line 3: file mixes raw and labeled records"),
        ("normalize", "labeled.jsonl", '{"tokens": ["ya"], "labels": ["PERIOD"]}\n',
         "line 1: normalize expects raw text records"),
        ("extract", "number.jsonl", '{"text": 5}\n', "line 1: text is not a string\n"),
        ("normalize", "quotes.txt", "vale.\n\u00ab\u00bb\n", "line 2: text has no tokens"),
        ("normalize", "blank.txt", "\nvale.\n\n\u00ab\u00bb\n", "line 4: text has no tokens"),
        ("normalize", "quote.jsonl", '{"text": "vale."}\n{"text": "\\""}\n',
         "line 2: text has no tokens"),
        ("extract", "stacked.txt", "bueno hola.\n\nque tal?!\n", _STACKED.format(3)),
        ("convert", "stacked.txt", "bueno hola.\n\nque tal?!\n", _STACKED.format(3)),
        ("extract", "stacked.jsonl", '{"text": "bueno hola."}\n{"text": "que tal?!"}\n',
         _STACKED.format(2)),
        ("convert", "stacked.jsonl", '{"text": "bueno hola."}\n{"text": "que tal?!"}\n',
         _STACKED.format(2)),
    ],
    ids=[
        "blank-lines-counted", "unicode-breaks-inside-lines", "mixed-kinds", "normalize-labeled",
        "text-not-a-string", "normalize-quotes-only", "normalize-blank-lines-counted",
        "normalize-jsonl-quote-only", "extract-refusal", "convert-refusal",
        "extract-refusal-jsonl", "convert-refusal-jsonl",
    ],
)
def test_data_errors_name_the_file_line(tmp_path, capsys, command, name, content, expected):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    assert main([command, "--in", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {expected}")


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--in", "EMPTY"],
        ["extract", "--in", "EMPTY"],
        ["convert", "--in", "EMPTY"],
        ["augment", "--source", "EMPTY", "--target-corpus", "TEST"],
        ["augment", "--source", "TEST", "--target-corpus", "EMPTY"],
        ["select", "--model-corpus", "EMPTY", "--pool", "TEST", "--k", "1"],
        ["select", "--model-corpus", "TEST", "--pool", "EMPTY", "--k", "0"],
        ["train", "--strategy", "es_only", "--es", "EMPTY"],
        ["train", "--strategy", "joint", "--es", "TEST", "--en", "EMPTY"],
        ["eval", "--model", "MODEL", "--test", "EMPTY"],
    ],
    ids=lambda argv: argv[0] + argv[argv.index("EMPTY") - 1],
)
@pytest.mark.parametrize("name", ["empty.jsonl", "blank.txt"])
def test_an_empty_corpus_is_a_data_error(trained, tmp_path, capsys, argv, name):
    _, model, test = trained
    empty = tmp_path / name
    # Blank lines are not records.
    empty.write_text("" if name.endswith(".jsonl") else "\n \n", encoding="utf-8")
    out = tmp_path / "o"
    paths = {"EMPTY": str(empty), "TEST": str(test), "MODEL": str(model)}
    argv = [paths.get(arg, arg) for arg in argv] + ["--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {empty} holds no utterances\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, content, line",
    [
        ("normalize", '{"text": "hola \\ud800 tal."}\n', 1),
        ("extract", '{"text": "hola \\ud800 tal."}\n', 1),
        ("normalize", '{"text": "vale."}\n{"text": "vale.", "source": "sub\\udfff"}\n', 2),
        ("normalize", '{"text": "vale."}\n{"text": "vale.", "lang": "\\udc00es"}\n', 2),
        ("extract", '{"tokens": ["ya"], "labels": ["PERIOD"]}\n'
         '{"tokens": ["a\\ud83d", "b"], "labels": ["NONE", "PERIOD"]}\n', 2),
    ],
    ids=["text-normalize", "text-extract", "source", "lang", "token"],
)
def test_a_lone_surrogate_is_refused_at_read(tmp_path, capsys, command, content, line):
    path = tmp_path / "in.jsonl"
    path.write_text(content, encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert main([command, "--in", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: line {line}: record holds a lone surrogate\n"
    assert not out.exists()


def test_an_escaped_surrogate_pair_is_read_as_one_character(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"text": "vale \\ud83d\\ude00."}\n', encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert main(["normalize", "--in", str(path), "--out", str(out)]) == 0
    assert read_jsonl(out)[0].text == "vale \U0001f600."


@pytest.mark.parametrize("argv", [["predict", "--text", "hola"], ["serve"]])
def test_a_model_file_holding_a_list_is_a_usage_error(tmp_path, capsys, argv):
    model = tmp_path / "model.json"
    model.write_text("[]", encoding="utf-8")
    assert main(argv + ["--model", str(model)]) == 2
    assert capsys.readouterr().err == "error: model file does not hold a JSON object\n"


def test_a_byte_order_mark_is_dropped_from_plain_text(tmp_path, capsys):
    text = tmp_path / "x.txt"
    text.write_bytes(b"\xef\xbb\xbfhola que tal.\n")
    out = tmp_path / "o.jsonl"
    assert main(["extract", "--in", str(text), "--out", str(out)]) == 0
    assert read_jsonl(out)[0].tokens == ("hola", "que", "tal")

    # The mark does not shift the line that names a non-UTF-8 byte.
    text.write_bytes(b"\xef\xbb\xbfhola.\n\xff\n")
    assert main(["extract", "--in", str(text), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")

    jsonl = tmp_path / "x.jsonl"
    jsonl.write_bytes(b'\xef\xbb\xbf{"text": "hola."}\n')
    assert main(["extract", "--in", str(jsonl), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: line 1: bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)\n"
    )
