"""Experiment config, orchestration, artifacts, and the serving layer."""

import io
import json
import socket
import threading

import pytest

from espunct.corpus import (
    LabeledUtterance,
    PunctClass,
    RawUtterance,
    as_labeled,
    extract_labels,
    read_jsonl,
    render,
    write_jsonl,
)
from espunct.errors import (
    ConfigError,
    DataLeakageError,
    MalformedRequest,
    PipelineError,
    ZeroTerminalSource,
)
from espunct.pipeline import (
    _check_leakage,
    config_from_dict,
    handle_request_line,
    load_config,
    restore,
    run_experiment,
    serve_stdio,
    serve_tcp,
    tokenize_for_restore,
)
from espunct.selection import select_lowest_perplexity, train_ngram
from espunct.synthetic import rule_corpus, transfer_benchmark
from espunct.tagger import TrainConfig, train

from helpers import count_trains, labels, lu


def _unique(corpus, n):
    seen = set()
    out = []
    for u in corpus:
        key = (u.tokens, u.labels)
        if key not in seen:
            seen.add(key)
            out.append(u)
        if len(out) == n:
            return out
    raise AssertionError(f"only {len(out)} unique utterances available")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("exp-data")
    write_jsonl(_unique(rule_corpus(400, seed=0), 60), base / "es.jsonl")
    ldc = [
        RawUtterance(f"el documento n{i} llega hoy.", lang="es")
        for i in range(20)
    ]
    write_jsonl(ldc, base / "ldc.jsonl")
    pool = [
        RawUtterance(f"pues tengo problema n{i}.", lang="es") for i in range(6)
    ] + [
        RawUtterance(f"zzyx blorp n{i} vex.", lang="es") for i in range(6)
    ]
    write_jsonl(pool, base / "pool.jsonl")
    en = [
        RawUtterance(f"ok, can you check item n{i}?", lang="en")
        for i in range(15)
    ]
    write_jsonl(en, base / "en.jsonl")
    write_jsonl(
        [RawUtterance(f"el documento n{i} llega hoy", lang="es") for i in range(12)],
        base / "ldc_no_terminals.jsonl",
    )
    return base


def base_config(data_dir, out_dir):
    return {
        "schema_version": 1,
        "datasets": {
            "es_indomain": "es.jsonl",
            "ldc": "ldc.jsonl",
            "opensubtitle_pool": "pool.jsonl",
            "en_indomain": "en.jsonl",
        },
        "selection": {"k": 3, "order": 3},
        "augmentation": {"seed": 1, "max_tokens": 200},
        "strategies": [
            "ES_ONLY",
            {"name": "joint", "strategy": "joint"},
            {
                "name": "aug",
                "strategy": "ES_ONLY",
                "spanish_sources": ["indomain", "ldc"],
                "augment": True,
            },
        ],
        "train": {"epochs": 2, "seed": 0, "shuffle": True},
        "eval": {"repair": True, "seed": 0},
        "output_dir": str(out_dir),
    }


# ------------------------------------------------------------------ config


def test_config_parses_and_resolves(data_dir, tmp_path):
    cfg = config_from_dict(base_config(data_dir, tmp_path / "out"), data_dir)
    assert cfg.es_indomain == data_dir / "es.jsonl"
    assert cfg.selection_k == 3
    assert cfg.lm_order == 3
    assert cfg.augmentation_seed == 1
    assert [r.name for r in cfg.rows] == ["es_only", "joint", "aug"]
    assert cfg.rows[0].spanish_sources == ("indomain", "ldc", "opensubtitle")
    assert cfg.rows[2].spanish_sources == ("indomain", "ldc")
    assert cfg.rows[2].augment
    assert cfg.train == TrainConfig(epochs=2, seed=0, shuffle=True)
    assert cfg.eval_repair


def test_config_seed_override(data_dir, tmp_path):
    cfg = config_from_dict(
        base_config(data_dir, tmp_path / "out"), data_dir, seed_override=42
    )
    assert cfg.train.seed == 42
    assert cfg.augmentation_seed == 42
    assert cfg.split_seed == 42
    assert cfg.train.epochs == 2


def _expect_config_error(obj, data_dir):
    with pytest.raises(ConfigError):
        config_from_dict(obj, data_dir)


def test_config_rejections(data_dir, tmp_path):
    out = tmp_path / "out"

    obj = base_config(data_dir, out)
    del obj["datasets"]["es_indomain"]
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["datasets"]["es_indomain"] = "absent.jsonl"
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["schema_version"] = 2
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["surprise"] = 1
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["datasets"]["extra"] = "es.jsonl"
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["strategies"] = ["ES_SOMETIMES"]
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["strategies"] = ["ES_ONLY", {"name": "es_only", "strategy": "JOINT"}]
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["strategies"] = []
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["strategies"] = [{"name": "a/b", "strategy": "ES_ONLY"}]
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["strategies"] = [
        {"strategy": "ES_ONLY", "spanish_sources": ["ldc"]}
    ]
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["strategies"] = [
        {"strategy": "ES_ONLY", "spanish_sources": ["indomain", "indomain"]}
    ]
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    del obj["datasets"]["opensubtitle_pool"]
    _expect_config_error(obj, data_dir)  # selection without a pool

    obj = base_config(data_dir, out)
    obj["selection"] = {"order": 3}
    _expect_config_error(obj, data_dir)  # k is required

    obj = base_config(data_dir, out)
    del obj["datasets"]["en_indomain"]
    _expect_config_error(obj, data_dir)  # joint row needs English data

    obj = base_config(data_dir, out)
    del obj["output_dir"]
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["train"]["epochs"] = 0
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["train"]["momentum"] = 0.9
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["eval"]["bootstrap"] = True
    _expect_config_error(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["augmentation"]["seed"] = True
    _expect_config_error(obj, data_dir)


def test_config_minimal_es_only(data_dir, tmp_path):
    obj = {
        "schema_version": 1,
        "datasets": {"es_indomain": "es.jsonl"},
        "strategies": ["ES_ONLY"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg = config_from_dict(obj, data_dir)
    assert cfg.ldc is None
    assert cfg.selection_k == 0
    assert cfg.rows[0].spanish_sources == ("indomain",)
    assert cfg.train == TrainConfig()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


# -------------------------------------------------------------- experiment


def test_run_experiment_writes_all_artifacts(data_dir, tmp_path):
    out = tmp_path / "run"
    cfg = config_from_dict(base_config(data_dir, out), data_dir)
    reports = run_experiment(cfg)

    assert [r.dataset_tag for r in reports] == ["es_only", "joint", "aug"]
    for name in (
        "es_train.jsonl",
        "es_dev.jsonl",
        "es_test.jsonl",
        "selection_scores.tsv",
        "selected_opensubtitle.jsonl",
        "augmented_ldc.jsonl",
        "hist_ldc_before_after.tsv",
        "en_converted.jsonl",
        "train_es_es_only.jsonl",
        "train_es_joint.jsonl",
        "train_es_aug.jsonl",
        "model_es_only.json",
        "model_joint.json",
        "model_aug.json",
        "report_es_only.json",
        "report_joint.txt",
        "comparison.tsv",
        "comparison.md",
    ):
        assert (out / name).is_file(), name

    # 60 in-domain utterances split 36/6/18
    assert len(read_jsonl(out / "es_train.jsonl")) == 36
    assert len(read_jsonl(out / "es_dev.jsonl")) == 6
    assert len(read_jsonl(out / "es_test.jsonl")) == 18
    assert len(read_jsonl(out / "selected_opensubtitle.jsonl")) == 3
    # 36 in-domain (already the largest source) + 20 ldc + 3 selected
    assert len(read_jsonl(out / "train_es_es_only.jsonl")) == 59

    selected = read_jsonl(out / "selected_opensubtitle.jsonl")
    assert all(u.source == "opensubtitle" for u in selected)
    # the in-domain-looking pool half wins over the alien half
    assert all("problema" in u.tokens for u in selected)

    comparison = (out / "comparison.tsv").read_text(encoding="utf-8").splitlines()
    assert comparison[0] == "row\tstrategy\tes_train\ten_train\tmicro_f1\tmacro_f1"
    assert len(comparison) == 4
    assert comparison[1].startswith("es_only\tES_ONLY\t59\t0\t")
    assert comparison[2].startswith("joint\tJOINT\t59\t15\t")

    report = json.loads((out / "report_joint.json").read_text(encoding="utf-8"))
    assert report["dataset"] == "joint"
    assert report["utterances"] == 18
    assert report["repaired"] is True
    assert [e["data"] for e in report["training_log"]] == ["joint-es-en"]

    converted = read_jsonl(out / "en_converted.jsonl")
    assert all(u.lang == "en" for u in converted)
    opens = sum(
        1 for u in converted for lab in u.labels if lab.is_opening or lab.is_full
    )
    assert opens == 15  # every question gained its Spanish-side mark


def test_run_experiment_clamps_selection_k(data_dir, tmp_path):
    out = tmp_path / "clamp"
    obj = base_config(data_dir, out)
    obj["selection"] = {"k": 999}
    obj["strategies"] = [{"strategy": "ES_ONLY", "spanish_sources": ["indomain"]}]
    obj["train"] = {"epochs": 1}
    del obj["datasets"]["en_indomain"]
    cfg = config_from_dict(obj, data_dir)
    run_experiment(cfg)
    assert len(read_jsonl(out / "selected_opensubtitle.jsonl")) == 12


@pytest.mark.parametrize("pool_form", ["raw", "labeled"])
def test_selection_matches_the_render_and_extract_path(tmp_path, pool_form):
    bench = transfer_benchmark(
        3, es_train_size=40, es_test_size=20, ldc_size=0,
        pool_good=30, pool_alien=60, en_size=0,
    )
    pool = bench.os_pool if pool_form == "raw" else as_labeled(bench.os_pool)
    write_jsonl(bench.es_train + bench.es_test, tmp_path / "es.jsonl")
    write_jsonl(pool, tmp_path / "pool.jsonl")
    out = tmp_path / "out"
    cfg = config_from_dict(
        {
            "schema_version": 1,
            "datasets": {"es_indomain": "es.jsonl", "opensubtitle_pool": "pool.jsonl"},
            "selection": {"k": 25, "order": 3},
            "strategies": [{"strategy": "ES_ONLY", "spanish_sources": ["indomain"]}],
            "train": {"epochs": 1},
            "output_dir": str(out),
        },
        tmp_path,
    )
    run_experiment(cfg)

    # Reference: render everything, select texts, parse the kept ones again.
    es_train = read_jsonl(out / "es_train.jsonl")
    lm = train_ngram([RawUtterance(render(u)) for u in es_train], order=3)
    pool_raw = [
        RawUtterance(render(u), source=u.source, lang=u.lang)
        for u in as_labeled(read_jsonl(tmp_path / "pool.jsonl"), "opensubtitle")
    ]
    kept = select_lowest_perplexity(lm, pool_raw, 25)
    expected = [extract_labels(u.text, source=u.source, lang=u.lang) for u in kept]
    write_jsonl(expected, tmp_path / "expected.jsonl")
    assert (out / "selected_opensubtitle.jsonl").read_bytes() == (
        tmp_path / "expected.jsonl"
    ).read_bytes()


def test_run_experiment_is_byte_deterministic(data_dir, tmp_path):
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        cfg = config_from_dict(base_config(data_dir, out), data_dir)
        run_experiment(cfg)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_experiment_trains_shared_es_phase_once(data_dir, tmp_path, monkeypatch):
    calls = count_trains(monkeypatch)
    out = tmp_path / "memo"
    obj = base_config(data_dir, out)
    obj["strategies"] = [
        {"strategy": "ES_ONLY", "spanish_sources": ["indomain"]},
        {"strategy": "ES_THEN_EN", "spanish_sources": ["indomain"]},
    ]
    run_experiment(config_from_dict(obj, data_dir))
    assert calls == ["es"]

    es_size = len(read_jsonl(out / "train_es_es_only.jsonl"))
    en_size = len(read_jsonl(out / "en_converted.jsonl"))
    es_entry = {"data": "es", "epochs": 2, "seed": 0, "size": es_size}
    logs = {
        name: json.loads((out / f"model_{name}.json").read_text(encoding="utf-8"))[
            "training_log"
        ]
        for name in ("es_only", "es_then_en")
    }
    assert logs["es_only"] == [es_entry]
    assert logs["es_then_en"] == [
        es_entry,
        {"data": "en", "epochs": 2, "seed": 0, "size": en_size},
    ]


def test_run_experiment_dedups_duplicate_indomain(data_dir, tmp_path):
    corpus = rule_corpus(30, seed=9)
    doubled = corpus + corpus[:10]
    es_path = tmp_path / "es_dup.jsonl"
    write_jsonl(doubled, es_path)
    out = tmp_path / "out"
    obj = {
        "schema_version": 1,
        "datasets": {"es_indomain": str(es_path)},
        "strategies": ["ES_ONLY"],
        "train": {"epochs": 1},
        "output_dir": str(out),
    }
    run_experiment(config_from_dict(obj, tmp_path))
    total = sum(
        len(read_jsonl(out / f"es_{part}.jsonl")) for part in ("train", "dev", "test")
    )
    assert total == 30


def test_run_experiment_names_failing_stage(data_dir, tmp_path):
    obj = base_config(data_dir, tmp_path / "out")
    obj["datasets"]["ldc"] = "ldc_no_terminals.jsonl"
    cfg = config_from_dict(obj, data_dir)
    with pytest.raises(PipelineError) as err:
        run_experiment(cfg)
    assert err.value.stage == "augment"
    assert isinstance(err.value.cause, ZeroTerminalSource)


def test_run_experiment_split_failure_names_stage(tmp_path):
    es_path = tmp_path / "tiny.jsonl"
    write_jsonl(rule_corpus(5, seed=0), es_path)
    obj = {
        "schema_version": 1,
        "datasets": {"es_indomain": str(es_path)},
        "strategies": ["ES_ONLY"],
        "output_dir": str(tmp_path / "out"),
    }
    with pytest.raises(PipelineError) as err:
        run_experiment(config_from_dict(obj, tmp_path))
    assert err.value.stage == "split"


def test_leakage_check_fires_on_shared_content():
    test_set = [lu("hola buenos días", "N N P")]
    keys = {(u.tokens, u.labels) for u in test_set}
    clean = [lu("adiós buenas tardes", "N N P")]
    _check_leakage(clean, keys, "row")
    dirty = clean + [lu("hola buenos días", "N N P")]
    with pytest.raises(DataLeakageError):
        _check_leakage(dirty, keys, "row")


# ----------------------------------------------------------------- serving


class _ForcedModel:
    def predict(self, tokens):
        out = [PunctClass.NONE] * len(tokens)
        out[0] = PunctClass.OPEN_QUESTION
        out[-1] = PunctClass.CLOSE_QUESTION
        return out


@pytest.fixture(scope="module")
def served_model():
    return train(rule_corpus(200, seed=4), TrainConfig(epochs=2, seed=0))


def test_restore_renders_question():
    rendered, got = restore(_ForcedModel(), "en qué le puedo ayudar")
    assert rendered == "¿En qué le puedo ayudar?"
    assert got == list(labels("OQ N N N CQ"))


def test_restore_repairs_broken_predictions():
    class HalfOpen:
        def predict(self, tokens):
            out = [PunctClass.NONE] * len(tokens)
            out[0] = PunctClass.OPEN_QUESTION
            return out

    rendered, got = restore(HalfOpen(), "qué tal")
    assert got == list(labels("N N"))
    assert rendered == "Qué tal"


def test_restore_rejects_empty_text():
    with pytest.raises(MalformedRequest):
        restore(_ForcedModel(), "...")
    with pytest.raises(MalformedRequest):
        restore(_ForcedModel(), "   ")


def test_tokenize_for_restore():
    assert tokenize_for_restore("Hola, ¿qué tal?") == ["Hola", "qué", "tal"]
    assert tokenize_for_restore("bueno… sí") == ["bueno", "sí"]
    assert tokenize_for_restore('«dijo» "eso"') == ["dijo", "eso"]
    assert tokenize_for_restore("d'water!") == ["d'water"]
    assert tokenize_for_restore("...") == []
    assert tokenize_for_restore("") == []
    # stripped tokens always make a valid utterance
    toks = tokenize_for_restore("¡¿Vale?! (sí); «3,5»")
    LabeledUtterance(tuple(toks), tuple([PunctClass.NONE] * len(toks)))


def test_handle_request_success_shape(served_model):
    line = json.dumps({"id": "r1", "text": "bueno quiero una cita"})
    obj = json.loads(handle_request_line(served_model, line))
    assert obj["id"] == "r1"
    assert isinstance(obj["text"], str) and obj["text"]
    assert len(obj["labels"]) == 4
    assert all(isinstance(name, str) for name in obj["labels"])
    assert isinstance(obj["latency_ms"], float)
    assert obj["latency_ms"] >= 0.0
    assert "error" not in obj


def test_handle_request_error_paths(served_model):
    obj = json.loads(handle_request_line(served_model, "{not json"))
    assert obj == {
        "id": None,
        "error": "MalformedRequest",
        "message": obj["message"],
    }

    obj = json.loads(handle_request_line(served_model, '["list"]'))
    assert obj["error"] == "MalformedRequest"

    obj = json.loads(handle_request_line(served_model, '{"id": 5, "text": "hola"}'))
    assert obj["id"] is None
    assert obj["error"] == "MalformedRequest"

    obj = json.loads(
        handle_request_line(served_model, '{"id": "r2", "text": "   "}')
    )
    assert obj["id"] == "r2"
    assert obj["error"] == "MalformedRequest"


def test_handle_request_internal_error_is_contained():
    class Exploding:
        def predict(self, tokens):
            raise RuntimeError("boom")

    line = json.dumps({"id": "r3", "text": "hola"})
    obj = json.loads(handle_request_line(Exploding(), line))
    assert obj == {"id": "r3", "error": "InternalError", "message": "boom"}


def test_requests_are_isolated(served_model):
    good = json.dumps({"id": "ok", "text": "bueno quiero ayuda"})
    first = json.loads(handle_request_line(served_model, good))
    json.loads(handle_request_line(served_model, "{broken"))
    second = json.loads(handle_request_line(served_model, good))
    assert first == second or first["text"] == second["text"]


def test_serve_stdio_matches_restore(served_model):
    texts = [render(u) for u in rule_corpus(30, seed=8)]
    lines = [json.dumps({"id": f"r{i}", "text": t}) for i, t in enumerate(texts)]
    in_stream = io.StringIO("\n".join(lines) + "\n\n")
    out_stream = io.StringIO()
    serve_stdio(served_model, in_stream, out_stream)
    responses = out_stream.getvalue().splitlines()
    assert len(responses) == len(texts)
    for i, (raw, text) in enumerate(zip(responses, texts)):
        obj = json.loads(raw)
        assert obj["id"] == f"r{i}"
        assert obj["text"] == restore(served_model, text)[0]


def test_serve_tcp_round_trip(served_model):
    server = serve_tcp(served_model, "127.0.0.1", 0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            payload = (
                json.dumps({"id": "a", "text": "bueno quiero una cita"})
                + "\n{oops\n"
            )
            conn.sendall(payload.encode("utf-8"))
            reader = conn.makefile("r", encoding="utf-8")
            first = json.loads(reader.readline())
            second = json.loads(reader.readline())
        assert first["id"] == "a"
        assert "labels" in first
        assert second["error"] == "MalformedRequest"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
