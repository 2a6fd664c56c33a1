"""Experiment config, orchestration, artifacts, and the serving layer."""

import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from espunct.cli import main as cli_main
from espunct.corpus import (
    BOUNDARY_CHARS,
    REJECTED_BOUNDARY,
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
    EmptyCorpus,
    IoFailure,
    MalformedRecord,
    MalformedRequest,
    PipelineError,
    ZeroTerminalSource,
)
from espunct.pipeline import (
    PunctServer,
    _check_leakage,
    _plan,
    config_from_dict,
    handle_request_line,
    load_config,
    restore,
    run_experiment,
    serve_lines,
    tokenize_for_restore,
)
from espunct.selection import MAX_ORDER, select_lowest_perplexity, train_ngram
from espunct.synthetic import transfer_benchmark
from espunct import forked, pipeline, tagger
from espunct.tagger import Strategy, TrainConfig, continue_train, run_strategy, train

from generators import rule_corpus
from helpers import child_process_left, count_trains, labels, lu


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
    assert cfg.datasets == {
        "indomain": data_dir / "es.jsonl",
        "ldc": data_dir / "ldc.jsonl",
        "en": data_dir / "en.jsonl",
        "opensubtitle": data_dir / "pool.jsonl",
    }
    assert cfg.selection_k == 3
    assert cfg.lm_order == 3
    assert cfg.augmentation_seed == 1
    assert [r.name for r in cfg.rows] == ["es_only", "joint", "aug"]
    assert pipeline.SPANISH_SOURCES == ("indomain", "ldc", "opensubtitle")
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


def _expect_config_error(obj, data_dir, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(obj, data_dir)


def test_config_rejections(data_dir, tmp_path):
    out = tmp_path / "out"

    obj = base_config(data_dir, out)
    del obj["datasets"]["es_indomain"]
    _expect_config_error(obj, data_dir, "datasets.es_indomain is required")

    obj = base_config(data_dir, out)
    obj["datasets"]["es_indomain"] = None
    _expect_config_error(obj, data_dir, "datasets.es_indomain is required")

    obj = base_config(data_dir, out)
    obj["datasets"]["ldc"] = 5
    _expect_config_error(obj, data_dir, "datasets.ldc must be a path string")

    obj = base_config(data_dir, out)
    obj["datasets"]["es_indomain"] = "absent.jsonl"
    absent = data_dir / "absent.jsonl"
    _expect_config_error(obj, data_dir, f"datasets.es_indomain: no such file: {absent}")

    obj = base_config(data_dir, out)
    obj["schema_version"] = 2
    _expect_config_error(obj, data_dir, "unsupported schema_version 2")

    obj = base_config(data_dir, out)
    obj["surprise"] = 1
    _expect_config_error(obj, data_dir, "unknown config keys: ['surprise']")

    obj = base_config(data_dir, out)
    obj["datasets"]["extra"] = "es.jsonl"
    _expect_config_error(obj, data_dir, "unknown datasets keys: ['extra']")

    obj = base_config(data_dir, out)
    obj["strategies"] = ["ES_SOMETIMES"]
    _expect_config_error(
        obj,
        data_dir,
        "unknown strategy 'ES_SOMETIMES'; "
        "choose from ['ES_ONLY', 'ES_THEN_EN', 'EN_THEN_ES', 'JOINT']",
    )

    obj = base_config(data_dir, out)
    obj["strategies"] = ["ES_ONLY", {"name": "es_only", "strategy": "JOINT"}]
    _expect_config_error(obj, data_dir, "row names repeat: ['es_only']")

    obj = base_config(data_dir, out)
    obj["strategies"] = [
        "JOINT",
        "ES_ONLY",
        {"name": "es_only", "strategy": "JOINT"},
        {"name": "joint", "strategy": "ES_ONLY"},
        {"name": "es_only", "strategy": "ES_THEN_EN"},
    ]
    _expect_config_error(obj, data_dir, "row names repeat: ['es_only', 'joint']")

    obj = base_config(data_dir, out)
    obj["strategies"] = []
    _expect_config_error(obj, data_dir, "strategies must be a non-empty list")

    obj = base_config(data_dir, out)
    obj["strategies"] = [{"name": "a/b", "strategy": "ES_ONLY"}]
    _expect_config_error(obj, data_dir, "row name 'a/b' has characters unsafe for file names")

    obj = base_config(data_dir, out)
    obj["strategies"] = [
        {"strategy": "ES_ONLY", "spanish_sources": ["ldc"]}
    ]
    _expect_config_error(obj, data_dir, "row 'es_only' must train on the in-domain split")

    obj = base_config(data_dir, out)
    obj["strategies"] = [
        {"strategy": "ES_ONLY", "spanish_sources": ["indomain", "indomain"]}
    ]
    _expect_config_error(obj, data_dir, "row 'es_only' repeats a source")

    obj = base_config(data_dir, out)
    del obj["datasets"]["opensubtitle_pool"]
    _expect_config_error(obj, data_dir, "selection configured without an opensubtitle_pool")

    obj = base_config(data_dir, out)
    obj["selection"] = {"order": 3}
    _expect_config_error(obj, data_dir, "selection.k must be an integer >= 0")

    obj = base_config(data_dir, out)
    del obj["datasets"]["en_indomain"]
    _expect_config_error(obj, data_dir, "row 'joint' needs datasets.en_indomain")

    obj = base_config(data_dir, out)
    del obj["output_dir"]
    with pytest.raises(ConfigError, match="output_dir is required"):
        config_from_dict(obj, data_dir)

    for value in (5, [], ""):
        obj = base_config(data_dir, out)
        obj["output_dir"] = value
        with pytest.raises(ConfigError, match="output_dir must be a non-empty path string"):
            config_from_dict(obj, data_dir)

    obj = base_config(data_dir, out)
    obj["train"]["epochs"] = 0
    _expect_config_error(obj, data_dir, "train.epochs must be an integer >= 1")

    obj = base_config(data_dir, out)
    obj["train"]["momentum"] = 0.9
    _expect_config_error(obj, data_dir, "unknown train keys: ['momentum']")

    obj = base_config(data_dir, out)
    obj["eval"]["bootstrap"] = True
    _expect_config_error(obj, data_dir, "unknown eval keys: ['bootstrap']")

    obj = base_config(data_dir, out)
    obj["augmentation"]["seed"] = True
    _expect_config_error(obj, data_dir, "augmentation.seed must be an integer")


@pytest.mark.parametrize("value", ["\ud800", "a\0b"], ids=["lone-surrogate", "nul"])
def test_config_rejects_an_output_dir_the_os_cannot_encode(value, data_dir, tmp_path, capsys):
    message = f"output_dir {value!r} is not a path the OS can encode"
    obj = base_config(data_dir, tmp_path / "out")
    obj["output_dir"] = value
    _expect_config_error(obj, data_dir, message)
    # From a file, where the value is a JSON escape, it is a configuration error.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "schema_version": 1,
            "datasets": {"es_indomain": str(data_dir / "es.jsonl")},
            "strategies": ["ES_ONLY"],
            "output_dir": value,
        }),
        encoding="utf-8",
    )
    assert cli_main(["experiment", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_INT_KEYS = [
    ("config", "schema_version"),
    ("selection", "k"),
    ("selection", "order"),
    ("augmentation", "seed"),
    ("augmentation", "max_tokens"),
    ("train", "epochs"),
    ("train", "seed"),
    ("eval", "seed"),
]
_BOOL_KEYS = [("train", "shuffle"), ("eval", "repair"), ("strategies[2]", "augment")]


@pytest.mark.parametrize(
    "where, key, value",
    [(w, k, v) for w, k in _INT_KEYS for v in (True, 1.5, "1", None, [])]
    + [(w, k, v) for w, k in _BOOL_KEYS for v in (0, 1.5, "1", None, [])],
)
def test_config_rejects_wrong_json_types(data_dir, tmp_path, where, key, value):
    obj = base_config(data_dir, tmp_path / "out")
    nested = {"config": obj, "strategies[2]": obj["strategies"][2]}
    section = nested[where] if where in nested else obj[where]
    section[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{where}.{key} must be")):
        config_from_dict(obj, data_dir)


def test_config_bounds_the_selection_order(data_dir, tmp_path):
    obj = base_config(data_dir, tmp_path / "out")
    obj["selection"]["order"] = MAX_ORDER
    assert config_from_dict(obj, data_dir).lm_order == MAX_ORDER
    obj["selection"]["order"] = MAX_ORDER + 1
    message = f"selection.order must be an integer >= 1 and <= {MAX_ORDER}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(obj, data_dir)


def test_config_null_selection_without_pool(data_dir, tmp_path):
    obj = base_config(data_dir, tmp_path / "out")
    del obj["datasets"]["opensubtitle_pool"]
    obj["selection"] = None
    obj["strategies"] = ["ES_ONLY"]
    cfg = config_from_dict(obj, data_dir, seed_override=7)
    assert "opensubtitle" not in cfg.datasets
    assert (cfg.selection_k, cfg.lm_order) == (0, 4)
    assert (cfg.train.seed, cfg.augmentation_seed, cfg.split_seed) == (7, 7, 7)


def test_config_minimal_es_only(data_dir, tmp_path):
    obj = {
        "schema_version": 1,
        "datasets": {"es_indomain": "es.jsonl"},
        "strategies": ["ES_ONLY"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg = config_from_dict(obj, data_dir)
    assert cfg.datasets == {"indomain": data_dir / "es.jsonl"}
    assert cfg.selection_k == 0
    assert cfg.rows[0].spanish_sources == ("indomain",)
    assert cfg.train == TrainConfig()


def test_the_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    obj = json.loads(next(block for block in blocks if '"datasets"' in block))
    assert set(obj["datasets"]) == set(pipeline._DATASETS)
    for name in obj["datasets"].values():
        (tmp_path / name).touch()
    cfg = config_from_dict(obj, tmp_path)
    assert [row.name for row in cfg.rows] == ["es_only", "joint", "aug"]


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
    calls = count_trains(monkeypatch, tmp_path / "trains.log")
    out = tmp_path / "memo"
    obj = base_config(data_dir, out)
    obj["strategies"] = [
        {"strategy": "ES_ONLY", "spanish_sources": ["indomain"]},
        {"strategy": "ES_THEN_EN", "spanish_sources": ["indomain"]},
    ]
    run_experiment(config_from_dict(obj, data_dir))
    assert calls() == ["es"]

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

    # The shared phase continues to the same weights as training both phases anew.
    es = read_jsonl(out / "train_es_es_then_en.jsonl")
    en = read_jsonl(out / "en_converted.jsonl")
    config = TrainConfig(epochs=2, seed=0)
    continue_train(train(es, config, "es"), en, config, "en").save(tmp_path / "ref.json")
    assert (out / "model_es_then_en.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def _row(name, strategy, sources=("indomain",), augment=False):
    return {
        "name": name,
        "strategy": strategy,
        "spanish_sources": list(sources),
        "augment": augment,
    }


_LDC = ("indomain", "ldc")


@pytest.mark.parametrize(
    "strategies, trained",
    [
        pytest.param(
            [_row("a", "ES_ONLY", _LDC, True), _row("b", "ES_THEN_EN", _LDC, True)],
            ["es"],
            id="es-phase-shared-on-one-recipe",
        ),
        pytest.param(
            [_row("a", "ES_ONLY"), _row("b", "ES_THEN_EN", _LDC)],
            ["es", "es"],
            id="other-sources-train-apart",
        ),
        pytest.param(
            [_row("a", "ES_ONLY", _LDC), _row("b", "ES_THEN_EN", _LDC, True)],
            ["es", "es"],
            id="other-augment-trains-apart",
        ),
        pytest.param(
            [_row("a", "ES_ONLY", augment=True), _row("b", "ES_ONLY")],
            ["es"],
            id="augment-without-other-sources-shares-the-phase",
        ),
        pytest.param(
            [_row("a", "EN_THEN_ES"), _row("b", "EN_THEN_ES", _LDC, True)],
            ["en"],
            id="en-phase-shared-across-recipes",
        ),
        pytest.param(
            [_row("a", "ES_ONLY"), _row("b", "JOINT"), _row("c", "JOINT")],
            ["es", "joint-es-en"],
            id="joint-shared-on-one-recipe",
        ),
        pytest.param(
            [
                _row("es_only", "ES_ONLY"),
                _row("joint", "JOINT"),
                _row("es_then_en", "ES_THEN_EN"),
                _row("en_then_es", "EN_THEN_ES"),
                _row("aug_es_only", "ES_ONLY", ("indomain", "ldc", "opensubtitle"), True),
            ],
            ["es", "joint-es-en", "en", "es"],
            id="benchmark-grid-rows",
        ),
    ],
)
def test_run_experiment_trains_each_planned_phase_once(
    data_dir, tmp_path, monkeypatch, strategies, trained
):
    calls = count_trains(monkeypatch, tmp_path / "trains.log")
    out = tmp_path / "out"
    obj = base_config(data_dir, out)
    obj["strategies"] = strategies
    obj["train"]["epochs"] = 1
    cfg = config_from_dict(obj, data_dir)
    run_experiment(cfg)
    # Phase groups train concurrently, so their order is not fixed.
    assert sorted(calls()) == sorted(trained)

    # One Spanish list per recipe, and no two recipes share one.
    lists = {}
    for row in cfg.rows:
        data = (out / f"train_es_{row.name}.jsonl").read_bytes()
        assert lists.setdefault((row.spanish_sources, row.augment), data) == data
    assert len(set(lists.values())) == len(lists)

    # Every row's model is the one its strategy trains alone on the row's data.
    en = read_jsonl(out / "en_converted.jsonl")
    for row in cfg.rows:
        es = read_jsonl(out / f"train_es_{row.name}.jsonl")
        en_data = None if row.strategy is Strategy.ES_ONLY else en
        run_strategy(row.strategy, es, en_data, cfg.train).save(tmp_path / "alone.json")
        assert (out / f"model_{row.name}.json").read_bytes() == (
            tmp_path / "alone.json"
        ).read_bytes(), row.name


def test_plan_groups_the_benchmark_rows_by_first_phase(data_dir, tmp_path):
    obj = base_config(data_dir, tmp_path / "out")
    obj["strategies"] = [
        _row("es_only", "ES_ONLY"),
        _row("joint", "JOINT"),
        _row("es_then_en", "ES_THEN_EN"),
        _row("en_then_es", "EN_THEN_ES"),
        _row("aug_es_only", "ES_ONLY", ("indomain", "ldc", "opensubtitle"), True),
    ]
    rows = config_from_dict(obj, data_dir).rows
    # 4 fresh phases; es_then_en continues es_only's, and en_then_es its own.
    assert _plan(rows) == [[0, 2], [1], [3], [4]]
    two_phase = (Strategy.ES_THEN_EN, Strategy.EN_THEN_ES)
    assert [i for i, row in enumerate(rows) if row.strategy in two_phase] == [2, 3]


def test_run_experiment_frees_phases_no_later_row_uses(data_dir, tmp_path, monkeypatch):
    # One worker takes the phase groups in turn.  At each fresh training it
    # logs the data tags of the earlier fresh models still alive in it.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    log = tmp_path / "alive.log"
    models = []
    real = tagger.train

    def spy(corpus, config, data_tag):
        alive = [tag for tag, ref in models if ref() is not None]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([data_tag, alive]) + "\n")
        model = real(corpus, config, data_tag)
        models.append((data_tag, weakref.ref(model)))
        return model

    monkeypatch.setattr(tagger, "train", spy)
    obj = base_config(data_dir, tmp_path / "out")
    obj["strategies"] = [
        _row("es_only", "ES_ONLY"),
        _row("joint", "JOINT"),
        _row("es_then_en", "ES_THEN_EN"),
        _row("en_then_es", "EN_THEN_ES"),
    ]
    obj["train"]["epochs"] = 1
    run_experiment(config_from_dict(obj, data_dir))
    # es serves es_only and es_then_en in its group, and no fresh model outlives its group
    trained = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert trained == [["es", []], ["joint-es-en", []], ["en", []]]
    assert child_process_left() is None


def test_run_experiment_forks_one_worker_per_share(data_dir, tmp_path, monkeypatch):
    obj = base_config(data_dir, tmp_path / "apart")
    obj["strategies"] = [
        _row("es_only", "ES_ONLY"),
        _row("joint", "JOINT"),
        _row("es_then_en", "ES_THEN_EN"),
        _row("en_then_es", "EN_THEN_ES"),
        _row("aug_es_only", "ES_ONLY", ("indomain", "ldc", "opensubtitle"), True),
    ]
    obj["train"]["epochs"] = 1
    # The reference: each of the four phase groups in a worker of its own.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_experiment(config_from_dict(obj, data_dir))

    forks = []
    real_fork = forked._fork
    monkeypatch.setattr(forked, "_fork", lambda work, job: forks.append(job) or real_fork(work, job))
    log = tmp_path / "groups.log"
    real_group = pipeline._run_group

    def spy(group, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), group]) + "\n")
        return real_group(group, *args)

    monkeypatch.setattr(pipeline, "_run_group", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    obj["output_dir"] = str(tmp_path / "shared")
    run_experiment(config_from_dict(obj, data_dir))
    # Groups 0 and 2 share one worker, 1 and 3 the other, each in config order.
    shares = [[[0, 2], [3]], [[1], [4]]]
    assert forks == shares
    by_pid: dict = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, group = json.loads(line)
        by_pid.setdefault(pid, []).append(group)
    assert os.getpid() not in by_pid
    assert sorted(by_pid.values()) == shares
    names = sorted(p.name for p in (tmp_path / "apart").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "shared").iterdir())
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (
            tmp_path / "apart" / name
        ).read_bytes(), name


def test_run_experiment_failure_in_a_worker_starts_no_waiting_group(
    data_dir, tmp_path, monkeypatch
):
    # One worker takes the phase groups in turn, so en's group is still waiting.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    calls = count_trains(monkeypatch, tmp_path / "trains.log")
    out = tmp_path / "out"
    (out / "model_joint.json").mkdir(parents=True)
    obj = base_config(data_dir, out)
    obj["strategies"] = [
        _row("es_only", "ES_ONLY"),
        _row("joint", "JOINT"),
        _row("en_then_es", "EN_THEN_ES"),
    ]
    obj["train"]["epochs"] = 1
    with pytest.raises(PipelineError) as err:
        run_experiment(config_from_dict(obj, data_dir))
    assert err.value.stage == "train:joint"
    assert isinstance(err.value.cause, IoFailure)
    assert child_process_left() is None
    assert calls() == ["es", "joint-es-en"]
    assert (out / "report_es_only.json").is_file()
    assert not (out / "model_en_then_es.json").exists()


# Runs the real pool with two workers whose job records its pid and then
# waits far longer than the test does.
_HELD_POOL = """
import os, sys, time, types
from pathlib import Path
from espunct import pipeline

out = Path(sys.argv[1])

def hold(*args):
    (out / f"worker-{os.getpid()}").touch()
    time.sleep(60)

pipeline._run_group = hold
os.cpu_count = lambda: 2
config = types.SimpleNamespace(rows=[None, None])
pipeline._run_groups([[0], [1]], config, [None, None], [], out)
"""


def _alive(pid):
    """True while pid names a process that is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_pool_workers_exit_when_their_parent_is_killed(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", _HELD_POOL, str(tmp_path)], env=env)
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(p.name.split("-")[1]) for p in tmp_path.glob("worker-*")]
        assert len(workers) == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(10) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.wait()


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


@pytest.mark.parametrize("key", ["es_indomain", "ldc", "opensubtitle_pool", "en_indomain"])
def test_run_experiment_refuses_an_empty_dataset(data_dir, tmp_path, key):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    obj = base_config(data_dir, tmp_path / "out")
    obj["datasets"][key] = str(empty)
    with pytest.raises(PipelineError) as err:
        run_experiment(config_from_dict(obj, data_dir))
    assert err.value.stage == f"load:{key}"
    assert isinstance(err.value.cause, EmptyCorpus)
    assert str(err.value) == f"stage 'load:{key}': {empty} holds no utterances"


@pytest.mark.parametrize(
    "empty_keys, stage",
    [
        (("ldc", "opensubtitle_pool"), "load:ldc"),
        (("en_indomain", "opensubtitle_pool"), "load:en_indomain"),
    ],
)
def test_run_experiment_loads_the_datasets_in_a_fixed_order(
    data_dir, tmp_path, empty_keys, stage
):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    obj = base_config(data_dir, tmp_path / "out")
    for key in empty_keys:
        obj["datasets"][key] = str(empty)
    with pytest.raises(PipelineError) as err:
        run_experiment(config_from_dict(obj, data_dir))
    assert err.value.stage == stage


def test_a_grid_load_error_names_its_dataset_and_line(data_dir, tmp_path):
    pool = tmp_path / "pool.jsonl"
    write_jsonl(
        [RawUtterance("pues tengo problema."), RawUtterance("(risas) bueno vale.")], pool
    )
    obj = base_config(data_dir, tmp_path / "out")
    obj["datasets"]["opensubtitle_pool"] = str(pool)
    with pytest.raises(PipelineError) as err:
        run_experiment(config_from_dict(obj, data_dir))
    assert err.value.stage == "load:opensubtitle_pool"
    assert isinstance(err.value.cause, MalformedRecord)
    assert str(err.value) == (
        "stage 'load:opensubtitle_pool': line 2: "
        "token '(risas)' keeps unnormalized punctuation '('"
    )


# Each fault, the dataset key it is loaded under, the file's bytes, and
# the "line N: reason" the grid and `espunct extract` both report.
_LOAD_FAULTS = {
    "not-utf8": (
        "es_indomain", b'{"text": "hola."}\n{"text": "\xff."}\n', "line 2: not UTF-8 text"
    ),
    "blank-line": ("ldc", b'{"text": "hola."}\n\n{"text": "vale."}\n', "line 2: blank line"),
    "raw-after-labeled": (
        "en_indomain",
        b'{"tokens": ["hola"], "labels": ["PERIOD"]}\n{"text": "vale."}\n',
        "line 2: file mixes raw and labeled records",
    ),
    "lone-surrogate": (
        "opensubtitle_pool",
        b'{"text": "hola."}\n{"text": "\\ud800 vale."}\n',
        "line 2: record holds a lone surrogate",
    ),
}


@pytest.mark.parametrize("fault", sorted(_LOAD_FAULTS))
def test_a_grid_load_error_is_the_one_extract_reports(fault, data_dir, tmp_path, capsys):
    key, content, reason = _LOAD_FAULTS[fault]
    path = tmp_path / "faulty.jsonl"
    path.write_bytes(content)
    assert cli_main(["extract", "--in", str(path), "--out", str(tmp_path / "x.jsonl")]) == 3
    assert capsys.readouterr().err == f"error: {reason}\n"
    obj = base_config(data_dir, tmp_path / "out")
    obj["datasets"][key] = str(path)
    with pytest.raises(PipelineError) as err:
        run_experiment(config_from_dict(obj, data_dir))
    assert err.value.stage == f"load:{key}"
    assert isinstance(err.value.cause, MalformedRecord)
    assert str(err.value) == f"stage 'load:{key}': {reason}"


def test_a_plain_text_dataset_loads_as_its_jsonl_twin(data_dir, tmp_path):
    texts = [render(u) for u in read_jsonl(data_dir / "es.jsonl")]
    write_jsonl([RawUtterance(text) for text in texts], tmp_path / "es.jsonl")
    # Blank lines in plain text are not records.
    lines = [text + "\n" for text in texts]
    (tmp_path / "es.txt").write_text("".join(lines[:5] + ["\n"] + lines[5:]), encoding="utf-8")
    written = []
    for name in ("es.jsonl", "es.txt"):
        out = tmp_path / f"out-{name}"
        obj = {
            "schema_version": 1,
            "datasets": {"es_indomain": name},
            "strategies": ["ES_ONLY"],
            "output_dir": str(out),
        }
        run_experiment(config_from_dict(obj, tmp_path))
        written.append((out / "es_train.jsonl").read_bytes())
    assert written[0] == written[1] and written[0]


@pytest.mark.parametrize(
    "dataset, strategies, stage",
    [
        (
            "ldc",
            [_row("plain", "ES_ONLY"), _row("with_ldc", "ES_ONLY", _LDC),
             _row("again", "ES_THEN_EN", _LDC)],
            "train:with_ldc",
        ),
        (
            "en_indomain",
            [_row("plain", "ES_ONLY"), _row("joint", "JOINT"), _row("en_first", "EN_THEN_ES")],
            "train:joint",
        ),
    ],
)
def test_run_experiment_refuses_leaked_test_utterances(
    data_dir, tmp_path, dataset, strategies, stage
):
    # Every in-domain statement: conversion keeps them as they are, and some
    # of them fall into the test split.
    statements = [
        u for u in read_jsonl(data_dir / "es.jsonl")
        if not any(lab.is_opening or lab.is_closing or lab.is_full for lab in u.labels)
    ]
    write_jsonl(statements, tmp_path / "leak.jsonl")
    obj = base_config(data_dir, tmp_path / "out")
    obj["datasets"][dataset] = str(tmp_path / "leak.jsonl")
    obj["strategies"] = strategies
    obj["train"]["epochs"] = 1
    with pytest.raises(PipelineError) as err:
        run_experiment(config_from_dict(obj, data_dir))
    assert err.value.stage == stage
    assert isinstance(err.value.cause, DataLeakageError)


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


def test_tokenize_for_restore_strips_brackets():
    assert tokenize_for_restore("[hola] que tal") == ["hola", "que", "tal"]
    assert tokenize_for_restore('{"a": NaN}') == ["a", "NaN"]


def test_every_boundary_char_is_stripped_and_refused_at_a_token_edge():
    with pytest.raises(AttributeError):
        REJECTED_BOUNDARY.add("x")
    for ch in BOUNDARY_CHARS:
        assert tokenize_for_restore(f"{ch}hola{ch} que") == ["hola", "que"], ch
        for token in (ch + "hola", "hola" + ch):
            with pytest.raises(ValueError, match="boundary punctuation mark"):
                LabeledUtterance((token,), (PunctClass.NONE,))


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


def test_response_encodes_each_label_as_its_name():
    labels = list(PunctClass)
    line = pipeline._encode_response({"id": "r", "labels": labels})
    assert line == json.dumps(
        {"id": "r", "labels": [lab.name for lab in labels]},
        ensure_ascii=False,
        separators=(",", ":"),
    )


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


@pytest.mark.parametrize(
    "line", ["[" * 200_000, "1" * 5_000], ids=["deep-nesting", "huge-integer"]
)
def test_handle_request_hostile_json_is_malformed(served_model, line):
    obj = json.loads(handle_request_line(served_model, line))
    assert obj == {"id": None, "error": "MalformedRequest", "message": obj["message"]}
    assert obj["message"].startswith("bad JSON: ")


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


def _stdio_answers(model, payload: bytes) -> list[dict]:
    out = io.BytesIO()
    serve_lines(model, io.BytesIO(payload), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _tcp_answers(server, payload: bytes, count: int) -> list[dict]:
    with socket.create_connection(server.server_address, timeout=5) as conn:
        conn.sendall(payload)
        reader = conn.makefile("rb")
        return [json.loads(reader.readline()) for _ in range(count)]


@pytest.fixture()
def tcp_server(served_model):
    server = PunctServer(("127.0.0.1", 0), served_model)
    # A short poll lets shutdown() return without waiting out the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_serve_stdio_matches_restore(served_model):
    texts = [render(u) for u in rule_corpus(30, seed=8)]
    lines = [json.dumps({"id": f"r{i}", "text": t}) for i, t in enumerate(texts)]
    payload = ("\n".join(lines) + "\n\n").encode("utf-8")
    responses = _stdio_answers(served_model, payload)
    assert len(responses) == len(texts)
    for i, (obj, text) in enumerate(zip(responses, texts)):
        assert obj["id"] == f"r{i}"
        assert obj["text"] == restore(served_model, text)[0]


_NOT_UTF8 = b'{"id":"a","text":"hola qu\xe9 tal"}\n'
_GOOD = json.dumps({"id": "b", "text": "bueno quiero una cita"}).encode("utf-8") + b"\n"
# JSON escapes that decode to a lone surrogate, in each echoed field.
_LONE_SURROGATE = {
    "id": b'{"id":"a\\ud800","text":"hola tal"}\n',
    "text": b'{"id":"a","text":"hola \\udce9 tal"}\n',
}


def _answers_malformed_then_serves(first: dict, second: dict):
    assert first["error"] == "MalformedRequest"
    assert first["id"] is None
    assert second["id"] == "b"
    assert "labels" in second


def test_serve_stdio_answers_non_utf8_line(served_model):
    _answers_malformed_then_serves(*_stdio_answers(served_model, _NOT_UTF8 + _GOOD))


def test_serve_tcp_answers_non_utf8_line(tcp_server):
    _answers_malformed_then_serves(*_tcp_answers(tcp_server, _NOT_UTF8 + _GOOD, 2))


@pytest.mark.parametrize("field", sorted(_LONE_SURROGATE))
def test_serve_stdio_answers_lone_surrogate(served_model, field):
    answers = _stdio_answers(served_model, _LONE_SURROGATE[field] + _GOOD)
    _answers_malformed_then_serves(*answers)


@pytest.mark.parametrize("field", sorted(_LONE_SURROGATE))
def test_serve_tcp_answers_lone_surrogate(tcp_server, field):
    answers = _tcp_answers(tcp_server, _LONE_SURROGATE[field] + _GOOD, 2)
    _answers_malformed_then_serves(*answers)


def test_serve_tcp_stops_quietly_when_the_client_goes_away(tcp_server, capsys):
    handled = threading.Event()
    close_request = tcp_server.shutdown_request

    def shutdown_request(request):  # runs once the handler has returned
        close_request(request)
        handled.set()

    tcp_server.shutdown_request = shutdown_request
    with socket.create_connection(tcp_server.server_address, timeout=5) as conn:
        conn.sendall(_GOOD * 3000)
        with conn.makefile("rb") as reader:
            assert json.loads(reader.readline())["id"] == "b"
    assert handled.wait(30)
    assert "Traceback" not in capsys.readouterr().err
    assert _tcp_answers(tcp_server, _GOOD, 1)[0]["id"] == "b"


def test_serve_tcp_round_trip(tcp_server):
    payload = json.dumps({"id": "a", "text": "bueno quiero una cita"}) + "\n{oops\n"
    first, second = _tcp_answers(tcp_server, payload.encode("utf-8"), 2)
    assert first["id"] == "a"
    assert "labels" in first
    assert second["error"] == "MalformedRequest"
