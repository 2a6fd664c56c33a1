"""Acceptance gate: ten end-to-end checks, one test per criterion, and
determinism checked once more across interpreters.

Each test states its tolerances inline; together they cover round-trip
integrity, normalization, convention conversion, selection equivalence,
augmentation convergence, pairing repair, tagger learnability, transfer
directions, experiment determinism (on this interpreter and on every
other CPython 3.10+ on PATH), and serving parity plus latency.
"""

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from espunct.augment import (
    TerminalHistogram,
    augment_to_distribution,
    distribution_distance,
    histogram,
)
from espunct.corpus import (
    Kind,
    LabeledUtterance,
    PunctClass,
    RawUtterance,
    extract_labels,
    normalize_punctuation,
    read_jsonl,
    render,
    write_jsonl,
)
from espunct.crosslingual import anglicize_to_spanish_conventions
from espunct.evaluate import evaluate, split_corpus
from espunct.pipeline import (
    config_from_dict,
    handle_request_line,
    run_experiment,
    tokenize_for_restore,
)
from espunct.postprocess import repair_pairing, validate_pairing
from espunct.selection import (
    lm_tokenize,
    perplexity,
    score_pool,
    select_lowest_perplexity,
    train_ngram,
)
from espunct.synthetic import transfer_benchmark
from espunct.tagger import Strategy, TrainConfig, oversample, run_strategy, train

from generators import (
    random_english_labels,
    random_label_sequence,
    random_labeled_utterance,
    random_token,
    rule_corpus,
)
from helpers import RefWittenBell, labels

DATA = Path(__file__).parent / "data"


def test_c01_round_trip_integrity():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(10_000):
        u = random_labeled_utterance(rng)
        assert extract_labels(render(u, False)) == u
    for _ in range(1_000):
        text = render(random_labeled_utterance(rng))
        sloppy = "  " + text.replace(" ", "   ") + " "
        assert render(extract_labels(sloppy)) == " ".join(sloppy.split())
    assert time.perf_counter() - started < 10.0


def test_c02_normalization_conformance():
    golden = (DATA / "normalize_golden.tsv").read_text(encoding="utf-8")
    cases = [
        line.split("\t")
        for line in golden.splitlines()
        if line and not line.startswith("#")
    ]
    assert cases
    for raw, expected in cases:
        assert normalize_punctuation(raw) == expected

    alphabet = 'ab é ".«»\N{RIGHT SINGLE QUOTATION MARK}“”‘:;…!?¿¡,.\'-'
    rng = random.Random(102)
    for _ in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        once = normalize_punctuation(s)
        assert normalize_punctuation(once) == once


def _terminator_census(seq):
    census = Counter()
    for lab in seq:
        if lab.is_terminating:
            census[lab.kind] += 1
        elif lab is PunctClass.COMMA:
            census["comma"] += 1
    return census


def test_c03_crosslingual_conversion():
    u = extract_labels("OK, how can I help you?", lang="en")
    converted = anglicize_to_spanish_conventions(u)
    assert render(converted) == "OK, ¿how can I help you?"

    rng = random.Random(103)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        u = LabeledUtterance(
            tuple(random_token(rng) for _ in range(n)),
            tuple(random_english_labels(rng, n)),
            lang="en",
        )
        out = anglicize_to_spanish_conventions(u)
        assert out.tokens == u.tokens
        assert validate_pairing(out.labels)
        assert _terminator_census(out.labels) == _terminator_census(u.labels)


def test_c04_selection_oracle_equivalence():
    texts = [" ".join(lm_tokenize(render(u))) for u in rule_corpus(200, seed=40)]
    pool_texts = [
        " ".join(lm_tokenize(render(u))) for u in rule_corpus(300, seed=41)
    ]
    model = train_ngram([RawUtterance(t) for t in texts], order=3)
    ref = RefWittenBell(texts, order=3)

    pool = [RawUtterance(t) for t in pool_texts]
    got_scores = score_pool(model, pool)
    ref_scores = [ref.perplexity(t) for t in pool_texts]
    for got, want in zip(got_scores, ref_scores):
        assert abs(got - want) <= 1e-9 * want

    for k in range(len(pool) + 1):
        ranked = sorted(range(len(pool)), key=lambda i: (ref_scores[i], i))[:k]
        brute = [pool[i] for i in sorted(ranked)]
        assert select_lowest_perplexity(model, pool, k) == brute

    # every context distribution is properly normalized on a tiny vocabulary
    tiny = train_ngram(
        [RawUtterance(t) for t in ("a b c a b", "b c d e", "c d a a", "e b c")],
        order=3,
    )
    assert len(tiny.vocabulary) <= 20
    contexts = list(tiny.counts) + [("zz",), ("zz", "qq"), ("a", "zz")]
    for ctx in contexts:
        total = sum(tiny.prob(w, ctx) for w in tiny.vocabulary)
        assert abs(total - 1.0) < 1e-9, ctx


def test_c05_augmentation_convergence():
    started = time.perf_counter()
    rng = random.Random(105)
    source = []
    for _ in range(5_000):
        n = rng.randint(2, 8)
        toks = tuple(random_token(rng) for _ in range(n))
        labs = [PunctClass.NONE] * (n - 1) + [PunctClass.PERIOD]
        source.append(LabeledUtterance(toks, tuple(labs)))
    assert all(u.labels.count(PunctClass.PERIOD) == 1 for u in source)

    target = TerminalHistogram({1: 0.35, 2: 0.25, 3: 0.2, 4: 0.12, 5: 0.08})
    source_tokens = Counter(t for u in source for t in u.tokens)
    source_labels = Counter(l for u in source for l in u.labels)

    close = 0
    for seed in range(100):
        out = augment_to_distribution(source, target, seed)
        if distribution_distance(histogram(out), target) < 0.05:
            close += 1
        assert Counter(t for u in out for t in u.tokens) == source_tokens
        assert Counter(l for u in out for l in u.labels) == source_labels
    assert close >= 99
    assert time.perf_counter() - started < 30.0


def test_c06_pairing_repair():
    unmatched_open = [PunctClass.OPEN_QUESTION, PunctClass.NONE, PunctClass.NONE]
    assert repair_pairing(unmatched_open) == list(labels("N N N"))
    assert not validate_pairing(unmatched_open)

    rng = random.Random(106)
    for _ in range(100_000):
        seq = random_label_sequence(rng, rng.randint(0, 10))
        assert validate_pairing(repair_pairing(seq))


def test_c07_tagger_learnability():
    started = time.perf_counter()
    corpus = rule_corpus(5_000, seed=70)
    train_set, _, test_set = split_corpus(corpus, (0.7, 0.0, 0.3), seed=70)
    config = TrainConfig(epochs=5, seed=0)
    model = train(train_set, config)
    report = evaluate(model, test_set)
    assert report.micro_f1_non_none >= 0.95
    again = train(train_set, config)
    assert again.weights == model.weights
    assert time.perf_counter() - started < 60.0


def test_c08_directional_transfer():
    f1 = {key: [] for key in ("es", "es_en", "en_es", "joint", "unaug", "aug")}
    for seed in range(5):
        bench = transfer_benchmark(seed)
        config = TrainConfig(epochs=3, seed=seed)

        en_conv = [anglicize_to_spanish_conventions(u) for u in bench.en]
        for strat, key in (
            (Strategy.ES_ONLY, "es"),
            (Strategy.ES_THEN_EN, "es_en"),
            (Strategy.EN_THEN_ES, "en_es"),
            (Strategy.JOINT, "joint"),
        ):
            en = None if strat is Strategy.ES_ONLY else en_conv
            model = run_strategy(strat, bench.es_train, en, config)
            f1[key].append(evaluate(model, bench.es_test).micro_f1_non_none)

        lm = train_ngram([RawUtterance(render(u)) for u in bench.es_train], order=4)
        kept = select_lowest_perplexity(lm, bench.os_pool, 800)
        selected = [
            extract_labels(r.text, source=r.source, lang=r.lang) for r in kept
        ]
        target = histogram(bench.es_train)
        # identical in-domain mass in both rows; only the grouping differs
        indomain = oversample(
            bench.es_train, max(len(bench.es_train), len(bench.ldc)), seed=seed
        )
        for key, ldc_part, sel_part in (
            ("unaug", bench.ldc, selected),
            ("aug",
             augment_to_distribution(bench.ldc, target, seed),
             augment_to_distribution(selected, target, seed)),
        ):
            es_data = indomain + list(ldc_part) + list(sel_part)
            model = run_strategy(Strategy.ES_ONLY, es_data, None, config)
            f1[key].append(evaluate(model, bench.es_test).micro_f1_non_none)

    mean = {key: statistics.mean(vals) for key, vals in f1.items()}
    point = 0.01
    assert mean["aug"] - mean["unaug"] >= point
    assert mean["joint"] - mean["es"] >= point
    assert mean["en_es"] - mean["es"] >= point
    assert mean["es_en"] - mean["es"] <= -point


def _experiment_fixture(base):
    seen = set()
    es = []
    for u in rule_corpus(400, seed=90):
        key = (u.tokens, u.labels)
        if key not in seen:
            seen.add(key)
            es.append(u)
        if len(es) == 60:
            break
    write_jsonl(es, base / "es.jsonl")
    write_jsonl(
        [RawUtterance(f"el documento n{i} llega hoy.", lang="es") for i in range(20)],
        base / "ldc.jsonl",
    )
    pool = [
        RawUtterance(f"pues tengo problema n{i}.", lang="es") for i in range(6)
    ] + [RawUtterance(f"zzyx blorp n{i} vex.", lang="es") for i in range(6)]
    write_jsonl(pool, base / "pool.jsonl")
    write_jsonl(
        [RawUtterance(f"ok, can you check item n{i}?", lang="en") for i in range(15)],
        base / "en.jsonl",
    )
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
    }


def test_c09_end_to_end_determinism(tmp_path):
    obj = _experiment_fixture(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        obj["output_dir"] = str(out)
        run_experiment(config_from_dict(obj, tmp_path))
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "model_joint.json" in names
    assert "report_aug.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_c09_every_interpreter_writes_the_same_bytes(tmp_path):
    """Every other CPython 3.10+ on PATH writes the grid's artifacts byte
    for byte as this one does.  A float sum whose arithmetic changed
    between versions (sum() compensates from 3.12) shows here once it
    reaches an artifact's bytes."""
    others = []
    for minor in range(10, 15):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.split() == ["cpython", "3", str(minor)]:
            others.append(exe)
    if not others:
        pytest.skip("no other CPython 3.10+ on PATH starts")
    obj = _experiment_fixture(tmp_path)
    obj["output_dir"] = str(tmp_path / "here")
    run_experiment(config_from_dict(obj, tmp_path))
    want = _digests(tmp_path / "here")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PUNCT_SEED"}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for exe in others:
        out = tmp_path / Path(exe).name
        obj["output_dir"] = str(out)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj), encoding="utf-8")
        proc = subprocess.run(
            [exe, "-m", "espunct.cli", "experiment", "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, (exe, proc.stderr)
        assert _digests(out) == want, exe


def test_c10_serving_parity_and_latency():
    model = train(rule_corpus(400, seed=100), TrainConfig(epochs=2, seed=0))
    rng = random.Random(110)
    probes = []
    for u in rule_corpus(450, seed=101):
        probes.append(render(u))
    while len(probes) < 500:
        # near the 100-token bound: several utterances joined into one text
        parts = []
        total = 0
        while total < 85:
            u = rule_corpus(1, seed=rng.randint(0, 10_000))[0]
            if total + len(u.tokens) > 100:
                continue
            parts.append(render(u))
            total += len(u.tokens)
        probes.append(" ".join(parts))
    assert len(probes) == 500
    assert all(len(tokenize_for_restore(t)) <= 100 for t in probes)

    latencies = []
    for i, text in enumerate(probes):
        line = json.dumps({"id": f"p{i}", "text": text}, ensure_ascii=False)
        started = time.perf_counter()
        response = handle_request_line(model, line)
        latencies.append((time.perf_counter() - started) * 1000.0)

        obj = json.loads(response)
        tokens = tokenize_for_restore(text)
        repaired = repair_pairing(model.predict(tokens))
        expected = render(
            LabeledUtterance(tuple(tokens), tuple(repaired)), capitalize=True
        )
        assert obj["id"] == f"p{i}"
        assert obj["text"] == expected
        assert obj["labels"] == [lab.name for lab in repaired]

    p99 = sorted(latencies)[494]
    assert p99 < 50.0
