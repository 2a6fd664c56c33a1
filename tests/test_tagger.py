"""Averaged perceptron: features, training, strategies, persistence."""

import json
import random

import pytest

from espunct.corpus import LabeledUtterance, PunctClass
from espunct.errors import (
    EmptyCorpus,
    IoFailure,
    LabelSetMismatch,
    MissingEnglishData,
    ModelLoadError,
    TargetTooSmall,
)
from espunct.synthetic import random_labeled_utterance, rule_corpus, transfer_benchmark
from espunct.tagger import (
    DEFAULT_LABEL_SET,
    FEATURE_TEMPLATES,
    PerceptronBackend,
    Strategy,
    TaggerModel,
    TrainConfig,
    _feature_list,
    _static_features,
    continue_train,
    featurize,
    oversample,
    run_strategy,
    train,
)

from helpers import BAD_MODEL_CHANGES, count_trains, labels, lu


# ---------------------------------------------------------------- features


def test_featurize_mid_token_with_number():
    feats = featurize(["Hola", "3,5", "qué"], 1, "COMMA")
    assert feats == {
        "w-2=<s>",
        "w-1=hola",
        "w0=3,5",
        "w+1=qué",
        "w+2=</s>",
        "pre1=3",
        "suf1=5",
        "pre2=3,",
        "suf2=,5",
        "pre3=3,5",
        "suf3=3,5",
        "prev=COMMA",
        "shape=d,d",
        "wb-1=hola|3,5",
        "wb+1=3,5|qué",
    }


def test_featurize_single_token():
    feats = featurize(["Ok"], 0, "<start>")
    assert feats == {
        "w-2=<s>",
        "w-1=<s>",
        "w0=ok",
        "w+1=</s>",
        "w+2=</s>",
        "pre1=o",
        "suf1=k",
        "pre2=ok",
        "suf2=ok",
        "first",
        "last",
        "prev=<start>",
        "shape=Xx",
        "wb-1=<s>|ok",
        "wb+1=ok|</s>",
    }


def test_featurize_short_word_skips_long_affixes():
    feats = featurize(["y", "a"], 0, "<start>")
    assert "pre1=y" in feats
    assert not any(f.startswith(("pre2", "pre3", "suf2", "suf3")) for f in feats)


def test_feature_count_stays_bounded():
    rng = random.Random(0)
    for _ in range(500):
        u = random_labeled_utterance(rng)
        i = rng.randrange(len(u.tokens))
        feats = featurize(u.tokens, i, "NONE")
        assert len(feats) <= 20


def test_template_inventory():
    assert len(FEATURE_TEMPLATES) == 17
    assert "prev" in FEATURE_TEMPLATES


def _template_cases():
    """Token lists that reach every template branch, first and last
    positions included."""
    rule = rule_corpus(200, seed=3)
    mixed = next(
        u.tokens for u in rule
        if any(t[0].isupper() for t in u.tokens)
        and any(ch.isdigit() for t in u.tokens for ch in t)
    )
    en = transfer_benchmark(
        4, es_train_size=1, es_test_size=1, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=50,
    ).en
    short = next(u.tokens for u in en if any(len(t) == 2 for t in u.tokens))
    return [mixed, short, ("y", "OK", "3,5", "a"), ("Ok",)]


def test_static_features_match_template_definition():
    cases = _template_cases()
    assert any(len(t) == 1 for case in cases for t in case)
    cache = {}
    for tokens in cases:
        lowered = [t.lower() for t in tokens]
        static = _static_features(tokens, cache)
        assert len(static) == len(tokens)
        for i, (head, tail) in enumerate(static):
            for prev in ("<start>",) + DEFAULT_LABEL_SET:
                assert head + ("prev=" + prev,) + tail == tuple(
                    _feature_list(tokens, i, prev, lowered)
                ), (tokens, i, prev)


def _reference_predict(model, tokens):
    """The greedy decoder written directly against _feature_list."""
    lowered = [t.lower() for t in tokens]
    prev = "<start>"
    out = []
    for i in range(len(tokens)):
        scores = [0.0] * len(model.label_set)
        for f in _feature_list(tokens, i, prev, lowered):
            for li, w in model.weights.get(f, {}).items():
                scores[li] += w
        best = 0
        for li in range(1, len(scores)):
            if scores[li] > scores[best]:
                best = li
        prev = model.label_set[best]
        out.append(PunctClass[prev])
    return out


def test_predict_matches_reference_decoder():
    bench = transfer_benchmark(
        2, es_train_size=80, es_test_size=60, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=60,
    )
    model = train(bench.es_train + bench.en, TrainConfig(epochs=2, seed=0))
    grown = continue_train(model, bench.es_train, TrainConfig(epochs=1, seed=1))
    for m in (model, grown):
        for u in bench.es_test + bench.en:
            assert m.predict(u.tokens) == _reference_predict(m, u.tokens)


# ---------------------------------------------------------------- decoding
# ---------------------------------------------------------------- decoding


def test_zero_weights_predict_all_none():
    model = TaggerModel()
    got = model.predict(["hola", "qué", "tal"])
    assert got == [PunctClass.NONE] * 3


def test_predict_rejects_empty_input():
    with pytest.raises(ValueError):
        TaggerModel().predict([])


def test_forced_weights_drive_prediction():
    model = TaggerModel()
    li = DEFAULT_LABEL_SET.index("PERIOD")
    model.weights["last"] = {li: 5.0}
    assert model.predict(["a", "b"]) == [PunctClass.NONE, PunctClass.PERIOD]


# ------------------------------------------------------- averaging oracle


def _naive_train(corpus, config, label_set=DEFAULT_LABEL_SET):
    """Reference trainer that materializes a weight snapshot after every
    utterance and averages them directly.  All training weights are
    integer-valued, so float equality with the lazy version is exact."""
    index = {name: li for li, name in enumerate(label_set)}
    nlabels = len(label_set)
    weights = {}
    sums = {}
    rng = random.Random(config.seed)
    order = list(range(len(corpus)))
    ticks = 0
    for _ in range(config.epochs):
        if config.shuffle:
            rng.shuffle(order)
        for ci in order:
            u = corpus[ci]
            ticks += 1
            prev = "<start>"
            for i in range(len(u.tokens)):
                feats = sorted(featurize(u.tokens, i, prev))
                scores = [0.0] * nlabels
                for f in feats:
                    for li, w in weights.get(f, {}).items():
                        scores[li] += w
                guess = 0
                for li in range(1, nlabels):
                    if scores[li] > scores[guess]:
                        guess = li
                gold = index[u.labels[i].name]
                if guess != gold:
                    for f in feats:
                        row = weights.setdefault(f, {})
                        row[gold] = row.get(gold, 0.0) + 1.0
                        row[guess] = row.get(guess, 0.0) - 1.0
                prev = label_set[guess]
            for f, row in weights.items():
                srow = sums.setdefault(f, {})
                for li, w in row.items():
                    srow[li] = srow.get(li, 0.0) + w
    out = {}
    for f, row in sums.items():
        arow = {li: s / ticks for li, s in row.items() if s / ticks != 0.0}
        if arow:
            out[f] = arow
    return out


@pytest.mark.parametrize("seed,shuffle", [(0, True), (7, True), (3, False)])
def test_averaged_weights_match_snapshot_reference(seed, shuffle):
    corpus = rule_corpus(40, seed=seed + 100)
    config = TrainConfig(epochs=3, seed=seed, shuffle=shuffle)
    model = train(corpus, config)
    assert model.weights == _naive_train(corpus, config)


# ----------------------------------------------------------- learnability


def _micro_f1(model, test):
    tp = pred_punct = gold_punct = 0
    for u in test:
        pred = model.predict(u.tokens)
        for g, p in zip(u.labels, pred):
            if p is not PunctClass.NONE:
                pred_punct += 1
            if g is not PunctClass.NONE:
                gold_punct += 1
                if g is p:
                    tp += 1
    precision = tp / pred_punct if pred_punct else 0.0
    recall = tp / gold_punct if gold_punct else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_learns_rule_governed_corpus():
    corpus = rule_corpus(800, seed=5)
    model = train(corpus[:600], TrainConfig(epochs=5, seed=0))
    assert _micro_f1(model, corpus[600:]) >= 0.95


def test_learns_final_period_rule():
    rng = random.Random(11)
    words = [f"palabra{i}" for i in range(60)]

    def sample(n):
        toks = tuple(rng.choice(words) for _ in range(n))
        labs = (PunctClass.NONE,) * (n - 1) + (PunctClass.PERIOD,)
        return lu(" ".join(toks), " ".join(
            "P" if j == n - 1 else "N" for j in range(n)))

    corpus = [sample(rng.randint(2, 8)) for _ in range(400)]
    model = train(corpus, TrainConfig(epochs=2, seed=0))
    assert model.predict(["hola", "buenos", "días"]) == list(labels("N N P"))

    hit = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        toks = [rng.choice(words) for _ in range(n)]
        pred = model.predict(toks)
        want = [PunctClass.NONE] * (n - 1) + [PunctClass.PERIOD]
        hit += pred == want
    assert hit / 500 >= 0.99


def test_training_is_deterministic():
    corpus = rule_corpus(120, seed=2)
    a = train(corpus, TrainConfig(epochs=3, seed=9))
    b = train(corpus, TrainConfig(epochs=3, seed=9))
    c = train(corpus, TrainConfig(epochs=3, seed=10))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    assert a.weights != c.weights


def test_train_rejects_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train([])
    with pytest.raises(EmptyCorpus):
        continue_train(TaggerModel(), [])


def test_config_rejects_bad_epochs():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# ------------------------------------------------------------ persistence


def test_save_load_round_trip(tmp_path):
    corpus = rule_corpus(60, seed=1)
    model = train(corpus, TrainConfig(epochs=2, seed=0))
    path = tmp_path / "model.json"
    model.save(path)
    back = TaggerModel.load(path)
    assert back.label_set == model.label_set
    assert back.weights == model.weights
    assert back.training_log == model.training_log
    probe = ["bueno", "quiero", "ayuda"]
    assert back.predict(probe) == model.predict(probe)


def test_save_unwritable_path():
    with pytest.raises(IoFailure):
        TaggerModel().save("/nonexistent-dir/model.json")


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelLoadError):
        TaggerModel.load(tmp_path / "absent.json")


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "v99.json"
    obj = TaggerModel().to_json_dict()
    obj["format_version"] = 99
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"format_version": 1}', encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


def test_load_rejects_unknown_label_in_weights(tmp_path):
    path = tmp_path / "alien.json"
    obj = TaggerModel().to_json_dict()
    obj["weights"] = {"w0=hola": {"SEMICOLON": 1.0}}
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


@pytest.mark.parametrize("case", sorted(BAD_MODEL_CHANGES))
def test_load_rejects_unusable_model(tmp_path, case):
    path = tmp_path / f"{case}.json"
    obj = {**TaggerModel().to_json_dict(), **BAD_MODEL_CHANGES[case]}
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


def test_load_accepts_a_label_subset():
    obj = TaggerModel(label_set=("NONE", "PERIOD")).to_json_dict()
    obj["weights"] = {"last": {"PERIOD": 2.5}}
    model = TaggerModel.from_json_dict(obj)
    assert model.predict(["a", "b"]) == [PunctClass.NONE, PunctClass.PERIOD]


# -------------------------------------------------------- continue_train
# -------------------------------------------------------- continue_train


def test_continue_train_keeps_untouched_weights_verbatim():
    first = [lu("hola buenos días", "N N P") for _ in range(30)]
    second = [lu("ya veremos mañana", "N N P") for _ in range(30)]
    model = train(first, TrainConfig(epochs=3, seed=0))
    before = {f: dict(row) for f, row in model.weights.items()}

    grown = continue_train(model, second, TrainConfig(epochs=3, seed=1))
    # the input model is untouched
    assert model.weights == before

    new_words = {"ya", "veremos", "mañana"}
    stale = [
        f for f in before
        if f.startswith("w0=") and f.removeprefix("w0=") not in new_words
    ]
    assert stale
    for f in stale:
        assert grown.weights[f] == before[f]


def test_continue_train_appends_to_log():
    model = train(rule_corpus(20, seed=0), TrainConfig(epochs=1, seed=0),
                  data_tag="es")
    grown = continue_train(model, rule_corpus(10, seed=1),
                           TrainConfig(epochs=2, seed=3), data_tag="en")
    assert [e["data"] for e in grown.training_log] == ["es", "en"]
    assert grown.training_log[1] == {
        "data": "en", "epochs": 2, "seed": 3, "size": 10,
    }
    assert len(model.training_log) == 1


def test_continue_train_checks_label_set():
    small = TaggerModel(label_set=("NONE", "PERIOD"))
    with pytest.raises(LabelSetMismatch):
        continue_train(small, [lu("a b", "N C")])


# -------------------------------------------------------------- strategies


class _RecordingBackend:
    def __init__(self):
        self.calls = []

    def train(self, corpus, config, data_tag):
        self.calls.append(("train", data_tag, len(corpus)))
        return f"model-after-{data_tag}"

    def continue_train(self, model, corpus, config, data_tag):
        self.calls.append(("continue", data_tag, len(corpus)))
        return f"{model}+{data_tag}"


def test_strategy_call_orders():
    es = rule_corpus(6, seed=0)
    en = rule_corpus(4, seed=1)

    b = _RecordingBackend()
    run_strategy(Strategy.ES_ONLY, es, None, backend=b)
    assert b.calls == [("train", "es", 6)]

    b = _RecordingBackend()
    got = run_strategy(Strategy.ES_THEN_EN, es, en, backend=b)
    assert b.calls == [("train", "es", 6), ("continue", "en", 4)]
    assert got == "model-after-es+en"

    b = _RecordingBackend()
    run_strategy(Strategy.EN_THEN_ES, es, en, backend=b)
    assert b.calls == [("train", "en", 4), ("continue", "es", 6)]

    b = _RecordingBackend()
    run_strategy(Strategy.JOINT, es, en, backend=b)
    assert b.calls == [("train", "joint-es-en", 10)]


def test_strategy_accepts_string_names():
    b = _RecordingBackend()
    run_strategy("ES_ONLY", rule_corpus(3, seed=0), None, backend=b)
    assert b.calls == [("train", "es", 3)]


def test_es_only_ignores_english_entirely():
    es = rule_corpus(50, seed=0)
    en = rule_corpus(30, seed=1)
    config = TrainConfig(epochs=2, seed=0)
    without = run_strategy(Strategy.ES_ONLY, es, None, config)
    with_en = run_strategy(Strategy.ES_ONLY, es, en, config)
    assert json.dumps(without.to_json_dict(), sort_keys=True) == json.dumps(
        with_en.to_json_dict(), sort_keys=True
    )


def test_joint_mixes_and_shuffles_with_config_seed():
    es = rule_corpus(30, seed=0)
    en = rule_corpus(20, seed=1)
    config = TrainConfig(epochs=2, seed=4)
    model = run_strategy(Strategy.JOINT, es, en, config)
    assert model.training_log == [
        {"data": "joint-es-en", "epochs": 2, "seed": 4, "size": 50}
    ]

    mixed = list(es) + list(en)
    random.Random(config.seed).shuffle(mixed)
    direct = train(mixed, config, data_tag="joint-es-en")
    assert model.weights == direct.weights


def test_backend_memoizes_fresh_phases(monkeypatch):
    calls = count_trains(monkeypatch)
    corpus = rule_corpus(30, seed=0)
    config = TrainConfig(epochs=2, seed=0)
    backend = PerceptronBackend()
    first = backend.train(corpus, config, "es")
    # equal tokens and labels in new objects are the same phase;
    # provenance tags do not reach training
    copies = [LabeledUtterance(u.tokens, u.labels, source="copy") for u in corpus]
    assert backend.train(copies, config, "es") is first
    assert backend.train(corpus, TrainConfig(epochs=2, seed=1), "es") is not first
    assert backend.train(corpus, config, "en") is not first
    assert backend.train(corpus[:-1], config, "es") is not first
    assert calls == ["es", "es", "en", "es"]


def test_es_then_en_reuses_es_only_phase(monkeypatch):
    calls = count_trains(monkeypatch)
    es = rule_corpus(40, seed=0)
    en = rule_corpus(20, seed=1)
    config = TrainConfig(epochs=2, seed=0)
    backend = PerceptronBackend()
    es_only = run_strategy(Strategy.ES_ONLY, es, None, config, backend)
    before = json.dumps(es_only.to_json_dict(), sort_keys=True)
    two_phase = run_strategy(Strategy.ES_THEN_EN, es, en, config, backend)
    assert calls == ["es"]
    assert json.dumps(es_only.to_json_dict(), sort_keys=True) == before
    assert two_phase.training_log == es_only.training_log + [
        {"data": "en", "epochs": 2, "seed": 0, "size": 20}
    ]
    fresh = continue_train(train(es, config, "es"), en, config, "en")
    assert two_phase.weights == fresh.weights


def test_run_strategy_without_backend_trains_fresh(monkeypatch):
    calls = count_trains(monkeypatch)
    es = rule_corpus(10, seed=0)
    config = TrainConfig(epochs=1, seed=0)
    a = run_strategy(Strategy.ES_ONLY, es, None, config)
    b = run_strategy(Strategy.ES_ONLY, es, None, config)
    assert calls == ["es", "es"]
    assert a is not b


def test_strategy_data_requirements():
    es = rule_corpus(5, seed=0)
    with pytest.raises(EmptyCorpus):
        run_strategy(Strategy.ES_ONLY, [], None)
    for s in (Strategy.ES_THEN_EN, Strategy.EN_THEN_ES, Strategy.JOINT):
        with pytest.raises(MissingEnglishData):
            run_strategy(s, es, None)
        with pytest.raises(MissingEnglishData):
            run_strategy(s, es, [])


# -------------------------------------------------------------- oversample


def test_oversample_balances_copies():
    corpus = rule_corpus(7, seed=0)
    out = oversample(corpus, 24, seed=0)
    assert len(out) == 24
    counts = {}
    for u in out:
        counts[id(u)] = counts.get(id(u), 0) + 1
    assert set(counts.values()) <= {3, 4}
    assert len(counts) == 7


def test_oversample_exact_multiple_is_a_permutation_of_copies():
    corpus = rule_corpus(5, seed=1)
    out = oversample(corpus, 10, seed=2)
    counts = {}
    for u in out:
        counts[id(u)] = counts.get(id(u), 0) + 1
    assert all(c == 2 for c in counts.values())


def test_oversample_deterministic():
    corpus = rule_corpus(6, seed=3)
    assert oversample(corpus, 20, seed=5) == oversample(corpus, 20, seed=5)
    assert oversample(corpus, 20, seed=5) != oversample(corpus, 20, seed=6)


def test_oversample_errors():
    corpus = rule_corpus(5, seed=0)
    with pytest.raises(TargetTooSmall):
        oversample(corpus, 4, seed=0)
    with pytest.raises(EmptyCorpus):
        oversample([], 3, seed=0)
